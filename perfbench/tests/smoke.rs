//! The benchmark's own smoke test: every workload once at tiny scale,
//! untraced and traced. Each run must pass its correctness gates, fail
//! no operation, print every metric `BENCHMARK.json` names (a
//! `name = value unit` line, and the same unit in the final JSON line)
//! and, when traced, write its spans.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

/// `v[key]`, or a panic naming the key.
fn at<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("missing key {key} in {v:?}"))
}

fn contract() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Runs one tiny workload in `dir`; returns its standard output.
fn run(dir: &Path, workload: &str, trace: u8, block_size: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args([
            "--trace",
            &trace.to_string(),
            "--pass-blocks",
            "6",
            "--block-size",
            block_size,
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str, block_size: &str) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    std::fs::create_dir_all(&dir).expect("smoke directory");
    let contract = contract();
    for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let stdout = run(&dir, workload, trace, block_size);
        let last = stdout.lines().last().expect("a result line");
        let result: Value = serde_json::from_str(last).expect("last line is JSON");
        assert_eq!(
            at(&result, "correct").as_bool(),
            Some(true),
            "{workload}: gate failed\n{stdout}"
        );
        assert_eq!(
            at(&result, "failed").as_u64(),
            Some(0),
            "{workload}: failed operations\n{stdout}"
        );
        assert!(at(&result, "attempted").as_u64().is_some_and(|n| n >= 1));
        let metrics = at(&result, "metrics");
        let wanted = at(&contract, key).as_array().expect("metric list");
        let printed = metrics.as_object().expect("metrics object").len();
        assert_eq!(
            printed,
            wanted.len(),
            "{workload}: metric set differs from the contract"
        );
        for m in wanted {
            let name = at(m, "name").as_str().expect("name");
            let unit = at(m, "unit").as_str().expect("unit");
            let metric = at(metrics, name);
            assert_eq!(
                at(metric, "unit").as_str(),
                Some(unit),
                "{workload}: {name} unit"
            );
            assert!(at(metric, "value").as_f64().is_some_and(f64::is_finite));
            let line_prefix = format!("{name} = ");
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&line_prefix))
                .unwrap_or_else(|| panic!("{workload}: no line for {name}"));
            assert!(line.contains(&format!(" {unit} (")), "{workload}: {line}");
        }
        if trace == 1 {
            let spans = dir.join(format!(".perfbench/trace-{workload}-7.jsonl"));
            let text = std::fs::read_to_string(&spans).expect("span file written");
            assert!(text
                .lines()
                .any(|l| l.contains("\"name\":\"monitor.add_block\"")));
        }
    }
}

#[test]
fn serve_durable_smoke() {
    check("serve_durable", "100");
}

#[test]
fn itemsets_window_smoke() {
    check("itemsets_window", "100");
}

#[test]
fn density_window_smoke() {
    check("density_window", "50");
}
