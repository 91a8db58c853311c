//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_durable|itemsets_window|density_window> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload is defined, with why it
//! was chosen and which per-layer metric should move which end-to-end
//! metric, next to its code: [`serve::ServeDurable`],
//! [`inproc::ItemsetsWindow`] and [`inproc::DensityWindow`].
//!
//! The program sees only the blocks generated from `--seed`. A run
//! measures for `--seconds`, checks every output against its batch
//! reference, and prints one line per metric (value, unit, sample count)
//! followed by a stamp line and, last, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones (`END_TO_END`);
//! with `--trace 1` they are the per-layer ones (`PER_LAYER`), the
//! spans are written to `.perfbench/trace-<workload>-<seed>.jsonl` and
//! the obs recorder is on during the traced passes only. Every result
//! is also written to `.perfbench/result-<workload>-<seed>-<trace>.json`
//! with its stamp (cores, CPU, rustc, git revision, seed). Failed or
//! refused operations are the JSON's `failed`, and `failed_ratio` is
//! printed with the other lines; it is no JSON metric because a correct
//! run reads 0. The two metric lists below mirror `BENCHMARK.json`; the
//! smoke test holds every run to exactly those names and units.
//!
//! `--pass-blocks N` and `--block-size N` shrink a workload for the
//! smoke test; the benchmark proper never passes them.

mod inproc;
mod measure;
mod serve;
mod trace;

use measure::{ms, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
    ("records_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.decode_ms", "ms"),
    ("serve.residual_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.bytes_out", "bytes"),
    ("wal.append_ms", "ms"),
    ("wal.fsync_ms", "ms"),
    ("wal.fsyncs_per_block", "count/block"),
    ("core.response_ms", "ms"),
    ("core.offline_ms", "ms"),
    ("itemsets.candidates_probed", "count/block"),
    ("itemsets.tids_scanned", "count/block"),
    ("itemsets.tids_per_candidate", "count"),
    ("itemsets.intersect_bitset_share", "ratio"),
    ("itemsets.border_promotions", "count/block"),
    ("itemsets.count_ecut_ns_per_tid", "ns"),
    ("itemsets.count_ptscan_ns_per_tx", "ns"),
    ("store.bytes_resident", "bytes"),
    ("focus.patterns_ms", "ms"),
    ("focus.mine_block_ms", "ms"),
    ("focus.pairs_evaluated", "count/block"),
    ("focus.similar_ratio", "ratio"),
    ("clustering.absorb_ms", "ms"),
    ("clustering.shed_ms", "ms"),
    ("clustering.window_points", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.query_late_ms", "ms"),
    ("bench.queries_pending", "count"),
];

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub pass_blocks: Option<usize>,
    pub block_size: Option<usize>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let get = |flag: &str| -> Result<Option<String>, String> {
            match args.iter().position(|a| a == flag) {
                None => Ok(None),
                Some(i) => args
                    .get(i + 1)
                    .cloned()
                    .map(Some)
                    .ok_or(format!("{flag} needs a value")),
            }
        };
        let num = |v: Option<String>, flag: &str| -> Result<Option<u64>, String> {
            v.map(|s| s.parse().map_err(|_| format!("{flag}: not a number: {s}")))
                .transpose()
        };
        let workload = get("--workload")?.ok_or("--workload is required")?;
        let seed = num(get("--seed")?, "--seed")?.unwrap_or(1);
        let seconds = num(get("--seconds")?, "--seconds")?.unwrap_or(10).max(1);
        let trace = match get("--trace")?.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        let pass_blocks = num(get("--pass-blocks")?, "--pass-blocks")?.map(|n| n.max(2) as usize);
        let block_size = num(get("--block-size")?, "--block-size")?.map(|n| n.max(10) as usize);
        Ok(Opts {
            workload,
            seed,
            seconds,
            trace,
            pass_blocks,
            block_size,
        })
    }
}

/// Closed-loop ingest and open-loop query samples of a set of passes.
#[derive(Default)]
pub struct Samples {
    pub ingest_ms: Vec<f64>,
    pub ingest_time: Duration,
    pub records: u64,
    pub query_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub pending: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    /// One ingested block: its latency, record count and outcome.
    pub fn ingest(&mut self, latency: Duration, records: u64, ok: bool) {
        self.attempted += 1;
        if ok {
            self.ingest_ms.push(ms(latency));
            self.ingest_time += latency;
            self.records += records;
        } else {
            self.failed += 1;
        }
    }

    /// Records maintained per second of time spent in ingest calls.
    pub fn records_per_s(&self) -> f64 {
        self.records as f64 / self.ingest_time.as_secs_f64().max(1e-9)
    }
}

/// What a run attempted, what failed, and which gates did not hold.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub gate_errors: Vec<String>,
}

impl Outcome {
    /// Records a failed correctness gate or a failed operation outside
    /// the counted ingest and query streams.
    pub fn fail(&mut self, what: &str) {
        if self.gate_errors.len() < 16 {
            self.gate_errors.push(what.to_string());
        }
    }
}

/// The end-to-end metrics of untraced passes, plus the generator's
/// lateness figures (reported with the per-layer metrics).
pub fn put_end_to_end(report: &mut Report, s: &Samples, setup_s: &[f64], rss_mb: f64) {
    report.put_latency("ingest_p50_ms", "ingest_p90_ms", &s.ingest_ms);
    report.put("records_per_s", s.records_per_s(), "1/s", s.ingest_ms.len());
    report.put_latency("query_p50_ms", "query_p90_ms", &s.query_ms);
    report.put_median("setup_s", "s", setup_s);
    report.put("peak_rss_mb", rss_mb, "MiB", 1);
    report.put_median("bench.query_late_ms", "ms", &s.late_ms);
    report.put("bench.queries_pending", s.pending as f64, "count", 1);
    let ratio = s.failed as f64 / s.attempted.max(1) as f64;
    report.put("failed_ratio", ratio, "ratio", s.attempted as usize);
}

/// Whether a run that has made `passes` passes stops: once `deadline`
/// has passed, after at least one pass, and in a traced run only after
/// a whole untraced/traced pair.
pub fn run_done(opts: &Opts, passes: usize, deadline: std::time::Instant) -> bool {
    let step = if opts.trace { 2 } else { 1 };
    passes >= step && passes.is_multiple_of(step) && std::time::Instant::now() >= deadline
}

/// The input stream of pass `pass`. A traced run feeds each stream
/// twice, untraced then traced, so the two sides of
/// `bench.trace_overhead` see the same blocks.
pub fn stream_of(opts: &Opts, pass: usize) -> usize {
    if opts.trace {
        pass / 2
    } else {
        pass
    }
}

/// Scratch and output directory, inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// Where a traced run writes its spans.
pub fn trace_path(opts: &Opts) -> PathBuf {
    out_dir().join(format!("trace-{}-{}.jsonl", opts.workload, opts.seed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        return serve::daemon_main(&args[1..]);
    }
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = out_dir().join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    let blocks = |default: usize| opts.pass_blocks.unwrap_or(default);
    let size = |default: usize| opts.block_size.unwrap_or(default);
    let outcome = match opts.workload.as_str() {
        "serve_durable" => {
            let w = serve::ServeDurable::new(
                opts.seed,
                blocks(serve::PASS_BLOCKS),
                size(serve::BLOCK_TXS),
            );
            w.run(&opts, &work, &mut report)
        }
        "itemsets_window" => {
            let w = inproc::ItemsetsWindow::new(
                opts.seed,
                blocks(inproc::ITEMSETS_PASS_BLOCKS),
                size(inproc::ITEMSETS_BLOCK_TXS),
            );
            inproc::run(&w, &opts, &work, &mut report)
        }
        "density_window" => {
            let w = inproc::DensityWindow::new(
                opts.seed,
                blocks(inproc::DENSITY_PASS_BLOCKS),
                size(inproc::DENSITY_BLOCK_POINTS),
            );
            inproc::run(&w, &opts, &work, &mut report)
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::fs::remove_dir_all(&work).ok();
            return ExitCode::from(2);
        }
    };
    std::fs::remove_dir_all(&work).ok();
    finish(&opts, &report, outcome)
}

/// Prints every metric, the stamp and the final JSON line; writes the
/// stamped result file.
fn finish(opts: &Opts, report: &Report, outcome: Outcome) -> ExitCode {
    let wanted = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = serde_json::Map::new();
    let mut detail = serde_json::Map::new();
    let mut correct = outcome.gate_errors.is_empty();
    for (name, m) in &report.metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("{} of ", m.note)
        };
        println!("{name} = {} {} ({note}n={})", m.value, m.unit, m.samples);
        detail.insert(
            name.to_string(),
            serde_json::json!({"value": m.value, "unit": m.unit, "samples": m.samples}),
        );
    }
    for &(name, unit) in wanted {
        match report.metrics.get(name) {
            Some(m) if m.unit == unit && m.value.is_finite() => {
                metrics.insert(
                    name.to_string(),
                    serde_json::json!({"value": m.value, "unit": unit}),
                );
            }
            _ => {
                eprintln!("perfbench: metric {name} ({unit}) missing or not finite");
                correct = false;
            }
        }
    }
    for e in &outcome.gate_errors {
        eprintln!("perfbench: gate failed: {e}");
    }
    let stamp = measure::stamp(&opts.workload, opts.seed, opts.seconds, opts.trace);
    println!("stamp = {stamp}");
    let result = serde_json::json!({
        "correct": correct,
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": metrics,
    });
    let file = serde_json::json!({"stamp": stamp, "result": result, "all_metrics": detail, "gate_errors": outcome.gate_errors});
    let path = out_dir().join(format!(
        "result-{}-{}-{}.json",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::write(&path, format!("{file}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
