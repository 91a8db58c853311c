//! The `serve_durable` workload: the TCP daemon, run as a child
//! process of this benchmark, ingesting over one closed-loop connection
//! while a second connection reads in an open loop.

use crate::inproc::{
    batch_model, count_kernels, itemset_oracle, minsup, pass_seed, premine_itemsets, quest_blocks,
    N_ITEMS, PATTERN_WINDOW, QUERY_HZ,
};
use crate::measure::{ms, peak_rss_mb, Report};
use crate::trace::{
    ingest_frame, probe_decode, probe_render, probe_wal, push, traced_apply, CounterTotals, Layers,
    TraceRun, Traced, TracedOracle, Tracer,
};
use crate::{Opts, Outcome, Samples};
use demon_core::engine::{DataSpan, DemonEngine};
use demon_core::{ItemsetMaintainer, WiBss};
use demon_focus::windowed::WindowedCompactMiner;
use demon_itemsets::CounterKind;
use demon_serve::{Client, ItemsetModel, ServableModel, ServeConfig, Server};
use demon_types::wal::WalWriter;
use demon_types::{Block, Transaction};
use std::io::{BufRead, BufReader, Write as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Quest spec of the ingested stream (the CLI's default database).
pub const SPEC: &str = "1M.20L.1I.4pats.4plen";
/// Transactions per ingested block.
pub const BLOCK_TXS: usize = 500;
/// Blocks per pass (one fresh daemon per pass).
pub const PASS_BLOCKS: usize = 100;
/// Minimum support of the served model.
pub const MINSUP: f64 = 0.05;

/// `serve_durable`: the daemon at its defaults (itemsets, 1 shard,
/// unrestricted span, ECUT, 4 workers), a WAL fsynced before every ack,
/// and a pattern window of 8. One connection ingests 500-transaction
/// blocks in a closed loop, as `demon-cli client ingest` does; a second
/// sends QueryModel and Stats (3:1) at `QUERY_HZ`, open loop.
///
/// Why: the in-process apply is about half of each ack, so the serve
/// runtime, wire codec, WAL and render own the rest; writes run beside
/// reads on one shared lock. Moves: `serve.decode_ms` and
/// `serve.residual_ms` should move `ingest_p50_ms`/`ingest_p90_ms`;
/// `wal.append_ms`, `wal.fsync_ms` and `wal.fsyncs_per_block` should move
/// `ingest_p90_ms`; `serve.render_ms` and `serve.bytes_out` should move
/// `query_p50_ms`/`query_p90_ms`; `focus.patterns_ms` should move
/// `ingest_p50_ms`. `clustering.*` should not move.
pub struct ServeDurable {
    seed: u64,
    n_blocks: usize,
    block_size: usize,
}

impl ServeDurable {
    pub fn new(seed: u64, n_blocks: usize, block_size: usize) -> Self {
        ServeDurable {
            seed,
            n_blocks,
            block_size,
        }
    }

    /// Runs passes for `opts.seconds` and fills `report`.
    pub fn run(&self, opts: &Opts, work: &Path, report: &mut Report) -> Outcome {
        let mut out = Outcome::default();
        let mut plain = Samples::default();
        let mut traced = TraceRun::new();
        let mut setup = Vec::new();
        let mut rss: f64 = 0.0;
        let deadline = Instant::now() + Duration::from_secs(opts.seconds);
        let mut pass = 0usize;
        loop {
            let seed = pass_seed(self.seed, crate::stream_of(opts, pass));
            let blocks = quest_blocks(SPEC, seed, self.n_blocks, self.block_size);
            let reference = serde_json::to_string(&batch_model(&blocks, minsup(MINSUP)))
                .expect("reference model serializes");
            let dir = work.join(format!("wal-{pass}"));
            let shadow = (opts.trace && pass % 2 == 1)
                .then(|| (Shadow::new(&traced.tracer, work, pass), &mut traced));
            match Self::pass(&blocks, &reference, &dir, &mut plain, shadow, &mut out) {
                Ok((setup_s, rss_mb)) => {
                    setup.push(setup_s);
                    rss = rss.max(rss_mb);
                }
                Err(e) => out.fail(&format!("serve_durable pass {pass}: {e}")),
            }
            std::fs::remove_dir_all(&dir).ok();
            pass += 1;
            if crate::run_done(opts, pass, deadline) {
                break;
            }
        }
        crate::put_end_to_end(report, &plain, &setup, rss);
        if opts.trace {
            traced.finish(&plain, opts, report, &mut out);
        }
        out.attempted += plain.attempted;
        out.failed += plain.failed;
        out
    }

    /// One daemon lifetime: start, ingest every block while the reader
    /// runs, check the served model against `reference`, stop. An
    /// untraced pass records into `plain`; a traced one records into its
    /// `TraceRun` and follows each block with its shadow, the obs
    /// recorder on during the ingest loop only. Returns the set-up time
    /// and the daemon's resident high-water mark; a pass that cannot
    /// run counts as one failed operation.
    fn pass(
        blocks: &[Block<Transaction>],
        reference: &str,
        wal_dir: &Path,
        plain: &mut Samples,
        traced: Option<(Shadow, &mut TraceRun)>,
        out: &mut Outcome,
    ) -> Result<(f64, f64), String> {
        let (s, mut traced) = match traced {
            Some((sh, t)) => {
                let TraceRun {
                    samples,
                    layers,
                    counters,
                    ..
                } = t;
                (samples, Some((sh, layers, counters)))
            }
            None => (plain, None),
        };
        let t0 = Instant::now();
        let started = Daemon::start(wal_dir).and_then(|d| {
            let client = Client::connect(d.addr).map_err(|e| format!("connect: {e}"))?;
            Ok((d, client))
        });
        let (daemon, mut client) = match started {
            Ok(dc) => dc,
            Err(e) => {
                s.attempted += 1;
                s.failed += 1;
                return Err(e);
            }
        };
        let setup_s = t0.elapsed().as_secs_f64();

        let stop = AtomicBool::new(false);
        let reader = std::thread::scope(|scope| {
            let reader = scope.spawn(|| query_stream(daemon.addr, &stop));
            if traced.is_some() {
                CounterTotals::begin();
            }
            for block in blocks {
                let mut send = || client.ingest(N_ITEMS, block).is_ok();
                let (ok, ack) = match traced.as_ref() {
                    Some((sh, _, _)) => {
                        sh.tracer.set_block(block.id());
                        sh.tracer.span("serve.client.ingest", send)
                    }
                    None => {
                        let t = Instant::now();
                        (send(), t.elapsed())
                    }
                };
                s.ingest(ack, block.len() as u64, ok);
                if let Some((sh, layers, _)) = traced.as_mut() {
                    sh.follow(block, ack, layers);
                }
            }
            if let Some((_, _, counters)) = traced.as_mut() {
                counters.end();
            }
            stop.store(true, Ordering::SeqCst);
            reader.join().expect("query stream thread")
        });
        s.query_ms.extend(reader.query_ms);
        s.late_ms.extend(reader.late_ms);
        s.pending += reader.pending;
        s.attempted += reader.attempted;
        s.failed += reader.failed;

        // Gate: the served model equals a batch mine over every block.
        s.attempted += 1;
        match client.query_model_json() {
            Ok(json) if json == reference => {}
            Ok(_) => out.fail("serve_durable: served model differs from the batch mine"),
            Err(e) => {
                s.failed += 1;
                out.fail(&format!("serve_durable: final QueryModel failed: {e}"));
            }
        }
        if let Some((sh, layers, _)) = traced {
            s.attempted += 1;
            match client.stats_json() {
                Ok(stats) => {
                    let fsyncs = stats_counter(&stats, "wal.fsyncs") as f64;
                    push(layers, "wal.fsyncs_per_block", fsyncs / blocks.len() as f64);
                }
                Err(_) => s.failed += 1,
            }
            sh.finish(layers);
        }
        let rss = peak_rss_mb(Some(daemon.child.id()));
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        daemon.stop()?;
        Ok((setup_s, rss))
    }
}

/// What the open-loop reader measured.
#[derive(Default)]
struct Reads {
    query_ms: Vec<f64>,
    late_ms: Vec<f64>,
    pending: u64,
    attempted: u64,
    failed: u64,
}

/// Every `STATS_EVERY`-th read is a Stats request, the rest QueryModel.
/// The two answer at very different speeds; with a 1:1 mix the median
/// would fall in the gap between them and jump from run to run.
const STATS_EVERY: u32 = 4;

/// QueryModel and Stats reads, each due `1/QUERY_HZ` after the last one
/// was due and timed from its due instant, until `stop`.
fn query_stream(addr: SocketAddr, stop: &AtomicBool) -> Reads {
    let mut r = Reads::default();
    let Ok(mut client) = Client::connect(addr) else {
        r.attempted = 1;
        r.failed = 1;
        return r;
    };
    let period = Duration::from_secs_f64(1.0 / QUERY_HZ);
    let start = Instant::now();
    let mut k: u32 = 0;
    loop {
        let due = start + period * k;
        if stop.load(Ordering::SeqCst) {
            let ended = Instant::now();
            let due_by_end = (ended - start).as_secs_f64() / period.as_secs_f64();
            r.pending = (due_by_end.floor() as u64 + 1).saturating_sub(u64::from(k));
            return r;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep((due - now).min(Duration::from_millis(5)));
            continue;
        }
        r.late_ms.push(ms(now - due));
        let ok = if k % STATS_EVERY == STATS_EVERY - 1 {
            client.stats_json().is_ok()
        } else {
            client.query_model_json().is_ok()
        };
        r.attempted += 1;
        if ok {
            r.query_ms.push(ms(due.elapsed()));
        } else {
            r.failed += 1;
        }
        k += 1;
    }
}

/// A counter's value in a Stats answer (`"name":value`).
fn stats_counter(stats: &str, name: &str) -> u64 {
    stats
        .split(&format!("\"{name}\":"))
        .nth(1)
        .map(|t| {
            t.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|d| d.parse().ok())
        .unwrap_or(0)
}

type ShadowEngine = DemonEngine<Traced<ItemsetMaintainer>>;
type ShadowMiner = WindowedCompactMiner<
    TracedOracle<demon_focus::similarity::ItemsetSimilarity, Transaction>,
    Transaction,
>;

/// The traced run's copy of the daemon's per-block work, done in this
/// process after each ack so every layer gets its own span: decode the
/// ingest frame, append and fsync it to a WAL, apply it to a monitor
/// configured as the daemon's, render the model.
struct Shadow {
    tracer: Arc<Tracer>,
    engine: ShadowEngine,
    miner: ShadowMiner,
    wal: WalWriter,
    wal_path: PathBuf,
}

impl Shadow {
    fn new(tracer: &Arc<Tracer>, work: &Path, pass: usize) -> Shadow {
        let k = minsup(MINSUP);
        let m = Traced::new(
            ItemsetMaintainer::new(N_ITEMS, k, CounterKind::Ecut),
            tracer,
            "itemsets.absorb_block",
            "itemsets.remove_block",
        );
        let engine = DemonEngine::new(m, DataSpan::Unrestricted(WiBss::All)).expect("UW engine");
        let oracle = TracedOracle::new(
            itemset_oracle(k),
            tracer,
            Some(premine_itemsets as fn(&mut _, &_)),
        );
        let wal_path = work.join(format!("shadow-{pass}.wal"));
        let wal = WalWriter::create(&wal_path, 1, ItemsetModel::CLASS.tag()).expect("shadow WAL");
        Shadow {
            tracer: Arc::clone(tracer),
            engine,
            miner: WindowedCompactMiner::new(oracle, PATTERN_WINDOW),
            wal,
            wal_path,
        }
    }

    /// Repeats the daemon's work on `block` under spans; the ack time
    /// not covered by decode, WAL and apply is the serve residual.
    fn follow(&mut self, block: &Block<Transaction>, ack: Duration, layers: &mut Layers) {
        let tracer = Arc::clone(&self.tracer);
        let frame = ingest_frame::<ItemsetModel>(block, N_ITEMS);
        let decode = probe_decode(&tracer, &frame, layers);
        let wal = probe_wal(&tracer, &mut self.wal, &frame, layers);
        let (apply, _) = traced_apply(
            &tracer,
            &mut self.engine,
            &mut self.miner,
            block.clone(),
            layers,
        );
        let residual = ack.saturating_sub(decode + wal + apply);
        push(layers, "serve.residual_ms", ms(residual));
        if let Some(model) = self.engine.current_model() {
            probe_render::<ItemsetModel>(&tracer, &(), model, layers);
        }
    }

    fn finish(self, layers: &mut Layers) {
        let store = self.engine.maintainer().inner.store();
        push(
            layers,
            "store.bytes_resident",
            store.resident_bytes() as f64,
        );
        if let Some(model) = self.engine.current_model() {
            count_kernels(store, model, layers);
        }
        drop(self.wal);
        std::fs::remove_file(&self.wal_path).ok();
    }
}

/// The daemon child process. Dropping it kills and reaps the child if
/// it is still running; closing its stdin makes it exit on its own.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl Daemon {
    fn start(wal_dir: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--wal-dir")
            .arg(wal_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut daemon = Daemon {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        read.map_err(|e| format!("daemon address: {e}"))?;
        daemon.addr = line
            .trim()
            .parse()
            .map_err(|_| format!("daemon printed {line:?} instead of its address"))?;
        Ok(daemon)
    }

    /// Waits for the daemon to exit after a Shutdown request.
    fn stop(mut self) -> Result<(), String> {
        let status = self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.stdin.take();
    }
}

/// The daemon child: `perfbench daemon --wal-dir DIR`. Prints its bound
/// address on one line, serves until a Shutdown request, and exits if
/// its parent goes away (stdin closes).
pub fn daemon_main(args: &[String]) -> ExitCode {
    let Some(dir) = args
        .iter()
        .position(|a| a == "--wal-dir")
        .and_then(|i| args.get(i + 1))
    else {
        eprintln!("perfbench daemon: --wal-dir is required");
        return ExitCode::from(2);
    };
    let mut config = ServeConfig::new("127.0.0.1:0", N_ITEMS, minsup(MINSUP));
    config.wal_dir = Some(PathBuf::from(dir));
    config.pattern_window = Some(PATTERN_WINDOW);
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench daemon: bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut stdout = std::io::stdout();
    if writeln!(stdout, "{}", server.local_addr())
        .and_then(|()| stdout.flush())
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    // Orphan guard: the parent holds our stdin open for as long as it
    // wants us; end of input means it is gone.
    std::thread::spawn(|| {
        let mut sink = String::new();
        while std::io::stdin().read_line(&mut sink).is_ok_and(|n| n > 0) {
            sink.clear();
        }
        std::process::exit(3);
    });
    match server.run() {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}
