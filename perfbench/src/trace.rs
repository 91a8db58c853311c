//! The traced run's instruments: spans recorded from the benchmark's own
//! code around calls into each layer's public functions, wrappers that
//! put such spans inside the engine's calls into a maintainer or a
//! similarity oracle, and probes that time one layer on a workload's
//! own blocks and models.
//!
//! Spans are kept in memory and written out as JSONL when the run ends.
//! Nothing here reaches inside the program: a span covers exactly one
//! call the benchmark (or a wrapper it handed to the engine) made.

use crate::measure::{ms, Report};
use crate::{Opts, Outcome, Samples};
use demon_core::engine::DemonEngine;
use demon_core::maintainer::{DecrementalMaintainer, ModelMaintainer};
use demon_focus::similarity::SimilarityOracle;
use demon_focus::windowed::WindowedCompactMiner;
use demon_serve::model::MaintainedModel;
use demon_serve::{Request, Response, ServableModel};
use demon_types::wal::WalWriter;
use demon_types::{obs, Block, BlockId};
use std::collections::{BTreeMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-layer samples by metric name.
pub type Layers = BTreeMap<&'static str, Vec<f64>>;

/// Adds one sample to a layer metric.
pub fn push(layers: &mut Layers, name: &'static str, v: f64) {
    layers.entry(name).or_default().push(v);
}

/// One recorded call: name, start and end since the tracer's epoch,
/// the enclosing span (0 = none) and the block being processed.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: u64,
    pub block: u64,
}

/// An in-memory span recorder. Nesting follows the single thread that
/// drives the engine (the workloads' engines call their maintainers
/// serially), so the enclosing span is one atomic cell.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    current: AtomicU64,
    block: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            block: AtomicU64::new(0),
        })
    }

    /// Tags the spans that follow with block `id`.
    pub fn set_block(&self, id: BlockId) {
        self.block.store(id.value(), Ordering::Relaxed);
    }

    /// Runs `f` inside a span named `name`; returns its result and
    /// duration.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.current.store(parent, Ordering::Relaxed);
        let span = Span {
            id,
            name,
            start,
            end,
            parent,
            block: self.block.load(Ordering::Relaxed),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
        (out, end - start)
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    }

    /// The per-call layer metrics read off the wrappers' spans.
    pub fn add_span_layers(&self, layers: &mut Layers) {
        for (layer, span) in [
            ("clustering.absorb_ms", "clustering.absorb_block"),
            ("clustering.shed_ms", "clustering.shed_block"),
            ("focus.mine_block_ms", "focus.mine_block"),
        ] {
            layers.insert(layer, self.durations_ms(span));
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span buffer poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"block\":{}}}",
                s.id,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.parent,
                s.block
            )?;
        }
        out.flush()
    }
}

/// A maintainer that records a span around every `absorb` and `shed`
/// the engine makes, and otherwise forwards to the wrapped maintainer.
pub struct Traced<M> {
    pub inner: M,
    tracer: Arc<Tracer>,
    absorb: &'static str,
    shed: &'static str,
}

impl<M> Traced<M> {
    pub fn new(inner: M, tracer: &Arc<Tracer>, absorb: &'static str, shed: &'static str) -> Self {
        Traced {
            inner,
            tracer: Arc::clone(tracer),
            absorb,
            shed,
        }
    }
}

impl<M: ModelMaintainer> ModelMaintainer for Traced<M> {
    type Record = M::Record;
    type Model = M::Model;

    fn fresh(&self) -> M::Model {
        self.inner.fresh()
    }

    fn register_block(&mut self, block: Block<M::Record>) {
        self.inner.register_block(block);
    }

    fn absorb(&self, model: &mut M::Model, id: BlockId) {
        self.tracer
            .span(self.absorb, || self.inner.absorb(model, id));
    }

    fn retire_block(&mut self, id: BlockId) {
        self.inner.retire_block(id);
    }
}

impl<M: DecrementalMaintainer> DecrementalMaintainer for Traced<M> {
    fn shed(&self, model: &mut M::Model, id: BlockId) {
        self.tracer.span(self.shed, || self.inner.shed(model, id));
    }
}

/// A similarity oracle that records a span around every pairwise
/// judgement and, where the oracle exposes its block-local model,
/// around mining each block's model the first time it is needed.
pub struct TracedOracle<O, R> {
    inner: O,
    tracer: Arc<Tracer>,
    premine: Option<fn(&mut O, &Block<R>)>,
    mined: HashSet<BlockId>,
}

impl<O, R> TracedOracle<O, R> {
    pub fn new(inner: O, tracer: &Arc<Tracer>, premine: Option<fn(&mut O, &Block<R>)>) -> Self {
        TracedOracle {
            inner,
            tracer: Arc::clone(tracer),
            premine,
            mined: HashSet::new(),
        }
    }
}

impl<O: SimilarityOracle<R>, R> SimilarityOracle<R> for TracedOracle<O, R> {
    fn similar(&mut self, a: &Block<R>, b: &Block<R>) -> (bool, f64) {
        if let Some(premine) = self.premine {
            for block in [a, b] {
                if self.mined.insert(block.id()) {
                    let inner = &mut self.inner;
                    self.tracer
                        .span("focus.mine_block", || premine(inner, block));
                }
            }
        }
        let inner = &mut self.inner;
        self.tracer.span("focus.similar", || inner.similar(a, b)).0
    }
}

/// Obs counter totals summed over the traced passes.
#[derive(Default)]
pub struct CounterTotals(BTreeMap<String, u64>);

impl CounterTotals {
    /// Starts counting for one traced pass.
    pub fn begin() {
        obs::enable();
        obs::reset();
    }

    /// Ends a traced pass: folds the counters in and turns the recorder
    /// off again.
    pub fn end(&mut self) {
        let snap = obs::snapshot();
        for (name, value) in snap.counters {
            *self.0.entry(name.to_string()).or_insert(0) += value;
        }
        obs::drain_events();
        obs::disable();
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// The ingest frame payload a client sends for `block`.
pub fn ingest_frame<S: ServableModel>(block: &Block<S::Record>, meta: u32) -> Vec<u8> {
    Request::IngestBlock {
        class: S::CLASS.tag(),
        id: block.id(),
        interval: block.interval(),
        meta,
        payload: S::encode_records(block).expect("block encodes"),
    }
    .encode()
}

// The serving layers, timed on a workload's own blocks and models: what
// the daemon's decode, WAL and render cost on this data.

/// Decodes `frame`, the daemon's first step on an ingest; returns the
/// time it took.
pub fn probe_decode(tracer: &Tracer, frame: &[u8], layers: &mut Layers) -> Duration {
    let (decoded, t) = tracer.span("serve.decode", || Request::decode(frame));
    assert!(decoded.is_ok(), "ingest frame failed to decode");
    push(layers, "serve.decode_ms", ms(t));
    t
}

/// Appends `frame` to `wal` and fsyncs it; returns the time both took.
pub fn probe_wal(
    tracer: &Tracer,
    wal: &mut WalWriter,
    frame: &[u8],
    layers: &mut Layers,
) -> Duration {
    let (r, append) = tracer.span("wal.append_unsynced", || wal.append_unsynced(frame));
    r.expect("WAL append");
    let (r, fsync) = tracer.span("wal.sync", || wal.sync());
    r.expect("WAL fsync");
    push(layers, "wal.append_ms", ms(append));
    push(layers, "wal.fsync_ms", ms(fsync));
    append + fsync
}

/// Renders `model` as the `QueryModel` answer and counts its bytes.
pub fn probe_render<S: ServableModel>(
    tracer: &Tracer,
    ctx: &S::RenderCtx,
    model: &MaintainedModel<S>,
    layers: &mut Layers,
) {
    let (json, t) = tracer.span("serve.render_model_json", || {
        S::render_model_json(ctx, model)
    });
    let bytes = Response::Model(json.expect("model renders")).encode().len();
    push(layers, "serve.render_ms", ms(t));
    push(layers, "serve.bytes_out", bytes as f64);
}

/// `DemonMonitor::add_block`, step by step under spans: the engine,
/// then the pattern miner. Returns the time taken and whether the
/// engine accepted the block.
pub fn traced_apply<M, O, R>(
    tracer: &Tracer,
    engine: &mut DemonEngine<M>,
    miner: &mut WindowedCompactMiner<O, R>,
    block: Block<R>,
    layers: &mut Layers,
) -> (Duration, bool)
where
    M: ModelMaintainer<Record = R> + Sync,
    O: SimilarityOracle<R>,
    R: Clone,
{
    let ((maintenance, patterns), dt) = tracer.span("monitor.add_block", || {
        let m = tracer
            .span("core.add_block", || engine.add_block(block.clone()))
            .0;
        let p = tracer
            .span("focus.miner.add_block", || miner.add_block(block))
            .0;
        (m, p)
    });
    if let Ok(m) = &maintenance {
        push(layers, "core.response_ms", ms(m.response_time));
        push(layers, "core.offline_ms", ms(m.offline_time));
    }
    push(layers, "focus.patterns_ms", ms(patterns.time));
    push(
        layers,
        "focus.pairs_evaluated",
        patterns.pairs_evaluated as f64,
    );
    if patterns.pairs_evaluated > 0 {
        let ratio = patterns.similar_pairs as f64 / patterns.pairs_evaluated as f64;
        push(layers, "focus.similar_ratio", ratio);
    }
    (dt, maintenance.is_ok())
}

/// Every per-layer metric of the catalog not yet in `report`: the
/// itemset counters from the obs totals, the rest as the median of
/// their per-call samples. Layers a workload never reaches report 0.
pub fn put_layers(report: &mut Report, layers: &Layers, counters: &CounterTotals) {
    let blocks = layers.get("focus.patterns_ms").map_or(1, Vec::len).max(1) as f64;
    put_counters(report, counters, blocks);
    for &(name, unit) in crate::PER_LAYER {
        if !report.metrics.contains_key(name) {
            report.put_median(name, unit, layers.get(name).map_or(&[][..], Vec::as_slice));
        }
    }
}

/// The itemset counters, per block, from the obs recorder's totals over
/// the traced passes.
pub fn put_counters(report: &mut Report, c: &CounterTotals, blocks: f64) {
    let probed = c.get("candidates_probed") as f64;
    let tids = c.get("tids_scanned") as f64;
    let kernels =
        (c.get("intersect.merge") + c.get("intersect.gallop") + c.get("intersect.bitset")) as f64;
    report.put(
        "itemsets.candidates_probed",
        probed / blocks,
        "count/block",
        1,
    );
    report.put("itemsets.tids_scanned", tids / blocks, "count/block", 1);
    report.put(
        "itemsets.tids_per_candidate",
        if probed > 0.0 { tids / probed } else { 0.0 },
        "count",
        1,
    );
    let share = if kernels > 0.0 {
        c.get("intersect.bitset") as f64 / kernels
    } else {
        0.0
    };
    report.put("itemsets.intersect_bitset_share", share, "ratio", 1);
    report.put(
        "itemsets.border_promotions",
        c.get("border_promotions") as f64 / blocks,
        "count/block",
        1,
    );
}

/// What a traced run accumulates over its traced passes.
pub struct TraceRun {
    pub tracer: Arc<Tracer>,
    pub samples: Samples,
    pub layers: Layers,
    pub counters: CounterTotals,
}

impl TraceRun {
    pub fn new() -> TraceRun {
        TraceRun {
            tracer: Tracer::new(),
            samples: Samples::default(),
            layers: Layers::new(),
            counters: CounterTotals::default(),
        }
    }

    /// Reports `bench.trace_overhead` against the untraced passes
    /// `plain` and every per-layer metric, writes the spans, and counts
    /// the traced passes' operations into `out`.
    pub fn finish(mut self, plain: &Samples, opts: &Opts, report: &mut Report, out: &mut Outcome) {
        let overhead = self.samples.records_per_s() / plain.records_per_s();
        report.put("bench.trace_overhead", overhead, "ratio", 1);
        self.tracer.add_span_layers(&mut self.layers);
        put_layers(report, &self.layers, &self.counters);
        let path = crate::trace_path(opts);
        if let Err(e) = self.tracer.write_jsonl(&path) {
            out.fail(&format!("writing {}: {e}", path.display()));
        }
        out.attempted += self.samples.attempted;
        out.failed += self.samples.failed;
    }
}
