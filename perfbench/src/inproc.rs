//! The in-process workloads, `itemsets_window` and `density_window`: a
//! `DemonMonitor` fed pre-generated blocks in a closed loop, with an
//! open-loop stream of model reads. The reads share the ingesting
//! thread, as in an application that embeds the monitor: each is
//! answered after the block in progress and timed from when it was due.
//!
//! A run is a sequence of passes. Each pass builds a fresh monitor and
//! feeds it a block sequence of fixed length generated from the seed and
//! the pass number, so every pass does the same amount of work, a faster
//! program finishes more passes rather than reaching a later stream
//! position, and a run's figures average over several streams. A traced
//! run feeds each stream twice, untraced then traced; traced passes drive
//! the monitor's engine and pattern miner directly (exactly as
//! `DemonMonitor::add_block` does) so each call gets its own span.

use crate::measure::{ms, Report};
use crate::trace::{
    ingest_frame, probe_decode, probe_render, probe_wal, push, traced_apply, CounterTotals, Layers,
    TraceRun, Traced, TracedOracle, Tracer,
};
use crate::{Opts, Outcome, Samples};
use demon_clustering::{DbscanParams, WindowedDbscan};
use demon_core::engine::{DataSpan, DemonEngine};
use demon_core::maintainer::ModelMaintainer;
use demon_core::monitor::DemonMonitor;
use demon_core::{BlockSelector, DbscanMaintainer, ItemsetMaintainer};
use demon_datagen::{DensityDriftGen, QuestGen, QuestParams, Shape, ShapeParams};
use demon_focus::similarity::{
    DbscanSimilarity, ItemsetSimilarity, SimilarityConfig, SimilarityOracle,
};
use demon_focus::windowed::WindowedCompactMiner;
use demon_itemsets::counter::count_supports_with;
use demon_itemsets::{CounterKind, FrequentItemsets, TxStore};
use demon_serve::{DbscanModel, ItemsetModel, ServableModel};
use demon_types::wal::WalWriter;
use demon_types::{Block, BlockId, ItemSet, MinSupport, Parallelism, Point, Result, Transaction};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Model reads per second in the open-loop query stream.
pub const QUERY_HZ: f64 = 40.0;

/// Pattern-detection window of every workload's monitor.
pub const PATTERN_WINDOW: usize = 8;

/// FOCUS similarity threshold α (the daemon's default).
pub const ALPHA: f64 = 0.12;

/// `setup_s` samples per pass, and monitor constructions per sample.
const SETUP_SAMPLES: usize = 10;
const SETUP_BATCH: usize = 1000;

type Engine<W> = DemonEngine<Traced<<W as InProcess>::M>>;
type Miner<W> = WindowedCompactMiner<
    TracedOracle<<W as InProcess>::O, <W as InProcess>::R>,
    <W as InProcess>::R,
>;

/// What differs between the in-process workloads.
pub trait InProcess {
    type R: Clone;
    type M: ModelMaintainer<Record = Self::R> + Sync;
    type O: SimilarityOracle<Self::R>;
    /// The serving class of the same model, for the serve-layer probes.
    type S: ServableModel<Record = Self::R, Maintainer = Self::M>;

    /// The block sequence of pass `pass`, generated from the seed.
    fn blocks(&self, pass: usize) -> Vec<Block<Self::R>>;
    /// The untraced monitor, as an application would build it.
    fn monitor(&self) -> Result<DemonMonitor<Self::M, Self::O>>;
    /// The same monitor's engine and pattern miner, wrapped for tracing.
    fn traced(&self, tracer: &Arc<Tracer>) -> Result<(Engine<Self>, Miner<Self>)>;
    /// The wire meta word of this class's ingest frames.
    fn meta(&self) -> u32;
    /// Answers one model read (what a reader of the model asks).
    fn answer(model: &<Self::M as ModelMaintainer>::Model) -> usize;
    /// The correctness gate on a pass's final model over `blocks`.
    fn gate(
        &self,
        blocks: &[Block<Self::R>],
        model: Option<&<Self::M as ModelMaintainer>::Model>,
    ) -> std::result::Result<(), String>;
    /// Layer probes at the end of a traced pass.
    fn layer_end(&self, engine: &Engine<Self>, layers: &mut Layers);
}

/// Open-loop model reads served between blocks: each read is timed
/// from the instant it was due.
struct QueryClock {
    start: Instant,
    period: Duration,
    next: u64,
}

impl QueryClock {
    fn new() -> Self {
        QueryClock {
            start: Instant::now(),
            period: Duration::from_secs_f64(1.0 / QUERY_HZ),
            next: 0,
        }
    }

    fn serve_due(&mut self, samples: &mut Samples, mut answer: impl FnMut() -> usize) {
        loop {
            let due = self.start + self.period * self.next as u32;
            let now = Instant::now();
            if due > now {
                return;
            }
            samples.late_ms.push(ms(now - due));
            std::hint::black_box(answer());
            samples.query_ms.push(ms(due.elapsed()));
            samples.attempted += 1;
            self.next += 1;
        }
    }
}

/// Runs an in-process workload for `opts.seconds` and fills `report`.
pub fn run<W: InProcess>(w: &W, opts: &Opts, work: &Path, report: &mut Report) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut plain = Samples::default();
    let mut traced = TraceRun::new();
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let mut pass = 0usize;
    loop {
        time_setup(w, &mut setup, &mut out);
        let blocks = w.blocks(crate::stream_of(opts, pass));
        if opts.trace && pass % 2 == 1 {
            let wal_path = work.join(format!("probe-{pass}.wal"));
            let mut wal = WalWriter::create(&wal_path, 1, W::S::CLASS.tag()).expect("probe WAL");
            traced_pass(w, &blocks, &mut traced, &mut wal, &mut out);
            drop(wal);
            std::fs::remove_file(&wal_path).ok();
        } else {
            plain_pass(w, &blocks, &mut plain, &mut out);
        }
        pass += 1;
        if crate::run_done(opts, pass, deadline) {
            break;
        }
    }
    crate::put_end_to_end(report, &plain, &setup, crate::measure::peak_rss_mb(None));
    if opts.trace {
        traced.finish(&plain, opts, report, &mut out);
    }
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    out
}

/// Set-up is monitor construction. One construction takes well under a
/// microsecond, so each sample times a batch and reports the mean; the
/// samples are taken before every pass, spread over the run.
fn time_setup<W: InProcess>(w: &W, setup: &mut Vec<f64>, out: &mut Outcome) {
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            match w.monitor() {
                Ok(m) => drop(std::hint::black_box(m)),
                Err(_) => out.fail("monitor construction failed"),
            }
        }
        setup.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }
}

fn plain_pass<W: InProcess>(w: &W, blocks: &[Block<W::R>], s: &mut Samples, out: &mut Outcome) {
    let input = blocks.to_vec();
    let Ok(mut mon) = w.monitor() else {
        out.fail("monitor construction failed");
        return;
    };
    let mut queries = QueryClock::new();
    for block in input {
        let n = block.len() as u64;
        let t = Instant::now();
        let r = mon.add_block(block);
        let dt = t.elapsed();
        s.ingest(dt, n, r.is_ok());
        if let Some(model) = mon.model() {
            queries.serve_due(s, || W::answer(model));
        }
    }
    if let Err(e) = w.gate(blocks, mon.model()) {
        out.fail(&e);
    }
}

fn traced_pass<W: InProcess>(
    w: &W,
    blocks: &[Block<W::R>],
    t: &mut TraceRun,
    wal: &mut WalWriter,
    out: &mut Outcome,
) {
    let input = blocks.to_vec();
    let Ok((mut engine, mut miner)) = w.traced(&t.tracer) else {
        out.fail("traced engine construction failed");
        return;
    };
    let mut queries = QueryClock::new();
    CounterTotals::begin();
    for block in input {
        t.tracer.set_block(block.id());
        let frame = ingest_frame::<W::S>(&block, w.meta());
        let n = block.len() as u64;
        let (dt, ok) = traced_apply(&t.tracer, &mut engine, &mut miner, block, &mut t.layers);
        t.samples.ingest(dt, n, ok);
        // Serving-layer probes on this block and the model it produced,
        // outside the ingest timing.
        probe_decode(&t.tracer, &frame, &mut t.layers);
        probe_wal(&t.tracer, wal, &frame, &mut t.layers);
        if let Some(model) = engine.current_model() {
            let ctx = W::S::render_ctx(&engine.maintainer().inner);
            probe_render::<W::S>(&t.tracer, &ctx, model, &mut t.layers);
            queries.serve_due(&mut t.samples, || W::answer(model));
        }
    }
    t.counters.end();
    w.layer_end(&engine, &mut t.layers);
    if let Err(e) = w.gate(blocks, engine.current_model()) {
        out.fail(&e);
    }
}

/// Times both counting kernels on a model's negative border over the
/// blocks it covers: ECUT per TID read, PT-Scan per transaction.
pub fn count_kernels(store: &TxStore, model: &FrequentItemsets, layers: &mut Layers) {
    let ids: Vec<BlockId> = model.included_blocks().to_vec();
    let mut border: Vec<ItemSet> = model.border().keys().cloned().collect();
    border.sort();
    if border.is_empty() {
        return;
    }
    let par = Parallelism::serial();
    let t = Instant::now();
    let ecut = count_supports_with(CounterKind::Ecut, store, &ids, &border, par);
    let ecut_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let scan = count_supports_with(CounterKind::PtScan, store, &ids, &border, par);
    let scan_ns = t.elapsed().as_nanos() as f64;
    assert_eq!(ecut.counts, scan.counts, "counting kernels disagree");
    let txs = store.n_transactions(&ids).max(1) as f64;
    push(
        layers,
        "itemsets.count_ecut_ns_per_tid",
        ecut_ns / ecut.units_read.max(1) as f64,
    );
    push(layers, "itemsets.count_ptscan_ns_per_tx", scan_ns / txs);
}

// ---------------------------------------------------------------------
// itemsets_window
// ---------------------------------------------------------------------

/// `itemsets_window`: BORDERS (ECUT) under GEMM's most-recent window.
///
/// Why: GEMM's off-line updates of the future windows' models dominate
/// each block, so this is where the counting kernels, BORDERS and the
/// pattern miner's block mining show, with no serving layer on the
/// path. At minimum support 0.03 a block costs about 55 ms on a 2-core
/// 2.1 GHz Xeon VM, so one run holds several hundred blocks. Moves: `core.offline_ms`,
/// `core.response_ms`, the `itemsets.*` counters and
/// `focus.patterns_ms`/`focus.mine_block_ms` should move `ingest_p50_ms`
/// and `records_per_s` here. `clustering.*` should not.
pub struct ItemsetsWindow {
    seed: u64,
    n_blocks: usize,
    block_size: usize,
}

pub const ITEMSETS_SPEC: &str = "2M.20L.1I.4pats.4plen";
/// Blocks per pass (one fresh monitor per pass) and transactions per block.
pub const ITEMSETS_PASS_BLOCKS: usize = 30;
pub const ITEMSETS_BLOCK_TXS: usize = 1000;
pub const ITEMSETS_MINSUP: f64 = 0.03;
pub const WINDOW: usize = 4;

impl ItemsetsWindow {
    pub fn new(seed: u64, n_blocks: usize, block_size: usize) -> Self {
        ItemsetsWindow {
            seed,
            n_blocks,
            block_size,
        }
    }

    fn span() -> DataSpan {
        DataSpan::MostRecent {
            w: WINDOW,
            selector: BlockSelector::all(),
        }
    }
}

/// The generator seed of pass `pass` of a run seeded `seed`: each pass
/// streams different data, so a run's figures average over several
/// streams rather than resting on one.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (pass as u64 + 1)
}

/// `n` Quest blocks of `size` transactions: successive slices of one
/// generated database, TIDs ascending across blocks.
pub fn quest_blocks(spec: &str, seed: u64, n: usize, size: usize) -> Vec<Block<Transaction>> {
    let params = QuestParams::parse(spec, 1.0).expect("valid Quest spec");
    let mut gen = QuestGen::new(params, seed);
    (1..=n as u64)
        .map(|id| Block::new(BlockId(id), gen.take_transactions(size)))
        .collect()
}

pub fn minsup(v: f64) -> MinSupport {
    MinSupport::new(v).expect("valid minimum support")
}

/// The batch model over `blocks`.
pub fn batch_model(blocks: &[Block<Transaction>], k: MinSupport) -> FrequentItemsets {
    let mut store = TxStore::new(N_ITEMS);
    for b in blocks {
        store.add_block(b.clone());
    }
    let ids: Vec<BlockId> = blocks.iter().map(Block::id).collect();
    FrequentItemsets::mine_from(&store, &ids, k).expect("batch mine")
}

/// Item universe of every Quest workload (`1I` = 1000 items).
pub const N_ITEMS: u32 = 1000;

pub fn itemset_oracle(k: MinSupport) -> ItemsetSimilarity {
    ItemsetSimilarity::new(N_ITEMS, k, SimilarityConfig::Threshold { alpha: ALPHA })
}

pub fn premine_itemsets(o: &mut ItemsetSimilarity, b: &Block<Transaction>) {
    o.model(b);
}

impl InProcess for ItemsetsWindow {
    type R = Transaction;
    type M = ItemsetMaintainer;
    type O = ItemsetSimilarity;
    type S = ItemsetModel;

    fn blocks(&self, pass: usize) -> Vec<Block<Transaction>> {
        quest_blocks(
            ITEMSETS_SPEC,
            pass_seed(self.seed, pass),
            self.n_blocks,
            self.block_size,
        )
    }

    fn monitor(&self) -> Result<DemonMonitor<ItemsetMaintainer, ItemsetSimilarity>> {
        let k = minsup(ITEMSETS_MINSUP);
        let m = ItemsetMaintainer::new(N_ITEMS, k, CounterKind::Ecut);
        DemonMonitor::new(m, Self::span(), itemset_oracle(k), Some(PATTERN_WINDOW))
    }

    fn traced(&self, tracer: &Arc<Tracer>) -> Result<(Engine<Self>, Miner<Self>)> {
        let k = minsup(ITEMSETS_MINSUP);
        let m = ItemsetMaintainer::new(N_ITEMS, k, CounterKind::Ecut);
        let m = Traced::new(m, tracer, "itemsets.absorb_block", "itemsets.remove_block");
        let engine = DemonEngine::new(m, Self::span())?;
        let oracle = TracedOracle::new(
            itemset_oracle(k),
            tracer,
            Some(premine_itemsets as fn(&mut _, &_)),
        );
        Ok((engine, WindowedCompactMiner::new(oracle, PATTERN_WINDOW)))
    }

    fn meta(&self) -> u32 {
        N_ITEMS
    }

    fn answer(model: &FrequentItemsets) -> usize {
        model.frequent_sorted().len()
    }

    fn gate(
        &self,
        blocks: &[Block<Transaction>],
        model: Option<&FrequentItemsets>,
    ) -> std::result::Result<(), String> {
        let model = model.ok_or("itemsets_window: no model after the pass")?;
        let window = &blocks[blocks.len().saturating_sub(WINDOW)..];
        let reference = batch_model(window, minsup(ITEMSETS_MINSUP));
        if model.included_blocks() != reference.included_blocks()
            || model.n_transactions() != reference.n_transactions()
            || model.frequent() != reference.frequent()
        {
            return Err(
                "itemsets_window: GEMM model differs from a batch mine of the last w blocks".into(),
            );
        }
        Ok(())
    }

    fn layer_end(&self, engine: &Engine<Self>, layers: &mut Layers) {
        let store = engine.maintainer().inner.store();
        push(
            layers,
            "store.bytes_resident",
            store.resident_bytes() as f64,
        );
        if let Some(model) = engine.current_model() {
            count_kernels(store, model, layers);
        }
    }
}

// ---------------------------------------------------------------------
// density_window
// ---------------------------------------------------------------------

/// `density_window`: incremental DBSCAN slid by deletion.
///
/// Why: the only deletion-based window path. Each block is absorbed
/// through incremental insertion and, `w` blocks later, shed through
/// incremental removal, with no GEMM fan-out. In traced runs shedding a
/// 200-point block takes about 300 ms and absorbing one about 2 ms, so
/// the window's cost sits in deletion. Moves:
/// `clustering.absorb_ms` and `clustering.shed_ms` should move
/// `ingest_p50_ms` and `records_per_s` here; `itemsets.*` and
/// `core.offline_ms` should not.
pub struct DensityWindow {
    seed: u64,
    n_blocks: usize,
    block_size: usize,
}

pub const DBSCAN_EPS: f64 = 1.0;
pub const DBSCAN_MIN_PTS: usize = 4;
/// Blocks per pass (one fresh monitor per pass) and points per block.
pub const DENSITY_PASS_BLOCKS: usize = 24;
pub const DENSITY_BLOCK_POINTS: usize = 200;
/// Blocks per moons/rings regime before the shape switches.
pub const REGIME_BLOCKS: usize = 6;

fn dbscan_params() -> DbscanParams {
    DbscanParams::new(2, DBSCAN_EPS, DBSCAN_MIN_PTS)
}

impl DensityWindow {
    pub fn new(seed: u64, n_blocks: usize, block_size: usize) -> Self {
        DensityWindow {
            seed,
            n_blocks,
            block_size,
        }
    }
}

impl InProcess for DensityWindow {
    type R = Point;
    type M = DbscanMaintainer;
    type O = DbscanSimilarity;
    type S = DbscanModel;

    fn blocks(&self, pass: usize) -> Vec<Block<Point>> {
        let schedule = (0..self.n_blocks)
            .map(|i| {
                if (i / REGIME_BLOCKS).is_multiple_of(2) {
                    Shape::Moons
                } else {
                    Shape::Rings
                }
            })
            .collect();
        let seed = pass_seed(self.seed, pass);
        let mut gen = DensityDriftGen::new(ShapeParams::new(4.0, 0.1), seed, schedule);
        (0..self.n_blocks)
            .map(|_| gen.next_block(self.block_size))
            .collect()
    }

    fn monitor(&self) -> Result<DemonMonitor<DbscanMaintainer, DbscanSimilarity>> {
        let p = dbscan_params();
        DemonMonitor::new_decremental(
            DbscanMaintainer::new(p),
            WINDOW,
            DbscanSimilarity::new(p, ALPHA),
            Some(PATTERN_WINDOW),
        )
    }

    fn traced(&self, tracer: &Arc<Tracer>) -> Result<(Engine<Self>, Miner<Self>)> {
        let p = dbscan_params();
        let m = Traced::new(
            DbscanMaintainer::new(p),
            tracer,
            "clustering.absorb_block",
            "clustering.shed_block",
        );
        let engine = DemonEngine::new_decremental(m, WINDOW)?;
        let oracle = TracedOracle::new(DbscanSimilarity::new(p, ALPHA), tracer, None);
        Ok((engine, WindowedCompactMiner::new(oracle, PATTERN_WINDOW)))
    }

    fn meta(&self) -> u32 {
        2
    }

    fn answer(model: &WindowedDbscan) -> usize {
        model.summary().clusters.len()
    }

    fn gate(
        &self,
        blocks: &[Block<Point>],
        model: Option<&WindowedDbscan>,
    ) -> std::result::Result<(), String> {
        let model = model.ok_or("density_window: no model after the pass")?;
        let expected: Vec<BlockId> = blocks[blocks.len().saturating_sub(WINDOW)..]
            .iter()
            .map(Block::id)
            .collect();
        if model.covered_blocks() != expected {
            return Err("density_window: window does not cover the last w blocks".into());
        }
        model
            .structure()
            .verify_against_batch()
            .map_err(|e| format!("density_window: incremental DBSCAN differs from batch: {e}"))
    }

    fn layer_end(&self, engine: &Engine<Self>, layers: &mut Layers) {
        push(
            layers,
            "store.bytes_resident",
            engine.maintainer().inner.store().resident_bytes() as f64,
        );
        if let Some(model) = engine.current_model() {
            push(
                layers,
                "clustering.window_points",
                model.structure().len() as f64,
            );
        }
    }
}
