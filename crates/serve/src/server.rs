//! The daemon: a fixed pool of worker threads serving framed requests
//! over TCP, one writer applying ingested blocks in arrival order —
//! optionally behind a write-ahead log, so an acknowledged block
//! survives `kill -9`.
//!
//! The runtime is generic over [`ServableModel`]: the same queue, WAL,
//! recovery, compaction and dispatch serve frequent itemsets (the
//! seed class, byte-for-byte unchanged), BIRCH+ clusters, windowed
//! decision trees and DBSCAN density models — `ServeConfig::model`
//! picks the class, and every wire payload and WAL record carries its
//! class tag so a mismatched client (or a WAL replayed into the wrong
//! daemon) is refused with a typed error instead of decode soup. The
//! shard count only picks the state behind the lock
//! ([`crate::state::build`]); everything below is the same at 1 and at
//! N shards.
//!
//! ## Concurrency shape
//!
//! ```text
//!  client sockets ──▶ worker threads (N, accept + serve)
//!                        │ queries            │ IngestBlock
//!                        ▼                    ▼
//!              RwLock<ServedState>        bounded ingest queue
//!                        ▲                    │
//!                        └── ingester thread ◀┘  (single writer)
//!                        │         │ check id, append+fsync, apply
//!                        ▼         ▼
//!                  compactor ◀── WAL lane(s): wal-<gen>.log
//!                  (snapshot + rotate)
//! ```
//!
//! * **Queries** (`QueryModel`, `QuerySequences`, `Stats`, `Snapshot`)
//!   take the state's read lock, so any number run concurrently with
//!   each other and block only while a block is being applied. The
//!   model JSON is rendered at most once per applied block: an epoch
//!   bumped under the write lock keys a one-entry memo, so a burst of
//!   readers between two blocks pays for one render, and a memo hit
//!   takes no read lock at all.
//! * **Ingest** is serialized through a bounded queue drained by one
//!   ingester thread holding the write lock per block. The worker that
//!   accepted the request blocks on a completion slot, so a successful
//!   `IngestBlock` acknowledgment means the block is *applied* — a
//!   query on the same connection afterwards sees it. When the queue
//!   stays full past the backpressure deadline the request is rejected
//!   with a typed `Busy` error (`serve.rejects`), never buffered
//!   unboundedly.
//! * **Durability** (`wal_dir` set): the ingester first checks the
//!   block's id against the last applied one — a replay or a gap is
//!   answered with its typed error and never reaches the log — then
//!   appends the block's encoded ingest request to its lane's live
//!   `wal-<gen>.log` as one framed, checksummed record and **fsyncs**
//!   it. Only then is the block applied and acknowledged, so an ack
//!   means the block is both applied *and* durable. At one shard the
//!   lane is `wal_dir` itself; at N it is `wal_dir/shard-<s>`. On
//!   startup, [`Server::bind`] recovers: load `snapshot-<CURRENT>`
//!   (Strict), gather every lane's generations ≥ `CURRENT` (torn tails
//!   dropped), replay the contiguous id prefix past the snapshot,
//!   truncate the torn tails, and resume appending. A WAL whose records
//!   carry a different model class tag is refused outright — replaying
//!   point blocks into an itemset monitor would corrupt it silently.
//! * **Group commit** (`wal_group_commit`): the ingester drains every
//!   block already queued behind the one it popped, appends them all,
//!   then issues *one* covering fsync per lane before applying and
//!   acking in arrival order. Every ack still happens only after the
//!   fsync that covers its block — the durability contract is
//!   unchanged; only the fsync count per burst drops from N to 1.
//! * **Compaction**: when the live lanes together cross `wal_max_bytes`
//!   the ingester rotates every lane to `wal-<gen+1>.log` (it is the
//!   sole appender *and* applier, so at the rotation instant the state
//!   covers everything in the old logs) and signals the compactor
//!   thread, which snapshots the state atomically to `snapshot-<gen+1>`
//!   (the merged 1-shard layout at any shard count), flips the framed
//!   `CURRENT` pointer, and deletes the shadowed generations. A crash
//!   at any instant recovers from whichever generation `CURRENT` still
//!   names.
//! * **Shutdown** closes the queue (already-queued blocks still apply),
//!   wakes every worker out of `accept`, and `run` returns after the
//!   drain — the graceful exit the `Shutdown` verb promises.
//!
//! Per-connection read/write timeouts bound how long a dead peer can
//! pin a worker. The recorder is enabled at bind time so the `Stats`
//! verb always reports live `serve.*` and `wal.*` counters.

use crate::model::{
    ClusterModel, DbscanModel, ItemsetModel, MaintainedModel, ServableModel, TreeModel,
};
use crate::protocol::{self, Request, Response, WireError};
use crate::shard::{lane_dir, shard_of};
use crate::state::{self, ServedState};
use demon_core::engine::check_sequential;
use demon_itemsets::CounterKind;
use demon_store::StoreConfig;
use demon_types::durable::FrameClass;
use demon_types::obs::{self, Counter};
use demon_types::wal::{self, WalWriter};
use demon_types::{Block, BlockId, DemonError, MinSupport, ModelClass, Result};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Everything that shapes a daemon instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// The model class this daemon maintains and serves.
    pub model: ModelClass,
    /// Item-universe size of the monitored stream (`--model itemsets`).
    pub n_items: u32,
    /// Minimum support κ of the maintained model (`--model itemsets`).
    pub minsup: MinSupport,
    /// Update-phase counting backend (`--model itemsets`).
    pub counter: CounterKind,
    /// Point dimensionality (`--model clusters|trees`).
    pub dim: usize,
    /// BIRCH phase-2 cluster count k (`--model clusters`).
    pub k: usize,
    /// Label-domain size (`--model trees`).
    pub classes: u32,
    /// DBSCAN neighborhood radius ε (`--model dbscan`).
    pub eps: f64,
    /// DBSCAN core threshold: a point with at least this many ε-neighbors
    /// (itself included) is core (`--model dbscan`).
    pub min_pts: usize,
    /// Model data span: `None` = unrestricted window, `Some(w)` = the
    /// `w` most recent blocks (GEMM).
    pub window: Option<usize>,
    /// Pattern-detection window (`None` = unrestricted).
    pub pattern_window: Option<usize>,
    /// FOCUS similarity threshold α for the compact-sequence miner.
    pub alpha: f64,
    /// Worker threads accepting and serving connections; each serves one
    /// connection at a time, so size it to the expected client count.
    pub workers: usize,
    /// Serving-state partitions. `1` (the default) serves a
    /// `DemonMonitor` (every class, every window engine); `≥ 2` serves a
    /// [`crate::shard::ShardSet`] — per-shard stores and WAL lanes behind
    /// the same ingester, lock and worker pool. Query responses and
    /// persisted snapshots are byte-identical across shard counts.
    /// Requires a model class with an exact shard merge
    /// ([`crate::model::ShardableModel`] — itemsets only) and the
    /// unrestricted window; other configs are refused with typed errors
    /// ([`DemonError::ShardsUnsupported`] for the class).
    pub shards: usize,
    /// Ingest-queue capacity (blocks buffered but not yet applied).
    pub queue_capacity: usize,
    /// How long an `IngestBlock` waits on a full queue before it is
    /// rejected (backpressure deadline).
    pub queue_timeout: Duration,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Storage-engine config of the monitored store (`--memory-budget`).
    pub store_config: StoreConfig,
    /// Write-ahead-log directory. `Some(dir)` makes every acknowledged
    /// ingest durable (fsynced before the ack) and recovers the monitor
    /// from `dir` at bind time; `None` keeps the daemon memory-only.
    pub wal_dir: Option<PathBuf>,
    /// Compaction threshold: once the live WAL file crosses this many
    /// bytes, the daemon snapshots the store and rotates the log.
    pub wal_max_bytes: u64,
    /// Group commit: batch the WAL appends of every queued block behind
    /// one covering fsync. Acks still land only after the fsync that
    /// covers them; under a write burst the fsyncs-per-block drop
    /// toward zero.
    pub wal_group_commit: bool,
}

impl ServeConfig {
    /// A config with the documented defaults: the itemset model class,
    /// 4 workers, a 64-block queue, 5 s backpressure deadline, 30 s
    /// connection timeouts, an unrestricted window, an in-memory store,
    /// and no WAL (pass `wal_dir` to make ingest durable; WAL files
    /// rotate at 8 MiB).
    pub fn new(addr: impl Into<String>, n_items: u32, minsup: MinSupport) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            model: ModelClass::Itemsets,
            n_items,
            minsup,
            counter: CounterKind::Ecut,
            dim: 2,
            k: 4,
            classes: 2,
            eps: 1.0,
            min_pts: 4,
            window: None,
            pattern_window: None,
            alpha: 0.12,
            workers: 4,
            shards: 1,
            queue_capacity: 64,
            queue_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
            store_config: StoreConfig::InMemory,
            wal_dir: None,
            wal_max_bytes: 8 << 20,
            wal_group_commit: false,
        }
    }
}

/// What a completed daemon run did, returned by [`Server::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeSummary {
    /// Requests served across all connections and verbs.
    pub requests: u64,
    /// Blocks ingested into the monitor (recovered blocks included).
    pub blocks: u64,
}

type IngestResult = std::result::Result<(), WireError>;

/// The completion slot an ingesting worker parks on until the ingester
/// thread has applied (or rejected) its block.
#[derive(Default)]
struct DoneSlot {
    result: Mutex<Option<IngestResult>>,
    cv: Condvar,
}

impl DoneSlot {
    fn fill(&self, r: IngestResult) {
        let mut slot = self.result.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(r);
        self.cv.notify_all();
    }

    fn wait(&self) -> IngestResult {
        let mut slot = self.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = slot.clone() {
                return r;
            }
            slot = self.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct Job<R> {
    block: Block<R>,
    done: Arc<DoneSlot>,
}

struct QueueState<R> {
    jobs: VecDeque<Job<R>>,
    open: bool,
}

/// The bounded ingest queue: writers wait up to the backpressure
/// deadline for a slot, then get a typed rejection (`serve.rejects`).
struct IngestQueue<R> {
    capacity: usize,
    timeout: Duration,
    state: Mutex<QueueState<R>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<R> IngestQueue<R> {
    fn new(capacity: usize, timeout: Duration) -> IngestQueue<R> {
        IngestQueue {
            capacity: capacity.max(1),
            timeout,
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueues a block, waiting out backpressure; returns the slot the
    /// caller parks on, or the typed rejection.
    fn submit(&self, block: Block<R>) -> std::result::Result<Arc<DoneSlot>, WireError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = Instant::now() + self.timeout;
        while state.jobs.len() >= self.capacity && state.open {
            let now = Instant::now();
            if now >= deadline {
                obs::incr(Counter::ServeRejects);
                return Err(WireError::Busy(format!(
                    "ingest queue full ({} blocks) past the backpressure deadline",
                    self.capacity
                )));
            }
            let (guard, _) = self
                .not_full
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
        if !state.open {
            obs::incr(Counter::ServeRejects);
            return Err(WireError::Busy("server is shutting down".to_string()));
        }
        let done = Arc::new(DoneSlot::default());
        state.jobs.push_back(Job {
            block,
            done: Arc::clone(&done),
        });
        obs::record_max(Counter::ServeQueueDepth, state.jobs.len() as u64);
        self.not_empty.notify_one();
        Ok(done)
    }

    /// The ingester's blocking pop. `None` only after [`close`], once
    /// every queued job has been drained — the graceful-shutdown drain.
    fn next_job(&self) -> Option<Job<R>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = state.jobs.pop_front() {
                self.not_full.notify_one();
                return Some(job);
            }
            if !state.open {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Drains every currently queued job without blocking — the group-
    /// commit batch, so one covering fsync amortizes across a burst.
    fn drain_ready(&self) -> Vec<Job<R>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let jobs: Vec<Job<R>> = state.jobs.drain(..).collect();
        if !jobs.is_empty() {
            self.not_full.notify_all();
        }
        jobs
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.open = false;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Queued blocks per shard (one entry at `n_shards = 1`).
    fn depths(&self, n_shards: usize) -> Vec<u64> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut depths = vec![0; n_shards];
        for job in &state.jobs {
            depths[shard_of(job.block.id(), n_shards)] += 1;
        }
        depths
    }
}

/// The state behind the lock.
struct Served<S: ServableModel> {
    state: Box<dyn ServedState<S>>,
}

struct Shared<S: ServableModel> {
    served: RwLock<Served<S>>,
    /// Applied blocks since bind, the key of the render memo: bumped
    /// inside the write-lock scope of every applied block, so it is
    /// stable under the read lock and current before any ack.
    epoch: AtomicU64,
    /// The model JSON of one epoch: `QueryModel` renders at most once
    /// per applied block.
    rendered: Mutex<Option<(u64, Arc<str>)>>,
    queue: IngestQueue<S::Record>,
    shutdown: AtomicBool,
    requests: AtomicU64,
    blocks: AtomicU64,
    addr: SocketAddr,
    /// The per-block wire meta this daemon expects (item universe for
    /// itemsets, dimensionality for points).
    meta: u32,
    render_ctx: S::RenderCtx,
    io_timeout: Duration,
    workers: usize,
    shards: usize,
}

/// The ingester's durable-ingest state: one live WAL writer per lane
/// plus the channel to the compactor. Owned by the ingester thread
/// alone — the single-appender discipline is what makes rotation sound.
struct Durability {
    dir: PathBuf,
    /// One writer per shard; lane `s` lives in [`lane_dir`].
    writers: Vec<WalWriter>,
    gen: u64,
    max_bytes: u64,
    /// The model-class tag stamped on every record (and every rotated
    /// writer).
    class: u8,
    /// Whether the ingester batches appends behind one covering fsync.
    group_commit: bool,
    compact_tx: mpsc::Sender<u64>,
    /// One compaction at a time; while it runs, the live logs simply
    /// keep growing past the threshold.
    compacting: Arc<AtomicBool>,
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    addr: SocketAddr,
    run: Box<dyn FnOnce() -> Result<ServeSummary> + Send>,
}

/// The runtime, monomorphized per model class.
struct Daemon<S: ServableModel> {
    shared: Arc<Shared<S>>,
    listener: TcpListener,
    durability: Option<Durability>,
    compact_rx: Option<mpsc::Receiver<u64>>,
}

/// The typed refusal when a WAL record (header tag or request body)
/// carries a different model class than the recovering daemon.
fn cross_class_replay<S: ServableModel>(got: u8) -> DemonError {
    DemonError::ModelClassMismatch {
        expected: S::CLASS.name().to_string(),
        got: ModelClass::describe_tag(got),
    }
}

/// Recovers `state` from a WAL directory: load `snapshot-<CURRENT>`
/// under `Strict` (the snapshot was written atomically — damage there
/// is real bit rot and must be loud), gather every lane's generations
/// ≥ `CURRENT`, replay the contiguous id prefix past the snapshot, then
/// reopen each lane's newest log for appending with its torn tail (if
/// any) truncated away. Returns the writers and the live generation.
///
/// Replay is idempotent and salvaging: a record the snapshot covers is
/// skipped, and a torn tail ends its file's clean prefix and is dropped
/// (counted under `wal.torn_tails`). The ingester logs a block only
/// after its id checked out, but a log may also hold a block the daemon
/// refused (written before that check existed) or one whose apply
/// failed after the append. One lane's log is arrival order, so at
/// `--shards 1` replay re-runs it as written and skips every record
/// that fails, exactly as the daemon did when it first saw it. Lanes at
/// N ≥ 2 carry no order between them: their records are replayed by id,
/// the *last* record of each id winning, and the first missing id or
/// failed apply ends replay — nothing past it was acknowledged. A
/// record tagged with a *different model class* is not salvage — it
/// means this WAL belongs to another daemon, and recovery refuses with
/// the typed [`DemonError::ModelClassMismatch`] instead of replaying
/// garbage.
fn recover<S: ServableModel>(
    dir: &Path,
    config: &ServeConfig,
    state: &mut dyn ServedState<S>,
) -> Result<(Vec<WalWriter>, u64)> {
    let n = config.shards;
    for s in 0..n {
        std::fs::create_dir_all(lane_dir(dir, s, n))?;
    }
    let current = wal::read_current(dir)?;
    if current > 0 {
        for block in S::load_snapshot(&wal::snapshot_dir_path(dir, current), config)? {
            state.add_block(block)?;
        }
    }

    // A crash mid-cleanup converges here instead of accreting.
    remove_shadowed(dir, n, current);

    let mut tail: Vec<Block<S::Record>> = Vec::new();
    let mut writers = Vec::with_capacity(n);
    let mut max_gen = current;
    for s in 0..n {
        let lane = lane_dir(dir, s, n);
        let mut next_seq = 0u64;
        let mut live: Option<(u64, u64)> = None;
        for g in wal::list_wal_generations(&lane)? {
            if g < current {
                continue;
            }
            let report = wal::read_wal(&wal::wal_file_path(&lane, g))?;
            for record in &report.records {
                if record.class != S::CLASS.tag() {
                    return Err(cross_class_replay::<S>(record.class));
                }
                let Ok(Request::IngestBlock {
                    class,
                    id,
                    interval,
                    meta,
                    payload,
                }) = Request::decode(&record.body)
                else {
                    continue;
                };
                if class != S::CLASS.tag() {
                    return Err(cross_class_replay::<S>(class));
                }
                let Ok(records) = S::decode_records(&payload, id, meta) else {
                    continue;
                };
                let block = match interval {
                    Some(iv) => Block::with_interval(id, iv, records),
                    None => Block::new(id, records),
                };
                tail.push(block);
            }
            if let Some(seq) = report.next_seq() {
                next_seq = seq;
            }
            live = Some((g, report.valid_len));
        }
        writers.push(match live {
            Some((g, valid_len)) => {
                max_gen = max_gen.max(g);
                WalWriter::open_after_recovery(
                    &wal::wal_file_path(&lane, g),
                    valid_len,
                    next_seq,
                    S::CLASS.tag(),
                )?
            }
            None => WalWriter::create(
                &wal::wal_file_path(&lane, current),
                next_seq,
                S::CLASS.tag(),
            )?,
        });
    }

    let in_log_order = n == 1;
    if !in_log_order {
        let by_id: BTreeMap<BlockId, _> = tail.into_iter().map(|b| (b.id(), b)).collect();
        tail = by_id.into_values().collect();
    }
    let mut latest = state.block_ids().last().copied();
    for block in tail {
        let id = block.id();
        if latest.is_some_and(|l| id <= l) {
            continue; // covered by the snapshot or an earlier record
        }
        match state.add_block(block) {
            Ok(()) => {
                obs::incr(Counter::WalReplays);
                latest = Some(id);
            }
            // Refused or failed when it arrived: never acked.
            Err(_) if in_log_order => {}
            // A gap or a failed apply: nothing past it was acked.
            Err(_) => break,
        }
    }
    Ok((writers, max_gen))
}

impl Server {
    /// Binds the listener and builds the served state, but serves
    /// nothing yet. With `wal_dir` set this is also where crash recovery
    /// happens — when `bind` returns, every durable block is applied.
    /// Enables the obs recorder so `Stats` is always live.
    pub fn bind(config: ServeConfig) -> Result<Server> {
        obs::enable();
        match config.model {
            ModelClass::Itemsets => Daemon::<ItemsetModel>::bind(config),
            ModelClass::Clusters => Daemon::<ClusterModel>::bind(config),
            ModelClass::Trees => Daemon::<TreeModel>::bind(config),
            ModelClass::Density => Daemon::<DbscanModel>::bind(config),
        }
    }

    /// The address the daemon is listening on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until a `Shutdown` request: spawns the ingester, the
    /// compactor (when durable) and the worker pool, then joins them
    /// all. Queued blocks are drained before the ingester exits.
    pub fn run(self) -> Result<ServeSummary> {
        (self.run)()
    }
}

impl<S: ServableModel> Daemon<S> {
    fn bind(config: ServeConfig) -> Result<Server> {
        let mut state = state::build::<S>(&config)?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (durability, compact_rx) = match &config.wal_dir {
            None => (None, None),
            Some(dir) => {
                let (writers, gen) = recover::<S>(dir, &config, state.as_mut())?;
                let (tx, rx) = mpsc::channel();
                let durability = Durability {
                    dir: dir.clone(),
                    writers,
                    gen,
                    max_bytes: config.wal_max_bytes.max(1),
                    class: S::CLASS.tag(),
                    group_commit: config.wal_group_commit,
                    compact_tx: tx,
                    compacting: Arc::new(AtomicBool::new(false)),
                };
                (Some(durability), Some(rx))
            }
        };
        let shared = Arc::new(Shared {
            blocks: AtomicU64::new(state.block_ids().len() as u64),
            render_ctx: state.render_ctx(),
            served: RwLock::new(Served { state }),
            epoch: AtomicU64::new(0),
            rendered: Mutex::new(None),
            queue: IngestQueue::new(config.queue_capacity, config.queue_timeout),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            addr,
            meta: S::block_meta(&config),
            io_timeout: config.io_timeout,
            workers: config.workers.max(1),
            shards: config.shards,
        });
        let daemon = Daemon {
            shared,
            listener,
            durability,
            compact_rx,
        };
        Ok(Server {
            addr,
            run: Box::new(move || daemon.run()),
        })
    }

    fn run(self) -> Result<ServeSummary> {
        let Daemon {
            shared,
            listener,
            durability,
            compact_rx,
        } = self;
        let mut handles = Vec::new();
        if let (Some(rx), Some(d)) = (compact_rx, durability.as_ref()) {
            let dir = d.dir.clone();
            let flag = Arc::clone(&d.compacting);
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name("serve-compactor".to_string())
                    .spawn(move || compactor_loop(&shared, &dir, &flag, &rx))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            let latest = read_served(&shared)
                .ok()
                .and_then(|served| served.state.block_ids().last().copied());
            handles.push(
                std::thread::Builder::new()
                    .name("serve-ingester".to_string())
                    .spawn(move || ingester_loop(&shared, durability, latest))?,
            );
        }
        for i in 0..shared.workers {
            let shared = Arc::clone(&shared);
            let listener = listener.try_clone()?;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &listener))?,
            );
        }
        for h in handles {
            let _ = h.join();
        }
        Ok(ServeSummary {
            requests: shared.requests.load(Ordering::Relaxed),
            blocks: shared.blocks.load(Ordering::SeqCst),
        })
    }
}

static CRASH_HITS: AtomicU64 = AtomicU64::new(0);

/// Fault-injection hook: `DEMON_SERVE_CRASH=<point>:<n>` aborts the
/// process — the moral equivalent of `kill -9`, no destructors, no
/// flushes — the `n`-th time the named crash point is reached. Inert
/// unless the fault tests arm it.
fn crash_point(point: &str) {
    let Ok(spec) = std::env::var("DEMON_SERVE_CRASH") else {
        return;
    };
    let Some((name, nth)) = spec.split_once(':') else {
        return;
    };
    if name != point {
        return;
    }
    let Ok(nth) = nth.parse::<u64>() else {
        return;
    };
    if CRASH_HITS.fetch_add(1, Ordering::SeqCst) + 1 == nth {
        std::process::abort();
    }
}

impl Durability {
    /// Appends one block to its lane, either fsyncing immediately or
    /// leaving the sync to the batch's covering fsync (group commit).
    /// `Some` is the typed failure to answer instead of an ack.
    fn append<S: ServableModel>(
        &mut self,
        meta: u32,
        block: &Block<S::Record>,
        group: bool,
    ) -> Option<WireError> {
        let payload = match S::encode_records(block) {
            Ok(p) => p,
            Err(e) => return Some(WireError::Other(format!("wal encode: {e}"))),
        };
        let body = Request::IngestBlock {
            class: S::CLASS.tag(),
            id: block.id(),
            interval: block.interval(),
            meta,
            payload,
        }
        .encode();
        let lane = shard_of(block.id(), self.writers.len());
        let writer = &mut self.writers[lane];
        let appended = if group {
            writer.append_unsynced(&body)
        } else {
            writer.append(&body)
        };
        appended
            .err()
            .map(|e| WireError::Io(format!("wal append: {e}")))
    }

    /// The group-commit covering fsync of every lane.
    fn sync(&mut self) -> Result<()> {
        self.writers.iter_mut().try_for_each(WalWriter::sync)
    }
}

/// The single writer: checks each queued block's id, appends it to the
/// WAL (fsync), applies it, then answers the parked worker — in that
/// order, so an acknowledgment implies both durability and visibility,
/// and a refused block never reaches the log. A panicking `add_block`
/// (e.g. a spill fault) poisons the state but never kills the ingester
/// — later jobs are answered with a typed error instead of hanging
/// forever.
///
/// With group commit enabled, every job already queued behind the
/// popped one joins its batch: all appends first, one covering fsync,
/// then the applies and acks in arrival order. An ack still only
/// happens after the fsync covering its block.
fn ingester_loop<S: ServableModel>(
    shared: &Arc<Shared<S>>,
    mut durability: Option<Durability>,
    mut latest: Option<BlockId>,
) {
    while let Some(job) = shared.queue.next_job() {
        let group = durability.as_ref().is_some_and(|d| d.group_commit);
        let mut batch = vec![job];
        if group {
            batch.extend(shared.queue.drain_ready());
        }

        // Sequencing, then the WAL: a replay or a gap is answered with
        // its typed error and never logged (a logged refusal could be
        // replayed in place of the block acked later under its id). An
        // append failure fails the request without applying — an
        // applied-but-not-durable block would turn a later
        // DuplicateBlock retry into a silent durability lie.
        let mut expected = latest;
        let mut failures: Vec<Option<WireError>> = Vec::with_capacity(batch.len());
        for job in &batch {
            crash_point("before_append");
            let id = job.block.id();
            let failure = match check_sequential(id, expected) {
                Err(e) => Some(WireError::from_error(&e)),
                Ok(()) => durability
                    .as_mut()
                    .and_then(|d| d.append::<S>(shared.meta, &job.block, group)),
            };
            if failure.is_none() {
                expected = Some(id);
            }
            failures.push(failure);
        }
        if group {
            if let Some(d) = durability.as_mut() {
                if let Err(e) = d.sync() {
                    // The covering fsync failed: nothing in the batch is
                    // durable, so nothing may be applied or acked Ok.
                    let msg = format!("wal sync: {e}");
                    for f in &mut failures {
                        f.get_or_insert_with(|| WireError::Io(msg.clone()));
                    }
                }
            }
        }

        for (job, failure) in batch.into_iter().zip(failures) {
            let id = job.block.id();
            crash_point("after_append");
            let result = match failure {
                Some(e) => Err(e),
                None => apply(shared, job.block),
            };
            if result.is_ok() {
                shared.blocks.fetch_add(1, Ordering::SeqCst);
                latest = Some(id);
                if let Some(d) = durability.as_mut() {
                    // Rotate only after the apply: the state now covers
                    // every record in the old logs, so the compactor's
                    // snapshot (taken later, under the read lock) is
                    // guaranteed to shadow them.
                    maybe_rotate(d);
                }
            }
            job.done.fill(result);
            crash_point("after_ack");
        }
    }
}

/// Applies one block under the write lock and bumps the render epoch.
fn apply<S: ServableModel>(shared: &Shared<S>, block: Block<S::Record>) -> IngestResult {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match shared.served.write() {
            Ok(mut served) => {
                served
                    .state
                    .add_block(block)
                    .map_err(|e| WireError::from_error(&e))?;
                shared.epoch.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            Err(_) => Err(WireError::Other(
                "monitor poisoned by an earlier ingest fault".to_string(),
            )),
        }
    }))
    .unwrap_or_else(|_| {
        Err(WireError::Other(
            "ingest panicked; monitor poisoned".to_string(),
        ))
    })
}

/// Rotates every lane once the live logs together cross the size
/// threshold: create each lane's `wal-<gen+1>.log`, swap the writers,
/// and hand generation `gen+1` to the compactor. Skipped while a
/// compaction is already in flight.
fn maybe_rotate(d: &mut Durability) {
    if d.writers.iter().map(WalWriter::bytes).sum::<u64>() < d.max_bytes {
        return;
    }
    if d.compacting.swap(true, Ordering::SeqCst) {
        return;
    }
    let next_gen = d.gen + 1;
    let n = d.writers.len();
    let rotated: Result<Vec<WalWriter>> = d
        .writers
        .iter()
        .enumerate()
        .map(|(s, w)| {
            WalWriter::create(
                &wal::wal_file_path(&lane_dir(&d.dir, s, n), next_gen),
                w.next_seq(),
                d.class,
            )
        })
        .collect();
    match rotated {
        Ok(writers) => {
            d.writers = writers;
            d.gen = next_gen;
            // A send failure means the compactor died; keep serving —
            // the logs just stop rotating.
            let _ = d.compact_tx.send(next_gen);
        }
        Err(_) => {
            // Could not open the next logs: keep appending to the old
            // ones and try again at the next threshold crossing. An
            // already-created empty `wal-<gen+1>.log` is harmless —
            // recovery replays it as an empty generation.
            d.compacting.store(false, Ordering::SeqCst);
        }
    }
}

/// The compactor: for each rotated generation, snapshot the state
/// atomically, flip `CURRENT`, and delete the shadowed WAL files and
/// snapshots. A crash anywhere in here is recoverable — before the
/// `CURRENT` flip the old generation chain is intact; after it the new
/// one is.
fn compactor_loop<S: ServableModel>(
    shared: &Arc<Shared<S>>,
    dir: &Path,
    compacting: &Arc<AtomicBool>,
    rx: &mpsc::Receiver<u64>,
) {
    while let Ok(gen) = rx.recv() {
        let result: Result<()> = (|| {
            let served = read_served(shared).map_err(|_| {
                DemonError::InvalidParameter("monitor poisoned; compaction skipped".into())
            })?;
            served
                .state
                .save_snapshot(&wal::snapshot_dir_path(dir, gen))?;
            drop(served);
            crash_point("mid_compaction");
            wal::write_current(dir, gen)?;
            Ok(())
        })();
        if result.is_ok() {
            remove_shadowed(dir, shared.shards, gen);
        }
        compacting.store(false, Ordering::SeqCst);
    }
}

/// Deletes what `CURRENT = gen` shadows: every lane's logs below `gen`
/// and every snapshot directory other than `snapshot-<gen>` (a
/// compaction's tmp residue included). Cleanup, not correctness —
/// recovery calls it again.
fn remove_shadowed(dir: &Path, n_shards: usize, gen: u64) {
    for s in 0..n_shards {
        let lane = lane_dir(dir, s, n_shards);
        for g in wal::list_wal_generations(&lane).unwrap_or_default() {
            if g < gen {
                let _ = std::fs::remove_file(wal::wal_file_path(&lane, g));
            }
        }
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("snapshot-") && wal::parse_snapshot_dir_name(name) != Some(gen) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

type ReadGuard<'a, S> = std::sync::RwLockReadGuard<'a, Served<S>>;

/// The state's read lock, or the typed poisoned answer.
fn read_served<S: ServableModel>(
    shared: &Shared<S>,
) -> std::result::Result<ReadGuard<'_, S>, WireError> {
    shared
        .served
        .read()
        .map_err(|_| WireError::Other("monitor poisoned".into()))
}

fn worker_loop<S: ServableModel>(shared: &Arc<Shared<S>>, listener: &TcpListener) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                handle_connection(shared, stream);
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Serves one connection until the peer hangs up, a timeout fires, or a
/// malformed frame arrives (transport damage drops the connection; a
/// malformed *payload* inside a valid frame gets a typed `Err` response
/// and the connection lives on).
fn handle_connection<S: ServableModel>(shared: &Arc<Shared<S>>, stream: TcpStream) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "client".to_string());
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.io_timeout));
    let mut reader = &stream;
    loop {
        let (payload, bytes_in) =
            match protocol::read_message(&mut reader, FrameClass::REQUEST, &peer) {
                Ok(Some(message)) => message,
                // Clean close, timeout, or a corrupt frame: drop the
                // connection (there is no trustworthy frame boundary to
                // answer on).
                Ok(None) | Err(_) => return,
            };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        obs::incr(Counter::ServeRequests);
        obs::add(Counter::ServeBytesIn, bytes_in as u64);
        let (response, shutdown_after) = match Request::decode(&payload) {
            Ok(request) => dispatch(shared, request),
            Err(e) => (Response::Err(WireError::Other(e.to_string())), false),
        };
        let mut writer = &stream;
        match protocol::write_message(&mut writer, FrameClass::RESPONSE, &response.encode()) {
            Ok(bytes_out) => obs::add(Counter::ServeBytesOut, bytes_out as u64),
            Err(_) => return,
        }
        if shutdown_after {
            begin_shutdown(shared);
            return;
        }
    }
}

fn dispatch<S: ServableModel>(shared: &Arc<Shared<S>>, request: Request) -> (Response, bool) {
    let response = match request {
        Request::IngestBlock {
            class,
            id,
            interval,
            meta,
            payload,
        } => ingest(shared, class, id, interval, meta, &payload),
        Request::QueryModel { class } => match class {
            Some(c) if c != S::CLASS.tag() => Err(WireError::class_mismatch(S::CLASS, c)),
            _ => query_model(shared).map(Response::Model),
        },
        Request::QuerySequences => {
            read_served(shared).map(|served| Response::Sequences(served.state.sequences()))
        }
        Request::Stats => Ok(Response::Stats(stats_json(shared))),
        Request::Snapshot { dir } => read_served(shared).and_then(|served| {
            // All-or-nothing: a failure leaves no partial directory at
            // `dir`, and the error stays typed end to end.
            match served.state.save_snapshot(Path::new(&dir)) {
                Ok(blocks) => Ok(Response::SnapshotDone(blocks)),
                Err(DemonError::Io(e)) => Err(WireError::Io(format!("snapshot to {dir}: {e}"))),
                Err(e) => Err(WireError::Other(format!("snapshot to {dir}: {e}"))),
            }
        }),
        Request::Shutdown => return (Response::Ok, true),
    };
    (response.unwrap_or_else(Response::Err), false)
}

/// Validates and decodes an `IngestBlock`, queues it, and waits for the
/// ingester's verdict.
fn ingest<S: ServableModel>(
    shared: &Shared<S>,
    class: u8,
    id: BlockId,
    interval: Option<demon_types::BlockInterval>,
    meta: u32,
    payload: &[u8],
) -> std::result::Result<Response, WireError> {
    if class != S::CLASS.tag() {
        return Err(WireError::class_mismatch(S::CLASS, class));
    }
    if let Some(msg) = S::meta_mismatch(shared.meta, meta) {
        return Err(WireError::Other(msg));
    }
    let records =
        S::decode_records(payload, id, meta).map_err(|e| WireError::Other(e.to_string()))?;
    let block = match interval {
        Some(iv) => Block::with_interval(id, iv, records),
        None => Block::new(id, records),
    };
    shared.queue.submit(block)?.wait()?;
    Ok(Response::Ok)
}

/// The model as canonical JSON, rendered at most once per epoch: the
/// first query after a block renders under the read lock and memoizes
/// the bytes, every later query of that epoch reuses them without
/// taking the read lock, so it never holds up the ingester.
fn query_model<S: ServableModel>(shared: &Shared<S>) -> std::result::Result<String, WireError> {
    let mut memo = shared.rendered.lock().unwrap_or_else(|e| e.into_inner());
    let current = shared.epoch.load(Ordering::SeqCst);
    let hit = memo
        .as_ref()
        .filter(|(epoch, _)| *epoch == current && !shared.served.is_poisoned())
        .map(|(_, json)| Arc::clone(json));
    let json = match hit {
        Some(json) => json,
        None => {
            let served = read_served(shared)?;
            let model = served
                .state
                .model()
                .ok_or_else(|| WireError::Other("no model yet (no blocks ingested)".into()))?;
            let json: Arc<str> = render_model::<S>(&shared.render_ctx, model)
                .map_err(WireError::Other)?
                .into();
            *memo = Some((shared.epoch.load(Ordering::SeqCst), Arc::clone(&json)));
            json
        }
    };
    drop(memo);
    Ok(json.to_string())
}

/// Renders the model through the class hook, unwrapping the typed
/// serialization error back to the exact seed message text.
fn render_model<S: ServableModel>(
    ctx: &S::RenderCtx,
    model: &MaintainedModel<S>,
) -> std::result::Result<String, String> {
    S::render_model_json(ctx, model).map_err(|e| match e {
        DemonError::Serde(msg) => msg,
        other => other.to_string(),
    })
}

/// The `Stats` body: the daemon's own gauges plus the full obs counter
/// table, as one JSON object. With `shards ≥ 2` the per-shard gauges
/// (`shards`, `shard_blocks` of the round-robin partition,
/// `shard_queue_depths`) follow `"blocks"`, so gauge parsers keyed on
/// the first `"blocks":` match keep working. Built by hand — every key
/// is a static snake_case name, so no escaping is ever needed.
fn stats_json<S: ServableModel>(shared: &Shared<S>) -> String {
    let blocks = shared.blocks.load(Ordering::SeqCst);
    let depths = shared.queue.depths(shared.shards);
    let mut out = format!("{{\"blocks\":{blocks},");
    if shared.shards > 1 {
        let n = shared.shards as u64;
        let list = |v: Vec<u64>| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let shard_blocks = (0..n)
            .map(|s| blocks / n + u64::from(s < blocks % n))
            .collect();
        out.push_str(&format!(
            "\"shards\":{n},\"shard_blocks\":[{}],\"shard_queue_depths\":[{}],",
            list(shard_blocks),
            list(depths.clone()),
        ));
    }
    out.push_str(&format!(
        "\"requests\":{},\"queue_depth\":{},\"counters\":{{",
        shared.requests.load(Ordering::Relaxed),
        depths.iter().sum::<u64>(),
    ));
    for (i, (name, value)) in obs::snapshot().counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{value}"));
    }
    out.push_str("}}");
    out
}

/// Flags shutdown, closes the queue (the ingester drains what is
/// already queued, then exits) and wakes every worker out of `accept`
/// with throwaway connections.
fn begin_shutdown<S: ServableModel>(shared: &Arc<Shared<S>>) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.queue.close();
    for _ in 0..shared.workers {
        // Each connect pops one worker out of accept; it sees the flag
        // and exits. Failures are fine — the worker is already gone.
        let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_millis(200));
    }
}
