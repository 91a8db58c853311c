//! The served state behind the daemon's one lock, and the one place the
//! shard count picks it.
//!
//! * `--shards 1`: a [`DemonMonitor`] — every model class, every window
//!   engine (UW, GEMM, DBSCAN's deletion-based slide).
//! * `--shards N ≥ 2`: a [`ShardSet`](crate::shard::ShardSet) — per-shard
//!   stores behind an exact scatter/gather merge, so only classes with a
//!   [`ShardableModel`](crate::model::ShardableModel) proof (itemsets)
//!   and only the unrestricted window.
//!
//! The daemon's ingester, WAL, recovery, compactor and dispatch see only
//! [`ServedState`]; which of the two sits behind it is decided by
//! [`build`] and nowhere else.

use crate::model::{MaintainedModel, ServableModel};
use crate::server::ServeConfig;
use demon_core::monitor::DemonMonitor;
use demon_types::{Block, BlockId, DemonError, Result};
use std::path::Path;

/// What the daemon needs from the state it serves.
pub trait ServedState<S: ServableModel>: Send + Sync {
    /// Applies the next block. A replayed or out-of-order id is a typed
    /// error and no state moves.
    fn add_block(&mut self, block: Block<S::Record>) -> Result<()>;

    /// Ids of every applied block still held, ascending.
    fn block_ids(&self) -> Vec<BlockId>;

    /// The current model (`None` only for a GEMM window that has seen no
    /// blocks).
    fn model(&self) -> Option<&MaintainedModel<S>>;

    /// What rendering the model needs besides the model itself.
    fn render_ctx(&self) -> S::RenderCtx;

    /// The compact block sequences — the exact `QuerySequences` body.
    fn sequences(&self) -> Vec<Vec<BlockId>>;

    /// Persists every applied block to `dir` all-or-nothing, in the
    /// 1-shard layout at any shard count; returns the block count.
    fn save_snapshot(&self, dir: &Path) -> Result<u64>;
}

impl<S: ServableModel> ServedState<S> for DemonMonitor<S::Maintainer, S::Oracle> {
    fn add_block(&mut self, block: Block<S::Record>) -> Result<()> {
        DemonMonitor::add_block(self, block).map(|_| ())
    }

    fn block_ids(&self) -> Vec<BlockId> {
        S::block_ids(self.engine().maintainer())
    }

    fn model(&self) -> Option<&MaintainedModel<S>> {
        DemonMonitor::model(self)
    }

    fn render_ctx(&self) -> S::RenderCtx {
        S::render_ctx(self.engine().maintainer())
    }

    fn sequences(&self) -> Vec<Vec<BlockId>> {
        DemonMonitor::sequences(self)
    }

    fn save_snapshot(&self, dir: &Path) -> Result<u64> {
        S::save_snapshot(self.engine().maintainer(), dir)
    }
}

/// Builds the empty state `config.shards` asks for, or the typed
/// refusal: zero shards, a class without an exact shard merge, or a
/// GEMM window at `--shards ≥ 2`.
pub fn build<S: ServableModel>(config: &ServeConfig) -> Result<Box<dyn ServedState<S>>> {
    match config.shards {
        0 => Err(DemonError::InvalidParameter(
            "--shards must be at least 1".to_string(),
        )),
        1 => Ok(Box::new(S::build_monitor(config)?)),
        _ => S::shard_set(config),
    }
}
