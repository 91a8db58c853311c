//! The partitioned served state (`--shards ≥ 2`): per-shard stores
//! behind one exact scatter/gather model, plus the partition function
//! and the WAL lane layout both recovery and the ingester use.
//!
//! * **Partition function**: block `b` belongs to shard
//!   `(b − 1) mod N` — round-robin by block id, so every prefix of the
//!   stream is balanced to within one block.
//! * **Exact scatter/gather**: [`ShardSet`] is generic over
//!   [`ShardableModel`] — the *capability* subtrait of
//!   [`crate::model::ServableModel`] whose `absorb_sharded` proves the
//!   model built from disjoint per-shard stores byte-identical to the
//!   1-shard model. Itemsets qualify (supports are additive over
//!   disjoint block sets; [`demon_itemsets::count_supports_sharded`]
//!   reuses the `demon_types::parallel` per-shard-merge discipline);
//!   clusters, trees and dbscan do not, and are refused at bind with the
//!   typed `ShardsUnsupported` error.
//! * **WAL lanes**: shard `s` appends to `wal_dir/shard-<s>/wal-<g>.log`
//!   ([`lane_dir`]); at one shard the single lane is `wal_dir` itself.
//!   The root `CURRENT` pointer and the merged `snapshot-<g>` are shared
//!   across lanes, and rotation moves every lane to `g+1` at once.

use crate::model::{MaintainedModel, ServableModel, ShardableModel};
use crate::server::ServeConfig;
use crate::state::ServedState;
use demon_core::engine::check_sequential;
use demon_core::maintainer::ModelMaintainer;
use demon_focus::compact::CompactSequenceMiner;
use demon_focus::windowed::WindowedCompactMiner;
use demon_types::{Block, BlockId, DemonError, Result};
use std::path::{Path, PathBuf};

/// The WAL lane directory of shard `shard` out of `n_shards`: the root
/// itself at one shard (so 1-shard WAL directories keep their layout),
/// `root/shard-<s>` otherwise.
pub fn lane_dir(root: &Path, shard: usize, n_shards: usize) -> PathBuf {
    if n_shards == 1 {
        root.to_path_buf()
    } else {
        root.join(format!("shard-{shard}"))
    }
}

/// The shard that owns block `id`: round-robin by block id, so every
/// stream prefix is balanced to within one block.
pub fn shard_of(id: BlockId, n_shards: usize) -> usize {
    ((id.value() - 1) % n_shards as u64) as usize
}

enum Patterns<S: ServableModel> {
    Unrestricted(CompactSequenceMiner<S::Oracle, S::Record>),
    MostRecent(WindowedCompactMiner<S::Oracle, S::Record>),
}

/// The partitioned mining state: one maintainer per shard (store +
/// registration work, exactly the 1-shard register path applied to the
/// owning shard), one global model absorbed with the class's exact
/// scatter/gather, one global pattern miner.
pub struct ShardSet<S: ShardableModel> {
    shards: Vec<S::Maintainer>,
    model: MaintainedModel<S>,
    miner: Patterns<S>,
    latest: Option<BlockId>,
    config: ServeConfig,
}

impl<S: ShardableModel> ShardSet<S> {
    /// Builds the empty sharded state. The GEMM window is refused: its
    /// per-window future models are not partitioned.
    pub fn new(config: &ServeConfig) -> Result<ShardSet<S>> {
        if config.window.is_some() {
            return Err(DemonError::InvalidParameter(
                "sharded serving (--shards ≥ 2) requires the unrestricted window; \
                 --window (GEMM) is only available with --shards 1"
                    .to_string(),
            ));
        }
        let n = config.shards;
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(S::maintainer(config)?);
        }
        let model = shards[0].fresh();
        let oracle = S::oracle(config);
        let miner = match config.pattern_window {
            None => Patterns::Unrestricted(CompactSequenceMiner::new(oracle)),
            Some(w) => Patterns::MostRecent(WindowedCompactMiner::new(oracle, w)),
        };
        Ok(ShardSet {
            shards,
            model,
            miner,
            latest: None,
            config: config.clone(),
        })
    }

    /// Gathers every shard's blocks into one fresh single-store
    /// maintainer, registered in block-id order — the class's
    /// [`ShardableModel::merged_maintainer`], the one merge helper
    /// behind both the `Snapshot` verb and WAL compaction.
    pub fn merged_maintainer(&self) -> Result<S::Maintainer> {
        S::merged_maintainer(&self.config, &self.shards, self.latest)
    }
}

impl<S: ShardableModel> ServedState<S> for ShardSet<S> {
    /// Validates the id, registers the block into its owning shard
    /// (store + pair materialization — the 1-shard register path),
    /// absorbs it into the global model with per-shard counting, and
    /// feeds the pattern miner. A replayed or out-of-order id is
    /// rejected before any state moves.
    fn add_block(&mut self, block: Block<S::Record>) -> Result<()> {
        let id = block.id();
        check_sequential(id, self.latest)?;
        let s = shard_of(id, self.shards.len());
        self.shards[s].register_block(block.clone());
        S::absorb_sharded(&mut self.model, &self.shards, id, &self.config)?;
        match &mut self.miner {
            Patterns::Unrestricted(m) => {
                m.add_block(block);
            }
            Patterns::MostRecent(m) => {
                m.add_block(block);
            }
        }
        self.latest = Some(id);
        Ok(())
    }

    fn block_ids(&self) -> Vec<BlockId> {
        (1..=self.latest.map_or(0, BlockId::value))
            .map(BlockId)
            .collect()
    }

    fn model(&self) -> Option<&MaintainedModel<S>> {
        Some(&self.model)
    }

    fn render_ctx(&self) -> S::RenderCtx {
        S::render_ctx(&self.shards[0])
    }

    fn sequences(&self) -> Vec<Vec<BlockId>> {
        match &self.miner {
            Patterns::Unrestricted(m) => m.maximal_sequences(),
            Patterns::MostRecent(m) => m.sequences(),
        }
    }

    fn save_snapshot(&self, dir: &Path) -> Result<u64> {
        S::save_snapshot(&self.merged_maintainer()?, dir)
    }
}
