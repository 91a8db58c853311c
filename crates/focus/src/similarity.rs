//! The binary block-similarity predicate of Definition 4.1, with model
//! caching.
//!
//! "In practice this similarity function is used with a binary range"
//! (§4): two blocks are similar when the deviation between them is
//! statistically insignificant. The oracle below caches each block's
//! frequent-itemset model — a block is mined exactly once no matter how
//! many pairs it participates in — and can judge significance either by a
//! fixed deviation threshold (fast; the default for the large trace
//! experiments) or by the full bootstrap.

use crate::deviation::itemset_deviation;
use crate::significance::{bootstrap_significance, bootstrap_significance_with};
use demon_itemsets::FrequentItemsets;
use demon_types::parallel::{self, par_map};
use demon_types::{Block, BlockId, MinSupport, Transaction, TxBlock};
use std::collections::HashMap;

/// How significance is judged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimilarityConfig {
    /// Similar iff `δ < alpha` — the deviation itself is used as the
    /// significance proxy (cheap, deterministic; Definition 4.1's
    /// `δ_M(D₁,D₂) < α` reading).
    Threshold {
        /// Similarity level α in `(0, 1)`.
        alpha: f64,
    },
    /// Similar iff the bootstrap significance stays below `max_significance`.
    Bootstrap {
        /// Resamples per pair.
        n_resamples: usize,
        /// Blocks are similar when the fraction of null resamples below
        /// the observed deviation is at most this.
        max_significance: f64,
        /// RNG seed.
        seed: u64,
    },
}

/// A pluggable pairwise block-similarity oracle over blocks of records
/// of type `R` (transactions by default; points for cluster models).
pub trait SimilarityOracle<R = Transaction> {
    /// Judges a pair, returning `(is_similar, deviation)`.
    fn similar(&mut self, a: &Block<R>, b: &Block<R>) -> (bool, f64);

    /// Judges `new` against every block of `earlier`, returning the
    /// verdicts in `earlier` order — the hot loop of the compact-sequence
    /// miner's `add_block` (one call per arriving block, `t` pairs).
    ///
    /// The default evaluates pairs sequentially via
    /// [`SimilarityOracle::similar`]; implementations may parallelize as
    /// long as the returned vector is bit-identical to the sequential
    /// one.
    fn similar_to_many(&mut self, earlier: &[Block<R>], new: &Block<R>) -> Vec<(bool, f64)> {
        earlier.iter().map(|e| self.similar(e, new)).collect()
    }

    /// Tells the oracle that block `id` has left the pattern window and
    /// will never be judged again, so any per-block state it cached may
    /// go. The default keeps nothing and does nothing.
    fn retire(&mut self, _id: BlockId) {}
}

/// The frequent-itemset instantiation of the oracle.
pub struct ItemsetSimilarity {
    n_items: u32,
    minsup: MinSupport,
    config: SimilarityConfig,
    models: HashMap<BlockId, FrequentItemsets>,
}

impl ItemsetSimilarity {
    /// A new oracle over an `n_items` universe at threshold `minsup`.
    pub fn new(n_items: u32, minsup: MinSupport, config: SimilarityConfig) -> Self {
        ItemsetSimilarity {
            n_items,
            minsup,
            config,
            models: HashMap::new(),
        }
    }

    /// The cached model of a block, mining it on first use.
    pub fn model(&mut self, block: &TxBlock) -> &FrequentItemsets {
        self.models.entry(block.id()).or_insert_with(|| {
            FrequentItemsets::mine_blocks(&[block], self.n_items, self.minsup)
        })
    }

    /// Number of models currently cached.
    pub fn cached_models(&self) -> usize {
        self.models.len()
    }
}

impl SimilarityOracle for ItemsetSimilarity {
    fn similar(&mut self, a: &TxBlock, b: &TxBlock) -> (bool, f64) {
        // Ensure both models are cached, then read them back immutably.
        self.model(a);
        self.model(b);
        let ma = &self.models[&a.id()];
        let mb = &self.models[&b.id()];
        match self.config {
            SimilarityConfig::Threshold { alpha } => {
                let d = itemset_deviation(a, ma, b, mb).deviation;
                (d < alpha, d)
            }
            SimilarityConfig::Bootstrap {
                n_resamples,
                max_significance,
                seed,
            } => {
                // Derive a pair-specific sub-seed for reproducibility.
                let pair_seed = seed ^ (a.id().value().wrapping_mul(0x9E3779B97F4A7C15))
                    ^ b.id().value();
                let (d, sig) = bootstrap_significance(
                    a,
                    b,
                    self.n_items,
                    self.minsup,
                    n_resamples,
                    pair_seed,
                );
                (sig <= max_significance, d)
            }
        }
    }

    /// Parallel batch evaluation: uncached models (including `new`'s) are
    /// mined concurrently and cached in block order, then the `t`
    /// pairwise deviations are computed concurrently with [`par_map`] at
    /// the process-wide default [`parallel::global`]. Order-preserving
    /// sharding keeps the verdicts bit-identical to the sequential loop
    /// at any thread count; under the bootstrap config each pair's
    /// resamples are seeded from the pair ids, so they too are
    /// layout-independent.
    fn similar_to_many(&mut self, earlier: &[TxBlock], new: &TxBlock) -> Vec<(bool, f64)> {
        let par = parallel::global();
        let mut to_mine: Vec<&TxBlock> = Vec::new();
        for b in earlier.iter().chain(std::iter::once(new)) {
            if !self.models.contains_key(&b.id()) && to_mine.iter().all(|m| m.id() != b.id()) {
                to_mine.push(b);
            }
        }
        let (n_items, minsup) = (self.n_items, self.minsup);
        let mined = par_map(par, &to_mine, |b| {
            FrequentItemsets::mine_blocks(&[*b], n_items, minsup)
        });
        for (b, m) in to_mine.iter().zip(mined) {
            self.models.insert(b.id(), m);
        }

        let models = &self.models;
        let mb = &models[&new.id()];
        match self.config {
            SimilarityConfig::Threshold { alpha } => par_map(par, earlier, |a| {
                let d = itemset_deviation(a, &models[&a.id()], new, mb).deviation;
                (d < alpha, d)
            }),
            SimilarityConfig::Bootstrap {
                n_resamples,
                max_significance,
                seed,
            } => par_map(par, earlier, |a| {
                let pair_seed = seed ^ (a.id().value().wrapping_mul(0x9E3779B97F4A7C15))
                    ^ new.id().value();
                let (d, sig) = bootstrap_significance_with(
                    a,
                    new,
                    n_items,
                    minsup,
                    n_resamples,
                    pair_seed,
                    par,
                );
                (sig <= max_significance, d)
            }),
        }
    }

    fn retire(&mut self, id: BlockId) {
        self.models.remove(&id);
    }
}

/// The cluster-model instantiation of the oracle: each block is clustered
/// once with BIRCH (model cached), and similarity is a threshold on the
/// cluster deviation.
pub struct ClusterSimilarity {
    params: demon_clustering::BirchParams,
    alpha: f64,
    models: HashMap<BlockId, demon_clustering::BirchModel>,
}

impl ClusterSimilarity {
    /// An oracle clustering blocks with `params`, similar iff `δ < alpha`.
    pub fn new(params: demon_clustering::BirchParams, alpha: f64) -> Self {
        ClusterSimilarity {
            params,
            alpha,
            models: HashMap::new(),
        }
    }

    fn model(&mut self, block: &demon_types::PointBlock) -> &demon_clustering::BirchModel {
        self.models.entry(block.id()).or_insert_with(|| {
            let (model, _) =
                demon_clustering::Birch::new(self.params).cluster_points(block.records());
            model
        })
    }

    /// Number of models currently cached.
    pub fn cached_models(&self) -> usize {
        self.models.len()
    }
}

impl SimilarityOracle<demon_types::Point> for ClusterSimilarity {
    fn similar(
        &mut self,
        a: &demon_types::PointBlock,
        b: &demon_types::PointBlock,
    ) -> (bool, f64) {
        self.model(a);
        self.model(b);
        let ma = &self.models[&a.id()];
        let mb = &self.models[&b.id()];
        let d = crate::deviation::cluster_deviation(a, ma, b, mb).deviation;
        (d < self.alpha, d)
    }

    fn retire(&mut self, id: BlockId) {
        self.models.remove(&id);
    }
}

/// The density-model instantiation of the oracle: each block is clustered
/// once with (insert-only) incremental DBSCAN, and similarity is a
/// threshold on the core-reachability deviation of
/// [`crate::deviation::dbscan_deviation`] — sensitive to cluster *shape*,
/// not just centroid mass.
pub struct DbscanSimilarity {
    params: demon_clustering::DbscanParams,
    alpha: f64,
    models: HashMap<BlockId, demon_clustering::IncrementalDbscan>,
}

impl DbscanSimilarity {
    /// An oracle clustering blocks with `params`, similar iff `δ < alpha`.
    pub fn new(params: demon_clustering::DbscanParams, alpha: f64) -> Self {
        DbscanSimilarity {
            params,
            alpha,
            models: HashMap::new(),
        }
    }

    fn model(&mut self, block: &demon_types::PointBlock) -> &demon_clustering::IncrementalDbscan {
        self.models.entry(block.id()).or_insert_with(|| {
            let mut m = demon_clustering::IncrementalDbscan::with_params(self.params);
            for p in block.records() {
                m.insert(p.clone());
            }
            m
        })
    }

    /// Number of models currently cached.
    pub fn cached_models(&self) -> usize {
        self.models.len()
    }
}

impl SimilarityOracle<demon_types::Point> for DbscanSimilarity {
    fn similar(
        &mut self,
        a: &demon_types::PointBlock,
        b: &demon_types::PointBlock,
    ) -> (bool, f64) {
        self.model(a);
        self.model(b);
        let ma = &self.models[&a.id()];
        let mb = &self.models[&b.id()];
        let d = crate::deviation::dbscan_deviation(a, ma, b, mb).deviation;
        (d < self.alpha, d)
    }

    fn retire(&mut self, id: BlockId) {
        self.models.remove(&id);
    }
}

/// The decision-tree instantiation of the oracle: each labeled block is
/// fitted once (model cached); similarity thresholds the class-aware tree
/// deviation. Completes the three FOCUS model classes of §4 as usable
/// similarity oracles.
pub struct TreeSimilarity {
    params: demon_trees::TreeParams,
    dim: usize,
    alpha: f64,
    models: HashMap<BlockId, demon_trees::DecisionTree>,
}

impl TreeSimilarity {
    /// An oracle fitting `dim`-dimensional labeled blocks with `params`,
    /// similar iff `δ < alpha`.
    pub fn new(dim: usize, params: demon_trees::TreeParams, alpha: f64) -> Self {
        TreeSimilarity {
            params,
            dim,
            alpha,
            models: HashMap::new(),
        }
    }

    fn model(&mut self, block: &Block<demon_trees::LabeledPoint>) -> &demon_trees::DecisionTree {
        self.models.entry(block.id()).or_insert_with(|| {
            demon_trees::DecisionTree::fit(block.records(), self.dim, self.params)
        })
    }

    /// Number of models currently cached.
    pub fn cached_models(&self) -> usize {
        self.models.len()
    }
}

impl SimilarityOracle<demon_trees::LabeledPoint> for TreeSimilarity {
    fn similar(
        &mut self,
        a: &Block<demon_trees::LabeledPoint>,
        b: &Block<demon_trees::LabeledPoint>,
    ) -> (bool, f64) {
        self.model(a);
        self.model(b);
        let ma = &self.models[&a.id()];
        let mb = &self.models[&b.id()];
        let d = crate::deviation::tree_deviation(a, ma, b, mb).deviation;
        (d < self.alpha, d)
    }

    fn retire(&mut self, id: BlockId) {
        self.models.remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::{Item, Tid, Transaction};

    fn block(id: u64, txs: &[&[u32]]) -> TxBlock {
        TxBlock::new(
            BlockId(id),
            txs.iter()
                .enumerate()
                .map(|(i, items)| {
                    Transaction::new(
                        Tid(id * 10_000 + i as u64),
                        items.iter().copied().map(Item).collect(),
                    )
                })
                .collect(),
        )
    }

    fn k(v: f64) -> MinSupport {
        MinSupport::new(v).unwrap()
    }

    #[test]
    fn threshold_oracle_separates_blocks() {
        let mut oracle =
            ItemsetSimilarity::new(8, k(0.2), SimilarityConfig::Threshold { alpha: 0.3 });
        let a = block(1, &[&[0, 1], &[0, 1], &[2]]);
        let twin = block(2, &[&[0, 1], &[2], &[0, 1]]);
        let alien = block(3, &[&[5, 6], &[5, 6], &[7]]);
        let (sim, d) = oracle.similar(&a, &twin);
        assert!(sim, "twin blocks should be similar (δ={d})");
        let (sim, d) = oracle.similar(&a, &alien);
        assert!(!sim, "alien blocks should differ (δ={d})");
    }

    #[test]
    fn models_are_cached_once_per_block() {
        let mut oracle =
            ItemsetSimilarity::new(8, k(0.2), SimilarityConfig::Threshold { alpha: 0.3 });
        let a = block(1, &[&[0]]);
        let b = block(2, &[&[1]]);
        let c = block(3, &[&[0]]);
        oracle.similar(&a, &b);
        oracle.similar(&a, &c);
        oracle.similar(&b, &c);
        assert_eq!(oracle.cached_models(), 3);
        oracle.retire(BlockId(2));
        assert_eq!(oracle.cached_models(), 2);
    }

    #[test]
    fn bootstrap_oracle_judges_same_process_similar() {
        let mut oracle = ItemsetSimilarity::new(
            4,
            k(0.1),
            SimilarityConfig::Bootstrap {
                n_resamples: 20,
                max_significance: 0.95,
                seed: 5,
            },
        );
        let mk = |id: u64| {
            let txs: Vec<Vec<u32>> = (0..30)
                .map(|i| if i % 2 == 0 { vec![0, 1] } else { vec![2] })
                .collect();
            let slices: Vec<&[u32]> = txs.iter().map(|v| v.as_slice()).collect();
            block(id, &slices)
        };
        let (sim, _) = oracle.similar(&mk(1), &mk(2));
        assert!(sim);
    }

    #[test]
    fn cluster_oracle_groups_same_process_point_blocks() {
        use demon_clustering::BirchParams;
        use demon_types::{Point, PointBlock};
        use rand::prelude::*;
        let mk = |id: u64, center: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            PointBlock::new(
                BlockId(id),
                (0..150)
                    .map(|_| {
                        Point::new(vec![
                            center + rng.gen_range(-1.0..1.0),
                            rng.gen_range(-1.0..1.0),
                        ])
                    })
                    .collect(),
            )
        };
        let mut params = BirchParams::new(2, 2);
        params.tree.threshold2 = 1.0;
        let mut oracle = ClusterSimilarity::new(params, 0.4);
        let a = mk(1, 0.0, 1);
        let twin = mk(2, 0.0, 2);
        let far = mk(3, 50.0, 3);
        let (sim, d) = oracle.similar(&a, &twin);
        assert!(sim, "same-process point blocks should be similar (δ={d})");
        let (sim, d) = oracle.similar(&a, &far);
        assert!(!sim, "shifted point blocks should differ (δ={d})");
        assert_eq!(oracle.cached_models(), 3);
    }

    #[test]
    fn dbscan_oracle_separates_shape_changes() {
        use demon_clustering::DbscanParams;
        use demon_types::{Point, PointBlock};
        // A ring and a filled blob with the same centroid: only a
        // shape-aware oracle tells them apart.
        let ring = |id: u64, phase: f64| {
            PointBlock::new(
                BlockId(id),
                (0..48)
                    .map(|i| {
                        let t = (i as f64 + phase) / 48.0 * std::f64::consts::TAU;
                        Point::new(vec![5.0 * t.cos(), 5.0 * t.sin()])
                    })
                    .collect(),
            )
        };
        let blob = PointBlock::new(
            BlockId(3),
            (0..49)
                .map(|i| {
                    Point::new(vec![
                        (i % 7) as f64 * 0.5 - 1.5,
                        (i / 7) as f64 * 0.5 - 1.5,
                    ])
                })
                .collect(),
        );
        let mut oracle = DbscanSimilarity::new(DbscanParams::new(2, 1.0, 3), 0.4);
        let (sim, d) = oracle.similar(&ring(1, 0.0), &ring(2, 0.5));
        assert!(sim, "same-shape blocks should be similar (δ={d})");
        let (sim, d) = oracle.similar(&ring(1, 0.0), &blob);
        assert!(!sim, "ring vs blob should differ (δ={d})");
        assert_eq!(oracle.cached_models(), 3);
    }

    #[test]
    fn tree_oracle_separates_label_flips() {
        use demon_trees::{LabeledPoint, TreeParams};
        use rand::prelude::*;
        let mk = |id: u64, flip: bool, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            Block::new(
                BlockId(id),
                (0..150)
                    .map(|_| {
                        let left = rng.gen::<bool>();
                        let x = if left { -3.0 } else { 3.0 } + rng.gen_range(-0.5..0.5);
                        LabeledPoint::new(vec![x], u32::from(left == flip))
                    })
                    .collect(),
            )
        };
        let mut oracle = TreeSimilarity::new(1, TreeParams::new(2), 0.3);
        let a = mk(1, false, 1);
        let twin = mk(2, false, 2);
        let flipped = mk(3, true, 3);
        let (sim, d) = oracle.similar(&a, &twin);
        assert!(sim, "same concept should be similar (δ={d})");
        let (sim, d) = oracle.similar(&a, &flipped);
        assert!(!sim, "flipped labels should differ (δ={d})");
        assert_eq!(oracle.cached_models(), 3);
    }

    #[test]
    fn compact_mining_over_point_blocks() {
        // The generic miner runs end-to-end on cluster models: regimes
        // alternate between two centers; blocks of the same regime chain.
        use demon_clustering::BirchParams;
        use demon_types::{Point, PointBlock};
        use rand::prelude::*;
        let mut params = BirchParams::new(1, 1);
        params.tree.threshold2 = 1.0;
        let oracle = ClusterSimilarity::new(params, 0.5);
        let mut miner = crate::compact::CompactSequenceMiner::new(oracle);
        let mut rng = StdRng::seed_from_u64(9);
        for id in 1..=6u64 {
            let center = if id % 2 == 1 { 0.0 } else { 40.0 };
            let block = PointBlock::new(
                BlockId(id),
                (0..100)
                    .map(|_| Point::new(vec![center + rng.gen_range(-1.0..1.0)]))
                    .collect(),
            );
            miner.add_block(block);
        }
        miner.check_invariants();
        let seqs = miner.maximal_sequences();
        let odd: Vec<BlockId> = [1u64, 3, 5].map(BlockId).to_vec();
        let even: Vec<BlockId> = [2u64, 4, 6].map(BlockId).to_vec();
        assert!(seqs.contains(&odd), "{seqs:?}");
        assert!(seqs.contains(&even), "{seqs:?}");
    }

    #[test]
    fn bootstrap_oracle_flags_different_processes() {
        let mut oracle = ItemsetSimilarity::new(
            8,
            k(0.1),
            SimilarityConfig::Bootstrap {
                n_resamples: 20,
                max_significance: 0.95,
                seed: 5,
            },
        );
        let a = block(1, &(0..30).map(|_| &[0u32, 1][..]).collect::<Vec<_>>());
        let b = block(2, &(0..30).map(|_| &[5u32, 6][..]).collect::<Vec<_>>());
        let (sim, d) = oracle.similar(&a, &b);
        assert!(!sim, "δ={d}");
    }
}
