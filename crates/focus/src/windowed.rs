//! Pattern detection over the **most recent window** (paper footnote 9:
//! "this algorithm can be extended easily to apply to the most recent
//! window option").
//!
//! The windowed miner keeps at most `w` live blocks. When a block slides
//! out, its raw data and deviation-matrix row are released and it is
//! removed from every maintained sequence; because the live blocks form a
//! contiguous suffix, the truncated sequences remain compact (pairwise
//! similarity is inherited, and every potential hole between surviving
//! members is itself live).

use crate::similarity::SimilarityOracle;
use demon_types::{Block, BlockId, BlockInterval, Transaction};
use std::time::Instant;

pub use crate::compact::CompactStats;

struct Slot<R> {
    id: BlockId,
    interval: Option<BlockInterval>,
    /// `None` once the block slid out of the window.
    data: Option<Block<R>>,
}

/// The most-recent-window compact-sequence miner.
pub struct WindowedCompactMiner<O, R = Transaction>
where
    O: SimilarityOracle<R>,
{
    oracle: O,
    w: usize,
    slots: Vec<Slot<R>>,
    /// Index of the first live slot.
    live_from: usize,
    /// `sim[i]` holds similarities of block `i` to blocks `j < i`
    /// (cleared when block `i` retires).
    sim: Vec<Vec<bool>>,
    sequences: Vec<Vec<usize>>,
}

impl<O, R> WindowedCompactMiner<O, R>
where
    O: SimilarityOracle<R>,
{
    /// A miner keeping the `w` most recent blocks (`w ≥ 2`).
    pub fn new(oracle: O, w: usize) -> Self {
        assert!(w >= 2, "a window below 2 blocks cannot hold a pattern");
        WindowedCompactMiner {
            oracle,
            w,
            slots: Vec::new(),
            live_from: 0,
            sim: Vec::new(),
            sequences: Vec::new(),
        }
    }

    /// Blocks absorbed so far (including retired ones).
    pub fn n_blocks(&self) -> usize {
        self.slots.len()
    }

    /// The similarity oracle.
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// Live (in-window) block count.
    pub fn n_live(&self) -> usize {
        self.slots.len() - self.live_from
    }

    fn is_similar(&self, i: usize, j: usize) -> bool {
        if i == j {
            return true;
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        self.sim[hi].get(lo).copied().unwrap_or(false)
    }

    /// Absorbs the next block, sliding the window when full.
    pub fn add_block(&mut self, block: Block<R>) -> CompactStats {
        let t0 = Instant::now();
        let mut stats = CompactStats::default();
        let t = self.slots.len();

        // Compare against the live blocks only.
        let mut sim_row = vec![false; t];
        #[allow(clippy::needless_range_loop)]
        for i in self.live_from..t {
            let earlier = self.slots[i].data.as_ref().expect("live block has data");
            let (similar, _) = self.oracle.similar(earlier, &block);
            stats.pairs_evaluated += 1;
            stats.similar_pairs += usize::from(similar);
            sim_row[i] = similar;
        }
        self.sim.push(sim_row);
        self.slots.push(Slot {
            id: block.id(),
            interval: block.interval(),
            data: Some(block),
        });

        let n_seq = self.sequences.len();
        for s in 0..n_seq {
            if self.can_extend(&self.sequences[s], t) {
                self.sequences[s].push(t);
                stats.extended += 1;
            }
        }
        self.sequences.push(vec![t]);

        // Slide.
        while self.n_live() > self.w {
            self.retire_oldest();
        }
        stats.time = t0.elapsed();
        stats
    }

    fn can_extend(&self, seq: &[usize], t: usize) -> bool {
        if seq.is_empty() || !seq.iter().all(|&m| self.is_similar(m, t)) {
            return false;
        }
        let last = *seq.last().expect("non-empty");
        for hole in last + 1..t {
            if seq.iter().all(|&m| self.is_similar(m, hole)) {
                return false;
            }
        }
        true
    }

    fn retire_oldest(&mut self) {
        let idx = self.live_from;
        self.slots[idx].data = None;
        self.oracle.retire(self.slots[idx].id);
        self.sim[idx] = Vec::new();
        self.live_from += 1;
        // Remove the retired member from every sequence; drop emptied
        // sequences and de-duplicate what remains.
        for seq in &mut self.sequences {
            seq.retain(|&m| m != idx);
        }
        self.sequences.retain(|s| !s.is_empty());
        self.sequences.sort();
        self.sequences.dedup();
    }

    /// The live sequences as block-id lists.
    pub fn sequences(&self) -> Vec<Vec<BlockId>> {
        self.sequences
            .iter()
            .map(|seq| seq.iter().map(|&i| self.slots[i].id).collect())
            .collect()
    }

    /// The intervals of a sequence (for calendar reporting); `None` when
    /// any member lacks an interval.
    pub fn sequence_intervals(&self, seq: &[BlockId]) -> Option<Vec<BlockInterval>> {
        seq.iter()
            .map(|id| {
                self.slots
                    .iter()
                    .find(|s| s.id == *id)
                    .and_then(|s| s.interval)
            })
            .collect()
    }

    /// Definition 4.1 invariants over the live blocks. Test support.
    pub fn check_invariants(&self) {
        for seq in &self.sequences {
            for (ai, &a) in seq.iter().enumerate() {
                assert!(a >= self.live_from, "sequence holds retired block");
                for &b in &seq[ai + 1..] {
                    assert!(self.is_similar(a, b), "pairwise similarity violated");
                }
            }
            let (&first, &last) = (seq.first().unwrap(), seq.last().unwrap());
            for k in first..=last {
                if seq.contains(&k) {
                    continue;
                }
                let eligible = seq
                    .iter()
                    .take_while(|&&m| m < k)
                    .all(|&m| self.is_similar(m, k));
                assert!(!eligible, "hole {k} in {seq:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demon_types::{Item, Tid, Transaction, TxBlock};

    /// Scripted oracle: similar iff block ids are congruent mod `m`.
    struct ModOracle(u64);
    impl SimilarityOracle for ModOracle {
        fn similar(&mut self, a: &TxBlock, b: &TxBlock) -> (bool, f64) {
            let sim = a.id().value() % self.0 == b.id().value() % self.0;
            (sim, if sim { 0.0 } else { 1.0 })
        }
    }

    fn blk(id: u64) -> TxBlock {
        TxBlock::new(
            BlockId(id),
            vec![Transaction::new(Tid(id), vec![Item(id as u32)])],
        )
    }

    fn ids(v: &[u64]) -> Vec<BlockId> {
        v.iter().copied().map(BlockId).collect()
    }

    #[test]
    fn window_bounds_live_blocks() {
        let mut miner = WindowedCompactMiner::new(ModOracle(2), 4);
        for id in 1..=10 {
            miner.add_block(blk(id));
            assert!(miner.n_live() <= 4);
            miner.check_invariants();
        }
        assert_eq!(miner.n_blocks(), 10);
        assert_eq!(miner.n_live(), 4);
    }

    #[test]
    fn sequences_cover_only_the_window() {
        let mut miner = WindowedCompactMiner::new(ModOracle(2), 4);
        for id in 1..=8 {
            miner.add_block(blk(id));
        }
        // Window = blocks 5..8; parity classes {5,7} and {6,8}.
        let seqs = miner.sequences();
        assert!(seqs.contains(&ids(&[5, 7])), "{seqs:?}");
        assert!(seqs.contains(&ids(&[6, 8])), "{seqs:?}");
        for s in &seqs {
            for b in s {
                assert!(b.value() >= 5, "retired block {b} still reported");
            }
        }
    }

    #[test]
    fn truncated_sequences_stay_compact() {
        // All blocks similar: the single growing run gets truncated to the
        // window at every slide.
        let mut miner = WindowedCompactMiner::new(ModOracle(1), 3);
        for id in 1..=7 {
            miner.add_block(blk(id));
            miner.check_invariants();
        }
        let seqs = miner.sequences();
        assert!(seqs.contains(&ids(&[5, 6, 7])), "{seqs:?}");
    }

    #[test]
    fn retired_blocks_are_not_compared() {
        let mut miner = WindowedCompactMiner::new(ModOracle(1), 2);
        for id in 1..=6 {
            let stats = miner.add_block(blk(id));
            // Only the live blocks (≤ w) are compared.
            assert!(stats.pairs_evaluated <= 2);
        }
    }

    #[test]
    fn intervals_resolve_for_live_sequences() {
        use demon_types::{BlockInterval, Timestamp};
        let mut miner = WindowedCompactMiner::new(ModOracle(1), 3);
        for id in 1..=3u64 {
            let iv = BlockInterval::new(Timestamp(id * 100), Timestamp(id * 100 + 50));
            let block = TxBlock::with_interval(BlockId(id), iv, vec![]);
            miner.add_block(block);
        }
        let seqs = miner.sequences();
        let longest = seqs.iter().max_by_key(|s| s.len()).unwrap();
        let ivs = miner.sequence_intervals(longest).unwrap();
        assert_eq!(ivs.len(), longest.len());
    }

    #[test]
    fn retired_blocks_leave_the_oracle_cache() {
        use crate::similarity::{ItemsetSimilarity, SimilarityConfig};
        use demon_types::MinSupport;
        let w = 4;
        let oracle = ItemsetSimilarity::new(
            64,
            MinSupport::new(0.2).unwrap(),
            SimilarityConfig::Threshold { alpha: 0.3 },
        );
        let mut miner = WindowedCompactMiner::new(oracle, w);
        for id in 1..=3 * w as u64 {
            miner.add_block(blk(id));
            assert!(
                miner.oracle().cached_models() <= w + 1,
                "{} models cached after block {id}",
                miner.oracle().cached_models()
            );
        }
    }

    #[test]
    #[should_panic(expected = "window below 2")]
    fn rejects_tiny_window() {
        let _ = WindowedCompactMiner::new(ModOracle(1), 1);
    }
}
