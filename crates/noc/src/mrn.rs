//! The Merger-Reduction Network.
//!
//! The MRN (paper §3.1, Fig. 4a/b) is an augmented binary tree whose nodes
//! hold an adder, a comparator and switching logic. Depending on how its
//! nodes are configured, the tree:
//!
//! * **reduces** clusters of partial products into full sums (Inner
//!   Product) — nodes act as adders, like SIGMA's FAN;
//! * **merges** coordinate-sorted psum fibers (Outer Product / Gustavson's)
//!   — nodes compare coordinates, add on a match and forward the lower
//!   coordinate otherwise, like SpArch's and GAMMA's mergers.
//!
//! Timing uses the pipelined-tree model: a pass costs the tree depth (fill)
//! plus bandwidth-limited streaming of the input volume.

use flexagon_sim::{cycles_for, Bandwidth, Cycle};
use flexagon_sparse::{merge, Fiber, FiberView};
use serde::{Deserialize, Serialize};

/// Geometry and bandwidth of a reduction/merger tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MrnConfig {
    /// Leaf inputs — equals the number of multipliers (Table 5: 64).
    pub leaves: u32,
    /// Elements per cycle the tree can accept / emit (Table 5: 16).
    pub bandwidth: Bandwidth,
}

impl Default for MrnConfig {
    fn default() -> Self {
        Self {
            leaves: 64,
            bandwidth: Bandwidth::per_cycle(16),
        }
    }
}

impl MrnConfig {
    /// Tree depth in node levels: `log2(leaves)`.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is not a power of two.
    pub fn depth(&self) -> u32 {
        assert!(
            self.leaves.is_power_of_two(),
            "tree leaves must be a power of two"
        );
        self.leaves.trailing_zeros()
    }

    /// Internal nodes: `leaves - 1` (Table 5: 63 adders).
    pub fn nodes(&self) -> u32 {
        self.leaves - 1
    }
}

/// Result of one merge pass through a tree.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// The merged, coordinate-sorted fiber.
    pub fiber: Fiber,
    /// Cycles the pass occupied the tree.
    pub cycles: Cycle,
    /// Coordinate comparisons performed.
    pub comparisons: u64,
    /// Value additions performed (coordinate collisions).
    pub additions: u64,
}

/// The unified Merger-Reduction Network of Flexagon.
#[derive(Debug, Clone)]
pub struct MergerReductionNetwork {
    cfg: MrnConfig,
    additions: u64,
    comparisons: u64,
    merged_in_elements: u64,
    reduced_products: u64,
}

impl MergerReductionNetwork {
    /// Creates an MRN with the given geometry.
    pub fn new(cfg: MrnConfig) -> Self {
        Self {
            cfg,
            additions: 0,
            comparisons: 0,
            merged_in_elements: 0,
            reduced_products: 0,
        }
    }

    /// Creates the paper's 64-leaf, 16 elements/cycle MRN.
    pub fn with_defaults() -> Self {
        Self::new(MrnConfig::default())
    }

    /// The tree geometry.
    pub fn config(&self) -> MrnConfig {
        self.cfg
    }

    /// Largest number of fibers a single merge pass can take.
    pub fn max_radix(&self) -> usize {
        self.cfg.leaves as usize
    }

    /// Pipeline fill latency (tree depth).
    pub fn fill_latency(&self) -> Cycle {
        self.cfg.depth() as Cycle
    }

    /// Merges up to `leaves` coordinate-sorted fibers in one pass
    /// (comparator/compare-and-add mode).
    ///
    /// # Panics
    ///
    /// Panics if more than `leaves` fibers are supplied; the engine is
    /// responsible for splitting larger merges into multiple passes.
    pub fn merge_fibers(&mut self, fibers: &[FiberView<'_>]) -> MergeOutcome {
        assert!(
            fibers.len() <= self.cfg.leaves as usize,
            "a single pass can merge at most {} fibers, got {}",
            self.cfg.leaves,
            fibers.len()
        );
        let input_volume = merge::input_volume(fibers) as u64;
        let (fiber, stats) = merge::merge_accumulate(fibers);
        let cycles = if input_volume == 0 {
            0
        } else {
            self.cfg.depth() as Cycle + self.cfg.bandwidth.cycles(input_volume)
        };
        self.additions += stats.additions;
        self.comparisons += stats.comparisons;
        self.merged_in_elements += input_volume;
        MergeOutcome {
            fiber,
            cycles,
            comparisons: stats.comparisons,
            additions: stats.additions,
        }
    }

    /// Charges the cycle and counter model of one merge pass whose merged
    /// fiber the caller produced elsewhere (a [`flexagon_sparse::RowAccum`]
    /// scatter): `input_elements` total elements entered, `output_len`
    /// distinct coordinates left.
    ///
    /// The counter arithmetic is exactly
    /// [`MergerReductionNetwork::merge_fibers`]'s — one comparison per
    /// element popped, one addition per coordinate collision
    /// (`input - output`), depth + bandwidth-limited streaming for the
    /// cycles — so an engine that materializes the merged fiber elsewhere
    /// keeps reports bit-identical.
    pub fn charge_merge(&mut self, input_elements: u64, output_len: u64) -> Cycle {
        debug_assert!(output_len <= input_elements, "merge cannot grow output");
        self.comparisons += input_elements;
        self.additions += input_elements - output_len;
        self.merged_in_elements += input_elements;
        if input_elements == 0 {
            0
        } else {
            self.cfg.depth() as Cycle + self.cfg.bandwidth.cycles(input_elements)
        }
    }

    /// Streams `products` partial products through the adders (adder mode)
    /// and returns the cycles the tree's input side is occupied.
    pub fn reduce(&mut self, products: u64) -> Cycle {
        self.reduced_products += products;
        self.additions += products.saturating_sub(1);
        // The leaves absorb up to `leaves` products per cycle; fill latency
        // is charged once per tile by the engine.
        cycles_for(products, self.cfg.leaves as u64)
    }

    /// Total additions performed (both modes).
    pub fn additions(&self) -> u64 {
        self.additions
    }

    /// Total coordinate comparisons performed.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Total elements that entered merge passes.
    pub fn merged_input_elements(&self) -> u64 {
        self.merged_in_elements
    }

    /// Total products that entered reductions.
    pub fn reduced_products(&self) -> u64 {
        self.reduced_products
    }
}

impl Default for MergerReductionNetwork {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexagon_sparse::Element;

    fn fiber(pairs: &[(u32, f32)]) -> Fiber {
        Fiber::from_sorted(pairs.iter().map(|&(c, v)| Element::new(c, v)).collect())
    }

    #[test]
    fn geometry_matches_table5() {
        let cfg = MrnConfig::default();
        assert_eq!(cfg.leaves, 64);
        assert_eq!(cfg.nodes(), 63);
        assert_eq!(cfg.depth(), 6);
        assert_eq!(cfg.bandwidth.rate(), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_leaves_rejected() {
        MrnConfig {
            leaves: 48,
            bandwidth: Bandwidth::per_cycle(16),
        }
        .depth();
    }

    #[test]
    fn merge_functional_result_is_kway_merge() {
        let mut mrn = MergerReductionNetwork::with_defaults();
        let a = fiber(&[(0, 1.0), (3, 1.0)]);
        let b = fiber(&[(3, 2.0), (7, 1.0)]);
        let out = mrn.merge_fibers(&[a.as_view(), b.as_view()]);
        assert_eq!(out.fiber.get(3), Some(3.0));
        assert_eq!(out.fiber.len(), 3);
        assert_eq!(out.additions, 1);
    }

    #[test]
    fn merge_cycles_are_depth_plus_stream() {
        let mut mrn = MergerReductionNetwork::with_defaults();
        // 32 input elements at 16/cycle + 6 depth = 8 cycles.
        let a = fiber(&(0..16).map(|i| (i, 1.0)).collect::<Vec<_>>());
        let b = fiber(&(16..32).map(|i| (i, 1.0)).collect::<Vec<_>>());
        let out = mrn.merge_fibers(&[a.as_view(), b.as_view()]);
        assert_eq!(out.cycles, 6 + 2);
    }

    #[test]
    fn charge_merge_matches_real_merge() {
        let a = fiber(&[(0, 1.0), (3, 1.0), (9, 1.0)]);
        let b = fiber(&[(3, 2.0), (7, 1.0)]);
        let mut real = MergerReductionNetwork::with_defaults();
        let out = real.merge_fibers(&[a.as_view(), b.as_view()]);
        let mut charged = MergerReductionNetwork::with_defaults();
        let cycles = charged.charge_merge(5, out.fiber.len() as u64);
        assert_eq!(cycles, out.cycles);
        assert_eq!(charged.additions(), real.additions());
        assert_eq!(charged.comparisons(), real.comparisons());
        assert_eq!(
            charged.merged_input_elements(),
            real.merged_input_elements()
        );
        assert_eq!(charged.charge_merge(0, 0), 0, "empty pass is free");
    }

    #[test]
    fn merge_empty_is_free() {
        let mut mrn = MergerReductionNetwork::with_defaults();
        let out = mrn.merge_fibers(&[]);
        assert!(out.fiber.is_empty());
        assert_eq!(out.cycles, 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 fibers")]
    fn merge_radix_enforced() {
        let mut mrn = MergerReductionNetwork::with_defaults();
        let f = fiber(&[(0, 1.0)]);
        let views: Vec<_> = std::iter::repeat_n(f.as_view(), 65).collect();
        mrn.merge_fibers(&views);
    }

    #[test]
    fn reduce_throughput_is_leaf_bound() {
        let mut mrn = MergerReductionNetwork::with_defaults();
        assert_eq!(mrn.reduce(64), 1);
        assert_eq!(mrn.reduce(65), 2);
        assert_eq!(mrn.reduced_products(), 129);
    }

    #[test]
    fn counters_accumulate_across_modes() {
        let mut mrn = MergerReductionNetwork::with_defaults();
        mrn.reduce(10);
        let a = fiber(&[(0, 1.0)]);
        let b = fiber(&[(0, 1.0)]);
        mrn.merge_fibers(&[a.as_view(), b.as_view()]);
        assert_eq!(mrn.additions(), 9 + 1);
        assert!(mrn.comparisons() >= 1);
        assert_eq!(mrn.merged_input_elements(), 2);
    }

    #[test]
    fn smaller_trees_have_shorter_fill() {
        let mrn = MergerReductionNetwork::new(MrnConfig {
            leaves: 8,
            bandwidth: Bandwidth::per_cycle(4),
        });
        assert_eq!(mrn.fill_latency(), 3);
        assert_eq!(mrn.max_radix(), 8);
    }
}
