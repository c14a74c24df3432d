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

use flexagon_sim::{Bandwidth, Cycle};
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

    /// Charges the cycle and counter model of one merge pass whose merged
    /// fiber the caller produced (the engine scatters it into a `RowAccum`):
    /// `input_elements` total elements entered, `output_len` distinct
    /// coordinates left.
    ///
    /// The counts are those of the software k-way merge,
    /// `flexagon_sparse::merge::merge_accumulate`, over the same fibers:
    /// one comparison per element popped and one addition per coordinate
    /// collision (`input - output`). The cycles are the tree depth plus
    /// bandwidth-limited streaming of the input, and an empty pass is
    /// free.
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

    /// Reduces `products` partial products into `sums` full sums through
    /// the adders (adder mode): a sum of `x` products takes `x - 1`
    /// additions, so the batch takes `products - sums`. The caller charges
    /// the cycles: the leaves absorb up to `leaves` products per cycle, and
    /// the fill latency is paid once per tile.
    ///
    /// # Panics
    ///
    /// Panics if `sums > products`: every sum holds at least one product.
    pub fn reduce(&mut self, products: u64, sums: u64) {
        assert!(sums <= products, "{sums} sums of {products} products");
        self.reduced_products += products;
        self.additions += products - sums;
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
    use flexagon_sparse::{merge, Element, Fiber};

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
    fn merge_cycles_are_depth_plus_stream() {
        let mut mrn = MergerReductionNetwork::with_defaults();
        // 32 input elements at 16/cycle + 6 depth = 8 cycles.
        assert_eq!(mrn.charge_merge(32, 32), 6 + 2);
    }

    #[test]
    fn charge_merge_matches_real_merge() {
        let a = fiber(&[(0, 1.0), (3, 1.0), (9, 1.0)]);
        let b = fiber(&[(3, 2.0), (7, 1.0)]);
        let (out, stats) = merge::merge_accumulate(&[a.as_view(), b.as_view()]);
        let mut charged = MergerReductionNetwork::with_defaults();
        let cycles = charged.charge_merge(5, out.len() as u64);
        assert_eq!(cycles, 6 + 1);
        assert_eq!(charged.additions(), stats.additions);
        assert_eq!(charged.comparisons(), stats.comparisons);
        assert_eq!(charged.merged_input_elements(), 5);
    }

    #[test]
    fn merge_empty_is_free() {
        let mut mrn = MergerReductionNetwork::with_defaults();
        assert_eq!(mrn.charge_merge(0, 0), 0);
        assert_eq!(mrn.comparisons(), 0);
        assert_eq!(mrn.additions(), 0);
    }

    #[test]
    fn reduce_adds_all_but_one_product_per_sum() {
        let mut mrn = MergerReductionNetwork::with_defaults();
        // Two sums: one of 64 products, one of a single product.
        mrn.reduce(65, 2);
        assert_eq!(mrn.reduced_products(), 65);
        assert_eq!(mrn.additions(), 63);
        // A batch of single-product sums adds nothing.
        mrn.reduce(7, 7);
        assert_eq!(mrn.reduced_products(), 72);
        assert_eq!(mrn.additions(), 63);
        mrn.reduce(0, 0);
        assert_eq!(mrn.additions(), 63);
    }

    #[test]
    #[should_panic(expected = "3 sums of 2 products")]
    fn reduce_rejects_more_sums_than_products() {
        MergerReductionNetwork::with_defaults().reduce(2, 3);
    }

    #[test]
    fn counters_accumulate_across_modes() {
        let mut mrn = MergerReductionNetwork::with_defaults();
        mrn.reduce(10, 1);
        // Two one-element fibers on the same coordinate merge into one.
        mrn.charge_merge(2, 1);
        assert_eq!(mrn.additions(), 9 + 1);
        assert_eq!(mrn.comparisons(), 2);
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
