//! Property-based tests for the on-chip networks.

use flexagon_noc::{DistributionNetwork, DnConfig, MergerReductionNetwork, MrnConfig};
use flexagon_sim::Bandwidth;
use flexagon_sparse::{merge, Element, Fiber};
use proptest::prelude::*;

fn fibers_strategy() -> impl Strategy<Value = Vec<Fiber>> {
    proptest::collection::vec(proptest::collection::btree_set(0u32..50, 0..20), 1..16).prop_map(
        |sets| {
            sets.into_iter()
                .map(|coords| {
                    Fiber::from_sorted(coords.into_iter().map(|c| Element::new(c, 1.25)).collect())
                })
                .collect()
        },
    )
}

proptest! {
    /// The MRN's merge model charges exactly the software k-way merge's
    /// counts for any fiber set: its comparisons and additions, and the
    /// pass cycles the tree takes for that input volume.
    #[test]
    fn mrn_merge_is_kway_merge(fibers in fibers_strategy()) {
        let views: Vec<_> = fibers.iter().map(Fiber::as_view).collect();
        let (sw, sw_stats) = merge::merge_accumulate(&views);
        let volume: u64 = views.iter().map(|v| v.len() as u64).sum();
        let mut mrn = MergerReductionNetwork::with_defaults();
        let cycles = mrn.charge_merge(volume, sw.len() as u64);
        prop_assert_eq!(mrn.comparisons(), sw_stats.comparisons);
        prop_assert_eq!(mrn.additions(), sw_stats.additions);
        prop_assert_eq!(mrn.merged_input_elements(), volume);
        let want = if volume == 0 { 0 } else { 6 + volume.div_ceil(16) };
        prop_assert_eq!(cycles, want);
    }

    /// Merge cycles are monotone in input volume and zero only for empty
    /// inputs, whatever the output length.
    #[test]
    fn merge_cycles_monotone(volume in 0u64..10_000, collisions in 0u64..10_000) {
        let mut mrn = MergerReductionNetwork::with_defaults();
        let cycles = mrn.charge_merge(volume, volume.saturating_sub(collisions));
        if volume == 0 {
            prop_assert_eq!(cycles, 0);
        } else {
            // depth + ceil(volume / bandwidth)
            prop_assert_eq!(cycles, 6 + volume.div_ceil(16));
            let more = mrn.charge_merge(volume + 1, volume + 1);
            prop_assert!(more >= cycles);
        }
    }

    /// DN injection cycles depend only on injected volume, never fan-out.
    #[test]
    fn dn_multicast_is_free_fanout(elems in 1u64..1000, dests in 1u32..64) {
        let mut dn1 = DistributionNetwork::with_defaults();
        let mut dn2 = DistributionNetwork::with_defaults();
        let unicast = dn1.send(elems, 1);
        let multicast = dn2.send(elems, dests);
        prop_assert_eq!(unicast, multicast);
        prop_assert_eq!(dn2.delivered_elements(), elems * dests as u64);
    }

    /// Benes geometry: switch count is width * (2 log2(width) + 1) for any
    /// power-of-two width.
    #[test]
    fn benes_switch_count(log_width in 1u32..10) {
        let width = 1u32 << log_width;
        let cfg = DnConfig { width, bandwidth: Bandwidth::per_cycle(16) };
        prop_assert_eq!(cfg.levels(), 2 * log_width + 1);
        prop_assert_eq!(cfg.switches(), width * (2 * log_width + 1));
    }

    /// Tree geometry: nodes = leaves - 1 for any power-of-two leaf count.
    #[test]
    fn tree_node_count(log_leaves in 1u32..10) {
        let leaves = 1u32 << log_leaves;
        let cfg = MrnConfig { leaves, bandwidth: Bandwidth::per_cycle(16) };
        prop_assert_eq!(cfg.nodes(), leaves - 1);
        prop_assert_eq!(cfg.depth(), log_leaves);
    }
}
