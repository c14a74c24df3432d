//! K-way merge with accumulation — the functional behaviour of the MRN.
//!
//! A node of the merger-reduction network compares the coordinates of its two
//! input elements: on a match it adds the values, otherwise it forwards the
//! element with the lower coordinate (paper §3.2.2). Applied over a tree this
//! is exactly a k-way merge of sorted fibers that accumulates colliding
//! coordinates. These helpers implement that semantics in software; the
//! `flexagon-noc` crate layers cycle accounting on top.
//!
//! The k-way path is a loser tree (tournament tree) over composite
//! `(coordinate, source)` keys packed into one `u64`: selecting the next
//! element costs `log2(k)` branch-free `u64` comparisons against the
//! allocator-churned tuple pops of a binary heap, and ties on a coordinate
//! resolve in source order automatically — which fixes the floating-point
//! accumulation order and keeps results bit-identical to the sequential
//! reference. Dedicated 2-way and 4-way fast paths serve the radix pattern
//! of the engine's `merge_row_fibers` loop.

use crate::{Fiber, FiberView, Value};

/// Outcome of a merge: the merged fiber plus operation counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Number of coordinate comparisons performed.
    pub comparisons: u64,
    /// Number of value additions (coordinate collisions).
    pub additions: u64,
}

/// Merges two sorted fibers, accumulating values on coordinate collisions.
// One code address, so relinking unrelated code cannot re-lay out this loop per call site.
#[inline(never)]
pub fn merge_two(a: FiberView<'_>, b: FiberView<'_>) -> (Fiber, MergeStats) {
    let mut coords: Vec<u32> = Vec::with_capacity(a.len() + b.len());
    let mut values: Vec<Value> = Vec::with_capacity(a.len() + b.len());
    let mut stats = MergeStats::default();
    let (mut i, mut j) = (0, 0);
    let (ac, bc) = (a.coords(), b.coords());
    let (av, bv) = (a.values(), b.values());
    while i < ac.len() && j < bc.len() {
        stats.comparisons += 1;
        let (ca, cb) = (ac[i], bc[j]);
        match ca.cmp(&cb) {
            std::cmp::Ordering::Less => {
                coords.push(ca);
                values.push(av[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                coords.push(cb);
                values.push(bv[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                stats.additions += 1;
                coords.push(ca);
                values.push(av[i] + bv[j]);
                i += 1;
                j += 1;
            }
        }
    }
    coords.extend_from_slice(&ac[i..]);
    values.extend_from_slice(&av[i..]);
    coords.extend_from_slice(&bc[j..]);
    values.extend_from_slice(&bv[j..]);
    (Fiber::from_parts(coords, values), stats)
}

/// Merges any number of sorted fibers with accumulation.
///
/// Merging `F` fibers of `E` total elements costs `O(E log F)`; specialized
/// 2-way and 4-way paths handle the small radixes the engine's merge loop
/// produces, and a loser tree covers the general case.
///
/// The counter semantics match the MRN's pop-per-element model: one
/// comparison is charged per element entering the merge, one addition per
/// coordinate collision.
///
/// ```
/// use flexagon_sparse::{Element, Fiber, merge};
/// let a = Fiber::from_sorted(vec![Element::new(0, 1.0), Element::new(2, 1.0)]);
/// let b = Fiber::from_sorted(vec![Element::new(2, 2.0), Element::new(3, 1.0)]);
/// let (m, _) = merge::merge_accumulate(&[a.as_view(), b.as_view()]);
/// assert_eq!(m.get(2), Some(3.0));
/// assert_eq!(m.len(), 3);
/// ```
pub fn merge_accumulate(fibers: &[FiberView<'_>]) -> (Fiber, MergeStats) {
    match fibers.len() {
        0 => (Fiber::new(), MergeStats::default()),
        1 => (
            fibers[0].to_fiber(),
            MergeStats {
                comparisons: fibers[0].len() as u64,
                additions: 0,
            },
        ),
        2 => merge2_accumulate(fibers[0], fibers[1]),
        3 | 4 => merge4_accumulate(fibers),
        5..=8 => merge_loser_tree(fibers),
        _ => merge_sort_based(fibers),
    }
}

/// Wide-radix path: concatenate composite keys, sort, scan-accumulate.
///
/// For many-way merges the branchy tree replay loses to one pdqsort pass
/// over packed `u64` keys followed by a linear accumulation scan — the sort
/// is cache-streaming and branch-light, and the `(coordinate, source)` key
/// packing preserves the source-order float accumulation exactly like the
/// tree does.
fn merge_sort_based(fibers: &[FiberView<'_>]) -> (Fiber, MergeStats) {
    let total: usize = fibers.iter().map(|f| f.len()).sum();
    let mut keyed: Vec<(u64, Value)> = Vec::with_capacity(total);
    for (src, f) in fibers.iter().enumerate() {
        keyed.extend(
            f.coords()
                .iter()
                .zip(f.values())
                .map(|(&c, &v)| (key(c, src), v)),
        );
    }
    keyed.sort_unstable_by_key(|&(k, _)| k);
    let mut coords: Vec<u32> = Vec::with_capacity(total);
    let mut values: Vec<Value> = Vec::with_capacity(total);
    let mut last: u64 = u64::MAX;
    for &(k, v) in &keyed {
        let coord = (k >> 32) as u32;
        if coord as u64 == last {
            *values.last_mut().expect("parallel arrays") += v;
        } else {
            coords.push(coord);
            values.push(v);
            last = coord as u64;
        }
    }
    let stats = MergeStats {
        comparisons: total as u64,
        additions: (total - coords.len()) as u64,
    };
    (Fiber::from_parts(coords, values), stats)
}

/// 2-way fast path: the `merge_two` loop with pop-per-element counter
/// semantics (both colliding elements are charged a comparison, matching
/// the k-way model; the counts fall out of the lengths, since every
/// collision shrinks the output by one).
#[inline(never)]
fn merge2_accumulate(a: FiberView<'_>, b: FiberView<'_>) -> (Fiber, MergeStats) {
    let total = (a.len() + b.len()) as u64;
    let (out, _) = merge_two(a, b);
    let stats = MergeStats {
        comparisons: total,
        additions: total - out.len() as u64,
    };
    (out, stats)
}

/// Composite sort key: coordinate in the high half, source index in the low
/// half, so one `u64` comparison orders by coordinate with ties broken in
/// source order (the float-accumulation order of the sequential reference).
#[inline(always)]
fn key(coord: u32, src: usize) -> u64 {
    ((coord as u64) << 32) | src as u64
}

/// Key for an exhausted source: larger than any real key (a real key's low
/// half is a source index, always smaller than `u32::MAX`).
const EXHAUSTED: u64 = u64::MAX;

/// 3/4-way fast path: repeated minimum over at most four head keys. With so
/// few sources a branchless min-scan beats tree bookkeeping.
fn merge4_accumulate(fibers: &[FiberView<'_>]) -> (Fiber, MergeStats) {
    debug_assert!((3..=4).contains(&fibers.len()));
    let total: usize = fibers.iter().map(|f| f.len()).sum();
    let mut coords: Vec<u32> = Vec::with_capacity(total);
    let mut values: Vec<Value> = Vec::with_capacity(total);
    let mut pos = [0usize; 4];
    let mut heads = [EXHAUSTED; 4];
    for (src, f) in fibers.iter().enumerate() {
        if !f.is_empty() {
            heads[src] = key(f.coords()[0], src);
        }
    }
    // Sentinel larger than any u32 coordinate, so the first element never
    // matches it.
    let mut last: u64 = u64::MAX;
    loop {
        let mut best = heads[0];
        for &h in &heads[1..fibers.len()] {
            best = best.min(h);
        }
        if best == EXHAUSTED {
            break;
        }
        let coord = (best >> 32) as u32;
        let src = (best & 0xFFFF_FFFF) as usize;
        let value = fibers[src].values()[pos[src]];
        if coord as u64 == last {
            *values.last_mut().expect("parallel arrays") += value;
        } else {
            coords.push(coord);
            values.push(value);
            last = coord as u64;
        }
        pos[src] += 1;
        heads[src] = if pos[src] < fibers[src].len() {
            key(fibers[src].coords()[pos[src]], src)
        } else {
            EXHAUSTED
        };
    }
    let stats = MergeStats {
        comparisons: total as u64,
        additions: (total - coords.len()) as u64,
    };
    (Fiber::from_parts(coords, values), stats)
}

/// General k-way loser tree.
fn merge_loser_tree(fibers: &[FiberView<'_>]) -> (Fiber, MergeStats) {
    let k = fibers.len().next_power_of_two();
    let total: usize = fibers.iter().map(|f| f.len()).sum();
    let mut coords: Vec<u32> = Vec::with_capacity(total);
    let mut values: Vec<Value> = Vec::with_capacity(total);
    let mut pos = vec![0usize; fibers.len()];
    let mut heads = vec![EXHAUSTED; k];
    for (src, f) in fibers.iter().enumerate() {
        if !f.is_empty() {
            heads[src] = key(f.coords()[0], src);
        }
    }
    // `tree[1..k]` holds the loser source index of each internal node;
    // leaf `src` sits at implicit position `k + src`.
    let mut tree = vec![usize::MAX; k];
    // Seed losers and the first winner with one full tournament, level by
    // level from the leaves up.
    let mut winner = 0usize;
    {
        let mut round: Vec<usize> = (0..k).collect();
        let mut node_base = k / 2;
        while round.len() > 1 {
            let mut next = Vec::with_capacity(round.len() / 2);
            for (i, pair) in round.chunks(2).enumerate() {
                let (a, b) = (pair[0], pair[1]);
                let (win, lose) = if heads[a] <= heads[b] { (a, b) } else { (b, a) };
                tree[node_base + i] = lose;
                next.push(win);
            }
            round = next;
            node_base /= 2;
        }
        if let Some(&w) = round.first() {
            winner = w;
        }
    }
    // Sentinel larger than any u32 coordinate, so the first element never
    // matches it.
    let mut last: u64 = u64::MAX;
    while heads[winner] != EXHAUSTED {
        let best = heads[winner];
        let coord = (best >> 32) as u32;
        let src = winner;
        let value = fibers[src].values()[pos[src]];
        if coord as u64 == last {
            *values.last_mut().expect("parallel arrays") += value;
        } else {
            coords.push(coord);
            values.push(value);
            last = coord as u64;
        }
        pos[src] += 1;
        heads[src] = if pos[src] < fibers[src].len() {
            key(fibers[src].coords()[pos[src]], src)
        } else {
            EXHAUSTED
        };
        // Replay the path from the leaf to the root: at each node the new
        // candidate swaps with the stored loser whenever the loser is
        // smaller; whatever survives at the top is the next winner.
        let mut candidate = src;
        let mut node = (k + src) / 2;
        while node >= 1 {
            if heads[tree[node]] < heads[candidate] {
                std::mem::swap(&mut tree[node], &mut candidate);
            }
            node /= 2;
        }
        winner = candidate;
    }
    let stats = MergeStats {
        comparisons: total as u64,
        additions: (total - coords.len()) as u64,
    };
    (Fiber::from_parts(coords, values), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Element;

    fn f(pairs: &[(u32, Value)]) -> Fiber {
        Fiber::from_sorted(pairs.iter().map(|&(c, v)| Element::new(c, v)).collect())
    }

    #[test]
    fn merge_two_disjoint() {
        let a = f(&[(0, 1.0), (2, 2.0)]);
        let b = f(&[(1, 3.0), (5, 4.0)]);
        let (m, stats) = merge_two(a.as_view(), b.as_view());
        assert_eq!(m.len(), 4);
        assert_eq!(stats.additions, 0);
        assert_eq!(m.get(5), Some(4.0));
    }

    #[test]
    fn merge_two_accumulates_collisions() {
        let a = f(&[(1, 1.0), (2, 2.0)]);
        let b = f(&[(1, 10.0), (3, 3.0)]);
        let (m, stats) = merge_two(a.as_view(), b.as_view());
        assert_eq!(m.get(1), Some(11.0));
        assert_eq!(stats.additions, 1);
    }

    #[test]
    fn merge_two_with_empty_is_identity() {
        let a = f(&[(1, 1.0)]);
        let (m, _) = merge_two(a.as_view(), Fiber::new().as_view());
        assert_eq!(m, a);
    }

    #[test]
    fn merge_accumulate_empty_input() {
        let (m, stats) = merge_accumulate(&[]);
        assert!(m.is_empty());
        assert_eq!(stats, MergeStats::default());
    }

    #[test]
    fn merge_accumulate_matches_pairwise() {
        let a = f(&[(0, 1.0), (4, 1.0)]);
        let b = f(&[(0, 2.0), (3, 1.0)]);
        let c = f(&[(3, 5.0), (4, 5.0)]);
        let (kway, _) = merge_accumulate(&[a.as_view(), b.as_view(), c.as_view()]);
        let (ab, _) = merge_two(a.as_view(), b.as_view());
        let (abc, _) = merge_two(ab.as_view(), c.as_view());
        assert_eq!(kway, abc);
    }

    #[test]
    fn merge_accumulate_many_copies_of_same_fiber() {
        let a = f(&[(0, 1.0), (1, 1.0)]);
        let views: Vec<_> = std::iter::repeat_n(a.as_view(), 8).collect();
        let (m, stats) = merge_accumulate(&views);
        assert_eq!(m.get(0), Some(8.0));
        assert_eq!(m.get(1), Some(8.0));
        assert_eq!(stats.additions, 14); // 7 per coordinate
    }

    #[test]
    fn merge_preserves_sortedness() {
        let a = f(&[(5, 1.0), (9, 1.0)]);
        let b = f(&[(0, 1.0), (7, 1.0)]);
        let (m, _) = merge_accumulate(&[a.as_view(), b.as_view()]);
        let coords: Vec<u32> = m.iter().map(|e| e.coord).collect();
        let mut sorted = coords.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(coords, sorted);
    }

    #[test]
    fn all_radixes_agree_with_two_way_composition() {
        // Build deterministic pseudo-random fibers and check every dispatch
        // path (1, 2, 3, 4, 5, 8, 17, 64 ways) against pairwise merge_two.
        for ways in [1usize, 2, 3, 4, 5, 8, 17, 64] {
            let fibers: Vec<Fiber> = (0..ways)
                .map(|s| {
                    let pairs: Vec<(u32, Value)> = (0..40u32)
                        .filter(|c| {
                            (c.wrapping_mul(2654435761).wrapping_add(s as u32 * 97)) % 3 == 0
                        })
                        .map(|c| (c, (s + 1) as Value))
                        .collect();
                    f(&pairs)
                })
                .collect();
            let views: Vec<_> = fibers.iter().map(Fiber::as_view).collect();
            let (kway, stats) = merge_accumulate(&views);
            let mut pairwise = Fiber::new();
            for fiber in &fibers {
                let (m, _) = merge_two(pairwise.as_view(), fiber.as_view());
                pairwise = m;
            }
            assert_eq!(kway, pairwise, "radix {ways} mismatch");
            assert_eq!(
                stats.comparisons,
                views.iter().map(|v| v.len() as u64).sum::<u64>(),
                "pop-per-element comparison count at radix {ways}"
            );
        }
    }

    #[test]
    fn counter_semantics_are_pop_per_element() {
        let a = f(&[(0, 1.0), (1, 1.0)]);
        let b = f(&[(1, 2.0), (2, 2.0)]);
        let (_, stats) = merge_accumulate(&[a.as_view(), b.as_view()]);
        assert_eq!(stats.comparisons, 4);
        assert_eq!(stats.additions, 1);
    }
}
