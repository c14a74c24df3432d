//! Stationary-tile planning.
//!
//! A tile is one filling of the multiplier array (the stationary phase of
//! Fig. 3b). For row-stationary dataflows (IP, Gust) a tile packs row
//! fibers (split into chunks when longer than the array); for the
//! element-stationary Outer Product it packs individual elements walked in
//! column-major order, grouped by their `k` so one B-row multicast serves
//! the whole group.
//!
//! Plans are *flat*: clusters, groups and targets live in contiguous
//! vectors with tile boundaries recorded as prefix ends, which makes tile
//! iteration a slice walk. Planners write into a caller-owned plan,
//! clearing it first.
//!
//! Every planner takes the *band* of output rows it plans for (the shard
//! unit of the parallel engine). Planning `0..rows` reproduces the
//! unsharded plan exactly; a narrower band plans the row-submatrix alone,
//! which is what keeps each shard's execution — and therefore its
//! accounting — a pure function of `(operands, config, band)`,
//! independent of how many worker threads run the bands.

use flexagon_sparse::{FiberView, MatrixView, Value};
use std::ops::Range;

/// A chunk of a stationary row fiber mapped onto consecutive multipliers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Cluster {
    /// Output row this cluster computes.
    pub row: u32,
    /// Chunk index within the row (0-based).
    pub chunk: u32,
    /// Total chunks the row was split into.
    pub chunks_total: u32,
    /// Offset of the chunk within the row's fiber.
    pub start: usize,
    /// Number of elements (multiplier slots) in the chunk.
    pub len: usize,
}

impl Cluster {
    /// Whether this row fits entirely in one cluster.
    pub fn is_whole_row(&self) -> bool {
        self.chunks_total == 1
    }

    /// Whether this is the row's final chunk.
    pub fn is_last_chunk(&self) -> bool {
        self.chunk + 1 == self.chunks_total
    }

    /// The chunk of the stationary fiber this cluster holds, as a zero-copy
    /// view into `a` (the matrix the tiles were planned from).
    pub fn chunk_of<'a>(&self, a: MatrixView<'a>) -> FiberView<'a> {
        a.fiber(self.row).slice(self.start, self.len)
    }
}

/// Multiplier slots occupied by a tile of row clusters.
pub(crate) fn slots_used(tile: &[Cluster]) -> u64 {
    tile.iter().map(|c| c.len as u64).sum()
}

/// Flat row-stationary tile plan: all clusters in tile order, with each
/// tile's end offset into `clusters`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RowPlan {
    clusters: Vec<Cluster>,
    tile_ends: Vec<u32>,
}

impl RowPlan {
    /// Iterates over the tiles as cluster slices.
    pub fn tiles(&self) -> impl Iterator<Item = &[Cluster]> {
        let mut start = 0usize;
        self.tile_ends.iter().map(move |&end| {
            let tile = &self.clusters[start..end as usize];
            start = end as usize;
            tile
        })
    }

    /// Number of tiles planned.
    #[cfg(test)]
    pub fn num_tiles(&self) -> usize {
        self.tile_ends.len()
    }
}

/// Packs the rows `band` of a row-major stationary matrix into tiles of at
/// most `slots` multipliers, splitting rows longer than `slots` into
/// chunks, writing the plan into `out` (cleared first; buffers reused).
///
/// Chunks of one row are emitted in order and never share a tile with a
/// later chunk of the same row (a full-width chunk fills a tile by itself).
/// Empty rows occupy no slots.
pub(crate) fn plan_rows(a: MatrixView<'_>, slots: u32, band: Range<u32>, out: &mut RowPlan) {
    let slots = slots as usize;
    out.clusters.clear();
    out.tile_ends.clear();
    let mut tile_start = 0usize;
    let mut used = 0usize;
    for row in band {
        let len = a.fiber_len(row);
        if len == 0 {
            continue;
        }
        let chunks_total = len.div_ceil(slots) as u32;
        let mut start = 0usize;
        let mut chunk = 0u32;
        while start < len {
            let take = (len - start).min(slots);
            if used + take > slots {
                out.tile_ends.push(out.clusters.len() as u32);
                tile_start = out.clusters.len();
                used = 0;
            }
            out.clusters.push(Cluster {
                row,
                chunk,
                chunks_total,
                start,
                len: take,
            });
            used += take;
            start += take;
            chunk += 1;
            if used == slots {
                out.tile_ends.push(out.clusters.len() as u32);
                tile_start = out.clusters.len();
                used = 0;
            }
        }
    }
    if out.clusters.len() > tile_start {
        out.tile_ends.push(out.clusters.len() as u32);
    }
}

/// One Outer-Product tile as a borrowed slice of the flat plan.
#[derive(Debug, Clone)]
pub(crate) struct ColTileRef<'p> {
    plan: &'p ColPlan,
    groups: Range<usize>,
}

impl<'p> ColTileRef<'p> {
    /// Iterates over the tile's `(k, targets)` groups in ascending-k order.
    pub fn groups(&self) -> impl Iterator<Item = (u32, &'p [(u32, Value)])> {
        let plan = self.plan;
        self.groups.clone().map(move |g| {
            let start = if g == 0 {
                0
            } else {
                plan.group_ends[g - 1] as usize
            };
            let end = plan.group_ends[g] as usize;
            (plan.group_ks[g], &plan.targets[start..end])
        })
    }

    /// Multiplier slots occupied.
    pub fn slots_used(&self) -> u64 {
        self.groups().map(|(_, t)| t.len() as u64).sum()
    }
}

/// Flat column-stationary (Outer-Product) tile plan: all `(row, value)`
/// targets in walk order, grouped by `k`, with group and tile boundaries
/// as prefix ends.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ColPlan {
    /// `(output row, stationary A value)` per occupied slot, in walk order.
    targets: Vec<(u32, Value)>,
    /// Shared k coordinate of each group.
    group_ks: Vec<u32>,
    /// Prefix end of each group within `targets`.
    group_ends: Vec<u32>,
    /// Prefix end of each tile within the group arrays.
    tile_ends: Vec<u32>,
}

impl ColPlan {
    /// Iterates over the tiles.
    pub fn tiles(&self) -> impl Iterator<Item = ColTileRef<'_>> {
        let mut start = 0usize;
        self.tile_ends.iter().map(move |&end| {
            let tile = ColTileRef {
                plan: self,
                groups: start..end as usize,
            };
            start = end as usize;
            tile
        })
    }
}

/// Packs a stream of `(k, row, value)` stationary elements — already in
/// column-major walk order — into tiles of at most `slots` elements,
/// writing the plan into `out` (cleared first; buffers reused). A column
/// spanning a tile boundary is split across tiles.
fn pack_cols(elements: impl Iterator<Item = (u32, u32, Value)>, slots: u32, out: &mut ColPlan) {
    let slots = slots as usize;
    out.targets.clear();
    out.group_ks.clear();
    out.group_ends.clear();
    out.tile_ends.clear();
    let mut tile_start = 0usize;
    let mut used = 0usize;
    for (k, row, value) in elements {
        if used == slots {
            out.tile_ends.push(out.group_ks.len() as u32);
            tile_start = out.group_ks.len();
            used = 0;
        }
        let open = out.group_ks.len() > tile_start && *out.group_ks.last().expect("nonempty") == k;
        if open {
            *out.group_ends.last_mut().expect("open group") += 1;
        } else {
            out.group_ks.push(k);
            out.group_ends.push(out.targets.len() as u32 + 1);
        }
        out.targets.push((row, value));
        used += 1;
    }
    if out.group_ks.len() > tile_start {
        out.tile_ends.push(out.group_ks.len() as u32);
    }
}

/// Packs the elements of a column-major stationary matrix whose row
/// coordinate falls in `band` into tiles of at most `slots` elements,
/// walking columns in order (the Outer-Product stationary order).
///
/// Filtering by `band` is exactly planning the row-submatrix `A[band, :]`:
/// the walk order of the surviving elements is unchanged, so `0..rows`
/// reproduces the unsharded plan. This full-scan form costs `O(nnz(A))`
/// per call regardless of band width — multi-band executions pre-bucket
/// the elements once and use [`plan_cols_from_elements`] per band instead,
/// keeping total planning linear in `nnz(A)`.
pub(crate) fn plan_cols(a_csc: MatrixView<'_>, slots: u32, band: Range<u32>, out: &mut ColPlan) {
    let elements = (0..a_csc.major_dim()).flat_map(|k| {
        let fiber = a_csc.fiber(k);
        fiber
            .coords()
            .iter()
            .zip(fiber.values())
            .map(move |(&row, &value)| (k, row, value))
    });
    pack_cols(
        elements.filter(|&(_, row, _)| band.contains(&row)),
        slots,
        out,
    );
}

/// [`plan_cols`] over a pre-bucketed element list: `elements` must be this
/// band's `(k, row, value)` triples in the global column-major walk order,
/// as produced by one bucketing pass over the whole operand. Produces the
/// identical plan to `plan_cols` over the band at linear total cost.
pub(crate) fn plan_cols_from_elements(
    elements: &[(u32, u32, Value)],
    slots: u32,
    out: &mut ColPlan,
) {
    pack_cols(elements.iter().copied(), slots, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexagon_sparse::{gen, CompressedMatrix, MajorOrder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn csr(m: u32, k: u32, d: f64, seed: u64) -> CompressedMatrix {
        gen::random(
            m,
            k,
            d,
            MajorOrder::Row,
            &mut ChaCha8Rng::seed_from_u64(seed),
        )
    }

    fn rows_of(a: MatrixView<'_>, slots: u32) -> RowPlan {
        let mut plan = RowPlan::default();
        plan_rows(a, slots, 0..a.major_dim(), &mut plan);
        plan
    }

    fn cols_of(a: MatrixView<'_>, slots: u32) -> ColPlan {
        let mut plan = ColPlan::default();
        plan_cols(a, slots, 0..a.minor_dim(), &mut plan);
        plan
    }

    /// Asserts the plan shape the Inner-Product split-row accumulator
    /// relies on: a tile holds at most one chunk of a split row, a split
    /// row's chunks sit in consecutive tiles, and every chunk but the last
    /// fills its tile. Returns the number of split rows.
    fn assert_split_rows_contiguous(plan: &RowPlan, slots: u32) -> usize {
        // (row, next chunk) of the split row whose chunks are still coming.
        let mut open: Option<(u32, u32)> = None;
        let mut split_rows = 0;
        for (ti, t) in plan.tiles().enumerate() {
            let mut split = t.iter().filter(|c| !c.is_whole_row());
            let chunk = split.next();
            assert!(split.next().is_none(), "tile {ti} holds two split chunks");
            let Some(c) = chunk else {
                assert_eq!(open, None, "tile {ti} interrupts a split row");
                continue;
            };
            match open {
                Some(expected) => assert_eq!((c.row, c.chunk), expected, "tile {ti}"),
                None => {
                    assert_eq!(c.chunk, 0, "tile {ti} starts a split row mid-way");
                    split_rows += 1;
                }
            }
            if c.is_last_chunk() {
                open = None;
            } else {
                assert_eq!(
                    c.len, slots as usize,
                    "tile {ti}: chunk must fill the array"
                );
                assert_eq!(t.len(), 1, "tile {ti}: a full chunk shares no tile");
                open = Some((c.row, c.chunk + 1));
            }
        }
        assert_eq!(open, None, "plan ends inside a split row");
        split_rows
    }

    #[test]
    fn plan_rows_covers_all_elements_once() {
        let a = csr(20, 30, 0.3, 1);
        let plan = rows_of(a.view(), 8);
        let mut covered = 0usize;
        for t in plan.tiles() {
            assert!(slots_used(t) <= 8);
            covered += slots_used(t) as usize;
        }
        assert_eq!(covered, a.nnz());
        assert!(assert_split_rows_contiguous(&plan, 8) > 0, "no split row");
    }

    #[test]
    fn plan_rows_splits_long_rows() {
        // One dense row of 20 elements, 8 slots: chunks 8/8/4.
        let a = csr(1, 20, 1.0, 2);
        let plan = rows_of(a.view(), 8);
        assert_eq!(plan.num_tiles(), 3);
        let chunks: Vec<(u32, usize)> = plan
            .tiles()
            .flat_map(|t| t.iter().map(|c| (c.chunk, c.len)))
            .collect();
        assert_eq!(chunks, vec![(0, 8), (1, 8), (2, 4)]);
        let tiles: Vec<&[Cluster]> = plan.tiles().collect();
        for t in &tiles {
            for c in t.iter() {
                assert_eq!(c.chunks_total, 3);
            }
        }
        assert!(tiles[2][0].is_last_chunk());
        assert!(!tiles[0][0].is_last_chunk());
    }

    #[test]
    fn plan_rows_skips_empty_rows() {
        let a = CompressedMatrix::from_triplets(4, 4, &[(0, 0, 1.0), (3, 1, 1.0)], MajorOrder::Row)
            .unwrap();
        let plan = rows_of(a.view(), 8);
        assert_eq!(plan.num_tiles(), 1);
        let rows: Vec<u32> = plan.tiles().next().unwrap().iter().map(|c| c.row).collect();
        assert_eq!(rows, vec![0, 3]);
    }

    #[test]
    fn plan_rows_empty_matrix_no_tiles() {
        let a = CompressedMatrix::zero(5, 5, MajorOrder::Row);
        assert_eq!(rows_of(a.view(), 8).num_tiles(), 0);
    }

    #[test]
    fn whole_row_flag() {
        let a = csr(3, 4, 1.0, 3); // rows of 4 nnz, 8 slots
        let plan = rows_of(a.view(), 8);
        for t in plan.tiles() {
            for c in t.iter() {
                assert!(c.is_whole_row());
            }
        }
    }

    #[test]
    fn banded_row_plans_concatenate_to_row_coverage() {
        // Bands partition the rows; each band's plan covers exactly its
        // rows' elements, and reusing the same RowPlan buffer across bands
        // leaves no stale state behind.
        let a = csr(24, 30, 0.4, 8);
        let mut plan = RowPlan::default();
        let mut covered = 0usize;
        let mut split_rows = 0;
        for band in [0u32..9, 9..10, 10..24] {
            plan_rows(a.view(), 8, band.clone(), &mut plan);
            for t in plan.tiles() {
                for c in t.iter() {
                    assert!(band.contains(&c.row));
                    covered += c.len;
                }
            }
            split_rows += assert_split_rows_contiguous(&plan, 8);
        }
        assert_eq!(covered, a.nnz());
        assert!(split_rows > 0, "no split row");
    }

    #[test]
    fn full_band_row_plan_matches_fresh_plan() {
        let a = csr(16, 16, 0.5, 9);
        let fresh = rows_of(a.view(), 4);
        let mut reused = rows_of(csr(40, 40, 0.9, 10).view(), 8); // dirty it
        plan_rows(a.view(), 4, 0..16, &mut reused);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn plan_cols_covers_all_elements_once() {
        let a = csr(20, 30, 0.3, 4).converted(MajorOrder::Col);
        let plan = cols_of(a.view(), 8);
        let covered: u64 = plan.tiles().map(|t| t.slots_used()).sum();
        assert_eq!(covered, a.nnz() as u64);
        for t in plan.tiles() {
            assert!(t.slots_used() <= 8);
        }
    }

    #[test]
    fn plan_cols_groups_share_k() {
        let a = csr(10, 3, 1.0, 5).converted(MajorOrder::Col); // 3 cols x 10 nnz
        let plan = cols_of(a.view(), 8);
        // Column 0 (10 elements) spans tiles 0 and 1.
        let tiles: Vec<ColTileRef<'_>> = plan.tiles().collect();
        let t0: Vec<(u32, usize)> = tiles[0].groups().map(|(k, t)| (k, t.len())).collect();
        assert_eq!(t0, vec![(0, 8)]);
        let t1_first = tiles[1].groups().next().unwrap();
        assert_eq!(t1_first.0, 0);
        assert_eq!(t1_first.1.len(), 2);
    }

    #[test]
    fn plan_cols_ks_ascend_within_tile() {
        let a = csr(6, 20, 0.4, 6).converted(MajorOrder::Col);
        for t in cols_of(a.view(), 16).tiles() {
            let ks: Vec<u32> = t.groups().map(|(k, _)| k).collect();
            let mut sorted = ks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(ks, sorted);
        }
    }

    #[test]
    fn banded_col_plan_filters_rows_preserving_walk_order() {
        let a = csr(12, 12, 0.6, 7).converted(MajorOrder::Col);
        let mut plan = ColPlan::default();
        plan_cols(a.view(), 8, 3..9, &mut plan);
        let mut covered = 0u64;
        for t in plan.tiles() {
            for (_, targets) in t.groups() {
                for &(row, _) in targets {
                    assert!((3..9).contains(&row));
                }
                covered += targets.len() as u64;
            }
        }
        let expected = a
            .view()
            .coords()
            .iter()
            .filter(|&&r| (3..9).contains(&r))
            .count() as u64;
        assert_eq!(covered, expected);
    }

    #[test]
    fn bucketed_col_plan_matches_band_scan_plan() {
        // The multi-band fast path (one bucketing pass + per-band
        // plan_cols_from_elements) must produce exactly the plan the
        // filtering scan produces for every band.
        let a = csr(18, 14, 0.45, 13).converted(MajorOrder::Col);
        for band in [0u32..5, 5..6, 6..18, 0..18] {
            let mut scanned = ColPlan::default();
            plan_cols(a.view(), 8, band.clone(), &mut scanned);
            let elements: Vec<(u32, u32, Value)> = (0..a.view().major_dim())
                .flat_map(|k| {
                    let f = a.view().fiber(k);
                    f.coords()
                        .iter()
                        .zip(f.values())
                        .map(move |(&row, &value)| (k, row, value))
                        .collect::<Vec<_>>()
                })
                .filter(|&(_, row, _)| band.contains(&row))
                .collect();
            let mut bucketed = ColPlan::default();
            plan_cols_from_elements(&elements, 8, &mut bucketed);
            assert_eq!(scanned, bucketed, "band {band:?}");
        }
    }

    #[test]
    fn full_band_col_plan_matches_fresh_plan() {
        let a = csr(14, 10, 0.5, 11).converted(MajorOrder::Col);
        let fresh = cols_of(a.view(), 8);
        let mut reused = cols_of(csr(30, 30, 0.8, 12).converted(MajorOrder::Col).view(), 4);
        plan_cols(a.view(), 8, 0..14, &mut reused);
        assert_eq!(fresh, reused);
    }
}
