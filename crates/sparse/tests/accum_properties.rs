//! Property tests for the tiered psum accumulators: every tier's drain must
//! be bit-identical to the k-way merge reference over the same scaled
//! fibers in the same source order — including reuse across batches, the
//! cross-tile partial-reload pattern of the Outer-Product loop, and the
//! runs tier's merge-on-overflow collapse.

use flexagon_sparse::{merge, AccumConfig, AccumTier, Element, Fiber, FiberView, RowAccum, Value};
use proptest::prelude::*;

/// Strategy: a fiber over a configurable coordinate space with a scale
/// factor, so small spaces exercise the dense tier, medium the paged one,
/// and huge spans the sorted-run list.
fn scaled_fiber(space: u32, max_len: usize) -> impl Strategy<Value = (Fiber, Value)> {
    (
        proptest::collection::btree_map(0..space, 0.25f32..4.0, 0..max_len),
        0.25f32..4.0,
    )
        .prop_map(|(cells, factor)| {
            let fiber =
                Fiber::from_sorted(cells.into_iter().map(|(c, v)| Element::new(c, v)).collect());
            (fiber, factor)
        })
}

/// Strategy: a batch of scaled fibers over one coordinate space.
fn batch(space: u32, ways: usize, max_len: usize) -> impl Strategy<Value = Vec<(Fiber, Value)>> {
    proptest::collection::vec(scaled_fiber(space, max_len), 1..ways)
}

/// The k-way merge reference: scale every fiber, merge in source order.
fn reference(fibers: &[(Fiber, Value)]) -> Fiber {
    let scaled: Vec<Fiber> = fibers.iter().map(|(f, s)| f.scaled(*s)).collect();
    let views: Vec<FiberView<'_>> = scaled.iter().map(Fiber::as_view).collect();
    merge::merge_accumulate(&views).0
}

/// Span and element count of a batch — the engine's tier-selection inputs.
fn span_of(fibers: &[(Fiber, Value)]) -> Option<(u32, u32, u64)> {
    let mut lo = u32::MAX;
    let mut hi = 0;
    let mut nnz = 0u64;
    for (f, _) in fibers {
        if f.is_empty() {
            continue;
        }
        lo = lo.min(f.coords()[0]);
        hi = hi.max(f.coords()[f.len() - 1]);
        nnz += f.len() as u64;
    }
    (nnz > 0).then_some((lo, hi, nnz))
}

/// Asserts elementwise bit-identity (coords and value bits).
fn assert_bit_identical(got: &Fiber, want: &Fiber) {
    assert_eq!(got.coords(), want.coords());
    for (g, w) in got.values().iter().zip(want.values()) {
        assert_eq!(g.to_bits(), w.to_bits());
    }
}

/// Scatters a batch through `acc` (arming it from the batch's span) and
/// checks the drain against the merge reference. Returns the drained fiber.
fn run_batch(acc: &mut RowAccum, fibers: &[(Fiber, Value)], cfg: &AccumConfig) -> Fiber {
    let Some((lo, hi, nnz)) = span_of(fibers) else {
        return Fiber::new();
    };
    acc.begin(lo, hi, nnz, cfg);
    for (f, s) in fibers {
        acc.scatter_scaled(f.as_view(), *s);
    }
    let got = acc.drain();
    assert_bit_identical(&got, &reference(fibers));
    got
}

proptest! {
    /// Dense tier (tight spans): drain is bit-identical to the k-way merge.
    #[test]
    fn dense_tier_matches_merge(fibers in batch(96, 12, 40)) {
        let cfg = AccumConfig::default();
        if let Some((lo, hi, nnz)) = span_of(&fibers) {
            // A span this tight must pick an array tier, never runs.
            let tier = AccumTier::select((hi - lo) as u64 + 1, nnz, &cfg);
            prop_assert_ne!(tier, AccumTier::Runs);
        }
        run_batch(&mut RowAccum::new(), &fibers, &cfg);
    }

    /// Paged tier (medium spans): drain is bit-identical to the merge.
    #[test]
    fn paged_tier_matches_merge(fibers in batch(200_000, 8, 30)) {
        run_batch(&mut RowAccum::new(), &fibers, &AccumConfig::default());
    }

    /// Runs tier (huge sparse spans): drain is bit-identical to the merge,
    /// and an aggressive merge-on-overflow limit changes nothing.
    #[test]
    fn runs_tier_matches_merge(fibers in batch(2_000_000_000, 12, 30)) {
        run_batch(&mut RowAccum::new(), &fibers, &AccumConfig::default());
        let eager = AccumConfig {
            runs_merge_limit: 2,
            ..AccumConfig::default()
        };
        run_batch(&mut RowAccum::new(), &fibers, &eager);
    }

    /// One accumulator reused across per-tile batches, with the cross-tile
    /// partial reload: each tile's drain matches its own merge, and the
    /// final cross-tile merge of the drained partials (the Outer-Product
    /// pending path, replayed through a fresh accumulator pass like
    /// `merge_row_fibers` does) matches merging the partial fibers.
    #[test]
    fn cross_tile_partials_reload_bit_identical(
        tile_a in batch(50_000, 8, 30),
        tile_b in batch(50_000, 8, 30),
        tile_c in batch(128, 8, 40),
    ) {
        let cfg = AccumConfig::default();
        let mut acc = RowAccum::new();
        let mut parts: Vec<Fiber> = Vec::new();
        for tile in [&tile_a, &tile_b, &tile_c] {
            let part = run_batch(&mut acc, tile, &cfg);
            if !part.is_empty() {
                parts.push(part);
            }
        }
        if parts.len() >= 2 {
            // Reference final merge of the reloaded partials.
            let views: Vec<FiberView<'_>> = parts.iter().map(Fiber::as_view).collect();
            let (want, _) = merge::merge_accumulate(&views);
            // Accumulator replay of the same pass.
            let lo = parts.iter().map(|p| p.coords()[0]).min().expect("non-empty");
            let hi = parts
                .iter()
                .map(|p| p.coords()[p.len() - 1])
                .max()
                .expect("non-empty");
            let nnz = parts.iter().map(|p| p.len() as u64).sum();
            acc.begin(lo, hi, nnz, &cfg);
            for p in &parts {
                acc.scatter(p.as_view());
            }
            let got = acc.drain();
            assert_bit_identical(&got, &want);
        }
    }

    /// `push_run` over owned chunk fibers (the Gustavson split-row path)
    /// matches merging the chunks in arrival order.
    #[test]
    fn chunk_runs_match_merge(chunks in batch(1_000_000, 10, 30)) {
        let cfg = AccumConfig::default();
        let owned: Vec<Fiber> = chunks.iter().map(|(f, s)| f.scaled(*s)).collect();
        let views: Vec<FiberView<'_>> = owned.iter().map(Fiber::as_view).collect();
        let (want, _) = merge::merge_accumulate(&views);
        let mut acc = RowAccum::new();
        acc.begin_runs(&cfg);
        for f in &owned {
            acc.push_run(f.clone());
        }
        let got = acc.drain();
        assert_bit_identical(&got, &want);
    }
}

/// Dense drain with set bits in a partial tail word: the drain reads a full
/// 64-slot window per presence word, which must be in bounds even when the
/// span ends mid-word.
#[test]
fn dense_drain_partial_tail_word() {
    for span in [65u32, 70, 127, 129] {
        let lo = 1000u32;
        let hi = lo + span - 1;
        let f = Fiber::from_sorted(vec![
            Element::new(lo, 1.5),
            Element::new(lo + span / 2, -2.5),
            Element::new(hi, 3.25),
        ]);
        let mut acc = RowAccum::new();
        acc.begin(lo, hi, 3, &AccumConfig::default());
        acc.scatter(f.as_view());
        let got = acc.drain();
        assert_bit_identical(&got, &f);
    }
}
