//! Cycle- and traffic-shape tests: the qualitative behaviours the paper's
//! evaluation section rests on must emerge from the simulation.

use flexagon_core::{Accelerator, AcceleratorConfig, Dataflow, Flexagon};
use flexagon_mem::{Dram, StrCache};
use flexagon_sparse::{gen, CompressedMatrix, MajorOrder, ELEMENT_BYTES};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One fixed-dataflow run through the unified `execute` entry point (the
/// deprecated `run` wrapper keeps its own coverage in the core crate).
fn run_df(
    accel: &impl Accelerator,
    a: &CompressedMatrix,
    b: &CompressedMatrix,
    df: Dataflow,
) -> flexagon_core::Result<flexagon_core::RunOutput> {
    accel
        .execute(flexagon_core::ExecutionRequest::new(a, b).dataflow(df))
        .map(|ex| ex.output)
}

fn pair(
    m: u32,
    k: u32,
    n: u32,
    da: f64,
    db: f64,
    seed: u64,
) -> (CompressedMatrix, CompressedMatrix) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (
        gen::random(m, k, da, MajorOrder::Row, &mut rng),
        gen::random(k, n, db, MajorOrder::Row, &mut rng),
    )
}

#[test]
fn inner_product_never_touches_the_psram() {
    // Fig. 14: "the number of partial sums sent to the PSRAM for the
    // SIGMA-like architecture is always 0".
    let accel = Flexagon::new(AcceleratorConfig::tiny());
    let (a, b) = pair(20, 30, 25, 0.4, 0.4, 1);
    let out = run_df(&accel, &a, &b, Dataflow::InnerProductM).unwrap();
    assert_eq!(out.report.traffic.psum_onchip_bytes, 0);
    assert_eq!(out.report.psram.high_water_blocks, 0);
}

#[test]
fn inner_product_streams_b_once_per_tile() {
    // IP's defining cost: the whole of B flows past every stationary tile.
    let accel = Flexagon::new(AcceleratorConfig::tiny());
    let (a, b) = pair(20, 30, 25, 0.4, 0.4, 2);
    let out = run_df(&accel, &a, &b, Dataflow::InnerProductM).unwrap();
    let expected = out.report.tiles * b.nnz() as u64 * ELEMENT_BYTES;
    assert_eq!(out.report.traffic.str_onchip_bytes, expected);
    assert!(
        out.report.tiles > 1,
        "tiny config must force multiple tiles"
    );
}

#[test]
fn outer_product_reads_b_once_but_doubles_psum_traffic() {
    let accel = Flexagon::new(AcceleratorConfig::table5());
    let (a, b) = pair(30, 40, 35, 0.3, 0.3, 3);
    let out = run_df(&accel, &a, &b, Dataflow::OuterProductM).unwrap();
    // Every product goes into the PSRAM once and is read back at least
    // once (merge passes may add intermediate round trips).
    let products = out.report.work.products;
    assert!(out.report.traffic.psum_onchip_bytes >= 2 * products * ELEMENT_BYTES);
    // B is multicast: each of its elements enters the DN at most once per
    // tile that references its row, and with one tile it's exactly once.
    if out.report.tiles == 1 {
        assert!(out.report.counters.get("dn.injected") <= products + b.nnz() as u64);
    }
}

#[test]
fn gustavson_merges_inline_with_zero_merge_phase_for_short_rows() {
    // GAMMA "is able to compute the merging phase ... in parallel within
    // the multiplying phase": rows that fit one cluster never visit the
    // PSRAM and spend no cycles in the merging phase.
    let accel = Flexagon::new(AcceleratorConfig::table5());
    let (a, b) = pair(32, 48, 24, 0.2, 0.3, 4); // rows << 64 nnz
    let out = run_df(&accel, &a, &b, Dataflow::GustavsonM).unwrap();
    assert_eq!(out.report.phases.merge_cycles(), 0);
    assert_eq!(out.report.traffic.psum_onchip_bytes, 0);
}

#[test]
fn gustavson_long_rows_use_psram_and_merge_phase() {
    let accel = Flexagon::new(AcceleratorConfig::tiny()); // 4 multipliers
    let (a, b) = pair(4, 30, 20, 0.9, 0.5, 5); // ~27 nnz rows => 7 chunks
    let out = run_df(&accel, &a, &b, Dataflow::GustavsonM).unwrap();
    assert!(out.report.phases.merge_cycles() > 0);
    assert!(out.report.traffic.psum_onchip_bytes > 0);
    assert!(out.report.counters.get("gust.split_rows_merged") > 0);
}

#[test]
fn ip_traffic_grows_with_stationary_tiles_gust_does_not() {
    // Doubling nnz(A) doubles IP's B re-streams but leaves Gustavson's B
    // fetch volume tied to products.
    let accel = Flexagon::new(AcceleratorConfig::tiny());
    let (a_small, b) = pair(8, 24, 20, 0.25, 0.4, 6);
    let (a_big, _) = pair(32, 24, 20, 0.5, 0.4, 7);
    let ip_small = run_df(&accel, &a_small, &b, Dataflow::InnerProductM).unwrap();
    let ip_big = run_df(&accel, &a_big, &b, Dataflow::InnerProductM).unwrap();
    assert!(ip_big.report.tiles > ip_small.report.tiles);
    assert!(ip_big.report.traffic.str_onchip_bytes > ip_small.report.traffic.str_onchip_bytes);
}

#[test]
fn ip_restream_equals_per_tile_passes_through_a_fresh_cache() {
    // Every IP tile streams the same sequence past the STR cache: each
    // nonempty streamed fiber once, in ascending order. The reported cache
    // statistics and STR traffic must equal `tiles` such passes through a
    // fresh cache, both when the streamed operand fits the 512-byte 2-way
    // cache and when it overflows it, on either tile loop.
    let (fits_a, fits_b) = pair(12, 16, 8, 0.5, 0.25, 16); // B ~32 elements
    let (over_a, over_b) = pair(12, 64, 64, 0.5, 0.5, 17); // B ~8 KiB
    for indexed in [true, false] {
        let mut cfg = AcceleratorConfig::tiny();
        if !indexed {
            cfg.engine.indexed_min_k_ratio = 1 << 16;
        }
        let accel = Flexagon::new(cfg);
        for (a, b) in [(&fits_a, &fits_b), (&over_a, &over_b)] {
            for df in [Dataflow::InnerProductM, Dataflow::InnerProductN] {
                let out = run_df(&accel, a, b, df).unwrap();
                // IP(M) streams B's columns; IP(N) streams A's rows.
                let streamed = match df {
                    Dataflow::InnerProductM => b.converted(MajorOrder::Col),
                    _ => a.converted(MajorOrder::Row),
                };
                let mut cache = StrCache::new(cfg.memory.cache);
                let mut dram = Dram::new(cfg.memory.dram);
                for _ in 0..out.report.tiles {
                    for f in 0..streamed.major_dim() {
                        let len = streamed.fiber_len(f) as u64;
                        if len > 0 {
                            cache.read_range(streamed.ptr()[f as usize] as u64, len, &mut dram);
                        }
                    }
                }
                let ctx = format!("{df} indexed={indexed} streamed nnz={}", streamed.nnz());
                let r = &out.report;
                assert!(r.tiles > 1, "{ctx}: must re-stream");
                assert_eq!(r.cache.hits(), cache.stats().hits(), "{ctx}");
                assert_eq!(r.cache.total(), cache.stats().total(), "{ctx}");
                assert_eq!(r.traffic.str_fill_bytes, cache.fill_bytes(), "{ctx}");
                assert_eq!(r.traffic.str_onchip_bytes, cache.onchip_bytes(), "{ctx}");
                // Only an operand that overflows the cache refills lines
                // after the first, cold pass.
                let (capacity, line) =
                    (cfg.memory.cache.capacity_bytes, cfg.memory.cache.line_bytes);
                let bytes = streamed.nnz() as u64 * ELEMENT_BYTES;
                let cold_pass = bytes.div_ceil(line) * line;
                assert_eq!(cache.fill_bytes() > cold_pass, bytes > capacity, "{ctx}");
            }
        }
    }
}

#[test]
fn small_b_hits_cache_large_b_misses() {
    // Fig. 15's story: GAMMA-like thrashes when B's rows do not fit.
    let accel = Flexagon::new(AcceleratorConfig::tiny()); // 512-byte cache
                                                          // Small B: 32 elements = 128 bytes, fits.
    let (a1, b_small) = pair(30, 16, 8, 0.5, 0.25, 8);
    let small = run_df(&accel, &a1, &b_small, Dataflow::GustavsonM).unwrap();
    // Large B: ~2000 elements = 8 KiB >> 512 B.
    let (a2, b_large) = pair(30, 64, 64, 0.5, 0.5, 9);
    let large = run_df(&accel, &a2, &b_large, Dataflow::GustavsonM).unwrap();
    assert!(
        large.report.cache.miss_rate() > small.report.cache.miss_rate(),
        "large-B miss rate {} must exceed small-B {}",
        large.report.cache.miss_rate(),
        small.report.cache.miss_rate()
    );
}

#[test]
fn offchip_traffic_includes_cache_fills_and_output() {
    // Diagonal A keeps every Gustavson row in a single cluster: no splits,
    // no PSRAM, so DRAM writes are exactly the final output.
    let accel = Flexagon::new(AcceleratorConfig::tiny());
    let a = gen::diagonal(12, 2.0, MajorOrder::Row);
    let (_, b) = pair(10, 12, 10, 0.5, 0.5, 10);
    let out = run_df(&accel, &a, &b, Dataflow::GustavsonM).unwrap();
    let t = &out.report.traffic;
    assert!(t.dram_read_bytes >= t.str_fill_bytes);
    assert_eq!(out.report.psram.spilled_elements, 0);
    assert_eq!(
        t.dram_write_bytes,
        out.c_bytes(),
        "with no spills, DRAM writes are exactly the output"
    );
}

trait OutBytes {
    fn c_bytes(&self) -> u64;
}
impl OutBytes for flexagon_core::RunOutput {
    fn c_bytes(&self) -> u64 {
        self.c.nnz() as u64 * ELEMENT_BYTES
    }
}

#[test]
fn cycles_scale_with_problem_size() {
    let accel = Flexagon::new(AcceleratorConfig::table5());
    let (a1, b1) = pair(16, 16, 16, 0.3, 0.3, 11);
    let (a2, b2) = pair(128, 128, 128, 0.3, 0.3, 12);
    for df in Dataflow::M_STATIONARY {
        let small = run_df(&accel, &a1, &b1, df).unwrap();
        let large = run_df(&accel, &a2, &b2, df).unwrap();
        assert!(
            large.report.total_cycles > small.report.total_cycles,
            "{df}: {} !> {}",
            large.report.total_cycles,
            small.report.total_cycles
        );
    }
}

#[test]
fn phase_cycles_sum_to_total() {
    let accel = Flexagon::new(AcceleratorConfig::tiny());
    let (a, b) = pair(20, 25, 15, 0.4, 0.4, 13);
    for df in Dataflow::ALL {
        let out = run_df(&accel, &a, &b, df).unwrap();
        assert_eq!(out.report.phases.total(), out.report.total_cycles, "{df}");
    }
}

#[test]
fn stationary_traffic_is_negligible_fraction() {
    // Fig. 14: "the negligible traffic that is fetched from the memory
    // structure for the STA matrix".
    let accel = Flexagon::new(AcceleratorConfig::table5());
    let (a, b) = pair(64, 96, 64, 0.3, 0.4, 14);
    for df in Dataflow::M_STATIONARY {
        let out = run_df(&accel, &a, &b, df).unwrap();
        let t = &out.report.traffic;
        assert!(
            t.sta_onchip_bytes * 4 <= t.onchip_total(),
            "{df}: STA {} vs total {}",
            t.sta_onchip_bytes,
            t.onchip_total()
        );
    }
}

#[test]
fn psram_spills_surface_in_offchip_traffic() {
    // A tiny PSRAM (256 B) with a psum-heavy OP run must spill.
    let accel = Flexagon::new(AcceleratorConfig::tiny());
    let (a, b) = pair(12, 40, 40, 0.6, 0.6, 15);
    let out = run_df(&accel, &a, &b, Dataflow::OuterProductM).unwrap();
    assert!(out.report.psram.spilled_elements > 0, "must spill");
    assert!(
        out.report.traffic.dram_write_bytes > out.c.nnz() as u64 * ELEMENT_BYTES,
        "spill writes exceed the plain output traffic"
    );
}
