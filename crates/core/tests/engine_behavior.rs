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
    // cache and when it overflows it.
    let (fits_a, fits_b) = pair(12, 16, 8, 0.5, 0.25, 16); // B ~32 elements
    let (over_a, over_b) = pair(12, 64, 64, 0.5, 0.5, 17); // B ~8 KiB
    let cfg = AcceleratorConfig::tiny();
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
            let ctx = format!("{df} streamed nnz={}", streamed.nnz());
            let r = &out.report;
            assert!(r.tiles > 1, "{ctx}: must re-stream");
            assert_eq!(r.cache.hits(), cache.stats().hits(), "{ctx}");
            assert_eq!(r.cache.total(), cache.stats().total(), "{ctx}");
            assert_eq!(r.traffic.str_fill_bytes, cache.fill_bytes(), "{ctx}");
            assert_eq!(r.traffic.str_onchip_bytes, cache.onchip_bytes(), "{ctx}");
            // Only an operand that overflows the cache refills lines after
            // the first, cold pass.
            let (capacity, line) = (cfg.memory.cache.capacity_bytes, cfg.memory.cache.line_bytes);
            let bytes = streamed.nnz() as u64 * ELEMENT_BYTES;
            let cold_pass = bytes.div_ceil(line) * line;
            assert_eq!(cache.fill_bytes() > cold_pass, bytes > capacity, "{ctx}");
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

/// FNV-1a (64-bit) over the report JSON followed by the output JSON, the
/// golden corpus's case digest.
fn digest(out: &flexagon_core::RunOutput) -> u64 {
    let report = serde_json::to_string(&out.report).expect("report serializes");
    let c = serde_json::to_string(&out.c).expect("matrix serializes");
    report
        .bytes()
        .chain(c.bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn inner_product_reports_match_recorded_digests() {
    // The golden corpus runs Table 5 only. These digests pin IP(M) and
    // IP(N) on `tiny()` and on variants that push the per-column charge to
    // its extremes: one element per DN cycle, a DN that takes any fiber in
    // one cycle, and two multipliers. The shapes: rows and columns longer
    // than the multipliers; empty columns of B; and dense enough that a
    // column receives a product on every multiplier.
    let shapes = [
        pair(8, 40, 8, 0.3, 0.3, 31),
        pair(8, 40, 40, 0.3, 0.03, 32),
        pair(6, 8, 12, 1.0, 0.9, 33),
    ];
    assert!((0..8).any(|m| shapes[0].0.fiber_len(m) > 4));
    let b_csc = shapes[1].1.converted(MajorOrder::Col);
    assert!((0..40).any(|n| b_csc.fiber_len(n) == 0));
    let tiny = AcceleratorConfig::tiny();
    let configs = [
        tiny,
        AcceleratorConfig {
            dn_bandwidth: 1,
            ..tiny
        },
        AcceleratorConfig {
            dn_bandwidth: 1 << 20,
            ..tiny
        },
        AcceleratorConfig {
            multipliers: 2,
            ..tiny
        },
    ];
    // IP(M) then IP(N), per config, per shape: recorded from a build that
    // charged every column of B separately, which the per-run closed form
    // must reproduce.
    const EXPECTED: [u64; 24] = [
        0x0c58723d10069e45,
        0x7bee1b4f38430642,
        0xd27879ceda5a0e9d,
        0x8a8bd2f40e46c95e,
        0x2798da4ce8396b8c,
        0xc09be8375becf98f,
        0xf31a48a013d01d10,
        0xf359e22deea6defc,
        0x33ac28f75ba935a4,
        0x8a68fc27d2dcb6c2,
        0xe7eb56f28a2d3b67,
        0xa759006bdb8039e5,
        0x31be79638402b3c1,
        0x8a68fc27d2dcb6c2,
        0x64d048573e1124e5,
        0xd6766bd1e7b0f750,
        0x7ab16052b61b7166,
        0x16ad59e63474e5b8,
        0x176b1fdf0b4c7344,
        0x1dfe7fef0db3ee79,
        0xa5568e16f4a88e46,
        0x28f79f583a2756f2,
        0xf751fac553378023,
        0xb1904c1b7dd7483f,
    ];
    let mut actual = Vec::new();
    for (a, b) in &shapes {
        for cfg in configs {
            let accel = Flexagon::new(cfg);
            for df in [Dataflow::InnerProductM, Dataflow::InnerProductN] {
                actual.push(digest(&run_df(&accel, a, b, df).unwrap()));
            }
        }
    }
    let listing: String = actual.iter().map(|d| format!("0x{d:016x},\n")).collect();
    assert_eq!(actual, EXPECTED, "digests drifted; now:\n{listing}");
}

/// A Table 5 Outer-Product(M) shape whose early tiles overflow a PSRAM set
/// and whose later tiles do not: A's first 64 columns hold only rows 0 and
/// 64, which share set 0, and its last 64 columns are sparse over all 130
/// rows. B's rows average about 50 elements, four blocks each.
fn op_mixed_spill_shape(seed: u64) -> (CompressedMatrix, CompressedMatrix) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sparse = gen::random(130, 64, 0.1, MajorOrder::Row, &mut rng);
    let mut triplets: Vec<(u32, u32, f32)> = (0..64)
        .flat_map(|k| [(0, k, 1.0 + k as f32), (64, k, -0.5 - k as f32)])
        .collect();
    for (row, fiber) in sparse.fibers() {
        for (&k, &v) in fiber.coords().iter().zip(fiber.values()) {
            triplets.push((row, 64 + k, v));
        }
    }
    let a = CompressedMatrix::from_triplets(130, 128, &triplets, MajorOrder::Row).unwrap();
    (a, gen::random(128, 64, 0.8, MajorOrder::Row, &mut rng))
}

#[test]
fn outer_product_reports_match_recorded_digests() {
    // Pins OP(M) and OP(N) on `tiny()` and Table 5, unbanded and banded.
    // Per shape and dataflow, either no tile overflows a PSRAM set, or
    // every tile does, or some do and some do not. An overflowing tile
    // spills chains to DRAM and reloads them when it merges.
    let tiny_shapes = [
        // No spill: every B row and A column fits one set.
        pair(8, 24, 8, 0.25, 0.25, 41),
        // Every tile spills: each chain alone outgrows its set.
        pair(24, 12, 24, 0.9, 0.9, 42),
        // Mixed: only tiles whose chains crowd one set spill.
        pair(16, 20, 16, 0.5, 0.5, 43),
    ];
    let table5_shapes = [
        // No spill.
        pair(64, 96, 64, 0.3, 0.3, 44),
        // Every OP(M) tile spills: 32 chains of 4 blocks per set. OP(N)
        // streams A's two-element columns and never spills.
        pair(2, 128, 80, 1.0, 0.8, 45),
        // OP(M) mixed, OP(N) no spill.
        op_mixed_spill_shape(46),
    ];
    // Per config: the shapes, whether OP(M) and OP(N) spill on each, and a
    // grain that cuts each into several bands.
    let cases = [
        (
            AcceleratorConfig::tiny(),
            &tiny_shapes,
            [[false, false], [true, true], [true, true]],
            24,
        ),
        (
            AcceleratorConfig::table5(),
            &table5_shapes,
            [[false, false], [true, false], [true, false]],
            128,
        ),
    ];
    // Per config, per grain (0, then banded), per shape: OP(M) then OP(N).
    // Recorded from a build that wrote and consumed every psum chain of a
    // tile through the PSRAM one at a time and parked every partial in a
    // per-row vector.
    const EXPECTED: [u64; 24] = [
        0x12bfe95dfcc4081d,
        0xd055888fd349f14d,
        0x84e331d7341d8684,
        0xbf15205580ea73dc,
        0x26e9dbf200b11bef,
        0x4e41ebcfc72f606f,
        0x016c6d15501e1e3d,
        0xca0b5a9ed3f1bc52,
        0x8a75668057046abf,
        0x81b004c243515d71,
        0xcb1efaf06a38ac00,
        0xfd72c75f5f30ddaa,
        0x090337e6ef882b9b,
        0xd0e670928fdacf55,
        0x75806f7883a553a1,
        0x4413bc94cea6e4b6,
        0x2141f07b40f76407,
        0x1f266a872f036497,
        0x97a66780d7119bb8,
        0x7f11eca81cb49445,
        0x800fce7396164eeb,
        0x673a9d8bf82c6766,
        0xaa4c9cdc1e20b21a,
        0x764265b713bdf95d,
    ];
    let mut actual = Vec::new();
    for (cfg, shapes, spills, grain) in cases {
        for grain in [0, grain] {
            let mut cfg = cfg;
            cfg.engine = cfg.engine.sharded(grain, 1);
            let accel = Flexagon::new(cfg);
            for ((a, b), spills) in shapes.iter().zip(spills) {
                for (df, spills) in [Dataflow::OuterProductM, Dataflow::OuterProductN]
                    .into_iter()
                    .zip(spills)
                {
                    let out = run_df(&accel, a, b, df).unwrap();
                    let spilled = out.report.psram.spilled_elements;
                    assert_eq!(spilled > 0, spills, "{df} grain {grain}: {spilled} spilled");
                    actual.push(digest(&out));
                }
            }
        }
    }
    let listing: String = actual.iter().map(|d| format!("0x{d:016x},\n")).collect();
    assert_eq!(actual, EXPECTED, "digests drifted; now:\n{listing}");
}

#[test]
fn inner_product_reads_its_streamed_operand_in_either_order() {
    // IP(M) streams B and IP(N) streams A. Whichever major order that
    // operand arrives in, C and the report are the same, except for the
    // Table 3 conversion count: 1 when the operand is not in its Table 3
    // format (B in CSC for IP(M), A in CSR for IP(N)), 0 when it is.
    let accel = Flexagon::new(AcceleratorConfig::tiny());
    let (a_csr, b_csr) = pair(12, 40, 10, 0.4, 0.4, 34);
    let (a_csc, b_csc) = (
        a_csr.converted(MajorOrder::Col),
        b_csr.converted(MajorOrder::Col),
    );
    let cases = [
        (Dataflow::InnerProductM, (&a_csr, &b_csc), (&a_csr, &b_csr)),
        (Dataflow::InnerProductN, (&a_csr, &b_csc), (&a_csc, &b_csc)),
    ];
    for (df, (a, b), (a_k, b_k)) in cases {
        let native = run_df(&accel, a, b, df).unwrap();
        let by_k = run_df(&accel, a_k, b_k, df).unwrap();
        assert_eq!(native.report.explicit_conversions, 0, "{df}");
        assert_eq!(by_k.report.explicit_conversions, 1, "{df}");
        assert_eq!(by_k.c, native.c, "{df}");
        let mut report = by_k.report.clone();
        report.explicit_conversions = 0;
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&native.report).unwrap(),
            "{df}"
        );
    }
}
