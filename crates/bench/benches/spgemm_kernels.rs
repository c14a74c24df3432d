//! Criterion benches for the software SpGEMM paths: the reference golden
//! kernels and the CPU MKL baseline (`spgemm_kernels`), then the engine's
//! building blocks and whole executes (the other groups).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexagon_core::{Accelerator, AcceleratorConfig, CpuMkl, Dataflow, ExecutionRequest, Flexagon};
use flexagon_sparse::{
    gen, merge, reference, AccumConfig, AccumTier, CompressedMatrix, Fiber, FiberFormat,
    FiberIndex, FormattedMatrix, MajorOrder, RowAccum,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn operands(n: u32, density: f64) -> (CompressedMatrix, CompressedMatrix) {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    (
        gen::random(n, n, density, MajorOrder::Row, &mut rng),
        gen::random(n, n, density, MajorOrder::Row, &mut rng),
    )
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm_kernels");
    for &n in &[64u32, 256] {
        let (a, b) = operands(n, 0.1);
        let b_csc = b.converted(MajorOrder::Col);
        let a_csc = a.converted(MajorOrder::Col);
        group.bench_with_input(BenchmarkId::new("gustavson", n), &n, |bench, _| {
            bench.iter(|| reference::gustavson(black_box(&a), black_box(&b)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("inner_product", n), &n, |bench, _| {
            bench.iter(|| reference::inner_product(black_box(&a), black_box(&b_csc)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("outer_product", n), &n, |bench, _| {
            bench.iter(|| reference::outer_product(black_box(&a_csc), black_box(&b)).unwrap());
        });
        let cpu = CpuMkl::with_defaults();
        group.bench_with_input(BenchmarkId::new("cpu_baseline", n), &n, |bench, _| {
            bench.iter(|| cpu.run(black_box(&a), black_box(&b)).unwrap());
        });
    }
    group.finish();
}

/// A fiber of `len` elements drawn from a coordinate space of `space`.
fn intersection_fiber(len: usize, space: u32, seed: u64) -> Fiber {
    let density = len as f64 / space as f64;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    gen::random(1, space, density, MajorOrder::Row, &mut rng)
        .fiber(0)
        .to_fiber()
}

/// The three intersection strategies over balanced, skewed and sparse-span
/// fiber pairs: the naive two-pointer scan, galloping, and index probing
/// (bitmap or skip tier depending on span).
fn bench_intersection(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersection");
    // (label, len_a, len_b, space): balanced dense-span, skewed (short
    // stationary list vs long fiber, the MNK tile shape), and sparse-span
    // pairs that exercise the skip tier.
    let shapes: &[(&str, usize, usize, u32)] = &[
        ("balanced/256", 256, 256, 1024),
        ("skewed/64x4096", 64, 4096, 16384),
        ("sparse_span/512", 512, 512, 1 << 24),
    ];
    for &(label, la, lb, space) in shapes {
        let a = intersection_fiber(la, space, 7);
        let b = intersection_fiber(lb, space, 8);
        let b_index = FiberIndex::build(b.coords());
        group.bench_function(BenchmarkId::new("dot", label), |bench| {
            bench.iter(|| black_box(a.as_view()).dot(black_box(b.as_view())));
        });
        group.bench_function(BenchmarkId::new("gallop", label), |bench| {
            bench.iter(|| black_box(a.as_view()).dot_gallop(black_box(b.as_view())));
        });
        group.bench_function(BenchmarkId::new("probe", label), |bench| {
            bench.iter(|| {
                black_box(a.as_view()).dot_probe(black_box(b.as_view()), black_box(&b_index))
            });
        });
    }
    // Index construction cost over a whole operand, amortized by the loops
    // that reuse it.
    let (_, b) = operands(512, 0.1);
    group.bench_function("index_build/512", |bench| {
        bench.iter(|| flexagon_sparse::MatrixIndex::build(black_box(&b).view()));
    });
    group.finish();
}

/// ROADMAP item (b), measurement half: the two software-path gates on
/// `EngineConfig`/`AccumConfig` as direct crossover sweeps, so the default
/// thresholds can be re-derived from numbers instead of hand-tuning.
///
/// * `threshold_probe/{scan,probe}/r{R}` — the Inner-Product streaming
///   loop's per-fiber choice: mask-scan the streaming fiber against the
///   tile's k-bitmap, or probe the fiber's tiered index with the tile's
///   sorted stationary list. `R = fiber_len / stationary_len`; the engine
///   probes when `R >= probe_gate_factor`, so the gate should sit at the
///   measured crossover ratio.
/// * `threshold_probe/{dense,paged}_accum/s{S}` — the psum accumulator's
///   dense-vs-paged choice at span-per-element ratio `S = span / nnz`
///   (tiers forced via the config gates; identical scatter/drain results
///   either way). The dense tier pays `span` value slots, the paged tier
///   pays the bitmap plus page indirection; the gate
///   `dense_span_per_elem` should sit at the crossover `S`.
fn bench_threshold_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("threshold_probe");

    // Probe-vs-scan: one long streaming fiber, stationary lists of
    // decreasing length (increasing ratio R).
    let fiber_len = 4096usize;
    let space = 16384u32;
    let fiber = intersection_fiber(fiber_len, space, 31);
    let index = FiberIndex::build(fiber.coords());
    for ratio in [1usize, 2, 4, 8, 16, 32] {
        let stationary = intersection_fiber(fiber_len / ratio, space, 32 + ratio as u64);
        let k_list: Vec<u32> = stationary.coords().to_vec();
        // The tile's k-membership bitmap, as the engine builds it.
        let mut mask = vec![0u64; (space as usize).div_ceil(64)];
        for &k in &k_list {
            mask[(k >> 6) as usize] |= 1u64 << (k & 63);
        }
        group.bench_function(BenchmarkId::new("scan", format!("r{ratio}")), |bench| {
            bench.iter(|| {
                let mut hits = 0u64;
                let mut sum = 0.0f32;
                for (&c, &v) in fiber.coords().iter().zip(fiber.values()) {
                    if mask[(c >> 6) as usize] & (1u64 << (c & 63)) != 0 {
                        hits += 1;
                        sum += v;
                    }
                }
                black_box((hits, sum))
            });
        });
        group.bench_function(BenchmarkId::new("probe", format!("r{ratio}")), |bench| {
            bench.iter(|| {
                let mut prober = index.prober(fiber.as_view());
                let mut hits = 0u64;
                let mut sum = 0.0f32;
                for &k in &k_list {
                    if let Some((_, v)) = prober.probe(k) {
                        hits += 1;
                        sum += v;
                    }
                }
                black_box((hits, sum))
            });
        });
    }

    // Dense-vs-paged accumulator: fixed element volume, widening span.
    let ways = 16usize;
    let len = 256usize;
    let nnz = (ways * len) as u64;
    // Force a tier regardless of shape: dense needs the span gate wide
    // open, paged needs the dense gate shut and the paged gate open.
    let dense_cfg = AccumConfig {
        dense_span_per_elem: u64::MAX,
        dense_max_span: u64::MAX,
        ..AccumConfig::default()
    };
    let paged_cfg = AccumConfig {
        dense_span_per_elem: 0,
        paged_bits_per_elem: u64::MAX,
        paged_max_span: u64::MAX,
        ..AccumConfig::default()
    };
    for spe in [2u64, 4, 8, 16, 32, 64, 128, 256, 512] {
        let span = nnz * spe;
        let fibers: Vec<Fiber> = (0..ways)
            .map(|s| intersection_fiber(len, span as u32, 400 + spe * 31 + s as u64))
            .collect();
        let (lo, hi) = (0u32, span as u32 - 1);
        for (label, cfg, want) in [
            ("dense_accum", &dense_cfg, AccumTier::Dense),
            ("paged_accum", &paged_cfg, AccumTier::Paged),
        ] {
            let mut acc = RowAccum::new();
            acc.begin(lo, hi, nnz, cfg);
            assert_eq!(acc.tier(), Some(want), "{label} s{spe}");
            acc.drain();
            group.bench_function(BenchmarkId::new(label, format!("s{spe}")), |bench| {
                bench.iter(|| {
                    acc.begin(lo, hi, nnz, cfg);
                    for f in &fibers {
                        acc.scatter_scaled(black_box(f.as_view()), 1.5);
                    }
                    acc.drain()
                });
            });
        }
    }
    group.finish();
}

fn bench_conversion(c: &mut Criterion) {
    let (a, _) = operands(512, 0.1);
    c.bench_function("csr_to_csc_conversion_512", |bench| {
        bench.iter(|| black_box(&a).converted(MajorOrder::Col));
    });
}

/// `ways` sorted fibers of ~`len` elements each over a shared coordinate
/// space, so the merge sees realistic collision rates.
fn merge_inputs(ways: usize, len: usize) -> Vec<Fiber> {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let space = (len * 4) as u64;
    let density = len as f64 / space as f64;
    (0..ways)
        .map(|_| {
            gen::random(1, space as u32, density, MajorOrder::Row, &mut rng)
                .fiber(0)
                .to_fiber()
        })
        .collect()
}

/// The tiered psum accumulators against the k-way merge they replace, per
/// tier: scatter+drain of `ways` scaled fibers vs `merge_accumulate` over
/// the same views. The shapes force each tier: a tight span for dense, a
/// medium span for the paged bitmap-directed gather, a huge span for the
/// sorted-run list.
fn bench_accumulators(c: &mut Criterion) {
    let mut group = c.benchmark_group("accumulators");
    let cfg = AccumConfig::default();
    // (label, ways, len per fiber, coordinate space)
    let shapes: &[(&str, usize, usize, u32)] = &[
        ("dense/64x256", 64, 256, 1024),
        // Span/nnz ~49: past the measured dense gate (32), inside the
        // paged bitmap budget (64 bits per element).
        ("paged/64x64", 64, 64, 200_000),
        ("runs/16x256", 16, 256, 1 << 26),
    ];
    for &(label, ways, len, space) in shapes {
        let fibers: Vec<Fiber> = (0..ways)
            .map(|s| intersection_fiber(len, space, 1000 + s as u64))
            .collect();
        let (lo, hi, nnz) = fibers.iter().filter(|f| !f.is_empty()).fold(
            (u32::MAX, 0u32, 0u64),
            |(lo, hi, nnz), f| {
                (
                    lo.min(f.coords()[0]),
                    hi.max(f.coords()[f.len() - 1]),
                    nnz + f.len() as u64,
                )
            },
        );
        let tier = AccumTier::select((hi - lo) as u64 + 1, nnz, &cfg);
        assert!(
            label.starts_with(tier.name()),
            "shape {label} selected tier {}",
            tier.name()
        );
        let mut acc = RowAccum::new();
        group.bench_function(BenchmarkId::new("scatter_drain", label), |bench| {
            bench.iter(|| {
                acc.begin(lo, hi, nnz, &cfg);
                for f in &fibers {
                    acc.scatter_scaled(black_box(f.as_view()), 1.5);
                }
                acc.drain()
            });
        });
        let scaled: Vec<Fiber> = fibers.iter().map(|f| f.scaled(1.5)).collect();
        group.bench_function(BenchmarkId::new("kway_reference", label), |bench| {
            bench.iter(|| {
                let views: Vec<_> = scaled.iter().map(Fiber::as_view).collect();
                merge::merge_accumulate(black_box(&views))
            });
        });
    }
    group.finish();
}

fn bench_kway_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("kway_merge");
    for &(ways, len) in &[(2usize, 4096usize), (4, 2048), (16, 512), (64, 256)] {
        let fibers = merge_inputs(ways, len);
        group.bench_with_input(
            BenchmarkId::new("accumulate", format!("{ways}way")),
            &ways,
            |bench, _| {
                bench.iter(|| {
                    let views: Vec<_> = fibers.iter().map(Fiber::as_view).collect();
                    merge::merge_accumulate(black_box(&views))
                });
            },
        );
    }
    group.finish();
}

fn bench_execute(c: &mut Criterion) {
    let mut group = c.benchmark_group("execute");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let a = gen::random(256, 512, 0.15, MajorOrder::Row, &mut rng);
    let b = gen::random(512, 512, 0.25, MajorOrder::Row, &mut rng);
    let accel = Flexagon::with_defaults();
    for df in Dataflow::M_STATIONARY {
        group.bench_with_input(
            BenchmarkId::new("table5", df.loop_order()),
            &df,
            |bench, &df| {
                bench.iter(|| {
                    accel
                        .execute(ExecutionRequest::new(black_box(&a), black_box(&b)).dataflow(df))
                        .unwrap()
                });
            },
        );
    }
    // The N-stationary duality path (reinterpreted transposes) — the case the
    // clone-free engine optimizes hardest.
    group.bench_function("table5/NKM", |bench| {
        bench.iter(|| {
            accel
                .execute(
                    ExecutionRequest::new(black_box(&a), black_box(&b))
                        .dataflow(Dataflow::GustavsonN),
                )
                .unwrap()
        });
    });
    group.finish();
}

/// The intra-layer-sharded engine over the same operands as
/// `bench_execute`: fixed band grain, worker count from
/// `FLEXAGON_SHARD_WORKERS` (default 4). On a multi-core host the
/// `execute_sharded/table5/*` numbers should beat `execute/table5/*`; on a
/// single hardware thread the workers oversubscribe and the comparison
/// measures the sharding overhead instead.
fn bench_execute_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("execute_sharded");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let a = gen::random(256, 512, 0.15, MajorOrder::Row, &mut rng);
    let b = gen::random(512, 512, 0.25, MajorOrder::Row, &mut rng);
    let workers = std::env::var("FLEXAGON_SHARD_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4usize);
    let mut cfg = AcceleratorConfig::table5();
    cfg.engine = cfg.engine.sharded(2048, workers);
    let accel = Flexagon::new(cfg);
    for df in Dataflow::M_STATIONARY {
        group.bench_with_input(
            BenchmarkId::new("table5", df.loop_order()),
            &df,
            |bench, &df| {
                bench.iter(|| {
                    accel
                        .execute(ExecutionRequest::new(black_box(&a), black_box(&b)).dataflow(df))
                        .unwrap()
                });
            },
        );
    }
    group.bench_function("table5/NKM", |bench| {
        bench.iter(|| {
            accel
                .execute(
                    ExecutionRequest::new(black_box(&a), black_box(&b))
                        .dataflow(Dataflow::GustavsonN),
                )
                .unwrap()
        });
    });
    group.finish();
}

/// The cost of storing an operand as `q8`, the one format that changes
/// values: whole-matrix quantize (encode) and dequantize (decode) over one
/// clustered matrix. The lossless formats store the operand as it is.
fn bench_format_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("format_kernels");
    let mut rng = ChaCha8Rng::seed_from_u64(73);
    let m = gen::block_sparse(256, 1024, 8, 0.25, MajorOrder::Row, &mut rng);
    let q8 = FiberFormat::Quant8;
    group.bench_function(BenchmarkId::new("encode", q8.token()), |bench| {
        bench.iter(|| FormattedMatrix::encode(black_box(&m), q8));
    });
    let enc = FormattedMatrix::encode(&m, q8);
    group.bench_function(BenchmarkId::new("decode", q8.token()), |bench| {
        bench.iter(|| black_box(&enc).decode());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_intersection,
    bench_threshold_probe,
    bench_conversion,
    bench_accumulators,
    bench_kway_merge,
    bench_execute,
    bench_format_kernels,
    bench_execute_sharded
);
criterion_main!(benches);
