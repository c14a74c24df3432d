//! Criterion benches over accelerator configurations: how simulator
//! wall-time scales with the architectural knobs (the simulated-cycle
//! ablations are the `ablations` section of `repro_all`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexagon_core::{Accelerator, AcceleratorConfig, Dataflow, ExecutionRequest, Flexagon};
use flexagon_sparse::{gen, MajorOrder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_multiplier_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_vs_multipliers");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let a = gen::random(128, 256, 0.2, MajorOrder::Row, &mut rng);
    let b = gen::random(256, 512, 0.4, MajorOrder::Row, &mut rng);
    for &mults in &[16u32, 64, 256] {
        let mut cfg = AcceleratorConfig::table5();
        cfg.multipliers = mults;
        let accel = Flexagon::new(cfg);
        group.bench_with_input(BenchmarkId::new("gustavson", mults), &mults, |bench, _| {
            bench.iter(|| {
                accel
                    .execute(
                        ExecutionRequest::new(black_box(&a), black_box(&b))
                            .dataflow(Dataflow::GustavsonM),
                    )
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_psram_pressure(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_vs_psram");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let a = gen::random(96, 256, 0.3, MajorOrder::Row, &mut rng);
    let b = gen::random(256, 384, 0.5, MajorOrder::Row, &mut rng);
    for &kib in &[32u64, 256] {
        let mut cfg = AcceleratorConfig::table5();
        cfg.memory.psram.capacity_bytes = kib << 10;
        let accel = Flexagon::new(cfg);
        group.bench_with_input(BenchmarkId::new("outer_product", kib), &kib, |bench, _| {
            bench.iter(|| {
                accel
                    .execute(
                        ExecutionRequest::new(black_box(&a), black_box(&b))
                            .dataflow(Dataflow::OuterProductM),
                    )
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_multiplier_scaling, bench_psram_pressure);
criterion_main!(benches);
