//! Lib-level microbench for the bitmap-tier probe cost, run with
//! `cargo test --release -p flexagon-sparse --test probe_micro -- --nocapture --ignored`.
//!
//! This exists alongside `threshold_probe/probe` because the probe loop as
//! compiled into the big bench binary has measured up to ~2x slower than the
//! identical loop in a small binary (codegen/layout, not library cost). When
//! the bench-side crossover moves, compare this against the bench binary before
//! touching `probe_gate_factor` — see the derivation note on that constant.

use flexagon_sparse::{Element, Fiber, FiberIndex};
use std::time::Instant;

fn fixture(len: usize, space: u32, seed: u64) -> Fiber {
    // xorshift-subset: deterministic ~len coords spread over [0, space).
    let mut s = seed | 1;
    let mut coords: Vec<u32> = (0..space)
        .filter(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as u32) % space < len as u32
        })
        .collect();
    coords.truncate(len);
    Fiber::from_sorted(coords.into_iter().map(|c| Element::new(c, 1.0)).collect())
}

#[test]
#[ignore]
fn bitmap_probe_micro() {
    let fiber = fixture(4096, 16384, 31);
    let index = FiberIndex::build(fiber.coords());
    let stationary = fixture(4096, 16384, 77);
    let k_list: Vec<u32> = stationary.coords().to_vec();
    assert_eq!(index.tier_name(), "bitmap");

    let mut sink = 0.0f32;
    let iters = 20_000u32;
    let start = Instant::now();
    for _ in 0..iters {
        let mut prober = index.prober(fiber.as_view());
        let mut hits = 0u64;
        let mut sum = 0.0f32;
        for &k in &k_list {
            if let Some((_, v)) = prober.probe(k) {
                hits += 1;
                sum += v;
            }
        }
        sink += sum + hits as f32;
    }
    let elapsed = start.elapsed();
    let ns_iter = elapsed.as_nanos() as f64 / iters as f64;
    println!(
        "bitmap probe: {:.1} ns/iter ({:.2} ns/probe, {} probes, sink {})",
        ns_iter,
        ns_iter / k_list.len() as f64,
        k_list.len(),
        sink
    );
}
