//! Quickstart: build two sparse matrices, run Flexagon under all six
//! dataflows, verify the result against a dense reference, and inspect the
//! report.
//!
//! Run with `cargo run --release --example quickstart`.

use flexagon::core::{Accelerator, Dataflow, ExecutionRequest, Flexagon};
use flexagon::sparse::{gen, DenseMatrix, MajorOrder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a sparse problem: C[256x192] = A[256x320] x B[320x192],
    //    with 80% zero weights and 55% zero activations.
    let mut rng = ChaCha8Rng::seed_from_u64(2023);
    let a = gen::random(256, 320, 0.20, MajorOrder::Row, &mut rng);
    let b = gen::random(320, 192, 0.45, MajorOrder::Row, &mut rng);
    println!(
        "A: {}x{}, {} nnz ({:.1}% sparse); B: {}x{}, {} nnz ({:.1}% sparse)\n",
        a.rows(),
        a.cols(),
        a.nnz(),
        a.sparsity_percent(),
        b.rows(),
        b.cols(),
        b.nnz(),
        b.sparsity_percent()
    );

    // 2. Run the paper's Table 5 configuration under every dataflow.
    let accel = Flexagon::with_defaults();
    let golden = DenseMatrix::from_compressed(&a).matmul(&DenseMatrix::from_compressed(&b))?;
    println!(
        "{:<20} {:>10} {:>8} {:>8} {:>12} {:>12}",
        "dataflow", "cycles", "tiles", "miss%", "onchip MiB", "offchip KiB"
    );
    let mut best: Option<(Dataflow, u64)> = None;
    for df in Dataflow::ALL {
        let out = accel
            .execute(ExecutionRequest::new(&a, &b).dataflow(df))?
            .output;
        // Every dataflow computes the exact same product.
        assert!(
            DenseMatrix::from_compressed(&out.c).approx_eq(&golden, 1e-2),
            "functional mismatch under {df}"
        );
        let r = &out.report;
        println!(
            "{:<20} {:>10} {:>8} {:>7.2}% {:>12.2} {:>12.1}",
            df.to_string(),
            r.total_cycles,
            r.tiles,
            100.0 * r.cache.miss_rate(),
            r.onchip_bytes() as f64 / (1024.0 * 1024.0),
            r.offchip_bytes() as f64 / 1024.0,
        );
        if best.is_none_or(|(_, c)| r.total_cycles < c) {
            best = Some((df, r.total_cycles));
        }
    }
    let (best_df, best_cycles) = best.expect("six dataflows ran");
    println!("\nBest dataflow for this layer: {best_df} ({best_cycles} cycles).");

    // 3. The heuristic strategy picks a dataflow from matrix features alone
    //    (its calibrated cost model; no six-way sweep) and runs it once —
    //    the production fast path, with the oracle sweep above as auditor.
    use flexagon::core::MappingStrategy;
    let ex = accel.execute(ExecutionRequest::new(&a, &b).strategy(MappingStrategy::Heuristic))?;
    let (predicted, fast) = (ex.dataflow, ex.output);
    println!(
        "Heuristic mapper picks:       {predicted} ({} cycles, {:.2}x the best, 1 run instead of 6)",
        fast.report.total_cycles,
        fast.report.total_cycles as f64 / best_cycles as f64
    );
    Ok(())
}
