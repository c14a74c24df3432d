//! A seed always yields the same job list and the same inputs.

use flexagon_sparse::{CompressedMatrix, MajorOrder};
use perfbench::check::matches_reference;
use perfbench::{layers6, serve, suite};

#[test]
fn suite_job_list_is_fixed_and_spans_all_models() {
    let a = suite::job_list();
    let b = suite::job_list();
    assert_eq!(a.len(), 8);
    let layers: Vec<_> = a.iter().flat_map(|m| m.layers.clone()).collect();
    assert_eq!(
        layers,
        b.iter().flat_map(|m| m.layers.clone()).collect::<Vec<_>>()
    );
    assert_eq!(layers.len(), 66);
    assert!(a.iter().all(|m| !m.layers.is_empty()));
    assert!(layers
        .iter()
        .all(|l| l.index % suite::STRIDE == suite::OFFSET));
}

#[test]
fn a_seed_materializes_the_same_operands() {
    let spec = &suite::job_list()[1].layers[0];
    let (x, y, z) = (
        spec.materialize(3),
        spec.materialize(3),
        spec.materialize(4),
    );
    assert_eq!(x.a, y.a);
    assert_eq!(x.b, y.b);
    assert_ne!(x.a, z.a);
}

#[test]
fn layers6_job_list_covers_every_layer_dataflow_and_format() {
    let jobs = layers6::job_list();
    assert_eq!(jobs, layers6::job_list());
    assert_eq!(jobs.len(), 9 * 6 * 2);
    for pair in jobs.chunks(2) {
        assert_eq!(
            (pair[0].layer, pair[0].dataflow),
            (pair[1].layer, pair[1].dataflow)
        );
        assert_eq!(
            [pair[0].format, pair[1].format],
            layers6::FORMATS,
            "SoA first, then its lossless twin"
        );
    }
}

#[test]
fn serve_plan_is_a_function_of_seed_and_phase() {
    let pool = serve::pool_specs();
    assert_eq!(
        pool.len(),
        serve::POOL.iter().map(|(_, take)| take).sum::<usize>()
    );
    let labels: Vec<_> = pool.iter().map(|(l, _)| l.clone()).collect();
    assert_eq!(
        labels,
        serve::pool_specs()
            .into_iter()
            .map(|(l, _)| l)
            .collect::<Vec<_>>()
    );

    let plan = serve::request_plan(7, 0, 1000, pool.len());
    assert_eq!(plan, serve::request_plan(7, 0, 1000, pool.len()));
    assert_ne!(plan, serve::request_plan(8, 0, 1000, pool.len()));
    assert_ne!(plan, serve::request_plan(7, 1, 1000, pool.len()));
    assert_eq!(plan.iter().filter(|p| p.upload).count(), 100);
    assert!(plan.iter().all(|p| p.layer < pool.len()));
    let tenant_a = plan.iter().filter(|p| p.tenant == 0).count();
    assert_eq!(tenant_a, 500);
}

#[test]
fn serve_phases_request_whole_rounds_of_the_pool() {
    // Every seed must do the same work: each pool layer read, and uploaded,
    // equally often in the closed-loop pass and in a 20 s open loop.
    let pool = serve::pool_specs().len();
    let open_loop = (serve::RATE_RPS * 20.0) as usize;
    for (seed, count) in [(3, serve::CLOSED_REQUESTS), (4, open_loop)] {
        let plan = serve::request_plan(seed, 0, count, pool);
        for upload in [false, true] {
            let mut hits = vec![0usize; pool];
            for p in plan.iter().filter(|p| p.upload == upload) {
                hits[p.layer] += 1;
            }
            assert!(
                hits.iter().all(|&h| h > 0 && h == hits[0]),
                "count {count}, upload {upload}: {hits:?}"
            );
        }
    }
}

#[test]
fn reference_check_tolerates_rounding_and_order_but_not_wrong_values() {
    let triplets = [(0, 0, 1.0f32), (0, 2, 2.0), (1, 1, 3.0)];
    let c = CompressedMatrix::from_triplets(2, 3, &triplets, MajorOrder::Row).expect("valid");
    let col = c.converted(MajorOrder::Col);
    assert!(matches_reference(&col, &c));
    let close = [(0, 0, 1.0001f32), (0, 2, 2.0), (1, 1, 3.0)];
    let close = CompressedMatrix::from_triplets(2, 3, &close, MajorOrder::Row).expect("valid");
    assert!(matches_reference(&close, &c));
    let wrong = [(0, 0, 1.5f32), (0, 2, 2.0), (1, 1, 3.0)];
    let wrong = CompressedMatrix::from_triplets(2, 3, &wrong, MajorOrder::Row).expect("valid");
    assert!(!matches_reference(&wrong, &c));
    let missing =
        CompressedMatrix::from_triplets(2, 3, &triplets[..2], MajorOrder::Row).expect("valid");
    assert!(!matches_reference(&missing, &c));
}
