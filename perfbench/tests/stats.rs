//! The percentile rule: a tail is the highest percentile with at least
//! ten samples beyond it.

use perfbench::stats::{median, nearest_rank, percentile, sorted, tail_percentile, Summary};

#[test]
fn p99_needs_a_thousand_samples() {
    // 1000 samples: rank 990, ten beyond it.
    assert_eq!(tail_percentile(1000), Some(99.0));
    // 999 samples: rank 990, only nine beyond, so fall to p95.
    assert_eq!(tail_percentile(999), Some(95.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(9_999), Some(99.0));
}

#[test]
fn small_samples_fall_down_the_ladder() {
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(0), None);
}

#[test]
fn every_reported_tail_has_ten_samples_beyond_it() {
    for n in 1..3000 {
        if let Some(p) = tail_percentile(n) {
            assert!(n - nearest_rank(p, n) >= 10, "n={n} p={p}");
        }
    }
}

#[test]
fn summary_reports_which_percentile_the_tail_is() {
    let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let s = Summary::of(&values);
    assert_eq!(s.n, 1000);
    assert_eq!(s.p50, 500.5);
    assert_eq!(s.tail_p, 99.0);
    assert_eq!(s.tail, 990.0);

    // Too few samples for any tail: the nearest-rank median, labelled p50.
    let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
    assert_eq!((s.tail_p, s.tail, s.p50), (50.0, 2.0, 2.5));
}

#[test]
fn failures_sort_last_and_count_as_missing_the_limit() {
    let mut values: Vec<f64> = (1..=990).map(f64::from).collect();
    values.extend([f64::INFINITY; 10]);
    let s = Summary::of(&values);
    assert_eq!(s.tail, 990.0, "ten failures sit exactly beyond p99");
    values.push(f64::INFINITY);
    assert!(Summary::of(&values).tail.is_infinite());
}

#[test]
fn nearest_rank_percentiles_and_medians() {
    let s = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
    assert_eq!(s, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    assert_eq!(percentile(&s, 50.0), 3.0);
    assert_eq!(percentile(&s, 100.0), 5.0);
    assert_eq!(percentile(&s, 1.0), 1.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}
