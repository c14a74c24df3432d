//! Open-loop due times and lateness accounting.

use perfbench::openloop::{Schedule, Timing};

const MS: u64 = 1_000_000;

#[test]
fn due_times_follow_the_rate_not_the_replies() {
    let s = Schedule::for_duration(100.0, 2.0);
    assert_eq!(s.count, 200);
    assert_eq!(s.due_ns(0), 0);
    assert_eq!(s.due_ns(1), 10 * MS);
    assert_eq!(s.due_ns(150), 1500 * MS);
    assert_eq!(s.span_ns(), 2000 * MS);
    assert_eq!(Schedule::for_duration(75.0, 0.001).count, 1);
}

#[test]
fn latency_counts_from_due_time_and_lateness_is_reported_separately() {
    // Due at 100 ms, sent 5 ms late, answered 15 ms after due.
    let t = Timing {
        due_ns: 100 * MS,
        sent_ns: 105 * MS,
        done_ns: Some(115 * MS),
    };
    assert_eq!(t.lateness_ms(), 5.0);
    assert_eq!(t.latency_ms(), 15.0);
    assert_eq!(t.service_ms(), 10.0);

    // A generator that ran early is not credited.
    let early = Timing {
        due_ns: 100 * MS,
        sent_ns: 99 * MS,
        done_ns: Some(101 * MS),
    };
    assert_eq!(early.lateness_ms(), 0.0);
    assert_eq!(early.latency_ms(), 1.0);
}

#[test]
fn a_failed_request_misses_any_limit() {
    let t = Timing {
        due_ns: 0,
        sent_ns: 0,
        done_ns: None,
    };
    assert!(t.latency_ms().is_infinite());
    assert!(t.service_ms().is_infinite());
}
