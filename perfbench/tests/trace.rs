//! Span self-time arithmetic.

use perfbench::trace::{covered_ns, self_time_by_name, self_times_ns, Recorder, Span};

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        job: 0,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn union_of_overlapping_intervals() {
    assert_eq!(covered_ns(0, 100, &[(10, 30), (20, 50)]), 40);
    assert_eq!(covered_ns(0, 100, &[(10, 20), (30, 40)]), 20);
    // Clipped to the parent's interval.
    assert_eq!(covered_ns(0, 100, &[(90, 150), (0, 5)]), 15);
    assert_eq!(covered_ns(0, 100, &[]), 0);
    assert_eq!(covered_ns(0, 100, &[(200, 300)]), 0);
}

#[test]
fn self_time_subtracts_children_once_even_when_they_overlap() {
    let spans = vec![
        span("job", None, 0, 100),
        span("a", Some(0), 10, 30),
        span("b", Some(0), 20, 50), // runs in parallel with `a`
        span("c", Some(2), 25, 35), // grandchild: only `b` loses it
    ];
    assert_eq!(self_times_ns(&spans), vec![60, 20, 20, 10]);
}

#[test]
fn self_times_sum_to_the_root_duration_for_sequential_children() {
    let spans = vec![
        span("job", None, 0, 1000),
        span("x", Some(0), 0, 300),
        span("y", Some(0), 300, 900),
        span("x", Some(0), 900, 950),
    ];
    let total: u64 = self_times_ns(&spans).iter().sum();
    assert_eq!(total, 1000);
    let by_name = self_time_by_name(&spans);
    assert_eq!(by_name["x"], (2, 350));
    assert_eq!(by_name["y"], (1, 600));
    assert_eq!(by_name["job"], (1, 50));
}

#[test]
fn recorder_nests_spans_and_disabled_recorder_records_nothing() {
    let rec = Recorder::new(true);
    let out = rec.span("outer", 7, None, |p| {
        assert!(p.is_some());
        rec.span("inner", 7, p, |_| 41) + 1
    });
    assert_eq!(out, 42);
    let spans = rec.take();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[0].job, 7);
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

    let off = Recorder::new(false);
    assert!(off.span("outer", 0, None, |p| p.is_none()));
    assert!(off.take().is_empty());
}
