//! Named event counters and hit/miss ratios.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A set of named monotone counters.
///
/// Used throughout the simulator for traffic accounting: bytes through each
/// memory structure, elements through each network, DRAM requests, etc.
/// Counter names are static strings so typos surface at the call site during
/// review rather than silently splitting a statistic. (Serializes to a name →
/// value map; deserialization is intentionally unsupported because the keys
/// are `&'static str`.)
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CounterSet {
    counts: BTreeMap<&'static str, u64>,
}

impl CounterSet {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counts.entry(name).or_insert(0) += delta;
    }

    /// Increments counter `name` by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Accumulates every counter of `other` into `self`.
    ///
    /// Lets per-layer reports roll up into per-model reports.
    pub fn merge(&mut self, other: &CounterSet) {
        for (name, value) in other.iter() {
            self.add(name, value);
        }
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` when no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

impl std::fmt::Display for CounterSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.counts.is_empty() {
            return write!(f, "(no counters)");
        }
        for (i, (name, value)) in self.counts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{name}: {value}")?;
        }
        Ok(())
    }
}

/// A hit/total ratio, e.g. the STR cache miss rate of Fig. 15.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ratio {
    hits: u64,
    total: u64,
}

impl Ratio {
    /// Creates an empty ratio (0 / 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event, counted as a hit when `hit` is true.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Records `n` events of which `hits` were hits.
    ///
    /// # Panics
    ///
    /// Panics if `hits > n`.
    pub fn record_many(&mut self, hits: u64, n: u64) {
        assert!(hits <= n, "cannot record more hits than events");
        self.total += n;
        self.hits += hits;
    }

    /// Number of hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses.
    pub fn misses(&self) -> u64 {
        self.total - self.hits
    }

    /// Total events.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Hit fraction in `[0, 1]`; zero when empty.
    pub fn hit_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// Miss fraction in `[0, 1]`; zero when empty.
    pub fn miss_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.misses() as f64 / self.total as f64
        }
    }

    /// Merges another ratio's events into this one.
    pub fn merge(&mut self, other: Ratio) {
        self.hits += other.hits;
        self.total += other.total;
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} ({:.2}%)",
            self.hits,
            self.total,
            100.0 * self.hit_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut c = CounterSet::new();
        c.add("bytes", 10);
        c.incr("bytes");
        c.incr("reqs");
        assert_eq!(c.get("bytes"), 11);
        assert_eq!(c.get("reqs"), 1);
        assert_eq!(c.get("absent"), 0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn counters_merge() {
        let mut a = CounterSet::new();
        a.add("x", 1);
        let mut b = CounterSet::new();
        b.add("x", 2);
        b.add("y", 3);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
    }

    /// The golden-report bit-identity check (`golden_reports` binary)
    /// depends on counter serialization being a pure function of the
    /// recorded (name, value) pairs: insertion order must not leak, so a
    /// phase loop may record the same totals in any order and still
    /// serialize identically.
    #[test]
    fn serialization_is_insertion_order_independent() {
        let mut scan_order = CounterSet::new();
        scan_order.add("dn.injected", 7);
        scan_order.add("mrn.additions", 3);
        scan_order.add("dn.injected", 2);
        let mut probe_order = CounterSet::new();
        probe_order.add("mrn.additions", 1);
        probe_order.add("dn.injected", 9);
        probe_order.add("mrn.additions", 2);
        assert_eq!(scan_order, probe_order);
        let render = |c: &CounterSet| serde_json::to_string(c).expect("serializes");
        assert_eq!(render(&scan_order), render(&probe_order));
    }

    #[test]
    fn counters_display() {
        let mut c = CounterSet::new();
        assert_eq!(format!("{c}"), "(no counters)");
        c.add("a", 1);
        assert_eq!(format!("{c}"), "a: 1");
    }

    #[test]
    fn ratio_rates() {
        let mut r = Ratio::new();
        assert_eq!(r.hit_rate(), 0.0);
        assert_eq!(r.miss_rate(), 0.0);
        r.record(true);
        r.record(true);
        r.record(false);
        assert_eq!(r.hits(), 2);
        assert_eq!(r.misses(), 1);
        assert!((r.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_record_many_and_merge() {
        let mut r = Ratio::new();
        r.record_many(7, 10);
        let mut other = Ratio::new();
        other.record_many(3, 10);
        r.merge(other);
        assert_eq!(r.hits(), 10);
        assert_eq!(r.total(), 20);
    }

    #[test]
    #[should_panic(expected = "more hits than events")]
    fn ratio_rejects_invalid() {
        Ratio::new().record_many(2, 1);
    }

    #[test]
    fn ratio_display() {
        let mut r = Ratio::new();
        r.record_many(1, 4);
        assert_eq!(format!("{r}"), "1/4 (25.00%)");
    }
}
