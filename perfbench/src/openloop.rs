//! Open-loop arrival schedule and its due-time accounting.
//!
//! Requests are due at fixed intervals from the schedule's start, whether
//! or not earlier ones have been answered. Each request is timed from when
//! it was due, so a stall that delays later sends counts against them, and
//! the generator's own lateness (send time minus due time) is reported.

/// A fixed-rate arrival schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Offered rate, requests per second.
    pub rate_per_s: f64,
    /// Requests in the schedule.
    pub count: usize,
}

impl Schedule {
    /// The schedule offering `rate_per_s` for `seconds` (at least one
    /// request).
    pub fn for_duration(rate_per_s: f64, seconds: f64) -> Self {
        Self {
            rate_per_s,
            count: ((rate_per_s * seconds).round() as usize).max(1),
        }
    }

    /// When request `i` is due, in ns after the schedule starts.
    pub fn due_ns(&self, i: usize) -> u64 {
        (i as f64 * 1e9 / self.rate_per_s).round() as u64
    }

    /// The schedule's length in ns (the last due time plus one interval).
    pub fn span_ns(&self) -> u64 {
        self.due_ns(self.count)
    }
}

/// What happened to one open-loop request, in ns after the schedule start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When it was due.
    pub due_ns: u64,
    /// When the generator actually sent it.
    pub sent_ns: u64,
    /// When its successful reply arrived; `None` when it failed or was
    /// refused, which counts as missing any latency limit.
    pub done_ns: Option<u64>,
}

impl Timing {
    /// How late the generator sent it, in ms.
    pub fn lateness_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// Latency from due time to reply, in ms; infinite when it failed.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.map_or(f64::INFINITY, |d| {
            d.saturating_sub(self.due_ns) as f64 / 1e6
        })
    }

    /// Latency from send to reply, in ms; infinite when it failed.
    pub fn service_ms(&self) -> f64 {
        self.done_ns.map_or(f64::INFINITY, |d| {
            d.saturating_sub(self.sent_ns) as f64 / 1e6
        })
    }
}
