//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is compiled into the daemon unconditionally and costs
//! one relaxed atomic load per job/frame when empty — no cargo feature,
//! no rebuild, so the binary CI chaos-tests is the binary that ships.
//! Faults are driven by counters, not randomness: "every Nth job panics"
//! reproduces identically across runs, which is what an assertion like
//! "≥1 panic per 50 requests was injected *and survived*" needs.
//!
//! Four injection points:
//!
//! * **Worker panic** — [`FaultPlan::on_job`] tells the scheduler worker
//!   to panic inside its `catch_unwind` region, exercising the
//!   panic-isolation path exactly like a real engine bug would.
//! * **Job latency** — the same call can return an artificial delay,
//!   applied before execution to push jobs toward their deadlines.
//! * **Frame corruption** — [`FaultPlan::corrupt_frame`] overwrites bytes
//!   of an inbound payload with `0xFF` (never valid UTF-8, so corruption
//!   deterministically yields a typed `bad_request` error rather than a
//!   silently altered request).
//! * **Stuck job** — `stuck=N` wedges every Nth job: the worker spins in
//!   place of executing it and only returns when the job's cancellation
//!   token fires. Without end-to-end deadlines a stuck job would hold its
//!   worker hostage forever; the chaos tests use it to prove a wedged
//!   worker is reclaimed within one deadline.
//!
//! The plan is configured from a spec string ([`FaultSpec::parse`]; the
//! daemon takes it from its `--faults` flag or the `FLEXAGON_FAULTS`
//! environment variable) of comma-separated knobs:
//! `panic=N` (every Nth job panics), `slow=N:MS` (every Nth job sleeps
//! MS milliseconds), `corrupt=N` (every Nth data frame is corrupted),
//! `stuck=N` (every Nth job wedges until cancelled).
//! Example: `panic=50,slow=50:20,corrupt=50`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Static description of which faults fire and how often.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Every `panic_every`-th job panics (0 = never).
    pub panic_every: u64,
    /// Every `slow_every`-th job sleeps `slow_ms` (0 = never).
    pub slow_every: u64,
    /// Injected latency for slowed jobs, in milliseconds.
    pub slow_ms: u64,
    /// Every `corrupt_every`-th inbound frame is corrupted (0 = never).
    pub corrupt_every: u64,
    /// Every `stuck_every`-th job wedges — it never finishes unless its
    /// cancellation token fires (0 = never).
    pub stuck_every: u64,
}

impl FaultSpec {
    /// Whether any fault is configured.
    pub fn is_empty(&self) -> bool {
        self.panic_every == 0
            && self.slow_every == 0
            && self.corrupt_every == 0
            && self.stuck_every == 0
    }

    /// Parses a spec string (`panic=N,slow=N:MS,corrupt=N`; empty string →
    /// no faults).
    ///
    /// # Errors
    ///
    /// A description of the first malformed knob.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut spec = Self::default();
        for knob in s.split(',').map(str::trim).filter(|k| !k.is_empty()) {
            let (key, value) = knob
                .split_once('=')
                .ok_or_else(|| format!("fault knob '{knob}' is not key=value"))?;
            let parse_u64 = |v: &str| {
                v.parse::<u64>()
                    .map_err(|e| format!("fault knob '{knob}': {e}"))
            };
            match key.trim() {
                "panic" => spec.panic_every = parse_u64(value)?,
                "slow" => {
                    let (every, ms) = value
                        .split_once(':')
                        .ok_or_else(|| format!("slow knob '{knob}' needs N:MS"))?;
                    spec.slow_every = parse_u64(every)?;
                    spec.slow_ms = parse_u64(ms)?;
                }
                "corrupt" => spec.corrupt_every = parse_u64(value)?,
                "stuck" => spec.stuck_every = parse_u64(value)?,
                other => return Err(format!("unknown fault knob '{other}'")),
            }
        }
        Ok(spec)
    }
}

/// What [`FaultPlan::on_job`] decided for one job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobFault {
    /// The worker must panic while executing this job.
    pub panic: bool,
    /// Sleep this long before executing (deadline pressure).
    pub delay: Option<Duration>,
    /// The worker must wedge on this job: spin instead of executing, and
    /// return only when the job's cancellation token fires.
    pub stuck: bool,
}

/// How many faults a plan has actually injected — what a chaos test
/// asserts against ("≥1 panic was injected *and survived*").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionCounts {
    /// Worker panics injected.
    pub panics: u64,
    /// Jobs artificially delayed.
    pub slow_jobs: u64,
    /// Inbound frames corrupted.
    pub corrupted_frames: u64,
    /// Jobs wedged until their cancellation token fired.
    pub stuck_jobs: u64,
}

/// A live fault-injection plan: the spec plus the counters that drive it.
///
/// Shared (`Arc`) between the server's connection loops (frame corruption)
/// and the scheduler's workers (panics, latency). The empty plan is the
/// default and costs one relaxed load per decision.
#[derive(Debug, Default)]
pub struct FaultPlan {
    spec: FaultSpec,
    enabled: bool,
    jobs: AtomicU64,
    frames: AtomicU64,
    panics: AtomicU64,
    slow_jobs: AtomicU64,
    corrupted_frames: AtomicU64,
    stuck_jobs: AtomicU64,
}

impl FaultPlan {
    /// A plan injecting nothing (the production default).
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan driven by `spec`.
    pub fn new(spec: FaultSpec) -> Self {
        Self {
            spec,
            enabled: !spec.is_empty(),
            jobs: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            slow_jobs: AtomicU64::new(0),
            corrupted_frames: AtomicU64::new(0),
            stuck_jobs: AtomicU64::new(0),
        }
    }

    /// The spec this plan runs.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Whether any fault is configured (the fast-path check callers may
    /// use to skip work; the injection methods do it themselves).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Decides the faults for the next job. One counter increment per
    /// call, so "every Nth job" means exactly that across all workers.
    pub fn on_job(&self) -> JobFault {
        if !self.enabled {
            return JobFault::default();
        }
        let n = self.jobs.fetch_add(1, Ordering::Relaxed) + 1;
        let fault = JobFault {
            panic: self.spec.panic_every != 0 && n.is_multiple_of(self.spec.panic_every),
            delay: (self.spec.slow_every != 0 && n.is_multiple_of(self.spec.slow_every))
                .then(|| Duration::from_millis(self.spec.slow_ms)),
            stuck: self.spec.stuck_every != 0 && n.is_multiple_of(self.spec.stuck_every),
        };
        if fault.panic {
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
        if fault.delay.is_some() {
            self.slow_jobs.fetch_add(1, Ordering::Relaxed);
        }
        if fault.stuck {
            self.stuck_jobs.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// A snapshot of the faults injected so far.
    pub fn injected(&self) -> InjectionCounts {
        InjectionCounts {
            panics: self.panics.load(Ordering::Relaxed),
            slow_jobs: self.slow_jobs.load(Ordering::Relaxed),
            corrupted_frames: self.corrupted_frames.load(Ordering::Relaxed),
            stuck_jobs: self.stuck_jobs.load(Ordering::Relaxed),
        }
    }

    /// Possibly corrupts an inbound frame payload in place; returns whether
    /// it did. Corruption overwrites up to 8 bytes with `0xFF` — never
    /// valid UTF-8, so a corrupted request deterministically parses to a
    /// typed `bad_request` error instead of silently mutating numbers.
    pub fn corrupt_frame(&self, payload: &mut [u8]) -> bool {
        if !self.enabled || self.spec.corrupt_every == 0 || payload.is_empty() {
            return false;
        }
        let n = self.frames.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(self.spec.corrupt_every) {
            return false;
        }
        let start = payload.len() / 2;
        let end = (start + 8).min(payload.len());
        for b in &mut payload[start..end] {
            *b = 0xFF;
        }
        self.corrupted_frames.fetch_add(1, Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let s = FaultSpec::parse("panic=50, slow=25:20, corrupt=10, stuck=40").unwrap();
        assert_eq!(
            s,
            FaultSpec {
                panic_every: 50,
                slow_every: 25,
                slow_ms: 20,
                corrupt_every: 10,
                stuck_every: 40,
            }
        );
        assert!(!s.is_empty());
    }

    #[test]
    fn parse_empty_and_errors() {
        assert!(FaultSpec::parse("").unwrap().is_empty());
        assert!(FaultSpec::parse("panic").is_err());
        assert!(FaultSpec::parse("slow=5").is_err());
        assert!(FaultSpec::parse("panic=x").is_err());
        assert!(FaultSpec::parse("frobnicate=1").is_err());
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(!plan.enabled());
        for _ in 0..100 {
            assert_eq!(plan.on_job(), JobFault::default());
        }
        let mut payload = vec![b'x'; 64];
        assert!(!plan.corrupt_frame(&mut payload));
        assert!(payload.iter().all(|&b| b == b'x'));
    }

    #[test]
    fn every_nth_job_faults_exactly() {
        let plan = FaultPlan::new(FaultSpec::parse("panic=3,slow=2:7,stuck=5").unwrap());
        let faults: Vec<JobFault> = (0..6).map(|_| plan.on_job()).collect();
        let panics: Vec<bool> = faults.iter().map(|f| f.panic).collect();
        assert_eq!(panics, [false, false, true, false, false, true]);
        let delays: Vec<bool> = faults.iter().map(|f| f.delay.is_some()).collect();
        assert_eq!(delays, [false, true, false, true, false, true]);
        let stuck: Vec<bool> = faults.iter().map(|f| f.stuck).collect();
        assert_eq!(stuck, [false, false, false, false, true, false]);
        assert_eq!(faults[1].delay, Some(Duration::from_millis(7)));
        assert_eq!(
            plan.injected(),
            InjectionCounts {
                panics: 2,
                slow_jobs: 3,
                corrupted_frames: 0,
                stuck_jobs: 1,
            }
        );
    }

    #[test]
    fn corruption_yields_invalid_utf8() {
        let plan = FaultPlan::new(FaultSpec::parse("corrupt=2").unwrap());
        let mut a = br#"{"type":"ping"}"#.to_vec();
        assert!(!plan.corrupt_frame(&mut a), "first frame passes");
        let mut b = br#"{"type":"ping"}"#.to_vec();
        assert!(plan.corrupt_frame(&mut b), "second frame is corrupted");
        assert!(std::str::from_utf8(&b).is_err(), "0xFF is never UTF-8");
    }
}
