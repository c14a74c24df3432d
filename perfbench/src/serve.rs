//! `serve`: an in-process `flexagon_serve::Server` (two workers, default
//! configuration) on loopback TCP under an open loop at one fixed rate.
//!
//! Requests use the heuristic strategy over a fixed pool of layers from
//! the S, S-M, DB and MB models, from two tenants. Nine in ten name cached
//! operand ids (reads); every tenth carries its operands inline under
//! fresh ids (writes: JSON decode, validation, fingerprinting, cache insert
//! and evict). Each request is timed from when it was due.
//!
//! A run has two timed phases: the fixed-rate open loop (`p50_ms`,
//! `p99_ms`) and [`CLOSED_PASSES`] closed-loop passes over a fixed request
//! list on every connection (`wall_s`, their median).

use crate::openloop::{Schedule, Timing};
use crate::report::{RunResult, SimTally};
use crate::stats::{geomean, median, Summary};
use crate::trace::{self_time_by_name, to_json_lines, Recorder};
use crate::{engine_metrics, engine_span, nproc, repeated_setup, RunConfig};
use flexagon_core::{
    mapper, Accelerator, AcceleratorConfig, Dataflow, ExecutionReport, ExecutionRequest, Flexagon,
    MappingStrategy,
};
use flexagon_dnn::LayerMatrices;
use flexagon_serve::protocol::{
    digest_hex, matrix_digest, parse_request, write_frame, FrameEvent, FrameReader, Request,
    Response, SpGemmRequest, DEFAULT_MAX_FRAME_BYTES,
};
use flexagon_serve::{net::Stream, Client, ServeConfig, Server};
use rand::{RngCore, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The fixed offered rate of the open loop, requests per second: about a
/// fifth of the closed-loop capacity of a 2-core host. Each connection
/// serves its requests one at a time, so at half of capacity a host
/// slowdown turns into queueing behind the previous request; at a fifth a
/// request rarely waits. 20 s at this rate give 800 requests: whole rounds
/// of the pool for reads and uploads alike, and a p95 tail. On a shared
/// 2-vCPU host the p99 of 1000 requests followed the hypervisor's steal
/// time (31 ms at 2% steal, 140 ms at 27%) and spread 0.4-1.3 across seeds.
pub const RATE_RPS: f64 = 40.0;

/// The suite models the request pool draws from, and how many layers each
/// contributes (evenly spaced through it). DistilBERT's layers all cost
/// about the same; giving them 60% of the pool puts the median request
/// inside that cluster. With equal shares the median fell between the
/// cheap CNN/MobileBERT layers and the DistilBERT ones, and `p50_ms`
/// jumped between the two (7 vs 14 ms) from run to run.
pub const POOL: [(&str, usize); 4] = [("S", 4), ("S-M", 4), ("DB", 24), ("MB", 8)];

/// Every `UPLOAD_EVERY`th request carries inline operands.
pub const UPLOAD_EVERY: usize = 10;

/// The two tenants requests alternate between.
pub const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// The latency limit the fixed-rate phase's tail is held to (reported,
/// with failed and refused requests counting as missing it).
pub const LIMIT_MS: f64 = 100.0;

/// Requests in each closed-loop pass that `wall_s` times: one round of the
/// pool for uploads and nine for reads, so every seed's pass does the same
/// work in another order (a 200-request pass uploaded a seed-dependent half
/// of the pool).
pub const CLOSED_REQUESTS: usize = 400;

/// Closed-loop passes per run; `wall_s` is their median.
pub const CLOSED_PASSES: usize = 3;

/// How long a generator waits for outstanding replies after its last
/// send before counting them failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Upper bound on a pool layer's expected operand nonzeros (A plus B):
/// about a megabyte of upload JSON, so no single upload dominates the
/// latency tail.
pub const POOL_MAX_NNZ: u64 = 60_000;

/// The pool's layers: (label, spec), fixed whatever the seed. From each
/// model of [`POOL`], its share of layers evenly spaced through those
/// within [`POOL_MAX_NNZ`].
pub fn pool_specs() -> Vec<(String, flexagon_dnn::LayerSpec)> {
    flexagon_dnn::suite()
        .into_iter()
        .filter_map(|m| {
            let (_, take) = POOL.iter().find(|(short, _)| *short == m.short)?;
            Some((m, *take))
        })
        .flat_map(|(m, take)| {
            let fits: Vec<_> = m
                .layers
                .into_iter()
                .filter(|l| l.expected_nnz_a() + l.expected_nnz_b() <= POOL_MAX_NNZ)
                .collect();
            let n = fits.len();
            (0..take)
                .map(|i| {
                    let spec = fits[i * n / take].clone();
                    (format!("{}{}", m.short, spec.index), spec)
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// One planned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Pool layer.
    pub layer: usize,
    /// Index into [`TENANTS`].
    pub tenant: usize,
    /// Whether it carries inline operands under fresh ids.
    pub upload: bool,
}

/// Pool layers in a seeded order that visits every layer once per round
/// (a fresh shuffle each round), so every seed requests the same mix and
/// only the order differs.
struct Rounds {
    rng: rand_chacha::ChaCha8Rng,
    pool: usize,
    round: Vec<usize>,
}

impl Rounds {
    fn next(&mut self) -> usize {
        if self.round.is_empty() {
            self.round = (0..self.pool).collect();
            for i in (1..self.pool).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.round.swap(i, j);
            }
        }
        self.round.pop().expect("a round holds every pool layer")
    }
}

/// The request sequence of one phase, a function of `seed` and `phase`:
/// tenants alternate, one request in every [`UPLOAD_EVERY`] is an upload,
/// and reads and uploads each cycle through the pool in seeded rounds.
pub fn request_plan(seed: u64, phase: u64, count: usize, pool: usize) -> Vec<Planned> {
    let rounds = |salt: u64| Rounds {
        rng: rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ phase.wrapping_mul(0x9E37_79B9) ^ salt),
        pool,
        round: Vec::new(),
    };
    let (mut reads, mut uploads) = (rounds(0), rounds(0x0F0F_0F0F_0F0F));
    (0..count)
        .map(|i| {
            // The upload's slot alternates between odd and even positions,
            // so writes spread over both tenants and connections.
            let slot = if (i / UPLOAD_EVERY).is_multiple_of(2) {
                UPLOAD_EVERY - 1
            } else {
                UPLOAD_EVERY / 2 - 1
            };
            let upload = i % UPLOAD_EVERY == slot;
            Planned {
                layer: if upload { uploads.next() } else { reads.next() },
                tenant: i % TENANTS.len(),
                upload,
            }
        })
        .collect()
}

const TENANT_SLOT: &str = "@@tenant@@";
const A_SLOT: &str = "@@a_id@@";
const B_SLOT: &str = "@@b_id@@";

/// An upload request pre-serialized once, with slots for the tenant and
/// the fresh operand ids, so sending one costs a copy, not a JSON encode
/// of the matrices.
#[derive(Debug)]
struct Template {
    pieces: Vec<String>,
    slots: Vec<&'static str>,
}

impl Template {
    fn new(json: &str) -> Self {
        let mut pieces = Vec::new();
        let mut slots = Vec::new();
        let mut rest = json;
        while let Some((at, slot)) = [TENANT_SLOT, A_SLOT, B_SLOT]
            .into_iter()
            .filter_map(|s| rest.find(s).map(|i| (i, s)))
            .min()
        {
            pieces.push(rest[..at].to_owned());
            slots.push(slot);
            rest = &rest[at + slot.len()..];
        }
        pieces.push(rest.to_owned());
        Self { pieces, slots }
    }

    fn render(&self, tenant: &str, a_id: &str, b_id: &str) -> String {
        let mut out =
            String::with_capacity(self.pieces.iter().map(String::len).sum::<usize>() + 64);
        for (piece, slot) in self.pieces.iter().zip(&self.slots) {
            out.push_str(piece);
            out.push_str(match *slot {
                TENANT_SLOT => tenant,
                A_SLOT => a_id,
                _ => b_id,
            });
        }
        out.push_str(self.pieces.last().expect("a template has a last piece"));
        out
    }
}

/// Everything needed to put a planned request on the wire.
#[derive(Debug)]
pub struct Wire {
    uploads: Vec<Template>,
    fresh: AtomicU64,
}

fn pool_ids(layer: usize) -> (String, String) {
    (format!("pool-{layer}-a"), format!("pool-{layer}-b"))
}

impl Wire {
    fn new(pool: &[(String, LayerMatrices)]) -> Self {
        let uploads = pool
            .iter()
            .map(|(_, m)| {
                let req = Request::spgemm(SpGemmRequest {
                    tenant: TENANT_SLOT.to_owned(),
                    a: Some(m.a.clone()),
                    b: Some(m.b.clone()),
                    a_id: Some(A_SLOT.to_owned()),
                    b_id: Some(B_SLOT.to_owned()),
                    ..SpGemmRequest::default()
                });
                Template::new(&serde_json::to_string(&req).expect("shim serialization"))
            })
            .collect();
        Self {
            uploads,
            fresh: AtomicU64::new(0),
        }
    }

    /// The frame payload for `p`.
    pub fn payload(&self, p: &Planned) -> String {
        let tenant = TENANTS[p.tenant];
        if p.upload {
            let n = self.fresh.fetch_add(1, Ordering::Relaxed);
            self.uploads[p.layer].render(tenant, &format!("up-{n}-a"), &format!("up-{n}-b"))
        } else {
            let (a_id, b_id) = pool_ids(p.layer);
            let req = Request::spgemm(SpGemmRequest {
                tenant: tenant.to_owned(),
                a_id: Some(a_id),
                b_id: Some(b_id),
                ..SpGemmRequest::default()
            });
            serde_json::to_string(&req).expect("shim serialization")
        }
    }
}

/// The daemon, its primed pool, and the wire templates.
pub struct Prepared {
    /// Pool layers and their operands.
    pub pool: Vec<(String, LayerMatrices)>,
    /// The running daemon.
    pub server: Server,
    /// Its address.
    pub addr: String,
    /// Request serialization.
    pub wire: Wire,
}

/// Materializes the pool from `seed`, starts the daemon and uploads every
/// pool operand under its id, so reads hit the cache.
pub fn prepare(seed: u64, rec: &Recorder) -> Prepared {
    let pool: Vec<(String, LayerMatrices)> = (0u64..)
        .zip(pool_specs())
        .map(|(i, (label, spec))| {
            let m = rec.span("dnn.materialize", i, None, |_| spec.materialize(seed));
            (label, m)
        })
        .collect();
    let server = Server::start(ServeConfig::default()).expect("bind a loopback port");
    let addr = server.local_addr().to_owned();
    let conns = nproc();
    std::thread::scope(|s| {
        for c in 0..conns {
            let (pool, addr) = (&pool, &addr);
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect to the in-process daemon");
                for (layer, (_, m)) in pool.iter().enumerate().skip(c).step_by(conns) {
                    let (a_id, b_id) = pool_ids(layer);
                    let resp = client
                        .request(&Request::spgemm(SpGemmRequest {
                            tenant: "prime".to_owned(),
                            a: Some(m.a.clone()),
                            b: Some(m.b.clone()),
                            a_id: Some(a_id),
                            b_id: Some(b_id),
                            ..SpGemmRequest::default()
                        }))
                        .expect("priming request");
                    assert!(
                        matches!(resp, Response::Result(_)),
                        "priming upload refused: {resp:?}"
                    );
                }
            });
        }
    });
    let wire = Wire::new(&pool);
    Prepared {
        pool,
        server,
        addr,
        wire,
    }
}

/// What came back for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A result.
    Done {
        /// The dataflow the heuristic picked.
        dataflow: Dataflow,
        /// The output digest.
        digest: String,
        /// Simulated cycles from the report.
        cycles: u64,
        /// Server-side queue wait.
        queue_us: u64,
        /// Server-side execution.
        exec_us: u64,
    },
    /// A typed error, a refusal, or a lost connection.
    Failed(String),
}

/// One request's timing and answer.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The planned request.
    pub planned: Planned,
    /// Due, sent and answered times.
    pub timing: Timing,
    /// What came back.
    pub answer: Answer,
}

fn answer_of(payload: &[u8]) -> Answer {
    let resp = std::str::from_utf8(payload)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str::<Response>(t).map_err(|e| e.to_string()));
    match resp {
        Ok(Response::Result(r)) => Answer::Done {
            dataflow: r.dataflow,
            digest: r.c_digest,
            cycles: r
                .report
                .as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == "total_cycles"))
                .and_then(|(_, v)| v.as_u64())
                .unwrap_or(0),
            queue_us: r.queue_us,
            exec_us: r.exec_us,
        },
        Ok(other) => Answer::Failed(format!("{other:?}")),
        Err(e) => Answer::Failed(e),
    }
}

/// How a generator paces its sends.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Each request at its due time on the schedule.
    Open(Schedule),
    /// Each request as soon as the previous one on its connection is
    /// answered (its due time is its send time).
    Closed,
}

/// Drives one connection: sends its share of `plan` (every `conns`th
/// request starting at `first`) and collects the replies in order.
fn drive_connection(
    prep: &Prepared,
    plan: &[Planned],
    first: usize,
    conns: usize,
    pacing: Pacing,
    start: Instant,
    rec: &Recorder,
) -> Vec<(usize, Reply)> {
    let mine: Vec<usize> = (first..plan.len()).step_by(conns).collect();
    let ns = |t: Instant| {
        u64::try_from(t.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
    };
    let mut out = Vec::with_capacity(mine.len());
    let fail_rest =
        |out: &mut Vec<(usize, Reply)>, pending: &mut VecDeque<(usize, u64, u64)>, why: &str| {
            for (i, due, sent) in pending.drain(..) {
                out.push((
                    i,
                    Reply {
                        planned: plan[i],
                        timing: Timing {
                            due_ns: due,
                            sent_ns: sent,
                            done_ns: None,
                        },
                        answer: Answer::Failed(why.to_owned()),
                    },
                ));
            }
        };
    let mut pending: VecDeque<(usize, u64, u64)> = VecDeque::new();
    let mut stream = match Stream::connect(&prep.addr) {
        Ok(s) => s,
        Err(e) => {
            pending.extend(mine.iter().map(|&i| (i, 0, 0)));
            fail_rest(&mut out, &mut pending, &format!("connect: {e}"));
            return out;
        }
    };
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
    let mut next = 0;
    let mut last_send = start;
    loop {
        // Send everything that is due.
        while next < mine.len() {
            let i = mine[next];
            let due = match pacing {
                Pacing::Open(s) => start + Duration::from_nanos(s.due_ns(i)),
                Pacing::Closed if pending.is_empty() => Instant::now(),
                Pacing::Closed => break,
            };
            let now = Instant::now();
            if due > now {
                if pending.is_empty() {
                    std::thread::sleep(due - now);
                } else {
                    break;
                }
            }
            let t_enc = Instant::now();
            let payload = prep.wire.payload(&plan[i]);
            let t_write = Instant::now();
            let sent = write_frame(&mut stream, payload.as_bytes());
            let t_sent = Instant::now();
            rec.record("serve.client.encode", i as u64, None, t_enc, t_write);
            rec.record("serve.client.write", i as u64, None, t_write, t_sent);
            pending.push_back((i, ns(due), ns(t_write)));
            last_send = t_sent;
            next += 1;
            if let Err(e) = sent {
                fail_rest(&mut out, &mut pending, &format!("write: {e}"));
                pending.extend(mine[next..].iter().map(|&i| (i, 0, 0)));
                fail_rest(&mut out, &mut pending, "connection lost");
                return out;
            }
        }
        if pending.is_empty() {
            if next == mine.len() {
                return out;
            }
            continue;
        }
        // Wait for a reply, but no longer than the next due time.
        let wait = match (pacing, mine.get(next)) {
            (Pacing::Open(s), Some(&i)) => (start + Duration::from_nanos(s.due_ns(i)))
                .saturating_duration_since(Instant::now()),
            _ => Duration::from_millis(50),
        };
        if stream
            .set_read_timeout(Some(
                wait.clamp(Duration::from_micros(100), Duration::from_millis(50)),
            ))
            .is_err()
        {
            fail_rest(&mut out, &mut pending, "set_read_timeout failed");
            return out;
        }
        match reader.read(&mut stream) {
            Ok(FrameEvent::Frame(p)) => {
                let done = Instant::now();
                let (i, due, sent) = pending
                    .pop_front()
                    .expect("a reply answers a pending request");
                let answer = answer_of(&p);
                let ok = matches!(answer, Answer::Done { .. });
                let sent_at = start + Duration::from_nanos(sent);
                rec.record("serve.request", i as u64, None, sent_at, done);
                out.push((
                    i,
                    Reply {
                        planned: plan[i],
                        timing: Timing {
                            due_ns: due,
                            sent_ns: sent,
                            done_ns: ok.then(|| ns(done)),
                        },
                        answer,
                    },
                ));
            }
            Ok(FrameEvent::Timeout) => {
                if next == mine.len() && last_send.elapsed() > DRAIN_TIMEOUT {
                    fail_rest(&mut out, &mut pending, "no reply before the drain timeout");
                    return out;
                }
            }
            Ok(other) => {
                fail_rest(&mut out, &mut pending, &format!("{other:?}"));
                pending.extend(mine[next..].iter().map(|&i| (i, 0, 0)));
                fail_rest(&mut out, &mut pending, "connection lost");
                return out;
            }
            Err(e) => {
                fail_rest(&mut out, &mut pending, &format!("read: {e}"));
                pending.extend(mine[next..].iter().map(|&i| (i, 0, 0)));
                fail_rest(&mut out, &mut pending, "connection lost");
                return out;
            }
        }
    }
}

/// Runs `plan` against the daemon on `nproc` connections, one generator
/// thread each, and returns the replies in plan order.
pub fn drive(prep: &Prepared, plan: &[Planned], pacing: Pacing, rec: &Recorder) -> Vec<Reply> {
    let conns = nproc();
    let start = Instant::now() + Duration::from_millis(5);
    let mut all: Vec<(usize, Reply)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| s.spawn(move || drive_connection(prep, plan, c, conns, pacing, start, rec)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

/// What a direct `Flexagon::execute` of a pool layer produced.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The heuristic's dataflow.
    pub dataflow: Dataflow,
    /// `digest_hex(matrix_digest(C))`.
    pub digest: String,
    /// The report.
    pub report: ExecutionReport,
}

/// Runs every pool layer directly through `Flexagon::execute` under the
/// daemon's configuration and strategy.
pub fn expected(prep: &Prepared, rec: &Recorder) -> Vec<Expected> {
    let accel = Flexagon::new(AcceleratorConfig::table5());
    let cfg = AcceleratorConfig::table5();
    (0u64..)
        .zip(&prep.pool)
        .map(|(job, (_, m))| {
            let df = mapper::heuristic_among(&cfg, &m.a, &m.b, &Dataflow::ALL);
            let ex = rec.span(engine_span(df), job, None, |_| {
                accel
                    .execute(ExecutionRequest::new(&m.a, &m.b).strategy(MappingStrategy::Heuristic))
            });
            let ex = ex.expect("direct run of a pool layer");
            Expected {
                dataflow: ex.dataflow,
                digest: digest_hex(matrix_digest(&ex.output.c)),
                report: ex.output.report,
            }
        })
        .collect()
}

/// Whether a reply succeeded and matches the direct run of its layer.
pub fn reply_ok(r: &Reply, expected: &[Expected]) -> bool {
    match &r.answer {
        Answer::Done {
            dataflow,
            digest,
            cycles,
            ..
        } => {
            let e = &expected[r.planned.layer];
            *dataflow == e.dataflow && *digest == e.digest && *cycles == e.report.total_cycles
        }
        Answer::Failed(_) => false,
    }
}

fn latencies(replies: &[Reply]) -> Vec<f64> {
    replies.iter().map(|r| r.timing.latency_ms()).collect()
}

/// Mean simulated cycles over the successful replies.
fn cycles_per_job(replies: &[Reply]) -> f64 {
    let cycles: Vec<f64> = replies
        .iter()
        .filter_map(|r| match r.answer {
            Answer::Done { cycles, .. } => Some(cycles as f64),
            Answer::Failed(_) => None,
        })
        .collect();
    cycles.iter().sum::<f64>() / cycles.len().max(1) as f64
}

/// The untraced run.
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut res = RunResult::default();
    let off = Recorder::new(false);
    let (prep, setup_s) = repeated_setup(cfg, || prepare(cfg.seed, &off));
    let fixed = Schedule::for_duration(RATE_RPS, cfg.seconds);
    let plan = request_plan(cfg.seed, 0, fixed.count, prep.pool.len());
    let replies = drive(&prep, &plan, Pacing::Open(fixed), &off);
    let closed_plan = request_plan(cfg.seed, 1, CLOSED_REQUESTS, prep.pool.len());
    let mut closed = Vec::new();
    let mut pass_s = Vec::new();
    for _ in 0..CLOSED_PASSES {
        let t = Instant::now();
        closed.extend(drive(&prep, &closed_plan, Pacing::Closed, &off));
        pass_s.push(t.elapsed().as_secs_f64());
    }
    let exp = expected(&prep, &off);
    for r in replies.iter().chain(&closed) {
        res.count(reply_ok(r, &exp));
    }
    let late: Vec<f64> = replies.iter().map(|r| r.timing.lateness_ms()).collect();
    let late = Summary::of(&late);
    res.push("setup_s", setup_s, "s");
    res.push("wall_s", median(&pass_s), "s");
    let tail = res.push_latency("fixed-rate request", &latencies(&replies));
    res.push("sim_cycles_per_job", cycles_per_job(&replies), "cycles");
    res.note(format!(
        "p{} latency {:.3} ms is {} the {LIMIT_MS} ms limit",
        tail.tail_p,
        tail.tail,
        if tail.tail <= LIMIT_MS {
            "within"
        } else {
            "over"
        }
    ));
    res.note(format!(
        "fixed rate {RATE_RPS} req/s for {:.1} s ({} requests, {} connections); generator \
         lateness p50 {:.3} ms, p{} {:.3} ms; wall_s is the median of {CLOSED_PASSES} \
         closed-loop passes of {CLOSED_REQUESTS} requests ({pass_s:.3?} s)",
        fixed.span_ns() as f64 / 1e9,
        replies.len(),
        nproc(),
        late.p50,
        late.tail_p,
        late.tail
    ));
    prep.server.shutdown();
    res
}

/// The value at `path` in a `stats` snapshot.
fn stat<'v>(v: &'v serde::Value, path: &[&str]) -> Option<&'v serde::Value> {
    path.iter().try_fold(v, |cur, key| {
        cur.as_map()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, next)| next)
    })
}

/// The traced run: the fixed-rate phase once untraced and once traced,
/// with client-side spans per request, the server's own queue and
/// execution times, and probes of the protocol parser and the mapper.
pub fn run_traced(cfg: &RunConfig) -> RunResult {
    let mut res = RunResult::default();
    let rec = Recorder::new(true);
    let prep = prepare(cfg.seed, &rec);
    let fixed = Schedule::for_duration(RATE_RPS, cfg.seconds / 2.0);
    let plan = request_plan(cfg.seed, 0, fixed.count, prep.pool.len());
    let plain = drive(&prep, &plan, Pacing::Open(fixed), &Recorder::new(false));
    let traced = drive(&prep, &plan, Pacing::Open(fixed), &rec);
    let exp = expected(&prep, &rec);
    for r in plain.iter().chain(&traced) {
        res.count(reply_ok(r, &exp));
    }
    let stats = Client::connect(&prep.addr)
        .and_then(|mut c| c.request(&Request::Stats))
        .map(|r| match r {
            Response::Stats(v) => v,
            _ => serde::Value::Null,
        })
        .unwrap_or(serde::Value::Null);
    // Protocol parse rate on the upload payloads, one per pool layer.
    let mut parse_bytes = 0usize;
    let mut parse_ns = 0u64;
    for layer in 0..prep.pool.len() {
        let p = prep.wire.payload(&Planned {
            layer,
            tenant: 0,
            upload: true,
        });
        let t = Instant::now();
        let parsed = rec.span("serve.protocol.parse", layer as u64, None, |_| {
            parse_request(p.as_bytes())
        });
        parse_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        parse_bytes += p.len();
        res.count(parsed.is_ok());
    }
    // Mapper: the heuristic's pick against the six-dataflow oracle.
    let accel = Flexagon::new(AcceleratorConfig::table5());
    let acfg = AcceleratorConfig::table5();
    let mut top1 = 0usize;
    let mut regret = Vec::new();
    for (job, (_, m)) in (0u64..).zip(&prep.pool) {
        let pick = rec.span("core.mapper.heuristic", job, None, |_| {
            mapper::heuristic_among(&acfg, &m.a, &m.b, &Dataflow::ALL)
        });
        let oracle = accel
            .execute(ExecutionRequest::new(&m.a, &m.b).strategy(MappingStrategy::Oracle))
            .expect("oracle run of a pool layer");
        let picked = exp[job as usize].report.total_cycles;
        top1 += usize::from(pick == oracle.dataflow);
        regret.push(picked as f64 / oracle.output.report.total_cycles.max(1) as f64);
    }
    prep.server.shutdown();
    let spans = rec.take();
    let by_name = self_time_by_name(&spans);
    let ms = |name: &str| by_name.get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e6);
    // Engine time per dataflow from the direct runs, weighted by how often
    // the traced phase requested each layer.
    let mut weights = vec![0u64; prep.pool.len()];
    for r in &traced {
        weights[r.planned.layer] += 1;
    }
    let mut cycles: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut engine_ns: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut tally = SimTally::default();
    for s in spans.iter().filter(|s| s.name.starts_with("core.engine.")) {
        let w = weights[s.job as usize];
        let e = engine_ns.entry(s.name).or_default();
        e.0 += w;
        e.1 += s.duration_ns() * w;
        *cycles.entry(s.name).or_default() += exp[s.job as usize].report.total_cycles * w;
    }
    for r in &traced {
        tally.add(&exp[r.planned.layer].report);
    }
    let done: Vec<(&Reply, u64, u64)> = traced
        .iter()
        .filter_map(|r| match r.answer {
            Answer::Done {
                queue_us, exec_us, ..
            } => Some((r, queue_us, exec_us)),
            Answer::Failed(_) => None,
        })
        .collect();
    let pct = |v: Vec<f64>| Summary::of(&v);
    let queue = pct(done.iter().map(|d| d.1 as f64 / 1e3).collect());
    let exec = pct(done.iter().map(|d| d.2 as f64 / 1e3).collect());
    let overhead = pct(done
        .iter()
        .map(|d| d.0.timing.service_ms() - (d.1 + d.2) as f64 / 1e3)
        .collect());
    let service = |rs: &[Reply], upload: bool| {
        let v: Vec<f64> = rs
            .iter()
            .filter(|r| r.planned.upload == upload)
            .map(|r| r.timing.service_ms())
            .collect();
        median(&v)
    };
    let late = pct(traced.iter().map(|r| r.timing.lateness_ms()).collect());
    let all_service =
        |rs: &[Reply]| median(&rs.iter().map(|r| r.timing.service_ms()).collect::<Vec<_>>());
    let calls = by_name
        .get("core.mapper.heuristic")
        .map_or(1, |&(n, _)| n.max(1));
    res.push("dnn.materialize_ms", ms("dnn.materialize"), "ms");
    res.metrics.extend(engine_metrics(&engine_ns, &cycles));
    res.push(
        "core.mapper.heuristic_us",
        ms("core.mapper.heuristic") * 1e3 / calls as f64,
        "us",
    );
    res.push(
        "core.mapper.top1",
        top1 as f64 / prep.pool.len() as f64,
        "ratio",
    );
    res.push("core.mapper.regret", geomean(&regret), "ratio");
    res.metrics.extend(tally.metrics());
    res.push("serve.queue_ms.p50", queue.p50, "ms");
    res.push("serve.queue_ms.p99", queue.tail, "ms");
    res.push("serve.exec_ms.p50", exec.p50, "ms");
    res.push("serve.exec_ms.p99", exec.tail, "ms");
    res.push("serve.overhead_ms.p50", overhead.p50, "ms");
    res.push("serve.overhead_ms.p99", overhead.tail, "ms");
    res.push("serve.upload.p50_ms", service(&traced, true), "ms");
    res.push("serve.hit.p50_ms", service(&traced, false), "ms");
    res.push(
        "serve.protocol.parse_mb_per_s",
        parse_bytes as f64 / 1e6 / (parse_ns as f64 / 1e9),
        "MB/s",
    );
    res.push(
        "serve.cache.hit_ratio",
        stat(&stats, &["cache", "hit_rate"])
            .and_then(serde::Value::as_f64)
            .unwrap_or(0.0),
        "ratio",
    );
    let per_tenant = |key: &str| -> f64 {
        TENANTS
            .iter()
            .filter_map(|t| stat(&stats, &["tenants", t, key])?.as_u64())
            .sum::<u64>() as f64
    };
    res.push("serve.shed", per_tenant("shed"), "count");
    res.push("serve.queue_full", per_tenant("rejected"), "count");
    res.push(
        "serve.timeouts",
        per_tenant("timed_out") + per_tenant("cancelled"),
        "count",
    );
    res.push("bench.gen.late_p99_ms", late.tail, "ms");
    res.push(
        "bench.trace_overhead_pct",
        (all_service(&traced) / all_service(&plain) - 1.0) * 100.0,
        "%",
    );
    res.note(format!(
        "two fixed-rate phases of {} requests at {RATE_RPS} req/s (untraced, then traced); \
         tails are p{} of {} replies; client encode {:.1} ms, write {:.1} ms in total; trace \
         overhead compares median service latency",
        plan.len(),
        queue.tail_p,
        queue.n,
        ms("serve.client.encode"),
        ms("serve.client.write")
    ));
    res.trace = Some(to_json_lines(&spans));
    res
}
