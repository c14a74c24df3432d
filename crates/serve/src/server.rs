//! The daemon: accept loop, connection handling, and lifecycle.
//!
//! One thread accepts (non-blocking, polled so shutdown is prompt), one
//! thread per connection speaks the frame protocol, and the scheduler's
//! worker pool executes jobs. Connection threads resolve operands against
//! the shared cache, submit to the scheduler, and relay the reply — so a
//! slow job never blocks frame parsing on *other* connections, and a
//! client disconnecting mid-request only kills its own relay (the job
//! still completes; the send into the closed channel is discarded).

use crate::cache::OperandCache;
use crate::fault::FaultPlan;
use crate::net::{Listener, Stream};
use crate::protocol::{
    parse_request, write_message, ErrorCode, FrameEvent, FrameReader, Request, Response,
    DEFAULT_MAX_FRAME_BYTES,
};
use crate::scheduler::{resolve_operands, Job, JobKind, Scheduler};
use crate::stats::StatsRegistry;
use flexagon_core::EngineConfig;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address: `host:port` or `unix:<path>` (port `0` = ephemeral).
    pub addr: String,
    /// Scheduler worker threads (concurrent jobs).
    pub workers: usize,
    /// Total intra-layer shard-thread budget shared by in-flight jobs
    /// (see `intra_layer_worker_budget`).
    pub worker_budget: usize,
    /// Queued-job capacity before `queue_full` backpressure.
    pub queue_capacity: usize,
    /// Engine template for every job (grain, shard workers, thresholds).
    pub engine: EngineConfig,
    /// Operand-cache byte budget.
    pub cache_budget_bytes: u64,
    /// Per-frame payload ceiling.
    pub max_frame_bytes: u64,
    /// Default end-to-end deadline (queue wait + execution) for requests
    /// that set no `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Fault-injection plan for chaos testing ([`FaultPlan::none`] in
    /// production — one relaxed atomic load per job/frame when empty).
    pub faults: Arc<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            worker_budget: std::thread::available_parallelism().map_or(2, usize::from),
            queue_capacity: 64,
            engine: EngineConfig::default(),
            cache_budget_bytes: 256 << 20,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            default_timeout_ms: 30_000,
            faults: Arc::new(FaultPlan::none()),
        }
    }
}

struct ServerShared {
    scheduler: Scheduler,
    cache: OperandCache,
    stats: Arc<StatsRegistry>,
    stop_accept: AtomicBool,
    drain_requested: AtomicBool,
    open_connections: AtomicUsize,
    max_frame_bytes: u64,
    default_timeout: Duration,
    faults: Arc<FaultPlan>,
}

/// A running daemon (in-process handle).
pub struct Server {
    shared: Arc<ServerShared>,
    addr: String,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Self> {
        let listener = Listener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.display_addr();
        let stats = Arc::new(StatsRegistry::new());
        let shared = Arc::new(ServerShared {
            scheduler: Scheduler::start(
                cfg.workers,
                cfg.worker_budget,
                cfg.queue_capacity,
                cfg.engine,
                Arc::clone(&stats),
                Arc::clone(&cfg.faults),
            ),
            cache: OperandCache::new(cfg.cache_budget_bytes),
            stats,
            stop_accept: AtomicBool::new(false),
            drain_requested: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            max_frame_bytes: cfg.max_frame_bytes,
            default_timeout: Duration::from_millis(cfg.default_timeout_ms.max(1)),
            faults: cfg.faults,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        Ok(Self {
            shared,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The resolved address clients should dial.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Begins a graceful drain (idempotent): queued jobs are rejected,
    /// in-flight jobs finish, new connections are turned away.
    pub fn begin_drain(&self) {
        self.shared.drain_requested.store(true, Ordering::SeqCst);
        self.shared.scheduler.begin_drain();
    }

    /// Whether a drain was requested — by [`Server::begin_drain`] or by a
    /// client's `shutdown` request. The daemon binary polls this to exit.
    pub fn drain_requested(&self) -> bool {
        self.shared.drain_requested.load(Ordering::SeqCst)
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> usize {
        self.shared.open_connections.load(Ordering::SeqCst)
    }

    /// Drains, stops accepting, and joins the accept thread and worker
    /// pool. Connection threads exit on their own once their clients
    /// observe the drain; this does not wait for them.
    pub fn shutdown(mut self) {
        self.begin_drain();
        self.shared.stop_accept.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // The scheduler handle lives inside `shared`; draining again is
        // idempotent and the workers exit once the queue is empty. Joining
        // them requires ownership, so wait for the in-flight count instead.
        while self.shared.scheduler.in_flight() > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_drain();
        self.shared.stop_accept.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &Listener, shared: &Arc<ServerShared>) {
    while !shared.stop_accept.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                let conn_shared = Arc::clone(shared);
                conn_shared.open_connections.fetch_add(1, Ordering::SeqCst);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_owned())
                    .spawn(move || {
                        connection_loop(stream, &conn_shared);
                        conn_shared.open_connections.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    shared.open_connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn connection_loop(mut stream: Stream, shared: &Arc<ServerShared>) {
    // Periodic read timeouts let the loop observe shutdown between frames.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = FrameReader::new(shared.max_frame_bytes);
    loop {
        let event = match reader.read(&mut stream) {
            Ok(ev) => ev,
            Err(_) => return, // connection-level I/O failure: drop it
        };
        let payload = match event {
            FrameEvent::Frame(mut p) => {
                // Chaos injection point: corrupting here, after framing but
                // before parsing, models bit-rot on the wire. Corrupted
                // bytes are never valid UTF-8, so the parse below answers a
                // typed `bad_request` and the connection stays usable.
                shared.faults.corrupt_frame(&mut p);
                p
            }
            FrameEvent::Timeout => {
                if shared.stop_accept.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            FrameEvent::Closed { .. } => return,
            FrameEvent::TooLarge(len) => {
                // The framing boundary is lost: report and hang up.
                shared.stats.record_bad_frame();
                let _ = write_message(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::BadRequest,
                        detail: format!(
                            "frame of {len} bytes exceeds the {} byte limit",
                            shared.max_frame_bytes
                        ),
                    },
                );
                return;
            }
        };
        let request = match parse_request(&payload) {
            Ok(r) => r,
            Err((code, detail)) => {
                // Malformed payload inside an intact frame: the boundary is
                // sound, so answer the error and keep the connection.
                shared.stats.record_bad_frame();
                if write_message(&mut stream, &Response::Error { code, detail }).is_err() {
                    return;
                }
                continue;
            }
        };
        let response = handle_request(shared, request);
        if write_message(&mut stream, &response).is_err() {
            return;
        }
    }
}

fn handle_request(shared: &Arc<ServerShared>, request: Request) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(shared.stats.snapshot(
            crate::stats::Gauges {
                queue_depth: shared.scheduler.queue_depth(),
                in_flight: shared.scheduler.in_flight(),
                queue_depth_high_water: shared.scheduler.queue_depth_high_water(),
                degraded: shared.scheduler.degraded(),
            },
            shared.cache.stats(),
            shared.faults.injected(),
        )),
        Request::Shutdown => {
            shared.drain_requested.store(true, Ordering::SeqCst);
            shared.scheduler.begin_drain();
            Response::Ok
        }
        Request::SpGemm(r) => {
            // The cache holds raw operands: every format runs on them (and
            // `q8` quantizes a private copy), so one id is one entry
            // whatever format a request pins.
            let (a, b) = match resolve_operands(
                &shared.cache,
                r.a,
                r.a_id.as_deref(),
                r.b,
                r.b_id.as_deref(),
            ) {
                Ok(ops) => ops,
                Err((code, detail)) => return Response::Error { code, detail },
            };
            submit_and_wait(
                shared,
                r.tenant,
                r.timeout_ms,
                JobKind::SpGemm {
                    a,
                    b,
                    strategy: r.strategy,
                    format: r.format,
                    want_output: r.want_output,
                },
            )
        }
        Request::Model(r) => {
            let Some(model) = flexagon_dnn::suite().into_iter().find(|m| {
                m.short.eq_ignore_ascii_case(&r.model) || m.name.eq_ignore_ascii_case(&r.model)
            }) else {
                return Response::Error {
                    code: ErrorCode::UnknownModel,
                    detail: format!("no suite model named '{}'", r.model),
                };
            };
            submit_and_wait(
                shared,
                r.tenant,
                r.timeout_ms,
                JobKind::Model {
                    model,
                    strategy: r.strategy,
                    format: r.format,
                    seed: r.seed,
                },
            )
        }
    }
}

fn submit_and_wait(
    shared: &Arc<ServerShared>,
    tenant: String,
    timeout_ms: Option<u64>,
    kind: JobKind,
) -> Response {
    let timeout = timeout_ms.map_or(shared.default_timeout, |ms| {
        Duration::from_millis(ms.max(1))
    });
    let now = Instant::now();
    let deadline = now + timeout;
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        tenant: tenant.clone(),
        kind,
        enqueued: now,
        deadline,
        // The end-to-end deadline, as a token: the scheduler hands it to
        // the worker, which threads it through the engine — a job still
        // executing at the deadline is cooperatively cancelled.
        cancel: flexagon_core::CancelToken::with_deadline(deadline),
        est_cycles: None,
        reply: reply_tx,
    };
    if let Err((_, code)) = shared.scheduler.submit(job) {
        let (outcome, detail) = match code {
            ErrorCode::QueueFull => (
                crate::stats::Outcome::Rejected,
                "job queue is full — retry with backoff".to_owned(),
            ),
            ErrorCode::Overloaded => (
                crate::stats::Outcome::Shed,
                "admission control: estimated cost exceeds the deadline at current load — \
                 retry with backoff or a longer timeout_ms"
                    .to_owned(),
            ),
            _ => (
                crate::stats::Outcome::Rejected,
                "daemon is draining".to_owned(),
            ),
        };
        shared.stats.record(&tenant, outcome, 0, 0);
        return Response::Error { code, detail };
    }
    // The worker always answers: result, engine error, timeout, or drain
    // rejection — normally within the deadline (cancellation fires at the
    // next engine boundary). The response window is a backstop well past
    // 2× the deadline: if even cancellation could not reclaim the worker,
    // answer typed instead of hanging the connection forever.
    let response_window = timeout
        .saturating_mul(2)
        .saturating_add(Duration::from_secs(5));
    match reply_rx.recv_timeout(response_window) {
        Ok(resp) => resp,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            shared
                .stats
                .record(&tenant, crate::stats::Outcome::TimedOut, 0, 0);
            Response::Error {
                code: ErrorCode::Timeout,
                detail: format!(
                    "no worker response within the {} ms response window",
                    response_window.as_millis()
                ),
            }
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => Response::Error {
            code: ErrorCode::Internal,
            detail: "worker disappeared before answering".to_owned(),
        },
    }
}
