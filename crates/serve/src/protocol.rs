//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! The framing layer is deliberately dumb (no versioning handshake, no
//! compression) so any language with a socket and a JSON library can speak
//! it; the JSON payloads are self-describing objects with a `"type"` tag.
//!
//! # Requests
//!
//! | `type`     | fields |
//! |------------|--------|
//! | `ping`     | — |
//! | `spgemm`   | `tenant?`, `strategy?`, `format?`, `a?`/`b?` (matrices), `a_id?`/`b_id?` (cache keys), `want_output?`, `timeout_ms?` |
//! | `model`    | `tenant?`, `model` (suite short code or name), `strategy?`, `format?`, `seed?`, `timeout_ms?` |
//!
//! `format` pins the fiber storage format like `strategy` pins the
//! dataflow: a [`FormatChoice`] token (`soa`, `bcsr4`, `bcsr8`, `ell`,
//! `q8`). Omitted, the daemon's configured default applies. An unknown
//! token, `auto` included, is a typed `bad_request`.
//! | `stats`    | — |
//! | `shutdown` | — (begins a graceful drain) |
//!
//! # Responses
//!
//! `pong`, `ok`, `result` (SpGEMM output: dataflow, digest, optional
//! matrix, full execution report, latency split), `model_result`, `stats`,
//! and `error` (machine-readable `code` + human `detail`). A malformed
//! frame produces an `error` response and leaves the connection usable;
//! only a lost framing boundary (oversized length prefix, truncated
//! stream) closes it.
//!
//! Matrices travel in the same JSON shape `CompressedMatrix` serializes to
//! everywhere else in the workspace (goldens, reports), so a served result
//! with `want_output` is byte-comparable against a direct `execute`.

use flexagon_core::{Dataflow, FormatChoice, MappingStrategy};
use flexagon_sparse::CompressedMatrix;
use serde::{DeError, Deserialize, Serialize, Value};
use std::io::{Read, Write};

/// Default ceiling on one frame's payload (64 MiB): large enough for the
/// workloads the simulator runs, small enough that a garbage length prefix
/// cannot make the daemon allocate unbounded memory.
pub const DEFAULT_MAX_FRAME_BYTES: u64 = 64 << 20;

/// Machine-readable error codes carried by `error` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The payload was not valid UTF-8 JSON or not a recognized request.
    BadRequest,
    /// An `a_id`/`b_id` referenced a matrix the operand cache does not hold.
    UnknownMatrix,
    /// An operand decoded but failed untrusted-input validation (broken
    /// structure, non-finite values, resource-bomb dimensions).
    InvalidOperand,
    /// A `model` request named a model outside the DNN suite.
    UnknownModel,
    /// The job queue is at capacity — back off and retry.
    QueueFull,
    /// Admission control judged the job infeasible: its estimated cost
    /// cannot fit inside its deadline at current load. Distinct from
    /// [`ErrorCode::QueueFull`] (the queue has room, the *deadline*
    /// doesn't) — retrying with a longer deadline may succeed; retrying
    /// with the same one will not until load falls.
    Overloaded,
    /// The job's end-to-end deadline passed — before a worker could start
    /// it, or mid-execution (the engine was cooperatively cancelled).
    Timeout,
    /// The daemon is draining: in-flight jobs finish, new work is refused.
    Draining,
    /// The engine rejected the job (e.g. operand dimension mismatch).
    Engine,
    /// The daemon failed internally (a worker vanished mid-job).
    Internal,
}

impl ErrorCode {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::BadRequest => "bad_request",
            Self::UnknownMatrix => "unknown_matrix",
            Self::InvalidOperand => "invalid_operand",
            Self::UnknownModel => "unknown_model",
            Self::QueueFull => "queue_full",
            Self::Overloaded => "overloaded",
            Self::Timeout => "timeout",
            Self::Draining => "draining",
            Self::Engine => "engine",
            Self::Internal => "internal",
        }
    }

    /// Parses a wire token.
    pub fn from_str_token(s: &str) -> Option<Self> {
        Some(match s {
            "bad_request" => Self::BadRequest,
            "unknown_matrix" => Self::UnknownMatrix,
            "invalid_operand" => Self::InvalidOperand,
            "unknown_model" => Self::UnknownModel,
            "queue_full" => Self::QueueFull,
            "overloaded" => Self::Overloaded,
            "timeout" => Self::Timeout,
            "draining" => Self::Draining,
            "engine" => Self::Engine,
            "internal" => Self::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One SpGEMM job: operands (inline, cached, or both), strategy, options.
#[derive(Debug, Clone)]
pub struct SpGemmRequest {
    /// Tenant label for per-tenant statistics (default `"anon"`).
    pub tenant: String,
    /// Dataflow selection (default [`MappingStrategy::Heuristic`] — the
    /// production single-run path; `oracle` sweeps all six dataflows).
    pub strategy: MappingStrategy,
    /// Fiber storage format selection (default [`FormatChoice::Config`]:
    /// the daemon's configured engine format).
    pub format: FormatChoice,
    /// Inline operand A. May be omitted when `a_id` names a cached matrix.
    pub a: Option<CompressedMatrix>,
    /// Inline operand B. May be omitted when `b_id` names a cached matrix.
    pub b: Option<CompressedMatrix>,
    /// Operand-cache identity for A: with an inline matrix, offers it to
    /// the cache under this key; alone, requires a cache hit.
    pub a_id: Option<String>,
    /// Operand-cache identity for B (see `a_id`).
    pub b_id: Option<String>,
    /// Return the full output matrix C (default `false`: the response
    /// carries only its digest, sparing the downlink on large outputs).
    pub want_output: bool,
    /// End-to-end deadline in milliseconds, covering queue wait *and*
    /// execution. A job not started within it is rejected with
    /// [`ErrorCode::Timeout`]; one still executing when it passes is
    /// cooperatively cancelled at the engine's next band/tile/merge
    /// boundary and replies `timeout` too. Admission control may reject a
    /// deadline the cost model judges infeasible with
    /// [`ErrorCode::Overloaded`] before queueing. `None` uses the
    /// daemon's default.
    pub timeout_ms: Option<u64>,
}

impl Default for SpGemmRequest {
    fn default() -> Self {
        Self {
            tenant: "anon".to_owned(),
            strategy: MappingStrategy::Heuristic,
            format: FormatChoice::Config,
            a: None,
            b: None,
            a_id: None,
            b_id: None,
            want_output: false,
            timeout_ms: None,
        }
    }
}

/// One DNN-model job: run a whole suite model through the bench runner.
#[derive(Debug, Clone)]
pub struct ModelRequest {
    /// Tenant label for per-tenant statistics.
    pub tenant: String,
    /// Suite model, by short code (`"A"`, `"MB"`, ...) or full name.
    pub model: String,
    /// Dataflow selection per layer.
    pub strategy: MappingStrategy,
    /// Fiber storage format for every layer.
    pub format: FormatChoice,
    /// Workload materialization seed (default [`flexagon_bench::runner::DEFAULT_SEED`]).
    pub seed: u64,
    /// Deadline in milliseconds. Model jobs honor it at queue-pop (a job
    /// not started in time replies `timeout`) but run to completion once
    /// started — the bench runner has no cancellation path; only SpGEMM
    /// jobs are cancelled mid-execution (see
    /// [`SpGemmRequest::timeout_ms`]).
    pub timeout_ms: Option<u64>,
}

impl Default for ModelRequest {
    fn default() -> Self {
        Self {
            tenant: "anon".to_owned(),
            model: String::new(),
            strategy: MappingStrategy::Heuristic,
            format: FormatChoice::Config,
            seed: flexagon_bench::runner::DEFAULT_SEED,
            timeout_ms: None,
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// One SpGEMM job.
    SpGemm(Box<SpGemmRequest>),
    /// One DNN-model job.
    Model(ModelRequest),
    /// Per-tenant and daemon-wide statistics snapshot.
    Stats,
    /// Begin a graceful drain: in-flight jobs finish, queued and new jobs
    /// are rejected, the daemon exits once idle.
    Shutdown,
}

impl Request {
    /// Boxes an [`SpGemmRequest`] into its variant (the matrices make the
    /// struct large enough that the enum is boxed to keep `Request` small).
    pub fn spgemm(r: SpGemmRequest) -> Self {
        Self::SpGemm(Box::new(r))
    }
}

/// A served SpGEMM result.
#[derive(Debug, Clone)]
pub struct SpGemmResponse {
    /// The dataflow the strategy selected.
    pub dataflow: Dataflow,
    /// FNV-1a digest over the output matrix's structure and value bits.
    pub c_digest: String,
    /// The output matrix, when the request set `want_output`.
    pub c: Option<CompressedMatrix>,
    /// The full execution report, as its canonical JSON value — byte-equal
    /// to serializing the report of a direct `execute` of the same
    /// (operands, config).
    pub report: Value,
    /// Microseconds the job waited in the queue.
    pub queue_us: u64,
    /// Microseconds the job spent executing.
    pub exec_us: u64,
}

/// A served model result.
#[derive(Debug, Clone)]
pub struct ModelResponse {
    /// `flexagon_bench::runner::ModelResults` as its canonical JSON value.
    pub results: Value,
    /// Microseconds the job waited in the queue.
    pub queue_us: u64,
    /// Microseconds the job spent executing.
    pub exec_us: u64,
}

/// A daemon response.
#[derive(Debug, Clone)]
pub enum Response {
    /// Reply to `ping`.
    Pong,
    /// Generic acknowledgement (`shutdown`).
    Ok,
    /// SpGEMM result.
    Result(SpGemmResponse),
    /// Model result.
    ModelResult(ModelResponse),
    /// Statistics snapshot (shape documented in the README's serving
    /// section; carried as a raw JSON value).
    Stats(Value),
    /// Request-level failure. The connection remains usable.
    Error {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable description.
        detail: String,
    },
}

/// Newtype lending the shim's raw [`Value`] a [`Serialize`] impl (the
/// shim does not implement its traits for its own value type), so raw
/// payloads like `stats` render through `serde_json` like any message.
pub struct RawValue<'a>(pub &'a Value);

impl Serialize for RawValue<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Serializes a [`MappingStrategy`] as its wire token (`"oracle"`,
/// `"heuristic"`, or a dataflow token like `"ip-m"` for `Fixed`).
pub fn strategy_token(s: MappingStrategy) -> String {
    match s {
        MappingStrategy::Oracle => "oracle".to_owned(),
        MappingStrategy::Heuristic => "heuristic".to_owned(),
        MappingStrategy::Fixed(df) => df.token().to_owned(),
    }
}

fn get_opt<'a>(m: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    m.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .filter(|v| !matches!(v, Value::Null))
}

fn opt_field<T: Deserialize>(m: &[(String, Value)], key: &str) -> Result<Option<T>, DeError> {
    get_opt(m, key).map(T::from_value).transpose()
}

fn push_opt<T: Serialize>(entries: &mut Vec<(String, Value)>, key: &str, v: &Option<T>) {
    if let Some(v) = v {
        entries.push((key.to_owned(), v.to_value()));
    }
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        let mut m: Vec<(String, Value)> = Vec::new();
        match self {
            Self::Ping => m.push(("type".into(), Value::Str("ping".into()))),
            Self::Stats => m.push(("type".into(), Value::Str("stats".into()))),
            Self::Shutdown => m.push(("type".into(), Value::Str("shutdown".into()))),
            Self::SpGemm(r) => {
                m.push(("type".into(), Value::Str("spgemm".into())));
                m.push(("tenant".into(), Value::Str(r.tenant.clone())));
                m.push(("strategy".into(), Value::Str(strategy_token(r.strategy))));
                push_format(&mut m, r.format);
                push_opt(&mut m, "a", &r.a);
                push_opt(&mut m, "b", &r.b);
                push_opt(&mut m, "a_id", &r.a_id);
                push_opt(&mut m, "b_id", &r.b_id);
                m.push(("want_output".into(), Value::Bool(r.want_output)));
                push_opt(&mut m, "timeout_ms", &r.timeout_ms);
            }
            Self::Model(r) => {
                m.push(("type".into(), Value::Str("model".into())));
                m.push(("tenant".into(), Value::Str(r.tenant.clone())));
                m.push(("model".into(), Value::Str(r.model.clone())));
                m.push(("strategy".into(), Value::Str(strategy_token(r.strategy))));
                push_format(&mut m, r.format);
                m.push(("seed".into(), Value::UInt(r.seed)));
                push_opt(&mut m, "timeout_ms", &r.timeout_ms);
            }
        }
        Value::Map(m)
    }
}

fn parse_strategy(m: &[(String, Value)]) -> Result<MappingStrategy, DeError> {
    match get_opt(m, "strategy") {
        None => Ok(MappingStrategy::Heuristic),
        Some(v) => {
            let s = v
                .as_str()
                .ok_or_else(|| DeError::new("strategy must be a string token"))?;
            s.parse().map_err(|e: String| DeError::new(&e))
        }
    }
}

/// Emits the `format` field only when it deviates from the daemon default,
/// keeping pre-format clients' frames byte-identical.
fn push_format(entries: &mut Vec<(String, Value)>, format: FormatChoice) {
    if format != FormatChoice::Config {
        entries.push(("format".into(), Value::Str(format.to_string())));
    }
}

fn parse_format(m: &[(String, Value)]) -> Result<FormatChoice, DeError> {
    match get_opt(m, "format") {
        None => Ok(FormatChoice::Config),
        Some(v) => {
            let s = v
                .as_str()
                .ok_or_else(|| DeError::new("format must be a string token"))?;
            s.parse().map_err(|e: String| DeError::new(&e))
        }
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::new("request must be a JSON object"))?;
        let ty = serde::map_get(m, "type")?
            .as_str()
            .ok_or_else(|| DeError::new("'type' must be a string"))?;
        match ty {
            "ping" => Ok(Self::Ping),
            "stats" => Ok(Self::Stats),
            "shutdown" => Ok(Self::Shutdown),
            "spgemm" => {
                let d = SpGemmRequest::default();
                Ok(Self::spgemm(SpGemmRequest {
                    tenant: opt_field(m, "tenant")?.unwrap_or(d.tenant),
                    strategy: parse_strategy(m)?,
                    format: parse_format(m)?,
                    a: opt_field(m, "a")?,
                    b: opt_field(m, "b")?,
                    a_id: opt_field(m, "a_id")?,
                    b_id: opt_field(m, "b_id")?,
                    want_output: opt_field(m, "want_output")?.unwrap_or(false),
                    timeout_ms: opt_field(m, "timeout_ms")?,
                }))
            }
            "model" => {
                let d = ModelRequest::default();
                Ok(Self::Model(ModelRequest {
                    tenant: opt_field(m, "tenant")?.unwrap_or(d.tenant),
                    model: opt_field(m, "model")?
                        .ok_or_else(|| DeError::new("model request needs a 'model' field"))?,
                    strategy: parse_strategy(m)?,
                    format: parse_format(m)?,
                    seed: opt_field(m, "seed")?.unwrap_or(d.seed),
                    timeout_ms: opt_field(m, "timeout_ms")?,
                }))
            }
            other => Err(DeError::new(&format!("unknown request type '{other}'"))),
        }
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        let mut m: Vec<(String, Value)> = Vec::new();
        match self {
            Self::Pong => m.push(("type".into(), Value::Str("pong".into()))),
            Self::Ok => m.push(("type".into(), Value::Str("ok".into()))),
            Self::Stats(v) => {
                m.push(("type".into(), Value::Str("stats".into())));
                m.push(("stats".into(), v.clone()));
            }
            Self::Error { code, detail } => {
                m.push(("type".into(), Value::Str("error".into())));
                m.push(("code".into(), Value::Str(code.as_str().into())));
                m.push(("detail".into(), Value::Str(detail.clone())));
            }
            Self::Result(r) => {
                m.push(("type".into(), Value::Str("result".into())));
                m.push(("dataflow".into(), Value::Str(r.dataflow.token().into())));
                m.push(("c_digest".into(), Value::Str(r.c_digest.clone())));
                push_opt(&mut m, "c", &r.c);
                m.push(("report".into(), r.report.clone()));
                m.push(("queue_us".into(), Value::UInt(r.queue_us)));
                m.push(("exec_us".into(), Value::UInt(r.exec_us)));
            }
            Self::ModelResult(r) => {
                m.push(("type".into(), Value::Str("model_result".into())));
                m.push(("results".into(), r.results.clone()));
                m.push(("queue_us".into(), Value::UInt(r.queue_us)));
                m.push(("exec_us".into(), Value::UInt(r.exec_us)));
            }
        }
        Value::Map(m)
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::new("response must be a JSON object"))?;
        let ty = serde::map_get(m, "type")?
            .as_str()
            .ok_or_else(|| DeError::new("'type' must be a string"))?;
        match ty {
            "pong" => Ok(Self::Pong),
            "ok" => Ok(Self::Ok),
            "stats" => Ok(Self::Stats(serde::map_get(m, "stats")?.clone())),
            "error" => {
                let code: String = Deserialize::from_value(serde::map_get(m, "code")?)?;
                Ok(Self::Error {
                    code: ErrorCode::from_str_token(&code)
                        .ok_or_else(|| DeError::new(&format!("unknown error code '{code}'")))?,
                    detail: opt_field(m, "detail")?.unwrap_or_default(),
                })
            }
            "result" => {
                let token: String = Deserialize::from_value(serde::map_get(m, "dataflow")?)?;
                Ok(Self::Result(SpGemmResponse {
                    dataflow: Dataflow::from_token(&token)
                        .ok_or_else(|| DeError::new(&format!("unknown dataflow '{token}'")))?,
                    c_digest: Deserialize::from_value(serde::map_get(m, "c_digest")?)?,
                    c: opt_field(m, "c")?,
                    report: serde::map_get(m, "report")?.clone(),
                    queue_us: Deserialize::from_value(serde::map_get(m, "queue_us")?)?,
                    exec_us: Deserialize::from_value(serde::map_get(m, "exec_us")?)?,
                }))
            }
            "model_result" => Ok(Self::ModelResult(ModelResponse {
                results: serde::map_get(m, "results")?.clone(),
                queue_us: Deserialize::from_value(serde::map_get(m, "queue_us")?)?,
                exec_us: Deserialize::from_value(serde::map_get(m, "exec_us")?)?,
            })),
            other => Err(DeError::new(&format!("unknown response type '{other}'"))),
        }
    }
}

/// FNV-1a (64-bit) digest over a matrix's dimensions, order, structure and
/// value *bits* — exact equality of the compressed representation, immune
/// to float-text formatting.
pub fn matrix_digest(m: &CompressedMatrix) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(u64::from(m.rows()));
    eat(u64::from(m.cols()));
    eat(match m.order() {
        flexagon_sparse::MajorOrder::Row => 0,
        flexagon_sparse::MajorOrder::Col => 1,
    });
    for &p in m.ptr() {
        eat(p as u64);
    }
    for &c in m.coords() {
        eat(u64::from(c));
    }
    for &v in m.values() {
        eat(u64::from(v.to_bits()));
    }
    h
}

/// Renders a digest as fixed-width hex (the wire form).
pub fn digest_hex(d: u64) -> String {
    format!("{d:016x}")
}

/// Writes one frame: 4-byte big-endian length, then the payload.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads longer than `u32::MAX` with
/// [`std::io::ErrorKind::InvalidInput`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame payload exceeds u32::MAX",
        )
    })?;
    // One write per frame when affordable: a split header/payload write is
    // two packets on an unbuffered socket (and, under Nagle, a delayed-ACK
    // stall — see `net`). Large payloads keep the two-write path to avoid
    // doubling their memory.
    const COALESCE_LIMIT: usize = 1 << 16;
    if payload.len() <= COALESCE_LIMIT {
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(payload);
        w.write_all(&frame)?;
    } else {
        w.write_all(&len.to_be_bytes())?;
        w.write_all(payload)?;
    }
    w.flush()
}

/// Serializes and writes one message frame.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_message<W: Write, T: Serialize>(w: &mut W, msg: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(msg).expect("shim serialization is infallible");
    write_frame(w, json.as_bytes())
}

/// One observation from [`FrameReader::read`].
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the stream. `clean` is false when the close landed
    /// mid-frame (a truncated frame — the client died or lied about the
    /// length).
    Closed {
        /// True when the stream ended on a frame boundary.
        clean: bool,
    },
    /// The read timed out before a full frame arrived (only with a socket
    /// read timeout configured) — check shutdown flags and call again.
    Timeout,
    /// The declared payload length exceeds the reader's ceiling. The
    /// framing boundary is lost; the caller must close the connection.
    TooLarge(u64),
}

/// Incremental frame reader: accumulates bytes across short reads and
/// timeouts, yielding one [`FrameEvent`] per call.
#[derive(Debug)]
pub struct FrameReader {
    max_frame: u64,
    buf: Vec<u8>,
    scratch: [u8; 16 * 1024],
}

impl FrameReader {
    /// Creates a reader enforcing the given payload ceiling.
    pub fn new(max_frame: u64) -> Self {
        Self {
            max_frame,
            buf: Vec::new(),
            scratch: [0; 16 * 1024],
        }
    }

    /// Extracts a complete frame from the accumulated buffer, if present.
    fn take_frame(&mut self) -> Option<Result<Vec<u8>, u64>> {
        if self.buf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as u64;
        if len > self.max_frame {
            return Some(Err(len));
        }
        let end = 4 + len as usize;
        if self.buf.len() < end {
            return None;
        }
        let payload = self.buf[4..end].to_vec();
        self.buf.drain(..end);
        Some(Ok(payload))
    }

    /// Reads until one frame completes, the stream closes, or the read
    /// times out.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than timeouts (those surface as
    /// [`FrameEvent::Timeout`]) and interrupts (retried).
    pub fn read<R: Read>(&mut self, r: &mut R) -> std::io::Result<FrameEvent> {
        loop {
            match self.take_frame() {
                Some(Ok(p)) => return Ok(FrameEvent::Frame(p)),
                Some(Err(len)) => return Ok(FrameEvent::TooLarge(len)),
                None => {}
            }
            match r.read(&mut self.scratch) {
                Ok(0) => {
                    return Ok(FrameEvent::Closed {
                        clean: self.buf.is_empty(),
                    })
                }
                Ok(n) => self.buf.extend_from_slice(&self.scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(FrameEvent::Timeout)
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Parses a frame payload into a request: UTF-8, then JSON, then shape.
///
/// # Errors
///
/// A `(code, detail)` pair ready to send back as an `error` response.
pub fn parse_request(payload: &[u8]) -> Result<Request, (ErrorCode, String)> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| (ErrorCode::BadRequest, format!("frame is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| (ErrorCode::BadRequest, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut reader = FrameReader::new(1024);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            reader.read(&mut cursor).unwrap(),
            FrameEvent::Frame(p) if p == b"hello"
        ));
        assert!(matches!(
            reader.read(&mut cursor).unwrap(),
            FrameEvent::Frame(p) if p.is_empty()
        ));
        assert!(matches!(
            reader.read(&mut cursor).unwrap(),
            FrameEvent::Closed { clean: true }
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"junk");
        let mut reader = FrameReader::new(1 << 20);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            reader.read(&mut cursor).unwrap(),
            FrameEvent::TooLarge(n) if n == u64::from(u32::MAX)
        ));
    }

    #[test]
    fn truncated_frame_reports_unclean_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full payload").unwrap();
        buf.truncate(buf.len() - 3);
        let mut reader = FrameReader::new(1024);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            reader.read(&mut cursor).unwrap(),
            FrameEvent::Closed { clean: false }
        ));
    }

    #[test]
    fn request_defaults_fill_in() {
        let req: Request = serde_json::from_str(r#"{"type":"spgemm"}"#).unwrap();
        let Request::SpGemm(r) = req else {
            panic!("expected spgemm")
        };
        assert_eq!(r.tenant, "anon");
        assert_eq!(r.strategy, MappingStrategy::Heuristic);
        assert_eq!(r.format, FormatChoice::Config);
        assert!(!r.want_output);
        assert!(r.a.is_none() && r.b.is_none());
    }

    #[test]
    fn format_tokens_roundtrip_and_default_is_omitted() {
        use flexagon_sparse::FiberFormat;
        for (choice, token) in [
            (FormatChoice::Fixed(FiberFormat::Bcsr4), "bcsr4"),
            (FormatChoice::Fixed(FiberFormat::Ell), "ell"),
            (FormatChoice::Fixed(FiberFormat::Quant8), "q8"),
        ] {
            let req = Request::spgemm(SpGemmRequest {
                format: choice,
                ..SpGemmRequest::default()
            });
            let json = serde_json::to_string(&req).unwrap();
            assert!(json.contains(token), "{json} should carry '{token}'");
            let Request::SpGemm(back) = serde_json::from_str(&json).unwrap() else {
                panic!("expected spgemm")
            };
            assert_eq!(back.format, choice);
        }
        // The config default stays off the wire: old clients and new
        // daemons (and vice versa) interoperate without the field.
        let json = serde_json::to_string(&Request::spgemm(SpGemmRequest::default())).unwrap();
        assert!(!json.contains("format"), "default emits no format field");
    }

    #[test]
    fn unknown_format_token_is_bad_request() {
        for (frame, token) in [
            (&br#"{"type":"spgemm","format":"csr5"}"#[..], "csr5"),
            (br#"{"type":"spgemm","format":"auto"}"#, "auto"),
            (br#"{"type":"model","model":"A","format":"auto"}"#, "auto"),
        ] {
            let err = parse_request(frame).unwrap_err();
            assert_eq!(err.0, ErrorCode::BadRequest);
            assert!(err.1.contains(token), "detail names the token: {}", err.1);
        }
    }

    #[test]
    fn strategy_tokens_roundtrip() {
        for s in [
            MappingStrategy::Oracle,
            MappingStrategy::Heuristic,
            MappingStrategy::Fixed(Dataflow::GustavsonN),
        ] {
            let parsed: MappingStrategy = strategy_token(s).parse().unwrap();
            assert_eq!(parsed, s);
        }
    }

    #[test]
    fn digest_distinguishes_value_bits() {
        let a = CompressedMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (1, 1, 2.0)],
            flexagon_sparse::MajorOrder::Row,
        )
        .unwrap();
        let b = CompressedMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (1, 1, -2.0)],
            flexagon_sparse::MajorOrder::Row,
        )
        .unwrap();
        assert_ne!(matrix_digest(&a), matrix_digest(&b));
        assert_eq!(matrix_digest(&a), matrix_digest(&a.clone()));
    }

    #[test]
    fn unknown_request_type_is_bad_request() {
        let err = parse_request(br#"{"type":"frobnicate"}"#).unwrap_err();
        assert_eq!(err.0, ErrorCode::BadRequest);
        let err = parse_request(b"\xff\xfe").unwrap_err();
        assert_eq!(err.0, ErrorCode::BadRequest);
    }
}
