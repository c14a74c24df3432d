//! Property tests for the wire protocol: message round-trips are
//! byte-stable, and no byte garbage — malformed JSON, truncated frames,
//! lying length prefixes — can panic the parsing path.

use flexagon_core::{Dataflow, FormatChoice, MappingStrategy};
use flexagon_serve::protocol::{
    digest_hex, matrix_digest, parse_request, write_frame, write_message, ErrorCode, FrameEvent,
    FrameReader, ModelRequest, RawValue, Request, Response, SpGemmRequest, SpGemmResponse,
};
use flexagon_sparse::FiberFormat;
use flexagon_sparse::MajorOrder;
use proptest::prelude::*;
use rand::SeedableRng;
use serde::Serialize;

fn random_matrix(seed: u64, dim: u32, density: f64) -> flexagon_sparse::CompressedMatrix {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    flexagon_sparse::gen::random(dim, dim, density, MajorOrder::Row, &mut rng)
}

fn strategy_from(idx: usize) -> MappingStrategy {
    match idx % 8 {
        0 => MappingStrategy::Oracle,
        1 => MappingStrategy::Heuristic,
        n => MappingStrategy::Fixed(Dataflow::ALL[n - 2]),
    }
}

fn format_from(idx: usize) -> FormatChoice {
    match idx % 6 {
        0 => FormatChoice::Config,
        n => FormatChoice::Fixed(FiberFormat::ALL[n - 1]),
    }
}

/// Round-trips a message through JSON text twice and checks the two
/// renderings agree byte for byte (the serializer is deterministic and
/// the value model loses nothing, so one parse must be a fixed point).
fn assert_byte_stable<T: Serialize + serde::Deserialize>(msg: &T) {
    let first = serde_json::to_string(msg).expect("serialize");
    let parsed: T = serde_json::from_str(&first).expect("roundtrip parse");
    let second = serde_json::to_string(&parsed).expect("reserialize");
    assert_eq!(first, second);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every SpGEMM request shape round-trips byte-stably: inline
    /// operands, cache ids, both, all strategies, optional timeout.
    #[test]
    fn spgemm_request_roundtrip(
        seed in 0u64..1_000_000,
        dim in 1u32..24,
        density in 0.05f64..0.9,
        strat in 0usize..8,
        flags in 0u32..32,
    ) {
        let with_inline = flags & 1 != 0;
        let with_ids = flags & 2 != 0 || !with_inline;
        let req = Request::spgemm(SpGemmRequest {
            tenant: format!("tenant-{}", seed % 5),
            strategy: strategy_from(strat),
            format: format_from(strat + seed as usize),
            a: with_inline.then(|| random_matrix(seed, dim, density)),
            b: with_inline.then(|| random_matrix(seed ^ 1, dim, density)),
            a_id: with_ids.then(|| format!("a-{seed}")),
            b_id: with_ids.then(|| format!("b-{seed}")),
            want_output: flags & 4 != 0,
            timeout_ms: (flags & 8 != 0).then_some(1000 + u64::from(flags)),
        });
        assert_byte_stable(&req);
    }

    /// Model requests and the frameless requests round-trip byte-stably.
    #[test]
    fn other_requests_roundtrip(seed in 0u64..1_000_000, strat in 0usize..8) {
        let model = Request::Model(ModelRequest {
            tenant: format!("t{}", seed % 3),
            model: ["A", "S-R", "MB"][(seed % 3) as usize].to_owned(),
            strategy: strategy_from(strat),
            format: format_from(strat),
            seed,
            timeout_ms: (seed % 2 == 0).then_some(seed % 10_000 + 1),
        });
        assert_byte_stable(&model);
        assert_byte_stable(&Request::Ping);
        assert_byte_stable(&Request::Stats);
        assert_byte_stable(&Request::Shutdown);
    }

    /// Result responses round-trip byte-stably, with and without the
    /// output matrix.
    #[test]
    fn result_response_roundtrip(
        seed in 0u64..1_000_000,
        dim in 1u32..24,
        with_c in 0u32..2,
        df in 0usize..6,
    ) {
        let c = random_matrix(seed, dim, 0.4);
        let resp = Response::Result(SpGemmResponse {
            dataflow: Dataflow::ALL[df],
            c_digest: digest_hex(matrix_digest(&c)),
            c: (with_c == 1).then_some(c),
            report: serde::Value::Map(vec![
                ("total_cycles".into(), serde::Value::UInt(seed)),
                ("speedup".into(), serde::Value::Float(1.5)),
            ]),
            queue_us: seed % 7_000,
            exec_us: seed % 11_000,
        });
        assert_byte_stable(&resp);
        assert_byte_stable(&Response::Pong);
        assert_byte_stable(&Response::Ok);
        // Cycle through the shedding/deadline codes so the overload
        // surface (`overloaded`, `timeout`, `queue_full`) round-trips
        // under fuzzed details too.
        let code = [ErrorCode::QueueFull, ErrorCode::Overloaded, ErrorCode::Timeout]
            [(seed % 3) as usize];
        assert_byte_stable(&Response::Error {
            code,
            detail: format!("queue at {seed}"),
        });
    }

    /// Arbitrary payload bytes never panic the request parser; non-JSON
    /// and non-request JSON both surface `bad_request`.
    #[test]
    fn garbage_payloads_are_rejected_not_fatal(bytes in collection::vec(0u8..=255, 0..200)) {
        if let Err((code, _)) = parse_request(&bytes) {
            assert_eq!(code, ErrorCode::BadRequest);
        }
        // An Ok is fine too (the fuzz may spell a valid request); the
        // property is only that malformed input maps to a clean error.
    }

    /// Frames survive arbitrary payloads and chunked arrival; truncation
    /// is always detected as an unclean close, never a hang or a panic.
    #[test]
    fn frame_truncation_is_detected(
        payload in collection::vec(0u8..=255, 0..300),
        cut in 0usize..304,
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let cut = cut.min(wire.len());
        let mut reader = FrameReader::new(1 << 20);
        let mut cursor = std::io::Cursor::new(wire[..cut].to_vec());
        match reader.read(&mut cursor).unwrap() {
            FrameEvent::Frame(p) => {
                assert_eq!(cut, wire.len(), "full frame only at no truncation");
                assert_eq!(p, payload);
            }
            FrameEvent::Closed { clean } => {
                assert!(cut < wire.len());
                // A cut inside the 4-byte header or the payload is unclean;
                // only an empty stream is a clean close.
                assert_eq!(clean, cut == 0);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    /// A lying length prefix above the ceiling is rejected before any
    /// allocation, whatever follows it.
    #[test]
    fn oversized_prefix_rejected(len in (1u64 << 20)..(u32::MAX as u64), junk in 0u8..255) {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(len as u32).to_be_bytes());
        wire.extend_from_slice(&[junk; 8]);
        let mut reader = FrameReader::new(1 << 20);
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            reader.read(&mut cursor).unwrap(),
            FrameEvent::TooLarge(l) if l == len
        ));
    }
}

/// Every error-code wire token round-trips through `as_str` /
/// `from_str_token`, and an `error` response carrying it is byte-stable —
/// in particular the overload/deadline codes a retrying client branches on.
#[test]
fn every_error_code_token_roundtrips() {
    let all = [
        ErrorCode::BadRequest,
        ErrorCode::UnknownMatrix,
        ErrorCode::InvalidOperand,
        ErrorCode::UnknownModel,
        ErrorCode::QueueFull,
        ErrorCode::Overloaded,
        ErrorCode::Timeout,
        ErrorCode::Draining,
        ErrorCode::Engine,
        ErrorCode::Internal,
    ];
    for code in all {
        assert_eq!(ErrorCode::from_str_token(code.as_str()), Some(code));
        assert_byte_stable(&Response::Error {
            code,
            detail: format!("detail for {code}"),
        });
    }
    assert_eq!(ErrorCode::Overloaded.as_str(), "overloaded");
    assert!(ErrorCode::from_str_token("frobnicated").is_none());
}

/// A stream carrying several frames back to back parses into exactly
/// those frames — the reader keeps residual bytes across reads.
#[test]
fn pipelined_frames_parse_in_order() {
    let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; i as usize * 7]).collect();
    let mut wire = Vec::new();
    for p in &payloads {
        write_frame(&mut wire, p).unwrap();
    }
    let mut reader = FrameReader::new(1 << 20);
    let mut cursor = std::io::Cursor::new(wire);
    for expected in &payloads {
        match reader.read(&mut cursor).unwrap() {
            FrameEvent::Frame(p) => assert_eq!(&p, expected),
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert!(matches!(
        reader.read(&mut cursor).unwrap(),
        FrameEvent::Closed { clean: true }
    ));
}

/// `write_message` and the typed parse agree end to end, and the stats
/// payload renders through [`RawValue`].
#[test]
fn message_framing_roundtrip() {
    let mut wire = Vec::new();
    write_message(&mut wire, &Request::Ping).unwrap();
    let stats = serde::Value::Map(vec![("queue_depth".into(), serde::Value::UInt(3))]);
    write_message(&mut wire, &Response::Stats(stats.clone())).unwrap();
    let mut reader = FrameReader::new(1 << 20);
    let mut cursor = std::io::Cursor::new(wire);
    let FrameEvent::Frame(p1) = reader.read(&mut cursor).unwrap() else {
        panic!("expected request frame");
    };
    assert!(matches!(parse_request(&p1), Ok(Request::Ping)));
    let FrameEvent::Frame(p2) = reader.read(&mut cursor).unwrap() else {
        panic!("expected response frame");
    };
    let resp: Response = serde_json::from_str(std::str::from_utf8(&p2).unwrap()).unwrap();
    let Response::Stats(got) = resp else {
        panic!("expected stats response");
    };
    assert_eq!(
        serde_json::to_string(&RawValue(&got)).unwrap(),
        serde_json::to_string(&RawValue(&stats)).unwrap()
    );
}
