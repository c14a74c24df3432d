//! End-to-end determinism: results served by the daemon are byte-identical
//! to a direct `engine::execute` of the same (operands, config) — under
//! concurrent clients, through the operand cache, and on a sharded engine.

use flexagon_core::{
    Accelerator, AcceleratorConfig, Dataflow, EngineConfig, ExecutionRequest, Flexagon,
    MappingStrategy,
};
use flexagon_serve::protocol::{
    digest_hex, matrix_digest, RawValue, Request, Response, SpGemmRequest,
};
use flexagon_serve::{Client, ServeConfig, Server};
use flexagon_sparse::{CompressedMatrix, MajorOrder};
use rand::SeedableRng;
use serde::Serialize;

fn random_matrix(seed: u64, rows: u32, cols: u32, density: f64) -> CompressedMatrix {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    flexagon_sparse::gen::random(rows, cols, density, MajorOrder::Row, &mut rng)
}

/// Canonical JSON for an in-memory report: serialize, parse, re-serialize —
/// the same Value→text path a served report travels, so byte comparison is
/// apples to apples.
fn report_json<T: Serialize>(report: &T) -> String {
    serde_json::to_string(report).expect("report renders")
}

fn served_report_json(report: &serde::Value) -> String {
    serde_json::to_string(&RawValue(report)).expect("value renders")
}

/// One request/assert cycle: the served result must equal `direct` in
/// output bytes, digest, selected dataflow, and report JSON.
fn assert_served_matches_direct(
    client: &mut Client,
    req: &Request,
    direct_df: Dataflow,
    direct_c: &CompressedMatrix,
    direct_report_json: &str,
) {
    let resp = client.request(req).expect("serve request");
    let Response::Result(r) = resp else {
        panic!("expected a result, got {resp:?}");
    };
    assert_eq!(r.dataflow, direct_df);
    assert_eq!(r.c_digest, digest_hex(matrix_digest(direct_c)));
    let served_c = r.c.as_ref().expect("want_output was set");
    assert_eq!(served_c, direct_c);
    assert_eq!(served_report_json(&r.report), direct_report_json);
}

#[test]
fn served_results_match_direct_execute_under_concurrent_clients() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.local_addr().to_owned();
    // Three clients, each its own operands and strategy, hammering the
    // daemon concurrently: every response must equal that client's direct
    // run, whatever order the scheduler interleaves them in.
    let strategies = [
        MappingStrategy::Heuristic,
        MappingStrategy::Fixed(Dataflow::GustavsonM),
        MappingStrategy::Oracle,
    ];
    let handles: Vec<_> = strategies
        .into_iter()
        .enumerate()
        .map(|(i, strategy)| {
            let addr = addr.clone();
            let a = random_matrix(100 + i as u64, 48, 56, 0.3);
            let b = random_matrix(200 + i as u64, 56, 40, 0.35);
            let ex = Flexagon::with_defaults()
                .execute(ExecutionRequest::new(&a, &b).strategy(strategy))
                .expect("direct run");
            let (df, out) = (ex.dataflow, ex.output);
            let expected_report = report_json(&out.report);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let req = Request::spgemm(SpGemmRequest {
                    tenant: format!("client-{i}"),
                    strategy,
                    a: Some(a),
                    b: Some(b),
                    want_output: true,
                    ..SpGemmRequest::default()
                });
                for _ in 0..4 {
                    assert_served_matches_direct(&mut client, &req, df, &out.c, &expected_report);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown();
}

#[test]
fn cached_operands_are_transparent_to_reports() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    })
    .expect("start server");
    let a = random_matrix(7, 40, 48, 0.3);
    let b = random_matrix(8, 48, 40, 0.35);
    // Gustavson-N wants column-major operands, so the engine performs (and
    // reports) explicit conversions — exactly what a result-altering cache
    // would optimize away. The served report must keep them.
    let strategy = MappingStrategy::Fixed(Dataflow::GustavsonN);
    let ex = Flexagon::with_defaults()
        .execute(ExecutionRequest::new(&a, &b).strategy(strategy))
        .expect("direct run");
    let (df, out) = (ex.dataflow, ex.output);
    let expected_report = report_json(&out.report);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // First request ships the bytes and registers the identities; the next
    // two hit the cache. All three must be byte-identical to direct.
    for round in 0..3 {
        let req = Request::spgemm(SpGemmRequest {
            tenant: "cache-test".to_owned(),
            strategy,
            a: (round == 0).then(|| a.clone()),
            b: (round == 0).then(|| b.clone()),
            a_id: Some("det-a".to_owned()),
            b_id: Some("det-b".to_owned()),
            want_output: true,
            ..SpGemmRequest::default()
        });
        assert_served_matches_direct(&mut client, &req, df, &out.c, &expected_report);
    }
    // The cache must show exactly the two id-only hits... plus the
    // fingerprint-matched re-offer; assert via the stats request.
    let stats = client.request(&Request::Stats).expect("stats");
    let Response::Stats(v) = stats else {
        panic!("expected stats")
    };
    let cache = serde::map_get(v.as_map().unwrap(), "cache").unwrap();
    let hits = serde::map_get(cache.as_map().unwrap(), "hits")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(hits, 4, "rounds 1 and 2 hit both identities");
    server.shutdown();
}

#[test]
fn sharded_server_is_byte_identical_to_sharded_direct() {
    let engine = EngineConfig::default().sharded(256, 4);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        // A budget of 4 with one job in flight leaves all 4 shard workers.
        worker_budget: 4,
        engine,
        ..ServeConfig::default()
    })
    .expect("start server");
    let a = random_matrix(31, 64, 64, 0.25);
    let b = random_matrix(32, 64, 64, 0.25);
    let direct = {
        let mut cfg = AcceleratorConfig::table5();
        cfg.engine = engine;
        Flexagon::new(cfg)
    };
    let strategy = MappingStrategy::Heuristic;
    let ex = direct
        .execute(ExecutionRequest::new(&a, &b).strategy(strategy))
        .expect("direct run");
    let (df, out) = (ex.dataflow, ex.output);
    let expected_report = report_json(&out.report);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let req = Request::spgemm(SpGemmRequest {
        tenant: "sharded".to_owned(),
        strategy,
        a: Some(a),
        b: Some(b),
        want_output: true,
        ..SpGemmRequest::default()
    });
    assert_served_matches_direct(&mut client, &req, df, &out.c, &expected_report);
    server.shutdown();
}

#[test]
fn pinned_lossless_format_is_result_transparent() {
    use flexagon_core::FormatChoice;
    use flexagon_sparse::FiberFormat;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    })
    .expect("start server");
    let a = random_matrix(51, 48, 48, 0.3);
    let b = random_matrix(52, 48, 48, 0.3);
    let strategy = MappingStrategy::Heuristic;
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for format in [FiberFormat::Bcsr4, FiberFormat::Ell] {
        let direct = Flexagon::with_defaults()
            .execute(
                ExecutionRequest::new(&a, &b)
                    .strategy(strategy)
                    .format(format),
            )
            .expect("direct run");
        let expected_report = report_json(&direct.output.report);
        let req = Request::spgemm(SpGemmRequest {
            tenant: "format-pin".to_owned(),
            strategy,
            format: FormatChoice::Fixed(format),
            a: Some(a.clone()),
            b: Some(b.clone()),
            // One id is one cache entry whatever the format: the ell round
            // re-offers the bytes the bcsr4 round registered.
            a_id: Some("fmt-a".to_owned()),
            b_id: Some("fmt-b".to_owned()),
            want_output: true,
            ..SpGemmRequest::default()
        });
        assert_served_matches_direct(
            &mut client,
            &req,
            direct.dataflow,
            &direct.output.c,
            &expected_report,
        );
    }
    server.shutdown();
}

#[test]
fn one_operand_id_serves_every_format() {
    use flexagon_core::FormatChoice;
    use flexagon_sparse::FiberFormat;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    })
    .expect("start server");
    let a = random_matrix(61, 40, 48, 0.3);
    let b = random_matrix(62, 48, 40, 0.3);
    let strategy = MappingStrategy::Heuristic;
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Only the first request uploads; the rest name the ids under another
    // format. The closing default-format request must still see the exact
    // operands, so the `q8` request before it left nothing quantized in
    // the cache.
    let rounds = [
        FormatChoice::Config,
        FormatChoice::Fixed(FiberFormat::Bcsr4),
        FormatChoice::Fixed(FiberFormat::Quant8),
        FormatChoice::Config,
    ];
    let mut outputs = Vec::new();
    for (round, format) in rounds.into_iter().enumerate() {
        let direct = Flexagon::with_defaults()
            .execute(
                ExecutionRequest::new(&a, &b)
                    .strategy(strategy)
                    .format_choice(format),
            )
            .expect("direct run");
        let req = Request::spgemm(SpGemmRequest {
            tenant: "one-id".to_owned(),
            strategy,
            format,
            a: (round == 0).then(|| a.clone()),
            b: (round == 0).then(|| b.clone()),
            a_id: Some("shared-a".to_owned()),
            b_id: Some("shared-b".to_owned()),
            want_output: true,
            ..SpGemmRequest::default()
        });
        assert_served_matches_direct(
            &mut client,
            &req,
            direct.dataflow,
            &direct.output.c,
            &report_json(&direct.output.report),
        );
        outputs.push(direct.output.c);
    }
    assert_ne!(outputs[2], outputs[0], "q8 must change values here");
    server.shutdown();
}
