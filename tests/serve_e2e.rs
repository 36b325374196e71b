//! End-to-end tests for `difftune-serve`: the serving extension of the
//! repository's determinism contract.
//!
//! The core assertion mirrors `tests/determinism.rs` and `tests/matrix.rs`:
//! a `/predict` response body is a pure function of `(blocks, backend)` —
//! byte-identical across shard counts (the serving meaning of
//! `DIFFTUNE_THREADS`), across cold and warm caches, and across cache
//! capacities small enough to force eviction churn. The suite also proves
//! the four backend sources load and resolve (defaults, a hand-written but
//! fingerprint-consistent `MATRIX_*.json` cell, a session checkpoint's θ,
//! and a `SURROGATE_*.json` artifact answering through the forward-only
//! replay path — determinism invariant #7, including bit-equality to an
//! in-process forward pass and hot artifact swaps under in-flight traffic),
//! and that the HTTP surface degrades into 4xx responses, never a dead
//! server.

use std::fs;
use std::path::PathBuf;

use difftune_bench::matrix::CellKey;
use difftune_bench::record::MATRIX_SCHEMA;
use difftune_repro::core::{threads_from_env, RunCheckpoint, Stage, ThetaTable};
use difftune_repro::cpu::{default_params, Microarch};
use difftune_repro::isa::BasicBlock;
use difftune_repro::sim::{McaSimulator, SimParams, Simulator};
use difftune_repro::surrogate::{
    FeatureMlpConfig, FeatureMlpModel, ModelConfig, SurrogateArtifact, SurrogateForward,
};
use difftune_serve::backend::{BackendRegistry, ReloadSpec};
use difftune_serve::client::HttpClient;
use difftune_serve::http::HttpLimits;
use difftune_serve::server::{spawn, ServeConfig, ServerHandle};

mod common;

use common::{fresh_dir, perturbed_table, write_cell_record};

/// Writes a fingerprint-consistent matrix cell record for
/// `mca:haswell:llvm_mca` into `dir`.
fn write_matrix_cell(dir: &std::path::Path) -> SimParams {
    write_cell_record(dir, 2, MATRIX_SCHEMA, None, None)
}

/// Writes a fingerprint-consistent `SURROGATE_*.json` artifact for
/// `mca:haswell:llvm_mca` into `dir`: a small feature-MLP surrogate over a
/// perturbed Haswell table. Different `nudge`s produce different artifacts
/// (different embedded table → different content fingerprint), which is how
/// the hot-swap tests simulate a re-tuned surrogate landing on disk.
fn write_surrogate_artifact(dir: &std::path::Path, nudge: u32) -> SurrogateArtifact {
    let config = FeatureMlpConfig {
        hidden_dim: 8,
        parameter_inputs: true,
        seed: 3,
    };
    let model = FeatureMlpModel::new(config);
    let table = perturbed_table(Microarch::Haswell, nudge);
    let artifact = SurrogateArtifact::new(
        "mca:haswell:llvm_mca",
        ModelConfig::Mlp(config),
        &model,
        &table,
    );
    fs::write(dir.join(artifact.file_name()), artifact.to_json()).expect("artifact writes");
    artifact
}

/// The reference for determinism invariant #7: a fresh in-process
/// forward-only pass over the artifact, no server anywhere.
fn in_process_prediction(artifact: &SurrogateArtifact, block: &str) -> f64 {
    let block: BasicBlock = block.parse().expect("block parses");
    SurrogateForward::from_artifact(artifact)
        .expect("artifact loads")
        .predict(&block)
}

/// Writes a finished-run checkpoint whose θ is a perturbed Haswell table.
fn write_checkpoint(dir: &std::path::Path) -> (PathBuf, SimParams) {
    let table = perturbed_table(Microarch::Haswell, 1);
    let checkpoint = RunCheckpoint {
        stage: Stage::Finished,
        seed: 3,
        train_blocks: 1,
        train_fingerprint: 0,
        table_learning_rate_bits: 0f32.to_bits(),
        table_epochs: 1,
        table_batch_size: 1,
        clamp_to_sampling: false,
        surrogate_params: None,
        surrogate_config: None,
        surrogate_report: None,
        theta: Some(ThetaTable::from_table(&table)),
        initial: Some(default_params(Microarch::Haswell)),
        table_losses: vec![0.5],
    };
    let path = dir.join("run.ckpt.json");
    fs::write(&path, checkpoint.to_json().expect("finite checkpoint")).expect("checkpoint writes");
    (path, table)
}

/// Builds the four-source registry every test serves from.
fn registry(dir: &std::path::Path) -> BackendRegistry {
    let mut registry = BackendRegistry::with_defaults();
    write_matrix_cell(dir);
    write_surrogate_artifact(dir, 1);
    let added = registry.add_matrix_dir(dir).expect("matrix dir loads");
    assert_eq!(
        added, 2,
        "exactly the hand-written cell and surrogate artifact load"
    );
    let (checkpoint_path, _) = write_checkpoint(dir);
    registry
        .add_checkpoint(
            &CellKey::parse("mca:haswell:write_latency_only").unwrap(),
            &checkpoint_path,
        )
        .expect("checkpoint loads");
    registry
}

fn serve(dir: &std::path::Path, shards: usize, cache_capacity: usize) -> ServerHandle {
    spawn(
        ServeConfig {
            shards,
            cache_capacity,
            ..ServeConfig::default()
        },
        registry(dir),
    )
    .expect("server binds an ephemeral port")
}

/// The request mix: single and batched blocks over every backend source.
fn predict_bodies() -> Vec<&'static str> {
    vec![
        // No source: resolution lands on the cell's derived three-tier
        // policy (which, at the default 0.0 budget, serves the matrix
        // table's exact values through tier 3).
        r#"{"block": "addq %rax, %rbx"}"#,
        // The policy pinned explicitly routes the same way.
        r#"{"block": "addq %rax, %rbx", "source": "policy"}"#,
        r#"{"block": "addq %rax, %rbx", "source": "default"}"#,
        r#"{"block": "addq %rax, %rbx", "source": "checkpoint", "spec": "write_latency_only"}"#,
        // A batch with a repeated block (exercises in-batch deduplication).
        r#"{"blocks": ["addq %rax, %rbx", "mulsd %xmm1, %xmm2", "addq %rax, %rbx", "xorl %eax, %eax"], "source": "matrix"}"#,
        // Other simulators and microarchitectures fall back to defaults.
        r#"{"block": "addq %rbx, %rcx", "sim": "uop", "uarch": "skylake"}"#,
        r#"{"blocks": ["mulsd %xmm1, %xmm2"], "sim": "mca", "uarch": "zen2"}"#,
        // The surrogate fast path (invariant #7: same bytes as everything
        // above — across shards, cache states, and batching).
        r#"{"block": "addq %rax, %rbx", "source": "surrogate"}"#,
        r#"{"blocks": ["addq %rax, %rbx", "mulsd %xmm1, %xmm2", "addq %rax, %rbx"], "source": "surrogate"}"#,
    ]
}

fn post_all(client: &mut HttpClient, bodies: &[&str]) -> Vec<String> {
    bodies
        .iter()
        .map(|body| {
            let response = client
                .post_json("/predict", body)
                .expect("request succeeds");
            assert_eq!(response.status, 200, "{body} -> {}", response.body_text());
            response.body_text()
        })
        .collect()
}

#[test]
fn predict_bodies_are_byte_identical_across_shards_and_cache_states() {
    let dir = fresh_dir("determinism");
    let bodies = predict_bodies();

    // The serving analogue of the training suite's width selection: always
    // compare 1 vs 4 shards, plus whatever DIFFTUNE_THREADS pins (so the CI
    // determinism legs exercise their widths here too).
    let mut widths = vec![1usize, 4];
    match threads_from_env() {
        Ok(0) => {}
        Ok(n) if widths.contains(&n) => {}
        Ok(n) => widths.push(n),
        Err(error) => panic!("invalid DIFFTUNE_THREADS: {error}"),
    }

    let mut reference: Option<Vec<String>> = None;
    for &shards in &widths {
        let handle = serve(&dir, shards, 4096);
        let mut client = HttpClient::connect(&handle.addr().to_string()).expect("connects");
        let cold = post_all(&mut client, &bodies);
        let warm = post_all(&mut client, &bodies);
        assert_eq!(cold, warm, "{shards} shard(s): warm cache changed bytes");
        match &reference {
            None => reference = Some(cold),
            Some(reference) => assert_eq!(
                &cold, reference,
                "responses diverged between 1 and {shards} shard(s)"
            ),
        }
        drop(client);
        handle.shutdown();
    }

    // A one-entry cache (constant eviction churn) and a disabled cache must
    // serve the same bytes as the roomy one.
    for capacity in [1, 0] {
        let handle = serve(&dir, 2, capacity);
        let mut client = HttpClient::connect(&handle.addr().to_string()).expect("connects");
        let churned = post_all(&mut client, &bodies);
        assert_eq!(
            Some(churned),
            reference,
            "cache capacity {capacity} changed response bytes"
        );
        drop(client);
        handle.shutdown();
    }

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn responses_carry_the_resolved_backend_and_exact_simulator_output() {
    let dir = fresh_dir("values");
    let matrix_table = perturbed_table(Microarch::Haswell, 2);
    let checkpoint_table = perturbed_table(Microarch::Haswell, 1);
    let handle = serve(&dir, 2, 4096);
    let mut client = HttpClient::connect(&handle.addr().to_string()).expect("connects");

    let block: BasicBlock = "addq %rax, %rbx".parse().unwrap();
    let simulator = McaSimulator::default();
    for (body, backend_id, table) in [
        (
            r#"{"block": "addq %rax, %rbx", "source": "default"}"#,
            "default:mca:haswell",
            default_params(Microarch::Haswell),
        ),
        (
            // Sourceless: the policy answers, echoing the learned table's
            // digest and (at budget 0) its exact simulator values.
            r#"{"block": "addq %rax, %rbx"}"#,
            "policy:mca:haswell:llvm_mca",
            matrix_table.clone(),
        ),
        (
            r#"{"block": "addq %rax, %rbx", "source": "matrix"}"#,
            "matrix:mca:haswell:llvm_mca",
            matrix_table.clone(),
        ),
        (
            r#"{"block": "addq %rax, %rbx", "source": "checkpoint", "spec": "write_latency_only"}"#,
            "checkpoint:mca:haswell:write_latency_only",
            checkpoint_table.clone(),
        ),
    ] {
        let response = client
            .post_json("/predict", body)
            .expect("request succeeds");
        assert_eq!(response.status, 200);
        let text = response.body_text();
        let expected = simulator.predict(&table, &block);
        assert!(
            text.contains(&format!("\"backend\":\"{backend_id}\"")),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "\"table_fingerprint\":\"{}\"",
                table.fingerprint_hex()
            )),
            "{text}"
        );
        assert!(
            text.contains(&format!("\"predictions\":[{expected:?}]")),
            "expected prediction {expected:?} in {text}"
        );
    }

    // The checkpoint and matrix tables really differ from the defaults —
    // otherwise the three assertions above would not distinguish sources.
    assert_ne!(matrix_table, default_params(Microarch::Haswell));
    assert_ne!(checkpoint_table, matrix_table);

    drop(client);
    handle.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_and_application_errors_answer_4xx_and_the_server_survives() {
    let dir = fresh_dir("errors");
    let handle = spawn(
        ServeConfig {
            shards: 1,
            max_blocks_per_request: 4,
            limits: HttpLimits {
                max_body_bytes: 512,
                ..HttpLimits::default()
            },
            ..ServeConfig::default()
        },
        registry(&dir),
    )
    .expect("server binds");
    let addr = handle.addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connects");

    for (body, status, needle) in [
        ("not json", 400, "not JSON"),
        ("[1,2,3]", 400, "JSON object"),
        (
            r#"{"sim": "mca"}"#,
            400,
            "`block` string or a `blocks` array",
        ),
        (
            r#"{"block": "addq %rax, %rbx", "blocks": []}"#,
            400,
            "not both",
        ),
        (r#"{"blocks": []}"#, 400, "must not be empty"),
        (r#"{"blocks": [7]}"#, 400, "only strings"),
        (r#"{"block": "frobnicate %zz9"}"#, 400, "does not parse"),
        (r#"{"block": ""}"#, 400, "no instructions"),
        (
            r#"{"block": "addq %rax, %rbx", "sim": "qemu"}"#,
            400,
            "unknown simulator",
        ),
        (
            r#"{"block": "addq %rax, %rbx", "uarch": "pentium"}"#,
            400,
            "unknown microarchitecture",
        ),
        (
            r#"{"block": "addq %rax, %rbx", "source": "s3"}"#,
            400,
            "unknown source",
        ),
        // A loaded source but an unloaded cell: 404 listing what exists.
        (
            r#"{"block": "addq %rax, %rbx", "uarch": "zen2", "source": "matrix"}"#,
            404,
            "matrix:mca:zen2",
        ),
        // One block over the per-request cap.
        (
            r#"{"blocks": ["addq %rax, %rbx", "addq %rax, %rbx", "addq %rax, %rbx", "addq %rax, %rbx", "addq %rax, %rbx"]}"#,
            413,
            "per-request limit",
        ),
    ] {
        let response = client
            .post_json("/predict", body)
            .expect("request succeeds");
        assert_eq!(
            response.status,
            status,
            "{body} -> {}",
            response.body_text()
        );
        assert!(
            response.body_text().contains(needle),
            "{body}: expected {needle:?} in {}",
            response.body_text()
        );
    }

    // Wrong method / unknown path.
    assert_eq!(client.get("/predict").expect("answers").status, 405);
    assert_eq!(client.get("/nope").expect("answers").status, 404);

    // An oversized declared body is refused (and the connection closes, so
    // use a throwaway client).
    let mut oversized = HttpClient::connect(&addr).expect("connects");
    let big = format!(
        r#"{{"block": "addq %rax, %rbx", "padding": "{}"}}"#,
        "x".repeat(600)
    );
    let response = oversized.post_json("/predict", &big).expect("answers");
    assert_eq!(response.status, 413);

    // A malformed request line also answers 400 before closing.
    let mut garbage = HttpClient::connect(&addr).expect("connects");
    let responses = garbage
        .send_raw(b"NONSENSE\r\n\r\n", 1)
        .expect("a 400 comes back");
    assert_eq!(responses[0].status, 400);

    // After all that abuse the server still answers.
    let health = client.get("/healthz").expect("still alive");
    assert_eq!(health.status, 200);
    assert!(
        health.body_text().contains("\"backends\":13"),
        "{}",
        health.body_text()
    );

    drop(client);
    handle.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipelined_requests_on_one_connection_all_answer_in_order() {
    let dir = fresh_dir("pipeline");
    let handle = serve(&dir, 2, 4096);
    let mut client = HttpClient::connect(&handle.addr().to_string()).expect("connects");

    let predict = r#"{"block": "addq %rax, %rbx", "source": "default"}"#;
    let raw = format!(
        "GET /healthz HTTP/1.1\r\n\r\nPOST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}GET /metrics HTTP/1.1\r\n\r\n",
        predict.len(),
        predict
    );
    let responses = client
        .send_raw(raw.as_bytes(), 3)
        .expect("all three pipelined responses arrive");
    assert_eq!(responses[0].status, 200);
    assert!(responses[0].body_text().contains("\"status\":\"ok\""));
    assert_eq!(responses[1].status, 200);
    assert!(responses[1].body_text().contains("default:mca:haswell"));
    assert_eq!(responses[2].status, 200);
    assert!(responses[2].body_text().contains("difftune_requests_total"));

    drop(client);
    handle.shutdown();
    fs::remove_dir_all(&dir).ok();
}

/// A defaults-plus-matrix server whose `POST /reload` rescans `dir`.
#[test]
fn checkpoints_without_a_surrogate_config_field_are_refused() {
    let dir = fresh_dir("old-checkpoint");
    let key = CellKey::parse("mca:haswell:write_latency_only").unwrap();
    let (path, _) = write_checkpoint(&dir);
    let mut registry = BackendRegistry::with_defaults();
    registry
        .add_checkpoint(&key, &path)
        .expect("checkpoint loads");

    // A checkpoint written before `surrogate_config` existed is not
    // backfilled: `--checkpoint` and `/reload` refuse it.
    let json = fs::read_to_string(&path).expect("checkpoint is on disk");
    let older = json.replacen("\"surrogate_config\"", "\"retired_field\"", 1);
    assert_ne!(older, json);
    fs::write(&path, older).expect("checkpoint rewrites");
    let error = BackendRegistry::with_defaults()
        .add_checkpoint(&key, &path)
        .unwrap_err();
    assert!(error.contains("not a RunCheckpoint"), "{error}");
    fs::remove_dir_all(&dir).ok();
}

fn serve_reloadable(dir: &std::path::Path) -> ServerHandle {
    let mut registry = BackendRegistry::with_defaults();
    registry.add_matrix_dir(dir).expect("matrix dir loads");
    spawn(
        ServeConfig {
            shards: 2,
            read_timeout: std::time::Duration::from_millis(400),
            reload_spec: Some(ReloadSpec {
                defaults: true,
                table_dirs: vec![dir.to_path_buf()],
                checkpoints: Vec::new(),
                error_budget: 0.0,
                cell_budgets: Vec::new(),
            }),
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("server binds")
}

#[test]
fn hot_reload_rejections_leave_the_old_registry_serving() {
    let dir = fresh_dir("reload-reject");
    write_matrix_cell(&dir);
    let handle = serve_reloadable(&dir);
    let mut client = HttpClient::connect(&handle.addr().to_string()).expect("connects");

    let body = r#"{"block": "addq %rax, %rbx", "source": "matrix"}"#;
    let before = client.post_json("/predict", body).expect("answers");
    assert_eq!(before.status, 200);
    let before = before.body_text();

    let cell_path = dir.join(difftune_bench::record::matrix_cell_file_name(
        "mca", "haswell", "llvm_mca",
    ));
    let good_json = fs::read_to_string(&cell_path).expect("cell is on disk");

    // Three corrupt artifact states. Every reload must answer a structured
    // 409, and the old registry must keep serving the same bytes.
    write_cell_record(&dir, 4, MATRIX_SCHEMA, Some("0".repeat(16)), None);
    let tampered = fs::read_to_string(&cell_path).expect("tampered cell is on disk");
    for (label, contents, needle) in [
        ("tampered fingerprint", tampered.as_str(), "fingerprints as"),
        (
            "truncated JSON",
            &good_json[..good_json.len() / 2],
            "not a matrix cell record",
        ),
        ("pre-/2 schema", "", "unservable records"),
    ] {
        if label == "pre-/2 schema" {
            write_cell_record(&dir, 4, "difftune-matrix/1", None, None);
        } else {
            fs::write(&cell_path, contents).expect("cell rewrites");
        }
        let rejected = client.post_json("/reload", "").expect("reload answers");
        assert_eq!(rejected.status, 409, "{label}: {}", rejected.body_text());
        assert!(
            rejected
                .body_text()
                .contains("reload rejected, old tables still serving"),
            "{label}: {}",
            rejected.body_text()
        );
        assert!(
            rejected.body_text().contains(needle),
            "{label}: expected {needle:?} in {}",
            rejected.body_text()
        );
        let after = client.post_json("/predict", body).expect("still serving");
        assert_eq!(after.status, 200, "{label} killed the old registry");
        assert_eq!(
            after.body_text(),
            before,
            "{label} changed served bytes without a successful reload"
        );
    }

    // A server started without reload sources refuses outright.
    let bare = spawn(
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        BackendRegistry::with_defaults(),
    )
    .expect("server binds");
    let mut bare_client = HttpClient::connect(&bare.addr().to_string()).expect("connects");
    let refused = bare_client.post_json("/reload", "").expect("answers");
    assert_eq!(refused.status, 409);
    assert!(refused.body_text().contains("no reload sources"));
    drop(bare_client);
    bare.shutdown();

    // No rejection counted as a reload.
    let metrics = client.get("/metrics").expect("answers").body_text();
    assert!(
        metrics.contains("difftune_backend_reloads_total 0"),
        "{metrics}"
    );

    drop(client);
    handle.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_reload_swaps_tables_and_purges_only_the_stale_backend() {
    let dir = fresh_dir("reload-swap");
    let old_table = write_matrix_cell(&dir);
    let handle = serve_reloadable(&dir);
    let mut client = HttpClient::connect(&handle.addr().to_string()).expect("connects");

    // Warm the cache so the purge has something to drop.
    let body = r#"{"block": "addq %rax, %rbx", "source": "matrix"}"#;
    let before = client.post_json("/predict", body).expect("answers");
    assert_eq!(before.status, 200);
    let before = before.body_text();
    assert!(before.contains(&old_table.fingerprint_hex()), "{before}");
    assert_eq!(client.post_json("/predict", body).unwrap().status, 200);

    // A new learned table lands in the same cell; reload swaps it in.
    let new_table = write_cell_record(&dir, 5, MATRIX_SCHEMA, None, None);
    let reloaded = client.post_json("/reload", "").expect("reload answers");
    assert_eq!(reloaded.status, 200, "{}", reloaded.body_text());
    let text = reloaded.body_text();
    assert!(text.contains("\"status\":\"reloaded\""), "{text}");
    assert!(
        text.contains("\"purged_backends\":2"),
        "the old matrix table and the policy derived from it are stale: {text}"
    );
    assert!(
        text.contains("\"purged_entries\":1"),
        "the warmed cache entry is dropped: {text}"
    );

    let after = client.post_json("/predict", body).expect("answers");
    assert_eq!(after.status, 200);
    let after = after.body_text();
    assert_ne!(after, before, "the reload changed the served table");
    assert!(after.contains(&new_table.fingerprint_hex()), "{after}");

    // An idempotent second reload swaps nothing and purges nothing.
    let again = client.post_json("/reload", "").expect("answers");
    assert_eq!(again.status, 200);
    assert!(again.body_text().contains("\"purged_backends\":0"));

    let metrics = client.get("/metrics").expect("answers").body_text();
    assert!(
        metrics.contains("difftune_backend_reloads_total 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("difftune_endpoint_requests_total{endpoint=\"reload\"} 2"),
        "{metrics}"
    );

    drop(client);
    handle.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_finishes_in_flight_connections_then_stops_accepting() {
    let dir = fresh_dir("drain");
    let handle = serve_reloadable(&dir);
    let addr = handle.addr();

    let mut draining = HttpClient::connect(&addr.to_string()).expect("connects");
    let mut in_flight = HttpClient::connect(&addr.to_string()).expect("connects");
    assert_eq!(in_flight.get("/healthz").expect("answers").status, 200);
    assert!(!handle.drain_requested());

    let response = draining.post_json("/drain", "").expect("drain answers");
    assert_eq!(response.status, 200);
    assert!(response.body_text().contains("\"status\":\"draining\""));
    assert!(response.body_text().contains("\"already_draining\":false"));
    assert!(
        response.wants_close(),
        "a drain response closes its connection"
    );
    assert!(handle.drain_requested());

    // Deterministic ordering: the connection loop checks the drain flag
    // both before *and* after its blocking read, so a request sent after
    // the drain response came back is never answered — the connection is
    // closed unanswered and the client retries against the next process.
    // (Before the post-read check this raced: whether the in-flight
    // connection got one more answer depended on whether its read returned
    // before or after the flag flipped.)
    assert!(
        in_flight.get("/healthz").is_err(),
        "a request sent after the drain must be closed unanswered"
    );

    // New connections stop being accepted once the acceptor exits. The
    // acceptor observes the flag on its next wakeup, so the harness retries
    // with a bounded budget instead of asserting on the first attempt: a
    // post-drain connection either fails to connect or is closed without an
    // answer — it is never served.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut refused = false;
    for _ in 0..250 {
        match HttpClient::connect(&addr.to_string()) {
            Err(_) => {
                refused = true;
                break;
            }
            Ok(mut late) => {
                assert!(
                    late.get("/healthz").is_err(),
                    "a connection accepted mid-drain must be closed unanswered"
                );
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the drained server kept accepting connections"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(refused, "the acceptor never stopped accepting");

    handle.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn connection_cap_negotiates_close_after_the_limit() {
    let dir = fresh_dir("conn-cap");
    let handle = spawn(
        ServeConfig {
            shards: 1,
            max_requests_per_connection: 2,
            ..ServeConfig::default()
        },
        registry(&dir),
    )
    .expect("server binds");
    let addr = handle.addr().to_string();

    let mut client = HttpClient::connect(&addr).expect("connects");
    let first = client.get("/healthz").expect("answers");
    assert_eq!(first.status, 200);
    assert!(
        !first.wants_close(),
        "below the cap the connection stays open"
    );
    let second = client.get("/healthz").expect("answers");
    assert_eq!(second.status, 200);
    assert!(
        second.wants_close(),
        "the capped request negotiates Connection: close"
    );
    assert!(
        client.get("/healthz").is_err(),
        "the server closed at the cap"
    );

    // A fresh connection gets a fresh budget.
    let mut again = HttpClient::connect(&addr).expect("reconnects");
    assert_eq!(again.get("/healthz").expect("answers").status, 200);

    drop(again);
    handle.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_observe_requests_and_cache_hits() {
    let dir = fresh_dir("metrics");
    let handle = serve(&dir, 1, 4096);
    let mut client = HttpClient::connect(&handle.addr().to_string()).expect("connects");

    let body = r#"{"blocks": ["addq %rax, %rbx", "mulsd %xmm1, %xmm2"], "source": "default"}"#;
    assert_eq!(client.post_json("/predict", body).unwrap().status, 200);
    assert_eq!(client.post_json("/predict", body).unwrap().status, 200);

    let metrics = handle.metrics();
    assert_eq!(
        metrics.cache_misses(),
        2,
        "first request simulates both blocks"
    );
    assert_eq!(metrics.cache_hits(), 2, "second request is fully cached");

    let text = client.get("/metrics").unwrap().body_text();
    assert!(text.contains("difftune_predict_requests_total 2"), "{text}");
    assert!(text.contains("difftune_predict_blocks_total 4"), "{text}");
    assert!(text.contains("difftune_cache_hits_total 2"), "{text}");

    drop(client);
    handle.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn surrogate_responses_match_the_in_process_forward_pass_and_v1_aliases() {
    let dir = fresh_dir("surrogate");
    let handle = serve(&dir, 2, 4096);
    let mut client = HttpClient::connect(&handle.addr().to_string()).expect("connects");

    // The same artifact bytes registry() loaded, read back for the
    // reference pass.
    let artifact = SurrogateArtifact::from_json(
        &fs::read_to_string(dir.join(difftune_repro::surrogate::surrogate_file_name(
            "mca:haswell:llvm_mca",
        )))
        .expect("artifact is on disk"),
    )
    .expect("artifact verifies");

    for (round, block) in ["addq %rax, %rbx", "imulq %rbx, %rcx\naddq %rcx, %rax"]
        .into_iter()
        .enumerate()
    {
        let expected = in_process_prediction(&artifact, block);
        let body = format!(
            r#"{{"block": "{}", "source": "surrogate"}}"#,
            block.replace('\n', "\\n")
        );
        let response = client.post_json("/predict", &body).expect("answers");
        assert_eq!(response.status, 200, "{}", response.body_text());
        let text = response.body_text();
        // Invariant #7: the served float is bit-equal to the in-process
        // forward pass ({:?} is shortest-exact, so string equality here is
        // bit equality).
        assert!(
            text.contains(&format!("\"predictions\":[{expected:?}]")),
            "expected in-process prediction {expected:?} in {text}"
        );
        assert!(
            text.contains("\"backend\":\"surrogate:mca:haswell:llvm_mca\""),
            "{text}"
        );
        assert!(text.contains("\"source_kind\":\"surrogate\""), "{text}");
        assert!(
            text.contains(&format!(
                "\"table_fingerprint\":\"{}\"",
                artifact.fingerprint
            )),
            "{text}"
        );

        // The /v1 alias answers byte-identically.
        let v1 = client.post_json("/v1/predict", &body).expect("answers");
        assert_eq!(v1.status, 200);
        assert_eq!(v1.body_text(), text, "/v1/predict diverged from /predict");

        // Both spellings meter as the one `predict` endpoint.
        let metrics = client.get("/metrics").expect("answers").body_text();
        let predicts = 2 * (round + 1);
        assert!(
            metrics.contains(&format!(
                "difftune_endpoint_requests_total{{endpoint=\"predict\"}} {predicts}\n"
            )),
            "{metrics}"
        );
        assert!(
            metrics.contains("difftune_endpoint_requests_total{endpoint=\"other\"} 0\n"),
            "{metrics}"
        );
    }

    // Table responses advertise their kind too.
    let table = client
        .post_json(
            "/predict",
            r#"{"block": "addq %rax, %rbx", "source": "matrix"}"#,
        )
        .expect("answers");
    assert!(
        table.body_text().contains("\"source_kind\":\"table\""),
        "{}",
        table.body_text()
    );

    // /backends (and its /v1 alias, byte-identically) lists every predictor
    // with kind and fingerprint, id-sorted.
    let backends = client.get("/backends").expect("answers").body_text();
    assert!(
        backends.contains(&format!(
            "{{\"id\":\"surrogate:mca:haswell:llvm_mca\",\"kind\":\"surrogate\",\"fingerprint\":\"{}\"}}",
            artifact.fingerprint
        )),
        "{backends}"
    );
    assert!(
        backends.contains("\"id\":\"default:mca:haswell\",\"kind\":\"table\""),
        "{backends}"
    );
    let ids: Vec<&str> = backends
        .split("{\"id\":\"")
        .skip(1)
        .map(|entry| entry.split('"').next().unwrap())
        .collect();
    assert!(!ids.is_empty(), "{backends}");
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "/backends is id-sorted: {backends}");
    let v1_backends = client.get("/v1/backends").expect("answers").body_text();
    assert_eq!(
        v1_backends, backends,
        "/v1/backends diverged from /backends"
    );

    // /v1 aliases cover the ops surface as well.
    assert_eq!(client.get("/v1/healthz").expect("answers").status, 200);
    assert_eq!(client.get("/v1/metrics").expect("answers").status, 200);

    drop(client);
    handle.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_reload_swaps_the_surrogate_under_inflight_traffic_byte_identically() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let dir = fresh_dir("surrogate-reload");
    let old_artifact = write_surrogate_artifact(&dir, 1);
    let handle = serve_reloadable(&dir);
    let addr = handle.addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connects");

    let body = r#"{"block": "addq %rax, %rbx", "source": "surrogate"}"#;
    let expected_old = in_process_prediction(&old_artifact, "addq %rax, %rbx");
    let before = client.post_json("/predict", body).expect("answers");
    assert_eq!(before.status, 200, "{}", before.body_text());
    let before = before.body_text();
    assert!(
        before.contains(&format!("\"predictions\":[{expected_old:?}]")),
        "{before}"
    );
    // Warm the cache and the compiled-program cache.
    assert_eq!(client.post_json("/predict", body).unwrap().status, 200);

    // Hammer the surrogate backend from two connections while the artifact
    // is swapped underneath them.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(&addr).expect("connects");
                let mut seen = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    let response = client
                        .post_json(
                            "/predict",
                            r#"{"block": "addq %rax, %rbx", "source": "surrogate"}"#,
                        )
                        .expect("in-flight request answers");
                    assert_eq!(response.status, 200);
                    seen.push(response.body_text());
                }
                seen
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(50));

    // A re-tuned surrogate lands in the same cell; one reload swaps it in
    // and purges exactly the stale backend's cache (and with it the only
    // reachable compiled programs of the old engine).
    let new_artifact = write_surrogate_artifact(&dir, 6);
    assert_ne!(new_artifact.fingerprint, old_artifact.fingerprint);
    let reloaded = client.post_json("/reload", "").expect("reload answers");
    assert_eq!(reloaded.status, 200, "{}", reloaded.body_text());
    let text = reloaded.body_text();
    assert!(text.contains("\"status\":\"reloaded\""), "{text}");
    assert!(
        text.contains("\"purged_backends\":1"),
        "exactly the old surrogate backend is stale: {text}"
    );

    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::SeqCst);

    let expected_new = in_process_prediction(&new_artifact, "addq %rax, %rbx");
    let after = client.post_json("/predict", body).expect("answers");
    assert_eq!(after.status, 200);
    let after = after.body_text();
    assert!(
        after.contains(&format!("\"predictions\":[{expected_new:?}]")),
        "{after}"
    );
    assert_ne!(after, before, "the reload swapped the surrogate");

    // Every in-flight response was one of the two artifacts' exact bytes —
    // never a torn state, never a stale-program answer under the new
    // fingerprint.
    for worker in workers {
        let seen = worker.join().expect("worker thread finished");
        assert!(!seen.is_empty(), "the worker observed traffic");
        for response in seen {
            assert!(
                response == before || response == after,
                "an in-flight response matched neither artifact: {response}"
            );
        }
    }

    // Idempotent second reload: nothing left to purge.
    let again = client.post_json("/reload", "").expect("answers");
    assert_eq!(again.status, 200);
    assert!(
        again.body_text().contains("\"purged_backends\":0"),
        "{}",
        again.body_text()
    );

    drop(client);
    handle.shutdown();
    fs::remove_dir_all(&dir).ok();
}

/// A defaults-plus-`dir` server with a chosen `--error-budget`. The policy
/// budget tests write the cell's record with a measured
/// `surrogate_vs_sim_mape` of 2.0, so budgets at or above 2.0 open tier 2
/// and budgets below it pin tier 3.
fn serve_with_budget(dir: &std::path::Path, shards: usize, budget: f64) -> ServerHandle {
    let mut registry = BackendRegistry::with_defaults();
    registry.add_matrix_dir(dir).expect("matrix dir loads");
    registry.set_error_budget(budget);
    spawn(
        ServeConfig {
            shards,
            cache_capacity: 4096,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("server binds")
}

#[test]
fn policy_tiers_answer_by_budget_and_stay_byte_identical_across_shards() {
    let dir = fresh_dir("policy-budget");
    let matrix_table = write_cell_record(&dir, 2, MATRIX_SCHEMA, None, Some(2.0));
    let artifact = write_surrogate_artifact(&dir, 1);

    let block = "addq %rax, %rbx";
    let sourceless = r#"{"block": "addq %rax, %rbx"}"#;
    let pinned = [
        r#"{"block": "addq %rax, %rbx", "source": "matrix"}"#,
        r#"{"block": "addq %rax, %rbx", "source": "surrogate"}"#,
    ];

    let parsed: BasicBlock = block.parse().unwrap();
    let tier3 = McaSimulator::default().predict(&matrix_table, &parsed);
    let tier2 = in_process_prediction(&artifact, block);
    assert_ne!(
        tier3.to_bits(),
        tier2.to_bits(),
        "the two tiers must be distinguishable"
    );

    // Pinned-source responses bypass the policy, so they must not move with
    // the budget; this reference spans every server below.
    let mut pinned_reference: Option<Vec<String>> = None;
    for (budget, source_kind, expected) in [
        // 0.0 is below the recorded MAPE of 2.0: every block takes tier 3
        // and the response carries the matrix table's exact values.
        (0.0, "table", tier3),
        // 10.0 clears the MAPE: tier 2 opens and the response is bit-equal
        // to the in-process surrogate forward pass.
        (10.0, "surrogate", tier2),
    ] {
        // Determinism invariant #8: the same budget serves the same bytes
        // across shard counts and across cold/warm caches.
        let mut reference: Option<String> = None;
        for shards in [1usize, 4] {
            let handle = serve_with_budget(&dir, shards, budget);
            let mut client = HttpClient::connect(&handle.addr().to_string()).expect("connects");
            let cold = post_all(&mut client, &[sourceless]).remove(0);
            let warm = post_all(&mut client, &[sourceless]).remove(0);
            assert_eq!(
                cold, warm,
                "budget {budget}, {shards} shard(s): warm cache changed bytes"
            );
            assert!(
                cold.contains("\"backend\":\"policy:mca:haswell:llvm_mca\""),
                "{cold}"
            );
            assert!(
                cold.contains(&format!("\"source_kind\":\"{source_kind}\"")),
                "budget {budget}: {cold}"
            );
            assert!(
                cold.contains(&format!("\"predictions\":[{expected:?}]")),
                "budget {budget}: expected {expected:?} in {cold}"
            );
            // Whichever tier answers, the response advertises the learned
            // table's digest — the cell being served.
            assert!(
                cold.contains(&format!(
                    "\"table_fingerprint\":\"{}\"",
                    matrix_table.fingerprint_hex()
                )),
                "{cold}"
            );
            match &reference {
                None => reference = Some(cold),
                Some(reference) => assert_eq!(
                    &cold, reference,
                    "budget {budget}: bytes diverged across shard counts"
                ),
            }

            let pinned_now = post_all(&mut client, &pinned);
            match &pinned_reference {
                None => pinned_reference = Some(pinned_now),
                Some(reference) => assert_eq!(
                    &pinned_now, reference,
                    "budget {budget} changed pinned-source bytes"
                ),
            }
            drop(client);
            handle.shutdown();
        }
    }

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_corrupt_artifact_degrades_the_policy_to_table_only_and_never_500s() {
    let dir = fresh_dir("policy-corrupt");
    let matrix_table = write_cell_record(&dir, 2, MATRIX_SCHEMA, None, Some(2.0));

    // An artifact whose embedded table was bit-flipped after fingerprinting:
    // the content fingerprint no longer verifies.
    let config = FeatureMlpConfig {
        hidden_dim: 8,
        parameter_inputs: true,
        seed: 3,
    };
    let model = FeatureMlpModel::new(config);
    let mut artifact = SurrogateArtifact::new(
        "mca:haswell:llvm_mca",
        ModelConfig::Mlp(config),
        &model,
        &perturbed_table(Microarch::Haswell, 1),
    );
    artifact.learned_table[0] += 1.0;
    fs::write(dir.join(artifact.file_name()), artifact.to_json()).expect("artifact writes");

    // The lenient startup load skips the artifact with a structured warning
    // naming the degradation; the cell still loads its table.
    let mut registry = BackendRegistry::with_defaults();
    let added = registry
        .add_matrix_dir(&dir)
        .expect("the lenient load survives a corrupt artifact");
    assert_eq!(added, 1, "only the record loads");
    registry.set_error_budget(1000.0);
    assert!(
        !registry.warnings().is_empty(),
        "the skipped artifact leaves a structured warning"
    );
    assert!(
        registry.warnings()[0].contains("tier 3"),
        "{:?}",
        registry.warnings()
    );

    let handle = spawn(
        ServeConfig {
            shards: 2,
            cache_capacity: 4096,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("server binds");
    let mut client = HttpClient::connect(&handle.addr().to_string()).expect("connects");

    // Sourceless requests still answer 200 through the policy — tier 3 with
    // the table's exact values, never a 500 — even under a budget that
    // would have opened tier 2.
    let response = client
        .post_json("/predict", r#"{"block": "addq %rax, %rbx"}"#)
        .expect("answers");
    assert_eq!(response.status, 200, "{}", response.body_text());
    let text = response.body_text();
    assert!(
        text.contains("\"backend\":\"policy:mca:haswell:llvm_mca\""),
        "{text}"
    );
    assert!(text.contains("\"source_kind\":\"table\""), "{text}");
    let parsed: BasicBlock = "addq %rax, %rbx".parse().unwrap();
    let expected = McaSimulator::default().predict(&matrix_table, &parsed);
    assert!(
        text.contains(&format!("\"predictions\":[{expected:?}]")),
        "{text}"
    );

    // Pinning the never-loaded surrogate is a structured 404, and the
    // server stays healthy throughout.
    let pinned = client
        .post_json(
            "/predict",
            r#"{"block": "addq %rax, %rbx", "source": "surrogate"}"#,
        )
        .expect("answers");
    assert_eq!(pinned.status, 404, "{}", pinned.body_text());
    assert_eq!(client.get("/healthz").expect("answers").status, 200);

    drop(client);
    handle.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn policy_tier_metrics_attribute_blocks_to_cache_surrogate_and_simulator() {
    let dir = fresh_dir("policy-metrics");
    write_cell_record(&dir, 2, MATRIX_SCHEMA, None, Some(2.0));
    write_surrogate_artifact(&dir, 1);
    let body = r#"{"block": "addq %rax, %rbx"}"#;

    // Generous budget: the first pass misses into tier 2, the repeat is a
    // tier-1 cache hit.
    let handle = serve_with_budget(&dir, 1, 10.0);
    let mut client = HttpClient::connect(&handle.addr().to_string()).expect("connects");
    assert_eq!(client.post_json("/predict", body).unwrap().status, 200);
    assert_eq!(client.post_json("/predict", body).unwrap().status, 200);
    let metrics = client.get("/metrics").unwrap().body_text();
    for needle in [
        "difftune_policy_tier_total{tier=\"cache\"} 1",
        "difftune_policy_tier_total{tier=\"surrogate\"} 1",
        "difftune_policy_tier_total{tier=\"simulator\"} 0",
    ] {
        assert!(
            metrics.contains(needle),
            "missing {needle:?} in:\n{metrics}"
        );
    }
    drop(client);
    handle.shutdown();

    // Budget 0: the same block routes to tier 3.
    let handle = serve_with_budget(&dir, 1, 0.0);
    let mut client = HttpClient::connect(&handle.addr().to_string()).expect("connects");
    assert_eq!(client.post_json("/predict", body).unwrap().status, 200);
    let metrics = client.get("/metrics").unwrap().body_text();
    for needle in [
        "difftune_policy_tier_total{tier=\"simulator\"} 1",
        "difftune_policy_tier_total{tier=\"surrogate\"} 0",
    ] {
        assert!(
            metrics.contains(needle),
            "missing {needle:?} in:\n{metrics}"
        );
    }
    drop(client);
    handle.shutdown();

    fs::remove_dir_all(&dir).ok();
}
