//! End-to-end tests for `difftune-router`: determinism invariant #6.
//!
//! Routing changes *where* a `/predict` request is answered, never *what*
//! the answer is. The suite asserts cross-process byte-identity: the
//! response stream through a router fronting 1, 2, or 4 upstreams equals
//! the stream from a direct `difftune-serve` — before and after killing an
//! upstream mid-sequence, and after a hot table reload broadcast through
//! the router. It also covers the router's aggregation surface (`/metrics`,
//! `/backends`), the `/route` debug endpoint, and failover accounting.

use std::fs;
use std::path::Path;
use std::time::Duration;

use difftune_repro::cpu::Microarch;
use difftune_repro::surrogate::{
    FeatureMlpConfig, FeatureMlpModel, ModelConfig, SurrogateArtifact,
};
use difftune_serve::client::HttpClient;
use difftune_serve::server::ServerHandle;
use serde::Value;

mod common;

use common::{
    fresh_dir, perturbed_table, post_all, spawn_fleet_router, spawn_upstream, write_matrix_cell,
};

/// Writes a `SURROGATE_*.json` artifact for `mca:haswell:llvm_mca` into
/// `dir` (a small feature-MLP over a perturbed table), so upstreams also
/// serve a `surrogate:` backend.
fn write_surrogate_artifact(dir: &Path) -> SurrogateArtifact {
    let config = FeatureMlpConfig {
        hidden_dim: 8,
        parameter_inputs: true,
        seed: 5,
    };
    let model = FeatureMlpModel::new(config);
    let table = perturbed_table(Microarch::Haswell, 3);
    let artifact = SurrogateArtifact::new(
        "mca:haswell:llvm_mca",
        ModelConfig::Mlp(config),
        &model,
        &table,
    );
    fs::write(dir.join(artifact.file_name()), artifact.to_json()).expect("artifact writes");
    artifact
}

/// The request sequence: every backend source, singles and batches, plus a
/// malformed body (error bytes must round-trip through the proxy too).
fn request_bodies() -> Vec<&'static str> {
    vec![
        r#"{"block": "addq %rax, %rbx"}"#,
        r#"{"block": "addq %rax, %rbx", "source": "default"}"#,
        r#"{"blocks": ["addq %rax, %rbx", "mulsd %xmm1, %xmm2", "xorl %eax, %eax"], "source": "matrix"}"#,
        r#"{"block": "addq %rbx, %rcx", "sim": "uop", "uarch": "skylake"}"#,
        r#"{"blocks": ["mulsd %xmm1, %xmm2"], "sim": "mca", "uarch": "zen2"}"#,
        // The surrogate fast path routes like any other backend id.
        r#"{"block": "addq %rax, %rbx", "source": "surrogate"}"#,
        r#"{"block": "frobnicate %zz9"}"#,
    ]
}

#[test]
fn routed_responses_are_byte_identical_to_direct_serving_across_fleet_sizes() {
    let dir = fresh_dir("identity");
    write_matrix_cell(&dir, 2);
    write_surrogate_artifact(&dir);
    let bodies = request_bodies();

    // The direct-serve reference stream.
    let reference = {
        let handle = spawn_upstream(&dir);
        let mut client = HttpClient::connect(&handle.addr().to_string()).expect("connects");
        let reference = post_all(&mut client, &bodies);
        drop(client);
        handle.shutdown();
        reference
    };
    assert!(reference.iter().any(|(status, _)| *status != 200));

    for fleet_size in [1usize, 2, 4] {
        let upstreams: Vec<ServerHandle> = (0..fleet_size).map(|_| spawn_upstream(&dir)).collect();
        let router = spawn_fleet_router(&upstreams);
        let mut client = HttpClient::connect(&router.addr().to_string()).expect("connects");

        let cold = post_all(&mut client, &bodies);
        assert_eq!(
            cold, reference,
            "{fleet_size} upstream(s): routed bytes diverged from direct serving"
        );
        let warm = post_all(&mut client, &bodies);
        assert_eq!(
            warm, reference,
            "{fleet_size} upstream(s): warm caches changed routed bytes"
        );

        // The /v1 alias proxies byte-identically too.
        let v1: Vec<(u16, String)> = bodies
            .iter()
            .map(|body| {
                let response = client
                    .post_json("/v1/predict", body)
                    .expect("request succeeds");
                (response.status, response.body_text())
            })
            .collect();
        assert_eq!(
            v1, reference,
            "{fleet_size} upstream(s): /v1/predict diverged from /predict"
        );

        drop(client);
        router.shutdown();
        for upstream in upstreams {
            upstream.shutdown();
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// Asks the router which upstream is primary for `body`.
fn primary_for(client: &mut HttpClient, body: &str) -> String {
    let response = client
        .request("POST", "/route", body.as_bytes())
        .expect("answers");
    assert_eq!(response.status, 200, "{}", response.body_text());
    serde_json::from_str_value(&response.body_text())
        .expect("/route answers JSON")
        .get("primary")
        .and_then(|primary| primary.as_str().map(String::from))
        .expect("a healthy ring names a primary")
}

#[test]
fn killing_the_primary_upstream_mid_sequence_keeps_bytes_identical() {
    let dir = fresh_dir("failover");
    write_matrix_cell(&dir, 2);
    write_surrogate_artifact(&dir);
    let bodies = request_bodies();

    let reference = {
        let handle = spawn_upstream(&dir);
        let mut client = HttpClient::connect(&handle.addr().to_string()).expect("connects");
        let reference = post_all(&mut client, &bodies);
        drop(client);
        handle.shutdown();
        reference
    };

    let mut upstreams: Vec<ServerHandle> = (0..2).map(|_| spawn_upstream(&dir)).collect();
    let router = spawn_fleet_router(&upstreams);
    let mut client = HttpClient::connect(&router.addr().to_string()).expect("connects");

    // Half the sequence against the full fleet…
    let split = bodies.len() / 2;
    let mut streamed = post_all(&mut client, &bodies[..split]);

    // …then the primary upstream for this stream dies mid-load.
    let victim = primary_for(&mut client, bodies[0]);
    let index = upstreams
        .iter()
        .position(|handle| handle.addr().to_string() == victim)
        .expect("the primary is one of ours");
    upstreams.remove(index).shutdown();

    // The rest of the sequence fails over and the bytes never change.
    streamed.extend(post_all(&mut client, &bodies[split..]));
    assert_eq!(
        streamed, reference,
        "a mid-sequence upstream kill changed routed bytes"
    );

    // A full replay against the reduced fleet is still byte-identical.
    let replay = post_all(&mut client, &bodies);
    assert_eq!(replay, reference, "the post-kill replay diverged");

    // The dead upstream leaves rotation (either a request failed over or
    // the health loop noticed first — both end with one healthy upstream).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let metrics = client.get("/metrics").expect("answers").body_text();
        assert!(
            metrics.contains("difftune_router_failovers_total"),
            "{metrics}"
        );
        if metrics.contains("difftune_router_healthy_upstreams 1") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the router never took the killed upstream out of rotation: {metrics}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    drop(client);
    router.shutdown();
    for upstream in upstreams {
        upstream.shutdown();
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_reload_broadcast_swaps_every_upstream_and_stays_byte_identical() {
    let dir = fresh_dir("reload");
    let old_table = write_matrix_cell(&dir, 2);
    write_surrogate_artifact(&dir);
    let bodies = request_bodies();

    let upstreams: Vec<ServerHandle> = (0..2).map(|_| spawn_upstream(&dir)).collect();
    let router = spawn_fleet_router(&upstreams);
    let mut client = HttpClient::connect(&router.addr().to_string()).expect("connects");

    let before = post_all(&mut client, &bodies);
    assert!(before[0].1.contains(&old_table.fingerprint_hex()));

    // A new learned table lands; one broadcast reloads the whole fleet.
    let new_table = write_matrix_cell(&dir, 9);
    let reloaded = client.request("POST", "/reload", b"").expect("answers");
    assert_eq!(reloaded.status, 200, "{}", reloaded.body_text());
    let text = reloaded.body_text();
    assert!(text.contains("\"status\":\"reloaded\""), "{text}");
    for upstream in &upstreams {
        assert!(
            text.contains(&upstream.addr().to_string()),
            "every upstream reports its reload: {text}"
        );
    }

    // After the reload the routed stream equals a direct post-reload serve.
    let reference = {
        let handle = spawn_upstream(&dir);
        let mut direct = HttpClient::connect(&handle.addr().to_string()).expect("connects");
        let reference = post_all(&mut direct, &bodies);
        drop(direct);
        handle.shutdown();
        reference
    };
    let after = post_all(&mut client, &bodies);
    assert_eq!(after, reference, "routed bytes diverged after the reload");
    assert!(after[0].1.contains(&new_table.fingerprint_hex()));
    assert_ne!(after[0].1, before[0].1, "the reload swapped the table");

    drop(client);
    router.shutdown();
    for upstream in upstreams {
        upstream.shutdown();
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn router_aggregates_backends_and_metrics_and_explains_routes() {
    let dir = fresh_dir("aggregate");
    write_matrix_cell(&dir, 2);
    let artifact = write_surrogate_artifact(&dir);
    let upstreams: Vec<ServerHandle> = (0..2).map(|_| spawn_upstream(&dir)).collect();
    let router = spawn_fleet_router(&upstreams);
    let mut client = HttpClient::connect(&router.addr().to_string()).expect("connects");

    // /healthz reflects the fleet.
    let health = client.get("/healthz").expect("answers");
    assert_eq!(health.status, 200);
    assert!(health.body_text().contains("\"upstreams\":2"));

    // /backends is the union of every upstream's list, and the structured
    // entries (id/kind/fingerprint) survive aggregation intact.
    let backends = client.get("/backends").expect("answers").body_text();
    assert!(
        backends.contains("matrix:mca:haswell:llvm_mca"),
        "{backends}"
    );
    assert!(backends.contains("default:mca:haswell"), "{backends}");
    assert!(
        backends.contains("\"id\":\"surrogate:mca:haswell:llvm_mca\",\"kind\":\"surrogate\""),
        "{backends}"
    );
    assert!(
        backends.contains(&format!("\"fingerprint\":\"{}\"", artifact.fingerprint)),
        "{backends}"
    );
    let v1_backends = client.get("/v1/backends").expect("answers").body_text();
    assert_eq!(backends, v1_backends, "/v1/backends aliases /backends");

    // Two predictions, then /metrics: upstream samples are summed and the
    // router appends its own series.
    let body = r#"{"block": "addq %rax, %rbx", "source": "matrix"}"#;
    assert_eq!(client.post_json("/predict", body).unwrap().status, 200);
    assert_eq!(client.post_json("/predict", body).unwrap().status, 200);
    let metrics = client.get("/metrics").expect("answers").body_text();
    assert!(
        metrics.contains("difftune_predict_requests_total 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("difftune_router_requests_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("difftune_router_healthy_upstreams 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("difftune_router_proxied_total{upstream="),
        "{metrics}"
    );

    // /route explains the hash placement without proxying.
    let explained = client
        .request("POST", "/route", body.as_bytes())
        .expect("answers");
    assert_eq!(explained.status, 200);
    let value = serde_json::from_str_value(&explained.body_text()).expect("JSON");
    assert_eq!(
        value.get("backend").and_then(Value::as_str),
        Some("matrix:mca:haswell:llvm_mca"),
        "{}",
        explained.body_text()
    );
    let order = value
        .get("order")
        .and_then(Value::as_seq)
        .expect("an order list");
    assert_eq!(order.len(), 2, "both upstreams appear in failover order");

    drop(client);
    router.shutdown();
    for upstream in upstreams {
        upstream.shutdown();
    }
    fs::remove_dir_all(&dir).ok();
}
