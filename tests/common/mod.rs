//! Fixtures shared by the serving suites (`tests/serve_e2e.rs`,
//! `tests/router_e2e.rs`, `tests/fleet_e2e.rs`) and `tests/matrix.rs`,
//! included with `mod common;`: artifact directories, learned-looking
//! tables and their matrix cell records, in-process upstreams and routers,
//! and an ordered request replay.
//!
//! Each suite uses a subset, so unused fixtures are allowed.
#![allow(dead_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use difftune_bench::record::{fingerprint_table, MatrixRecord, MATRIX_SCHEMA};
use difftune_repro::cpu::{default_params, Microarch};
use difftune_repro::sim::SimParams;
use difftune_router::server::{spawn_router, RouterConfig};
use difftune_router::RouterHandle;
use difftune_serve::backend::{BackendRegistry, ReloadSpec};
use difftune_serve::client::HttpClient;
use difftune_serve::server::{spawn, ServeConfig, ServerHandle};

/// A fresh per-test artifact directory under the temp dir, named after the
/// suite so suites running in parallel never share one.
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "difftune-{}-{}-{name}",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// A learned-looking table: the uarch defaults with a deterministic nudge.
pub fn perturbed_table(uarch: Microarch, nudge: u32) -> SimParams {
    let mut table = default_params(uarch);
    table.per_inst[3].write_latency += nudge;
    table.per_inst[11].port_map[1] += nudge;
    table.dispatch_width += 1;
    table
}

/// Writes a fingerprint-consistent `mca:haswell:llvm_mca` cell into `dir`.
pub fn write_matrix_cell(dir: &Path, nudge: u32) -> SimParams {
    write_cell_record(dir, nudge, MATRIX_SCHEMA, None, None)
}

/// Writes the `mca:haswell:llvm_mca` cell with a chosen table nudge, schema
/// string, (optionally) a deliberately wrong fingerprint — the knobs the
/// hot-reload rejection tests turn — and (optionally) a recorded
/// surrogate-vs-simulator MAPE, the knob the policy budget tests turn.
pub fn write_cell_record(
    dir: &Path,
    nudge: u32,
    schema: &str,
    fake_fingerprint: Option<String>,
    mape: Option<f64>,
) -> SimParams {
    let table = perturbed_table(Microarch::Haswell, nudge);
    let record = MatrixRecord {
        schema: schema.to_string(),
        cell: "mca:haswell:llvm_mca".to_string(),
        simulator: "mca".to_string(),
        uarch: "haswell".to_string(),
        spec: "llvm_mca".to_string(),
        scale: "smoke".to_string(),
        seed: 7,
        train_blocks: 1,
        heldout_blocks: 1,
        simulated_samples: 1,
        num_learned_parameters: 1,
        default_mape: 0.3,
        default_tau: 0.7,
        learned_mape: 0.25,
        learned_tau: 0.75,
        surrogate_mape: None,
        surrogate_tau: None,
        surrogate_vs_sim_mape: mape,
        surrogate_vs_sim_tau: None,
        surrogate_fingerprint: None,
        surrogate_blocks_per_second: None,
        simulator_blocks_per_second: None,
        by_category: Vec::new(),
        table_fingerprint: fake_fingerprint.unwrap_or_else(|| fingerprint_table(&table)),
        learned_table: table.to_flat(),
    };
    fs::write(dir.join(record.file_name()), record.to_json()).expect("record writes");
    table
}

/// One upstream: defaults plus the matrix cell in `dir`, reloadable from
/// `dir`, with a short idle timeout so shutdowns never wait on a router's
/// pooled keep-alive connections.
pub fn spawn_upstream(dir: &Path) -> ServerHandle {
    let mut registry = BackendRegistry::with_defaults();
    registry.add_matrix_dir(dir).expect("matrix dir loads");
    spawn(
        ServeConfig {
            shards: 2,
            read_timeout: Duration::from_millis(300),
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
    .expect("upstream binds an ephemeral port")
}

/// A router over the given upstream handles, tuned for fast tests.
pub fn spawn_fleet_router(upstreams: &[ServerHandle]) -> RouterHandle {
    spawn_router(RouterConfig {
        upstreams: upstreams
            .iter()
            .map(|handle| handle.addr().to_string())
            .collect(),
        read_timeout: Duration::from_millis(300),
        upstream_timeout: Duration::from_secs(5),
        health_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    })
    .expect("router binds an ephemeral port")
}

/// Posts every body in order; returns `(status, body)` pairs so error
/// responses are compared byte-for-byte as well.
pub fn post_all(client: &mut HttpClient, bodies: &[&str]) -> Vec<(u16, String)> {
    bodies
        .iter()
        .map(|body| {
            let response = client
                .post_json("/predict", body)
                .expect("request succeeds");
            (response.status, response.body_text())
        })
        .collect()
}
