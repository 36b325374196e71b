//! # difftune-serve
//!
//! A sharded, caching HTTP prediction service over learned DiffTune
//! parameter tables.
//!
//! The tuning pipeline ends in artifacts — expert defaults, session
//! [`RunCheckpoint`](difftune::RunCheckpoint)s, and `MATRIX_*.json` scenario
//! cells. This crate puts those artifacts behind a socket: a hand-rolled
//! HTTP/1.1 server (`std::net::TcpListener` and threads; every external
//! dependency in this workspace is a vendored shim, so there is no async
//! runtime to import) that answers basic-block timing predictions from any
//! loaded backend.
//!
//! * [`http`] — incremental request parser (partial reads, pipelining, size
//!   limits), response writer, and the acceptor and keep-alive connection
//!   loop shared with `difftune-router`;
//! * [`backend`] — the table registry: `default` / `checkpoint` / `matrix`
//!   / `surrogate` sources, fingerprint-verified loading, per-request
//!   resolution;
//! * [`policy`] — the derived three-tier `policy:` backends (per-shard LRU
//!   → surrogate → full simulator, gated by `--error-budget`), the default
//!   answer for sourceless requests;
//! * [`cache`] — the fingerprint-keyed LRU prediction cache;
//! * [`server`] — the request handler: cache hits answered on the
//!   connection thread, per-shard miss workers batching through
//!   [`Simulator::predict_batch`], and the ops endpoints
//!   (`POST /reload` hot table swap, `POST /drain` graceful exit);
//! * [`metrics`] — request/cache/latency counters behind `GET /metrics`;
//! * [`client`] — the minimal blocking client used by `difftune-loadtest`
//!   and the test suites.
//!
//! Two binaries ship with the crate: `difftune-serve` (the server) and
//! `difftune-loadtest` (a closed-loop generator that measures throughput
//! into `BENCH_serve.json`, schema `difftune-bench/2`).
//!
//! [`Simulator::predict_batch`]: difftune_sim::Simulator::predict_batch
//!
//! # Determinism
//!
//! `/predict` response bodies are bit-identical across shard counts, cache
//! states, and request batching: simulators are pure functions, cache hits
//! return the exact value a miss would recompute, and floats serialize in
//! Rust's shortest-exact form — the serving extension of the determinism
//! contract the training engine established (see `docs/ARCHITECTURE.md`).
//! Policy backends extend the same contract (invariant #8): the tier a
//! block is answered from is a pure function of the block, the budget, and
//! the cell's frozen metadata, so responses stay byte-identical across
//! shard counts, cache states, and tier configurations given the same
//! budget.
//!
//! # Example
//!
//! ```no_run
//! use difftune_serve::backend::BackendRegistry;
//! use difftune_serve::client::HttpClient;
//! use difftune_serve::server::{spawn, ServeConfig};
//!
//! let mut registry = BackendRegistry::with_defaults();
//! registry.add_matrix_dir(std::path::Path::new("matrix-out"))?;
//! let handle = spawn(ServeConfig::default(), registry)?;
//!
//! let mut client = HttpClient::connect(&handle.addr().to_string())?;
//! let response = client.post_json(
//!     "/predict",
//!     r#"{"block": "addq %rax, %rbx", "sim": "mca", "uarch": "haswell"}"#,
//! )?;
//! println!("{}", response.body_text());
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod policy;
pub mod server;

pub use backend::{Backend, BackendQuery, BackendRegistry, Predictor, ReloadSpec, Source};
pub use cache::LruCache;
pub use client::{ClientResponse, HttpClient};
pub use http::{HttpError, HttpLimits, Request, RequestBuffer, Response};
pub use metrics::{Endpoint, Metrics};
pub use policy::{PolicyPredictor, TIER_PLAIN, TIER_SIMULATOR, TIER_SURROGATE};
pub use server::{parse_backend_query, spawn, ServeConfig, ServerHandle};
