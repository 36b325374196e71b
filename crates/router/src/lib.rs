//! # difftune-router
//!
//! A consistent-hash routing tier fronting N `difftune-serve` upstreams —
//! the multi-process serving story for the DiffTune reproduction.
//!
//! One `difftune-serve` process shards predictions across threads; this
//! crate shards *processes*: each `/predict` request's resolved backend id
//! hashes onto a [`ring::HashRing`] of upstreams (virtual nodes for
//! balance), so one learned table's traffic — and therefore its prediction
//! cache — concentrates on one upstream. Proxying runs over pooled
//! keep-alive connections ([`pool::ConnectionPool`]), a health thread keeps
//! dead or draining upstreams out of rotation, and failed attempts fail
//! over along the ring.
//!
//! * [`ring`] — the consistent-hash ring (stable, deterministic failover
//!   order);
//! * [`pool`] — per-upstream keep-alive connection pooling;
//! * [`server`] — the request handler behind the shared connection loop:
//!   proxying, request coalescing, health checks, `/metrics` and
//!   `/backends` aggregation, `/reload` broadcast, the `POST /rollout`
//!   rolling-restart orchestrator, and the `/route` debug endpoint.
//!
//! The `difftune-router` binary wraps [`server::spawn_router`].
//!
//! Because the ring is a pure function of `(upstream addresses, vnodes)`,
//! N routers configured alike agree on every routing decision with no
//! coordination: fleets deploy as shared-nothing router replicas over the
//! same upstream set (see `docs/ARCHITECTURE.md`, "Fleet deployment").
//!
//! # Determinism
//!
//! Routing changes *where* a request is answered, never *what* the answer
//! is: upstream `/predict` bodies are pure functions of `(blocks, backend)`
//! and the router forwards bodies byte-for-byte in both directions. Killing
//! an upstream mid-load, failing over, coalescing identical in-flight
//! requests, rolling restarts, and hot-reloading identical artifacts all
//! leave the response stream byte-identical to a direct `difftune-serve` —
//! determinism invariant #6, asserted end-to-end by `tests/router_e2e.rs`
//! and `tests/fleet_e2e.rs`, and exercised in CI by
//! `difftune-loadtest --via-router N --chaos SPEC` fault schedules.
//!
//! # Example
//!
//! ```no_run
//! use difftune_router::server::{spawn_router, RouterConfig};
//!
//! let handle = spawn_router(RouterConfig {
//!     upstreams: vec!["127.0.0.1:8117".to_string(), "127.0.0.1:8118".to_string()],
//!     ..RouterConfig::default()
//! })?;
//! println!("routing on http://{}", handle.addr());
//! handle.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod pool;
pub mod ring;
pub mod server;

pub use pool::ConnectionPool;
pub use ring::HashRing;
pub use server::{spawn_router, RouterConfig, RouterHandle};
