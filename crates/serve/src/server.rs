//! The prediction server: the request handler behind the shared
//! [`serve_connections`] loop, the per-shard prediction caches, and the
//! shard workers that answer cache misses.
//!
//! # Architecture
//!
//! ```text
//! acceptor ──► connection threads (parse HTTP, resolve backend, cache keys)
//!                   │ lock the shard's LruCache: every block hits?
//!                   ├── yes ──► respond from the connection thread
//!                   │ no: ShardMessage (mpsc)
//!                   ▼
//!              shard workers ──► LruCache ──► Predictor::predict_batch
//!                                  (locked per pass, never across a batch)
//! ```
//!
//! A backend is pinned to one shard by its fingerprint
//! ([`Backend::shard_index`]), so one table's cache entries never split
//! across shards. Each shard is a cache stripe plus a miss worker. A request
//! whose every block hits its shard's cache is answered on the connection
//! thread, with no queue hop. Any miss sends the whole request to the shard
//! worker, which does its own lookups. The worker drains every queued job
//! before predicting, groups the in-flight requests by backend, deduplicates
//! repeated blocks, and answers all cache misses of a group with a single
//! [`Predictor::predict_batch`](crate::backend::Predictor) call — for table
//! backends the same batched simulator hot path the evaluation pipeline
//! uses, for surrogate backends one forward pass of the surrogate per block.
//! The worker holds the cache lock for its lookup pass and again for its
//! insert pass, never across `predict_batch`, so a slow miss batch never
//! stalls the hits on its shard. Only workers insert and purge.
//!
//! Misses stay on the shard workers for memory, not speed. A prototype that
//! answered misses on the connection threads (no shard workers, one
//! mutex-guarded surrogate engine per backend) read 16.3–19.9 MB resident on
//! perfbench's `serve-lstm-miss` workload against 14.8–15.3 MB for this
//! design (6 run pairs, 2-vCPU container), 26.0 MB in a run that also kept
//! the engine pool, and 12.4 MB under `MALLOC_ARENA_MAX=1`: the growth is
//! the allocator's per-thread arenas, one for each connection thread that
//! runs a prediction. A few long-lived workers bound how many threads
//! allocate prediction scratch.
//!
//! # Ops primitives
//!
//! Two endpoints exist for the routing tier ([`crate::client`] consumers):
//!
//! * **`POST /reload`** re-reads every artifact named by the startup
//!   [`ReloadSpec`], fingerprint-verifies the lot, and only on *complete*
//!   success swaps the registry `Arc` and purges exactly the shard-cache
//!   entries whose backends disappeared. Any failure leaves the old registry
//!   serving and returns a structured error — there is no torn state because
//!   the new registry is built fully off to the side.
//! * **`POST /drain`** stops the acceptor, lets in-flight connections finish
//!   their buffered requests, and flips `/healthz` to `503 draining` so a
//!   router takes the process out of rotation. The binary observes
//!   [`ServerHandle::drain_requested`] and exits 0.
//!
//! Connections additionally honor a `max_requests_per_connection` cap by
//! answering the capped request with `Connection: close` — the client-visible
//! negotiation that lets a pooling router rebalance long-lived connections.
//!
//! # Determinism
//!
//! A `/predict` response body is a pure function of `(blocks, backend)`:
//! simulators are pure, `predict_batch` is defined to equal the per-block
//! loop, cache hits return the exact `f64` a miss would recompute (whether a
//! connection thread or a shard worker reads it), and JSON floats print in
//! Rust's shortest-exact form. Shard count, request grouping, cache state,
//! which thread answers, reloads (same artifacts), and connection caps
//! change wall time only — `tests/serve_e2e.rs` asserts the bytes. Policy
//! backends extend this (invariant #8): the tier answering a cell's blocks
//! is a pure function of the policy's frozen metadata, so the same holds
//! across tier configurations given the same `--error-budget`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::Duration;

use difftune::BackendId;
use difftune_isa::BasicBlock;
use serde::Value;

use crate::backend::{block_key, Backend, BackendQuery, BackendRegistry, ReloadSpec, Source};
use crate::cache::{CacheKey, LruCache};
use crate::http::{
    endpoint_path, serve_connections, Acceptor, Handler, HttpError, HttpLimits, Request, Response,
};
use crate::metrics::{Endpoint, Metrics};
use crate::policy::TIER_SURROGATE;
use difftune_bench::matrix::{SimulatorKind, SpecKind};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1` by default).
    pub addr: String,
    /// Port to bind; `0` picks an ephemeral port (the handle reports it).
    pub port: u16,
    /// Prediction shards; `0` means all available cores. Each shard is one
    /// cache stripe (the backends pinned to it by
    /// [`Backend::shard_index`]) plus one worker thread answering that
    /// stripe's misses. Hits never reach a worker.
    pub shards: usize,
    /// Prediction-cache capacity **per shard** (entries, one per
    /// `(block, backend)` pair); `0` disables caching.
    pub cache_capacity: usize,
    /// HTTP parsing limits.
    pub limits: HttpLimits,
    /// Idle-connection read timeout (the `--idle-timeout` flag); a connection
    /// with no complete request for this long is closed.
    pub read_timeout: Duration,
    /// Maximum blocks in one `/predict` request (larger requests get `413`).
    pub max_blocks_per_request: usize,
    /// After this many answered requests a connection is closed with
    /// `Connection: close` (`0` = unlimited) — the graceful-drain negotiation
    /// that keeps a router's pooled connections from pinning one upstream
    /// forever.
    pub max_requests_per_connection: usize,
    /// The artifact locations `POST /reload` rescans. `None` (the default)
    /// rejects reloads — a server must opt in to naming its sources.
    pub reload_spec: Option<ReloadSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1".to_string(),
            port: 0,
            shards: 0,
            cache_capacity: 4096,
            limits: HttpLimits::default(),
            read_timeout: Duration::from_secs(5),
            max_blocks_per_request: 1024,
            max_requests_per_connection: 0,
            reload_spec: None,
        }
    }
}

/// One queued prediction batch: a resolved backend, the parsed blocks, and
/// where to send the predictions.
struct PredictJob {
    backend: Arc<Backend>,
    blocks: Vec<BasicBlock>,
    keys: Vec<CacheKey>,
    reply: mpsc::Sender<Vec<f64>>,
}

/// What flows down a shard channel: prediction work, or a cache purge from a
/// hot reload. Purges ride the same queue as jobs, so a shard applies them
/// strictly after every job enqueued before the reload — no torn interleaving.
enum ShardMessage {
    /// A prediction batch.
    Job(PredictJob),
    /// Drop every cache entry belonging to these backend fingerprints, then
    /// ack with the number of entries removed.
    Purge {
        backends: Vec<u64>,
        done: mpsc::Sender<usize>,
    },
}

/// One shard's prediction cache, shared by its worker (lookups, inserts,
/// purges) and every connection thread (lookups only).
type SharedCache = Arc<Mutex<LruCache>>;

/// Locks a shard cache. No holder can panic mid-update (the LRU's methods
/// do not panic), so poisoning means a bug, not a recoverable state.
fn lock(cache: &Mutex<LruCache>) -> std::sync::MutexGuard<'_, LruCache> {
    cache.lock().expect("shard cache lock poisoned")
}

/// The server's [`Handler`]: everything a connection thread needs.
struct ConnectionContext {
    /// The hot-swappable registry: readers clone the inner `Arc` once per
    /// request, so a concurrent reload never changes a request mid-flight.
    registry: Arc<RwLock<Arc<BackendRegistry>>>,
    metrics: Arc<Metrics>,
    senders: Vec<mpsc::Sender<ShardMessage>>,
    /// Each shard's cache, indexed like `senders`.
    caches: Vec<SharedCache>,
    max_blocks: usize,
    shard_count: usize,
    /// Set by `POST /drain`; checked by the acceptor, connections, and
    /// `/healthz`.
    drain: Arc<AtomicBool>,
    /// The bound address (drain self-connects to unblock the acceptor).
    addr: SocketAddr,
    /// What `POST /reload` rescans.
    reload_spec: Option<ReloadSpec>,
    /// Serializes reloads: two concurrent reloads must not interleave their
    /// swap-then-purge sequences.
    reload_lock: Arc<Mutex<()>>,
}

impl ConnectionContext {
    /// The registry as of this instant.
    fn registry(&self) -> Arc<BackendRegistry> {
        Arc::clone(&self.registry.read().expect("registry lock poisoned"))
    }
}

impl Handler for ConnectionContext {
    fn handle(&self, request: &Request) -> Response {
        route(request, self)
    }

    /// A drain stops the acceptor and every connection's next read.
    fn stopping(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }

    /// Meters every request, the response write included, under its
    /// endpoint (`/v1` aliases count as their endpoint; protocol errors as
    /// `other`).
    fn finished(&self, endpoint_path: &str, status: u16, elapsed: Duration) {
        self.metrics.on_request();
        self.metrics.on_response_status(status);
        self.metrics
            .on_latency(Endpoint::from_path(endpoint_path), elapsed);
    }
}

/// A handle to a running server. Dropping the handle shuts the server down.
#[derive(Debug)]
pub struct ServerHandle {
    drain: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    acceptor: Acceptor,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// The handle's own copies of the shard senders; dropped during shutdown
    /// so workers observe a closed channel once every connection is gone.
    senders: Vec<mpsc::Sender<ShardMessage>>,
}

impl ServerHandle {
    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// The server's metrics counters.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// True once a `POST /drain` has been accepted. The binary polls this and
    /// exits 0 after [`ServerHandle::shutdown`].
    pub fn drain_requested(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }

    /// Connections currently being served (drain waits for this to hit 0).
    pub fn active_connections(&self) -> usize {
        self.acceptor.active_connections()
    }

    /// Stops accepting, waits for in-flight connections (bounded by the idle
    /// timeout), and joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.acceptor.shutdown();
        self.senders.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Binds the listener and spawns the shard workers, then the acceptor.
///
/// # Errors
///
/// I/O errors from binding the address.
pub fn spawn(config: ServeConfig, registry: BackendRegistry) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind((config.addr.as_str(), config.port))?;
    let addr = listener.local_addr()?;

    let shard_count = difftune_tensor::resolve_threads(config.shards);

    let registry = Arc::new(RwLock::new(Arc::new(registry)));
    let metrics = Arc::new(Metrics::new());
    let drain = Arc::new(AtomicBool::new(false));

    let mut senders = Vec::with_capacity(shard_count);
    let mut caches = Vec::with_capacity(shard_count);
    let mut workers = Vec::with_capacity(shard_count);
    for shard in 0..shard_count {
        let (tx, rx) = mpsc::channel::<ShardMessage>();
        senders.push(tx);
        let cache = Arc::new(Mutex::new(LruCache::new(config.cache_capacity)));
        caches.push(Arc::clone(&cache));
        let metrics = Arc::clone(&metrics);
        workers.push(
            std::thread::Builder::new()
                .name(format!("difftune-serve-shard-{shard}"))
                .spawn(move || worker_loop(rx, cache, metrics))?,
        );
    }

    let context = ConnectionContext {
        registry,
        metrics: Arc::clone(&metrics),
        senders: senders.clone(),
        caches,
        max_blocks: config.max_blocks_per_request,
        shard_count,
        drain: Arc::clone(&drain),
        addr,
        reload_spec: config.reload_spec.clone(),
        reload_lock: Arc::new(Mutex::new(())),
    };
    let acceptor = serve_connections(
        listener,
        "difftune-serve",
        Arc::new(context),
        config.limits,
        config.read_timeout,
        config.max_requests_per_connection,
    )?;

    Ok(ServerHandle {
        drain,
        metrics,
        acceptor,
        workers,
        senders,
    })
}

/// Dispatches one parsed request to its endpoint. Every endpoint is
/// reachable both at its versioned path (`/v1/predict`) and at the
/// unversioned alias (`/predict`), normalized by [`endpoint_path`].
fn route(request: &Request, context: &ConnectionContext) -> Response {
    match (request.method.as_str(), endpoint_path(&request.path)) {
        ("GET", "/healthz") => {
            let draining = context.drain.load(Ordering::SeqCst);
            let registry = context.registry();
            Response::json(
                if draining { 503 } else { 200 },
                serde_json::to_string(&Value::Map(vec![
                    (
                        "status".to_string(),
                        Value::Str(if draining { "draining" } else { "ok" }.to_string()),
                    ),
                    ("backends".to_string(), Value::Int(registry.len() as i128)),
                    (
                        "shards".to_string(),
                        Value::Int(context.shard_count as i128),
                    ),
                ]))
                .expect("health body serializes"),
            )
        }
        ("GET", "/metrics") => Response::text(
            200,
            context
                .metrics
                .render(context.registry().len(), context.shard_count),
        ),
        ("GET", "/backends") => Response::json(
            200,
            serde_json::to_string(&Value::Seq(
                context
                    .registry()
                    .entries()
                    .into_iter()
                    .map(|(id, kind, fingerprint)| {
                        Value::Map(vec![
                            ("id".to_string(), Value::Str(id)),
                            ("kind".to_string(), Value::Str(kind.to_string())),
                            ("fingerprint".to_string(), Value::Str(fingerprint)),
                        ])
                    })
                    .collect(),
            ))
            .expect("backend list serializes"),
        ),
        ("POST", "/predict") => match handle_predict(request, context) {
            Ok(response) => response,
            Err(error) => Response::from_error(&error, false),
        },
        ("POST", "/reload") => match handle_reload(context) {
            Ok(response) => response,
            Err(error) => Response::from_error(&error, false),
        },
        ("POST", "/drain") => handle_drain(context),
        (_, "/healthz" | "/metrics" | "/backends") => Response::from_error(
            &HttpError {
                status: 405,
                message: format!("{} only supports GET", request.path),
            },
            false,
        ),
        (_, "/predict" | "/reload" | "/drain") => Response::from_error(
            &HttpError {
                status: 405,
                message: format!("{} only supports POST", request.path),
            },
            false,
        ),
        (_, path) => Response::from_error(
            &HttpError {
                status: 404,
                message: format!(
                    "unknown path {path}; endpoints are POST /predict, POST /reload, \
                     POST /drain, GET /healthz, GET /metrics, GET /backends (all also \
                     under /v1)"
                ),
            },
            false,
        ),
    }
}

/// Parses, resolves, and answers one `/predict` request.
fn handle_predict(request: &Request, context: &ConnectionContext) -> Result<Response, HttpError> {
    let body = std::str::from_utf8(&request.body)
        .map_err(|_| HttpError::bad_request("request body is not valid UTF-8"))?;
    let value = serde_json::from_str_value(body)
        .map_err(|error| HttpError::bad_request(format!("request body is not JSON: {error}")))?;
    let map = value
        .as_map()
        .ok_or_else(|| HttpError::bad_request("request body must be a JSON object"))?;

    // Exactly one of `block` (a string) or `blocks` (an array of strings).
    let texts: Vec<&str> = match (find(map, "block"), find(map, "blocks")) {
        (Some(_), Some(_)) => {
            return Err(HttpError::bad_request(
                "send either `block` or `blocks`, not both",
            ))
        }
        (Some(single), None) => {
            vec![single
                .as_str()
                .ok_or_else(|| HttpError::bad_request("`block` must be a string"))?]
        }
        (None, Some(many)) => many
            .as_seq()
            .ok_or_else(|| HttpError::bad_request("`blocks` must be an array of strings"))?
            .iter()
            .map(|item| {
                item.as_str()
                    .ok_or_else(|| HttpError::bad_request("`blocks` must contain only strings"))
            })
            .collect::<Result<_, _>>()?,
        (None, None) => {
            return Err(HttpError::bad_request(
                "the request must carry a `block` string or a `blocks` array",
            ))
        }
    };
    if texts.is_empty() {
        return Err(HttpError::bad_request("`blocks` must not be empty"));
    }
    if texts.len() > context.max_blocks {
        return Err(HttpError {
            status: 413,
            message: format!(
                "{} blocks exceed the per-request limit of {}",
                texts.len(),
                context.max_blocks
            ),
        });
    }

    let mut blocks = Vec::with_capacity(texts.len());
    for (index, text) in texts.iter().enumerate() {
        let block: BasicBlock = text.parse().map_err(|error| {
            HttpError::bad_request(format!("blocks[{index}] does not parse: {error}"))
        })?;
        if block.is_empty() {
            return Err(HttpError::bad_request(format!(
                "blocks[{index}] has no instructions"
            )));
        }
        blocks.push(block);
    }

    let query = parse_backend_query(map)?;
    let backend = context
        .registry()
        .resolve(&query)
        .map_err(|message| HttpError {
            status: 404,
            message,
        })?;

    let keys: Vec<CacheKey> = blocks
        .iter()
        .map(|block| {
            (
                block_key(block),
                backend.cache_fingerprint,
                backend.predictor.tier_tag(block),
            )
        })
        .collect();
    // Policy responses report the tier family that actually answered: pure
    // tier-2 batches are `surrogate`, anything touching tier 3 is `table`.
    // The tier tags are pure functions of the cell, so this label is as
    // deterministic as the prediction bytes.
    let source_kind = if backend.source == Source::Policy {
        if keys.iter().all(|&(_, _, tier)| tier == TIER_SURROGATE) {
            "surrogate"
        } else {
            "table"
        }
    } else {
        backend.kind()
    };
    let shard = backend.shard_index(context.shard_count);

    // All hits: answer here, metered exactly as the worker would meter them.
    // Any miss: the whole request goes to the shard, which looks up and
    // meters every block itself, so nothing is counted twice.
    let cached: Option<Vec<f64>> = {
        let mut cache = lock(&context.caches[shard]);
        keys.iter().map(|key| cache.get(key)).collect()
    };
    let predictions = match cached {
        Some(values) => {
            meter_lookups(&context.metrics, &backend, values.len(), &[]);
            values
        }
        None => {
            let (reply_tx, reply_rx) = mpsc::channel();
            let job = PredictJob {
                backend: Arc::clone(&backend),
                blocks,
                keys,
                reply: reply_tx,
            };
            context.senders[shard]
                .send(ShardMessage::Job(job))
                .map_err(|_| HttpError {
                    status: 503,
                    message: "prediction shard is gone (server shutting down)".to_string(),
                })?;
            reply_rx.recv().map_err(|_| HttpError {
                status: 500,
                message: "prediction shard dropped the request".to_string(),
            })?
        }
    };

    context.metrics.on_predict(predictions.len());
    Ok(Response::json(
        200,
        prediction_body(&backend, source_kind, predictions),
    ))
}

/// The `/predict` response body. Both the connection-thread hit path and
/// the shard path end here, so the bytes are built in one place.
fn prediction_body(backend: &Backend, source_kind: &str, predictions: Vec<f64>) -> String {
    serde_json::to_string(&Value::Map(vec![
        ("backend".to_string(), Value::Str(backend.id.clone())),
        (
            "source_kind".to_string(),
            Value::Str(source_kind.to_string()),
        ),
        (
            "table_fingerprint".to_string(),
            Value::Str(backend.table_fingerprint.clone()),
        ),
        (
            "predictions".to_string(),
            Value::Seq(predictions.into_iter().map(Value::Float).collect()),
        ),
    ]))
    .expect("a prediction body always serializes")
}

/// Meters one backend's cache pass: `hits` blocks answered from the cache,
/// plus the deduplicated misses in `miss_keys`. Policy backends also count
/// blocks per tier: hits are tier 1, and each miss carries its tier in the
/// cache key's tag.
fn meter_lookups(metrics: &Metrics, backend: &Backend, hits: usize, miss_keys: &[CacheKey]) {
    metrics.on_cache(hits, miss_keys.len());
    if backend.source == Source::Policy {
        let surrogate = miss_keys
            .iter()
            .filter(|&&(_, _, tier)| tier == TIER_SURROGATE)
            .count();
        metrics.on_policy_tier(0, hits);
        metrics.on_policy_tier(1, surrogate);
        metrics.on_policy_tier(2, miss_keys.len() - surrogate);
    }
}

/// Rebuilds the registry from the startup [`ReloadSpec`] and swaps it in.
///
/// The rebuild happens entirely off to the side under strict verification, so
/// every failure mode — missing spec, unreadable artifact, fingerprint
/// mismatch, unservable schema — returns a structured error *before* anything
/// observable changes: the old registry keeps serving and no cache entry is
/// touched. Only a fully verified registry is swapped in, after which exactly
/// the cache entries of disappeared backends are purged, shard by shard.
fn handle_reload(context: &ConnectionContext) -> Result<Response, HttpError> {
    let Some(spec) = &context.reload_spec else {
        return Err(HttpError {
            status: 409,
            message: "this server has no reload sources (started without --tables/--checkpoint \
                      or with --no-reload)"
                .to_string(),
        });
    };
    let _serialized = context.reload_lock.lock().expect("reload lock poisoned");

    let new_registry = BackendRegistry::load(spec, true).map_err(|message| HttpError {
        status: 409,
        message: format!("reload rejected, old tables still serving: {message}"),
    })?;
    let new_fingerprints = new_registry.cache_fingerprints();
    let backend_count = new_registry.len();

    // Swap. In-flight requests hold the old `Arc` and finish consistently.
    let old_registry = {
        let mut slot = context.registry.write().expect("registry lock poisoned");
        std::mem::replace(&mut *slot, Arc::new(new_registry))
    };

    // Purge exactly the backends that disappeared (a re-tuned table gets a
    // new fingerprint, so its old entries are unreachable garbage; unchanged
    // backends keep their warm entries).
    let stale: BTreeSet<u64> = old_registry
        .cache_fingerprints()
        .difference(&new_fingerprints)
        .copied()
        .collect();
    let mut by_shard: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for fingerprint in stale {
        by_shard
            .entry((fingerprint % context.shard_count.max(1) as u64) as usize)
            .or_default()
            .push(fingerprint);
    }
    let purged_backends: usize = by_shard.values().map(Vec::len).sum();
    let mut purged_entries = 0usize;
    for (shard, backends) in by_shard {
        let (done_tx, done_rx) = mpsc::channel();
        if context.senders[shard]
            .send(ShardMessage::Purge {
                backends,
                done: done_tx,
            })
            .is_ok()
        {
            purged_entries += done_rx.recv().unwrap_or(0);
        }
    }

    context.metrics.on_reload();
    Ok(Response::json(
        200,
        serde_json::to_string(&Value::Map(vec![
            ("status".to_string(), Value::Str("reloaded".to_string())),
            ("backends".to_string(), Value::Int(backend_count as i128)),
            (
                "purged_backends".to_string(),
                Value::Int(purged_backends as i128),
            ),
            (
                "purged_entries".to_string(),
                Value::Int(purged_entries as i128),
            ),
        ]))
        .expect("reload body serializes"),
    ))
}

/// Begins a graceful drain: stop accepting, flip `/healthz` to 503, and let
/// the binary exit once in-flight connections finish.
fn handle_drain(context: &ConnectionContext) -> Response {
    let already = context.drain.swap(true, Ordering::SeqCst);
    if !already {
        // Unblock the acceptor so it observes the flag and stops accepting.
        let _ = TcpStream::connect(context.addr);
    }
    let mut response = Response::json(
        200,
        serde_json::to_string(&Value::Map(vec![
            ("status".to_string(), Value::Str("draining".to_string())),
            ("already_draining".to_string(), Value::Bool(already)),
        ]))
        .expect("drain body serializes"),
    );
    // This connection is done too once the response is written.
    response.close = true;
    response
}

/// Looks up a top-level field in the request object.
fn find<'a>(map: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    map.iter()
        .find(|(key, _)| key == name)
        .map(|(_, value)| value)
}

/// Extracts the backend-selection fields (`sim`, `uarch`, `spec`, `source`),
/// all optional, plus the `backend` shorthand: a full backend id
/// (`matrix:mca:haswell:llvm_mca`) parsed through [`BackendId`], setting all
/// four at once (individual fields still override it).
///
/// Public because the routing tier parses the same fields out of a `/predict`
/// body to compute the request's ring position — router and upstream must
/// agree on this parse or routing would diverge from resolution.
///
/// # Errors
///
/// A 400 [`HttpError`] naming the malformed field.
pub fn parse_backend_query(map: &[(String, Value)]) -> Result<BackendQuery, HttpError> {
    let text = |name: &str| -> Result<Option<&str>, HttpError> {
        match find(map, name) {
            None | Some(Value::Null) => Ok(None),
            Some(value) => value
                .as_str()
                .map(Some)
                .ok_or_else(|| HttpError::bad_request(format!("`{name}` must be a string"))),
        }
    };
    let mut query = BackendQuery::default();
    if let Some(id) = text("backend")? {
        let id: BackendId = id.parse().map_err(HttpError::bad_request)?;
        query.simulator = id.simulator;
        query.uarch = id.uarch;
        query.source = Some(id.source);
        if let Some(spec) = id.spec {
            query.spec = spec;
        }
    }
    if let Some(sim) = text("sim")? {
        query.simulator = SimulatorKind::parse(sim).map_err(HttpError::bad_request)?;
    }
    if let Some(uarch) = text("uarch")? {
        query.uarch = uarch.parse().map_err(|error: String| {
            HttpError::bad_request(format!(
                "{error} (valid: ivybridge, haswell, skylake, zen2)"
            ))
        })?;
    }
    if let Some(spec) = text("spec")? {
        query.spec = SpecKind::parse(spec).map_err(HttpError::bad_request)?;
    }
    if let Some(source) = text("source")? {
        query.source = Some(Source::parse(source).map_err(HttpError::bad_request)?);
    }
    Ok(query)
}

/// One shard's loop: drain queued messages, group jobs by backend, answer
/// misses with one `predict_batch` per group, then apply any purges.
///
/// The cache lock is taken for each group's lookup pass and again for its
/// insert pass, and never held across `predict_batch`: connection threads
/// answer hits from the same cache while a miss batch runs.
fn worker_loop(rx: mpsc::Receiver<ShardMessage>, cache: SharedCache, metrics: Arc<Metrics>) {
    while let Ok(first) = rx.recv() {
        let mut jobs = Vec::new();
        let mut purges = Vec::new();
        let mut stash = |message: ShardMessage| match message {
            ShardMessage::Job(job) => jobs.push(job),
            ShardMessage::Purge { backends, done } => purges.push((backends, done)),
        };
        stash(first);
        while let Ok(next) = rx.try_recv() {
            stash(next);
        }

        // Group the in-flight jobs by backend so each table's misses batch
        // into a single simulator call.
        let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (index, job) in jobs.iter().enumerate() {
            groups
                .entry(job.backend.cache_fingerprint)
                .or_default()
                .push(index);
        }

        let mut replies: Vec<Vec<f64>> = jobs.iter().map(|j| vec![0.0; j.blocks.len()]).collect();
        for indices in groups.values() {
            let backend = Arc::clone(&jobs[indices[0]].backend);
            // Cache pass: answer hits, queue deduplicated misses.
            let mut miss_blocks: Vec<BasicBlock> = Vec::new();
            let mut miss_keys: Vec<CacheKey> = Vec::new();
            let mut miss_index: HashMap<CacheKey, usize> = HashMap::new();
            let mut miss_slots: Vec<(usize, usize, usize)> = Vec::new();
            let mut hits = 0usize;
            {
                let mut cache = lock(&cache);
                for &job_index in indices {
                    let job = &jobs[job_index];
                    for (block_index, (block, key)) in job.blocks.iter().zip(&job.keys).enumerate()
                    {
                        if let Some(value) = cache.get(key) {
                            replies[job_index][block_index] = value;
                            hits += 1;
                            continue;
                        }
                        let slot = *miss_index.entry(*key).or_insert_with(|| {
                            miss_blocks.push(block.clone());
                            miss_keys.push(*key);
                            miss_blocks.len() - 1
                        });
                        miss_slots.push((job_index, block_index, slot));
                    }
                }
            }
            meter_lookups(&metrics, &backend, hits, &miss_keys);

            if !miss_blocks.is_empty() {
                let values = backend.predictor.predict_batch(&miss_blocks);
                {
                    let mut cache = lock(&cache);
                    for (key, value) in miss_keys.iter().zip(&values) {
                        cache.insert(*key, *value);
                    }
                }
                for (job_index, block_index, slot) in miss_slots {
                    replies[job_index][block_index] = values[slot];
                }
            }
        }

        for (job, reply) in jobs.iter().zip(replies) {
            // The client may have disconnected; nothing to do about it.
            let _ = job.reply.send(reply);
        }

        // Purges apply after the batch's jobs: any job enqueued before the
        // reload ran against the old registry and may have populated old
        // entries — they go too.
        for (backends, done) in purges {
            let removed: usize = {
                let mut cache = lock(&cache);
                backends
                    .into_iter()
                    .map(|backend| cache.purge_backend(backend))
                    .sum()
            };
            let _ = done.send(removed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Predictor;
    use crate::client::HttpClient;
    use crate::policy::TIER_SIMULATOR;
    use difftune_cpu::{default_params, Microarch};

    /// How long any step of a test may wait before it counts as stuck.
    const PATIENCE: Duration = Duration::from_secs(10);

    /// How long a gated batch waits for its release before giving up: far
    /// longer than [`PATIENCE`], so a request stuck behind the gate times
    /// out first.
    const GATE_LIMIT: Duration = Duration::from_secs(120);

    /// A predictor whose batches wait on a gate whenever they contain
    /// `gated`, and announce that they are waiting. Its answers are a pure
    /// function of the block, offset per predictor, and it tags every block
    /// with a non-zero tier so a key that drops the tag cannot hit.
    #[derive(Debug)]
    struct GatedPredictor {
        offset: f64,
        gated: Option<BasicBlock>,
        entered: Mutex<mpsc::Sender<()>>,
        gate: Mutex<mpsc::Receiver<()>>,
    }

    impl Predictor for GatedPredictor {
        fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<f64> {
            if self
                .gated
                .as_ref()
                .is_some_and(|gated| blocks.contains(gated))
            {
                let _ = self.entered.lock().unwrap().send(());
                let _ = self.gate.lock().unwrap().recv_timeout(GATE_LIMIT);
            }
            blocks
                .iter()
                .map(|block| self.offset + (block_key(block) % 1024) as f64 / 8.0)
                .collect()
        }

        fn fingerprint(&self) -> &str {
            "0x0000000000000001"
        }

        fn kind(&self) -> &'static str {
            "table"
        }

        fn tier_tag(&self, _block: &BasicBlock) -> u8 {
            TIER_SIMULATOR
        }
    }

    /// The gate controls of one registry's gated backend.
    struct Gate {
        entered: mpsc::Receiver<()>,
        release: mpsc::Sender<()>,
    }

    /// A registry of two backends: `default:mca:haswell` (gated on `gated`)
    /// and `default:uop:haswell` (never gated, different answers). Dropping
    /// the [`Gate`] opens the gate for good.
    fn gated_registry(gated: &str) -> (BackendRegistry, Gate) {
        let (entered_tx, entered) = mpsc::channel();
        let (release, gate_rx) = mpsc::channel();
        let (idle_tx, _) = mpsc::channel();
        let (_, idle_rx) = mpsc::channel();
        let mut registry = BackendRegistry::new();
        for (simulator, predictor, cache_fingerprint) in [
            (
                SimulatorKind::Mca,
                GatedPredictor {
                    offset: 1.0,
                    gated: Some(gated.parse().unwrap()),
                    entered: Mutex::new(entered_tx),
                    gate: Mutex::new(gate_rx),
                },
                0xa,
            ),
            (
                SimulatorKind::Uop,
                GatedPredictor {
                    offset: 1000.0,
                    gated: None,
                    entered: Mutex::new(idle_tx),
                    gate: Mutex::new(idle_rx),
                },
                0xb,
            ),
        ] {
            registry.register(Backend {
                id: format!("default:{}:haswell", simulator.key()),
                source: Source::Default,
                simulator_kind: simulator,
                uarch: Microarch::Haswell,
                spec: None,
                table_fingerprint: predictor.fingerprint().to_string(),
                predictor: Box::new(predictor),
                table: default_params(Microarch::Haswell),
                cache_fingerprint,
            });
        }
        (registry, Gate { entered, release })
    }

    fn predict_body(sim: &str, blocks: &[&str]) -> String {
        serde_json::to_string(&Value::Map(vec![
            (
                "blocks".to_string(),
                Value::Seq(blocks.iter().map(|b| Value::Str(b.to_string())).collect()),
            ),
            ("source".to_string(), Value::Str("default".to_string())),
            ("sim".to_string(), Value::Str(sim.to_string())),
        ]))
        .unwrap()
    }

    fn predict(client: &mut HttpClient, sim: &str, blocks: &[&str]) -> String {
        let response = client
            .post_json("/predict", &predict_body(sim, blocks))
            .expect("answers");
        assert_eq!(response.status, 200, "{}", response.body_text());
        response.body_text()
    }

    #[test]
    fn all_hit_requests_answer_while_the_shard_is_busy_with_a_miss() {
        const X: &str = "addq %rax, %rbx";
        const Y: &str = "imulq %rcx, %rdx";
        const Z: &str = "subl %esi, %edi";
        let config = ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        };
        let (registry, gate) = gated_registry(Y);
        let handle = spawn(config.clone(), registry).expect("binds");
        let addr = handle.addr().to_string();
        let metrics = handle.metrics();

        // Warm X.
        let mut first = HttpClient::connect(&addr).unwrap();
        let cold_x = predict(&mut first, "mca", &[X]);

        // Put the only shard on a miss that waits on the gate.
        let gated = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(&addr).unwrap();
                predict(&mut client, "mca", &[Y])
            })
        };
        let entered = gate.entered.recv_timeout(PATIENCE);

        // An all-hit request on a second connection answers meanwhile.
        let mut second = HttpClient::connect(&addr).unwrap();
        second.set_read_timeout(Some(PATIENCE)).unwrap();
        let hit = entered
            .is_ok()
            .then(|| second.post_json("/predict", &predict_body("mca", &[X])));
        let hits_while_gated = metrics.cache_hits();
        // Release the gate before asserting, so a failure cannot hang the
        // server's shutdown.
        let _ = gate.release.send(());
        entered.expect("the shard entered the gated batch");
        let hit = hit
            .unwrap()
            .expect("an all-hit request answered while the shard was busy");
        assert_eq!(hit.body_text(), cold_x);
        assert_eq!(hits_while_gated, 1);

        // The gated miss answers once released, with a cold server's bytes.
        let gated_body = gated.join().expect("the gated request answers");
        let cold = spawn(config, gated_registry(Y).0).expect("binds");
        let mut reference = HttpClient::connect(&cold.addr().to_string()).unwrap();
        let cold_uop_x = predict(&mut reference, "uop", &[X]);
        let cold_xz = predict(&mut reference, "mca", &[X, Z]);
        assert_eq!(predict(&mut reference, "mca", &[Y]), gated_body);

        // The same block on another backend of the same shard is its own
        // entry.
        assert_eq!(predict(&mut second, "uop", &[X]), cold_uop_x);
        assert_ne!(cold_uop_x, cold_x);

        // A partial hit goes through the shard, which looks up (and meters)
        // every block itself: one hit and one miss, counted once.
        let (hits, misses) = (metrics.cache_hits(), metrics.cache_misses());
        assert_eq!(predict(&mut second, "mca", &[X, Z]), cold_xz);
        assert_eq!(
            (metrics.cache_hits() - hits, metrics.cache_misses() - misses),
            (1, 1)
        );

        drop((first, second, reference));
        handle.shutdown();
        cold.shutdown();
    }
}
