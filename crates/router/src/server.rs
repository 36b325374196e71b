//! The routing tier: the request handler behind the shared
//! [`serve_connections`] loop — consistent-hash proxying, health checks, and
//! cross-upstream aggregation.
//!
//! # Request path
//!
//! ```text
//! client ──► router conn thread ──► resolve backend id ──► ring.order(key)
//!                                        │                      │
//!                                        ▼                      ▼
//!                               parse_backend_query     healthy-first walk
//!                                                              │
//!                                              pooled keep-alive proxy ──► upstream
//! ```
//!
//! The routing key is the FNV-1a hash of the request's *resolved backend
//! id*: the router runs the same [`parse_backend_query`] +
//! [`BackendQuery::candidate_ids`](difftune_serve::BackendQuery::candidate_ids)
//! resolution contract as the upstreams (against the union of their
//! advertised backends), so all requests for one table land on one upstream
//! — its shard cache stays hot, and adding upstreams rebalances only the
//! keys consistent hashing says must move.
//!
//! A request whose body does not parse still proxies (under key 0): the
//! upstream is the authority on error bodies, which keeps routed error
//! responses byte-identical to direct ones.
//!
//! # Failover
//!
//! Per upstream, in ring order (healthy upstreams first): try a pooled
//! connection; if the pooled socket fails (idle-timeout or request-cap
//! close races are expected), retry once on a fresh dial; only when the
//! fresh dial also fails is the upstream marked unhealthy, its pool
//! cleared, and the next ring node tried. `502` is returned only when every
//! upstream is unreachable. A background thread re-probes `/healthz` every
//! `health_interval` and refreshes the known-backend union, so a drained or
//! killed upstream leaves rotation within one probe and a recovered one
//! returns.
//!
//! # Rolling restarts
//!
//! `POST /rollout` restarts the fleet one upstream at a time with zero
//! client-visible downtime: quiesce (the upstream leaves the routing
//! rotation but keeps answering in-flight requests), reload (the same
//! strict `POST /reload` a broadcast would send — on refusal the old
//! registry keeps serving), health-verify, and only then return to
//! rotation. The response reports per-upstream progress; the first failure
//! aborts the rollout with every upstream back in rotation and serving.
//!
//! # Request coalescing
//!
//! Identical in-flight `/predict` bodies from different client connections
//! collapse into one upstream call: the first request leads (proxies as
//! usual), followers wait on the leader's singleflight entry and share its
//! response bytes, metered as `difftune_router_coalesced_total`. Safe
//! because upstream bodies are pure functions of the request (invariant
//! #6); followers only share `200`s and re-proxy on anything else, so a
//! leader's transient failure never fans out.
//!
//! # Determinism
//!
//! Which upstream answers never changes *what* it answers: upstream
//! `/predict` bodies are pure functions of `(blocks, backend)`, so routing,
//! failover, coalescing, rollouts, and mid-load kills change latency and
//! placement only. This is determinism invariant #6 (see
//! `docs/ARCHITECTURE.md`), asserted by `tests/router_e2e.rs` and
//! `tests/fleet_e2e.rs`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use difftune_bench::record::fnv1a;
use difftune_serve::client::{ClientResponse, HttpClient};
use difftune_serve::http::{
    endpoint_path, serve_connections, Acceptor, Handler, HttpError, HttpLimits, Request, Response,
};
use difftune_serve::server::parse_backend_query;
use serde::Value;

use crate::pool::ConnectionPool;
use crate::ring::HashRing;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind (`127.0.0.1` by default).
    pub addr: String,
    /// Port to bind; `0` picks an ephemeral port (the handle reports it).
    pub port: u16,
    /// The `difftune-serve` upstreams (`host:port`), at least one.
    pub upstreams: Vec<String>,
    /// Virtual nodes per upstream on the hash ring.
    pub vnodes: usize,
    /// HTTP parsing limits for client connections.
    pub limits: HttpLimits,
    /// Idle-connection read timeout for client connections (the
    /// `--idle-timeout` flag, same meaning as on `difftune-serve`).
    pub read_timeout: Duration,
    /// Read timeout on upstream sockets while proxying — the failover
    /// budget for a hung upstream.
    pub upstream_timeout: Duration,
    /// How often the health thread probes `/healthz` and refreshes the
    /// known-backend union.
    pub health_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1".to_string(),
            port: 0,
            upstreams: Vec::new(),
            vnodes: 64,
            limits: HttpLimits::default(),
            read_timeout: Duration::from_secs(5),
            upstream_timeout: Duration::from_secs(10),
            health_interval: Duration::from_millis(250),
        }
    }
}

/// One in-flight `/predict`'s singleflight entry: the leader fills `slot`
/// and notifies; followers wait and share the bytes.
struct Flight {
    slot: Mutex<Option<(u16, Vec<u8>)>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }
}

/// Shared router state.
struct RouterState {
    ring: HashRing,
    /// Last known upstream health; starts optimistic so early requests try
    /// everyone before the first probe lands.
    healthy: Vec<AtomicBool>,
    /// Administratively quiesced by an in-progress rollout: kept out of the
    /// routing rotation (but still answering in-flight requests) without
    /// being marked unhealthy.
    rolling: Vec<AtomicBool>,
    /// Requests currently proxied to each upstream — the rollout's quiesce
    /// step waits for this to reach zero before reloading.
    in_flight: Vec<AtomicUsize>,
    /// One rollout at a time; a concurrent `POST /rollout` answers `409`.
    rollout_active: AtomicBool,
    pool: ConnectionPool,
    /// Union of backend ids advertised by the upstreams (`GET /backends`),
    /// refreshed by the health thread — the resolution universe for routing.
    known_backends: RwLock<BTreeSet<String>>,
    /// Identical in-flight `/predict` requests, keyed `(ring key, body
    /// fingerprint)` — the singleflight map behind request coalescing.
    flights: Mutex<HashMap<(u64, u64), Arc<Flight>>>,
    upstream_timeout: Duration,
    /// Router-own counters, rendered under `difftune_router_*`.
    requests_total: AtomicU64,
    proxied_total: Vec<AtomicU64>,
    failovers_total: AtomicU64,
    upstream_errors_total: AtomicU64,
    coalesced_total: AtomicU64,
    rollouts_total: AtomicU64,
}

impl RouterState {
    fn healthy_count(&self) -> usize {
        self.healthy
            .iter()
            .filter(|flag| flag.load(Ordering::SeqCst))
            .count()
    }
}

impl Handler for RouterState {
    fn handle(&self, request: &Request) -> Response {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        route(request, self)
    }

    /// A router has no drain of its own: it stops only on shutdown.
    fn stopping(&self) -> bool {
        false
    }
}

/// No per-connection request cap on client connections.
const MAX_REQUESTS_PER_CONNECTION: usize = 0;

/// A handle to a running router. Dropping the handle shuts it down.
#[derive(Debug)]
pub struct RouterHandle {
    acceptor: Acceptor,
    /// Stops the health thread.
    shutdown: Arc<AtomicBool>,
    health: Option<std::thread::JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Stops accepting, waits for in-flight connections (bounded by the
    /// idle timeout), and joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.acceptor.shutdown();
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(health) = self.health.take() {
            let _ = health.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Binds the listener and spawns the acceptor and health threads.
///
/// # Errors
///
/// An empty upstream list (`InvalidInput`) or I/O errors from binding.
pub fn spawn_router(config: RouterConfig) -> std::io::Result<RouterHandle> {
    if config.upstreams.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "a router needs at least one upstream",
        ));
    }
    let listener = TcpListener::bind((config.addr.as_str(), config.port))?;

    let upstream_count = config.upstreams.len();
    let state = Arc::new(RouterState {
        ring: HashRing::new(&config.upstreams, config.vnodes),
        healthy: (0..upstream_count).map(|_| AtomicBool::new(true)).collect(),
        rolling: (0..upstream_count)
            .map(|_| AtomicBool::new(false))
            .collect(),
        in_flight: (0..upstream_count).map(|_| AtomicUsize::new(0)).collect(),
        rollout_active: AtomicBool::new(false),
        pool: ConnectionPool::new(upstream_count),
        known_backends: RwLock::new(BTreeSet::new()),
        flights: Mutex::new(HashMap::new()),
        upstream_timeout: config.upstream_timeout,
        requests_total: AtomicU64::new(0),
        proxied_total: (0..upstream_count).map(|_| AtomicU64::new(0)).collect(),
        failovers_total: AtomicU64::new(0),
        upstream_errors_total: AtomicU64::new(0),
        coalesced_total: AtomicU64::new(0),
        rollouts_total: AtomicU64::new(0),
    });

    let shutdown = Arc::new(AtomicBool::new(false));
    let health = {
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        let interval = config.health_interval;
        std::thread::Builder::new()
            .name("difftune-router-health".to_string())
            .spawn(move || health_loop(state, shutdown, interval))?
    };
    let acceptor = serve_connections(
        listener,
        "difftune-router",
        state,
        config.limits,
        config.read_timeout,
        MAX_REQUESTS_PER_CONNECTION,
    )?;

    Ok(RouterHandle {
        acceptor,
        shutdown,
        health: Some(health),
    })
}

/// Probes every upstream's `/healthz` and refreshes the known-backend union.
fn health_loop(state: Arc<RouterState>, shutdown: Arc<AtomicBool>, interval: Duration) {
    while !shutdown.load(Ordering::SeqCst) {
        for (index, addr) in state.ring.nodes().iter().enumerate() {
            let probe = HttpClient::connect(addr).and_then(|mut client| {
                client.set_read_timeout(Some(state.upstream_timeout))?;
                let health = client.get("/healthz")?;
                if health.status == 200 {
                    let backends = client.get("/backends")?;
                    Ok(Some(backends))
                } else {
                    // Reachable but draining (503) or broken: out of rotation.
                    Ok(None)
                }
            });
            match probe {
                Ok(Some(backends)) => {
                    state.healthy[index].store(true, Ordering::SeqCst);
                    if let Some(ids) = parse_backend_list(&backends) {
                        let mut known =
                            state.known_backends.write().expect("backend lock poisoned");
                        known.extend(ids);
                    }
                }
                Ok(None) | Err(_) => {
                    state.healthy[index].store(false, Ordering::SeqCst);
                    state.pool.clear(index);
                }
            }
        }
        // Sleep in small steps so shutdown is prompt.
        let deadline = Instant::now() + interval;
        while Instant::now() < deadline && !shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// The backend id inside one `GET /backends` entry, an
/// `{"id": ..., "kind": ..., "fingerprint": ...}` object.
fn backend_entry_id(entry: &Value) -> Option<String> {
    entry.get("id")?.as_str().map(String::from)
}

/// Parses a `GET /backends` body (a JSON array of backend entries) into the
/// advertised ids.
fn parse_backend_list(response: &ClientResponse) -> Option<Vec<String>> {
    let value = serde_json::from_str_value(&response.body_text()).ok()?;
    Some(
        value
            .as_seq()?
            .iter()
            .filter_map(backend_entry_id)
            .collect(),
    )
}

/// Dispatches one parsed request.
///
/// `/v1/<endpoint>` is the same endpoint ([`endpoint_path`]); the upstreams
/// accept both spellings too, so proxied paths forward verbatim and routed
/// `/v1` responses stay byte-identical to direct ones.
fn route(request: &Request, state: &RouterState) -> Response {
    match (request.method.as_str(), endpoint_path(&request.path)) {
        ("POST", "/predict") => proxy_predict(request, state),
        ("POST", "/route") => explain_route(request, state),
        ("POST", "/reload") => broadcast_reload(state),
        ("POST", "/rollout") => run_rollout(state),
        ("GET", "/healthz") => health_response(state),
        ("GET", "/backends") => aggregate_backends(state),
        ("GET", "/metrics") => aggregate_metrics(state),
        (_, "/predict" | "/route" | "/reload" | "/rollout") => Response::from_error(
            &HttpError {
                status: 405,
                message: format!("{} only supports POST", request.path),
            },
            false,
        ),
        (_, "/healthz" | "/backends" | "/metrics") => Response::from_error(
            &HttpError {
                status: 405,
                message: format!("{} only supports GET", request.path),
            },
            false,
        ),
        (_, path) => Response::from_error(
            &HttpError {
                status: 404,
                message: format!(
                    "unknown path {path}; router endpoints are POST /predict, POST /route, \
                     POST /reload, POST /rollout, GET /healthz, GET /metrics, GET /backends \
                     (all also under /v1)"
                ),
            },
            false,
        ),
    }
}

/// Resolves a `/predict` body to its routing identity: the backend id the
/// upstreams would resolve (against the known-backend union) and its ring
/// key. Unparsable bodies route under key 0 — the upstream still answers
/// (with the byte-identical error a direct client would get).
fn resolve_routing(body: &[u8], known: &BTreeSet<String>) -> (u64, Option<String>) {
    let Ok(text) = std::str::from_utf8(body) else {
        return (0, None);
    };
    let Ok(value) = serde_json::from_str_value(text) else {
        return (0, None);
    };
    let Some(map) = value.as_map() else {
        return (0, None);
    };
    let Ok(query) = parse_backend_query(map) else {
        return (0, None);
    };
    let candidates = query.candidate_ids();
    let id = candidates
        .iter()
        .find(|id| known.contains(*id))
        .unwrap_or_else(|| candidates.last().expect("candidate_ids is never empty"))
        .clone();
    (fnv1a(id.bytes()), Some(id))
}

/// The failover walk for a key: ring order, with upstreams grouped by
/// availability — in rotation first, then quiesced-by-rollout, then
/// unhealthy. The sort is stable, so relative ring order is preserved
/// within each class and the walk stays deterministic for a given state.
/// A quiesced upstream is only tried when every in-rotation upstream has
/// failed: a rollout never makes the fleet less available than losing the
/// quiesced upstream outright would.
fn failover_order(state: &RouterState, key: u64) -> Vec<usize> {
    let mut order = state.ring.order(key);
    order.sort_by_key(|&index| {
        match (
            state.healthy[index].load(Ordering::SeqCst),
            state.rolling[index].load(Ordering::SeqCst),
        ) {
            (true, false) => 0u8,
            (true, true) => 1,
            (false, _) => 2,
        }
    });
    order
}

/// Proxies one request to one upstream: pooled connection first, one fresh
/// dial on pooled failure (idle-timeout and request-cap closes are normal),
/// checking the connection back in unless the upstream said close. The
/// per-upstream in-flight gauge brackets the attempt so a rollout's quiesce
/// step can wait for traffic to settle.
fn proxy_to(
    state: &RouterState,
    upstream: usize,
    request: &Request,
) -> std::io::Result<ClientResponse> {
    state.in_flight[upstream].fetch_add(1, Ordering::SeqCst);
    let result = proxy_to_inner(state, upstream, request);
    state.in_flight[upstream].fetch_sub(1, Ordering::SeqCst);
    result
}

/// See [`proxy_to`].
fn proxy_to_inner(
    state: &RouterState,
    upstream: usize,
    request: &Request,
) -> std::io::Result<ClientResponse> {
    if let Some(mut client) = state.pool.checkout(upstream) {
        if let Ok(response) = client.request(&request.method, &request.path, &request.body) {
            if !response.wants_close() {
                state.pool.checkin(upstream, client);
            }
            return Ok(response);
        }
        // The pooled socket was stale; fall through to a fresh dial.
    }
    let mut client = HttpClient::connect(&state.ring.nodes()[upstream])?;
    client.set_read_timeout(Some(state.upstream_timeout))?;
    let response = client.request(&request.method, &request.path, &request.body)?;
    if !response.wants_close() {
        state.pool.checkin(upstream, client);
    }
    Ok(response)
}

/// Routes and proxies a `/predict`, coalescing identical in-flight bodies
/// into one upstream call (singleflight) and failing over along the ring.
fn proxy_predict(request: &Request, state: &RouterState) -> Response {
    let (key, _) = {
        let known = state.known_backends.read().expect("backend lock poisoned");
        resolve_routing(&request.body, &known)
    };

    // Singleflight: the first connection in with a given `(routing key,
    // body)` leads and proxies; everyone else arriving while the leader is
    // in flight waits for — and shares — the leader's bytes. Identical
    // bodies have identical responses (invariant #6), so sharing never
    // changes what any client sees, only how many upstream calls are made.
    let flight_key = (key, fnv1a(request.body.iter().copied()));
    let leader = {
        let mut flights = state.flights.lock().expect("flight lock poisoned");
        match flights.get(&flight_key) {
            Some(flight) => Err(Arc::clone(flight)),
            None => {
                let flight = Arc::new(Flight::new());
                flights.insert(flight_key, Arc::clone(&flight));
                Ok(flight)
            }
        }
    };
    let flight = match leader {
        Ok(flight) => flight,
        Err(flight) => {
            state.coalesced_total.fetch_add(1, Ordering::Relaxed);
            // Generous wait: the leader may walk the whole ring before
            // answering. On timeout (leader thread died) proxy directly.
            let budget = state
                .upstream_timeout
                .saturating_mul(state.ring.len().max(1) as u32)
                + Duration::from_secs(1);
            let deadline = Instant::now() + budget;
            let mut slot = flight.slot.lock().expect("flight slot poisoned");
            while slot.is_none() {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (next, _) = flight
                    .done
                    .wait_timeout(slot, deadline - now)
                    .expect("flight slot poisoned");
                slot = next;
            }
            // Followers only share success: a leader's transient failure
            // (e.g. a kill racing the walk) must not fan out to clients
            // that would have succeeded on their own retry.
            if let Some((status, body)) = slot.as_ref().filter(|(status, _)| *status == 200) {
                return Response {
                    status: *status,
                    content_type: "application/json",
                    body: body.clone(),
                    close: false,
                };
            }
            drop(slot);
            return proxy_predict_walk(request, state, key);
        }
    };

    let response = proxy_predict_walk(request, state, key);
    {
        let mut flights = state.flights.lock().expect("flight lock poisoned");
        flights.remove(&flight_key);
    }
    let mut slot = flight.slot.lock().expect("flight slot poisoned");
    *slot = Some((response.status, response.body.clone()));
    flight.done.notify_all();
    drop(slot);
    response
}

/// The failover walk behind [`proxy_predict`]: try each upstream in
/// availability-then-ring order until one answers.
fn proxy_predict_walk(request: &Request, state: &RouterState, key: u64) -> Response {
    for (attempt, upstream) in failover_order(state, key).into_iter().enumerate() {
        match proxy_to(state, upstream, request) {
            Ok(upstream_response) => {
                state.healthy[upstream].store(true, Ordering::SeqCst);
                state.proxied_total[upstream].fetch_add(1, Ordering::Relaxed);
                if attempt > 0 {
                    state.failovers_total.fetch_add(1, Ordering::Relaxed);
                }
                return Response {
                    status: upstream_response.status,
                    content_type: "application/json",
                    body: upstream_response.body,
                    close: false,
                };
            }
            Err(_) => {
                state.upstream_errors_total.fetch_add(1, Ordering::Relaxed);
                state.healthy[upstream].store(false, Ordering::SeqCst);
                state.pool.clear(upstream);
            }
        }
    }
    Response::from_error(
        &HttpError {
            status: 502,
            message: format!(
                "no upstream reachable (tried all {} in ring order)",
                state.ring.len()
            ),
        },
        false,
    )
}

/// `POST /route` — the routing decision for a `/predict`-shaped body,
/// without proxying. Debug/ops surface; `difftune-loadtest --chaos` uses it
/// to find a request's primary upstream.
fn explain_route(request: &Request, state: &RouterState) -> Response {
    let (key, backend) = {
        let known = state.known_backends.read().expect("backend lock poisoned");
        resolve_routing(&request.body, &known)
    };
    let order = failover_order(state, key);
    let nodes = state.ring.nodes();
    let body = serde_json::to_string(&Value::Map(vec![
        ("key".to_string(), Value::Str(format!("{key:#018x}"))),
        (
            "backend".to_string(),
            backend.map(Value::Str).unwrap_or(Value::Null),
        ),
        (
            "primary".to_string(),
            order
                .first()
                .map(|&index| Value::Str(nodes[index].clone()))
                .unwrap_or(Value::Null),
        ),
        (
            "order".to_string(),
            Value::Seq(
                order
                    .iter()
                    .map(|&index| Value::Str(nodes[index].clone()))
                    .collect(),
            ),
        ),
        (
            "healthy".to_string(),
            Value::Seq(
                nodes
                    .iter()
                    .enumerate()
                    .filter(|(index, _)| state.healthy[*index].load(Ordering::SeqCst))
                    .map(|(_, addr)| Value::Str(addr.clone()))
                    .collect(),
            ),
        ),
    ]))
    .expect("route body serializes");
    Response::json(200, body)
}

/// `POST /reload` — forwards the reload to every upstream and reports each
/// outcome. `200` only when every upstream accepted; any refusal or
/// unreachable upstream turns the aggregate into `502` (individual results
/// are still listed).
fn broadcast_reload(state: &RouterState) -> Response {
    let reload = Request {
        method: "POST".to_string(),
        path: "/reload".to_string(),
        headers: Vec::new(),
        body: Vec::new(),
    };
    let mut results = Vec::new();
    let mut all_ok = true;
    for (index, addr) in state.ring.nodes().iter().enumerate() {
        let outcome = match proxy_to(state, index, &reload) {
            Ok(response) => {
                all_ok &= response.status == 200;
                Value::Map(vec![
                    ("status".to_string(), Value::Int(response.status as i128)),
                    (
                        "body".to_string(),
                        serde_json::from_str_value(&response.body_text())
                            .unwrap_or(Value::Str(response.body_text())),
                    ),
                ])
            }
            Err(error) => {
                all_ok = false;
                state.healthy[index].store(false, Ordering::SeqCst);
                state.pool.clear(index);
                Value::Map(vec![(
                    "error".to_string(),
                    Value::Str(format!("unreachable: {error}")),
                )])
            }
        };
        results.push((addr.clone(), outcome));
    }
    let body = serde_json::to_string(&Value::Map(vec![
        (
            "status".to_string(),
            Value::Str(if all_ok { "reloaded" } else { "partial" }.to_string()),
        ),
        ("upstreams".to_string(), Value::Map(results)),
    ]))
    .expect("reload body serializes");
    Response::json(if all_ok { 200 } else { 502 }, body)
}

/// Polls one upstream's in-flight gauge down to zero, bounded by the
/// upstream timeout. Returns whether traffic fully settled — a timeout is
/// recorded but not fatal, because `/reload` swaps the registry atomically
/// and requests racing the swap answer canonical bytes either way.
fn wait_for_quiesce(state: &RouterState, upstream: usize) -> bool {
    let deadline = Instant::now() + state.upstream_timeout;
    while Instant::now() < deadline {
        if state.in_flight[upstream].load(Ordering::SeqCst) == 0 {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    state.in_flight[upstream].load(Ordering::SeqCst) == 0
}

/// Probes one upstream's `/healthz` on fresh dials until it answers `200`,
/// bounded by the upstream timeout.
fn verify_upstream_health(state: &RouterState, upstream: usize) -> bool {
    let addr = &state.ring.nodes()[upstream];
    let deadline = Instant::now() + state.upstream_timeout;
    loop {
        let probe = HttpClient::connect(addr).and_then(|mut client| {
            client.set_read_timeout(Some(state.upstream_timeout))?;
            client.get("/healthz")
        });
        if probe.is_ok_and(|response| response.status == 200) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `POST /rollout` — rolling restart: quiesce, reload, health-verify, and
/// return each upstream to rotation, one at a time, in configured order.
///
/// Per upstream the steps are:
///
/// 1. **quiesce** — the upstream leaves the routing rotation (new
///    `/predict`s avoid it; it still answers in-flight requests) and the
///    router waits for its in-flight gauge to settle;
/// 2. **reload** — the same strict `POST /reload` a broadcast would send;
///    a refusal (`409`) keeps the old registry serving;
/// 3. **verify** — fresh-dial `/healthz` probes until `200`;
/// 4. **return** — back into rotation.
///
/// The first failure aborts the rollout: the failing upstream goes straight
/// back into rotation (a refused reload keeps serving the old registry;
/// an unreachable upstream is left to the health loop), remaining upstreams
/// are reported `skipped`, and the response is `502` with per-upstream
/// detail. Upstreams already out of rotation are skipped, not failed — a
/// dead process has nothing to quiesce and a rollout after a kill must
/// still restart the survivors. Only one rollout runs at a time; a
/// concurrent `POST /rollout` answers `409`.
fn run_rollout(state: &RouterState) -> Response {
    if state.rollout_active.swap(true, Ordering::SeqCst) {
        return Response::from_error(
            &HttpError {
                status: 409,
                message: "a rollout is already in progress".to_string(),
            },
            false,
        );
    }
    state.rollouts_total.fetch_add(1, Ordering::Relaxed);

    let reload = Request {
        method: "POST".to_string(),
        path: "/reload".to_string(),
        headers: Vec::new(),
        body: Vec::new(),
    };
    let mut upstreams: Vec<(String, Value)> = Vec::new();
    let mut abort: Option<String> = None;
    for (index, addr) in state.ring.nodes().iter().enumerate() {
        if let Some(reason) = &abort {
            upstreams.push((
                addr.clone(),
                Value::Map(vec![
                    ("status".to_string(), Value::Str("skipped".to_string())),
                    (
                        "detail".to_string(),
                        Value::Str(format!("rollout aborted at {reason}")),
                    ),
                ]),
            ));
            continue;
        }
        if !state.healthy[index].load(Ordering::SeqCst) {
            upstreams.push((
                addr.clone(),
                Value::Map(vec![
                    ("status".to_string(), Value::Str("skipped".to_string())),
                    (
                        "detail".to_string(),
                        Value::Str("out of rotation (unhealthy); nothing to quiesce".to_string()),
                    ),
                ]),
            ));
            continue;
        }

        let mut steps: Vec<Value> = Vec::new();
        state.rolling[index].store(true, Ordering::SeqCst);
        steps.push(Value::Str(
            if wait_for_quiesce(state, index) {
                "quiesced"
            } else {
                "quiesced (in-flight settle timed out; reload swaps atomically)"
            }
            .to_string(),
        ));

        let failure = match proxy_to(state, index, &reload) {
            Ok(response) if response.status == 200 => {
                steps.push(Value::Str("reloaded".to_string()));
                if verify_upstream_health(state, index) {
                    steps.push(Value::Str("verified".to_string()));
                    None
                } else {
                    Some(format!(
                        "reloaded but /healthz did not answer 200 within {:?}",
                        state.upstream_timeout
                    ))
                }
            }
            Ok(response) => Some(format!(
                "reload refused with {}: {}",
                response.status,
                response.body_text()
            )),
            Err(error) => {
                state.healthy[index].store(false, Ordering::SeqCst);
                state.pool.clear(index);
                Some(format!("reload unreachable: {error}"))
            }
        };

        // Back into rotation either way: on success the upstream is
        // verified; on failure the old registry is still serving (a refused
        // reload never swaps) and an unreachable upstream is out of the
        // healthy set already — the fleet keeps serving in both cases.
        state.rolling[index].store(false, Ordering::SeqCst);
        match failure {
            None => {
                state.healthy[index].store(true, Ordering::SeqCst);
                upstreams.push((
                    addr.clone(),
                    Value::Map(vec![
                        ("status".to_string(), Value::Str("ok".to_string())),
                        ("steps".to_string(), Value::Seq(steps)),
                    ]),
                ));
            }
            Some(error) => {
                upstreams.push((
                    addr.clone(),
                    Value::Map(vec![
                        ("status".to_string(), Value::Str("failed".to_string())),
                        ("steps".to_string(), Value::Seq(steps)),
                        ("error".to_string(), Value::Str(error)),
                    ]),
                ));
                abort = Some(addr.clone());
            }
        }
    }
    state.rollout_active.store(false, Ordering::SeqCst);

    let completed = abort.is_none();
    let body = serde_json::to_string(&Value::Map(vec![
        (
            "status".to_string(),
            Value::Str(if completed { "completed" } else { "aborted" }.to_string()),
        ),
        ("upstreams".to_string(), Value::Map(upstreams)),
    ]))
    .expect("rollout body serializes");
    Response::json(if completed { 200 } else { 502 }, body)
}

/// `GET /healthz` — `200` while at least one upstream is in rotation.
fn health_response(state: &RouterState) -> Response {
    let healthy = state.healthy_count();
    Response::json(
        if healthy > 0 { 200 } else { 503 },
        serde_json::to_string(&Value::Map(vec![
            (
                "status".to_string(),
                Value::Str(if healthy > 0 { "ok" } else { "unavailable" }.to_string()),
            ),
            (
                "upstreams".to_string(),
                Value::Int(state.ring.len() as i128),
            ),
            ("healthy".to_string(), Value::Int(healthy as i128)),
        ]))
        .expect("health body serializes"),
    )
}

/// `GET /backends` — the live union of every reachable upstream's backend
/// list (also folded into the routing universe), id-sorted. Entries keep
/// the upstream shape (`{id, kind, fingerprint}` objects), so a
/// single-upstream router answers byte-identically to the upstream itself.
fn aggregate_backends(state: &RouterState) -> Response {
    let list = Request {
        method: "GET".to_string(),
        path: "/backends".to_string(),
        headers: Vec::new(),
        body: Vec::new(),
    };
    let mut union: BTreeMap<String, Value> = BTreeMap::new();
    for index in 0..state.ring.len() {
        let Ok(response) = proxy_to(state, index, &list) else {
            continue;
        };
        let Ok(value) = serde_json::from_str_value(&response.body_text()) else {
            continue;
        };
        let Some(entries) = value.as_seq() else {
            continue;
        };
        for entry in entries {
            if let Some(id) = backend_entry_id(entry) {
                union.entry(id).or_insert_with(|| entry.clone());
            }
        }
    }
    {
        let mut known = state.known_backends.write().expect("backend lock poisoned");
        known.extend(union.keys().cloned());
    }
    Response::json(
        200,
        serde_json::to_string(&Value::Seq(union.into_values().collect()))
            .expect("backend union serializes"),
    )
}

/// One aggregated sample: whether every contribution parsed as an integer
/// (rendered without a decimal point, like the upstream text), and the sums.
struct SampleSum {
    integral: bool,
    int_sum: i128,
    float_sum: f64,
}

/// Canonicalizes one sample's series (`name{labels}`) by sorting its
/// `key="value"` label pairs, so two upstreams exposing the same series with
/// labels in different orders merge into one sum instead of two lines.
/// Splitting is quote-aware: commas inside label values never split a pair.
/// Series that are not well-formed (`name{...}` with a closing brace) pass
/// through unchanged — aggregation keys on whatever the upstream wrote.
fn normalize_series(series: &str) -> String {
    let Some(open) = series.find('{') else {
        return series.to_string();
    };
    let Some(close) = series.rfind('}') else {
        return series.to_string();
    };
    if close < open {
        return series.to_string();
    }
    let labels = &series[open + 1..close];
    let mut pairs: Vec<String> = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for c in labels.chars() {
        match c {
            '\\' if in_quotes && !escaped => {
                escaped = true;
                current.push(c);
            }
            '"' if !escaped => {
                in_quotes = !in_quotes;
                current.push(c);
                escaped = false;
            }
            ',' if !in_quotes => {
                pairs.push(current.trim().to_string());
                current.clear();
                escaped = false;
            }
            _ => {
                current.push(c);
                escaped = false;
            }
        }
    }
    if !current.trim().is_empty() {
        pairs.push(current.trim().to_string());
    }
    pairs.sort();
    format!(
        "{}{{{}}}{}",
        &series[..open],
        pairs.join(","),
        &series[close + 1..]
    )
}

/// `GET /metrics` — sums every upstream sample sharing a series identity
/// (name plus its label *set* — label order is normalized before merging,
/// see [`normalize_series`]), then appends the router's own
/// `difftune_router_*` series. HELP/TYPE headers from upstreams are dropped
/// (samples alone are valid exposition text) to avoid re-grouping families.
fn aggregate_metrics(state: &RouterState) -> Response {
    let scrape = Request {
        method: "GET".to_string(),
        path: "/metrics".to_string(),
        headers: Vec::new(),
        body: Vec::new(),
    };
    let mut order: Vec<String> = Vec::new();
    let mut sums: BTreeMap<String, SampleSum> = BTreeMap::new();
    for index in 0..state.ring.len() {
        let Ok(response) = proxy_to(state, index, &scrape) else {
            continue;
        };
        for line in response.body_text().lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((series, raw_value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = raw_value.parse::<f64>() else {
                continue;
            };
            let integral = !raw_value.contains(['.', 'e', 'E']);
            let series = normalize_series(series);
            let entry = sums.entry(series.clone()).or_insert_with(|| {
                order.push(series.clone());
                SampleSum {
                    integral: true,
                    int_sum: 0,
                    float_sum: 0.0,
                }
            });
            entry.integral &= integral;
            entry.int_sum += raw_value.parse::<i128>().unwrap_or(0);
            entry.float_sum += value;
        }
    }

    let mut out = String::new();
    for series in &order {
        let sum = &sums[series];
        if sum.integral {
            out.push_str(&format!("{series} {}\n", sum.int_sum));
        } else {
            out.push_str(&format!("{series} {:?}\n", sum.float_sum));
        }
    }

    let mut counter = |name: &str, help: &str, value: u64| {
        out.push_str(&format!(
            "# HELP difftune_router_{name} {help}\n# TYPE difftune_router_{name} counter\n\
             difftune_router_{name} {value}\n"
        ));
    };
    counter(
        "requests_total",
        "Requests parsed by the router.",
        state.requests_total.load(Ordering::Relaxed),
    );
    counter(
        "failovers_total",
        "Requests answered by a non-primary upstream.",
        state.failovers_total.load(Ordering::Relaxed),
    );
    counter(
        "upstream_errors_total",
        "Upstream attempts that failed outright.",
        state.upstream_errors_total.load(Ordering::Relaxed),
    );
    counter(
        "coalesced_total",
        "Predict requests that shared another connection's in-flight upstream call.",
        state.coalesced_total.load(Ordering::Relaxed),
    );
    counter(
        "rollouts_total",
        "Rolling restarts started via POST /rollout.",
        state.rollouts_total.load(Ordering::Relaxed),
    );
    out.push_str(
        "# HELP difftune_router_proxied_total Requests proxied, by upstream.\n\
         # TYPE difftune_router_proxied_total counter\n",
    );
    for (index, addr) in state.ring.nodes().iter().enumerate() {
        out.push_str(&format!(
            "difftune_router_proxied_total{{upstream=\"{addr}\"}} {}\n",
            state.proxied_total[index].load(Ordering::Relaxed)
        ));
    }
    out.push_str(&format!(
        "# HELP difftune_router_upstreams Configured upstreams.\n\
         # TYPE difftune_router_upstreams gauge\ndifftune_router_upstreams {}\n",
        state.ring.len()
    ));
    out.push_str(&format!(
        "# HELP difftune_router_healthy_upstreams Upstreams in rotation.\n\
         # TYPE difftune_router_healthy_upstreams gauge\ndifftune_router_healthy_upstreams {}\n",
        state.healthy_count()
    ));
    Response::text(200, out)
}

#[cfg(test)]
mod tests {
    use super::normalize_series;

    #[test]
    fn label_order_never_splits_a_series() {
        let a = r#"difftune_policy_tier_total{tier="surrogate",cell="mca:haswell:llvm_mca"}"#;
        let b = r#"difftune_policy_tier_total{cell="mca:haswell:llvm_mca",tier="surrogate"}"#;
        assert_eq!(normalize_series(a), normalize_series(b));
        assert_eq!(
            normalize_series(a),
            r#"difftune_policy_tier_total{cell="mca:haswell:llvm_mca",tier="surrogate"}"#
        );
    }

    #[test]
    fn quoted_commas_and_braces_stay_inside_their_label_value() {
        let tricky = r#"m{b="x,y",a="p{q}r"}"#;
        assert_eq!(normalize_series(tricky), r#"m{a="p{q}r",b="x,y"}"#);
        let shuffled = r#"m{a="p{q}r",b="x,y"}"#;
        assert_eq!(normalize_series(shuffled), normalize_series(tricky));
    }

    #[test]
    fn escaped_quotes_do_not_end_a_value() {
        let escaped = r#"m{b="say \"hi\", friend",a="1"}"#;
        assert_eq!(
            normalize_series(escaped),
            r#"m{a="1",b="say \"hi\", friend"}"#
        );
    }

    #[test]
    fn unlabeled_and_malformed_series_pass_through() {
        assert_eq!(normalize_series("plain_total"), "plain_total");
        assert_eq!(normalize_series("broken{oops"), "broken{oops");
        assert_eq!(normalize_series("m{}"), "m{}");
    }
}
