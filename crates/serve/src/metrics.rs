//! Request, cache, and latency counters behind `GET /metrics`.
//!
//! Plain atomics — no histogram buckets or exporters — rendered in the
//! Prometheus text exposition format so standard scrapers parse it. Latency
//! and request counters additionally carry an `endpoint` label so `/predict`
//! time is distinguishable from `/metrics` scrapes, and hot reloads tick
//! `difftune_backend_reloads_total` so table swaps are observable. The
//! counters are observability only: nothing here feeds back into request
//! handling, and (unlike `/predict` bodies) the values are wall-clock- and
//! scheduling-dependent, which is why the determinism suite never compares
//! `/metrics` output.

use std::sync::atomic::{AtomicU64, Ordering};

/// The endpoints the service meters separately. `Other` covers 404s and any
/// future unlabeled path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /predict`.
    Predict,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `GET /backends`.
    Backends,
    /// `POST /reload`.
    Reload,
    /// `POST /drain`.
    Drain,
    /// Anything else (unknown paths, protocol errors).
    Other,
}

impl Endpoint {
    /// Every endpoint, in render order.
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Predict,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Backends,
        Endpoint::Reload,
        Endpoint::Drain,
        Endpoint::Other,
    ];

    /// The `endpoint` label value.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Predict => "predict",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Backends => "backends",
            Endpoint::Reload => "reload",
            Endpoint::Drain => "drain",
            Endpoint::Other => "other",
        }
    }

    /// Classifies a request path.
    pub fn from_path(path: &str) -> Endpoint {
        match path {
            "/predict" => Endpoint::Predict,
            "/healthz" => Endpoint::Healthz,
            "/metrics" => Endpoint::Metrics,
            "/backends" => Endpoint::Backends,
            "/reload" => Endpoint::Reload,
            "/drain" => Endpoint::Drain,
            _ => Endpoint::Other,
        }
    }

    fn index(self) -> usize {
        Endpoint::ALL
            .iter()
            .position(|&endpoint| endpoint == self)
            .expect("every endpoint is in ALL")
    }
}

/// Monotonic service counters. All methods are lock-free and callable from
/// every connection and shard thread.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests fully parsed off a connection (any endpoint).
    requests_total: AtomicU64,
    /// `/predict` requests answered with 200.
    predict_requests_total: AtomicU64,
    /// Blocks predicted inside those requests (batched requests count once
    /// per block).
    predict_blocks_total: AtomicU64,
    /// Blocks answered from the prediction cache.
    cache_hits_total: AtomicU64,
    /// Blocks that had to run the simulator.
    cache_misses_total: AtomicU64,
    /// Responses with a 4xx status.
    responses_4xx_total: AtomicU64,
    /// Responses with a 5xx status.
    responses_5xx_total: AtomicU64,
    /// Per-endpoint request counts, indexed by [`Endpoint::ALL`] order.
    endpoint_requests: [AtomicU64; 7],
    /// Per-endpoint nanoseconds spent handling requests
    /// (parse-to-response-written), indexed by [`Endpoint::ALL`] order.
    endpoint_nanos: [AtomicU64; 7],
    /// Successful hot reloads (registry swaps).
    backend_reloads_total: AtomicU64,
    /// Policy-backend blocks answered per tier, indexed by
    /// [`Metrics::POLICY_TIERS`] order (cache, surrogate, simulator).
    policy_tier_total: [AtomicU64; 3],
}

impl Metrics {
    /// The `tier` label values of `difftune_policy_tier_total`, in index
    /// order: tier 1 (the per-shard LRU), tier 2 (the surrogate), tier 3
    /// (the full simulator).
    pub const POLICY_TIERS: [&'static str; 3] = ["cache", "surrogate", "simulator"];

    /// A zeroed counter set.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records a parsed request.
    pub fn on_request(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successful `/predict` answering `blocks` blocks.
    pub fn on_predict(&self, blocks: usize) {
        self.predict_requests_total.fetch_add(1, Ordering::Relaxed);
        self.predict_blocks_total
            .fetch_add(blocks as u64, Ordering::Relaxed);
    }

    /// Records cache outcomes for a batch.
    pub fn on_cache(&self, hits: usize, misses: usize) {
        self.cache_hits_total
            .fetch_add(hits as u64, Ordering::Relaxed);
        self.cache_misses_total
            .fetch_add(misses as u64, Ordering::Relaxed);
    }

    /// Records a response's status class.
    pub fn on_response_status(&self, status: u16) {
        match status {
            400..=499 => self.responses_4xx_total.fetch_add(1, Ordering::Relaxed),
            500..=599 => self.responses_5xx_total.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }

    /// Adds handling latency under the endpoint's label.
    pub fn on_latency(&self, endpoint: Endpoint, elapsed: std::time::Duration) {
        let nanos = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.endpoint_requests[endpoint.index()].fetch_add(1, Ordering::Relaxed);
        self.endpoint_nanos[endpoint.index()].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records a successful hot reload (the registry swap happened).
    pub fn on_reload(&self) {
        self.backend_reloads_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `blocks` policy-backend blocks answered by the given tier
    /// (an index into [`Metrics::POLICY_TIERS`]).
    pub fn on_policy_tier(&self, tier_index: usize, blocks: usize) {
        self.policy_tier_total[tier_index].fetch_add(blocks as u64, Ordering::Relaxed);
    }

    /// Policy blocks answered by one tier so far.
    pub fn policy_tier(&self, tier_index: usize) -> u64 {
        self.policy_tier_total[tier_index].load(Ordering::Relaxed)
    }

    /// Cache hits so far (used by tests and the loadtest summary).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits_total.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses_total.load(Ordering::Relaxed)
    }

    /// Requests so far.
    pub fn requests(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Successful hot reloads so far.
    pub fn reloads(&self) -> u64 {
        self.backend_reloads_total.load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text exposition. `backends` and `shards` are
    /// configuration gauges supplied by the server.
    pub fn render(&self, backends: usize, shards: usize) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP difftune_{name} {help}\n# TYPE difftune_{name} counter\ndifftune_{name} {value}\n"
            ));
        };
        counter(
            "requests_total",
            "Requests parsed across all endpoints.",
            self.requests(),
        );
        counter(
            "predict_requests_total",
            "Successful /predict requests.",
            self.predict_requests_total.load(Ordering::Relaxed),
        );
        counter(
            "predict_blocks_total",
            "Blocks predicted (batched requests count per block).",
            self.predict_blocks_total.load(Ordering::Relaxed),
        );
        counter(
            "cache_hits_total",
            "Blocks answered from the prediction cache.",
            self.cache_hits(),
        );
        counter(
            "cache_misses_total",
            "Blocks that ran the simulator.",
            self.cache_misses(),
        );
        counter(
            "responses_4xx_total",
            "Responses with a 4xx status.",
            self.responses_4xx_total.load(Ordering::Relaxed),
        );
        counter(
            "responses_5xx_total",
            "Responses with a 5xx status.",
            self.responses_5xx_total.load(Ordering::Relaxed),
        );
        counter(
            "backend_reloads_total",
            "Successful hot reloads of the backend registry.",
            self.reloads(),
        );

        // The per-endpoint labeled series: one HELP/TYPE header per family,
        // one sample per endpoint.
        out.push_str(
            "# HELP difftune_endpoint_requests_total Requests handled, by endpoint.\n\
             # TYPE difftune_endpoint_requests_total counter\n",
        );
        for endpoint in Endpoint::ALL {
            let value = self.endpoint_requests[endpoint.index()].load(Ordering::Relaxed);
            out.push_str(&format!(
                "difftune_endpoint_requests_total{{endpoint=\"{}\"}} {value}\n",
                endpoint.label()
            ));
        }
        out.push_str(
            "# HELP difftune_endpoint_seconds_total Wall time handling requests, by endpoint.\n\
             # TYPE difftune_endpoint_seconds_total counter\n",
        );
        for endpoint in Endpoint::ALL {
            let seconds =
                self.endpoint_nanos[endpoint.index()].load(Ordering::Relaxed) as f64 / 1e9;
            out.push_str(&format!(
                "difftune_endpoint_seconds_total{{endpoint=\"{}\"}} {seconds:?}\n",
                endpoint.label()
            ));
        }
        out.push_str(
            "# HELP difftune_policy_tier_total Policy-backend blocks answered, by tier.\n\
             # TYPE difftune_policy_tier_total counter\n",
        );
        for (index, tier) in Metrics::POLICY_TIERS.iter().enumerate() {
            out.push_str(&format!(
                "difftune_policy_tier_total{{tier=\"{tier}\"}} {}\n",
                self.policy_tier(index)
            ));
        }

        let mut gauge = |name: &str, help: &str, value: usize| {
            out.push_str(&format!(
                "# HELP difftune_{name} {help}\n# TYPE difftune_{name} gauge\ndifftune_{name} {value}\n"
            ));
        };
        gauge("backends", "Loaded servable backends.", backends);
        gauge("shards", "Prediction worker shards.", shards);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render_in_exposition_format() {
        let metrics = Metrics::new();
        metrics.on_request();
        metrics.on_request();
        metrics.on_predict(3);
        metrics.on_cache(2, 1);
        metrics.on_response_status(200);
        metrics.on_response_status(404);
        metrics.on_response_status(500);
        metrics.on_latency(Endpoint::Predict, std::time::Duration::from_millis(5));
        metrics.on_reload();
        metrics.on_policy_tier(0, 4);
        metrics.on_policy_tier(1, 2);

        assert_eq!(metrics.requests(), 2);
        assert_eq!(metrics.cache_hits(), 2);
        assert_eq!(metrics.cache_misses(), 1);
        assert_eq!(metrics.reloads(), 1);

        let text = metrics.render(21, 4);
        for needle in [
            "difftune_requests_total 2",
            "difftune_predict_requests_total 1",
            "difftune_predict_blocks_total 3",
            "difftune_cache_hits_total 2",
            "difftune_cache_misses_total 1",
            "difftune_responses_4xx_total 1",
            "difftune_responses_5xx_total 1",
            "difftune_backend_reloads_total 1",
            "difftune_endpoint_requests_total{endpoint=\"predict\"} 1",
            "difftune_endpoint_requests_total{endpoint=\"healthz\"} 0",
            "difftune_endpoint_seconds_total{endpoint=\"predict\"} 0.005",
            "difftune_policy_tier_total{tier=\"cache\"} 4",
            "difftune_policy_tier_total{tier=\"surrogate\"} 2",
            "difftune_policy_tier_total{tier=\"simulator\"} 0",
            "# TYPE difftune_policy_tier_total counter",
            "difftune_backends 21",
            "difftune_shards 4",
            "# TYPE difftune_requests_total counter",
            "# TYPE difftune_endpoint_seconds_total counter",
            "# TYPE difftune_backends gauge",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn endpoints_classify_paths_and_label_uniquely() {
        assert_eq!(Endpoint::from_path("/predict"), Endpoint::Predict);
        assert_eq!(Endpoint::from_path("/reload"), Endpoint::Reload);
        assert_eq!(Endpoint::from_path("/drain"), Endpoint::Drain);
        assert_eq!(Endpoint::from_path("/nope"), Endpoint::Other);
        let mut labels: Vec<&str> = Endpoint::ALL.iter().map(|e| e.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Endpoint::ALL.len(), "labels must be unique");
    }
}
