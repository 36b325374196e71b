//! The traced replay: every recorded `/predict` request is answered again
//! in-process by calling the serving layers' public functions in the order
//! the server's `/predict` handler calls them, against a registry loaded from
//! the same artifacts. Each call gets a span (request id, parent span), so
//! the per-layer self times come from outside the program; and the replayed
//! body must equal the HTTP body byte for byte.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use difftune::SimulatorKind;
use difftune_isa::BasicBlock;
use difftune_serve::backend::{block_fingerprint, BackendRegistry, ReloadSpec, Source};
use difftune_serve::cache::{CacheKey, LruCache};
use difftune_serve::http::{HttpLimits, RequestBuffer, Response};
use difftune_serve::policy::TIER_SURROGATE;
use difftune_serve::server::parse_backend_query;
use difftune_sim::Simulator;
use difftune_surrogate::{SurrogateArtifact, SurrogateForward};
use serde::Value;

/// The server's per-shard cache capacity (`difftune-serve` default).
const CACHE_CAPACITY: usize = 4096;
/// The root span of one replayed request.
const ROOT: &str = "serve.request";

/// The layer spans, in call order; each is reported as mean self time per
/// request.
pub const LAYERS: [&str; 11] = [
    "serve.http.parse_us",
    "serde_json.decode_us",
    "isa.parse_us",
    "serve.backend.resolve_us",
    "serve.backend.key_us",
    "serve.policy.tier_us",
    "serve.cache.lookup_us",
    "serve.cache.insert_us",
    "surrogate.predict_us",
    "serde_json.encode_us",
    "serve.http.write_us",
];

/// One finished span.
#[derive(Debug, Clone, Copy)]
struct Span {
    request: u32,
    parent: Option<usize>,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// Spans kept in memory until the replay ends. Disabled, it only runs the
/// wrapped calls.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    root: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    fn span<T>(&mut self, request: u32, name: &'static str, call: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return call();
        }
        let start = Instant::now();
        let value = call();
        self.spans.push(Span {
            request,
            parent: self.root,
            name,
            start,
            end: Instant::now(),
        });
        value
    }

    fn open_root(&mut self, request: u32) {
        if self.enabled {
            let now = Instant::now();
            self.spans.push(Span {
                request,
                parent: None,
                name: ROOT,
                start: now,
                end: now,
            });
            self.root = Some(self.spans.len() - 1);
        }
    }

    fn close_root(&mut self) {
        if let Some(root) = self.root.take() {
            self.spans[root].end = Instant::now();
        }
    }

    /// Per-request self time of every layer, in µs, keyed by request id.
    /// A layer span has no children, so its self time is its duration.
    fn per_request(&self) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for span in &self.spans {
            let layers = out.entry(span.request).or_default();
            if span.parent.is_some() {
                *layers.entry(span.name).or_default() +=
                    (span.end - span.start).as_secs_f64() * 1e6;
            }
        }
        out
    }

    /// Mean self time per request of each layer (µs), and the median over
    /// requests of the summed layer time (ms).
    pub fn summary(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let per_request = self.per_request();
        let requests = per_request.len().max(1) as f64;
        let mut means: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        let mut sums = Vec::with_capacity(per_request.len());
        for layers in per_request.values() {
            let mut total = 0.0;
            for (name, us) in layers {
                *means.entry(name).or_default() += us / requests;
                total += us;
            }
            sums.push(total / 1e3);
        }
        (means, crate::stats::median(&sums))
    }
}

/// The in-process stand-in for one server's `/predict` path.
pub struct Replayer {
    registry: BackendRegistry,
    limits: HttpLimits,
    /// One cache per backend: the server pins a backend to one shard, whose
    /// cache holds all of that backend's entries.
    caches: HashMap<u64, LruCache>,
    simulators: BTreeMap<&'static str, Box<dyn Simulator>>,
    surrogate: SurrogateForward,
    /// Blocks the surrogate answered (tier 2 or a pinned surrogate).
    pub surrogate_blocks: usize,
}

impl Replayer {
    /// Loads the registry the server loaded and a forward engine from the
    /// served surrogate artifact.
    pub fn new(spec: &ReloadSpec, artifact: &SurrogateArtifact) -> Result<Replayer, String> {
        Ok(Replayer {
            registry: BackendRegistry::load(spec, false)?,
            limits: HttpLimits::default(),
            caches: HashMap::new(),
            simulators: BTreeMap::new(),
            surrogate: SurrogateForward::from_artifact(artifact)?,
            surrogate_blocks: 0,
        })
    }

    /// Programs the forward engine has recorded so far.
    pub fn programs_recorded(&self) -> usize {
        self.surrogate.programs_recorded()
    }

    /// Answers one raw HTTP request, returning the response body.
    pub fn handle(&mut self, tracer: &mut Tracer, id: u32, raw: &[u8]) -> Result<Vec<u8>, String> {
        tracer.open_root(id);
        let body = self.handle_inner(tracer, id, raw);
        tracer.close_root();
        body
    }

    fn handle_inner(
        &mut self,
        tracer: &mut Tracer,
        id: u32,
        raw: &[u8],
    ) -> Result<Vec<u8>, String> {
        let limits = self.limits;
        let request = tracer.span(id, "serve.http.parse_us", || {
            let mut parser = RequestBuffer::new();
            parser.push(raw);
            parser.next_request(&limits)
        });
        let request = request
            .map_err(|error| format!("request does not parse: {error}"))?
            .ok_or("request is incomplete")?;
        let value = tracer.span(id, "serde_json.decode_us", || {
            std::str::from_utf8(&request.body)
                .ok()
                .and_then(|text| serde_json::from_str_value(text).ok())
        });
        let value = value.ok_or("request body is not JSON")?;
        let map = value.as_map().ok_or("request body is not an object")?;
        let texts: Vec<&str> = match (value.get("block"), value.get("blocks")) {
            (Some(single), None) => vec![single.as_str().ok_or("`block` is not a string")?],
            (None, Some(many)) => many
                .as_seq()
                .ok_or("`blocks` is not an array")?
                .iter()
                .map(|item| item.as_str().ok_or("`blocks` holds a non-string"))
                .collect::<Result<_, _>>()?,
            _ => return Err("request carries neither `block` nor `blocks`".to_string()),
        };

        let mut blocks = Vec::with_capacity(texts.len());
        for text in texts {
            let block = tracer.span(id, "isa.parse_us", || text.parse::<BasicBlock>());
            blocks.push(block.map_err(|error| format!("block does not parse: {error}"))?);
        }

        let registry = &self.registry;
        let backend = tracer.span(id, "serve.backend.resolve_us", || {
            parse_backend_query(map)
                .map_err(|error| error.message)
                .and_then(|query| registry.resolve(&query))
        })?;

        let mut keys: Vec<CacheKey> = Vec::with_capacity(blocks.len());
        for block in &blocks {
            let fingerprint = tracer.span(id, "serve.backend.key_us", || {
                block_fingerprint(&block.to_string())
            });
            let tier = tracer.span(id, "serve.policy.tier_us", || {
                backend.predictor.tier_tag(block)
            });
            keys.push((fingerprint, backend.cache_fingerprint, tier));
        }
        let source_kind = if backend.source == Source::Policy {
            if keys.iter().all(|&(_, _, tier)| tier == TIER_SURROGATE) {
                "surrogate"
            } else {
                "table"
            }
        } else {
            backend.kind()
        };

        // Cache pass, then the deduplicated misses by the predictor that
        // answers them, then the inserts — the shard worker's order.
        let cache = self
            .caches
            .entry(backend.cache_fingerprint)
            .or_insert_with(|| LruCache::new(CACHE_CAPACITY));
        let mut predictions = vec![0.0; blocks.len()];
        let mut misses: Vec<(CacheKey, usize)> = Vec::new();
        let mut pending: Vec<(usize, usize)> = Vec::new();
        for (index, key) in keys.iter().enumerate() {
            match tracer.span(id, "serve.cache.lookup_us", || cache.get(key)) {
                Some(value) => predictions[index] = value,
                None => {
                    let slot = match misses.iter().position(|(known, _)| known == key) {
                        Some(slot) => slot,
                        None => {
                            misses.push((*key, index));
                            misses.len() - 1
                        }
                    };
                    pending.push((index, slot));
                }
            }
        }
        let mut answers = vec![0.0; misses.len()];
        let by_surrogate = |tier: u8| {
            backend.source == Source::Surrogate
                || (backend.source == Source::Policy && tier == TIER_SURROGATE)
        };
        let (to_surrogate, to_simulator): (Vec<usize>, Vec<usize>) =
            (0..misses.len()).partition(|&slot| by_surrogate(misses[slot].0 .2));
        if !to_surrogate.is_empty() {
            let batch: Vec<BasicBlock> = to_surrogate
                .iter()
                .map(|&slot| blocks[misses[slot].1].clone())
                .collect();
            let engine = &mut self.surrogate;
            let values = tracer.span(id, "surrogate.predict_us", || engine.predict_batch(&batch));
            self.surrogate_blocks += batch.len();
            for (&slot, value) in to_surrogate.iter().zip(values) {
                answers[slot] = value;
            }
        }
        if !to_simulator.is_empty() {
            let batch: Vec<BasicBlock> = to_simulator
                .iter()
                .map(|&slot| blocks[misses[slot].1].clone())
                .collect();
            let kind: SimulatorKind = backend.simulator_kind;
            let simulator = self
                .simulators
                .entry(kind.key())
                .or_insert_with(|| kind.build());
            // No workload traces simulator answers: route-hot's only
            // misses are its untraced warm-up.
            let values = simulator.predict_batch(&backend.table, &batch);
            for (&slot, value) in to_simulator.iter().zip(values) {
                answers[slot] = value;
            }
        }
        let cache = self
            .caches
            .get_mut(&backend.cache_fingerprint)
            .expect("cache created above");
        for ((key, _), value) in misses.iter().zip(&answers) {
            tracer.span(id, "serve.cache.insert_us", || cache.insert(*key, *value));
        }
        for (index, slot) in pending {
            predictions[index] = answers[slot];
        }

        let body = tracer.span(id, "serde_json.encode_us", || {
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
        });
        let body = body.map_err(|error| format!("response does not encode: {error}"))?;
        let response = Response::json(200, body);
        let mut wire = Vec::new();
        tracer
            .span(id, "serve.http.write_us", || response.write_to(&mut wire))
            .map_err(|error| format!("response does not write: {error}"))?;
        Ok(response.body)
    }
}
