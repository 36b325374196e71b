//! The serving workloads: `serve-lstm-miss` (one
//! `difftune-serve`) and `route-hot` (one `difftune-router` over two
//! `difftune-serve` upstreams), all over the cell tuned at set-up.

use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use difftune_isa::{BlockGenerator, GeneratorConfig};
use difftune_serve::backend::ReloadSpec;
use difftune_surrogate::SurrogateForward;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

use crate::fleet::{self, Proc};
use crate::host::{self, StealLog, StealMonitor};
use crate::load::{self, Reply, Request};
use crate::replay::{Replayer, Tracer};
use crate::stats::{best_half, median, quantile, undisturbed};
use crate::tune::{self, CELL};
use crate::{Args, Outcome, Workload};

/// Load-generator connections (and threads) of the open loop, and of the
/// closed loop unless a workload's design says otherwise.
const CONNECTIONS: usize = 2;
/// Prediction shards per server: one per core of the 2-core target, though
/// the run itself is confined to one CPU.
const SHARDS: usize = 2;
/// Fleet start-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Share of the run spent in the closed loop; the open loop gets the rest.
const CLOSED_SHARE: f64 = 0.3;
/// The phases are cut into windows of these lengths; the metrics leave out
/// the windows the host disturbed (see `stats::undisturbed`).
const CLOSED_WINDOW_S: f64 = 0.5;
const OPEN_WINDOW_S: f64 = 0.5;
/// How often the host's steal counter is read during the timed phases.
const STEAL_PERIOD: Duration = Duration::from_millis(100);
/// A window is disturbed when the host took more than this share of the
/// run's CPU in it, or, in the open loop, when the generator sent its
/// requests later than the workload's `late_limit_ms` (p99 over the window).
const STEAL_LIMIT: f64 = 0.05;
/// The error budget that opens the cell's tier 2 on `serve-lstm-miss`.
const OPEN_BUDGET: &str = "1000000";
/// Responses checked byte for byte against the in-process replay in an
/// untraced run (a traced run checks every open-loop response).
const CHECK_SAMPLE: usize = 64;
/// `route-hot`: working-set size and requests per path for the router hop.
const WORKING_SET: usize = 64;
const HOP_REQUESTS: usize = 300;
/// `route-hot`: fleets tried until one splits the backends over both
/// upstreams.
const FLEET_ATTEMPTS: usize = 5;

/// How one serving workload is shaped.
struct Design {
    blocks_per_request: usize,
    /// Closed-loop connections, and requests each keeps in flight.
    closed_connections: usize,
    closed_depth: usize,
    /// Open-loop arrival rate, requests/s: about a tenth (route-hot) to a
    /// seventh (lstm-miss) of the closed-loop capacity on the reference
    /// machine, so that queueing does not amplify a slower host into a much
    /// slower answer.
    open_rate: f64,
    /// Generator lateness (p99 over a window) that marks the window as
    /// disturbed: a stall of several requests' worth on route-hot. On
    /// lstm-miss, sends already run a few ms late with no steal at all, so
    /// only a far longer stall counts.
    late_limit_ms: f64,
    source_kind: &'static str,
}

fn design(workload: Workload) -> Design {
    match workload {
        Workload::ServeLstmMiss => Design {
            blocks_per_request: 2,
            closed_connections: CONNECTIONS,
            // One request queued behind the one in service keeps the shard
            // busy through every hand-off.
            closed_depth: 2,
            open_rate: 40.0,
            late_limit_ms: 10.0,
            source_kind: "surrogate",
        },
        Workload::RouteHot => Design {
            blocks_per_request: 1,
            // One pipelined connection: the router works through its
            // requests back to back, so the figure is the per-request cost
            // of the whole path. Unpipelined, every request waits on three
            // cross-process wake-ups, and on two CPUs the result swung
            // between 9k and 15k blocks/s with thread placement.
            closed_connections: 1,
            closed_depth: 8,
            open_rate: 1_000.0,
            late_limit_ms: 2.0,
            source_kind: "table",
        },
        Workload::Tune => unreachable!("tune is not a serving workload"),
    }
}

/// The spawned servers; dropping the fleet kills them.
struct Fleet {
    serves: Vec<Proc>,
    router: Option<Proc>,
}

impl Fleet {
    fn start(args: &Args, serve_args: &[String]) -> Result<Fleet, String> {
        let upstreams = if args.workload == Workload::RouteHot {
            2
        } else {
            1
        };
        let mut fleet = Fleet {
            serves: Vec::new(),
            router: None,
        };
        for _ in 0..upstreams {
            fleet
                .serves
                .push(fleet::spawn_serve(&args.bins, serve_args)?);
        }
        if args.workload == Workload::RouteHot {
            fleet.router = Some(fleet::spawn_router(&args.bins, &fleet.serves)?);
        }
        Ok(fleet)
    }

    /// Where clients send traffic.
    fn front(&self) -> &str {
        self.router
            .as_ref()
            .unwrap_or(&self.serves[0])
            .addr
            .as_str()
    }

    fn serve_cpu_s(&self) -> f64 {
        self.serves
            .iter()
            .map(|p| fleet::process_cpu_s(p.pid))
            .sum()
    }

    fn shard_cpu_s(&self) -> Vec<f64> {
        self.serves
            .iter()
            .flat_map(|p| fleet::shard_cpu_s(p.pid, SHARDS))
            .collect()
    }

    fn router_cpu_s(&self) -> f64 {
        self.router
            .as_ref()
            .map_or(0.0, |p| fleet::process_cpu_s(p.pid))
    }

    fn rss_mb(&self) -> f64 {
        self.serves
            .iter()
            .chain(&self.router)
            .map(|p| fleet::peak_rss_mb(&p.pid.to_string()))
            .sum()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for proc in self.serves.iter().chain(&self.router) {
            fleet::kill(proc.pid);
        }
    }
}

/// A `/predict` body: sourceless `blocks`, or one `block` pinned to a backend.
fn body(blocks: &[String], backend: Option<&str>) -> String {
    let mut map = match blocks {
        [single] if backend.is_some() => vec![("block".to_string(), Value::Str(single.clone()))],
        _ => vec![(
            "blocks".to_string(),
            Value::Seq(blocks.iter().cloned().map(Value::Str).collect()),
        )],
    };
    if let Some(backend) = backend {
        map.push(("backend".to_string(), Value::Str(backend.to_string())));
    }
    serde_json::to_string(&Value::Map(map)).expect("a request body serializes")
}

/// Fresh blocks, never repeated within the run; on `serve-lstm-miss` only
/// blocks the surrogate can program-key, so every one is a tier-2 block.
struct BlockSource {
    generator: BlockGenerator,
    rng: StdRng,
    seen: HashSet<String>,
    probe: Option<SurrogateForward>,
}

impl BlockSource {
    fn next(&mut self) -> String {
        loop {
            let block = self.generator.generate(&mut self.rng);
            if block.is_empty() || self.probe.as_ref().is_some_and(|p| !p.replayable(&block)) {
                continue;
            }
            let text = block.to_string();
            if self.seen.insert(text.clone()) {
                return text;
            }
        }
    }

    fn requests(&mut self, count: usize, per_request: usize) -> Vec<Request> {
        (0..count)
            .map(|_| {
                let blocks: Vec<String> = (0..per_request).map(|_| self.next()).collect();
                Request::new(body(&blocks, None), per_request)
            })
            .collect()
    }
}

/// The `route-hot` traffic: two backends the router places on different
/// upstreams, found through `POST /route`, with their primaries. `None` when
/// the ring puts every backend on one upstream.
fn pick_backends(
    fleet: &Fleet,
    probe_block: &str,
) -> Result<Option<[(String, String); 2]>, String> {
    let router = fleet
        .router
        .as_ref()
        .expect("route-hot has a router")
        .addr
        .as_str();
    let listing = serde_json::from_str_value(&fleet::get(router, "/backends")?)
        .map_err(|error| format!("router /backends is not JSON: {error}"))?;
    let policy = format!("policy:{CELL}");
    // The cell's sourceless default first, then every other backend.
    let ids = std::iter::once(policy.clone()).chain(
        listing
            .as_seq()
            .ok_or("router /backends is not a list")?
            .iter()
            .filter_map(|entry| entry.get("id")?.as_str().map(String::from))
            .filter(|id| *id != policy),
    );
    let mut first: Option<(String, String)> = None;
    for id in ids {
        let explained = fleet::post(
            router,
            "/route",
            &body(&[probe_block.to_string()], Some(&id)),
        )?;
        let primary = serde_json::from_str_value(&explained)
            .ok()
            .and_then(|value| value.get("primary")?.as_str().map(String::from))
            .ok_or_else(|| format!("/route gave no primary: {explained}"))?;
        match first.take() {
            None => first = Some((id, primary)),
            Some(earlier) if earlier.1 != primary => return Ok(Some([earlier, (id, primary)])),
            Some(earlier) => first = Some(earlier),
        }
    }
    Ok(None)
}

/// Checks one answer's shape: 200, the expected backend and `source_kind`,
/// and one finite positive prediction per block.
fn well_formed(reply: &Option<Reply>, request: &Request, backend: &str, source_kind: &str) -> bool {
    let Some(reply) = reply else { return false };
    if reply.status != 200 {
        return false;
    }
    let Some(value) = std::str::from_utf8(&reply.body)
        .ok()
        .and_then(|text| serde_json::from_str_value(text).ok())
    else {
        return false;
    };
    let predictions = value.get("predictions").and_then(Value::as_seq);
    value.get("backend").and_then(Value::as_str) == Some(backend)
        && value.get("source_kind").and_then(Value::as_str) == Some(source_kind)
        && predictions.is_some_and(|p| {
            p.len() == request.blocks
                && p.iter()
                    .all(|v| matches!(v, Value::Float(x) if x.is_finite() && *x > 0.0))
        })
}

/// `/metrics` and `/proc` readings around a timed phase.
struct Snapshot {
    metrics: BTreeMap<String, f64>,
    serve_cpu_s: f64,
    shard_cpu_s: Vec<f64>,
    router_cpu_s: f64,
}

fn snapshot(fleet: &Fleet) -> Result<Snapshot, String> {
    Ok(Snapshot {
        metrics: fleet::scrape(fleet.front())?,
        serve_cpu_s: fleet.serve_cpu_s(),
        shard_cpu_s: fleet.shard_cpu_s(),
        router_cpu_s: fleet.router_cpu_s(),
    })
}

/// Median request latency (ms) over one pass of `requests`, one at a time.
fn closed_median_ms(addr: &str, requests: &[Request]) -> Result<f64, String> {
    Ok(median(&load::each_once(addr, requests)?.rtt_ms))
}

/// A timed phase cut into windows of `length_s` from `start`, each with the
/// host's steal share over it.
struct Windows {
    start: Instant,
    length_s: f64,
    steal: Vec<f64>,
}

impl Windows {
    fn new(start: Instant, phase: Duration, length_s: f64, log: &StealLog) -> Windows {
        let count = (phase.as_secs_f64() / length_s).floor().max(1.0) as usize;
        let at = |k: usize| start + Duration::from_secs_f64(k as f64 * length_s);
        Windows {
            start,
            length_s,
            steal: (0..count).map(|k| log.share(at(k), at(k + 1))).collect(),
        }
    }

    /// The window `seconds` into the phase (the last one for any later time).
    fn index(&self, seconds: f64) -> usize {
        ((seconds.max(0.0) / self.length_s) as usize).min(self.steal.len() - 1)
    }

    fn index_at(&self, at: Instant) -> usize {
        self.index(at.saturating_duration_since(self.start).as_secs_f64())
    }
}

pub fn run_workload(args: &Args) -> Result<Outcome, String> {
    let design = design(args.workload);
    let mut outcome = Outcome::default();

    let cell = tune::cell(args)?;
    // The whole workload, servers and load generator alike, runs on one
    // CPU. Every request hands off between processes (four of them on
    // route-hot), and across two vCPUs each hand-off is a cross-CPU wake-up
    // whose cost rises steeply when the host is busy: at 3-14% steal,
    // route-hot's p50 doubled while its throughput fell under a third, and
    // ten runs spread 0.32-0.51 of their median. On one CPU the hand-offs
    // are local context switches. Five route-hot runs at 5-13% steal then
    // spread 0.15, and lstm-miss throughput spread 0.06 instead of 0.17.
    let cpu = host::pin_to_one_cpu()?;
    let mut spec = ReloadSpec {
        defaults: true,
        table_dirs: vec![cell.dir.clone()],
        ..ReloadSpec::default()
    };
    let mut serve_args = vec![
        "--tables".to_string(),
        cell.dir.display().to_string(),
        "--shards".to_string(),
        SHARDS.to_string(),
    ];
    if args.workload == Workload::ServeLstmMiss {
        spec.cell_budgets = vec![(CELL.to_string(), OPEN_BUDGET.parse().expect("numeric"))];
        serve_args.push("--error-budget".to_string());
        serve_args.push(format!("{CELL}={OPEN_BUDGET}"));
    }

    // Set-up: start the servers, several times; the last fleet serves.
    let mut setup = Vec::new();
    let mut running = None;
    for _ in 0..SETUP_REPEATS {
        drop(running.take());
        let started = Instant::now();
        running = Some(Fleet::start(args, &serve_args)?);
        setup.push(started.elapsed().as_secs_f64());
    }
    let mut fleet = running.expect("at least one set-up repeat");

    // Inputs, from the seed: the open loop's requests first, then the closed
    // loop draws from what follows, for as long as it runs.
    let closed_time = Duration::from_secs_f64(args.seconds * CLOSED_SHARE);
    let open_time = Duration::from_secs_f64(args.seconds * (1.0 - CLOSED_SHARE));
    let open_count = (design.open_rate * open_time.as_secs_f64() * 1.5) as usize + 64;
    let mut source = BlockSource {
        generator: BlockGenerator::new(GeneratorConfig::default()),
        rng: StdRng::seed_from_u64(args.seed),
        seen: HashSet::new(),
        probe: (args.workload == Workload::ServeLstmMiss)
            .then(|| SurrogateForward::from_artifact(&cell.artifact))
            .transpose()?,
    };
    let mut backends = None;
    let mut hot: Vec<Request> = Vec::new();
    let open_requests = if args.workload == Workload::RouteHot {
        let blocks: Vec<String> = (0..WORKING_SET).map(|_| source.next()).collect();
        // Ring positions hash the upstreams' ephemeral ports, so a fleet
        // whose ring happens to place every backend on one upstream is
        // replaced by a fresh one.
        for _ in 0..FLEET_ATTEMPTS {
            backends = pick_backends(&fleet, &blocks[0])?;
            if backends.is_some() {
                break;
            }
            drop(fleet);
            fleet = Fleet::start(args, &serve_args)?;
        }
        let pair = backends
            .as_ref()
            .ok_or("every fleet put all backends on one upstream")?;
        hot = pair
            .iter()
            .flat_map(|(id, _)| {
                blocks
                    .iter()
                    .map(move |b| Request::new(body(std::slice::from_ref(b), Some(id)), 1))
            })
            .collect();
        (0..open_count)
            .map(|_| hot[source.rng.gen_range(0..hot.len())].clone())
            .collect()
    } else {
        source.requests(open_count, design.blocks_per_request)
    };
    let feed = Mutex::new(source);
    let next_closed = || -> Option<Request> {
        let mut source = feed.lock().expect("the block source is never poisoned");
        Some(if hot.is_empty() {
            source.requests(1, design.blocks_per_request).remove(0)
        } else {
            let pick = source.rng.gen_range(0..hot.len());
            hot[pick].clone()
        })
    };
    let expected_backend = |request: &Request| -> String {
        match &backends {
            Some(pair) => pair
                .iter()
                .find(|(id, _)| request.body.contains(&format!("\"{id}\"")))
                .map(|(id, _)| id.clone())
                .unwrap_or_default(),
            None => format!("policy:{CELL}"),
        }
    };

    // Warm the working set (route-hot), then the timed phases.
    if !hot.is_empty() {
        let warmed = load::each_once(fleet.front(), &hot)?;
        if warmed.sent.len() != hot.len() || warmed.sent.iter().any(|(_, r)| r.is_none()) {
            return Err("the warm-up pass lost requests".to_string());
        }
    }
    let monitor = StealMonitor::start(STEAL_PERIOD, cpu);
    let before = snapshot(&fleet)?;
    let closed_start = Instant::now();
    let closed = load::closed_loop(
        fleet.front(),
        &next_closed,
        design.closed_connections,
        design.closed_depth,
        closed_time,
    )?;
    let between = snapshot(&fleet)?;
    let open = load::open_loop(
        fleet.front(),
        &open_requests,
        CONNECTIONS,
        design.open_rate,
        open_time,
        args.seed ^ 0x6f70_656e,
    )?;
    let after = snapshot(&fleet)?;
    let steal_log = monitor.stop();
    let hop_ms = match &backends {
        Some(pair) if args.trace => {
            let mut via = Vec::new();
            let mut direct = Vec::new();
            for (id, primary) in pair {
                let sample: Vec<Request> = hot
                    .iter()
                    .filter(|r| r.body.contains(&format!("\"{id}\"")))
                    .cycle()
                    .take(HOP_REQUESTS)
                    .cloned()
                    .collect();
                via.push(closed_median_ms(fleet.front(), &sample)?);
                direct.push(closed_median_ms(primary, &sample)?);
            }
            median(&via) - median(&direct)
        }
        _ => 0.0,
    };
    let rss_mb = fleet.rss_mb();
    drop(fleet);

    // Output checks: every answer well formed, and a sample (all open-loop
    // answers when traced) byte-identical to the in-process replay.
    let open_sent: Vec<(&Request, &Option<Reply>)> = open
        .answers
        .iter()
        .map(|(index, reply)| (&open_requests[*index], reply))
        .collect();
    let all: Vec<(&Request, &Option<Reply>)> = closed
        .sent
        .iter()
        .map(|(request, reply)| (request, reply))
        .chain(open_sent.iter().copied())
        .collect();
    outcome.attempted = all.len() as u64;
    outcome.failed += all
        .iter()
        .filter(|(request, reply)| {
            !well_formed(
                reply,
                request,
                &expected_backend(request),
                design.source_kind,
            )
        })
        .count() as u64;

    // Both phases are cut into windows, and a window where the host took
    // too much (steal, or the open loop sending late) is left out. The
    // choice never looks at the throughput or latency being reported.
    let closed_windows = Windows::new(closed_start, closed_time, CLOSED_WINDOW_S, &steal_log);
    let mut window_blocks = vec![0usize; closed_windows.steal.len()];
    for &(done, blocks) in &closed.completions {
        if done < closed_start + closed_time {
            window_blocks[closed_windows.index_at(done)] += blocks;
        }
    }
    let kept_closed = undisturbed(&closed_windows.steal, |steal| steal / STEAL_LIMIT);
    let open_windows = Windows::new(open.start, open_time, OPEN_WINDOW_S, &steal_log);
    let mut window_latency = vec![Vec::new(); open_windows.steal.len()];
    for &(scheduled_s, latency_ms) in &open.latency_ms {
        window_latency[open_windows.index(scheduled_s)].push(latency_ms);
    }
    let mut window_late = vec![Vec::new(); open_windows.steal.len()];
    for &(scheduled_s, late_ms) in &open.late_ms {
        window_late[open_windows.index(scheduled_s)].push(late_ms);
    }
    let disturbance: Vec<f64> = open_windows
        .steal
        .iter()
        .zip(&window_late)
        .map(|(steal, late)| (steal / STEAL_LIMIT).max(quantile(late, 0.99) / design.late_limit_ms))
        .collect();
    let kept_open = undisturbed(&disturbance, |d| *d);
    eprintln!(
        "perfbench: kept {} of {} closed and {} of {} open windows (steal {:.3})",
        kept_closed.len(),
        closed_windows.steal.len(),
        kept_open.len(),
        open_windows.steal.len(),
        steal_log.total()
    );
    let kept_latency: Vec<f64> = kept_open
        .iter()
        .flat_map(|&k| window_latency[k].iter().copied())
        .collect();
    let kept_blocks: usize = kept_closed.iter().map(|&k| window_blocks[k]).sum();

    let m = &mut outcome.metrics;
    m.insert("setup_s", median(&best_half(&setup, |s| *s)));
    m.insert(
        "blocks_per_s",
        kept_blocks as f64 / (kept_closed.len() as f64 * CLOSED_WINDOW_S),
    );
    m.insert("p50_ms", quantile(&kept_latency, 0.5));
    m.insert("client.p90_ms", quantile(&kept_latency, 0.9));
    m.insert("rss_mb", rss_mb);
    let answered_blocks: usize = closed.completions.iter().map(|(_, blocks)| blocks).sum();

    // Workload self-assertions from the /metrics deltas over both phases.
    let d = |series: &str| fleet::delta(&before.metrics, &after.metrics, series);
    let hits = d("difftune_cache_hits_total");
    let lookups = hits + d("difftune_cache_misses_total");
    let hit_ratio = if lookups > 0.0 { hits / lookups } else { 0.0 };
    let tier2 = d("difftune_policy_tier_total{tier=\"surrogate\"}");
    let tier3 = d("difftune_policy_tier_total{tier=\"simulator\"}");
    let tier2_share = if tier2 + tier3 > 0.0 {
        tier2 / (tier2 + tier3)
    } else {
        0.0
    };
    let proxied: Vec<f64> = after
        .metrics
        .keys()
        .filter(|series| series.starts_with("difftune_router_proxied_total{"))
        .map(|series| d(series))
        .collect();
    let proxied_total: f64 = proxied.iter().sum();
    let mut drift = Vec::new();
    match args.workload {
        Workload::RouteHot => {
            if hit_ratio < 0.99 {
                drift.push(format!("cache hit ratio {hit_ratio:.4} < 0.99"));
            }
            if proxied.len() != 2 || proxied.iter().any(|&p| p <= 0.0) {
                drift.push(format!("not both upstreams got traffic: {proxied:?}"));
            }
        }
        _ => {
            if hit_ratio > 0.01 {
                drift.push(format!(
                    "cache hit ratio {hit_ratio:.4} > 0.01 on a miss workload"
                ));
            }
            if tier2_share != 1.0 {
                drift.push(format!("tier-2 share {tier2_share} != 1"));
            }
        }
    }
    if !drift.is_empty() {
        return Err(format!(
            "the workload is misconfigured: {}",
            drift.join("; ")
        ));
    }

    // Byte-identity against the in-process replay.
    let replay_sequence: Vec<(&Request, &Option<Reply>)> = if args.trace {
        open_sent.clone()
    } else {
        let step = (all.len() / CHECK_SAMPLE).max(1);
        all.iter().step_by(step).copied().collect()
    };
    // Replays the warm-up untraced, then the sequence under `tracer`;
    // returns the replayer, the sequence's wall time and its bodies.
    let replay = |tracer: &mut Tracer| -> Result<(Replayer, f64, Vec<Vec<u8>>), String> {
        let mut replayer = Replayer::new(&spec, &cell.artifact)?;
        let mut off = Tracer::new(false);
        for (id, request) in hot.iter().enumerate() {
            replayer.handle(&mut off, id as u32, &request.raw)?;
        }
        let started = Instant::now();
        let bodies = replay_sequence
            .iter()
            .enumerate()
            .map(|(id, (request, _))| replayer.handle(tracer, id as u32, &request.raw))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((replayer, started.elapsed().as_secs_f64(), bodies))
    };
    let mut tracer = Tracer::new(args.trace);
    let (replayer, traced_s, bodies) = replay(&mut tracer)?;
    let mismatches = replay_sequence
        .iter()
        .zip(&bodies)
        .filter(|((_, reply), body)| reply.as_ref().is_some_and(|reply| reply.body != **body))
        .count() as u64;
    if mismatches > 0 {
        eprintln!("perfbench: {mismatches} responses differ from the in-process replay");
    }
    outcome.failed += mismatches;

    if args.trace {
        // The same replay untraced, on fresh state, prices the tracing.
        let (_, untraced_s, _) = replay(&mut Tracer::new(false))?;

        let (layers, layer_sum_p50_ms) = tracer.summary();
        m.extend(layers);
        // The client's view of one request: the open loop's median, at a
        // load light enough that little of it is queueing. (The closed
        // loop's round trips include waiting behind the requests pipelined
        // ahead of them.)
        let rtt_p50 = median(
            &open
                .latency_ms
                .iter()
                .map(|(_, ms)| *ms)
                .collect::<Vec<_>>(),
        );
        m.insert("client.rtt_p50_ms", rtt_p50);
        m.insert("serve.unaccounted_ms", rtt_p50 - layer_sum_p50_ms);
        m.insert("trace.overhead_frac", traced_s / untraced_s - 1.0);
        let recorded = replayer.programs_recorded();
        m.insert("surrogate.programs_recorded", recorded as f64);
        if replayer.surrogate_blocks > 0 {
            m.insert(
                "surrogate.shape_reuse_ratio",
                1.0 - recorded as f64 / replayer.surrogate_blocks as f64,
            );
        }
        m.insert("serve.cache.hit_ratio", hit_ratio);
        m.insert("serve.policy.tier2_share", tier2_share);
        m.insert("router.proxied", proxied_total);
        m.insert("router.coalesced", d("difftune_router_coalesced_total"));
        if proxied_total > 0.0 {
            let max = proxied.iter().copied().fold(0.0, f64::max);
            m.insert("router.upstream_share_max", max / proxied_total);
        }
        let serve_cpu = between.serve_cpu_s - before.serve_cpu_s;
        let shards: Vec<f64> = between
            .shard_cpu_s
            .iter()
            .zip(&before.shard_cpu_s)
            .map(|(b, a)| b - a)
            .collect();
        m.insert("serve.cpu_s", serve_cpu);
        m.insert(
            "serve.cpu_us_per_block",
            serve_cpu * 1e6 / answered_blocks.max(1) as f64,
        );
        let shard_extreme = |pick: fn(f64, f64) -> f64| shards.iter().copied().reduce(pick);
        m.insert(
            "serve.shard.cpu_max_s",
            shard_extreme(f64::max).unwrap_or(0.0),
        );
        m.insert(
            "serve.shard.cpu_min_s",
            shard_extreme(f64::min).unwrap_or(0.0),
        );
        m.insert("router.cpu_s", between.router_cpu_s - before.router_cpu_s);
        m.insert("router.hop_p50_ms", hop_ms);
        let late: Vec<f64> = open.late_ms.iter().map(|(_, late)| *late).collect();
        m.insert("loadgen.late_p99_ms", quantile(&late, 0.99));
        m.insert(
            "loadgen.rate_achieved",
            open.late_ms.len() as f64 / (design.open_rate * open.schedule_s),
        );
        m.insert("core.learned_mape", cell.learned_mape);
        m.insert("loadgen.steal_frac", steal_log.total());
    }
    Ok(outcome)
}
