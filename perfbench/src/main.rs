//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --bins DIR --work DIR
//! ```
//!
//! Runs one workload (`tune`, `serve-lstm-miss`, `route-hot`; see
//! `perfbench/README.md`), checks every output it gets back,
//! and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set. A
//! workload that drifts from its design (wrong hit ratio, wrong tier, one
//! upstream idle) exits 1 without printing a result.
//!
//! The tuning pipeline runs in-process through the public session API; the
//! serving workloads drive release `difftune-serve` / `difftune-router`
//! binaries from `--bins` as child processes, which are killed on every exit
//! path.

mod fleet;
mod host;
mod load;
mod replay;
mod serve;
mod stats;
mod tune;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The end-to-end metrics every workload reports with `--trace 0`, in
/// output order, with their units (kept in step with `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("blocks_per_s", "blocks/s"),
    ("p50_ms", "ms"),
    ("rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A layer a
/// workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("bhive.corpus_s", "s"),
    ("core.learned_mape", "fraction"),
    ("core.generate_s", "s"),
    ("core.fit_s", "s"),
    ("core.optimize_s", "s"),
    ("sim.calls", "count"),
    ("sim.busy_s", "s"),
    ("sim.ns_per_call", "ns"),
    ("serve.http.parse_us", "us"),
    ("serde_json.decode_us", "us"),
    ("isa.parse_us", "us"),
    ("serve.backend.resolve_us", "us"),
    ("serve.backend.key_us", "us"),
    ("serve.policy.tier_us", "us"),
    ("serve.cache.lookup_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("surrogate.predict_us", "us"),
    ("serde_json.encode_us", "us"),
    ("serve.http.write_us", "us"),
    ("client.p90_ms", "ms"),
    ("client.rtt_p50_ms", "ms"),
    ("serve.unaccounted_ms", "ms"),
    ("serve.cache.hit_ratio", "fraction"),
    ("serve.policy.tier2_share", "fraction"),
    ("router.proxied", "count"),
    ("router.coalesced", "count"),
    ("router.upstream_share_max", "fraction"),
    ("surrogate.programs_recorded", "count"),
    ("surrogate.shape_reuse_ratio", "fraction"),
    ("serve.cpu_s", "s"),
    ("serve.cpu_us_per_block", "us"),
    ("serve.shard.cpu_max_s", "s"),
    ("serve.shard.cpu_min_s", "s"),
    ("router.cpu_s", "s"),
    ("router.hop_p50_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.rate_achieved", "fraction"),
    ("loadgen.steal_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Tune,
    ServeLstmMiss,
    RouteHot,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "tune" => Ok(Workload::Tune),
            "serve-lstm-miss" => Ok(Workload::ServeLstmMiss),
            "route-hot" => Ok(Workload::RouteHot),
            other => Err(format!(
                "unknown workload {other:?} (valid: tune, serve-lstm-miss, route-hot)"
            )),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory holding the release `difftune-serve` / `difftune-router`.
    pub bins: PathBuf,
    /// Scratch directory for artifacts and cross-run fingerprints.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bins = None;
    let mut work = None;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => {
                seed =
                    Some(value.parse::<u64>().map_err(|_| {
                        format!("--seed must be an unsigned integer, got {value:?}")
                    })?)
            }
            "--seconds" => {
                let parsed: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds must be numeric, got {value:?}"))?;
                if !(parsed > 0.0 && parsed.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value:?}"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--bins" => bins = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bins: bins.ok_or("--bins is required")?,
        work: work.ok_or("--work is required")?,
    })
}

/// What a workload hands back: request accounting plus every metric it
/// measured, by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Renders the result line. Every metric of the selected set is printed;
/// an end-to-end metric the workload failed to produce is a bug.
fn render(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(value) => *value,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        // `+ 0.0` turns a negative zero (an empty f64 sum) into 0.
        let value = value + 0.0;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.work)
        .map_err(|error| format!("cannot create {}: {error}", args.work.display()))?;
    let outcome = match args.workload {
        Workload::Tune => tune::run_workload(&args)?,
        _ => serve::run_workload(&args)?,
    };
    if outcome.attempted == 0 {
        return Err("the workload attempted nothing".to_string());
    }
    render(&outcome, args.trace)
}

fn main() {
    // A panic anywhere must not leave serve/router children running.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        fleet::kill_registered_children();
        default_hook(info);
    }));
    match run() {
        Ok(line) => {
            fleet::kill_registered_children();
            println!("{line}");
        }
        Err(error) => {
            fleet::kill_registered_children();
            eprintln!("perfbench: {error}");
            std::process::exit(1);
        }
    }
}
