//! `difftune-loadtest` — a closed-loop load generator and chaos driver for
//! `difftune-serve` and the `difftune-router` tier.
//!
//! Generates a deterministic set of basic blocks, sends them as `/predict`
//! requests over one or more keep-alive connections (each connection waits
//! for its response before sending the next request — a closed loop), and
//! writes the measured throughput as `BENCH_serve.json` (direct) or
//! `BENCH_router.json` (routed; stage `route`) in the `difftune-bench/2`
//! schema, extending the perf trajectory the training stages already record.
//!
//! ```text
//! difftune-loadtest --addr HOST:PORT [--requests N] [--batch K] [--blocks B]
//!                   [--connections C] [--collide] [--seed S] [--sim X]
//!                   [--uarch X] [--spec X] [--source X]
//!                   [--expect-source-kind KIND] [--expect-coalescing]
//!                   [--json] [--out-dir DIR] [--wait-seconds S]
//!                   [--max-seconds S] [--check-deterministic]
//! difftune-loadtest --via-router N [--routers M] [--chaos SPEC]
//!                   [--tables DIR]...
//!                   [--error-budget SPEC]... [--idle-timeout S] [...as above]
//! ```
//!
//! `--via-router N` spawns N `difftune-serve` upstreams and `--routers M`
//! (default 1) `difftune-router` replicas over them (sibling binaries next
//! to its own executable), then drives the first router. Spawned children
//! are tracked in a process-wide registry: they are killed when the fleet
//! drops, when the loadtest panics (a panic hook sweeps the registry), and
//! on Ctrl-C (the terminal delivers SIGINT to the whole process group).
//! Every child also carries a generous `--max-seconds` self-destruct as the
//! last line of defence against orphans.
//!
//! `--chaos SPEC` injects a scripted fault schedule (the grammar lives in
//! `tests/chaos/mod.rs`, shared with `tests/fleet_e2e.rs`): explicit
//! `kill@24,rollout@40` events or seeded `seed:42:3` draws, replayed
//! bit-identically. `kill@K` SIGKILLs the ring-primary upstream after
//! request K — mid-load — and the remaining requests must fail over. A
//! clean baseline pass runs first; then the schedule replays the same
//! requests with faults injected at their request indices, and every
//! response must be byte-identical to the baseline — determinism invariant
//! #6 in scripted, exhaustive form: pre-fault and post-fault canonical bytes
//! are the *same* bytes.
//!
//! `--collide` makes every connection send the *full* request sequence
//! instead of a partition, so C connections race identical bodies — the
//! workload the router's singleflight map coalesces. `--expect-coalescing`
//! scrapes the router's `/metrics` after the first pass and fails unless
//! `difftune_router_coalesced_total` > 0.
//!
//! `--check-deterministic` replays the exact request sequence a second time
//! (now against a warm — and, after faults, degraded — fleet) and exits
//! nonzero unless every response body is byte-identical to the first pass.
//! `--max-seconds` is the CI tripwire: the run fails if the whole loadtest
//! exceeds the budget.

#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use difftune_bench::cli::{self, Flags};
use difftune_bench::outln;
use difftune_bench::record::BenchRecord;
use difftune_isa::{BlockGenerator, GeneratorConfig};
use difftune_serve::client::HttpClient;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

#[path = "../../../../tests/chaos/mod.rs"]
mod chaos;

use chaos::{ChaosSchedule, Fault, FaultKind};

/// Every spawned child's PID. The panic hook sweeps this so a failing
/// assertion in any loadtest thread cannot leak serve/router processes; the
/// `Fleet` drop is the orderly path and unregisters what it kills.
static CHILD_PIDS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn register_child(pid: u32) {
    CHILD_PIDS.lock().expect("child registry").push(pid);
}

fn unregister_child(pid: u32) {
    CHILD_PIDS
        .lock()
        .expect("child registry")
        .retain(|&known| known != pid);
}

/// SIGKILLs every registered child. Used by the panic hook and the error
/// exit; safe to call twice (the registry drains on first use).
fn kill_registered_children() {
    let pids = std::mem::take(&mut *CHILD_PIDS.lock().expect("child registry"));
    for pid in pids {
        let _ = std::process::Command::new("kill")
            .args(["-KILL", &pid.to_string()])
            .status();
    }
}

/// Delivers a named signal (`STOP`, `CONT`, ...) to a child PID.
fn signal_child(pid: u32, signal: &str) -> Result<(), String> {
    let status = std::process::Command::new("kill")
        .args([&format!("-{signal}"), &pid.to_string()])
        .status()
        .map_err(|error| format!("cannot run kill -{signal} {pid}: {error}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("kill -{signal} {pid} exited with {status}"))
    }
}

const USAGE: &str = "usage: difftune-loadtest (--addr HOST:PORT | --via-router N) [--routers M] \
     [--requests N] [--batch K] [--blocks B] [--connections C] [--collide] [--seed S] [--sim X] \
     [--uarch X] [--spec X] [--source X] [--expect-source-kind KIND] [--expect-coalescing] \
     [--json] [--out-dir DIR] [--wait-seconds S] [--max-seconds S] [--check-deterministic] \
     [--chaos SPEC] [--tables DIR]... [--error-budget SPEC]... [--idle-timeout S]";

#[derive(Debug)]
struct Args {
    addr: String,
    requests: usize,
    batch: usize,
    blocks: usize,
    connections: usize,
    collide: bool,
    seed: u64,
    sim: Option<String>,
    uarch: Option<String>,
    spec: Option<String>,
    source: Option<String>,
    expect_source_kind: Option<String>,
    expect_coalescing: bool,
    json: bool,
    out_dir: String,
    wait_seconds: Duration,
    max_seconds: Option<f64>,
    check_deterministic: bool,
    via_router: Option<usize>,
    routers: usize,
    chaos: Option<String>,
    tables: Vec<String>,
    error_budget: Vec<String>,
    idle_timeout: Option<Duration>,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        requests: 64,
        batch: 4,
        blocks: 32,
        connections: 1,
        collide: false,
        seed: 0,
        sim: None,
        uarch: None,
        spec: None,
        source: None,
        expect_source_kind: None,
        expect_coalescing: false,
        json: false,
        out_dir: ".".to_string(),
        wait_seconds: Duration::from_secs(30),
        max_seconds: None,
        check_deterministic: false,
        via_router: None,
        routers: 1,
        chaos: None,
        tables: Vec::new(),
        error_budget: Vec::new(),
        idle_timeout: None,
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--addr" => args.addr = flags.value("--addr")?,
            "--requests" => args.requests = flags.parse("--requests", str::parse)?,
            "--batch" => args.batch = flags.parse("--batch", str::parse)?,
            "--blocks" => args.blocks = flags.parse("--blocks", str::parse)?,
            "--connections" => args.connections = flags.parse("--connections", str::parse)?,
            "--collide" => args.collide = true,
            "--seed" => args.seed = flags.parse("--seed", str::parse)?,
            "--sim" => args.sim = Some(flags.value("--sim")?),
            "--uarch" => args.uarch = Some(flags.value("--uarch")?),
            "--spec" => args.spec = Some(flags.value("--spec")?),
            "--source" => args.source = Some(flags.value("--source")?),
            "--expect-source-kind" => {
                args.expect_source_kind = Some(flags.value("--expect-source-kind")?)
            }
            "--expect-coalescing" => args.expect_coalescing = true,
            "--json" => args.json = true,
            "--out-dir" => args.out_dir = flags.value("--out-dir")?,
            "--wait-seconds" => args.wait_seconds = flags.seconds("--wait-seconds")?,
            "--max-seconds" => args.max_seconds = Some(flags.parse("--max-seconds", str::parse)?),
            "--check-deterministic" => args.check_deterministic = true,
            "--via-router" => args.via_router = Some(flags.parse("--via-router", str::parse)?),
            "--routers" => args.routers = flags.parse("--routers", str::parse)?,
            "--chaos" => args.chaos = Some(flags.value("--chaos")?),
            "--tables" => args.tables.push(flags.value("--tables")?),
            "--error-budget" => args.error_budget.push(flags.value("--error-budget")?),
            "--idle-timeout" => args.idle_timeout = Some(flags.seconds("--idle-timeout")?),
            other => return Err(cli::unknown(other)),
        }
    }
    let reject = |message: &str| Err(message.to_string());
    match (args.addr.is_empty(), args.via_router) {
        (true, None) => return reject("one of --addr or --via-router is required"),
        (false, Some(_)) => {
            return reject(
                "--addr and --via-router are mutually exclusive (the router is the target)",
            )
        }
        (_, Some(0)) => return reject("--via-router needs at least one upstream"),
        _ => {}
    }
    if args.routers == 0 {
        return reject("--routers must be positive");
    }
    if args.routers > 1 && args.via_router.is_none() {
        return reject("--routers requires --via-router (the loadtest spawns them)");
    }
    if args.chaos.is_some() {
        match args.via_router {
            None => {
                return reject("--chaos requires --via-router (faults apply to spawned children)")
            }
            Some(upstreams) if upstreams < 2 => {
                return reject("--chaos needs --via-router >= 2 so kills leave a survivor")
            }
            _ => {}
        }
    }
    if args.requests == 0 || args.batch == 0 || args.blocks == 0 || args.connections == 0 {
        return reject("--requests, --batch, --blocks, and --connections must be positive");
    }
    Ok(args)
}

/// One spawned child process (a serve upstream or a router) with the
/// address it reported on stdout.
struct ChildProcess {
    #[allow(dead_code)]
    name: String,
    addr: String,
    process: std::process::Child,
    /// Held open so the child never blocks on a closed stdout pipe.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl ChildProcess {
    /// SIGKILL + reap + drop from the panic-hook registry.
    fn kill(&mut self) {
        let pid = self.process.id();
        let _ = self.process.kill();
        let _ = self.process.wait();
        unregister_child(pid);
    }

    /// True while the child has not exited.
    fn alive(&mut self) -> bool {
        matches!(self.process.try_wait(), Ok(None))
    }
}

/// The self-spawned fleet: N serve upstreams plus M routers. Dropping the
/// fleet kills every child, so no run leaves orphans behind.
struct Fleet {
    upstreams: Vec<ChildProcess>,
    routers: Vec<ChildProcess>,
}

impl Fleet {
    fn router_addr(&self) -> &str {
        &self.routers.first().expect("fleet has a router").addr
    }

    /// The upstream to fault next: the ring primary for `preferred` when
    /// that child is still running, else the first upstream still alive.
    fn victim(&mut self, preferred: &str) -> Result<usize, String> {
        let by_addr = self
            .upstreams
            .iter()
            .position(|child| child.addr == preferred);
        if let Some(index) = by_addr {
            if self.upstreams[index].alive() {
                return Ok(index);
            }
        }
        (0..self.upstreams.len())
            .find(|&index| self.upstreams[index].alive())
            .ok_or_else(|| "every upstream is already dead".to_string())
    }

    /// SIGKILLs the upstream serving `addr`. Mid-load chaos: pooled router
    /// connections to it die mid-stream and must fail over.
    fn kill_upstream(&mut self, addr: &str) -> Result<(), String> {
        let child = self
            .upstreams
            .iter_mut()
            .find(|child| child.addr == addr)
            .ok_or_else(|| format!("no spawned upstream listens on {addr}"))?;
        child.kill();
        Ok(())
    }

    /// Kills the router at `addr` and returns the address of a survivor.
    fn kill_router(&mut self, addr: &str) -> Result<String, String> {
        if self.routers.len() < 2 {
            return Err("cannot kill the only router".to_string());
        }
        let index = self
            .routers
            .iter()
            .position(|child| child.addr == addr)
            .ok_or_else(|| format!("no spawned router listens on {addr}"))?;
        let mut child = self.routers.remove(index);
        child.kill();
        Ok(self.routers[0].addr.clone())
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in self.upstreams.iter_mut().chain(self.routers.iter_mut()) {
            child.kill();
        }
    }
}

/// The `http://HOST:PORT` address out of a child's `listening on` line.
fn parse_listening_addr(line: &str) -> Option<String> {
    let start = line.find("http://")? + "http://".len();
    let rest = &line[start..];
    let end = rest.find(|c: char| c.is_whitespace()).unwrap_or(rest.len());
    Some(rest[..end].to_string())
}

/// Spawns one sibling binary (resolved next to this executable), piping
/// stdout and blocking until it reports its listening address. The child's
/// PID is registered for the panic-hook sweep before this returns.
fn spawn_child(binary: &str, child_args: &[String], name: &str) -> Result<ChildProcess, String> {
    let exe = std::env::current_exe()
        .map_err(|error| format!("cannot locate this executable: {error}"))?;
    let path = exe
        .parent()
        .ok_or_else(|| "this executable has no parent directory".to_string())?
        .join(binary);
    if !path.exists() {
        return Err(format!(
            "{} is not built (expected at {}); build it alongside difftune-loadtest",
            binary,
            path.display()
        ));
    }
    let mut process = std::process::Command::new(&path)
        .args(child_args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .map_err(|error| format!("cannot spawn {}: {error}", path.display()))?;
    register_child(process.id());
    let stdout = process.stdout.take().expect("stdout was piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                let pid = process.id();
                let _ = process.kill();
                let _ = process.wait();
                unregister_child(pid);
                return Err(format!("{name} exited before reporting its address"));
            }
            Ok(_) => {
                if let Some(addr) = parse_listening_addr(&line) {
                    eprintln!("[difftune-loadtest] {name} listening on {addr}");
                    return Ok(ChildProcess {
                        name: name.to_string(),
                        addr,
                        process,
                        _stdout: reader,
                    });
                }
            }
            Err(error) => {
                let pid = process.id();
                let _ = process.kill();
                let _ = process.wait();
                unregister_child(pid);
                return Err(format!("cannot read {name} stdout: {error}"));
            }
        }
    }
}

/// Spawns `upstreams` serve children and `args.routers` routers fronting
/// them. `tables` has already been redirected to the chaos scratch copy
/// when the schedule includes a corrupt-reload fault.
fn spawn_fleet(args: &Args, upstreams: usize, tables: &[String]) -> Result<Fleet, String> {
    // A generous self-destruct on every child, so an aborted loadtest can
    // never leave servers running forever.
    let self_destruct = "900".to_string();
    let mut fleet = Fleet {
        upstreams: Vec::with_capacity(upstreams),
        routers: Vec::new(),
    };
    for index in 0..upstreams {
        let mut child_args = vec![
            "--port".to_string(),
            "0".to_string(),
            "--max-seconds".to_string(),
            self_destruct.clone(),
        ];
        for dir in tables {
            child_args.push("--tables".to_string());
            child_args.push(dir.clone());
        }
        for budget in &args.error_budget {
            child_args.push("--error-budget".to_string());
            child_args.push(budget.clone());
        }
        if let Some(timeout) = args.idle_timeout {
            child_args.push("--idle-timeout".to_string());
            child_args.push(timeout.as_secs_f64().to_string());
        }
        fleet.upstreams.push(spawn_child(
            "difftune-serve",
            &child_args,
            &format!("upstream[{index}]"),
        )?);
    }
    for index in 0..args.routers {
        let mut router_args = vec![
            "--port".to_string(),
            "0".to_string(),
            "--max-seconds".to_string(),
            self_destruct.clone(),
        ];
        for upstream in &fleet.upstreams {
            router_args.push("--upstream".to_string());
            router_args.push(upstream.addr.clone());
        }
        if let Some(timeout) = args.idle_timeout {
            router_args.push("--idle-timeout".to_string());
            router_args.push(timeout.as_secs_f64().to_string());
        }
        fleet.routers.push(spawn_child(
            "difftune-router",
            &router_args,
            &format!("router[{index}]"),
        )?);
    }
    Ok(fleet)
}

/// Asks the router (`POST /route`) which upstream is primary for this body.
fn primary_upstream(router_addr: &str, body: &str, wait: Duration) -> Result<String, String> {
    let mut client = HttpClient::connect_with_retry(router_addr, wait)
        .map_err(|error| format!("cannot connect to router {router_addr}: {error}"))?;
    let response = client
        .request("POST", "/route", body.as_bytes())
        .map_err(|error| format!("POST /route failed: {error}"))?;
    if response.status != 200 {
        return Err(format!(
            "POST /route answered {}: {}",
            response.status,
            response.body_text()
        ));
    }
    let value = serde_json::from_str_value(&response.body_text())
        .map_err(|error| format!("/route body is not JSON: {error}"))?;
    value
        .get("primary")
        .and_then(|primary| primary.as_str().map(String::from))
        .ok_or_else(|| format!("/route body has no primary: {}", response.body_text()))
}

/// Builds the deterministic request bodies: `blocks` distinct generated
/// blocks, grouped `batch` at a time, rotating until `requests` bodies exist.
fn request_bodies(args: &Args) -> Vec<String> {
    let generator = BlockGenerator::new(GeneratorConfig::default());
    let mut rng = StdRng::seed_from_u64(args.seed);
    let blocks: Vec<String> = (0..args.blocks)
        .map(|_| generator.generate(&mut rng).to_string())
        .collect();

    (0..args.requests)
        .map(|request| {
            let batch: Vec<Value> = (0..args.batch)
                .map(|i| Value::Str(blocks[(request * args.batch + i) % blocks.len()].clone()))
                .collect();
            let mut map = vec![("blocks".to_string(), Value::Seq(batch))];
            for (field, flag) in [
                ("sim", &args.sim),
                ("uarch", &args.uarch),
                ("spec", &args.spec),
                ("source", &args.source),
            ] {
                if let Some(value) = flag {
                    map.push((field.to_string(), Value::Str(value.clone())));
                }
            }
            serde_json::to_string(&Value::Map(map)).expect("a request body always serializes")
        })
        .collect()
}

/// Runs one closed-loop pass over every request body; returns the response
/// bodies in request order. Without `--collide` the bodies are partitioned
/// round-robin across connections; with it, every connection sends the full
/// sequence in lockstep (a barrier before each send), racing identical
/// requests through the router's singleflight map, and the per-connection
/// response streams must agree byte-for-byte.
fn run_pass(args: &Args, bodies: &[String]) -> Result<Vec<String>, String> {
    if args.collide {
        return run_collide_pass(args, bodies);
    }
    let responses: Vec<Result<Vec<(usize, String)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.connections)
            .map(|connection| {
                scope.spawn(move || {
                    let mut client = HttpClient::connect_with_retry(&args.addr, args.wait_seconds)
                        .map_err(|error| format!("cannot connect to {}: {error}", args.addr))?;
                    let mut collected = Vec::new();
                    for (index, body) in bodies.iter().enumerate() {
                        if index % args.connections != connection {
                            continue;
                        }
                        let response = client
                            .post_json("/predict", body)
                            .map_err(|error| format!("request {index} failed: {error}"))?;
                        if response.status != 200 {
                            return Err(format!(
                                "request {index} answered {}: {}",
                                response.status,
                                response.body_text()
                            ));
                        }
                        collected.push((index, response.body_text()));
                    }
                    Ok(collected)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("loadtest worker panicked"))
            .collect()
    });

    let mut ordered = vec![String::new(); bodies.len()];
    for result in responses {
        for (index, body) in result? {
            ordered[index] = body;
        }
    }
    Ok(ordered)
}

/// The `--collide` pass: C connections each send all bodies, synchronized
/// per request so identical bodies are in flight together.
fn run_collide_pass(args: &Args, bodies: &[String]) -> Result<Vec<String>, String> {
    let barrier = Barrier::new(args.connections);
    let streams: Vec<Result<Vec<String>, String>> = std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = (0..args.connections)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = HttpClient::connect_with_retry(&args.addr, args.wait_seconds)
                        .map_err(|error| format!("cannot connect to {}: {error}", args.addr))?;
                    let mut collected = Vec::with_capacity(bodies.len());
                    for (index, body) in bodies.iter().enumerate() {
                        barrier.wait();
                        let response = client
                            .post_json("/predict", body)
                            .map_err(|error| format!("request {index} failed: {error}"))?;
                        if response.status != 200 {
                            return Err(format!(
                                "request {index} answered {}: {}",
                                response.status,
                                response.body_text()
                            ));
                        }
                        collected.push(response.body_text());
                    }
                    Ok(collected)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("loadtest worker panicked"))
            .collect()
    });
    let mut first: Option<Vec<String>> = None;
    for stream in streams {
        let stream = stream?;
        match &first {
            None => first = Some(stream),
            Some(reference) => {
                for (index, (a, b)) in reference.iter().zip(&stream).enumerate() {
                    if a != b {
                        return Err(format!(
                            "COALESCING DIVERGENCE: request {index} differs between colliding \
                             connections:\n  {a}\n  {b}"
                        ));
                    }
                }
            }
        }
    }
    Ok(first.expect("at least one connection"))
}

/// Recursively copies `from` into `to` (used to build a corruptible scratch
/// copy of the table dirs, so chaos never touches the user's artifacts).
fn copy_dir_recursive(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to)
        .map_err(|error| format!("cannot create {}: {error}", to.display()))?;
    let entries = std::fs::read_dir(from)
        .map_err(|error| format!("cannot read {}: {error}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|error| format!("cannot list {}: {error}", from.display()))?;
        let source = entry.path();
        let target = to.join(entry.file_name());
        let kind = entry
            .file_type()
            .map_err(|error| format!("cannot stat {}: {error}", source.display()))?;
        if kind.is_dir() {
            copy_dir_recursive(&source, &target)?;
        } else {
            std::fs::copy(&source, &target)
                .map_err(|error| format!("cannot copy {}: {error}", source.display()))?;
        }
    }
    Ok(())
}

/// Overwrites every regular file under `dir` with garbage, so the next
/// strict reload must refuse the artifacts and keep the old registry.
fn corrupt_dir(dir: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|error| format!("cannot read {}: {error}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|error| format!("cannot list {}: {error}", dir.display()))?;
        let path = entry.path();
        let kind = entry
            .file_type()
            .map_err(|error| format!("cannot stat {}: {error}", path.display()))?;
        if kind.is_dir() {
            corrupt_dir(&path)?;
        } else {
            std::fs::write(&path, b"this is not a difftune artifact")
                .map_err(|error| format!("cannot corrupt {}: {error}", path.display()))?;
        }
    }
    Ok(())
}

/// Applies one scheduled fault to the running fleet. `stalled` carries a
/// SIGSTOPped child's PID until the next schedule boundary SIGCONTs it.
fn apply_fault(
    fault: &Fault,
    args: &mut Args,
    fleet: &mut Fleet,
    bodies: &[String],
    stalled: &mut Option<u32>,
    scratch_tables: &[String],
) -> Result<(), String> {
    let wait = args.wait_seconds;
    match fault.kind {
        FaultKind::KillUpstream => {
            let preferred = primary_upstream(&args.addr, &bodies[0], wait)?;
            let victim = fleet.victim(&preferred)?;
            let addr = fleet.upstreams[victim].addr.clone();
            fleet.kill_upstream(&addr)?;
            eprintln!(
                "[difftune-loadtest] chaos: killed upstream {addr} after request {}",
                fault.at_request
            );
        }
        FaultKind::StallUpstream => {
            let preferred = primary_upstream(&args.addr, &bodies[0], wait)?;
            let victim = fleet.victim(&preferred)?;
            let pid = fleet.upstreams[victim].process.id();
            signal_child(pid, "STOP")?;
            *stalled = Some(pid);
            eprintln!(
                "[difftune-loadtest] chaos: stalled upstream {} (SIGSTOP) after request {}",
                fleet.upstreams[victim].addr, fault.at_request
            );
        }
        FaultKind::CorruptReload => {
            for dir in scratch_tables {
                corrupt_dir(Path::new(dir))?;
            }
            let mut client = HttpClient::connect_with_retry(&args.addr, wait)
                .map_err(|error| format!("cannot connect to {}: {error}", args.addr))?;
            let response = client
                .request("POST", "/reload", b"")
                .map_err(|error| format!("POST /reload failed: {error}"))?;
            // With corrupted artifacts a strict reload refuses and the old
            // registry keeps serving; without table dirs this is a clean
            // registry rebuild under load. Either way the responses after
            // this boundary must stay byte-identical to the baseline.
            eprintln!(
                "[difftune-loadtest] chaos: corrupt-artifact reload after request {} \
                 (router answered {})",
                fault.at_request, response.status
            );
        }
        FaultKind::Rollout => {
            let mut client = HttpClient::connect_with_retry(&args.addr, wait)
                .map_err(|error| format!("cannot connect to {}: {error}", args.addr))?;
            let response = client
                .request("POST", "/rollout", b"")
                .map_err(|error| format!("POST /rollout failed: {error}"))?;
            // Reload-mode rollouts only succeed when the upstreams can
            // rebuild their registries; after a corrupt fault the rollout
            // must *abort* and leave the fleet serving, so any status is
            // legal — the baseline comparison is the real assertion.
            eprintln!(
                "[difftune-loadtest] chaos: rollout after request {} (router answered {}: {})",
                fault.at_request,
                response.status,
                response.body_text()
            );
        }
        FaultKind::KillRouter => {
            let dead = args.addr.clone();
            args.addr = fleet.kill_router(&dead)?;
            eprintln!(
                "[difftune-loadtest] chaos: killed router {dead} after request {}; moving to {}",
                fault.at_request, args.addr
            );
        }
    }
    Ok(())
}

/// Replays the request sequence with the schedule's faults injected at
/// their request boundaries; returns the responses in request order.
fn run_chaos_pass(
    args: &mut Args,
    bodies: &[String],
    schedule: &ChaosSchedule,
    fleet: &mut Fleet,
    scratch_tables: &[String],
) -> Result<Vec<String>, String> {
    let mut responses = Vec::with_capacity(bodies.len());
    let mut next = 0usize;
    let mut stalled: Option<u32> = None;
    for fault in &schedule.faults {
        let boundary = (fault.at_request + 1).min(bodies.len());
        if boundary > next {
            responses.extend(run_pass(args, &bodies[next..boundary])?);
            next = boundary;
        }
        // A stalled upstream wakes at the next boundary: the stall was a
        // transient, not a death, and the fleet must absorb its return too.
        if let Some(pid) = stalled.take() {
            signal_child(pid, "CONT")?;
            eprintln!("[difftune-loadtest] chaos: resumed stalled upstream (SIGCONT)");
        }
        apply_fault(fault, args, fleet, bodies, &mut stalled, scratch_tables)?;
    }
    if next < bodies.len() {
        responses.extend(run_pass(args, &bodies[next..])?);
    }
    if let Some(pid) = stalled.take() {
        signal_child(pid, "CONT")?;
        eprintln!("[difftune-loadtest] chaos: resumed stalled upstream (SIGCONT)");
    }
    Ok(responses)
}

/// Scrapes the target's `/metrics` for `difftune_router_coalesced_total`.
fn scrape_coalesced_total(addr: &str, wait: Duration) -> Result<u64, String> {
    let mut client = HttpClient::connect_with_retry(addr, wait)
        .map_err(|error| format!("cannot connect to {addr}: {error}"))?;
    let response = client
        .get("/metrics")
        .map_err(|error| format!("GET /metrics failed: {error}"))?;
    if response.status != 200 {
        return Err(format!("GET /metrics answered {}", response.status));
    }
    for line in response.body_text().lines() {
        if let Some(value) = line.strip_prefix("difftune_router_coalesced_total ") {
            return value
                .trim()
                .parse()
                .map_err(|_| format!("unparseable coalesced_total value {value:?}"));
        }
    }
    Err("the target exports no difftune_router_coalesced_total (is it a router?)".to_string())
}

fn main() {
    // A panicking worker thread (failed assertion, poisoned lock) must not
    // leak the spawned fleet; neither must an error return. Ctrl-C needs no
    // hook: the terminal delivers SIGINT to the whole process group, children
    // included.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        kill_registered_children();
        default_hook(info);
    }));
    if let Err(error) = run() {
        eprintln!("difftune-loadtest: {error}");
        kill_registered_children();
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let mut args = cli::parse_env(USAGE, parse_args);
    let bodies = request_bodies(&args);
    let wait = args.wait_seconds;

    // Parse the chaos schedule before spawning anything: a bad spec should
    // fail fast, and a corrupt fault redirects the fleet's table dirs to a
    // disposable scratch copy.
    let schedule = match &args.chaos {
        Some(spec) => Some(ChaosSchedule::parse(
            spec,
            args.requests,
            args.routers >= 2,
        )?),
        None => None,
    };
    let needs_scratch = schedule.as_ref().is_some_and(|schedule| {
        schedule
            .faults
            .iter()
            .any(|fault| fault.kind == FaultKind::CorruptReload)
    }) && !args.tables.is_empty();
    let mut scratch_root: Option<PathBuf> = None;
    let mut fleet_tables = args.tables.clone();
    if needs_scratch {
        let root = Path::new(&args.out_dir).join(format!("chaos-scratch-{}", std::process::id()));
        let mut copies = Vec::with_capacity(args.tables.len());
        for (index, dir) in args.tables.iter().enumerate() {
            let copy = root.join(format!("tables-{index}"));
            copy_dir_recursive(Path::new(dir), &copy)?;
            copies.push(copy.to_string_lossy().into_owned());
        }
        fleet_tables = copies;
        scratch_root = Some(root);
    }

    // Chaos mode: spawn the fleet and point the loadtest at a router.
    let mut fleet = match args.via_router {
        Some(upstreams) => {
            let fleet = spawn_fleet(&args, upstreams, &fleet_tables)?;
            args.addr = fleet.router_addr().to_string();
            Some(fleet)
        }
        None => None,
    };

    // Readiness probe before the clock starts: the BENCH record (and the
    // --max-seconds tripwire) measure serving, not how long a freshly
    // spawned server takes to start accepting.
    HttpClient::connect_with_retry(&args.addr, wait)
        .map_err(|error| format!("cannot connect to {}: {error}", args.addr))?;
    let started = Instant::now();

    // The first pass, in one of two shapes: a scripted chaos schedule
    // (clean baseline, then the same requests with faults injected) or a
    // plain closed loop. Whatever mix of pre-fault and post-fault responses
    // comes back is what determinism is asserted against.
    let first_pass = if let Some(schedule) = &schedule {
        eprintln!("[difftune-loadtest] chaos schedule: {}", schedule.spec);
        let baseline =
            run_pass(&args, &bodies).map_err(|error| format!("baseline pass: {error}"))?;
        let fleet = fleet.as_mut().expect("--chaos implies a fleet");
        let chaos_pass = run_chaos_pass(&mut args, &bodies, schedule, fleet, &fleet_tables)
            .map_err(|error| format!("chaos pass: {error}"))?;
        for (index, (clean, faulted)) in baseline.iter().zip(&chaos_pass).enumerate() {
            if clean != faulted {
                return Err(format!(
                    "CHAOS DIVERGENCE: request {index} differs from the fault-free baseline \
                     under schedule {}:\n  baseline: {clean}\n  chaos:    {faulted}",
                    schedule.spec
                ));
            }
        }
        outln!(
            "difftune-loadtest: chaos schedule [{}] replayed; all {} responses byte-identical \
             to the fault-free baseline",
            schedule.spec,
            chaos_pass.len()
        );
        chaos_pass
    } else {
        run_pass(&args, &bodies)?
    };
    let first_elapsed = started.elapsed().as_secs_f64();
    let samples = args.requests * args.batch * if args.collide { args.connections } else { 1 };
    outln!(
        "difftune-loadtest: {} requests ({samples} blocks) over {} connection(s){} in {:.3}s \
         ({:.0} blocks/s){}",
        args.requests,
        args.connections,
        if args.collide { " [colliding]" } else { "" },
        first_elapsed,
        samples as f64 / first_elapsed.max(1e-9),
        if args.via_router.is_some() {
            " via router"
        } else {
            ""
        },
    );

    if args.expect_coalescing {
        // Scrape before teardown: the router dies with the loadtest, so the
        // counter is only observable now.
        let coalesced = scrape_coalesced_total(&args.addr, wait)?;
        if coalesced == 0 {
            return Err(
                "COALESCING MISS: difftune_router_coalesced_total is 0 after a colliding pass"
                    .to_string(),
            );
        }
        outln!("difftune-loadtest: router coalesced {coalesced} request(s)");
    }

    if let Some(expected) = &args.expect_source_kind {
        // Tier assertion for policy backends: every response must have been
        // answered from the expected tier family ("table" or "surrogate").
        for (index, body) in first_pass.iter().enumerate() {
            let kind = serde_json::from_str_value(body).ok().and_then(|value| {
                value
                    .get("source_kind")
                    .and_then(|k| k.as_str().map(String::from))
            });
            if kind.as_deref() != Some(expected.as_str()) {
                return Err(format!(
                    "SOURCE KIND MISMATCH: request {index} expected source_kind {expected:?}, \
                     got: {body}"
                ));
            }
        }
        outln!(
            "difftune-loadtest: all {} responses answered with source_kind {expected:?}",
            first_pass.len()
        );
    }

    if args.check_deterministic {
        // Replay the identical sequence against the now-warm (and, after
        // faults, degraded) fleet: every body must come back byte-identical.
        let second_pass =
            run_pass(&args, &bodies).map_err(|error| format!("replay pass: {error}"))?;
        for (index, (first, second)) in first_pass.iter().zip(&second_pass).enumerate() {
            if first != second {
                return Err(format!(
                    "DETERMINISM VIOLATION: request {index} diverged between cold and warm \
                     passes:\n  cold: {first}\n  warm: {second}"
                ));
            }
        }
        outln!(
            "difftune-loadtest: replay pass byte-identical across {} responses",
            first_pass.len()
        );
    }

    if args.json {
        let threads = args.connections;
        let (record, file_name) = if args.via_router.is_some() {
            // Stage `route`; the artifact keeps the conventional CI name.
            (
                BenchRecord::route(threads, args.seed, first_elapsed, samples),
                "BENCH_router.json".to_string(),
            )
        } else {
            let record = BenchRecord::serve(threads, args.seed, first_elapsed, samples);
            let file_name = record.file_name();
            (record, file_name)
        };
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|error| format!("cannot create {}: {error}", args.out_dir))?;
        let path = Path::new(&args.out_dir).join(file_name);
        std::fs::write(&path, record.to_json())
            .map_err(|error| format!("cannot write {}: {error}", path.display()))?;
        outln!("difftune-loadtest: wrote {}", path.display());
    }

    if let Some(ceiling) = args.max_seconds {
        let total = started.elapsed().as_secs_f64();
        if total > ceiling {
            return Err(format!(
                "PERF CEILING EXCEEDED: the loadtest took {total:.2}s, over the {ceiling:.2}s \
                 ceiling"
            ));
        }
    }
    // The fleet (if any) is killed on drop; the scratch copy is disposable.
    drop(fleet);
    if let Some(root) = scratch_root {
        let _ = std::fs::remove_dir_all(root);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&mut Flags::new(line.split_whitespace()))
    }

    /// The command lines CI and the README run the loadtest with.
    #[test]
    fn known_command_lines_parse_to_their_values() {
        // CI's serve-smoke job.
        let args = parse(
            "--addr 127.0.0.1:8117 --requests 64 --batch 4 --blocks 32 --connections 4 \
             --sim mca --uarch haswell --spec llvm_mca --source matrix \
             --check-deterministic --json --out-dir serve-out --wait-seconds 60 --max-seconds 120",
        )
        .unwrap();
        assert_eq!(args.addr, "127.0.0.1:8117");
        assert_eq!(
            (args.requests, args.batch, args.blocks, args.connections),
            (64, 4, 32, 4)
        );
        assert_eq!(args.sim.as_deref(), Some("mca"));
        assert_eq!(args.uarch.as_deref(), Some("haswell"));
        assert_eq!(args.spec.as_deref(), Some("llvm_mca"));
        assert_eq!(args.source.as_deref(), Some("matrix"));
        assert!(args.check_deterministic && args.json);
        assert_eq!(args.out_dir, "serve-out");
        assert_eq!(args.wait_seconds, Duration::from_secs(60));
        assert_eq!(args.max_seconds, Some(120.0));
        assert_eq!((args.seed, args.via_router, args.routers), (0, None, 1));
        assert!(!args.collide && !args.expect_coalescing);
        assert!(args.chaos.is_none() && args.tables.is_empty() && args.idle_timeout.is_none());

        // Its default-source leg, with the defaults it leaves alone.
        let args = parse(
            "--addr 127.0.0.1:8117 --requests 32 --batch 4 --blocks 16 --source default \
             --check-deterministic --wait-seconds 30 --max-seconds 120",
        )
        .unwrap();
        assert_eq!(
            (args.requests, args.batch, args.blocks, args.connections),
            (32, 4, 16, 1)
        );
        assert_eq!(args.out_dir, ".");
        assert!(!args.json);
        assert_eq!(args.wait_seconds, Duration::from_secs(30));

        // CI's surrogate-smoke policy leg.
        let args = parse(
            "--addr 127.0.0.1:8118 --requests 256 --batch 32 --blocks 8192 --connections 4 \
             --sim uop --uarch haswell --spec llvm_sim --source policy \
             --expect-source-kind surrogate --check-deterministic --json --out-dir policy-out \
             --wait-seconds 60 --max-seconds 120",
        )
        .unwrap();
        assert_eq!(args.expect_source_kind.as_deref(), Some("surrogate"));
        assert_eq!((args.batch, args.blocks), (32, 8192));

        // CI's fleet-smoke legs.
        let args = parse(
            "--via-router 3 --routers 2 --tables matrix-out --chaos kill@16,rollout@32 \
             --requests 64 --batch 4 --blocks 32 --connections 4 \
             --sim mca --uarch haswell --spec llvm_mca --source matrix \
             --check-deterministic --json --out-dir router-out --wait-seconds 60 --max-seconds 180",
        )
        .unwrap();
        assert!(args.addr.is_empty());
        assert_eq!((args.via_router, args.routers), (Some(3), 2));
        assert_eq!(args.tables, ["matrix-out"]);
        assert_eq!(args.chaos.as_deref(), Some("kill@16,rollout@32"));
        assert_eq!(args.max_seconds, Some(180.0));
        let args = parse(
            "--via-router 2 --tables matrix-out --collide --expect-coalescing \
             --requests 32 --batch 4 --blocks 32 --connections 4 \
             --sim mca --uarch haswell --spec llvm_mca --source matrix \
             --check-deterministic --json --out-dir collide-out --wait-seconds 60 --max-seconds 120",
        )
        .unwrap();
        assert!(args.collide && args.expect_coalescing);
        assert_eq!((args.via_router, args.routers), (Some(2), 1));

        // The README's chaos example, with the upstream flags it forwards.
        let args = parse(
            "--via-router 3 --routers 2 --tables matrix-out --chaos kill@16,rollout@32 \
             --requests 64 --source matrix --check-deterministic --json --out-dir router-out \
             --error-budget 0.05 --error-budget mca:haswell:llvm_mca=1 --idle-timeout 0.5 \
             --seed 7",
        )
        .unwrap();
        assert_eq!(args.error_budget, ["0.05", "mca:haswell:llvm_mca=1"]);
        assert_eq!(args.idle_timeout, Some(Duration::from_millis(500)));
        assert_eq!(args.seed, 7);
        assert_eq!(args.wait_seconds, Duration::from_secs(30));
    }

    #[test]
    fn bad_values_and_combinations_are_rejected() {
        for (line, flag) in [
            ("--addr a:1 --seed x", "--seed \"x\": "),
            ("--addr a:1 --wait-seconds -1", "--wait-seconds \"-1\": "),
            ("--addr a:1 --idle-timeout inf", "--idle-timeout \"inf\": "),
            ("--addr a:1 --max-seconds soon", "--max-seconds \"soon\": "),
            ("--addr a:1 --requests -4", "--requests \"-4\": "),
        ] {
            let error = parse(line).unwrap_err();
            assert!(error.starts_with(flag), "{error}");
        }
        for (line, message) in [
            ("--requests 4", "one of --addr or --via-router is required"),
            ("--addr a:1 --via-router 2", "mutually exclusive"),
            ("--via-router 0", "at least one upstream"),
            ("--addr a:1 --routers 2", "--routers requires --via-router"),
            ("--via-router 1 --chaos kill@1", "--via-router >= 2"),
            ("--addr a:1 --chaos kill@1", "--chaos requires --via-router"),
            ("--addr a:1 --batch 0", "must be positive"),
        ] {
            let error = parse(line).unwrap_err();
            assert!(error.contains(message), "{line}: {error}");
        }
    }
}
