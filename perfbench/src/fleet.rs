//! Child processes (`difftune-serve`, `difftune-router`) and what the
//! benchmark reads about them from outside: `/healthz`, `/metrics`, and
//! `/proc`.
//!
//! Every spawned child lives in a process-wide registry until it is killed,
//! so the panic hook and every exit path of `main` can sweep it: a failed run
//! never leaves servers behind to perturb the next one. Each child also gets
//! a `--max-seconds` self-stop as the last line of defence.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use difftune_serve::client::HttpClient;

/// Self-stop for children, far beyond any run's length.
const CHILD_MAX_SECONDS: &str = "600";
/// How long a child may take to start answering `/healthz`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

type Entry = (Child, Option<BufReader<ChildStdout>>);

/// Every live child, with its stdout pipe once the listening line is read
/// (held open so the child never writes into a closed pipe).
static CHILDREN: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

fn registry() -> MutexGuard<'static, Vec<Entry>> {
    // A panic while the lock was held must not stop the sweep.
    CHILDREN
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Kills and reaps every registered child.
pub fn kill_registered_children() {
    for (mut child, _) in std::mem::take(&mut *registry()) {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Kills and reaps one child.
pub fn kill(pid: u32) {
    let entry = {
        let mut children = registry();
        let index = children.iter().position(|(child, _)| child.id() == pid);
        index.map(|index| children.remove(index))
    };
    if let Some((mut child, _)) = entry {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// A running child: its PID and the address it listens on.
#[derive(Debug, Clone)]
pub struct Proc {
    pub pid: u32,
    pub addr: String,
}

/// Starts `binary` with `args` and returns once it has printed its
/// `listening on http://ADDR` line.
fn spawn(binary: &Path, args: &[String]) -> Result<Proc, String> {
    let mut child = Command::new(binary)
        .args(args)
        .args(["--port", "0", "--max-seconds", CHILD_MAX_SECONDS])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|error| format!("cannot start {}: {error}", binary.display()))?;
    let pid = child.id();
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    registry().push((child, None));
    let mut line = String::new();
    let read = stdout.read_line(&mut line);
    if let Some(entry) = registry().iter_mut().find(|(child, _)| child.id() == pid) {
        entry.1 = Some(stdout);
    }
    let addr = read
        .ok()
        .and_then(|_| line.split("http://").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .map(str::to_string);
    addr.map(|addr| Proc { pid, addr }).ok_or_else(|| {
        kill(pid);
        format!(
            "{} did not report a listening address (got {line:?})",
            binary.display()
        )
    })
}

/// Polls `GET path` until it answers 200.
pub fn wait_ready(addr: &str, path: &str) -> Result<(), String> {
    let deadline = Instant::now() + READY_TIMEOUT;
    loop {
        let ok = HttpClient::connect(addr)
            .and_then(|mut client| client.get(path))
            .is_ok_and(|response| response.status == 200);
        if ok {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "{addr}{path} did not answer 200 within {READY_TIMEOUT:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Starts a `difftune-serve` and waits for its `/healthz`.
pub fn spawn_serve(bins: &Path, args: &[String]) -> Result<Proc, String> {
    let proc = spawn(&bins.join("difftune-serve"), args)?;
    wait_ready(&proc.addr, "/healthz")?;
    Ok(proc)
}

/// Starts a `difftune-router` over `upstreams` and waits until it is
/// healthy and has learned every upstream's backends.
pub fn spawn_router(bins: &Path, upstreams: &[Proc]) -> Result<Proc, String> {
    let mut args = Vec::new();
    for upstream in upstreams {
        args.push("--upstream".to_string());
        args.push(upstream.addr.clone());
    }
    let proc = spawn(&bins.join("difftune-router"), &args)?;
    wait_ready(&proc.addr, "/healthz")?;
    // `/backends` folds every upstream's list into the routing universe.
    wait_ready(&proc.addr, "/backends")?;
    Ok(proc)
}

/// `GET path` once, returning the body of a 200.
pub fn get(addr: &str, path: &str) -> Result<String, String> {
    let response = HttpClient::connect(addr)
        .and_then(|mut client| client.get(path))
        .map_err(|error| format!("GET {addr}{path}: {error}"))?;
    if response.status != 200 {
        return Err(format!("GET {addr}{path} answered {}", response.status));
    }
    Ok(response.body_text())
}

/// `POST path` with a JSON body once, returning the body of a 200.
pub fn post(addr: &str, path: &str, body: &str) -> Result<String, String> {
    let response = HttpClient::connect(addr)
        .and_then(|mut client| client.post_json(path, body))
        .map_err(|error| format!("POST {addr}{path}: {error}"))?;
    if response.status != 200 {
        return Err(format!("POST {addr}{path} answered {}", response.status));
    }
    Ok(response.body_text())
}

/// Every sample of a Prometheus text exposition, by series.
pub fn scrape(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    Ok(get(addr, "/metrics")?
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// The change of one series between two scrapes.
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, series: &str) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}

/// Clock ticks per second for `/proc` CPU times.
fn clock_ticks() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|text| text.trim().parse().ok())
            .unwrap_or(100.0)
    })
}

/// User + system CPU seconds from a `/proc/.../stat` file.
fn stat_cpu_s(path: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / clock_ticks())
}

/// A process's CPU seconds, all threads (live and exited) included.
pub fn process_cpu_s(pid: u32) -> f64 {
    stat_cpu_s(&format!("/proc/{pid}/stat")).unwrap_or(0.0)
}

/// CPU seconds of a serve child's shard workers. Thread names are truncated
/// to `difftune-serve-`, so the shards are found by creation order instead:
/// `spawn` starts them before the acceptor, so they are the `shards` oldest
/// threads after the main one.
pub fn shard_cpu_s(pid: u32, shards: usize) -> Vec<f64> {
    let mut tids: Vec<u32> = std::fs::read_dir(format!("/proc/{pid}/task"))
        .map(|entries| {
            entries
                .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
                .filter(|&tid| tid != pid)
                .collect()
        })
        .unwrap_or_default();
    tids.sort_unstable();
    tids.iter()
        .take(shards)
        .map(|tid| stat_cpu_s(&format!("/proc/{pid}/task/{tid}/stat")).unwrap_or(0.0))
        .collect()
}

/// Peak resident set (`VmHWM`) in MB; `pid` may be `self`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
