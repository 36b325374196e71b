//! `difftune-serve` — the prediction server binary.
//!
//! Loads backends (expert defaults plus any `--tables` matrix directories
//! and `--checkpoint` session snapshots) and serves `POST /predict`,
//! `POST /reload`, `POST /drain`, `GET /healthz`, `GET /metrics`, and
//! `GET /backends` until interrupted (or until `--max-seconds`, the CI
//! self-stop, or a `POST /drain` completes — a drained process exits 0).
//!
//! ```text
//! difftune-serve [--addr A] [--port P] [--tables DIR]...
//!                [--checkpoint SIM:UARCH:SPEC=PATH]... [--no-defaults]
//!                [--error-budget MAPE | SIM:UARCH:SPEC=MAPE]...
//!                [--shards N] [--cache-capacity N]
//!                [--max-seconds S] [--idle-timeout S]
//!                [--max-requests-per-connection N] [--list-backends]
//! ```
//!
//! `--shards N` sets the number of cache stripes and of the worker threads
//! that answer their misses (cache hits are answered on the connection
//! thread). It defaults to `DIFFTUNE_THREADS` (unset = all cores), mirroring
//! the training binaries; shard count and cache state never change response
//! bytes, only latency. `POST /reload` rescans exactly the `--tables` and
//! `--checkpoint` locations given here, under strict verification.

use std::time::{Duration, Instant};

use difftune_bench::matrix::CellKey;
use difftune_serve::backend::{BackendRegistry, ReloadSpec};
use difftune_serve::server::{spawn, ServeConfig};

struct Args {
    addr: String,
    port: u16,
    tables: Vec<String>,
    checkpoints: Vec<(CellKey, String)>,
    no_defaults: bool,
    error_budget: f64,
    cell_budgets: Vec<(String, f64)>,
    shards: Option<usize>,
    cache_capacity: Option<usize>,
    max_seconds: Option<f64>,
    idle_timeout: Option<f64>,
    max_requests_per_connection: usize,
    list_backends: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: difftune-serve [--addr A] [--port P] [--tables DIR]... \
         [--checkpoint SIM:UARCH:SPEC=PATH]... [--no-defaults] \
         [--error-budget MAPE | SIM:UARCH:SPEC=MAPE]... [--shards N] \
         [--cache-capacity N] [--max-seconds S] [--idle-timeout S] \
         [--max-requests-per-connection N] [--list-backends]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1".to_string(),
        port: 8117,
        tables: Vec::new(),
        checkpoints: Vec::new(),
        no_defaults: false,
        error_budget: 0.0,
        cell_budgets: Vec::new(),
        shards: None,
        cache_capacity: None,
        max_seconds: None,
        idle_timeout: None,
        max_requests_per_connection: 0,
        list_backends: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| -> String {
            iter.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--port" => {
                let raw = value("--port");
                args.port = raw.parse().unwrap_or_else(|_| {
                    eprintln!("--port must be a port number, got {raw:?}");
                    usage()
                });
            }
            "--tables" => args.tables.push(value("--tables")),
            "--checkpoint" => {
                let raw = value("--checkpoint");
                let Some((cell, path)) = raw.split_once('=') else {
                    eprintln!("--checkpoint expects SIM:UARCH:SPEC=PATH, got {raw:?}");
                    usage()
                };
                match CellKey::parse(cell) {
                    Ok(key) => args.checkpoints.push((key, path.to_string())),
                    Err(error) => {
                        eprintln!("--checkpoint {raw:?}: {error}");
                        usage()
                    }
                }
            }
            "--no-defaults" => args.no_defaults = true,
            "--error-budget" => {
                // Repeatable: a bare number sets the global budget; a
                // `SIM:UARCH:SPEC=BUDGET` pair overrides one cell. Cells
                // without an override fall back to the global value.
                let raw = value("--error-budget");
                let (cell, number) = match raw.split_once('=') {
                    Some((cell, number)) => (Some(cell), number),
                    None => (None, raw.as_str()),
                };
                let budget: f64 = number.parse().unwrap_or_else(|_| {
                    eprintln!("--error-budget must be numeric MAPE percent, got {raw:?}");
                    usage()
                });
                if budget < 0.0 || budget.is_nan() {
                    eprintln!("--error-budget must be non-negative, got {raw:?}");
                    usage()
                }
                match cell {
                    None => args.error_budget = budget,
                    Some(cell) => match CellKey::parse(cell) {
                        Ok(key) => args.cell_budgets.push((key.id(), budget)),
                        Err(error) => {
                            eprintln!("--error-budget {raw:?}: {error}");
                            usage()
                        }
                    },
                }
            }
            "--shards" => {
                let raw = value("--shards");
                args.shards = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!("--shards must be an unsigned integer, got {raw:?}");
                    usage()
                }));
            }
            "--cache-capacity" => {
                let raw = value("--cache-capacity");
                args.cache_capacity = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!("--cache-capacity must be an unsigned integer, got {raw:?}");
                    usage()
                }));
            }
            "--max-seconds" => {
                let raw = value("--max-seconds");
                args.max_seconds = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!("--max-seconds must be numeric, got {raw:?}");
                    usage()
                }));
            }
            "--idle-timeout" => {
                let raw = value("--idle-timeout");
                let seconds: f64 = raw.parse().unwrap_or_else(|_| {
                    eprintln!("--idle-timeout must be numeric seconds, got {raw:?}");
                    usage()
                });
                if seconds <= 0.0 || seconds.is_nan() {
                    eprintln!("--idle-timeout must be positive, got {raw:?}");
                    usage()
                }
                args.idle_timeout = Some(seconds);
            }
            "--max-requests-per-connection" => {
                let raw = value("--max-requests-per-connection");
                args.max_requests_per_connection = raw.parse().unwrap_or_else(|_| {
                    eprintln!(
                        "--max-requests-per-connection must be an unsigned integer, got {raw:?}"
                    );
                    usage()
                });
            }
            "--list-backends" => args.list_backends = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();

    // The startup spec doubles as the `POST /reload` rescan spec: a reload
    // re-reads exactly these locations under strict verification.
    let reload_spec = ReloadSpec {
        defaults: !args.no_defaults,
        table_dirs: args.tables.iter().map(std::path::PathBuf::from).collect(),
        checkpoints: args
            .checkpoints
            .iter()
            .map(|(key, path)| (*key, std::path::PathBuf::from(path)))
            .collect(),
        error_budget: args.error_budget,
        cell_budgets: args.cell_budgets.clone(),
    };

    let mut registry = if args.no_defaults {
        BackendRegistry::new()
    } else {
        BackendRegistry::with_defaults()
    };
    registry.set_error_budget(args.error_budget);
    for (cell, budget) in &args.cell_budgets {
        registry.set_cell_budget(cell, *budget);
    }
    for dir in &args.tables {
        match registry.add_matrix_dir(std::path::Path::new(dir)) {
            Ok(added) => {
                eprintln!("[difftune-serve] loaded {added} matrix/surrogate backend(s) from {dir}");
            }
            Err(error) => {
                eprintln!("difftune-serve: {error}");
                std::process::exit(1);
            }
        }
    }
    for (key, path) in &args.checkpoints {
        if let Err(error) = registry.add_checkpoint(key, std::path::Path::new(path)) {
            eprintln!("difftune-serve: {error}");
            std::process::exit(1);
        }
        eprintln!("[difftune-serve] loaded checkpoint backend checkpoint:{key}");
    }
    for warning in registry.warnings() {
        eprintln!("[difftune-serve] warning: {warning}");
    }
    if registry.is_empty() {
        eprintln!("difftune-serve: no backends to serve (--no-defaults with nothing loaded)");
        std::process::exit(1);
    }

    if args.list_backends {
        for (id, kind, fingerprint) in registry.entries() {
            println!("{id}\t{kind}\t{fingerprint}");
        }
        return;
    }

    // Shard count: --shards wins, then DIFFTUNE_THREADS, then all cores.
    let shards = match args.shards {
        Some(n) => n,
        None => difftune::threads_from_env().unwrap_or_else(|error| {
            eprintln!("{error}");
            std::process::exit(2);
        }),
    };

    let config = ServeConfig {
        addr: args.addr.clone(),
        port: args.port,
        shards,
        cache_capacity: args.cache_capacity.unwrap_or(4096),
        read_timeout: args
            .idle_timeout
            .map(Duration::from_secs_f64)
            .unwrap_or_else(|| ServeConfig::default().read_timeout),
        max_requests_per_connection: args.max_requests_per_connection,
        reload_spec: Some(reload_spec),
        ..ServeConfig::default()
    };
    let backends = registry.len();
    let handle = spawn(config, registry).unwrap_or_else(|error| {
        eprintln!(
            "difftune-serve: cannot bind {}:{}: {error}",
            args.addr, args.port
        );
        std::process::exit(1);
    });
    println!(
        "difftune-serve listening on http://{} ({backends} backends)",
        handle.addr()
    );

    // Serve until killed, drained, or the --max-seconds CI tripwire.
    let deadline = args
        .max_seconds
        .map(|seconds| Instant::now() + Duration::from_secs_f64(seconds.max(0.0)));
    loop {
        std::thread::sleep(Duration::from_millis(100));
        if handle.drain_requested() {
            eprintln!("[difftune-serve] drain requested; finishing in-flight connections");
            handle.shutdown();
            eprintln!("[difftune-serve] drained");
            std::process::exit(0);
        }
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            eprintln!("[difftune-serve] --max-seconds reached; shutting down");
            handle.shutdown();
            return;
        }
    }
}
