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

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use difftune_bench::cli::{self, Flags};
use difftune_bench::matrix::CellKey;
use difftune_bench::outln;
use difftune_serve::backend::{BackendRegistry, ReloadSpec};
use difftune_serve::server::{spawn, ServeConfig};

const USAGE: &str = "usage: difftune-serve [--addr A] [--port P] [--tables DIR]... \
     [--checkpoint SIM:UARCH:SPEC=PATH]... [--no-defaults] \
     [--error-budget MAPE | SIM:UARCH:SPEC=MAPE]... [--shards N] \
     [--cache-capacity N] [--max-seconds S] [--idle-timeout S] \
     [--max-requests-per-connection N] [--list-backends]";

#[derive(Debug)]
struct Args {
    addr: String,
    port: u16,
    /// The `--tables`, `--checkpoint`, `--no-defaults` and `--error-budget`
    /// flags: the startup load and every `POST /reload` rescan.
    spec: ReloadSpec,
    shards: Option<usize>,
    cache_capacity: usize,
    max_seconds: Option<Duration>,
    idle_timeout: Duration,
    max_requests_per_connection: usize,
    list_backends: bool,
}

/// An `--error-budget` MAPE: a non-negative number.
fn budget(raw: &str) -> Result<f64, &'static str> {
    match raw.parse::<f64>() {
        Ok(budget) if budget >= 0.0 => Ok(budget),
        _ => Err("expected a non-negative MAPE"),
    }
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let defaults = ServeConfig::default();
    let mut args = Args {
        addr: "127.0.0.1".to_string(),
        port: 8117,
        spec: ReloadSpec {
            defaults: true,
            ..ReloadSpec::default()
        },
        shards: None,
        cache_capacity: defaults.cache_capacity,
        max_seconds: None,
        idle_timeout: defaults.read_timeout,
        max_requests_per_connection: 0,
        list_backends: false,
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--addr" => args.addr = flags.value("--addr")?,
            "--port" => args.port = flags.parse("--port", str::parse)?,
            "--tables" => args.spec.table_dirs.push(flags.value("--tables")?.into()),
            "--checkpoint" => args.spec.checkpoints.push(flags.pair(
                "--checkpoint",
                CellKey::parse,
                str::parse,
            )?),
            "--no-defaults" => args.spec.defaults = false,
            // Repeatable: a `SIM:UARCH:SPEC=BUDGET` pair overrides one cell,
            // and a bare number sets the budget of every other cell.
            "--error-budget" if flags.peek().is_some_and(|raw| raw.contains('=')) => {
                let (key, budget) = flags.pair("--error-budget", CellKey::parse, budget)?;
                args.spec.cell_budgets.push((key.id(), budget));
            }
            "--error-budget" => args.spec.error_budget = flags.parse("--error-budget", budget)?,
            "--shards" => args.shards = Some(flags.parse("--shards", str::parse)?),
            "--cache-capacity" => {
                args.cache_capacity = flags.parse("--cache-capacity", str::parse)?
            }
            "--max-seconds" => args.max_seconds = Some(flags.seconds("--max-seconds")?),
            "--idle-timeout" => args.idle_timeout = flags.seconds("--idle-timeout")?,
            "--max-requests-per-connection" => {
                args.max_requests_per_connection =
                    flags.parse("--max-requests-per-connection", str::parse)?
            }
            "--list-backends" => args.list_backends = true,
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(args)
}

fn main() {
    let args = cli::parse_env(USAGE, parse_args);

    // The startup spec doubles as the `POST /reload` rescan spec: a reload
    // re-reads exactly these locations, under strict verification.
    let registry = BackendRegistry::load(&args.spec, false).unwrap_or_else(|error| {
        eprintln!("difftune-serve: {error}");
        std::process::exit(1);
    });
    for warning in registry.warnings() {
        eprintln!("[difftune-serve] warning: {warning}");
    }

    if args.list_backends {
        cli::print_lines(
            registry
                .entries()
                .into_iter()
                .map(|(id, kind, fingerprint)| format!("{id}\t{kind}\t{fingerprint}")),
        );
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
        cache_capacity: args.cache_capacity,
        read_timeout: args.idle_timeout,
        max_requests_per_connection: args.max_requests_per_connection,
        reload_spec: Some(args.spec),
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
    outln!(
        "difftune-serve listening on http://{} ({backends} backends)",
        handle.addr()
    );

    // Serve until killed, drained, or the --max-seconds CI tripwire.
    let deadline = args.max_seconds.map(|seconds| Instant::now() + seconds);
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

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&mut Flags::new(args.iter().copied()))
    }

    /// The command lines CI, perfbench, the README and `difftune-loadtest`'s
    /// fleets start servers with.
    #[test]
    fn known_command_lines_parse_to_their_values() {
        // CI's serve-smoke job.
        let args = parse(&[
            "--port",
            "8117",
            "--tables",
            "matrix-out",
            "--max-seconds",
            "240",
        ])
        .unwrap();
        assert_eq!((args.addr.as_str(), args.port), ("127.0.0.1", 8117));
        assert_eq!(args.spec.table_dirs, [PathBuf::from("matrix-out")]);
        assert!(args.spec.defaults);
        assert!(args.spec.checkpoints.is_empty() && args.spec.cell_budgets.is_empty());
        assert_eq!(args.spec.error_budget, 0.0);
        assert_eq!(args.max_seconds, Some(Duration::from_secs(240)));
        assert_eq!(args.idle_timeout, Duration::from_secs(5));
        assert_eq!((args.shards, args.cache_capacity), (None, 4096));
        assert_eq!(args.max_requests_per_connection, 0);
        assert!(!args.list_backends);

        // CI's surrogate-smoke job and its zero-budget leg.
        for (raw, budget) in [("1000000", 1e6), ("0", 0.0)] {
            let args = parse(&[
                "--port",
                "8118",
                "--tables",
                "matrix-out",
                "--error-budget",
                raw,
                "--max-seconds",
                "300",
            ])
            .unwrap();
            assert_eq!(args.port, 8118);
            assert_eq!(args.spec.error_budget, budget);
            assert!(args.spec.cell_budgets.is_empty());
            assert_eq!(args.max_seconds, Some(Duration::from_secs(300)));
        }

        // perfbench's serve-lstm-miss server.
        let args = parse(&[
            "--tables",
            "work/cell",
            "--shards",
            "2",
            "--error-budget",
            "mca:haswell:llvm_mca=1000000",
            "--port",
            "0",
            "--max-seconds",
            "600",
        ])
        .unwrap();
        assert_eq!(args.port, 0);
        assert_eq!(args.spec.table_dirs, [PathBuf::from("work/cell")]);
        assert_eq!(args.shards, Some(2));
        assert_eq!(args.spec.error_budget, 0.0);
        assert_eq!(
            args.spec.cell_budgets,
            [("mca:haswell:llvm_mca".to_string(), 1e6)]
        );
        assert_eq!(args.max_seconds, Some(Duration::from_secs(600)));

        // The README's policy example.
        let args = parse(&[
            "--port",
            "8117",
            "--tables",
            "matrix-out",
            "--error-budget",
            "0.05",
        ])
        .unwrap();
        assert_eq!(args.spec.error_budget, 0.05);
        assert_eq!(args.max_seconds, None);

        // A `difftune-loadtest --via-router` upstream.
        let args = parse(&[
            "--port",
            "0",
            "--max-seconds",
            "900",
            "--tables",
            "a",
            "--tables",
            "b",
            "--error-budget",
            "0.5",
            "--idle-timeout",
            "0.25",
            "--checkpoint",
            "uop:skylake:llvm_sim=run.json",
            "--no-defaults",
        ])
        .unwrap();
        assert_eq!(
            args.spec.table_dirs,
            [PathBuf::from("a"), PathBuf::from("b")]
        );
        assert_eq!(args.spec.error_budget, 0.5);
        assert_eq!(args.idle_timeout, Duration::from_millis(250));
        assert_eq!(args.spec.checkpoints.len(), 1);
        assert_eq!(args.spec.checkpoints[0].0.id(), "uop:skylake:llvm_sim");
        assert_eq!(args.spec.checkpoints[0].1, PathBuf::from("run.json"));
        assert!(!args.spec.defaults);
    }

    #[test]
    fn bad_values_exit_naming_their_flag() {
        for args in [
            ["--idle-timeout", "inf"],
            ["--max-seconds", "0"],
            ["--max-seconds", "-1"],
            ["--error-budget", "-1"],
            ["--error-budget", "NaN"],
            ["--error-budget", "mca:haswell:nope=1"],
            ["--checkpoint", "run.json"],
            ["--port", "70000"],
            ["--shards", "many"],
        ] {
            let error = parse(&args).unwrap_err();
            assert!(
                error.starts_with(&format!("{} {:?}: ", args[0], args[1])),
                "{error}"
            );
        }
        assert_eq!(parse(&["--port"]).unwrap_err(), "--port requires a value");
        assert_eq!(parse(&["--help"]).unwrap_err(), "");
    }
}
