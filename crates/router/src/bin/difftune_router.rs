//! `difftune-router` — the routing-tier binary.
//!
//! Fronts N `difftune-serve` upstreams with consistent-hash routing,
//! health-checked failover, and cross-upstream aggregation of `/metrics`
//! and `/backends`.
//!
//! ```text
//! difftune-router --upstream HOST:PORT [--upstream HOST:PORT]...
//!                 [--addr A] [--port P] [--vnodes N]
//!                 [--idle-timeout S] [--upstream-timeout S]
//!                 [--health-interval S] [--max-seconds S]
//! ```

#![forbid(unsafe_code)]

use std::time::Duration;

use difftune_bench::cli::{self, Flags};
use difftune_bench::outln;
use difftune_router::server::{spawn_router, RouterConfig};

const USAGE: &str = "usage: difftune-router --upstream HOST:PORT [--upstream HOST:PORT]... \
     [--addr A] [--port P] [--vnodes N] [--idle-timeout S] [--upstream-timeout S] \
     [--health-interval S] [--max-seconds S]";

#[derive(Debug)]
struct Args {
    config: RouterConfig,
    max_seconds: Option<Duration>,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut config = RouterConfig {
        port: 8116,
        ..RouterConfig::default()
    };
    let mut max_seconds = None;
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--addr" => config.addr = flags.value("--addr")?,
            "--port" => config.port = flags.parse("--port", str::parse)?,
            "--upstream" => config.upstreams.push(flags.value("--upstream")?),
            "--vnodes" => config.vnodes = flags.parse("--vnodes", str::parse)?,
            "--idle-timeout" => config.read_timeout = flags.seconds("--idle-timeout")?,
            "--upstream-timeout" => {
                config.upstream_timeout = flags.seconds("--upstream-timeout")?
            }
            "--health-interval" => config.health_interval = flags.seconds("--health-interval")?,
            "--max-seconds" => max_seconds = Some(flags.seconds("--max-seconds")?),
            other => return Err(cli::unknown(other)),
        }
    }
    if config.upstreams.is_empty() {
        return Err("difftune-router: at least one --upstream is required".to_string());
    }
    Ok(Args {
        config,
        max_seconds,
    })
}

fn main() {
    let Args {
        config,
        max_seconds,
    } = cli::parse_env(USAGE, parse_args);
    let (addr, port, upstreams) = (config.addr.clone(), config.port, config.upstreams.len());
    let handle = spawn_router(config).unwrap_or_else(|error| {
        eprintln!("difftune-router: cannot start on {addr}:{port}: {error}");
        std::process::exit(1);
    });
    outln!(
        "difftune-router listening on http://{} ({upstreams} upstreams)",
        handle.addr(),
    );

    match max_seconds {
        Some(seconds) => {
            std::thread::sleep(seconds);
            eprintln!("[difftune-router] --max-seconds reached; shutting down");
            handle.shutdown();
        }
        None => loop {
            std::thread::park();
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&mut Flags::new(args.iter().copied()))
    }

    /// The command lines perfbench, the README and `difftune-loadtest`'s
    /// fleets start routers with.
    #[test]
    fn known_command_lines_parse_to_their_values() {
        // perfbench's route-hot router.
        let args = parse(&[
            "--upstream",
            "127.0.0.1:40001",
            "--upstream",
            "127.0.0.1:40002",
            "--port",
            "0",
            "--max-seconds",
            "600",
        ])
        .unwrap();
        assert_eq!(
            args.config.upstreams,
            ["127.0.0.1:40001", "127.0.0.1:40002"]
        );
        assert_eq!(
            (args.config.addr.as_str(), args.config.port),
            ("127.0.0.1", 0)
        );
        assert_eq!(args.config.vnodes, 64);
        assert_eq!(args.config.read_timeout, Duration::from_secs(5));
        assert_eq!(args.config.upstream_timeout, Duration::from_secs(10));
        assert_eq!(args.config.health_interval, Duration::from_millis(250));
        assert_eq!(args.max_seconds, Some(Duration::from_secs(600)));

        // The README's fleet.
        let args = parse(&[
            "--port",
            "8116",
            "--upstream",
            "127.0.0.1:8117",
            "--upstream",
            "127.0.0.1:8118",
        ])
        .unwrap();
        assert_eq!(args.config.port, 8116);
        assert_eq!(args.config.upstreams, ["127.0.0.1:8117", "127.0.0.1:8118"]);
        assert_eq!(args.max_seconds, None);
        assert_eq!(parse(&["--upstream", "a:1"]).unwrap().config.port, 8116);

        // A `difftune-loadtest --via-router` router.
        let args = parse(&[
            "--port",
            "0",
            "--max-seconds",
            "900",
            "--upstream",
            "127.0.0.1:40001",
            "--idle-timeout",
            "0.5",
            "--upstream-timeout",
            "2",
            "--health-interval",
            "0.1",
            "--vnodes",
            "8",
            "--addr",
            "0.0.0.0",
        ])
        .unwrap();
        assert_eq!(args.max_seconds, Some(Duration::from_secs(900)));
        assert_eq!(args.config.read_timeout, Duration::from_millis(500));
        assert_eq!(args.config.upstream_timeout, Duration::from_secs(2));
        assert_eq!(args.config.health_interval, Duration::from_millis(100));
        assert_eq!(args.config.vnodes, 8);
        assert_eq!(args.config.addr, "0.0.0.0");
    }

    #[test]
    fn bad_values_exit_naming_their_flag() {
        for bad in [
            ["--health-interval", "1e30"],
            ["--idle-timeout", "inf"],
            ["--upstream-timeout", "-1"],
            ["--max-seconds", "0"],
            ["--vnodes", "-3"],
        ] {
            let error = parse(&["--upstream", "a:1", bad[0], bad[1]]).unwrap_err();
            assert!(
                error.starts_with(&format!("{} {:?}: ", bad[0], bad[1])),
                "{error}"
            );
        }
        let error = parse(&["--port", "0"]).unwrap_err();
        assert!(error.contains("--upstream is required"), "{error}");
    }
}
