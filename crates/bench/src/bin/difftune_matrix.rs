//! `difftune-matrix` — the scenario-matrix sweep runner.
//!
//! Tunes and scores every `Simulator × Microarch × ParamSpec` cell (or a
//! `--cell` selection) at the chosen scale, writing one
//! `MATRIX_<sim>_<uarch>_<spec>.json` per completed cell (schema
//! `difftune-matrix/3`: default, learned, and surrogate scores) plus the
//! trained surrogate as `SURROGATE_<sim>_<uarch>_<spec>.json` and a
//! `MATRIX_summary.json` roll-up. Cells run in parallel (`DIFFTUNE_THREADS`
//! cells at a time; outputs are byte-identical for every thread count), and
//! an interrupted sweep resumes: completed cells are recognized by their
//! on-disk records and unfinished cells restart from their per-stage session
//! checkpoints.
//!
//! ```text
//! difftune-matrix [--scale smoke|small|paper] [--out-dir DIR]
//!                 [--cell SIM:UARCH:SPEC]... [--max-cells N]
//!                 [--stop-after generate|fit|optimize]
//!                 [--max-seconds cell=SECS] [--max-seconds total=SECS]
//!                 [--measure-throughput] [--list]
//! ```
//!
//! `--max-seconds` turns the run into a CI tripwire: `cell=SECS` caps every
//! individual cell's wall time, `total=SECS` caps the whole sweep, and any
//! violation makes the process exit nonzero after the records (which carry no
//! wall-clock data and stay deterministic) have been written.
//! `--measure-throughput` opts in to the machine-dependent
//! `surrogate_blocks_per_second` / `simulator_blocks_per_second` record
//! fields (off by default — with it, records are no longer byte-identical
//! across hosts).

#![forbid(unsafe_code)]

use std::time::Instant;

use difftune::Stage;
use difftune_bench::cli::{self, Flags};
use difftune_bench::matrix::{enumerate_cells, run_matrix, CellKey, MatrixOptions};
use difftune_bench::outln;
use difftune_bench::Scale;

const USAGE: &str = "usage: difftune-matrix [--scale smoke|small|paper] [--out-dir DIR] \
     [--cell SIM:UARCH:SPEC]... [--max-cells N] [--stop-after generate|fit|optimize] \
     [--max-seconds cell=SECS] [--max-seconds total=SECS] [--measure-throughput] [--list]";

#[derive(Debug)]
struct Args {
    scale: Option<Scale>,
    out_dir: String,
    cells: Vec<CellKey>,
    max_cells: Option<usize>,
    stop_after: Option<Stage>,
    /// Per-cell wall ceiling from `--max-seconds cell=SECS`.
    cell_ceiling: Option<f64>,
    /// Whole-sweep wall ceiling from `--max-seconds total=SECS`.
    total_ceiling: Option<f64>,
    /// Populate the machine-dependent `*_blocks_per_second` record fields.
    measure_throughput: bool,
    list: bool,
}

/// A `--stop-after` stage name.
fn stage(raw: &str) -> Result<Stage, &'static str> {
    match raw {
        "generate" => Ok(Stage::GenerateDataset),
        "fit" => Ok(Stage::FitSurrogate),
        "optimize" => Ok(Stage::OptimizeTable),
        _ => Err("valid stages: generate, fit, optimize"),
    }
}

/// A `--max-seconds` ceiling name: `cell` (true) or `total` (false).
fn per_cell(raw: &str) -> Result<bool, &'static str> {
    match raw {
        "cell" => Ok(true),
        "total" => Ok(false),
        _ => Err("valid ceilings: cell, total"),
    }
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        scale: None,
        out_dir: ".".to_string(),
        cells: Vec::new(),
        max_cells: None,
        stop_after: None,
        cell_ceiling: None,
        total_ceiling: None,
        measure_throughput: false,
        list: false,
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--scale" => args.scale = Some(flags.parse("--scale", Scale::parse)?),
            "--out-dir" => args.out_dir = flags.value("--out-dir")?,
            "--cell" => args.cells.push(flags.parse("--cell", CellKey::parse)?),
            "--max-cells" => args.max_cells = Some(flags.parse("--max-cells", str::parse)?),
            "--stop-after" => args.stop_after = Some(flags.parse("--stop-after", stage)?),
            "--max-seconds" => match flags.pair("--max-seconds", per_cell, str::parse)? {
                (true, seconds) => args.cell_ceiling = Some(seconds),
                (false, seconds) => args.total_ceiling = Some(seconds),
            },
            "--measure-throughput" => args.measure_throughput = true,
            "--list" => args.list = true,
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(args)
}

fn main() {
    let args = cli::parse_env(USAGE, parse_args);

    if args.list {
        let header = format!("{:<32} {:>20} status", "cell", "seed");
        let rows = enumerate_cells().into_iter().map(|cell| {
            format!(
                "{:<32} {:>#20x} {}",
                cell.key.id(),
                cell.key.seed(),
                match &cell.skip {
                    Some(reason) => format!("skipped: {reason}"),
                    None => "runs".to_string(),
                }
            )
        });
        cli::print_lines(std::iter::once(header).chain(rows));
        return;
    }

    let scale = args.scale.unwrap_or_else(Scale::from_env_or_exit);
    let threads = difftune::threads_from_env().unwrap_or_else(|error| {
        eprintln!("{error}");
        std::process::exit(2);
    });

    eprintln!(
        "[difftune-matrix] scale {} out-dir {} threads {}",
        scale.name(),
        args.out_dir,
        if threads == 0 {
            "all".to_string()
        } else {
            threads.to_string()
        },
    );

    let options = MatrixOptions {
        scale,
        threads,
        out_dir: args.out_dir.clone().into(),
        cells: (!args.cells.is_empty()).then_some(args.cells),
        max_cells: args.max_cells,
        stop_after: args.stop_after,
        measure_throughput: args.measure_throughput,
    };

    let sweep_start = Instant::now();
    let outcome = run_matrix(&options).unwrap_or_else(|error| {
        eprintln!("difftune-matrix: sweep failed: {error}");
        std::process::exit(1);
    });
    let total_seconds = sweep_start.elapsed().as_secs_f64();

    outln!(
        "{:<32} {:>10} {:>8} {:>10} {:>8} {:>10} {:>8}",
        "cell",
        "def MAPE",
        "def tau",
        "lrn MAPE",
        "lrn tau",
        "sur MAPE",
        "sur tau"
    );
    for record in &outcome.summary.records {
        let sur_mape = record
            .surrogate_mape
            .map_or("-".to_string(), |m| format!("{:.1}%", m * 100.0));
        let sur_tau = record
            .surrogate_tau
            .map_or("-".to_string(), |t| format!("{t:.3}"));
        outln!(
            "{:<32} {:>9.1}% {:>8.3} {:>9.1}% {:>8.3} {:>10} {:>8}",
            record.cell,
            record.default_mape * 100.0,
            record.default_tau,
            record.learned_mape * 100.0,
            record.learned_tau,
            sur_mape,
            sur_tau,
        );
    }
    for skipped in &outcome.summary.skipped {
        outln!("{:<32} skipped: {}", skipped.cell, skipped.reason);
    }
    outln!(
        "{} completed ({} reused), {} skipped, {} checkpointed, {} pending; {:.1}s",
        outcome.summary.cells_completed,
        outcome.reused,
        outcome.summary.cells_skipped,
        outcome.interrupted,
        outcome.pending,
        total_seconds,
    );

    let mut violations = Vec::new();
    if let Some(ceiling) = args.cell_ceiling {
        for timing in &outcome.timings {
            if timing.seconds > ceiling {
                violations.push(format!(
                    "cell {} took {:.2}s, over the {ceiling:.2}s ceiling",
                    timing.cell, timing.seconds
                ));
            }
        }
    }
    if let Some(ceiling) = args.total_ceiling {
        if total_seconds > ceiling {
            violations.push(format!(
                "the sweep took {total_seconds:.2}s, over the {ceiling:.2}s ceiling"
            ));
        }
    }
    for violation in &violations {
        eprintln!("difftune-matrix: PERF CEILING EXCEEDED: {violation}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&mut Flags::new(line.split_whitespace()))
    }

    /// The command lines CI and the README run the sweep with.
    #[test]
    fn known_command_lines_parse_to_their_values() {
        // CI's matrix-smoke job, also a README example.
        let args = parse(
            "--scale smoke --out-dir matrix-out \
             --cell mca:haswell:llvm_mca --cell uop:haswell:llvm_sim \
             --max-seconds cell=900 --max-seconds total=1500",
        )
        .unwrap();
        assert_eq!(args.scale, Some(Scale::Smoke));
        assert_eq!(args.out_dir, "matrix-out");
        let cells: Vec<String> = args.cells.iter().map(CellKey::id).collect();
        assert_eq!(cells, ["mca:haswell:llvm_mca", "uop:haswell:llvm_sim"]);
        assert_eq!(
            (args.cell_ceiling, args.total_ceiling),
            (Some(900.0), Some(1500.0))
        );
        assert_eq!((args.max_cells, args.stop_after), (None, None));
        assert!(!args.measure_throughput && !args.list);

        // The README's full sweep and the serving example's two cells.
        let args = parse("--out-dir matrix-out").unwrap();
        assert_eq!((args.scale, args.cells.len()), (None, 0));
        assert_eq!((args.cell_ceiling, args.total_ceiling), (None, None));
        let args = parse(
            "--out-dir matrix-out --cell mca:haswell:llvm_mca --cell uop:haswell:llvm_sim \
             --max-cells 1 --stop-after fit --measure-throughput --list",
        )
        .unwrap();
        assert_eq!(args.cells.len(), 2);
        assert_eq!(args.max_cells, Some(1));
        assert_eq!(args.stop_after, Some(Stage::FitSurrogate));
        assert!(args.measure_throughput && args.list);
    }

    #[test]
    fn bad_values_exit_naming_their_flag() {
        for (line, prefix) in [
            ("--scale papper", "--scale \"papper\": "),
            ("--cell mca:haswell", "--cell \"mca:haswell\": "),
            ("--max-cells all", "--max-cells \"all\": "),
            ("--stop-after simulate", "--stop-after \"simulate\": "),
            ("--max-seconds sweep=10", "--max-seconds \"sweep=10\": "),
            ("--max-seconds cell=soon", "--max-seconds \"cell=soon\": "),
        ] {
            let error = parse(line).unwrap_err();
            assert!(error.starts_with(prefix), "{error}");
        }
    }
}
