//! `difftune-bench` — the stage-by-stage pipeline performance runner.
//!
//! Runs the DiffTune pipeline at a chosen scale, timing each stage
//! separately, and (with `--json`) emits one `BENCH_<stage>.json` record per
//! stage in the shared `difftune-bench/3` schema:
//!
//! * `generate` — simulated-dataset generation (`Session::generate_dataset`)
//! * `fit`      — surrogate training (`Session::fit_surrogate`)
//! * `optimize` — parameter-table optimization (`Session::optimize_table`)
//! * `simulate` — batch simulation of the test split under the learned table
//!
//! Thread count comes from `DIFFTUNE_THREADS` (unset = all cores). Because
//! training runs on the deterministic batch engine, the learned table is
//! bit-identical for every thread count; `--compare-serial` verifies that by
//! rerunning fit/optimize with one thread, recording the speedup and failing
//! if the tables' fingerprints diverge.
//!
//! ```text
//! difftune-bench [--scale smoke|small|paper] [--seed N] [--json]
//!                [--out-dir DIR] [--compare-serial]
//!                [--max-seconds STAGE=SECS]... [--min-speedup STAGE=RATIO]...
//! ```
//!
//! `--max-seconds` and `--min-speedup` turn the run into a CI tripwire: if
//! any stage's wall time exceeds its ceiling, or a measured speedup falls
//! under its floor, the process exits nonzero after reporting every
//! violation.

#![forbid(unsafe_code)]

use std::time::Instant;

use difftune::{DiffTuneBuilder, ParamSpec, Session};
use difftune_bench::cli::{self, Flags};
use difftune_bench::outln;
use difftune_bench::record::{fingerprint_table, BenchRecord};
use difftune_bench::{dataset_for, mca, pairs, Scale};
use difftune_cpu::{default_params, Microarch};
use difftune_sim::{SimParams, Simulator};

const USAGE: &str = "usage: difftune-bench [--scale smoke|small|paper] [--seed N] [--json] \
     [--out-dir DIR] [--compare-serial] [--max-seconds STAGE=SECS]... \
     [--min-speedup STAGE=RATIO]...";

#[derive(Debug)]
struct Args {
    scale: Option<Scale>,
    seed: u64,
    json: bool,
    out_dir: String,
    compare_serial: bool,
    /// `(stage, ceiling_seconds)` pairs from `--max-seconds`.
    ceilings: Vec<(String, f64)>,
    /// `(stage, minimum speedup_vs_serial)` pairs from `--min-speedup`
    /// (requires `--compare-serial`).
    min_speedups: Vec<(String, f64)>,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        scale: None,
        seed: 0,
        json: false,
        out_dir: ".".to_string(),
        compare_serial: false,
        ceilings: Vec::new(),
        min_speedups: Vec::new(),
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--scale" => args.scale = Some(flags.parse("--scale", Scale::parse)?),
            "--seed" => args.seed = flags.parse("--seed", str::parse)?,
            "--json" => args.json = true,
            "--out-dir" => args.out_dir = flags.value("--out-dir")?,
            "--compare-serial" => args.compare_serial = true,
            "--max-seconds" => {
                args.ceilings
                    .push(flags.pair("--max-seconds", str::parse, str::parse)?)
            }
            "--min-speedup" => {
                args.min_speedups
                    .push(flags.pair("--min-speedup", str::parse, str::parse)?)
            }
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(args)
}

/// Wall times and throughput inputs of one full pipeline run.
struct StageTimes {
    generate_seconds: f64,
    generate_samples: usize,
    fit_seconds: f64,
    fit_samples: usize,
    optimize_seconds: f64,
    optimize_samples: usize,
    learned: SimParams,
}

/// Runs dataset generation, surrogate fitting, and table optimization with
/// the given thread count, timing each stage.
fn run_pipeline(
    simulator: &dyn Simulator,
    scale: Scale,
    seed: u64,
    threads: usize,
    train_pairs: &[(difftune_isa::BasicBlock, f64)],
) -> StageTimes {
    let mut config = scale.difftune_config(seed);
    if threads != 0 {
        config.threads = threads;
        config.surrogate_train.threads = threads;
    }
    let epochs = config.surrogate_train.epochs;
    let table_epochs = config.table_epochs;
    let defaults = default_params(Microarch::Haswell);
    let mut session: Session<'_> = DiffTuneBuilder::new(config)
        .build(simulator, &ParamSpec::llvm_mca(), &defaults, train_pairs)
        .unwrap_or_else(|error| {
            eprintln!("difftune-bench: invalid pipeline input: {error}");
            std::process::exit(1);
        });

    let fail = |error: difftune::DiffTuneError| -> ! {
        eprintln!("difftune-bench: pipeline stage failed: {error}");
        std::process::exit(1);
    };

    let start = Instant::now();
    let generated = session.generate_dataset().unwrap_or_else(|e| fail(e));
    let generate_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    session.fit_surrogate().unwrap_or_else(|e| fail(e));
    let fit_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    session.optimize_table().unwrap_or_else(|e| fail(e));
    let optimize_seconds = start.elapsed().as_secs_f64();

    let result = session.finish().unwrap_or_else(|e| fail(e));
    StageTimes {
        generate_seconds,
        generate_samples: generated,
        fit_seconds,
        // The fit stage visits every simulated sample once per epoch.
        fit_samples: generated * epochs,
        optimize_seconds,
        optimize_samples: train_pairs.len() * table_epochs,
        learned: result.learned,
    }
}

/// Times batch simulation of the test split under the learned table,
/// repeating until at least ~0.2 s of work has been measured.
fn run_simulate_stage(
    simulator: &dyn Simulator,
    learned: &SimParams,
    blocks: &[difftune_isa::BasicBlock],
) -> (f64, usize) {
    let mut total_blocks = 0usize;
    let start = Instant::now();
    loop {
        let predictions = simulator.predict_batch(learned, blocks);
        assert_eq!(predictions.len(), blocks.len());
        total_blocks += blocks.len();
        if start.elapsed().as_secs_f64() >= 0.2 {
            break;
        }
    }
    (start.elapsed().as_secs_f64(), total_blocks)
}

fn main() {
    let args = cli::parse_env(USAGE, parse_args);
    let scale = args.scale.unwrap_or_else(Scale::from_env_or_exit);
    let threads = difftune::threads_from_env().unwrap_or_else(|error| {
        eprintln!("{error}");
        std::process::exit(2);
    });
    // The records report the worker count the stages actually ran with, so
    // resolve the knob's "0 = all cores" before building them.
    let record_threads = difftune_tensor::resolve_threads(threads);
    let seed = args.seed;

    eprintln!(
        "[difftune-bench] scale {} seed {seed} threads {} ({} cores)",
        scale.name(),
        if threads == 0 {
            "all".to_string()
        } else {
            threads.to_string()
        },
        difftune_tensor::resolve_threads(0),
    );

    let corpus_start = Instant::now();
    let dataset = dataset_for(Microarch::Haswell, scale, seed);
    let train_pairs = pairs(&dataset.train());
    let test_blocks: Vec<difftune_isa::BasicBlock> =
        dataset.test().iter().map(|r| r.block.clone()).collect();
    eprintln!(
        "[difftune-bench] corpus ready in {:.2}s ({} train blocks, {} test blocks)",
        corpus_start.elapsed().as_secs_f64(),
        train_pairs.len(),
        test_blocks.len(),
    );

    let simulator = mca();
    let times = run_pipeline(&simulator, scale, seed, threads, &train_pairs);
    let fingerprint = fingerprint_table(&times.learned);

    let mut generate = BenchRecord::stage(
        "generate",
        scale.name(),
        record_threads,
        seed,
        times.generate_seconds,
        times.generate_samples,
    );
    let mut fit = BenchRecord::stage(
        "fit",
        scale.name(),
        record_threads,
        seed,
        times.fit_seconds,
        times.fit_samples,
    );
    let mut optimize = BenchRecord::stage(
        "optimize",
        scale.name(),
        record_threads,
        seed,
        times.optimize_seconds,
        times.optimize_samples,
    );
    optimize.table_fingerprint = Some(fingerprint.clone());

    // Determinism violations are reported *after* the records are written:
    // when a check trips in CI, the measurements (and all fingerprints)
    // are exactly what the investigator needs.
    let mut violations = Vec::new();
    if args.compare_serial {
        eprintln!("[difftune-bench] rerunning with 1 thread for the determinism/speedup check");
        let serial = run_pipeline(&simulator, scale, seed, 1, &train_pairs);
        let serial_fingerprint = fingerprint_table(&serial.learned);
        if serial_fingerprint == fingerprint {
            eprintln!("[difftune-bench] learned tables bit-identical across thread counts ✓");
        } else {
            violations.push(format!(
                "DETERMINISM VIOLATION: the learned table depends on the thread count \
                 (serial {serial_fingerprint}, parallel {fingerprint})"
            ));
        }
        generate.speedup_vs_serial = Some(serial.generate_seconds / times.generate_seconds);
        fit.speedup_vs_serial = Some(serial.fit_seconds / times.fit_seconds);
        optimize.speedup_vs_serial = Some(serial.optimize_seconds / times.optimize_seconds);
    }
    let (simulate_seconds, simulated_blocks) =
        run_simulate_stage(&simulator, &times.learned, &test_blocks);
    let simulate = BenchRecord::stage(
        "simulate",
        scale.name(),
        record_threads,
        seed,
        simulate_seconds,
        simulated_blocks,
    );

    let records = [generate, fit, optimize, simulate];
    outln!(
        "{:<10} {:>10} {:>12} {:>14} {:>10}",
        "stage",
        "seconds",
        "samples",
        "samples/sec",
        "vs-serial"
    );
    for record in &records {
        let vs_serial = record
            .speedup_vs_serial
            .map(|s| format!("{s:.2}x"))
            .unwrap_or_else(|| "-".to_string());
        outln!(
            "{:<10} {:>10.3} {:>12} {:>14.1} {:>10}",
            record.stage,
            record.wall_time_seconds,
            record.samples,
            record.samples_per_second,
            vs_serial,
        );
    }
    outln!("learned table fingerprint: {fingerprint}");

    if args.json {
        if let Err(error) = std::fs::create_dir_all(&args.out_dir) {
            eprintln!("difftune-bench: cannot create {}: {error}", args.out_dir);
            std::process::exit(1);
        }
        for record in &records {
            let path = std::path::Path::new(&args.out_dir).join(record.file_name());
            if let Err(error) = std::fs::write(&path, record.to_json()) {
                eprintln!("difftune-bench: cannot write {}: {error}", path.display());
                std::process::exit(1);
            }
            eprintln!("[difftune-bench] wrote {}", path.display());
        }
    }

    for (stage, ceiling) in &args.ceilings {
        match records.iter().find(|r| &r.stage == stage) {
            Some(record) if record.wall_time_seconds > *ceiling => violations.push(format!(
                "stage {stage} took {:.2}s, over the {ceiling:.2}s ceiling",
                record.wall_time_seconds
            )),
            Some(_) => {}
            None => violations.push(format!(
                "--max-seconds names unknown stage {stage:?} (valid: generate, fit, optimize, \
                 simulate)"
            )),
        }
    }
    for (stage, floor) in &args.min_speedups {
        match records.iter().find(|r| &r.stage == stage) {
            Some(record) => match record.speedup_vs_serial {
                Some(speedup) if speedup < *floor => violations.push(format!(
                    "stage {stage} sped up only {speedup:.2}x over serial, under the {floor:.2}x \
                     floor (threads {}, {} cores)",
                    record.threads, record.cpu_cores
                )),
                Some(_) => {}
                None => violations.push(format!(
                    "no speedup was measured for stage {stage} (requires --compare-serial; \
                     only generate/fit/optimize are compared)"
                )),
            },
            None => violations.push(format!(
                "--min-speedup names unknown stage {stage:?} (valid: generate, fit, optimize, \
                 simulate)"
            )),
        }
    }
    for violation in &violations {
        eprintln!("difftune-bench: PERF GATE VIOLATION: {violation}");
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

    fn stages(pairs: &[(String, f64)]) -> Vec<(&str, f64)> {
        pairs
            .iter()
            .map(|(stage, n)| (stage.as_str(), *n))
            .collect()
    }

    /// The command lines CI and the README run the bench with.
    #[test]
    fn known_command_lines_parse_to_their_values() {
        // CI's bench-smoke job.
        let args = parse(
            "--scale smoke --json --out-dir bench-out --compare-serial \
             --max-seconds generate=300 --max-seconds fit=900 \
             --max-seconds optimize=600 --max-seconds simulate=120 --min-speedup fit=1.3",
        )
        .unwrap();
        assert_eq!(args.scale, Some(Scale::Smoke));
        assert!(args.json && args.compare_serial);
        assert_eq!(args.out_dir, "bench-out");
        assert_eq!(
            stages(&args.ceilings),
            [
                ("generate", 300.0),
                ("fit", 900.0),
                ("optimize", 600.0),
                ("simulate", 120.0)
            ]
        );
        assert_eq!(stages(&args.min_speedups), [("fit", 1.3)]);
        assert_eq!(args.seed, 0);

        // The README's example leaves the scale to DIFFTUNE_SCALE.
        let args = parse("--json --compare-serial --seed 3").unwrap();
        assert_eq!(
            (args.scale, args.seed, args.out_dir.as_str()),
            (None, 3, ".")
        );
    }

    #[test]
    fn bad_values_exit_naming_their_flag() {
        for (line, prefix) in [
            ("--scale papper", "--scale \"papper\": "),
            ("--seed -1", "--seed \"-1\": "),
            ("--max-seconds fit", "--max-seconds \"fit\": "),
            ("--min-speedup fit=fast", "--min-speedup \"fit=fast\": "),
        ] {
            let error = parse(line).unwrap_err();
            assert!(error.starts_with(prefix), "{error}");
        }
        assert_eq!(
            parse("--out-dir").unwrap_err(),
            "--out-dir requires a value"
        );
        assert_eq!(parse("--fast").unwrap_err(), "unknown argument \"--fast\"");
    }
}
