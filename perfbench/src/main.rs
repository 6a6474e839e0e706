//! `pim-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the result as the last line of standard output and exits 0
//! when every output was correct. `--emit-digests` prints the digest
//! line of every cell instead, for refreshing `expected/digests.txt`
//! after a deliberate change to the simulated model.

use pim_perfbench::metrics::{end_to_end, per_layer};
use pim_perfbench::oracle::{Expected, COMMITTED};
use pim_perfbench::span::{dump_json, Tracer};
use pim_perfbench::{run, Ctx, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str = "usage: pim-perfbench --workload figs-quick|cell-hires|serve-evict \
[--seed N] [--seconds S] [--trace 0|1] [--emit-digests]";

/// Environment variables that change the thread budget: the benchmark
/// measures the program's default budget only.
const BUDGET_ENV: [&str; 2] = ["PIMGFX_THREADS", "PIMGFX_REPLAY_LANES"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_digests: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        emit_digests: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--emit-digests" {
            out.emit_digests = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("{flag} got an invalid value `{value}`\n{USAGE}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    if out.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = BUDGET_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("error: unset {var}: the benchmark runs at the default thread budget");
        return ExitCode::from(2);
    }
    let expected = match Expected::parse(COMMITTED) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: expected digests: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        expected,
    };
    let (outcome, digests) = match run(&args.workload, &ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.emit_digests {
        for line in digests {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }
    if args.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, dump_json(&ctx.tracer.spans())));
        match written {
            Ok(()) => eprintln!("[perfbench] spans written to {}", path.display()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let defs = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    for (name, unit) in &defs {
        if let Some(v) = outcome.values.get(name) {
            eprintln!("[perfbench] {name:<32} {v:>16.4} {unit}");
        }
    }
    eprintln!(
        "[perfbench] failed_frac {} ({} of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    match outcome.to_json(&defs) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
