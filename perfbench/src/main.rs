//! `axmc-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload in this process and prints every metric by name and
//! unit, then, as the last line, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 on a usage error or when
//! the workload cannot run at all; wrong answers are counted in `failed`.

use axmc_perfbench::harness::{self, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

/// Scratch directory for circuit files and span logs, relative to the
/// directory the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag '{flag}' needs a value"))?;
        let bad = |what: &str| format!("flag '{flag}' needs {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let work_dir =
        PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let mut workload = axmc_perfbench::workload(&args.workload, args.seed, &work_dir)?;
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create '{}': {e}", work_dir.display()))?;
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir,
    };
    let report = harness::run(workload.as_mut(), &config);
    drop(workload);
    // Only a traced run leaves a file (its span log) behind.
    let _ = std::fs::remove_dir(&config.work_dir);
    let _ = std::fs::remove_dir(WORK_DIR);
    let report = report?;
    println!(
        "{} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace {
            "traced, per-layer"
        } else {
            "end to end"
        }
    );
    for m in &report.metrics {
        println!(
            "  {:<28} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    for note in &report.notes {
        println!("  {note}");
    }
    println!("{}", report.result_line());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
