//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-hepth|batch-dblp|serve-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one JSON object as the last line of standard output:
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`). See
//! `perfbench/README.md` for the workloads and what each metric means.

mod batch;
mod report;
mod schedule;
mod serve;
mod stats;
mod timed;
mod trace;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

/// Where runs keep their scratch files (stores, sockets, span dumps),
/// relative to the directory the benchmark runs from.
pub const RUN_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "batch-hepth" => batch::run(&batch::HEPTH, args.seed, args.seconds, args.trace),
        "batch-dblp" => batch::run(&batch::DBLP, args.seed, args.seconds, args.trace),
        "serve-churn" => match serve::run(args.seed, args.seconds, args.trace) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: serve-churn could not run: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        report.complete(report::PER_LAYER, false);
    } else {
        report.complete(report::END_TO_END, true);
    }
    for failure in &report.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    if args.trace {
        let path =
            PathBuf::from(RUN_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &report.spans) {
            Ok(()) => eprintln!(
                "perfbench: {} spans in {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        for (name, t) in trace::totals(&report.spans) {
            eprintln!(
                "perfbench: span {name:<28} n={:<7} total={:.4}s self={:.4}s",
                t.count, t.total_s, t.self_s
            );
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
