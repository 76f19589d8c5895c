//! `flowbench` — runs one workload and prints its metrics, ending with the
//! one-line JSON result; or, with `--workload all`, runs every workload
//! untraced and traced, each in its own process.
//!
//! ```text
//! flowbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `ingest-wildcard-order` is not one of the benchmark's workloads and `all`
//! leaves it out: it reproduces a known `spc-core` ordering defect and fails
//! until that is fixed (see `ingest`).
//!
//! Exits 1 when a correctness check or a workload self-check fails, 2 on
//! bad arguments.

use std::process::{Command, ExitCode};

use flowbench::{deep, ingest, probe, report::Report};

/// Every workload, in the order `all` runs them.
const WORKLOADS: &[&str] = &[
    "resident-deep",
    "evicting-deep",
    "ingest-shallow",
    "probe-poll",
];

/// The `ingest-shallow` variant that reproduces the wildcard-order defect.
const REPRODUCER: &str = "ingest-wildcard-order";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload != "all" && a.workload != REPRODUCER && !WORKLOADS.contains(&a.workload.as_str())
    {
        return Err(format!(
            "--workload must be one of {}, {REPRODUCER} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0 && a.seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], not {}", a.seconds));
    }
    Ok(a)
}

fn run(a: &Args) -> Report {
    match a.workload.as_str() {
        "resident-deep" => deep::run(&deep::RESIDENT, a.seed, a.seconds, a.trace),
        "evicting-deep" => deep::run(&deep::EVICTING, a.seed, a.seconds, a.trace),
        "ingest-shallow" => ingest::run(a.seed, a.seconds, a.trace, false),
        REPRODUCER => ingest::run(a.seed, a.seconds, a.trace, true),
        "probe-poll" => probe::run(a.seed, a.seconds, a.trace),
        other => unreachable!("workload {other} was validated by parse"),
    }
}

/// Runs every workload untraced then traced, each in a child process so
/// peak RSS and process-wide state stay per workload.
fn run_all(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", w, "--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string(), "--trace", trace])
                .status()
                .expect("spawn a workload run");
            if !status.success() {
                eprintln!("flowbench: {w} (trace {trace}) failed: {status}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return run_all(&a);
    }
    let r = run(&a);
    r.print(a.trace);
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
