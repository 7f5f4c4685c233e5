//! `ledger-bench`, the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <campaign_mixed|campaign_closed_form_faults|admission_churn|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the program's public
//! entry points, `campaign::run_sharded_campaign` and `admission::serve`.
//! `--trace 1` rebuilds the same pipelines from the public calls they make,
//! times every call, and counts the numbers only if the rebuild reproduces
//! the program's output byte for byte.  The last line on stdout is one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`; the
//! exit code is non-zero when any check fails.  `--workload all` runs every
//! workload in a child process of its own.

mod admission_bench;
mod campaign_bench;
mod report;

use report::{print_result, Run};
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 3] = [
    "campaign_mixed",
    "campaign_closed_form_faults",
    "admission_churn",
];

const USAGE: &str = "usage: ledger-bench --workload <campaign_mixed|campaign_closed_form_faults|\
admission_churn|all> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut parsed = Args {
        workload: String::new(),
        seed: 42,
        seconds: 15.0,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    Ok(parsed)
}

fn run_workload(args: &Args) -> Run {
    let campaign = match args.workload.as_str() {
        "campaign_mixed" => Some(&campaign_bench::MIXED),
        "campaign_closed_form_faults" => Some(&campaign_bench::CLOSED_FORM_FAULTS),
        _ => None,
    };
    match (campaign, args.trace) {
        (Some(workload), false) => {
            campaign_bench::run_end_to_end(workload, args.seed, args.seconds)
        }
        (Some(workload), true) => campaign_bench::run_traced(workload, args.seed),
        (None, false) => admission_bench::run_end_to_end(args.seed, args.seconds),
        (None, true) => admission_bench::run_traced(args.seed),
    }
}

/// Runs every workload in a child process (peak RSS is per process) and
/// fails when any of them does.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    let mut lines = Vec::new();
    for workload in WORKLOADS {
        println!("== {workload}");
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("spawn workload process");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        all_ok &= output.status.success();
        let last = stdout.lines().last().unwrap_or("null").to_string();
        lines.push(format!("\"{workload}\": {last}"));
    }
    println!("{{{}}}", lines.join(", "));
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let run = run_workload(&args);
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    print_result(&run, section);
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
