//! `perfbench --workload spec|scale|serve --seed N --seconds S --trace 0|1`
//!
//! Prints progress on standard error and, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end ones untraced, per-layer ones traced).

use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload spec|scale|serve --seed N --seconds S --trace 0|1");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else { return usage(&format!("`{flag}` needs a value")) };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(val.clone());
                true
            }
            "--seed" => val.parse().map(|v| seed = v).is_ok(),
            "--seconds" => val.parse().map(|v| seconds = v).is_ok() && seconds >= 0.0,
            "--trace" => match val.as_str() {
                "0" | "1" => {
                    trace = val == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag `{flag}`")),
        };
        if !ok {
            return usage(&format!("bad value `{val}` for `{flag}`"));
        }
    }
    let Some(workload) = workload else { return usage("missing --workload") };
    let cfg = perfbench::RunConfig::new(seed, seconds, trace);
    match perfbench::run_workload(&workload, &cfg) {
        Ok(report) => {
            eprintln!(
                "perfbench: {workload} seed {seed}: {} attempted, {} failed",
                report.attempted, report.failed
            );
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
