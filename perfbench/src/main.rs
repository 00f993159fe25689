//! End-to-end benchmark of the TER-iDS daemon.
//!
//! ```text
//! perfbench --workload <burst400|herd2k> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each run generates the workload's dataset from the seed, starts the
//! daemon (`ter_serve::Server::run` with `ServeOptions::default()`) as a
//! child process of this same binary, drives it over localhost TCP from
//! two connections, kills it with SIGKILL and restarts it, and checks
//! every per-arrival match list against an in-process sequential
//! `TerIdsEngine` over the same arrivals. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer split and prints the critical-path table above
//! the JSON line.
//!
//! Run it from the repository root; scratch state goes to `.perfbench/`.

mod daemon;
mod driver;
mod layers;
mod run;
mod session;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workload::Workload;

fn arg<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let workload = match arg(&args, "--workload").and_then(Workload::by_name) {
        Some(w) => w,
        None => {
            eprintln!(
                "usage: perfbench --workload <burst400|herd2k> --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.iter().any(|a| a == "--daemon") {
        let path = |k: &str| PathBuf::from(arg(&args, k).unwrap_or_default());
        return match daemon::daemon_main(&path("--inputs"), &path("--dir"), &workload) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("daemon: {e}");
                ExitCode::from(1)
            }
        };
    }
    let num = |k: &str, default: u64| {
        arg(&args, k)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(default)
    };
    let (seed, seconds, trace) = (
        num("--seed", 1),
        num("--seconds", 10).max(1),
        num("--trace", 0) == 1,
    );
    let outcome = match run::run(&workload, seed, seconds, trace, Path::new(".perfbench")) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench {}: {e}", workload.name);
            return ExitCode::from(1);
        }
    };
    print!("{}", outcome.report);
    let mut fields = Vec::new();
    for m in &outcome.metrics {
        match json_number(m.value) {
            Ok(v) => fields.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )),
            Err(e) => {
                eprintln!("perfbench {}: {}: {e}", workload.name, m.name);
                return ExitCode::from(1);
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
