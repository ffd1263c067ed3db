//! The ledger's command line:
//!
//! ```text
//! perfledger --workload <campaign|noisy|restart> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints the host fingerprint, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics,
//! or with `--trace 1` the per-layer ones). Exits non-zero when an output
//! check failed.

use std::path::PathBuf;
use std::process::ExitCode;

use perfledger::ledger::{self, Options};
use perfledger::workload::{Workload, DEFAULT_SEED};

fn usage(why: &str) -> ExitCode {
    eprintln!("perfledger: {why}");
    eprintln!(
        "usage: perfledger --workload <campaign|noisy|restart> [--seed N] [--seconds S] \
         [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::Campaign,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        // Set-up is timed several times and reported as a median.
        setups: 3,
        span_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("{} needs a value", pair[0]));
        };
        let bad = || usage(&format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return bad(),
            },
            "--seed" => match value.parse() {
                Ok(v) => opts.seed = v,
                Err(_) => return bad(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v >= 0.0 => opts.seconds = v,
                _ => return bad(),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return bad(),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(w) = workload else {
        return usage("--workload is required");
    };
    opts.workload = w;

    let outcome = ledger::run(&opts);
    println!("fingerprint {}", outcome.fingerprint.to_json());
    println!(
        "rounds {} ({} operations, {} failed)",
        outcome.rounds, outcome.attempted, outcome.failed
    );
    if let Some(q) = &outcome.quality {
        println!("quality {q}");
    }
    for line in &outcome.spread {
        println!("samples {line}");
    }
    if let Some(path) = &outcome.span_file {
        println!("spans {}", path.display());
    }
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
