//! `sqp-benchmark`: one seeded benchmark for the whole stack.
//!
//! ```text
//! sqp-benchmark run [--seed N] [--seconds S] [--quick] [--workload NAME] [--out DIR]
//!     every workload, timed then traced; prints every metric by name and
//!     unit, writes results and traces, exits non-zero on a wrong answer
//! sqp-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload, the way BENCHMARK.json's driver calls it; the last
//!     line of output is the result object
//! sqp-benchmark manifest
//!     print BENCHMARK.json as generated from the metric registry
//! sqp-benchmark compare A.txt B.txt
//!     the saved output of two `run`s side by side, against the bounds
//! ```
//!
//! The benchmark times each layer from outside, around calls into public
//! functions of the product crates; it adds nothing inside them.

mod alloc;
mod compare;
mod fixture;
mod hist;
mod metrics;
mod oracle;
mod procfs;
mod rounds;
mod script;
mod trace;
mod workloads;

use fixture::{Corpus, Opts, Scale};
use metrics::{Report, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// What `BENCHMARK.json` declares as `run_seconds`, and `run`'s default.
const RUN_SECONDS: u32 = 25;

struct Args {
    run_all: bool,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    corrupt_oracle: bool,
    out_dir: PathBuf,
}

fn usage() -> String {
    "usage: sqp-benchmark run [--seed N] [--seconds S] [--quick] [--workload NAME] [--out DIR]\n\
     \x20      sqp-benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
     \x20      sqp-benchmark manifest\n\
     \x20      sqp-benchmark compare A.txt B.txt"
        .to_string()
}

fn parse(mut argv: std::slice::Iter<'_, String>, run_all: bool) -> Result<Args, String> {
    let mut args = Args {
        run_all,
        workload: None,
        seed: 42,
        seconds: None,
        trace: run_all,
        quick: false,
        corrupt_oracle: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            // Self-test: corrupt one reference reply; the run must fail.
            "--corrupt-oracle" => args.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !run_all && args.workload.is_none() {
        return Err(usage());
    }
    Ok(args)
}

fn run(args: &Args) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let seconds = args.seconds.unwrap_or(if args.quick {
        0.5
    } else {
        f64::from(RUN_SECONDS)
    });
    let opts = Opts {
        seed: args.seed,
        // `run` measures the full budget and then traces; a traced driver
        // run has to fit both into its budget.
        timed_seconds: if args.trace && !args.run_all {
            seconds * 0.5
        } else {
            seconds
        },
        trace: args.trace,
        scale: if args.quick {
            Scale::QUICK
        } else {
            Scale::FULL
        },
        corrupt_oracle: args.corrupt_oracle,
        out_dir: args.out_dir.clone(),
    };
    println!(
        "sqp-benchmark seed {} seconds {seconds} trace {} host_threads {} clients {} \
         (closed loop, loopback only)",
        opts.seed,
        u8::from(opts.trace),
        fixture::host_threads(),
        opts.clients()
    );
    let corpus = Corpus::generate(&opts);

    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut reports: Vec<Report> = Vec::new();
    for name in names {
        let report = workloads::run(name, &corpus, &opts);
        print!("{}", report.table());
        reports.push(report);
    }
    let correct = reports.iter().all(Report::correct);

    if args.run_all {
        let json = format!(
            "{{\"seed\": {}, \"seconds\": {seconds}, \"host_threads\": {}, \"loopback_only\": true, \"correct\": {correct}, \"workloads\": [\n  {}\n]}}\n",
            opts.seed,
            fixture::host_threads(),
            reports.iter().map(Report::json).collect::<Vec<_>>().join(",\n  ")
        );
        if let Err(e) = std::fs::write(args.out_dir.join("results.json"), json) {
            eprintln!("cannot write results.json: {e}");
            return ExitCode::from(2);
        }
        println!(
            "{}",
            if correct {
                "all answers correct"
            } else {
                "WRONG ANSWERS"
            }
        );
    } else {
        println!("{}", reports[0].result_line(opts.trace));
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest_json(RUN_SECONDS));
            return ExitCode::SUCCESS;
        }
        Some("compare") => return compare::main(&argv[1..]),
        Some("run") => parse(argv[1..].iter(), true),
        _ => parse(argv.iter(), false),
    };
    match outcome {
        Ok(args) => run(&args),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
