//! `repro` — reproduce the paper's figures and tables by name.
//!
//! `repro <name>…` runs the named entries of `sqp_experiments::EXPERIMENTS`,
//! `repro all` runs every one; bad arguments print the usage and every
//! entry name and exit with status 2.

use sqp_experiments::{run, select, usage, ExpArgs};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = ExpArgs::parse(&argv).and_then(|(args, names)| Ok((args, select(&names)?)));
    let (args, entries) = match parsed {
        Ok(parsed) => parsed,
        Err(problem) => {
            eprintln!("repro: {problem}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args, &entries, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("repro: {err}");
            ExitCode::FAILURE
        }
    }
}
