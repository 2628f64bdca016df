//! # sqp-experiments — one binary per table and figure of the paper
//!
//! Every artifact of the paper's evaluation section (§V) has a function here
//! and a thin binary wrapper in `src/bin/`. `run_all` executes the full
//! suite, reusing one corpus and one trained model roster.
//!
//! All binaries accept `--train-sessions N --test-sessions N --seed N
//! --reduction N --quick`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod data_figs;
pub mod extras;
pub mod harness;
pub mod model_figs;
pub mod user_figs;

pub use harness::{banner, ExpArgs, TrainedModels, Workbench};

/// Run a data-only experiment (no models needed).
pub fn run_data_experiment(id: &str, artifact: &str, f: impl Fn(&Workbench) -> String) {
    let args = ExpArgs::parse();
    println!("{}", banner(id, artifact, &args));
    let wb = Workbench::build(&args);
    println!("{}", f(&wb));
}

/// Run an experiment that needs the trained model roster.
pub fn run_model_experiment(
    id: &str,
    artifact: &str,
    f: impl Fn(&Workbench, &TrainedModels) -> String,
) {
    let args = ExpArgs::parse();
    println!("{}", banner(id, artifact, &args));
    let wb = Workbench::build(&args);
    eprintln!("corpus ready; training models...");
    let models = TrainedModels::train(&wb);
    println!("{}", f(&wb, &models));
}
