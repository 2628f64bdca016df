//! # sqp-experiments — the paper's reproduction
//!
//! Every artifact of the paper's evaluation section (§V), and every
//! ablation and extension beyond it, is one function here and one entry of
//! [`EXPERIMENTS`]. The `repro` binary runs entries by name, or `all` of
//! them in table order, on one corpus and one trained model roster:
//!
//! ```text
//! cargo run --release -p sqp-experiments --bin repro -- all --quick
//! cargo run --release -p sqp-experiments --bin repro -- fig10_coverage --seed 7
//! ```
//!
//! Flags: `--train-sessions N --test-sessions N --seed N --reduction N
//! --quick`.

mod data_figs;
mod extras;
mod harness;
mod hmm;
mod model_figs;
mod user_figs;

pub use harness::{ExpArgs, TrainedModels, Workbench};

use std::io::{self, Write};
use Runner::{Data, Models, Toy};

/// What an entry needs before it can run, and the function that runs it.
#[derive(Clone, Copy)]
pub enum Runner {
    /// Neither corpus nor models: the paper's toy example.
    Toy(fn() -> String),
    /// The generated and processed corpus.
    Data(fn(&Workbench) -> String),
    /// The corpus and the trained model roster.
    Models(fn(&Workbench, &TrainedModels) -> String),
}

/// One entry of [`EXPERIMENTS`]: `(name, paper artifact, runner)`. The
/// name is the `repro` subcommand.
pub(crate) type Experiment = (&'static str, &'static str, Runner);

/// Every entry, in the order `repro all` runs them: the paper's figures
/// and tables, then the ablations and extensions.
pub const EXPERIMENTS: &[Experiment] = &[
    (
        "fig01_patterns",
        "Figure 1 (session pattern distribution)",
        Data(data_figs::fig01_patterns),
    ),
    (
        "tab01_pattern_examples",
        "Table I (sample search sequence patterns)",
        Data(data_figs::tab01_pattern_examples),
    ),
    (
        "fig02_entropy",
        "Figure 2 (prediction entropy vs context length)",
        Data(data_figs::fig02_entropy),
    ),
    (
        "fig03_toy_pst",
        "Figure 3 + Table II (the toy PST, reproduced exactly)",
        Toy(data_figs::fig03_toy_pst),
    ),
    (
        "tab04_dataset_stats",
        "Table IV (dataset summary statistics)",
        Data(data_figs::tab04_dataset_stats),
    ),
    (
        "tab05_sample_sessions",
        "Table V (sample sessions)",
        Data(data_figs::tab05_sample_sessions),
    ),
    (
        "fig05_session_histogram",
        "Figure 5 (session count vs session length)",
        Data(data_figs::fig05_session_histogram),
    ),
    (
        "fig06_power_law",
        "Figure 6 (power law of aggregated sessions)",
        Data(data_figs::fig06_power_law),
    ),
    (
        "fig07_reduction",
        "Figure 7 (histogram after data reduction)",
        Data(data_figs::fig07_reduction),
    ),
    (
        "fig08_accuracy_pairwise",
        "Figure 8 (accuracy: pair-wise vs sequence models)",
        Models(model_figs::fig08_accuracy_pairwise),
    ),
    (
        "fig09_accuracy_vmm",
        "Figure 9 (accuracy: MVMM vs VMM)",
        Models(model_figs::fig09_accuracy_vmm),
    ),
    (
        "fig10_coverage",
        "Figure 10 (coverage of various methods)",
        Models(model_figs::fig10_coverage),
    ),
    (
        "fig11_coverage_by_length",
        "Figure 11 (coverage vs context length)",
        Models(model_figs::fig11_coverage_by_length),
    ),
    (
        "tab06_unpredictable_reasons",
        "Table VI (reasons for unpredictable queries)",
        Models(model_figs::tab06_unpredictable_reasons),
    ),
    (
        "tab07_memory",
        "Table VII (memory footprint)",
        Models(model_figs::tab07_memory),
    ),
    (
        "fig12_training_time",
        "Figure 12 (training time scaling)",
        Data(model_figs::fig12_training_time),
    ),
    (
        "tab08_user_labels",
        "Table VIII (user labeling distribution)",
        Models(user_figs::tab08_user_labels),
    ),
    (
        "fig13_user_eval",
        "Figure 13 (user evaluation precision/recall)",
        Models(user_figs::fig13_user_eval),
    ),
    (
        "fig14_precision_positions",
        "Figure 14 (precision over top-5 positions)",
        Models(user_figs::fig14_precision_positions),
    ),
    (
        "ablation_epsilon",
        "Ablation (VMM epsilon sweep)",
        Data(extras::ablation_epsilon),
    ),
    (
        "ablation_mixture",
        "Ablation (MVMM mixture size)",
        Data(extras::ablation_mixture),
    ),
    (
        "ablation_reduction",
        "Ablation (data-reduction threshold)",
        Data(extras::ablation_reduction),
    ),
    (
        "ext_retraining",
        "Extension (retraining cadence, §VI)",
        Data(extras::ext_retraining),
    ),
    (
        "ext_logloss",
        "Extension (Eq. 1 average log-loss)",
        Data(extras::ext_logloss),
    ),
    (
        "ext_list_size",
        "Extension (recommendation list size)",
        Data(extras::ext_list_size),
    ),
    (
        "ext_future_models",
        "Extension (§VI future-work models: HMM, back-off N-gram)",
        Data(extras::ext_future_models),
    ),
];

/// The entries `names` asks for, in the order asked, each once; `all`
/// anywhere among them selects every entry in table order.
pub fn select(names: &[&str]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() {
        return Err("name an experiment, or `all`".to_string());
    }
    if names.contains(&"all") {
        return Ok(EXPERIMENTS.iter().collect());
    }
    let mut picked: Vec<&Experiment> = Vec::new();
    for &name in names {
        let entry = EXPERIMENTS
            .iter()
            .find(|(known, ..)| *known == name)
            .ok_or_else(|| format!("unknown experiment `{name}`"))?;
        if !picked.iter().any(|(known, ..)| *known == name) {
            picked.push(entry);
        }
    }
    Ok(picked)
}

/// How to call `repro`, and the name and artifact of every entry.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: repro [--train-sessions N] [--test-sessions N] [--seed N] [--reduction N] \
         [--quick] <name>... | all\n\nexperiments:\n",
    );
    for (name, artifact, _) in EXPERIMENTS {
        out.push_str(&format!("  {name:<28} {artifact}\n"));
    }
    out
}

/// Run `entries` in order and write each one's table to `out`.
///
/// The corpus is built once, and only if some entry needs it; the model
/// roster is trained once, and only if some entry needs it. Each corpus
/// built is announced by one `## corpus:` line.
pub fn run(args: &ExpArgs, entries: &[&Experiment], out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "## He et al., \"Web Query Recommendation via Sequential Query Prediction\", ICDE 2009"
    )?;
    let needs_corpus = entries.iter().any(|(.., run)| !matches!(run, Toy(_)));
    let needs_models = entries.iter().any(|(.., run)| matches!(run, Models(_)));
    let bench = if needs_corpus {
        eprintln!("generating the corpus...");
        let bench = Workbench::build(args);
        writeln!(
            out,
            "## corpus: {} train / {} test sessions, seed {}, reduction ≤{}",
            args.train_sessions, args.test_sessions, args.seed, args.reduction_threshold
        )?;
        Some(bench)
    } else {
        None
    };
    let models = bench.as_ref().filter(|_| needs_models).map(|bench| {
        eprintln!("corpus ready; training models...");
        TrainedModels::train(bench)
    });

    for (name, artifact, run) in entries {
        let table = match run {
            Toy(f) => f(),
            Data(f) => f(bench.as_ref().expect("built for every corpus entry")),
            Models(f) => f(
                bench.as_ref().expect("built for every corpus entry"),
                models.as_ref().expect("trained for every model entry"),
            ),
        };
        writeln!(out, "\n## {name} — reproducing {artifact}\n\n{table}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_names_are_unique() {
        for (i, (name, ..)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|(earlier, ..)| earlier != name),
                "`{name}` names two entries"
            );
        }
    }

    #[test]
    fn select_takes_names_in_order_once_and_all_in_table_order() {
        let names = |picked: Vec<&Experiment>| -> Vec<&str> {
            picked.iter().map(|(name, ..)| *name).collect()
        };
        assert_eq!(
            names(select(&["fig10_coverage", "fig03_toy_pst", "fig10_coverage"]).unwrap()),
            ["fig10_coverage", "fig03_toy_pst"]
        );
        let all: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
        assert_eq!(names(select(&["fig03_toy_pst", "all"]).unwrap()), all);
    }

    #[test]
    fn an_unknown_or_missing_name_is_refused() {
        let err = select(&["fig10_coverage", "fig99"]).map(drop).unwrap_err();
        assert!(err.contains("fig99"), "{err}");
        assert!(select(&[]).is_err());
    }

    #[test]
    fn the_toy_alone_builds_no_corpus() {
        let mut out = Vec::new();
        run(
            &ExpArgs::default(),
            &select(&["fig03_toy_pst"]).unwrap(),
            &mut out,
        )
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("verdict: EXACT MATCH"), "{out}");
        assert!(!out.contains("## corpus:"), "{out}");
    }

    /// `repro all` on a tiny corpus: every entry runs exactly once, in
    /// table order, on one corpus.
    #[test]
    fn all_runs_every_entry_once_on_one_corpus() {
        let args = ExpArgs {
            train_sessions: 1_500,
            test_sessions: 400,
            quick: true,
            ..ExpArgs::default()
        };
        let mut out = Vec::new();
        run(&args, &select(&["all"]).unwrap(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert_eq!(out.matches("\n## corpus:").count(), 1, "{out}");
        let headers: Vec<&str> = out
            .lines()
            .filter_map(|line| line.strip_prefix("## ")?.split_once(" — reproducing "))
            .map(|(name, _)| name)
            .collect();
        let all: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
        assert_eq!(headers, all);
    }
}
