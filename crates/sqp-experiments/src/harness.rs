//! Shared experiment harness: argument parsing, corpus construction, and the
//! trained model roster reused by all accuracy/coverage experiments.

use sqp_core::{Adjacency, Cooccurrence, Mvmm, MvmmConfig, NGram, Recommender, Vmm, VmmConfig};
use sqp_logsim::{SimConfig, SimulatedLogs};
use sqp_sessions::{PipelineConfig, ProcessedLogs};

/// The `repro` flags: corpus size, seed, reduction threshold and mixture size.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Sessions in the training epoch.
    pub(crate) train_sessions: usize,
    /// Sessions in the test epoch.
    pub(crate) test_sessions: usize,
    /// Master seed.
    pub(crate) seed: u64,
    /// Aggregated-session frequency reduction threshold (drop ≤ t).
    pub(crate) reduction_threshold: u64,
    /// Use the 3-component MVMM instead of the 11-component ε sweep.
    pub(crate) quick: bool,
}

impl Default for ExpArgs {
    fn default() -> Self {
        Self {
            train_sessions: 120_000,
            test_sessions: 30_000,
            seed: 42,
            reduction_threshold: 1,
            quick: false,
        }
    }
}

impl ExpArgs {
    /// Parse `--train-sessions N --test-sessions N --seed N --reduction N
    /// --quick` out of `argv` (the program name excluded), in any order and
    /// mixed with the experiment names, which come back in order. An
    /// unknown flag, a flag without its value or a value that does not
    /// parse is an error: a run never silently falls back to a default.
    pub fn parse(argv: &[String]) -> Result<(Self, Vec<&str>), String> {
        fn value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
            let value = value.ok_or_else(|| format!("`{flag}` needs a value"))?;
            value
                .parse()
                .map_err(|_| format!("`{flag} {value}`: not a non-negative integer"))
        }

        let mut args = Self::default();
        let mut names = Vec::new();
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            match word.as_str() {
                "--train-sessions" => args.train_sessions = value(word, words.next())?,
                "--test-sessions" => args.test_sessions = value(word, words.next())?,
                "--seed" => args.seed = value(word, words.next())?,
                "--reduction" => args.reduction_threshold = value(word, words.next())?,
                "--quick" => args.quick = true,
                flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
                name => names.push(name),
            }
        }
        Ok((args, names))
    }

    /// The simulator configuration for these arguments.
    pub(crate) fn sim_config(&self) -> SimConfig {
        SimConfig {
            train_sessions: self.train_sessions,
            test_sessions: self.test_sessions,
            seed: self.seed,
            ..SimConfig::default()
        }
    }

    /// The pipeline configuration for these arguments.
    pub(crate) fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            reduction_threshold: self.reduction_threshold,
        }
    }
}

/// The generated + processed corpus every experiment works from.
pub struct Workbench {
    /// Raw simulated logs with ground truth.
    pub(crate) logs: SimulatedLogs,
    /// Pipeline output.
    pub(crate) processed: ProcessedLogs,
    /// The arguments that produced this bench.
    pub(crate) args: ExpArgs,
}

impl Workbench {
    /// Generate and process the corpus.
    pub(crate) fn build(args: &ExpArgs) -> Self {
        let logs = sqp_logsim::generate(&args.sim_config());
        let processed = sqp_sessions::process(&logs, &args.pipeline_config());
        Workbench {
            logs,
            processed,
            args: args.clone(),
        }
    }

    /// The weighted training sessions models consume.
    pub(crate) fn train_sessions(&self) -> &[(sqp_common::QuerySeq, u64)] {
        &self.processed.train.aggregated.sessions
    }
}

/// The paper's model roster, trained once and shared by the experiments.
pub struct TrainedModels {
    /// Adjacency baseline.
    pub(crate) adjacency: Adjacency,
    /// Co-occurrence baseline.
    pub(crate) cooccurrence: Cooccurrence,
    /// Variable-length N-gram.
    pub(crate) ngram: NGram,
    /// VMM (0.0) — the full-size PST.
    pub(crate) vmm_00: Vmm,
    /// VMM (0.05) — the paper's sweet spot.
    pub(crate) vmm_005: Vmm,
    /// VMM (0.1).
    pub(crate) vmm_01: Vmm,
    /// The MVMM mixture.
    pub(crate) mvmm: Mvmm,
}

impl TrainedModels {
    /// Train the full roster.
    pub(crate) fn train(wb: &Workbench) -> Self {
        let sessions = wb.train_sessions();
        let mvmm_cfg = if wb.args.quick {
            MvmmConfig::small()
        } else {
            MvmmConfig::epsilon_sweep()
        };
        TrainedModels {
            adjacency: Adjacency::train(sessions),
            cooccurrence: Cooccurrence::train(sessions),
            ngram: NGram::train(sessions),
            vmm_00: Vmm::train(sessions, VmmConfig::with_epsilon(0.0)),
            vmm_005: Vmm::train(sessions, VmmConfig::with_epsilon(0.05)),
            vmm_01: Vmm::train(sessions, VmmConfig::with_epsilon(0.1)),
            mvmm: Mvmm::train(sessions, &mvmm_cfg),
        }
    }

    /// All models as `(label, &dyn Recommender)` in the paper's order.
    pub(crate) fn all(&self) -> Vec<(&str, &dyn Recommender)> {
        vec![
            ("Co-occ.", &self.cooccurrence),
            ("Adj.", &self.adjacency),
            ("N-gram", &self.ngram),
            ("VMM (0)", &self.vmm_00),
            ("VMM (0.05)", &self.vmm_005),
            ("VMM (0.1)", &self.vmm_01),
            ("MVMM", &self.mvmm),
        ]
    }

    /// The §V-H user-study roster (Adj., Co-occ., N-gram, MVMM).
    pub(crate) fn user_study(&self) -> Vec<&dyn Recommender> {
        vec![&self.cooccurrence, &self.adjacency, &self.ngram, &self.mvmm]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<(ExpArgs, Vec<String>), String> {
        let argv: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        let (args, names) = ExpArgs::parse(&argv)?;
        Ok((args, names.into_iter().map(str::to_owned).collect()))
    }

    #[test]
    fn no_flags_are_the_defaults() {
        let (args, names) = parse(&["fig10_coverage"]).unwrap();
        assert_eq!(
            (args.train_sessions, args.test_sessions, args.seed),
            (120_000, 30_000, 42)
        );
        assert_eq!((args.reduction_threshold, args.quick), (1, false));
        assert_eq!(names, ["fig10_coverage"]);
        assert_eq!(parse(&[]).unwrap().1, Vec::<String>::new());
    }

    #[test]
    fn every_flag_is_read_wherever_it_stands() {
        let (args, names) = parse(&[
            "--quick",
            "fig10_coverage",
            "--train-sessions",
            "20000",
            "--test-sessions",
            "5000",
            "tab07_memory",
            "--seed",
            "7",
            "--reduction",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (args.train_sessions, args.test_sessions, args.seed),
            (20_000, 5_000, 7)
        );
        assert_eq!((args.reduction_threshold, args.quick), (0, true));
        assert_eq!(names, ["fig10_coverage", "tab07_memory"]);
    }

    #[test]
    fn an_unknown_flag_is_an_error() {
        let err = parse(&["--sed", "7", "all"]).unwrap_err();
        assert!(err.contains("--sed"), "{err}");
    }

    #[test]
    fn a_missing_value_is_an_error() {
        let err = parse(&["all", "--seed"]).unwrap_err();
        assert!(
            err.contains("--seed") && err.contains("needs a value"),
            "{err}"
        );
    }

    #[test]
    fn an_unparsable_value_is_an_error() {
        for words in [
            ["--seed", "abc"],
            ["--train-sessions", "-5"],
            ["--reduction", "1.5"],
        ] {
            let err = parse(&words).unwrap_err();
            assert!(err.contains(words[0]) && err.contains(words[1]), "{err}");
        }
    }
}
