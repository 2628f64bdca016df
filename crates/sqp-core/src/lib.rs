//! # sqp-core — sequential query prediction models
//!
//! The paper's contribution: given the queries a user has issued so far in a
//! session, predict the next query and recommend the top-N candidates.
//!
//! Five methods, all behind the [`Recommender`] trait:
//!
//! * [`Adjacency`] — pair-wise baseline: successors of the current query;
//! * [`Cooccurrence`] — pair-wise baseline: session co-occurrences;
//! * [`NGram`] — naive variable-length N-gram over full prefix contexts;
//! * [`Vmm`] — Variable Memory Markov model via a Prediction Suffix Tree
//!   with KL-divergence growth, 1/|Q| smoothing and context escape;
//! * [`Mvmm`] — the paper's Mixture VMM with Gaussian context-disparity
//!   weighting fitted by Newton iteration.
//!
//! ```
//! use sqp_core::{Recommender, Vmm, VmmConfig};
//! use sqp_core::toy::toy_corpus;
//!
//! let vmm = Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(0.1));
//! let recs = vmm.recommend(&sqp_common::seq(&[1, 0]), 1);
//! assert_eq!(recs[0].query, sqp_common::QueryId(1)); // P(q1|q1q0) = 0.7
//! ```

mod adjacency;
mod backoff;
mod cooccurrence;
pub mod counts;
mod model;
mod mvmm;
mod newton;
mod ngram;
mod pairs;
pub mod persist;
mod pst;
pub mod toy;
mod vmm;

pub use adjacency::Adjacency;

pub use backoff::{BackoffConfig, BackoffNgram};
pub use cooccurrence::Cooccurrence;

pub use model::{ModelSpec, Recommender, SequenceScorer, WeightedSessions};
pub use mvmm::{Mvmm, MvmmConfig};
pub use ngram::NGram;

pub use persist::{model_from_bytes, model_to_bytes, ModelKind};
pub use pst::{NodeDist, Pst};
pub use vmm::{Vmm, VmmConfig};
