//! # difftune-opentuner
//!
//! A black-box global optimization baseline in the style of OpenTuner
//! (Ansel et al. 2014), the comparison point the paper uses in Section V-C.
//!
//! OpenTuner is an iterative tuner that uses a multi-armed bandit to pick, on
//! every iteration, the most promising search technique from an ensemble
//! spanning convex and non-convex methods. This crate reproduces that
//! structure generically over a bounded vector of real-valued parameters:
//!
//! * [`SearchSpace`] — per-dimension lower/upper bounds;
//! * [`Technique`] — the ensemble members: random search, greedy hill
//!   climbing, simulated annealing, differential evolution, and pattern
//!   search;
//! * [`BanditTuner`] — a UCB1 bandit over the ensemble with a fixed
//!   evaluation budget (the paper gives OpenTuner the same number of
//!   evaluations DiffTune uses end to end).
//!
//! The tuner knows nothing about CPU simulators; the benchmark harness wires
//! its objective to "llvm-mca error on a sample of training blocks".
//!
//! # Example
//!
//! ```
//! use difftune_opentuner::{BanditTuner, SearchSpace, TunerConfig};
//!
//! // Minimize the distance to a target point inside the box [0, 10]^4.
//! let space = SearchSpace::uniform(4, 0.0, 10.0);
//! let target = [1.0, 2.0, 3.0, 4.0];
//! let mut tuner = BanditTuner::new(space, TunerConfig { seed: 7, ..TunerConfig::default() });
//! let result = tuner.optimize(
//!     |x| x.iter().zip(&target).map(|(a, b)| (a - b).powi(2)).sum(),
//!     500,
//! );
//! assert!(result.best_cost < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod techniques;
mod tuner;

pub use techniques::{
    DifferentialEvolution, HillClimb, PatternSearch, RandomSearch, SimulatedAnnealing, Technique,
};
pub use tuner::{BanditTuner, SearchSpace, TuneResult, TunerConfig};
