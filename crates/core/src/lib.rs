//! # difftune
//!
//! DiffTune: learning CPU simulator parameters with learned differentiable
//! surrogates — the paper's primary contribution.
//!
//! Given a parameterized simulator `f(θ, x)` (from `difftune-sim`), a dataset
//! of ground-truth measurements `(x, y)` (from `difftune-bhive` or any other
//! source), and a description of the parameters (a [`ParamSpec`]), DiffTune:
//!
//! 1. samples random parameter tables from the spec's sampling distributions
//!    and builds a *simulated* dataset `(θ, x, f(θ, x))`
//!    ([`Session::generate_dataset`]);
//! 2. trains a differentiable surrogate `f̂ ≈ f` on that dataset (Equation 2 —
//!    [`Session::fit_surrogate`]);
//! 3. freezes the surrogate and optimizes the parameter table θ by gradient
//!    descent against the ground-truth dataset (Equation 3 —
//!    [`Session::optimize_table`]);
//! 4. extracts the learned floating-point table back into valid integer
//!    simulator parameters ([`Session::finish`]).
//!
//! # The session API
//!
//! [`DiffTuneBuilder`] validates a [`DiffTuneConfig`] plus the run inputs
//! into a [`Session`] — malformed input comes back as a typed
//! [`DiffTuneError`], never a panic. The session runs the pipeline stage by
//! stage (or all at once with [`Session::run_to_completion`]), streams
//! [`ProgressEvent`]s to registered [`RunObserver`]s, and can snapshot a
//! serde-backed [`RunCheckpoint`] between stages so a killed run resumes
//! mid-pipeline with a bit-identical result.
//!
//! ```no_run
//! use difftune::{DiffTuneBuilder, DiffTuneConfig, ParamSpec, ProgressEvent};
//! use difftune_bhive::{CorpusConfig, Dataset};
//! use difftune_cpu::{default_params, Microarch};
//! use difftune_sim::McaSimulator;
//!
//! let dataset = Dataset::build(Microarch::Haswell, &CorpusConfig::default());
//! let train: Vec<_> = dataset.train().iter().map(|r| (r.block.clone(), r.timing)).collect();
//! let simulator = McaSimulator::default();
//! let defaults = default_params(Microarch::Haswell);
//!
//! let mut session = DiffTuneBuilder::new(DiffTuneConfig::default())
//!     .build(&simulator, &ParamSpec::llvm_mca(), &defaults, &train)?;
//! session.add_observer(Box::new(|event: &ProgressEvent| {
//!     if let ProgressEvent::SurrogateEpoch { epoch, mean_loss, .. } = event {
//!         println!("surrogate epoch {epoch}: loss {mean_loss:.4}");
//!     }
//! }));
//!
//! session.generate_dataset()?;
//! session.fit_surrogate()?;
//! let checkpoint = session.checkpoint(); // resumable from here
//! session.optimize_table()?;
//! let result = session.finish()?;
//! println!("learned dispatch width: {}", result.learned.dispatch_width);
//! # let _ = checkpoint;
//! # Ok::<(), difftune::DiffTuneError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend_id;
mod env;
mod error;
mod observer;
mod pipeline;
mod sampling;
mod session;
mod simdata;
mod spec;
mod theta;

pub use backend_id::{BackendId, SimulatorKind, Source, SpecKind};
pub use env::{apply_env_threads, threads_from_env, THREADS_ENV_VAR};
pub use error::DiffTuneError;
pub use observer::{ProgressEvent, RecordingObserver, RunObserver, Stage};
pub use pipeline::{build_surrogate, DiffTuneConfig, SurrogateKind};
pub use sampling::sample_table;
pub use session::{DiffTuneBuilder, DiffTuneResult, RunCheckpoint, Session};
pub use simdata::{
    generate_simulated_dataset, generate_simulated_dataset_observed, GENERATION_RANGE,
};
pub use spec::{ParamSpec, SamplingRanges};
pub use theta::ThetaTable;
