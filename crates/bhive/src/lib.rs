//! # difftune-bhive
//!
//! A synthetic BHive-style corpus and measurement pipeline.
//!
//! The paper's dataset is BHive (Chen et al. 2019): 287,639 basic blocks
//! sampled from real applications, each timed on real hardware. This crate
//! reproduces the *shape* of that dataset against the reference machines in
//! `difftune-cpu`:
//!
//! * [`corpus`] generates blocks per source application (OpenBLAS, Redis,
//!   SQLite, ...), with per-application instruction mixes and a BHive-like
//!   block length distribution;
//! * [`Category`] reproduces Chen et al.'s hardware-resource categories
//!   (Scalar, Vec, Scalar/Vec, Ld, St, Ld/St);
//! * [`Dataset`] measures every block on a reference machine, splits the
//!   corpus 80/10/10 into block-wise-disjoint train/validation/test sets, and
//!   reports Table III-style summary statistics;
//! * [`metrics`] implements the paper's error metrics: mean absolute
//!   percentage error and Kendall's tau rank correlation.
//!
//! # Example
//!
//! ```
//! use difftune_bhive::{CorpusConfig, Dataset};
//! use difftune_cpu::Microarch;
//!
//! let config = CorpusConfig { num_blocks: 200, seed: 0, ..CorpusConfig::default() };
//! let dataset = Dataset::build(Microarch::Haswell, &config);
//! assert_eq!(dataset.train().len() + dataset.validation().len() + dataset.test().len(), dataset.len());
//! assert!(dataset.summary().mean_block_len > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corpus;
mod dataset;
pub mod metrics;

pub use corpus::{Application, Category, CorpusConfig};
pub use dataset::{Dataset, DatasetSummary, Record, Split};
