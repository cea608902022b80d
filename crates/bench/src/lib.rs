//! # ftsg-bench — regenerating every table and figure of the paper
//!
//! One module per experiment, all behind one binary: `expt <name>
//! [flags]` ([`cli`] parses, [`experiments::EXPERIMENTS`] dispatches),
//! and `expt all` runs the paper's figures and tables in turn. Each
//! experiment returns [`table::Table`]s whose rows correspond to the
//! paper's figure series, printed as aligned text and CSV.
//!
//! | Paper artifact | Module | Command |
//! |---|---|---|
//! | Fig. 8a/8b — failed-list & reconstruction times vs cores | [`experiments::fig8`] | `expt fig8` |
//! | Table I — spawn/shrink/agree/merge wall times, 2 failures | [`experiments::table1`] | `expt table1` |
//! | Fig. 9a/9b — data recovery overheads (OPL & Raijin) | [`experiments::fig9`] | `expt fig9` |
//! | Fig. 10 — approximation error vs #grids lost | [`experiments::fig10`] | `expt fig10` |
//! | Fig. 11a/11b — overall time & parallel efficiency | [`experiments::fig11`] | `expt fig11` |
//!
//! Times are **virtual seconds** from the runtime's calibrated cost models
//! (absolute cluster wall-clock cannot be reproduced on a laptop); errors
//! are real numerics. See EXPERIMENTS.md for paper-vs-measured tables.

pub mod chaos;
pub mod cli;
pub mod experiments;
pub mod opts;
pub mod runner;
pub mod stamp;
pub mod table;

pub use opts::Opts;
pub use table::Table;
