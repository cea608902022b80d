//! One module per paper artifact. Every module exposes
//! `run(&Opts) -> Vec<Table>`; the binaries print and save the tables.

pub mod ablation;
pub mod alloc_sites;
pub mod codec;
pub mod collectives;
pub mod dim3;
pub mod fig10;
pub mod fig11;
pub mod fig8;
pub mod fig9;
pub mod kernel;
pub mod overlap;
pub mod policy;
pub mod regress;
pub mod repair;
pub mod scale;
pub mod table1;
