//! # dare-bench — experiment harness shared utilities
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper (see DESIGN.md's per-experiment index). This library holds the
//! pieces the experiment modules share: console table rendering, CSV
//! output under `results/`, and the standard run matrix
//! (policy × scheduler × workload) used by Figs. 7 and 10. The farm
//! experiment's fixed matrix, engine runs and merged outputs are
//! [`spec`], [`run`] and [`merge`].

#![warn(missing_docs)]

pub mod cli;
pub mod harness;
pub mod merge;
pub mod microbench;
pub mod plot;
pub mod run;
pub mod spec;

pub mod experiments {
    //! One module per paper artifact.
    pub mod ablation;
    pub mod attribution;
    pub mod durability;
    pub mod farm;
    pub mod fig1;
    pub mod fig10;
    pub mod fig11;
    pub mod fig2;
    pub mod fig3;
    pub mod fig45;
    pub mod fig6;
    pub mod fig7;
    pub mod fig8;
    pub mod fig9;
    pub mod resilience;
    pub mod tables;
    pub mod telemetry_smoke;
    pub mod throughput;
    pub mod trace_smoke;
    pub mod verify;
}

pub use harness::{csv_path, write_csv, Table};
pub use plot::{all_specs, PlotSpec};
