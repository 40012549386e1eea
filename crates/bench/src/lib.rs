//! # dare-bench — experiment harness shared utilities
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper (see DESIGN.md's per-experiment index). This library holds the
//! pieces the experiment modules share: console table rendering, CSV
//! output under `results/`, and the standard run matrix
//! (policy × scheduler × workload) used by Figs. 7 and 10 and the farm.

#![warn(missing_docs)]

pub mod cli;
pub mod harness;
pub mod plot;

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

pub use harness::{csv_path, results_dir, write_csv, Table};
pub use plot::{all_specs, PlotSpec};
