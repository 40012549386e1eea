//! # dare-simcore — discrete-event simulation kernel
//!
//! Foundation crate for the DARE reproduction. Provides the building blocks
//! every other crate in the workspace leans on:
//!
//! * [`time`] — a fixed-point simulated clock ([`SimTime`], [`SimDuration`])
//!   with microsecond resolution, so event ordering is exact and runs are
//!   bit-reproducible (no floating-point clock drift).
//! * [`events`] — a generic [`events::EventQueue`] keyed by
//!   `(time, sequence)` with stable FIFO ordering for simultaneous events,
//!   implemented as a calendar queue / timing wheel.
//! * [`slab`] — generational-index arenas ([`slab::Slab`]) for hot
//!   simulation state (flows, attempts, heartbeat records), replacing
//!   `HashMap` keys with dense, reusable slots.
//! * [`fnv`] — the FNV-1a mixer behind every stable fingerprint.
//! * [`fx`] — a SipHash-free [`std::hash::BuildHasher`] (FxHash-style
//!   multiply-xor) and `HashMap`/`HashSet` aliases for hot point-lookup
//!   tables whose iteration order is never observed.
//! * [`numfmt`] — direct integer and six-decimal float writers for the
//!   byte-stable JSONL and CSV exports (the text `core::fmt` would write).
//! * [`rng`] — deterministic random-number generation with hierarchical
//!   substream derivation, so adding a consumer of randomness in one
//!   subsystem does not perturb another subsystem's stream.
//! * [`dist`] — the probability distributions the paper's models need
//!   (Zipf, lognormal, exponential, bounded normal, Pareto), implemented
//!   from scratch because no external distribution crate is in the
//!   offline dependency set.
//! * [`check`] — a miniature property-testing harness (seeded random
//!   cases with replayable failure seeds), standing in for `proptest`
//!   in the offline build.
//! * [`stats`] — descriptive statistics used by the evaluation: streaming
//!   mean/variance/min/max, percentiles and CDFs, geometric mean, and the
//!   coefficient of variation used by Fig. 11.
//! * [`quantile`] — the P² streaming quantile estimator (O(1) memory
//!   percentiles for long runs).
//! * [`parallel`] — a crossbeam-free scoped-threads `parallel_map` used to
//!   fan parameter sweeps across cores while each simulation run stays
//!   single-threaded and deterministic.
//!
//! Each simulation run in this workspace is a single-threaded DES driven by
//! one seeded RNG; parallelism lives *between* runs (sweeps), never inside
//! one, which is what makes results reproducible to the event.

#![warn(missing_docs)]

pub mod check;
pub mod dist;
pub mod events;
pub mod fnv;
pub mod fx;
pub mod numfmt;
pub mod parallel;
pub mod quantile;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use events::EventQueue;
pub use fx::{FxHashMap, FxHashSet};
pub use rng::DetRng;
pub use slab::{Slab, SlabKey};
pub use time::{SimDuration, SimTime};
