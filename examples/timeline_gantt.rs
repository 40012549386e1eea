//! Visualize a schedule: run a small trace with event tracing on and
//! render its map-attempt spans as per-node ASCII Gantt charts — vanilla
//! vs DARE side by side, with a node failure in the middle to show
//! re-execution.
//!
//! ```text
//! cargo run --release --example timeline_gantt
//! ```

use dare_repro::core::PolicyKind;
use dare_repro::mapred::{self, SchedulerKind, SimConfig};
use dare_repro::trace::{gantt, task_spans};
use dare_repro::workload::swim::{synthesize, SwimParams};

fn main() {
    let seed = 7;
    let wl = synthesize(
        "demo",
        &SwimParams {
            jobs: 40,
            mean_interarrival_secs: 2.0,
            ..SwimParams::wl1()
        },
        seed,
    );

    for (label, policy) in [
        ("vanilla Hadoop", PolicyKind::Vanilla),
        ("DARE (ElephantTrap p=0.3)", PolicyKind::elephant_default()),
    ] {
        let mut cfg =
            SimConfig::cct(policy, SchedulerKind::Fifo, seed).with_failures(vec![(45, 7)]);
        cfg.record_trace = true;
        let r = mapred::run(cfg, &wl);
        let spans = task_spans(r.trace.as_ref().expect("tracing was on"));
        println!("=== {label} ===");
        println!(
            "locality {:.1}%  gmtt {:.1}s  re-executed {}",
            r.run.job_locality * 100.0,
            r.run.gmtt_secs,
            r.faults.tasks_retried
        );
        print!("{}", gantt::render(&spans, 100));
        println!();
    }
    println!(
        "note the dark (#, local-read) lanes under DARE where vanilla shows o\n\
         (remote reads), and node n7's lane stopping at the injected failure."
    );
}
