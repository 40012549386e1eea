//! Dynamic replicas are first-order replicas (Section IV-B): the name node
//! counts them toward a block's replication, and recovery reads from them
//! like from any primary copy. This example runs the full engine on the
//! paper's 19-node CCT cluster at a deliberately fragile replication
//! factor of 2 and kills four nodes, one a minute, through a fault plan.
//! Each kill is detected after the missed-heartbeat timeout and the
//! under-replicated blocks are copied back over the network, contending
//! with map fetches. It prints the failure handling each policy saw.
//!
//! ```text
//! cargo run --release --example availability
//! ```

use dare_repro::core::PolicyKind;
use dare_repro::mapred::{self, FaultEvent, FaultPlan, SchedulerKind, SimConfig};
use dare_repro::workload;

fn main() {
    let seed = 99;
    let wl = workload::wl1(seed);
    let kills = [(60, 0), (120, 4), (180, 9), (240, 3)];
    let plan = FaultPlan {
        events: kills
            .iter()
            .map(|&(at_secs, node)| FaultEvent::Kill { at_secs, node })
            .collect(),
        ..FaultPlan::default()
    };
    println!(
        "{} jobs on 19 nodes at replication factor 2; nodes {:?} killed at {:?} s\n",
        wl.num_jobs(),
        kills.map(|(_, n)| n),
        kills.map(|(t, _)| t),
    );

    let mut re_replicated = Vec::new();
    for policy in [PolicyKind::Vanilla, PolicyKind::elephant_default()] {
        let mut cfg = SimConfig::cct(policy, SchedulerKind::Fifo, seed).with_faults(plan.clone());
        cfg.dfs.replication_factor = 2;
        let r = mapred::run(cfg, &wl);
        let f = r.faults;
        println!("{}", policy.label());
        println!(
            "  declared dead {}, blocks re-replicated {} ({:.1} GB), blocks lost {}",
            f.nodes_declared_dead,
            f.blocks_re_replicated,
            f.recovery_bytes as f64 / (1u64 << 30) as f64,
            f.blocks_lost,
        );
        println!(
            "  map attempts retried {}, jobs completed {}, jobs failed {}",
            f.tasks_retried, r.run.jobs, r.run.failed_jobs,
        );
        println!(
            "  dynamic replicas created {}, job locality {:.1}%",
            r.replicas_created,
            r.run.job_locality * 100.0,
        );
        assert_eq!(f.nodes_declared_dead, 4, "every kill is detected");
        assert_eq!(f.blocks_lost, 0, "every block keeps a copy");
        assert_eq!(r.run.failed_jobs, 0, "every job completes");
        re_replicated.push(f.blocks_re_replicated);
    }
    println!(
        "\nno block was lost under either policy; with DARE's dynamic replicas\n\
         counted toward replication, recovery re-replicated {} blocks instead of {}.",
        re_replicated[1], re_replicated[0]
    );
}
