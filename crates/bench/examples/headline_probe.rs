//! Scaled-down probe of the 10k-node headline scenario with the engine
//! self-profiler enabled: attributes wall time to subsystem arms so
//! headline-scale slowdowns can be localized without a full 1M-task run.
//!
//! ```text
//! cargo run --release -p dare-bench --example headline_probe -- <jobs> <blocks_per_file>
//! ```

use dare_bench::experiments::throughput::scale_workload;
use dare_core::PolicyKind;
use dare_mapred::{SchedulerKind, SimConfig};
use dare_net::ClusterProfile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs: u32 = args.first().and_then(|s| s.parse().ok()).unwrap_or(100);
    let blocks: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1000);
    let map_secs: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(15);
    let wl = scale_workload(100, blocks, jobs, 600, map_secs);

    let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::fair_default(), 20110926)
        .with_batched_heartbeats();
    cfg.profile = ClusterProfile::scale(10_000);
    cfg.self_profile = true;

    let tasks = blocks * jobs as u64;
    println!("[probe] 10000 nodes, {jobs} jobs x {blocks} maps = {tasks} map tasks");
    let t0 = std::time::Instant::now();
    let engine = dare_mapred::Engine::new(cfg, &wl);
    let setup = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let r = engine.run();
    let wall = t1.elapsed().as_secs_f64();
    println!(
        "[probe] setup {setup:.2}s, run {wall:.2}s, {} logical events = {:.0} ev/s, makespan {:.0}s, {} jobs done, {} flow re-rates",
        r.logical_events,
        r.logical_events as f64 / wall,
        r.run.makespan_secs,
        r.run.jobs,
        r.flow_rerates
    );
    if let Some(p) = &r.profile {
        println!("[probe] {}", p.summary());
    }
}
