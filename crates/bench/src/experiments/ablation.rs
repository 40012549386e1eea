//! Ablations beyond the paper's figures, probing the design choices
//! DESIGN.md calls out:
//!
//! * **writes** — the Section I claim: ElephantTrap matches greedy-LRU
//!   locality at roughly half the disk writes (replica creations).
//! * **lfu** — Section IV's LRU-vs-LFU remark: profile both eviction
//!   disciplines on both workloads.
//! * **delay** — interaction of DARE with the Fair scheduler's delay
//!   thresholds (how much scheduler patience is still needed once data is
//!   replicated adaptively?).
//!
//! Every ablation replicates over `seeds` derived seeds; per-seed ratios
//! (writes vs LRU) are computed within a seed before averaging.

use crate::harness::{metric, replicate_experiment, RowOrder};
use dare_core::PolicyKind;
use dare_mapred::{SchedulerKind, SimConfig};
use dare_sched::fair::FairConfig;
use dare_simcore::parallel::parallel_map;

/// ElephantTrap vs LRU: locality per disk write.
pub fn writes(seed: u64, seeds: u32) {
    let st = replicate_experiment(
        "Ablation: thrashing — locality per disk write (wl2, FIFO; paper claim: ET ~= LRU locality at ~50% of the writes)",
        &["policy", "workload"],
        &[
            metric("job_locality", 3),
            metric("replicas_disk_writes", 0),
            metric("evictions", 0),
            metric("writes_vs_lru_pct", 0),
        ],
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |seed| {
            let runs: Vec<(String, PolicyKind)> = vec![
                ("lru".into(), PolicyKind::GreedyLru),
                ("et-p0.9".into(), PolicyKind::ElephantTrap { p: 0.9, threshold: 1 }),
                ("et-p0.5".into(), PolicyKind::ElephantTrap { p: 0.5, threshold: 1 }),
                ("et-p0.3".into(), PolicyKind::ElephantTrap { p: 0.3, threshold: 1 }),
            ];
            let mut rows = Vec::new();
            for wl in [dare_workload::wl1(seed), dare_workload::wl2(seed)] {
                let results = parallel_map(runs.clone(), |(label, policy)| {
                    let cfg = SimConfig::cct(policy, SchedulerKind::Fifo, seed);
                    (label, dare_mapred::run(cfg, &wl))
                });
                let lru_writes = results
                    .iter()
                    .find(|(l, _)| l == "lru")
                    .map(|(_, r)| r.replicas_created)
                    .expect("lru run present") as f64;
                for (label, r) in &results {
                    rows.push((
                        vec![label.clone(), wl.name.clone()],
                        vec![
                            r.run.job_locality,
                            r.replicas_created as f64,
                            r.evictions as f64,
                            r.replicas_created as f64 / lru_writes.max(1.0) * 100.0,
                        ],
                    ));
                }
            }
            rows
        },
    );
    st.emit("ablation_writes");
}

/// LRU vs LFU eviction (greedy admission for both).
pub fn lfu(seed: u64, seeds: u32) {
    let st = replicate_experiment(
        "Ablation: LRU vs LFU eviction (Section IV: 'choice should be made after profiling')",
        &["workload", "scheduler", "policy"],
        &[
            metric("job_locality", 3),
            metric("gmtt_s", 1),
            metric("evictions", 0),
        ],
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |seed| {
            let mut rows = Vec::new();
            for wl in [dare_workload::wl1(seed), dare_workload::wl2(seed)] {
                let mut runs = Vec::new();
                for &sched in &[SchedulerKind::Fifo, SchedulerKind::fair_default()] {
                    for &policy in &[PolicyKind::GreedyLru, PolicyKind::Lfu] {
                        runs.push((sched, policy));
                    }
                }
                let results = parallel_map(runs, |(sched, policy)| {
                    let cfg = SimConfig::cct(policy, sched, seed);
                    (sched, policy, dare_mapred::run(cfg, &wl))
                });
                for (sched, policy, r) in &results {
                    rows.push((
                        vec![wl.name.clone(), sched.label().to_string(), policy.label()],
                        vec![r.run.job_locality, r.run.gmtt_secs, r.evictions as f64],
                    ));
                }
            }
            rows
        },
    );
    st.emit("ablation_lfu");
}

/// Delay-scheduling skip-threshold sweep, with and without DARE.
pub fn delay(seed: u64, seeds: u32) {
    let st = replicate_experiment(
        "Ablation: delay-scheduling patience (d1; d2=2*d1) x DARE (wl2) — DARE shrinks the patience needed for locality",
        &["d1", "policy"],
        &[
            metric("job_locality", 3),
            metric("gmtt_s", 1),
            metric("slowdown", 3),
        ],
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |seed| {
            let wl = dare_workload::wl2(seed);
            let ds: Vec<u32> = vec![0, 1, 2, 4, 8, 16];
            let mut runs = Vec::new();
            for &d in &ds {
                for &policy in &[PolicyKind::Vanilla, PolicyKind::elephant_default()] {
                    runs.push((d, policy));
                }
            }
            parallel_map(runs, |(d, policy)| {
                let sched = SchedulerKind::Fair(FairConfig { d1: d, d2: 2 * d });
                let cfg = SimConfig::cct(policy, sched, seed);
                let r = dare_mapred::run(cfg, &wl);
                (
                    vec![d.to_string(), policy.label()],
                    vec![r.run.job_locality, r.run.gmtt_secs, r.run.mean_slowdown],
                )
            })
        },
    );
    st.emit("ablation_delay");
}

/// DARE (reactive) vs Scarlett (proactive, epoch-based) — the Section VI
/// comparison made measurable. On a *drifting* workload (hot set rotating
/// every ~40 jobs) the reactive scheme tracks the hot set at zero network
/// cost, while the epoch scheme both lags (long epochs) and pays explicit
/// replication traffic.
pub fn scarlett(seed: u64, seeds: u32) {
    use dare_mapred::scarlett::ScarlettConfig;
    use dare_simcore::SimDuration;
    use dare_workload::swim::{synthesize, SwimParams};

    #[derive(Clone, Copy)]
    enum Scheme {
        Vanilla,
        Dare,
        Scarlett(u64),
    }
    let schemes = [
        ("vanilla", Scheme::Vanilla),
        ("dare-et(p=0.3)", Scheme::Dare),
        ("scarlett(30s)", Scheme::Scarlett(30)),
        ("scarlett(300s)", Scheme::Scarlett(300)),
    ];

    let st = replicate_experiment(
        "Ablation: reactive DARE vs proactive Scarlett (FIFO) — locality, turnaround, and network cost",
        &["workload", "scheme"],
        &[
            metric("job_locality", 3),
            metric("gmtt_s", 1),
            metric("fetch_GB", 1),
            metric("proactive_GB", 1),
            metric("total_net_GB", 1),
        ],
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |seed| {
            let stable = dare_workload::wl1(seed);
            let drifting = synthesize(
                "wl1-drifting",
                &SwimParams {
                    phase_jobs: 40,
                    ..SwimParams::wl1()
                },
                seed,
            );
            let mut rows = Vec::new();
            for wl in [&stable, &drifting] {
                let results = parallel_map(schemes.to_vec(), |(label, scheme)| {
                    let cfg = match scheme {
                        Scheme::Vanilla => {
                            SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, seed)
                        }
                        Scheme::Dare => SimConfig::cct(
                            PolicyKind::elephant_default(),
                            SchedulerKind::Fifo,
                            seed,
                        ),
                        Scheme::Scarlett(epoch) => {
                            SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, seed)
                                .with_scarlett(ScarlettConfig {
                                    epoch: SimDuration::from_secs(epoch),
                                    accesses_per_replica: 3.0,
                                    max_extra_replicas: 18,
                                })
                        }
                    };
                    (label, dare_mapred::run(cfg, wl))
                });
                const GB: f64 = (1u64 << 30) as f64;
                for (label, r) in &results {
                    let fetch = r.remote_bytes_fetched as f64 / GB;
                    let pro = r.proactive.map(|p| p.bytes_moved).unwrap_or(0) as f64 / GB;
                    rows.push((
                        vec![wl.name.clone(), label.to_string()],
                        vec![
                            r.run.job_locality,
                            r.run.gmtt_secs,
                            fetch,
                            pro,
                            fetch + pro,
                        ],
                    ));
                }
            }
            rows
        },
    );
    st.emit("ablation_scarlett");
}

/// Resilience: node failures mid-trace and Hadoop-style speculative
/// execution, with and without DARE. Dynamic replicas both survive
/// failures (first-order replicas) and give re-executed/backup attempts
/// more local placements.
pub fn resilience(seed: u64, seeds: u32) {
    #[derive(Clone, Copy)]
    struct Case {
        label: &'static str,
        policy: PolicyKind,
        failures: bool,
        speculation: bool,
    }
    let cases = vec![
        Case {
            label: "vanilla",
            policy: PolicyKind::Vanilla,
            failures: false,
            speculation: false,
        },
        Case {
            label: "vanilla+fail",
            policy: PolicyKind::Vanilla,
            failures: true,
            speculation: false,
        },
        Case {
            label: "dare+fail",
            policy: PolicyKind::elephant_default(),
            failures: true,
            speculation: false,
        },
        Case {
            label: "vanilla+fail+spec",
            policy: PolicyKind::Vanilla,
            failures: true,
            speculation: true,
        },
        Case {
            label: "dare+fail+spec",
            policy: PolicyKind::elephant_default(),
            failures: true,
            speculation: true,
        },
    ];
    let st = replicate_experiment(
        "Ablation: resilience — 3 node failures mid-trace, optional speculation (wl2, FIFO)",
        &["case"],
        &[
            metric("job_locality", 3),
            metric("gmtt_s", 1),
            metric("slowdown", 3),
            metric("reexecuted", 0),
            metric("spec_launches", 0),
            metric("spec_wins", 0),
        ],
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |seed| {
            let wl = dare_workload::wl2(seed);
            parallel_map(cases.clone(), |c| {
                let mut cfg = SimConfig::cct(c.policy, SchedulerKind::Fifo, seed);
                if c.failures {
                    cfg = cfg.with_failures(vec![(60, 2), (150, 9), (260, 15)]);
                }
                if c.speculation {
                    cfg = cfg.with_speculation(Default::default());
                }
                let r = dare_mapred::run(cfg, &wl);
                (
                    vec![c.label.to_string()],
                    vec![
                        r.run.job_locality,
                        r.run.gmtt_secs,
                        r.run.mean_slowdown,
                        r.faults.tasks_retried as f64,
                        r.speculative_launches as f64,
                        r.speculative_wins as f64,
                    ],
                )
            })
        },
    );
    st.emit("ablation_resilience");
}

/// Scheduler agnosticism: DARE must help FIFO, Fair, *and* a scheduler
/// the paper never saw (simplified Capacity) — Section IV: "our scheme is
/// scheduler agnostic".
pub fn schedulers(seed: u64, seeds: u32) {
    let st = replicate_experiment(
        "Ablation: scheduler agnosticism — DARE vs vanilla under three schedulers (wl2)",
        &["scheduler", "policy"],
        &[
            metric("job_locality", 3),
            metric("gmtt_s", 1),
            metric("slowdown", 3),
        ],
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |seed| {
            let wl = dare_workload::wl2(seed);
            let scheds = [
                SchedulerKind::Fifo,
                SchedulerKind::fair_default(),
                SchedulerKind::Capacity(3),
            ];
            let mut runs = Vec::new();
            for &sched in &scheds {
                for &policy in &[PolicyKind::Vanilla, PolicyKind::elephant_default()] {
                    runs.push((sched, policy));
                }
            }
            parallel_map(runs, |(sched, policy)| {
                let cfg = SimConfig::cct(policy, sched, seed);
                let r = dare_mapred::run(cfg, &wl);
                (
                    vec![sched.label().to_string(), policy.label()],
                    vec![r.run.job_locality, r.run.gmtt_secs, r.run.mean_slowdown],
                )
            })
        },
    );
    st.emit("ablation_schedulers");
}

/// Tail latency: DARE's effect on the slowdown *distribution*, not just
/// the mean — remote reads under contention are the straggler source, so
/// replication compresses the p95/p99 tail hardest. (The paper reports
/// mean slowdown; the tail is where users feel it.)
pub fn tail(seed: u64, seeds: u32) {
    let st = replicate_experiment(
        "Ablation: slowdown distribution — mean vs median vs p95 (FIFO)",
        &["workload", "policy"],
        &[
            metric("mean", 2),
            metric("p50", 2),
            metric("p95", 2),
            metric("p95_over_p50", 2),
        ],
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |seed| {
            let mut rows = Vec::new();
            for wl in [dare_workload::wl1(seed), dare_workload::wl2(seed)] {
                let runs: Vec<(&str, PolicyKind)> = vec![
                    ("vanilla", PolicyKind::Vanilla),
                    ("lru", PolicyKind::GreedyLru),
                    ("et-p0.3", PolicyKind::elephant_default()),
                ];
                let results = parallel_map(runs, |(label, policy)| {
                    let cfg = SimConfig::cct(policy, SchedulerKind::Fifo, seed);
                    (label, dare_mapred::run(cfg, &wl))
                });
                for (label, r) in &results {
                    rows.push((
                        vec![wl.name.clone(), label.to_string()],
                        vec![
                            r.run.mean_slowdown,
                            r.run.p50_slowdown,
                            r.run.p95_slowdown,
                            r.run.p95_slowdown / r.run.p50_slowdown.max(1e-9),
                        ],
                    ));
                }
            }
            rows
        },
    );
    st.emit("ablation_tail");
}

/// All seven ablations.
pub fn run(seed: u64, seeds: u32) {
    writes(seed, seeds);
    lfu(seed, seeds);
    delay(seed, seeds);
    scarlett(seed, seeds);
    resilience(seed, seeds);
    schedulers(seed, seeds);
    tail(seed, seeds);
}
