//! The workloads: every input is generated here from the workload
//! seed, before any timing starts, and the simulator only ever receives
//! the finished `Workload`, `FaultPlan` and `SimConfig` values.

use dare_chaos::{sample_plan, ChaosConfig, ChaosEnv};
use dare_core::PolicyKind;
use dare_mapred::config::SpeculationConfig;
use dare_mapred::{FaultPlan, FaultSpec, ScannerConfig, SchedulerKind, SimConfig, TelemetryConfig};
use dare_net::ClusterProfile;
use dare_simcore::{DetRng, SimDuration};
use dare_workload::swim::{scale_to_cluster, synthesize, SwimParams};
use dare_workload::Workload;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["paper-matrix", "traced-faults", "chaos-campaign"];

/// Full size for measurements, tiny for the smoke test.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One simulation of a workload.
pub struct Sim {
    pub cfg: SimConfig,
    /// Index into [`Case::inputs`].
    pub input: usize,
    /// Runs a DARE policy; the outcome metrics are taken over these.
    pub dare: bool,
    /// After the run, export and re-analyse the trace and export the
    /// telemetry (the observation path `traced-faults` measures).
    pub export: bool,
    /// A vanilla reference for `gmtt_vs_vanilla` on a workload that does
    /// not measure vanilla runs: simulated once per process, before the
    /// timed rounds, and outside every host-time metric.
    pub reference: bool,
}

/// A workload: its generated inputs and the simulations it runs.
pub struct Case {
    pub name: &'static str,
    pub inputs: Vec<Workload>,
    pub sims: Vec<Sim>,
    /// `(dare, vanilla)` simulation pairs that differ only in policy.
    pub pairs: Vec<(usize, usize)>,
    /// Chaos campaigns run before the simulations.
    pub campaigns: Vec<ChaosConfig>,
}

/// The seed of replicate `idx` of a workload.
fn sub_seed(seed: u64, label: &str, idx: u64) -> u64 {
    DetRng::new(seed).substream_idx(label, idx).next_u64()
}

pub fn build(name: &str, seed: u64, size: Size) -> Option<Case> {
    Some(match name {
        "paper-matrix" => paper_matrix(seed, size),
        "traced-faults" => traced_faults(seed, size),
        "chaos-campaign" => chaos_campaign(seed, size),
        _ => return None,
    })
}

/// Adds a DARE simulation and its vanilla twin as a reference.
fn push_pair(case: &mut Case, dare: SimConfig, input: usize, export: bool) {
    let mut vanilla = dare.clone();
    vanilla.policy = PolicyKind::Vanilla;
    vanilla.record_trace = false;
    vanilla.telemetry = None;
    let d = case.sims.len();
    case.sims.push(Sim {
        cfg: dare,
        input,
        dare: true,
        export,
        reference: false,
    });
    case.sims.push(Sim {
        cfg: vanilla,
        input,
        dare: false,
        export: false,
        reference: true,
    });
    case.pairs.push((d, d + 1));
}

fn empty(name: &'static str) -> Case {
    Case {
        name,
        inputs: Vec::new(),
        sims: Vec::new(),
        pairs: Vec::new(),
        campaigns: Vec::new(),
    }
}

/// The paper's evaluation: {CCT, EC2} × {wl1, wl2} × {vanilla, DARE-LRU,
/// ElephantTrap p=0.3} × {FIFO, Fair} over many replicate seeds, with
/// staggered per-node heartbeats. A replicate's cost depends on the sizes
/// of its most popular files, so a round sums many replicates to keep its
/// cost steady across seeds.
fn paper_matrix(seed: u64, size: Size) -> Case {
    let (reps, jobs) = match size {
        Size::Full => (20, 500),
        Size::Tiny => (1, 20),
    };
    let mut case = empty("paper-matrix");
    for r in 0..reps {
        let s = sub_seed(seed, "paper-matrix", r);
        for params in [SwimParams::wl1(), SwimParams::wl2()] {
            let input = case.inputs.len();
            case.inputs
                .push(synthesize("swim", &SwimParams { jobs, ..params }, s));
            for profile in [ClusterProfile::cct(), ClusterProfile::ec2()] {
                for scheduler in [SchedulerKind::Fifo, SchedulerKind::fair_default()] {
                    let vanilla = case.sims.len();
                    let mut base = SimConfig::cct(PolicyKind::Vanilla, scheduler, s);
                    base.profile = profile.clone();
                    case.sims.push(Sim {
                        cfg: base.clone(),
                        input,
                        dare: false,
                        export: false,
                        reference: false,
                    });
                    for policy in [PolicyKind::GreedyLru, PolicyKind::elephant_default()] {
                        let cfg = SimConfig {
                            policy,
                            ..base.clone()
                        };
                        case.pairs.push((case.sims.len(), vanilla));
                        case.sims.push(Sim {
                            cfg,
                            input,
                            dare: true,
                            export: false,
                            reference: false,
                        });
                    }
                }
            }
        }
    }
    case
}

/// DARE-LRU + Fair at 500 nodes on SWIM wl2 (periodic whale jobs) under a
/// generated fault plan, with the block scanner, speculation, trace and
/// telemetry on; each DARE run is followed by the xray analysis and the
/// JSONL exports and round trip. One plan's kills and rack outage swing a
/// run's cost severalfold, so a round runs many replicates, each with its
/// own input and plan.
fn traced_faults(seed: u64, size: Size) -> Case {
    let (nodes, jobs, reps) = match size {
        Size::Full => (500, 125, 128),
        Size::Tiny => (60, 30, 1),
    };
    let mut case = empty("traced-faults");
    for r in 0..reps {
        let s = sub_seed(seed, "traced-faults", r);
        // Files grow with the cluster as in the paper's 128 files on 99
        // nodes, so the 20% per-node budget holds whole blocks.
        let files = (nodes as usize * 128).div_ceil(99);
        let params = SwimParams {
            jobs,
            files,
            ..SwimParams::wl2()
        };
        let wl = synthesize("wl2", &scale_to_cluster(params, 99, nodes), s);

        let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::fair_default(), s)
            .with_scanner(ScannerConfig {
                period: SimDuration::from_secs(15),
                bytes_per_sec: 32 << 20,
            })
            .with_speculation(SpeculationConfig::default())
            .with_trace()
            .with_telemetry(TelemetryConfig::default());
        cfg.profile = ClusterProfile::scale(nodes);
        let topo = cfg
            .profile
            .build_topology(&mut DetRng::new(s).substream("topology"));
        let blocks: u64 = wl
            .files
            .iter()
            .map(|f| f.size_bytes.div_ceil(cfg.dfs.block_size))
            .sum();
        // The `light` level of the resilience experiment with the `rot-low`
        // corruption rate of the durability experiment, over the same
        // horizon (the first three quarters of the arrivals).
        let span = wl.jobs.last().map_or(0, |j| j.arrival.as_secs_f64() as u64);
        let spec = FaultSpec {
            horizon_secs: span.max(30) * 3 / 4,
            kills: 1,
            crashes: 4,
            mean_down_secs: 60,
            rack_outages: 1,
            stragglers: 2,
            straggler_factor: 3.0,
            corruption_rate_per_node_hour: 20.0,
        };
        // The generator may overlap two outages on one node, which is not
        // a valid plan; draw again from the next plan seed until one is.
        let plan = (0..)
            .map(|i| {
                FaultPlan::generate_with_blocks(
                    &spec,
                    nodes,
                    topo.racks(),
                    blocks,
                    sub_seed(s, "fault-plan", i),
                )
            })
            .find(|p| {
                p.validate(nodes).is_ok()
                    && p.validate_topology(&topo).is_ok()
                    && p.validate_blocks(blocks).is_ok()
            })
            .expect("an unbounded search ends at the first valid plan");
        let input = case.inputs.len();
        case.inputs.push(wl);
        push_pair(&mut case, cfg.with_faults(plan), input, true);
    }
    case
}

/// `dare_chaos::fuzz` campaigns over sampled plans from the full fault
/// alphabet on 50 nodes, every invariant armed. A campaign fuzzes one
/// workload, so a round runs several campaigns with their own seeds.
/// Each plan is then replayed unarmed under DARE-LRU, which gives the
/// workload's DARE outcome under faults, with an unarmed vanilla replay
/// as its reference.
fn chaos_campaign(seed: u64, size: Size) -> Case {
    let (nodes, campaigns, runs) = match size {
        Size::Full => (50, 96, 2),
        Size::Tiny => (12, 1, 4),
    };
    let mut case = empty("chaos-campaign");
    for c in 0..campaigns {
        let cfg = ChaosConfig {
            nodes,
            seed: sub_seed(seed, "chaos-campaign", c),
            budget_runs: runs,
            budget_secs: 0,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
            ..ChaosConfig::default()
        };
        let env = ChaosEnv::new(&cfg);
        let input = case.inputs.len();
        case.inputs.push(env.workload.clone());
        for run in 0..cfg.budget_runs {
            let plan = sample_plan(&cfg, &env, run);
            let mut sim = dare_chaos::run::sim_config(&cfg, &plan, false);
            sim.check_invariants = false;
            sim.policy = PolicyKind::GreedyLru;
            push_pair(&mut case, sim, input, false);
        }
        case.campaigns.push(cfg);
    }
    case
}
