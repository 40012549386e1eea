use super::lifecycle::reduce_duration;
use super::observe::popularity_cv_of;
use super::{check, Engine, Ev, JobState, TelemetryState};
use crate::config::SimConfig;
use crate::faults::FaultEvent;
use crate::nodes::NodeTable;
use crate::scarlett::ScarlettState;
use dare_core::Policy;
use dare_dfs::{DefaultPlacement, Dfs};
use dare_net::flow::FlowSim;
use dare_net::MB;
use dare_sched::{JobQueue, Locality, Scheduler};
use dare_simcore::{DetRng, EventQueue, FxHashMap, FxHashSet, SimDuration, SimTime};
use dare_telemetry::Profiler;
use dare_trace::Trace;
use dare_workload::Workload;

impl Engine {
    /// Validate the inputs, then build the engine, driven by `scheduler`
    /// or, when `None`, by the indexed scheduler `cfg.scheduler` names
    /// (made only once the config has passed, since it panics on invalid
    /// parameters).
    pub(super) fn build(
        cfg: SimConfig,
        workload: &Workload,
        scheduler: Option<Scheduler>,
    ) -> Result<Self, crate::SimError> {
        let invalid =
            |what: &str, e: String| crate::SimError::InvalidInput(format!("invalid {what}: {e}"));
        // The plan first, so its errors are reported as the plan's.
        cfg.faults
            .validate(cfg.profile.nodes)
            .map_err(|e| invalid("fault plan", e))?;
        cfg.validate()
            .map_err(|e| invalid("simulation config", e))?;
        workload.validate().map_err(|e| invalid("workload", e))?;
        let mut scheduler = scheduler.unwrap_or_else(|| Scheduler::new(cfg.scheduler));
        let root = DetRng::new(cfg.seed);

        let topo = cfg.topology();
        let n = topo.nodes() as usize;
        cfg.faults
            .validate_topology(&topo)
            .map_err(|e| invalid("fault plan", e))?;

        let mut cap_rng = root.substream("capacities");
        let disk_caps_mbps = cfg.profile.sample_disk_capacities(&mut cap_rng);
        let nic_caps = cfg.profile.sample_nic_capacities(&mut cap_rng);
        let flows = FlowSim::new(nic_caps, cfg.profile.oversub);

        let mut dfs = Dfs::new(cfg.dfs.clone(), topo);

        // Ingest the dataset at t = 0.
        let mut ingest_rng = root.substream("ingest");
        let mut file_ids = Vec::with_capacity(workload.files.len());
        for f in &workload.files {
            let fid = dfs.create_file(
                SimTime::ZERO,
                f.name.clone(),
                f.size_bytes,
                None,
                &DefaultPlacement,
                &mut ingest_rng,
                false,
            );
            file_ids.push(fid);
        }
        // Corruption targets reference concrete block ids, known only now
        // that the dataset is ingested.
        cfg.faults
            .validate_blocks(dfs.namenode().num_blocks() as u64)
            .map_err(|e| invalid("fault plan", e))?;

        // Access popularity per file (fraction of jobs reading it) — the
        // blockPopularity of the Fig. 11 metric.
        let mut file_popularity = vec![0.0f64; workload.files.len()];
        for j in &workload.jobs {
            file_popularity[j.file] += 1.0 / workload.jobs.len() as f64;
        }

        // Per-node dynamic-replica budget.
        let budget_bytes = ((dfs.total_primary_bytes() as f64 / n as f64) * cfg.budget_frac) as u64;
        let policies = vec![Policy::new(cfg.policy, budget_bytes); n];
        let policy_rngs: Vec<DetRng> = (0..n)
            .map(|i| root.substream_idx("policy-node", i as u64))
            .collect();

        if cfg.record_trace {
            scheduler.set_tracing(true);
        }

        // Job states with analytic dedicated-cluster runtimes.
        let total_slots = cfg.profile.total_map_slots().max(1);
        let total_reduce_slots = (cfg.profile.nodes * cfg.profile.reduce_slots_per_node).max(1);
        let disk_mean = cfg.profile.disk.mean();
        let net_mean = cfg.profile.network.mean();
        let jobs: Vec<JobState> = workload
            .jobs
            .iter()
            .map(|j| {
                let blocks = dfs.namenode().file(file_ids[j.file]).blocks.clone();
                let maps = blocks.len() as u64;
                let waves = maps.div_ceil(total_slots as u64);
                let read_secs = cfg.dfs.block_size as f64 / (disk_mean * MB as f64);
                let per_map = SimDuration::from_secs_f64(read_secs) + j.map_compute;
                let per_reducer = reduce_duration(
                    j.output_bytes,
                    j.reduces,
                    j.map_compute,
                    net_mean,
                    disk_mean,
                    cfg.dfs.replication_factor,
                );
                let reduce_waves = (j.reduces as u64).div_ceil(total_reduce_slots as u64);
                let dedicated =
                    per_map.mul_f64(waves as f64) + per_reducer.mul_f64(reduce_waves as f64);
                JobState {
                    arrival: j.arrival,
                    attempts: vec![0; blocks.len()],
                    task_class: vec![Locality::Remote; blocks.len()],
                    done: vec![false; blocks.len()],
                    failed: false,
                    started_at: vec![SimTime::ZERO; blocks.len()],
                    live_attempts: vec![0; blocks.len()],
                    oldest_live_start: SimTime::ZERO,
                    completed_secs: 0.0,
                    blocks,
                    map_compute: j.map_compute,
                    output_bytes: j.output_bytes,
                    reduces: j.reduces,
                    reduces_done: 0,
                    maps_done: 0,
                    node_local: 0,
                    rack_local: 0,
                    remote: 0,
                    dedicated,
                }
            })
            .collect();

        let mut events = EventQueue::new();
        for (i, j) in jobs.iter().enumerate() {
            events.push(j.arrival, Ev::JobArrival(i as u32));
        }
        if cfg.batched_heartbeats {
            // One timer drives every node's heartbeat (no per-node chains,
            // no jitter) — the million-task configuration.
            events.push(SimTime::ZERO, Ev::HeartbeatTick);
        } else {
            // Staggered periodic heartbeats.
            let hb = cfg.heartbeat;
            for i in 0..n {
                let offset = SimDuration::from_micros(hb.as_micros() * i as u64 / n as u64);
                events.push(
                    SimTime::ZERO + offset,
                    Ev::Heartbeat {
                        node: i as u32,
                        periodic: true,
                        epoch: 0,
                    },
                );
            }
        }

        let cv_before = popularity_cv_of(&dfs, &file_popularity);
        let mut nodes = NodeTable::new(
            n,
            cfg.profile.map_slots_per_node,
            cfg.profile.reduce_slots_per_node,
        );
        // Armed runs log every write from here on; the first check
        // covers every node and block.
        let marks = check::Marks::new(cfg.check_invariants, dfs.namenode().num_blocks());
        if cfg.check_invariants {
            nodes.log_touches();
            dfs.log_touches(true);
        }

        let scarlett = cfg.scarlett.map(|sc| {
            events.push(SimTime::ZERO + sc.epoch, Ev::Epoch);
            ScarlettState::new(sc, workload.files.len())
        });
        // Expand the fault plan into concrete injection events.
        for ev in &cfg.faults.events {
            let members = |r| dfs.topology().rack_members(dare_net::RackId(r));
            for c in ev.node_crashes(members) {
                events.push(
                    SimTime::from_secs(c.at_secs),
                    Ev::NodeCrash {
                        node: c.node,
                        permanent: c.permanent,
                        down_secs: c.down_secs,
                    },
                );
            }
            match *ev {
                FaultEvent::Slowdown {
                    at_secs,
                    node,
                    factor,
                    duration_secs,
                } => {
                    events.push(SimTime::from_secs(at_secs), Ev::NodeDegrade(node, factor));
                    if let Some(d) = duration_secs {
                        events.push(SimTime::from_secs(at_secs + d), Ev::NodeDegrade(node, 1.0));
                    }
                }
                FaultEvent::CorruptReplica {
                    at_secs,
                    node,
                    block,
                } => {
                    events.push(
                        SimTime::from_secs(at_secs),
                        Ev::CorruptReplica { node, block },
                    );
                }
                FaultEvent::GrayNode {
                    at_secs,
                    node,
                    secs,
                    disk_factor,
                    nic_factor,
                } => {
                    events.push(
                        SimTime::from_secs(at_secs),
                        Ev::NodeGray {
                            node,
                            disk: disk_factor,
                            nic: nic_factor,
                        },
                    );
                    events.push(
                        SimTime::from_secs(at_secs + secs),
                        Ev::NodeGray {
                            node,
                            disk: 1.0,
                            nic: 1.0,
                        },
                    );
                }
                // Pushed above as node crashes.
                FaultEvent::Kill { .. }
                | FaultEvent::Crash { .. }
                | FaultEvent::RackOutage { .. }
                | FaultEvent::Partition { .. } => {}
            }
        }
        // Staggered background scrub passes (one chain per node).
        if let Some(sc) = cfg.scanner {
            for i in 0..n {
                let offset = SimDuration::from_micros(sc.period.as_micros() * i as u64 / n as u64);
                events.push(
                    SimTime::ZERO + offset,
                    Ev::ScrubStart {
                        node: i as u32,
                        epoch: 0,
                    },
                );
            }
        }

        Ok(Engine {
            workload_name: workload.name.clone(),
            dfs,
            flows,
            scheduler,
            queue: JobQueue::with_job_capacity(jobs.len()),
            policies,
            policy_rngs,
            jobs,
            events,
            now: SimTime::ZERO,
            nodes,
            pending_reduces: std::collections::VecDeque::new(),
            active_local_reads: vec![0; n],
            disk_caps_mbps,
            fetches: FxHashMap::default(),
            next_netcheck: None,
            batch_cancelled: Vec::new(),
            jitter_rng: root.substream("task-jitter"),
            fetch_rng: root.substream("fetch-pick"),
            rtt_rng: root.substream("rtt"),
            promoted_scratch: Vec::new(),
            src_same_rack: Vec::new(),
            src_any: Vec::new(),
            file_popularity,
            finished: 0,
            outcomes: Vec::new(),
            cv_before,
            remote_bytes_fetched: 0,
            budget_bytes,
            inflight_proactive: vec![0; n],
            scarlett,
            proactive_flows: FxHashMap::default(),
            node_epoch: vec![0; n],
            recovery_q: std::collections::BTreeSet::new(),
            recovery_queued: FxHashSet::default(),
            recovery_seq: 0,
            recovery_flows: FxHashMap::default(),
            recovery_rng: root.substream("recovery"),
            lost_blocks: FxHashSet::default(),
            stats: dare_metrics::FaultStats::default(),
            scrubbing: vec![false; n],
            repair_started: FxHashMap::default(),
            slow_factor: vec![1.0; n],
            gray_disk: vec![1.0; n],
            gray_nic: vec![1.0; n],
            speculative_launches: 0,
            speculative_wins: 0,
            spec_due: None,
            tracer: cfg.record_trace.then(Trace::default),
            skip_scratch: Vec::new(),
            telem: {
                let corruption = cfg.scanner.is_some()
                    || cfg
                        .faults
                        .events
                        .iter()
                        .any(|e| matches!(e, FaultEvent::CorruptReplica { .. }));
                cfg.telemetry
                    .map(|tc| Box::new(TelemetryState::new(tc.interval, corruption)))
            },
            profiler: cfg.self_profile.then(|| Box::new(Profiler::new())),
            logical_events: 0,
            sched_offers: 0,
            marks,
            cfg,
        })
    }
}
