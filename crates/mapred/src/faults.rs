//! Fault-injection plans: deterministic schedules of node failures,
//! transient crashes, rack outages, and slow-node degradation.
//!
//! A [`FaultPlan`] replaces the bare `Vec<(u64, u32)>` failure list the
//! engine used to take. It carries both the *schedule* (a list of
//! [`FaultEvent`]s) and the *failure-handling knobs* (heartbeat-timeout
//! detection, task retry cap, recovery parallelism). Plans can be written
//! by hand or generated from a [`FaultSpec`] with
//! [`FaultPlan::generate_with_blocks`], which draws every random choice
//! from its own named [`DetRng`] substream — so an identical
//! `(spec, seed)` pair always yields an identical plan, and an *empty*
//! plan leaves every other random stream in the simulator untouched.

use dare_net::{NodeId, RackId, Topology};
use dare_simcore::json::{self, Json};
use dare_simcore::DetRng;

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Permanent node kill at `at_secs`: the node's disk contents are
    /// gone, it never heartbeats again, and it is declared dead after the
    /// plan's missed-heartbeat timeout elapses.
    Kill {
        /// Simulation time of the crash, in seconds.
        at_secs: u64,
        /// Node index (must be `< profile.nodes`).
        node: u32,
    },
    /// Transient crash/rejoin pair: the node goes silent at `at_secs`,
    /// keeps its disk, and rejoins `down_secs` later with a block report
    /// reconciling the namenode's stale replica state.
    Crash {
        /// Simulation time of the crash, in seconds.
        at_secs: u64,
        /// Node index (must be `< profile.nodes`).
        node: u32,
        /// Seconds until the node rejoins (must be ≥ 1).
        down_secs: u64,
    },
    /// Every node in a rack goes silent at once (switch failure) and
    /// rejoins `down_secs` later. Nodes keep their disks.
    RackOutage {
        /// Simulation time of the outage, in seconds.
        at_secs: u64,
        /// Rack index (must be a valid rack of the profile's topology).
        rack: u32,
        /// Seconds until the rack comes back (must be ≥ 1).
        down_secs: u64,
    },
    /// Slow-node ("limplock") degradation: from `at_secs` on, the node's
    /// disk reads and map compute run `factor`× slower. If
    /// `duration_secs` is set the node recovers to full speed afterwards.
    Slowdown {
        /// Simulation time the degradation starts, in seconds.
        at_secs: u64,
        /// Node index (must be `< profile.nodes`).
        node: u32,
        /// Slowdown multiplier (must be ≥ 1).
        factor: f64,
        /// Optional duration; `None` means the node stays slow forever.
        duration_secs: Option<u64>,
    },
    /// Silent bit-rot: the replica of `block` resident on `node` becomes
    /// unreadable at `at_secs`, but *nothing notices* until a map-side
    /// read or a background scrub checksums it. If the node holds no
    /// replica of the block at that time the rot lands on unallocated
    /// sectors and the event is a no-op.
    CorruptReplica {
        /// Simulation time the bytes rot, in seconds.
        at_secs: u64,
        /// Node index (must be `< profile.nodes`).
        node: u32,
        /// Absolute block id (must be a valid block of the ingested
        /// workload; checked at engine build time via
        /// [`FaultPlan::validate_blocks`]).
        block: u64,
    },
    /// Network partition: the fabric splits into two rack groups at
    /// `at_secs` and heals `heal_secs` later. The master (JobTracker +
    /// NameNode) lives on side A, so every node in a `racks_b` rack goes
    /// silent from the master's point of view — heartbeats and `net`
    /// flows across the cut are dropped, the partitioned side is declared
    /// dead after the missed-heartbeat timeout, and the heal triggers a
    /// block report reconciling the namenode's stale replica state,
    /// exactly like a transient rejoin. Racks listed in neither group sit
    /// on the master's side. The two groups must be disjoint and
    /// non-empty.
    Partition {
        /// Simulation time of the cut, in seconds.
        at_secs: u64,
        /// Racks on the master's side of the cut.
        racks_a: Vec<u32>,
        /// Racks cut off from the master.
        racks_b: Vec<u32>,
        /// Seconds until the partition heals (must be ≥ 1).
        heal_secs: u64,
    },
    /// Gray failure: from `at_secs` for `secs` seconds the node's disk
    /// reads run `disk_factor`× slower and its NIC delivers
    /// `nic_factor`× less bandwidth, but the node *keeps heartbeating* —
    /// no crash, no declare-dead. Degraded-but-alive nodes stress the
    /// straggler-timeout/speculation path instead of the death path.
    GrayNode {
        /// Simulation time the degradation starts, in seconds.
        at_secs: u64,
        /// Node index (must be `< profile.nodes`).
        node: u32,
        /// Seconds until the node recovers to full speed (must be ≥ 1).
        secs: u64,
        /// Disk-read slowdown multiplier (must be ≥ 1).
        disk_factor: f64,
        /// NIC bandwidth derating multiplier (must be ≥ 1).
        nic_factor: f64,
    },
}

impl FaultEvent {
    /// The node index this event targets, if it targets a single node.
    fn node(&self) -> Option<u32> {
        match *self {
            FaultEvent::Kill { node, .. }
            | FaultEvent::Crash { node, .. }
            | FaultEvent::Slowdown { node, .. }
            | FaultEvent::CorruptReplica { node, .. }
            | FaultEvent::GrayNode { node, .. } => Some(node),
            FaultEvent::RackOutage { .. } | FaultEvent::Partition { .. } => None,
        }
    }

    /// The node crashes this event injects, in injection order. A kill
    /// or a crash downs its node. A rack outage downs every member of
    /// the rack at once (a shared switch or PDU failure). The master
    /// lives on side A of a partition, so to it a partition is a
    /// transient crash of every side-B node: heartbeats and flows across
    /// the cut stop, the missed-heartbeat timeout declares the far side
    /// dead, and the heal rejoins each node with a block report.
    /// `members` lists a rack's nodes. Other events take no node down
    /// (a gray node keeps heartbeating).
    pub(crate) fn node_crashes<'a>(
        &'a self,
        members: impl Fn(u32) -> &'a [NodeId] + 'a,
    ) -> impl Iterator<Item = NodeCrash> + 'a {
        let (at_secs, permanent, down_secs, node, racks) = match self {
            FaultEvent::Kill { at_secs, node } => (*at_secs, true, 0, Some(*node), &[][..]),
            FaultEvent::Crash {
                at_secs,
                node,
                down_secs,
            } => (*at_secs, false, *down_secs, Some(*node), &[][..]),
            FaultEvent::RackOutage {
                at_secs,
                rack,
                down_secs,
            } => (
                *at_secs,
                false,
                *down_secs,
                None,
                std::slice::from_ref(rack),
            ),
            FaultEvent::Partition {
                at_secs,
                racks_b,
                heal_secs,
                ..
            } => (*at_secs, false, *heal_secs, None, &racks_b[..]),
            FaultEvent::Slowdown { .. }
            | FaultEvent::CorruptReplica { .. }
            | FaultEvent::GrayNode { .. } => (0, false, 0, None, &[][..]),
        };
        let rack_nodes = racks.iter().flat_map(move |&r| members(r)).map(|n| n.0);
        node.into_iter()
            .chain(rack_nodes)
            .map(move |node| NodeCrash {
                at_secs,
                node,
                permanent,
                down_secs,
            })
    }
}

/// One node going down: what [`FaultEvent::node_crashes`] expands a
/// kill, crash, rack outage or partition into. The engine injects these
/// and the overlap checks pair their windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeCrash {
    /// Simulation time of the crash, in seconds.
    pub(crate) at_secs: u64,
    /// The node that goes down.
    pub(crate) node: u32,
    /// The disk is wiped and the node never rejoins (a kill).
    pub(crate) permanent: bool,
    /// Seconds until the node rejoins (0 for a kill).
    pub(crate) down_secs: u64,
}

impl NodeCrash {
    /// The node and its unavailability window `[start, end]`
    /// (inclusive). A kill never ends; a transient crash ends at the
    /// rejoin second — the rejoin itself is part of the window, since
    /// another fault landing on the rejoin second would race the block
    /// report.
    fn window(&self) -> (u32, u64, u64) {
        let end = if self.permanent {
            u64::MAX
        } else {
            self.at_secs.saturating_add(self.down_secs)
        };
        (self.node, self.at_secs, end)
    }
}

/// A full fault-injection plan: the event schedule plus the knobs that
/// govern detection, retry, and recovery behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Scheduled faults, in any order (the engine sorts by event time).
    pub events: Vec<FaultEvent>,
    /// A node is declared dead after this many missed heartbeats
    /// (Hadoop's default timeout is 10× the heartbeat interval).
    pub detect_heartbeats: u32,
    /// A task that fails this many attempts fails its whole job
    /// (Hadoop's `mapred.map.max.attempts`, default 4).
    pub max_task_attempts: u32,
    /// Base backoff between retry attempts of the same task, in seconds.
    pub retry_backoff_secs: u64,
    /// Maximum concurrent re-replication transfers. `0` disables
    /// recovery entirely (lost redundancy is never restored).
    pub max_recovery_streams: usize,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            events: Vec::new(),
            detect_heartbeats: 10,
            max_task_attempts: 4,
            retry_backoff_secs: 5,
            max_recovery_streams: 4,
        }
    }
}

/// The largest slowdown or gray factor a plan may carry: 100× the
/// largest one any generator draws (`dare-chaos` draws up to 10). A run
/// at factor 10^9 never finishes: its simulated time, and with it the
/// heartbeat count, grows with the factor.
pub const MAX_FACTOR: f64 = 1000.0;

/// Reject a slowdown or gray factor below 1, above [`MAX_FACTOR`], or NaN.
fn check_factor(what: &str, f: f64) -> Result<(), String> {
    if f < 1.0 || f.is_nan() {
        return Err(format!("{what} {f} must be >= 1"));
    }
    if f > MAX_FACTOR {
        return Err(format!("{what} {f} must be <= {MAX_FACTOR}"));
    }
    Ok(())
}

impl FaultPlan {
    /// True when no faults are scheduled — the engine then behaves
    /// bit-identically to a fault-free build.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validate the plan against a cluster of `nodes` nodes.
    ///
    /// Rejects out-of-range node indices, duplicate permanent kills of
    /// the same node, non-positive outage durations, slowdown and gray
    /// factors outside [1, [`MAX_FACTOR`]], degenerate knob values, and
    /// *overlapping availability faults on the same node* (a crash
    /// landing while the node is already down — or after its permanent
    /// kill — would produce ambiguous epoch ordering in the engine).
    /// Rack indices and rack-vs-node overlaps are checked by
    /// [`FaultPlan::validate_topology`] once the topology is built.
    pub fn validate(&self, nodes: u32) -> Result<(), String> {
        if self.detect_heartbeats == 0 {
            return Err("detect_heartbeats must be >= 1".into());
        }
        if self.max_task_attempts == 0 {
            return Err("max_task_attempts must be >= 1".into());
        }
        let mut killed: Vec<u32> = Vec::new();
        for ev in &self.events {
            if let Some(node) = ev.node() {
                if node >= nodes {
                    return Err(format!(
                        "fault targets node {node} but the cluster has {nodes} nodes"
                    ));
                }
            }
            match *ev {
                FaultEvent::Kill { node, .. } => {
                    if killed.contains(&node) {
                        return Err(format!("node {node} is killed twice"));
                    }
                    killed.push(node);
                }
                FaultEvent::Crash { down_secs, .. } | FaultEvent::RackOutage { down_secs, .. } => {
                    if down_secs == 0 {
                        return Err("transient outage must last >= 1 s".into());
                    }
                }
                FaultEvent::Slowdown { factor, .. } => check_factor("slowdown factor", factor)?,
                FaultEvent::CorruptReplica { .. } => {}
                FaultEvent::Partition {
                    ref racks_a,
                    ref racks_b,
                    heal_secs,
                    ..
                } => {
                    if racks_a.is_empty() || racks_b.is_empty() {
                        return Err("partition sides must both be non-empty".into());
                    }
                    if heal_secs == 0 {
                        return Err("partition must last >= 1 s before healing".into());
                    }
                    if let Some(r) = racks_a.iter().find(|r| racks_b.contains(r)) {
                        return Err(format!(
                            "rack {r} appears on both sides of a partition \
                             (a rack cannot be partitioned from itself)"
                        ));
                    }
                }
                FaultEvent::GrayNode {
                    secs,
                    disk_factor,
                    nic_factor,
                    ..
                } => {
                    if secs == 0 {
                        return Err("gray episode must last >= 1 s".into());
                    }
                    check_factor("gray disk_factor", disk_factor)?;
                    check_factor("gray nic_factor", nic_factor)?;
                }
            }
        }
        // Gray episodes on one node must not overlap each other: the
        // engine keeps a single degradation factor per node, so two
        // concurrent episodes would race their restore events. (Overlap
        // with crash windows stays legal, like `Slowdown`.)
        let gray: Vec<(u32, u64, u64)> = self
            .events
            .iter()
            .filter_map(|ev| match *ev {
                FaultEvent::GrayNode {
                    at_secs,
                    node,
                    secs,
                    ..
                } => Some((node, at_secs, at_secs.saturating_add(secs))),
                _ => None,
            })
            .collect();
        check_overlap(&gray).map_err(|(n, a, b)| {
            format!(
                "node {n} has overlapping gray episodes [{}s, {}s] and [{}s, {}s] — \
                 their restore events would race",
                a.0, a.1, b.0, b.1
            )
        })?;
        // Per-node availability windows must not overlap. Rack outages
        // and partitions expand against real membership in
        // `validate_topology`; here only node-targeted crashes are paired.
        let windows: Vec<(u32, u64, u64)> = self
            .events
            .iter()
            .flat_map(|ev| ev.node_crashes(|_| &[]))
            .map(|c| c.window())
            .collect();
        check_overlap(&windows).map_err(|(n, a, b)| overlap_msg(n, a, b))
    }

    /// Validate rack indices against the built topology's rack count;
    /// the first check of [`FaultPlan::validate_topology`].
    fn validate_racks(&self, racks: u32) -> Result<(), String> {
        for ev in &self.events {
            match *ev {
                FaultEvent::RackOutage { rack, .. } if rack >= racks => {
                    return Err(format!(
                        "rack outage targets rack {rack} but the topology has {racks} racks"
                    ));
                }
                FaultEvent::Partition {
                    ref racks_a,
                    ref racks_b,
                    ..
                } => {
                    for r in racks_a.iter().chain(racks_b) {
                        if *r >= racks {
                            return Err(format!(
                                "partition references rack {r} but the topology has {racks} racks"
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Validate the plan against the built topology: rack indices are in
    /// range, and no two of the plan's node crashes (rack outages and
    /// partition side B expanded to every member node) overlap on a node
    /// (e.g. a `Crash` inside a `RackOutage` window for a node of that
    /// rack).
    pub fn validate_topology(&self, topo: &Topology) -> Result<(), String> {
        self.validate_racks(topo.racks())?;
        let windows: Vec<(u32, u64, u64)> = self.node_crashes(topo).map(|c| c.window()).collect();
        check_overlap(&windows).map_err(|(n, a, b)| overlap_msg(n, a, b))
    }

    /// Every node crash the plan injects on `topo`, in plan order: the
    /// [`FaultEvent::node_crashes`] of each event in turn.
    pub(crate) fn node_crashes<'a>(
        &'a self,
        topo: &'a Topology,
    ) -> impl Iterator<Item = NodeCrash> + 'a {
        self.events
            .iter()
            .flat_map(move |ev| ev.node_crashes(move |r| topo.rack_members(RackId(r))))
    }

    /// Validate corruption targets against the ingested namespace:
    /// every `CorruptReplica` block id must be `< blocks`.
    pub fn validate_blocks(&self, blocks: u64) -> Result<(), String> {
        for ev in &self.events {
            if let FaultEvent::CorruptReplica { block, .. } = *ev {
                if block >= blocks {
                    return Err(format!(
                        "corruption targets block {block} but the workload has {blocks} blocks"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Generate a random plan from a [`FaultSpec`], including silent
    /// corruption events sampled over a namespace of `blocks` blocks.
    ///
    /// The expected corruption count is
    /// `corruption_rate_per_node_hour × nodes × horizon / 3600`, rounded
    /// stochastically (one extra uniform draw settles the fraction); each
    /// event picks a uniform `(time, node, block)` triple. A sampled node
    /// that happens not to hold the block makes that event a no-op, so
    /// the *effective* replica-corruption rate scales with the replica
    /// density `replication_factor / nodes`.
    ///
    /// All draws come from the `"fault-plan"` substream of `seed`, so the
    /// generated schedule is a pure function of `(spec, nodes, racks,
    /// blocks, seed)` and never perturbs the simulator's other random
    /// streams. With a zero corruption rate (or zero blocks) no
    /// corruption is drawn and the plan is identical to the one the
    /// generator produced before corruption existed.
    pub fn generate_with_blocks(
        spec: &FaultSpec,
        nodes: u32,
        racks: u32,
        blocks: u64,
        seed: u64,
    ) -> FaultPlan {
        assert!(nodes > 0, "cannot generate faults for an empty cluster");
        let mut rng = DetRng::new(seed).substream("fault-plan");
        let mut events = Vec::new();
        let horizon = spec.horizon_secs.max(1);

        // Permanent kills target distinct nodes.
        let kills = (spec.kills as usize).min(nodes.saturating_sub(1) as usize);
        let victims = rng.sample_indices(nodes as usize, kills);
        for &v in &victims {
            events.push(FaultEvent::Kill {
                at_secs: 1 + rng.index(horizon as usize) as u64,
                node: v as u32,
            });
        }

        // Transient crashes avoid the permanently-killed nodes.
        let mut pool: Vec<u32> = (0..nodes)
            .filter(|n| !victims.contains(&(*n as usize)))
            .collect();
        for _ in 0..spec.crashes {
            if pool.is_empty() {
                break;
            }
            let node = pool.swap_remove(rng.index(pool.len()));
            let down = 1 + (rng.uniform() * 2.0 * spec.mean_down_secs as f64) as u64;
            events.push(FaultEvent::Crash {
                at_secs: 1 + rng.index(horizon as usize) as u64,
                node,
                down_secs: down,
            });
        }

        for _ in 0..spec.rack_outages {
            if racks == 0 {
                break;
            }
            events.push(FaultEvent::RackOutage {
                at_secs: 1 + rng.index(horizon as usize) as u64,
                rack: rng.index(racks as usize) as u32,
                down_secs: 1 + (rng.uniform() * 2.0 * spec.mean_down_secs as f64) as u64,
            });
        }

        for _ in 0..spec.stragglers {
            events.push(FaultEvent::Slowdown {
                at_secs: 1 + rng.index(horizon as usize) as u64,
                node: rng.index(nodes as usize) as u32,
                factor: spec.straggler_factor.max(1.0),
                duration_secs: Some(1 + (rng.uniform() * 2.0 * spec.mean_down_secs as f64) as u64),
            });
        }

        if blocks > 0 && spec.corruption_rate_per_node_hour > 0.0 {
            let expected =
                spec.corruption_rate_per_node_hour * nodes as f64 * horizon as f64 / 3600.0;
            let mut count = expected.floor() as u64;
            if rng.uniform() < expected.fract() {
                count += 1;
            }
            for _ in 0..count {
                events.push(FaultEvent::CorruptReplica {
                    at_secs: 1 + rng.index(horizon as usize) as u64,
                    node: rng.index(nodes as usize) as u32,
                    block: rng.index(blocks as usize) as u64,
                });
            }
        }

        FaultPlan {
            events,
            ..FaultPlan::default()
        }
    }

    /// [`FaultPlan::generate_with_blocks`] for the cluster `topo`, kept
    /// only once it is a plan the engine accepts there. The generator can
    /// overlap a rack outage with another fault on one of the rack's
    /// nodes, which [`FaultPlan::validate_topology`] rejects. The plan
    /// for `seed` is returned as it is when valid; only an invalid one is
    /// redrawn, from the `"fault-plan-redraw"` substreams of `seed`.
    ///
    /// # Panics
    ///
    /// When no valid plan turns up in 1000 draws: the spec's faults
    /// (almost) never fit on this cluster without overlapping, as with
    /// rack outages and crashes on a one-rack cluster.
    pub fn generate_valid(spec: &FaultSpec, topo: &Topology, blocks: u64, seed: u64) -> FaultPlan {
        const DRAWS: u64 = 1000;
        let root = DetRng::new(seed);
        (0..DRAWS)
            .map(|i| match i {
                0 => seed,
                _ => root.substream_idx("fault-plan-redraw", i).next_u64(),
            })
            .map(|s| Self::generate_with_blocks(spec, topo.nodes(), topo.racks(), blocks, s))
            .find(|p| {
                p.validate(topo.nodes()).is_ok()
                    && p.validate_topology(topo).is_ok()
                    && p.validate_blocks(blocks).is_ok()
            })
            .unwrap_or_else(|| panic!("no valid fault plan for seed {seed} in {DRAWS} draws"))
    }
}

impl FaultPlan {
    /// Serialize the plan to JSON (the `dare-sim --fault-plan` format).
    /// Round-trips exactly through [`FaultPlan::from_json`].
    pub fn to_json(&self) -> String {
        Json::obj([
            ("version", Json::from(1u32)),
            ("detect_heartbeats", self.detect_heartbeats.into()),
            ("max_task_attempts", self.max_task_attempts.into()),
            ("retry_backoff_secs", self.retry_backoff_secs.into()),
            ("max_recovery_streams", self.max_recovery_streams.into()),
            ("events", self.events.iter().map(event_json).collect()),
        ])
        .render()
    }

    /// Parse a plan from the JSON produced by [`FaultPlan::to_json`] (or
    /// written by hand). Knob fields fall back to their defaults when
    /// absent; unknown keys and malformed events are rejected with a
    /// descriptive error so `dare-sim --fault-plan` can surface them.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let v = json::parse(text)?;
        let obj = v.as_obj("fault plan")?;
        let mut plan = FaultPlan::default();
        for (key, val) in obj {
            match key.as_str() {
                "version" => {
                    let ver = val.as_u64(key)?;
                    if ver != 1 {
                        return Err(format!("unsupported fault-plan version {ver}"));
                    }
                }
                "detect_heartbeats" => plan.detect_heartbeats = val.as_u32(key)?,
                "max_task_attempts" => plan.max_task_attempts = val.as_u32(key)?,
                "retry_backoff_secs" => plan.retry_backoff_secs = val.as_u64(key)?,
                "max_recovery_streams" => plan.max_recovery_streams = val.as_u64(key)? as usize,
                "events" => {
                    let events = val.as_arr(key)?.iter().enumerate();
                    plan.events = events
                        .map(|(i, e)| parse_event(e).map_err(|m| format!("events[{i}]: {m}")))
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(format!("unknown fault-plan key \"{other}\"")),
            }
        }
        Ok(plan)
    }
}

/// One event as an object: `kind`, `at_secs`, the node if it has one,
/// then the variant's other fields.
fn event_json(ev: &FaultEvent) -> Json {
    use FaultEvent::*;
    let (kind, at_secs) = match *ev {
        Kill { at_secs, .. } => ("kill", at_secs),
        Crash { at_secs, .. } => ("crash", at_secs),
        RackOutage { at_secs, .. } => ("rack_outage", at_secs),
        Slowdown { at_secs, .. } => ("slowdown", at_secs),
        CorruptReplica { at_secs, .. } => ("corrupt_replica", at_secs),
        Partition { at_secs, .. } => ("partition", at_secs),
        GrayNode { at_secs, .. } => ("gray_node", at_secs),
    };
    let mut f: Vec<(&str, Json)> = vec![("kind", kind.into()), ("at_secs", at_secs.into())];
    f.extend(ev.node().map(|n| ("node", n.into())));
    let racks = |r: &[u32]| r.iter().map(|&r| Json::from(r)).collect();
    match ev {
        Kill { .. } => {}
        Crash { down_secs, .. } => f.push(("down_secs", (*down_secs).into())),
        RackOutage {
            rack, down_secs, ..
        } => {
            f.extend([("rack", (*rack).into()), ("down_secs", (*down_secs).into())]);
        }
        Slowdown {
            factor,
            duration_secs,
            ..
        } => {
            f.push(("factor", Json::float(*factor)));
            f.extend(duration_secs.map(|d| ("duration_secs", d.into())));
        }
        CorruptReplica { block, .. } => f.push(("block", (*block).into())),
        Partition {
            racks_a,
            racks_b,
            heal_secs,
            ..
        } => f.extend([
            ("racks_a", racks(racks_a)),
            ("racks_b", racks(racks_b)),
            ("heal_secs", (*heal_secs).into()),
        ]),
        GrayNode {
            secs,
            disk_factor,
            nic_factor,
            ..
        } => f.extend([
            ("secs", (*secs).into()),
            ("disk_factor", Json::float(*disk_factor)),
            ("nic_factor", Json::float(*nic_factor)),
        ]),
    }
    Json::obj(f)
}

/// Parse one event object; `kind` selects the variant and the remaining
/// keys must exactly match that variant's fields.
fn parse_event(v: &Json) -> Result<FaultEvent, String> {
    use FaultEvent::*;
    let fields = v.as_obj("event")?;
    let kind = v.get("kind").map_err(|_| "event is missing \"kind\"")?;
    let kind = kind.as_str("kind")?;
    let field = |name: &str| {
        v.get(name)
            .map_err(|_| format!("{kind} event is missing \"{name}\""))
    };
    let int = |name: &str| field(name)?.as_u64(name);
    let node = || field("node")?.as_u32("node");
    let factor = |name: &str| field(name)?.as_f64(name);
    let racks = |name: &str| -> Result<Vec<u32>, String> {
        let list = field(name)?.as_arr(name)?;
        list.iter().map(|r| r.as_u32(name)).collect()
    };
    let at_secs = int("at_secs")?;
    let event = match kind {
        "kill" => Kill {
            at_secs,
            node: node()?,
        },
        "crash" => Crash {
            at_secs,
            node: node()?,
            down_secs: int("down_secs")?,
        },
        "rack_outage" => RackOutage {
            at_secs,
            rack: field("rack")?.as_u32("rack")?,
            down_secs: int("down_secs")?,
        },
        "slowdown" => Slowdown {
            at_secs,
            node: node()?,
            factor: factor("factor")?,
            duration_secs: v
                .get("duration_secs")
                .ok()
                .map(|_| int("duration_secs"))
                .transpose()?,
        },
        "corrupt_replica" => CorruptReplica {
            at_secs,
            node: node()?,
            block: int("block")?,
        },
        "partition" => Partition {
            at_secs,
            racks_a: racks("racks_a")?,
            racks_b: racks("racks_b")?,
            heal_secs: int("heal_secs")?,
        },
        "gray_node" => GrayNode {
            at_secs,
            node: node()?,
            secs: int("secs")?,
            disk_factor: factor("disk_factor")?,
            nic_factor: factor("nic_factor")?,
        },
        other => return Err(format!("unknown event kind \"{other}\"")),
    };
    // Every key must be one the writer writes for this event.
    let written = event_json(&event);
    let known = written.as_obj("event")?;
    match fields
        .iter()
        .find(|(k, _)| !known.iter().any(|(w, _)| w == k))
    {
        Some((k, _)) => Err(format!("{kind} event has unknown key \"{k}\"")),
        None => Ok(event),
    }
}

/// Pairwise intersection test over inclusive per-node windows. Returns
/// the offending `(node, window_a, window_b)` on the first overlap.
#[allow(clippy::type_complexity)]
fn check_overlap(windows: &[(u32, u64, u64)]) -> Result<(), (u32, (u64, u64), (u64, u64))> {
    for (i, &(n, s, e)) in windows.iter().enumerate() {
        for &(n2, s2, e2) in &windows[i + 1..] {
            if n == n2 && s <= e2 && s2 <= e {
                return Err((n, (s, e), (s2, e2)));
            }
        }
    }
    Ok(())
}

fn overlap_msg(node: u32, a: (u64, u64), b: (u64, u64)) -> String {
    let show = |w: (u64, u64)| {
        if w.1 == u64::MAX {
            format!("[{}s, ∞)", w.0)
        } else {
            format!("[{}s, {}s]", w.0, w.1)
        }
    };
    format!(
        "node {node} has overlapping fault windows {} and {} — \
         epoch ordering would be ambiguous",
        show(a),
        show(b)
    )
}

/// Shape parameters for [`FaultPlan::generate_with_blocks`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Fault times are drawn uniformly from `[1, horizon_secs]`.
    pub horizon_secs: u64,
    /// Number of permanent node kills (distinct victims; capped at
    /// `nodes - 1` so the cluster never fully dies).
    pub kills: u32,
    /// Number of transient crash/rejoin events.
    pub crashes: u32,
    /// Mean downtime of transient outages, in seconds (actual downtimes
    /// are uniform on roughly `[1, 2 × mean]`).
    pub mean_down_secs: u64,
    /// Number of rack-level outages.
    pub rack_outages: u32,
    /// Number of slow-node degradation episodes.
    pub stragglers: u32,
    /// Slowdown multiplier applied during a straggler episode.
    pub straggler_factor: f64,
    /// Silent-corruption events per node per simulated hour (HDFS-style
    /// bit-rot). Only consumed by [`FaultPlan::generate_with_blocks`];
    /// `0.0` (the default) draws nothing and keeps the generated plan
    /// identical to the pre-corruption generator.
    pub corruption_rate_per_node_hour: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            horizon_secs: 300,
            kills: 1,
            crashes: 2,
            mean_down_secs: 45,
            rack_outages: 0,
            stragglers: 1,
            straggler_factor: 4.0,
            corruption_rate_per_node_hour: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_valid() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert!(p.validate(10).is_ok());
        assert!(p.validate_racks(1).is_ok());
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut p = FaultPlan {
            events: vec![FaultEvent::Kill {
                at_secs: 5,
                node: 10,
            }],
            ..FaultPlan::default()
        };
        assert!(p.validate(10).is_err(), "out-of-range node");

        p.events = vec![
            FaultEvent::Kill {
                at_secs: 5,
                node: 3,
            },
            FaultEvent::Kill {
                at_secs: 9,
                node: 3,
            },
        ];
        assert!(p.validate(10).is_err(), "duplicate kill");

        p.events = vec![FaultEvent::Crash {
            at_secs: 5,
            node: 3,
            down_secs: 0,
        }];
        assert!(p.validate(10).is_err(), "zero downtime");

        p.events = vec![FaultEvent::Slowdown {
            at_secs: 5,
            node: 3,
            factor: 0.5,
            duration_secs: None,
        }];
        assert!(p.validate(10).is_err(), "speedup factor");

        p.events = vec![FaultEvent::RackOutage {
            at_secs: 5,
            rack: 4,
            down_secs: 10,
        }];
        assert!(p.validate(10).is_ok(), "racks not checked here");
        assert!(p.validate_racks(4).is_err(), "out-of-range rack");
        assert!(p.validate_racks(5).is_ok());

        p.events.clear();
        p.detect_heartbeats = 0;
        assert!(p.validate(10).is_err(), "zero detection timeout");
    }

    #[test]
    fn generate_is_deterministic_and_valid() {
        let spec = FaultSpec {
            kills: 2,
            crashes: 3,
            rack_outages: 1,
            stragglers: 2,
            ..FaultSpec::default()
        };
        let a = FaultPlan::generate_with_blocks(&spec, 19, 4, 0, 42);
        let b = FaultPlan::generate_with_blocks(&spec, 19, 4, 0, 42);
        assert_eq!(a, b, "same inputs must give the same plan");
        assert_eq!(a.events.len(), 8);
        assert!(a.validate(19).is_ok());
        assert!(a.validate_racks(4).is_ok());

        let c = FaultPlan::generate_with_blocks(&spec, 19, 4, 0, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn overlapping_node_windows_are_rejected() {
        // Two crashes of the same node with intersecting windows.
        let mut p = FaultPlan {
            events: vec![
                FaultEvent::Crash {
                    at_secs: 10,
                    node: 3,
                    down_secs: 20,
                },
                FaultEvent::Crash {
                    at_secs: 25,
                    node: 3,
                    down_secs: 5,
                },
            ],
            ..FaultPlan::default()
        };
        let err = p.validate(10).unwrap_err();
        assert!(err.contains("overlapping"), "got: {err}");

        // A crash landing exactly on the rejoin second is ambiguous too.
        p.events = vec![
            FaultEvent::Crash {
                at_secs: 10,
                node: 3,
                down_secs: 20,
            },
            FaultEvent::Crash {
                at_secs: 30,
                node: 3,
                down_secs: 5,
            },
        ];
        assert!(p.validate(10).is_err(), "rejoin-second collision");

        // Disjoint windows on the same node are fine.
        p.events = vec![
            FaultEvent::Crash {
                at_secs: 10,
                node: 3,
                down_secs: 20,
            },
            FaultEvent::Crash {
                at_secs: 31,
                node: 3,
                down_secs: 5,
            },
        ];
        assert!(p.validate(10).is_ok());

        // Overlapping windows on *different* nodes are fine.
        p.events = vec![
            FaultEvent::Crash {
                at_secs: 10,
                node: 3,
                down_secs: 20,
            },
            FaultEvent::Crash {
                at_secs: 15,
                node: 4,
                down_secs: 20,
            },
        ];
        assert!(p.validate(10).is_ok());

        // A crash after a permanent kill of the same node can never run.
        p.events = vec![
            FaultEvent::Kill {
                at_secs: 10,
                node: 3,
            },
            FaultEvent::Crash {
                at_secs: 500,
                node: 3,
                down_secs: 5,
            },
        ];
        let err = p.validate(10).unwrap_err();
        assert!(
            err.contains("overlapping"),
            "kill window never closes: {err}"
        );

        // A crash *before* the kill is a legal sequence.
        p.events = vec![
            FaultEvent::Kill {
                at_secs: 100,
                node: 3,
            },
            FaultEvent::Crash {
                at_secs: 10,
                node: 3,
                down_secs: 5,
            },
        ];
        assert!(p.validate(10).is_ok());

        // Slowdowns and corruption open no availability window.
        p.events = vec![
            FaultEvent::Crash {
                at_secs: 10,
                node: 3,
                down_secs: 20,
            },
            FaultEvent::Slowdown {
                at_secs: 15,
                node: 3,
                factor: 2.0,
                duration_secs: None,
            },
            FaultEvent::CorruptReplica {
                at_secs: 15,
                node: 3,
                block: 0,
            },
        ];
        assert!(p.validate(10).is_ok());
    }

    #[test]
    fn crash_inside_rack_outage_window_is_rejected() {
        use dare_net::Topology;
        // Two racks of 5 nodes: rack 0 = nodes 0-4, rack 1 = nodes 5-9.
        let topo = Topology::explicit(vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1], 2);
        let mut p = FaultPlan {
            events: vec![
                FaultEvent::RackOutage {
                    at_secs: 20,
                    rack: 0,
                    down_secs: 30,
                },
                FaultEvent::Crash {
                    at_secs: 30,
                    node: 2,
                    down_secs: 5,
                },
            ],
            ..FaultPlan::default()
        };
        assert!(
            p.validate(10).is_ok(),
            "node-only validation cannot see racks"
        );
        let err = p.validate_topology(&topo).unwrap_err();
        assert!(err.contains("overlapping"), "got: {err}");

        // Same crash against the *other* rack's nodes is fine.
        p.events[1] = FaultEvent::Crash {
            at_secs: 30,
            node: 7,
            down_secs: 5,
        };
        assert!(p.validate_topology(&topo).is_ok());

        // Two outages of the same rack overlapping are rejected.
        p.events = vec![
            FaultEvent::RackOutage {
                at_secs: 20,
                rack: 0,
                down_secs: 30,
            },
            FaultEvent::RackOutage {
                at_secs: 40,
                rack: 0,
                down_secs: 10,
            },
        ];
        assert!(p.validate_topology(&topo).is_err());

        // Overlapping outages of different racks are fine.
        p.events = vec![
            FaultEvent::RackOutage {
                at_secs: 20,
                rack: 0,
                down_secs: 30,
            },
            FaultEvent::RackOutage {
                at_secs: 40,
                rack: 1,
                down_secs: 10,
            },
        ];
        assert!(p.validate_topology(&topo).is_ok());
    }

    #[test]
    fn corruption_generation_is_rate_scaled_and_deterministic() {
        let spec = FaultSpec {
            kills: 0,
            crashes: 0,
            stragglers: 0,
            horizon_secs: 3600,
            corruption_rate_per_node_hour: 0.5,
            ..FaultSpec::default()
        };
        let a = FaultPlan::generate_with_blocks(&spec, 20, 2, 100, 42);
        let b = FaultPlan::generate_with_blocks(&spec, 20, 2, 100, 42);
        assert_eq!(a, b, "same inputs must give the same plan");
        // E[count] = 0.5 × 20 nodes × 1 h = 10.
        let n = a.events.len();
        assert!((9..=11).contains(&n), "expected ~10 corruptions, got {n}");
        for ev in &a.events {
            match *ev {
                FaultEvent::CorruptReplica {
                    at_secs,
                    node,
                    block,
                } => {
                    assert!((1..=3600).contains(&at_secs));
                    assert!(node < 20);
                    assert!(block < 100);
                }
                ref other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(a.validate(20).is_ok());
        assert!(a.validate_blocks(100).is_ok());
        assert!(a.validate_blocks(50).is_err(), "out-of-range block");

        // Zero rate (or zero blocks) must reproduce the legacy stream.
        let legacy_spec = FaultSpec {
            corruption_rate_per_node_hour: 0.0,
            ..spec
        };
        assert_eq!(
            FaultPlan::generate_with_blocks(&legacy_spec, 20, 2, 100, 42),
            FaultPlan::generate_with_blocks(&legacy_spec, 20, 2, 0, 42),
        );
        let full = FaultSpec {
            kills: 1,
            crashes: 2,
            stragglers: 1,
            ..legacy_spec
        };
        assert_eq!(
            FaultPlan::generate_with_blocks(&full, 20, 2, 100, 42),
            FaultPlan::generate_with_blocks(&full, 20, 2, 0, 42),
            "corruption draws come last, so earlier events are unchanged"
        );
    }

    #[test]
    fn json_roundtrip_preserves_every_event_kind() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent::Kill {
                    at_secs: 5,
                    node: 3,
                },
                FaultEvent::Crash {
                    at_secs: 40,
                    node: 7,
                    down_secs: 12,
                },
                FaultEvent::RackOutage {
                    at_secs: 90,
                    rack: 1,
                    down_secs: 30,
                },
                FaultEvent::Slowdown {
                    at_secs: 60,
                    node: 2,
                    factor: 2.5,
                    duration_secs: Some(45),
                },
                FaultEvent::Slowdown {
                    at_secs: 70,
                    node: 4,
                    factor: 4.0,
                    duration_secs: None,
                },
                FaultEvent::CorruptReplica {
                    at_secs: 33,
                    node: 6,
                    block: 17,
                },
            ],
            detect_heartbeats: 7,
            max_task_attempts: 3,
            retry_backoff_secs: 9,
            max_recovery_streams: 2,
        };
        let text = plan.to_json();
        assert_eq!(
            text,
            r#"{
  "version": 1,
  "detect_heartbeats": 7,
  "max_task_attempts": 3,
  "retry_backoff_secs": 9,
  "max_recovery_streams": 2,
  "events": [
    {"kind": "kill", "at_secs": 5, "node": 3},
    {"kind": "crash", "at_secs": 40, "node": 7, "down_secs": 12},
    {"kind": "rack_outage", "at_secs": 90, "rack": 1, "down_secs": 30},
    {"kind": "slowdown", "at_secs": 60, "node": 2, "factor": 2.5, "duration_secs": 45},
    {"kind": "slowdown", "at_secs": 70, "node": 4, "factor": 4},
    {"kind": "corrupt_replica", "at_secs": 33, "node": 6, "block": 17}
  ]
}
"#,
            "the plan text is a file format: pinned byte for byte"
        );
        let back = FaultPlan::from_json(&text).expect("own output parses");
        assert_eq!(back, plan);

        // An empty plan round-trips too.
        let empty = FaultPlan::default();
        assert_eq!(
            empty.to_json(),
            "{\n  \"version\": 1,\n  \"detect_heartbeats\": 10,\n  \"max_task_attempts\": 4,\n  \
             \"retry_backoff_secs\": 5,\n  \"max_recovery_streams\": 4,\n  \"events\": [\n  ]\n}\n"
        );
        assert_eq!(FaultPlan::from_json(&empty.to_json()).unwrap(), empty);

        // The committed chaos counterexample's plan reads back to its bytes.
        let golden = include_str!("../../../tests/golden/chaos-seeded-bug.plan.json");
        assert_eq!(FaultPlan::from_json(golden).unwrap().to_json(), golden);
    }

    #[test]
    fn json_parse_surfaces_descriptive_errors() {
        assert!(FaultPlan::from_json("").is_err());
        assert!(FaultPlan::from_json("[1, 2]")
            .unwrap_err()
            .contains("object"));
        let err = FaultPlan::from_json("{\"evnets\": []}").unwrap_err();
        assert!(err.contains("unknown fault-plan key"), "typo caught: {err}");
        let err = FaultPlan::from_json("{\"events\": [{\"kind\": \"kill\", \"at_secs\": 5}]}")
            .unwrap_err();
        assert!(err.contains("missing \"node\""), "got: {err}");
        let err = FaultPlan::from_json("{\"events\": [{\"kind\": \"melt\", \"at_secs\": 5}]}")
            .unwrap_err();
        assert!(err.contains("unknown event kind"), "got: {err}");
        let err = FaultPlan::from_json(
            "{\"events\": [{\"kind\": \"kill\", \"at_secs\": 5, \"node\": -1}]}",
        )
        .unwrap_err();
        assert!(err.contains("non-negative integer"), "got: {err}");
        let err = FaultPlan::from_json("{\"version\": 9}").unwrap_err();
        assert!(err.contains("version"), "got: {err}");
        let err = FaultPlan::from_json(
            "{\"events\": [{\"kind\": \"kill\", \"at_secs\": 5, \"node\": 1, \"down_secs\": 3}]}",
        )
        .unwrap_err();
        assert!(err.contains("unknown key"), "got: {err}");
        assert!(FaultPlan::from_json("{} trailing").is_err());
    }

    #[test]
    fn partition_and_gray_round_trip_through_json() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent::Partition {
                    at_secs: 40,
                    racks_a: vec![0, 2],
                    racks_b: vec![1, 3],
                    heal_secs: 35,
                },
                FaultEvent::GrayNode {
                    at_secs: 12,
                    node: 5,
                    secs: 90,
                    disk_factor: 8.0,
                    nic_factor: 2.5,
                },
            ],
            ..FaultPlan::default()
        };
        let text = plan.to_json();
        assert_eq!(
            text,
            r#"{
  "version": 1,
  "detect_heartbeats": 10,
  "max_task_attempts": 4,
  "retry_backoff_secs": 5,
  "max_recovery_streams": 4,
  "events": [
    {"kind": "partition", "at_secs": 40, "racks_a": [0, 2], "racks_b": [1, 3], "heal_secs": 35},
    {"kind": "gray_node", "at_secs": 12, "node": 5, "secs": 90, "disk_factor": 8, "nic_factor": 2.5}
  ]
}
"#
        );
        let back = FaultPlan::from_json(&text).expect("own output parses");
        assert_eq!(back, plan);
        assert!(plan.validate(10).is_ok());
        assert!(plan.validate_racks(4).is_ok());
        assert!(plan.validate_racks(3).is_err(), "rack 3 out of range");

        // Required fields are enforced per variant.
        let err = FaultPlan::from_json(
            "{\"events\": [{\"kind\": \"partition\", \"at_secs\": 5, \"racks_a\": [0], \"heal_secs\": 9}]}",
        )
        .unwrap_err();
        assert!(err.contains("missing \"racks_b\""), "got: {err}");
        let err = FaultPlan::from_json(
            "{\"events\": [{\"kind\": \"gray_node\", \"at_secs\": 5, \"node\": 1, \"secs\": 9, \"disk_factor\": 2}]}",
        )
        .unwrap_err();
        assert!(err.contains("missing \"nic_factor\""), "got: {err}");
        let err = FaultPlan::from_json(
            "{\"events\": [{\"kind\": \"partition\", \"at_secs\": 5, \"racks_a\": [0], \"racks_b\": 1, \"heal_secs\": 9}]}",
        )
        .unwrap_err();
        assert!(err.contains("array"), "got: {err}");
    }

    #[test]
    fn self_partition_and_overlapping_gray_are_rejected() {
        // A rack on both sides of the cut is a self-partition.
        let mut p = FaultPlan {
            events: vec![FaultEvent::Partition {
                at_secs: 10,
                racks_a: vec![0, 1],
                racks_b: vec![1, 2],
                heal_secs: 30,
            }],
            ..FaultPlan::default()
        };
        let err = p.validate(10).unwrap_err();
        assert!(err.contains("both sides"), "got: {err}");

        // Empty sides and zero heal are degenerate.
        p.events = vec![FaultEvent::Partition {
            at_secs: 10,
            racks_a: vec![],
            racks_b: vec![1],
            heal_secs: 30,
        }];
        assert!(p.validate(10).is_err(), "empty side A");
        p.events = vec![FaultEvent::Partition {
            at_secs: 10,
            racks_a: vec![0],
            racks_b: vec![1],
            heal_secs: 0,
        }];
        assert!(p.validate(10).is_err(), "zero heal");

        // Overlapping gray episodes on one node race their restores.
        p.events = vec![
            FaultEvent::GrayNode {
                at_secs: 10,
                node: 3,
                secs: 20,
                disk_factor: 4.0,
                nic_factor: 1.0,
            },
            FaultEvent::GrayNode {
                at_secs: 25,
                node: 3,
                secs: 10,
                disk_factor: 2.0,
                nic_factor: 2.0,
            },
        ];
        let err = p.validate(10).unwrap_err();
        assert!(err.contains("gray"), "got: {err}");

        // The same two episodes on different nodes are fine, as is a gray
        // episode overlapping a crash window (the node is down anyway).
        p.events = vec![
            FaultEvent::GrayNode {
                at_secs: 10,
                node: 3,
                secs: 20,
                disk_factor: 4.0,
                nic_factor: 1.0,
            },
            FaultEvent::GrayNode {
                at_secs: 25,
                node: 4,
                secs: 10,
                disk_factor: 2.0,
                nic_factor: 2.0,
            },
            FaultEvent::Crash {
                at_secs: 15,
                node: 3,
                down_secs: 5,
            },
        ];
        assert!(p.validate(10).is_ok());

        // Sub-unity factors are speedups, not degradations.
        p.events = vec![FaultEvent::GrayNode {
            at_secs: 10,
            node: 3,
            secs: 20,
            disk_factor: 0.5,
            nic_factor: 1.0,
        }];
        assert!(p.validate(10).is_err(), "disk speedup rejected");
    }

    #[test]
    fn factors_are_bounded_above() {
        let slow = |factor| FaultEvent::Slowdown {
            at_secs: 5,
            node: 3,
            factor,
            duration_secs: None,
        };
        let gray = |disk_factor, nic_factor| FaultEvent::GrayNode {
            at_secs: 5,
            node: 3,
            secs: 9,
            disk_factor,
            nic_factor,
        };
        let mut p = FaultPlan::default();
        for f in [MAX_FACTOR, 1e9, f64::INFINITY] {
            for ev in [slow(f), gray(f, 2.0), gray(2.0, f)] {
                p.events = vec![ev];
                let got = p.validate(10);
                assert_eq!(got.is_ok(), f == MAX_FACTOR, "{:?}: {got:?}", p.events);
                assert!(got.is_ok() || got.unwrap_err().contains("must be <= 1000"));
            }
        }
    }

    #[test]
    fn partition_windows_expand_against_topology() {
        use dare_net::Topology;
        // Two racks of 5 nodes: rack 0 = nodes 0-4, rack 1 = nodes 5-9.
        let topo = Topology::explicit(vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1], 2);
        let mut p = FaultPlan {
            events: vec![
                FaultEvent::Partition {
                    at_secs: 20,
                    racks_a: vec![0],
                    racks_b: vec![1],
                    heal_secs: 30,
                },
                FaultEvent::Crash {
                    at_secs: 30,
                    node: 7,
                    down_secs: 5,
                },
            ],
            ..FaultPlan::default()
        };
        assert!(
            p.validate(10).is_ok(),
            "node-only validation cannot see racks"
        );
        let err = p.validate_topology(&topo).unwrap_err();
        assert!(err.contains("overlapping"), "crash inside the cut: {err}");

        // The same crash on the master's side is fine — side A stays up.
        p.events[1] = FaultEvent::Crash {
            at_secs: 30,
            node: 2,
            down_secs: 5,
        };
        assert!(p.validate_topology(&topo).is_ok());
    }

    #[test]
    fn generate_valid_keeps_a_valid_plan_and_redraws_an_invalid_one() {
        // One rack of 6 nodes: a rack outage takes every node down, so it
        // overlaps any crash or kill that starts before it ends.
        let topo = Topology::single_rack(6);
        let spec = FaultSpec {
            horizon_secs: 200,
            kills: 0,
            crashes: 2,
            rack_outages: 1,
            ..FaultSpec::default()
        };
        let valid = |p: &FaultPlan| p.validate(6).is_ok() && p.validate_topology(&topo).is_ok();
        let (good, bad): (Vec<u64>, Vec<u64>) =
            (0..64).partition(|&s| valid(&FaultPlan::generate_with_blocks(&spec, 6, 1, 0, s)));
        assert!(
            !good.is_empty() && !bad.is_empty(),
            "the spec draws both kinds"
        );
        for s in good {
            assert_eq!(
                FaultPlan::generate_valid(&spec, &topo, 0, s),
                FaultPlan::generate_with_blocks(&spec, 6, 1, 0, s),
                "seed {s}: a valid plan is kept as drawn"
            );
        }
        for s in bad {
            let p = FaultPlan::generate_valid(&spec, &topo, 0, s);
            assert!(valid(&p), "seed {s}: redrawn plan is valid");
            assert_eq!(
                p,
                FaultPlan::generate_valid(&spec, &topo, 0, s),
                "deterministic"
            );
        }
    }

    #[test]
    fn generate_kills_distinct_nodes_and_crashes_avoid_them() {
        let spec = FaultSpec {
            kills: 4,
            crashes: 6,
            ..FaultSpec::default()
        };
        let p = FaultPlan::generate_with_blocks(&spec, 12, 2, 0, 7);
        let mut killed = Vec::new();
        let mut crashed = Vec::new();
        for ev in &p.events {
            match *ev {
                FaultEvent::Kill { node, .. } => killed.push(node),
                FaultEvent::Crash { node, .. } => crashed.push(node),
                _ => {}
            }
        }
        let mut k = killed.clone();
        k.sort_unstable();
        k.dedup();
        assert_eq!(k.len(), killed.len(), "kills must be distinct");
        for c in &crashed {
            assert!(!killed.contains(c), "crash targets a killed node");
        }
    }

    #[test]
    fn crash_expansion_lists_every_downed_node_in_injection_order() {
        // Racks are not contiguous: rack 0 = nodes 1, 3, 6; rack 1 =
        // nodes 2, 5; rack 2 = nodes 0, 4; rack 3 = node 7.
        let topo = Topology::explicit(vec![2, 0, 1, 0, 2, 1, 0, 3], 2);
        let plan = FaultPlan {
            events: vec![
                FaultEvent::Kill {
                    at_secs: 10,
                    node: 5,
                },
                FaultEvent::Slowdown {
                    at_secs: 12,
                    node: 1,
                    factor: 2.0,
                    duration_secs: None,
                },
                FaultEvent::RackOutage {
                    at_secs: 20,
                    rack: 0,
                    down_secs: 15,
                },
                FaultEvent::Crash {
                    at_secs: 50,
                    node: 2,
                    down_secs: 7,
                },
                FaultEvent::Partition {
                    at_secs: 80,
                    racks_a: vec![1],
                    racks_b: vec![2, 0],
                    heal_secs: 9,
                },
                FaultEvent::GrayNode {
                    at_secs: 90,
                    node: 7,
                    secs: 5,
                    disk_factor: 2.0,
                    nic_factor: 2.0,
                },
            ],
            ..FaultPlan::default()
        };
        plan.validate(8).unwrap();
        plan.validate_topology(&topo).unwrap();
        let crashes: Vec<(u64, u32, bool, u64)> = plan
            .node_crashes(&topo)
            .map(|c| (c.at_secs, c.node, c.permanent, c.down_secs))
            .collect();
        // (time, node, permanent, down): plan order, then rack-member
        // order, then side-B rack order.
        assert_eq!(
            crashes,
            [
                (10, 5, true, 0),
                (20, 1, false, 15),
                (20, 3, false, 15),
                (20, 6, false, 15),
                (50, 2, false, 7),
                (80, 0, false, 9),
                (80, 4, false, 9),
                (80, 1, false, 9),
                (80, 3, false, 9),
                (80, 6, false, 9),
            ]
        );
    }
}
