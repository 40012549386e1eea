//! Flow-level network simulation with per-endpoint fair sharing.
//!
//! Remote block fetches (the thing DARE piggybacks on) contend for NIC
//! bandwidth: when five map tasks on one node all read remote data, each
//! fetch gets a fraction of the NIC. Packet-level simulation would be
//! overkill; we use the classic *flow-level* model:
//!
//! * each active flow has a rate = `min(tx_share at src, rx_share at dst)`,
//!   where a node's tx (rx) share is its NIC capacity divided by the number
//!   of flows transmitting (receiving) there — full-duplex NICs, so tx and
//!   rx pools are independent;
//! * cross-rack flows are additionally divided by the fabric
//!   **oversubscription factor** (Section V-B notes fabrics are frequently
//!   oversubscribed across racks);
//! * rates are piecewise-constant between flow arrivals/departures; on each
//!   change the simulator advances all residual byte counts and recomputes.
//!
//! The MapReduce engine drives this by scheduling a "network check" event at
//! [`FlowSim::next_completion`] and re-checking whenever flows start.

use crate::topology::NodeId;
use dare_simcore::{FxHashMap, SimTime, Slab, SlabKey};

/// Identifier of an active flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Residual bytes below which a flow counts as finished (guards against
/// floating-point dust after rate integration).
const EPSILON_BYTES: f64 = 1e-3;

#[derive(Debug, Clone)]
struct Flow {
    id: u64,
    src: NodeId,
    dst: NodeId,
    bytes_remaining: f64,
    rate_bytes_per_sec: f64,
    cross_rack: bool,
    started: SimTime,
}

impl Flow {
    /// Finished, allowing for clock-resolution dust: anything the flow
    /// would move in under ~3 µs at its current rate counts as done.
    fn is_done(&self) -> bool {
        self.bytes_remaining <= EPSILON_BYTES
            || self.bytes_remaining <= self.rate_bytes_per_sec * 3e-6
    }
}

/// The flow-level simulator. All bandwidth in MB/s, sizes in bytes.
///
/// ```
/// use dare_net::flow::FlowSim;
/// use dare_net::{NodeId, MB};
/// use dare_simcore::SimTime;
///
/// let mut sim = FlowSim::new(vec![100.0; 3], 1.0);
/// // Two 100 MB fetches into the same receiver share its NIC:
/// sim.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false);
/// sim.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false);
/// let (t, _) = sim.next_completion().unwrap();
/// assert!((t.as_secs_f64() - 2.0).abs() < 1e-3); // 50 MB/s each
/// ```
#[derive(Debug, Clone)]
pub struct FlowSim {
    /// Per-node NIC capacity, bytes/s (converted from MB/s at construction).
    nic_bytes_per_sec: Vec<f64>,
    /// Cross-rack flows see `capacity / oversub`.
    oversub: f64,
    /// Dense arena of active flows. The slab keeps flows contiguous so the
    /// per-event rate sweeps walk cache lines instead of hash buckets.
    flows: Slab<Flow>,
    /// External id → slab slot. Ids stay sequential `u64`s because they
    /// appear in traces and must survive slot recycling.
    by_id: FxHashMap<u64, SlabKey>,
    next_id: u64,
    last_advance: SimTime,
    /// Flows ever started (diagnostics).
    total_started: u64,
    /// `(id, start_time)` of the flows drained by the most recent
    /// [`FlowSim::collect_completed`] call, in the same order as its
    /// return value. Lets observers compute flow durations.
    completed_starts: Vec<(FlowId, SimTime)>,
    /// Persistent per-node scratch for [`FlowSim::recompute_rates`]:
    /// zeroed endpoint-by-endpoint (O(active), not O(nodes)) so a rate
    /// recomputation allocates nothing and never sweeps idle nodes.
    tx_count: Vec<u32>,
    rx_count: Vec<u32>,
    /// Per-node NIC derating factor (gray-failure injection): the node's
    /// effective capacity is `nic / factor`. `1.0` = healthy.
    node_factor: Vec<f64>,
}

impl FlowSim {
    /// Build over per-node NIC capacities (MB/s) and a cross-rack
    /// oversubscription factor (`>= 1`).
    pub fn new(nic_capacity_mbps: Vec<f64>, oversub: f64) -> Self {
        assert!(!nic_capacity_mbps.is_empty());
        assert!(oversub >= 1.0, "oversubscription factor must be >= 1");
        assert!(nic_capacity_mbps.iter().all(|&c| c > 0.0));
        let n = nic_capacity_mbps.len();
        FlowSim {
            nic_bytes_per_sec: nic_capacity_mbps
                .iter()
                .map(|c| c * crate::MB as f64)
                .collect(),
            oversub,
            flows: Slab::new(),
            by_id: FxHashMap::default(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            total_started: 0,
            completed_starts: Vec::new(),
            tx_count: vec![0; n],
            rx_count: vec![0; n],
            node_factor: vec![1.0; n],
        }
    }

    /// Set a node's NIC derating factor (gray-failure injection): its
    /// effective capacity becomes `nic / factor` for both tx and rx
    /// until the factor is reset to `1.0`. Residual bytes are advanced
    /// to `now` first and every active flow's rate recomputed, so the
    /// change is piecewise-constant like any arrival or departure.
    pub fn set_node_factor(&mut self, now: SimTime, node: NodeId, factor: f64) {
        assert!(
            factor >= 1.0 && !factor.is_nan(),
            "NIC derating factor must be >= 1, got {factor}"
        );
        assert!(node.idx() < self.node_factor.len());
        self.advance(now);
        self.node_factor[node.idx()] = factor;
        self.recompute_rates();
    }

    /// Peak number of simultaneously active flows (slab high-water mark).
    pub fn peak_active(&self) -> usize {
        self.flows.peak()
    }

    /// Number of active flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Flows ever started.
    pub fn total_started(&self) -> u64 {
        self.total_started
    }

    /// Start a flow of `bytes` from `src` to `dst` at time `now`.
    /// `cross_rack` flags whether the path pays the oversubscription tax.
    pub fn start(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cross_rack: bool,
    ) -> FlowId {
        assert!(src.idx() < self.nic_bytes_per_sec.len());
        assert!(dst.idx() < self.nic_bytes_per_sec.len());
        self.advance(now);
        let id = self.next_id;
        self.next_id += 1;
        self.total_started += 1;
        let key = self.flows.insert(Flow {
            id,
            src,
            dst,
            bytes_remaining: bytes as f64,
            rate_bytes_per_sec: 0.0,
            cross_rack,
            started: now,
        });
        self.by_id.insert(id, key);
        self.recompute_rates();
        FlowId(id)
    }

    /// Advance residual bytes to `now` (piecewise-constant rates).
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last_advance {
            return;
        }
        let dt = now.saturating_since(self.last_advance).as_secs_f64();
        for (_, f) in self.flows.iter_mut() {
            f.bytes_remaining = (f.bytes_remaining - f.rate_bytes_per_sec * dt).max(0.0);
        }
        self.last_advance = now;
    }

    /// Earliest predicted completion across active flows, assuming rates
    /// stay as they are. Returns `None` when no flow is active.
    ///
    /// The prediction carries a +2 µs margin: the simulated clock has
    /// microsecond resolution, so an un-margined prediction can round down
    /// and leave a sliver of bytes unfinished at the predicted instant —
    /// which would make a caller polling at that instant spin forever.
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        self.flows
            .iter()
            .filter(|(_, f)| f.rate_bytes_per_sec > 0.0 || f.is_done())
            .map(|(_, f)| {
                let secs = if f.is_done() {
                    0.0
                } else {
                    f.bytes_remaining / f.rate_bytes_per_sec + 2e-6
                };
                (
                    self.last_advance + dare_simcore::SimDuration::from_secs_f64(secs),
                    FlowId(f.id),
                )
            })
            .min_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
    }

    /// Advance to `now` and drain every flow whose bytes are exhausted.
    /// Returns the completed flow ids (deterministic ascending order).
    pub fn collect_completed(&mut self, now: SimTime) -> Vec<FlowId> {
        self.advance(now);
        let mut done: Vec<(u64, SlabKey)> = self
            .flows
            .iter()
            .filter(|(_, f)| f.is_done())
            .map(|(key, f)| (f.id, key))
            .collect();
        done.sort_unstable_by_key(|&(id, _)| id);
        self.completed_starts.clear();
        for &(id, key) in &done {
            if let Some(f) = self.flows.remove(key) {
                self.by_id.remove(&id);
                self.completed_starts.push((FlowId(id), f.started));
            }
        }
        if !done.is_empty() {
            self.recompute_rates();
        }
        done.into_iter().map(|(id, _)| FlowId(id)).collect()
    }

    /// Start times of the flows drained by the most recent
    /// [`FlowSim::collect_completed`] call, index-aligned with its return
    /// value. Cleared (not appended) on every call.
    pub fn completed_starts(&self) -> &[(FlowId, SimTime)] {
        &self.completed_starts
    }

    /// Start time of a still-active flow.
    pub fn started_at(&self, id: FlowId) -> Option<SimTime> {
        self.lookup(id).map(|f| f.started)
    }

    /// Abort an active flow (task killed / node failed). No-op if already
    /// completed.
    pub fn cancel(&mut self, now: SimTime, id: FlowId) {
        self.advance(now);
        if let Some(key) = self.by_id.remove(&id.0) {
            self.flows.remove(key);
            self.recompute_rates();
        }
    }

    /// Current rate of a flow in bytes/s (None if finished/unknown).
    pub fn rate_of(&self, id: FlowId) -> Option<f64> {
        self.lookup(id).map(|f| f.rate_bytes_per_sec)
    }

    #[inline]
    fn lookup(&self, id: FlowId) -> Option<&Flow> {
        self.by_id.get(&id.0).and_then(|&k| self.flows.get(k))
    }

    /// Per-node NIC utilization across the active flows, written into
    /// `out` as `(tx, rx)` fractions of *effective* capacity in `[0, 1]`
    /// (cross-rack flows run below their fair share, so sums stay within
    /// the NIC; a derated node reports against its degraded capacity, so
    /// saturating a gray NIC still reads as 1.0).
    ///
    /// Flows are accumulated in ascending-id order so the floating-point
    /// sums — and therefore a telemetry export built from them — are
    /// identical across runs despite the `HashMap` storage.
    pub fn nic_utilization_into(&self, out: &mut Vec<(f64, f64)>) {
        out.clear();
        out.resize(self.nic_bytes_per_sec.len(), (0.0, 0.0));
        let mut entries: Vec<(u64, usize, usize, f64)> = self
            .flows
            .iter()
            .map(|(_, f)| (f.id, f.src.idx(), f.dst.idx(), f.rate_bytes_per_sec))
            .collect();
        entries.sort_unstable_by_key(|e| e.0);
        for (_, src, dst, rate) in entries {
            out[src].0 += rate;
            out[dst].1 += rate;
        }
        for (i, (u, &cap)) in out.iter_mut().zip(&self.nic_bytes_per_sec).enumerate() {
            let eff = cap / self.node_factor[i];
            u.0 /= eff;
            u.1 /= eff;
        }
    }

    /// Recompute every flow's rate from per-endpoint fair shares.
    ///
    /// Allocation-free and O(active flows): the persistent per-node
    /// counters are zeroed endpoint-by-endpoint in a first pass, counted
    /// in a second, consumed in a third — idle nodes are never touched,
    /// which matters once the cluster has 10k NICs and a few dozen flows.
    fn recompute_rates(&mut self) {
        for (_, f) in self.flows.iter() {
            self.tx_count[f.src.idx()] = 0;
            self.rx_count[f.dst.idx()] = 0;
        }
        for (_, f) in self.flows.iter() {
            self.tx_count[f.src.idx()] += 1;
            self.rx_count[f.dst.idx()] += 1;
        }
        let (tx, rx, caps, fac, oversub) = (
            &self.tx_count,
            &self.rx_count,
            &self.nic_bytes_per_sec,
            &self.node_factor,
            self.oversub,
        );
        for (_, f) in self.flows.iter_mut() {
            let tx_share = caps[f.src.idx()] / fac[f.src.idx()] / tx[f.src.idx()] as f64;
            let rx_share = caps[f.dst.idx()] / fac[f.dst.idx()] / rx[f.dst.idx()] as f64;
            let mut rate = tx_share.min(rx_share);
            if f.cross_rack {
                rate /= oversub;
            }
            f.rate_bytes_per_sec = rate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MB;
    

    fn sim(nodes: usize, mbps: f64) -> FlowSim {
        FlowSim::new(vec![mbps; nodes], 1.0)
    }

    #[test]
    fn lone_flow_runs_at_full_capacity() {
        let mut s = sim(2, 100.0);
        let id = s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false);
        let (t, fid) = s.next_completion().expect("one active flow");
        assert_eq!(fid, id);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-5, "100MB @100MB/s = 1s");
        let done = s.collect_completed(t);
        assert_eq!(done, vec![id]);
        assert_eq!(s.active(), 0);
    }

    #[test]
    fn two_flows_into_one_destination_halve() {
        let mut s = sim(3, 100.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false);
        s.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false);
        let (t, _) = s.next_completion().expect("flows active");
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-5, "rx shared => 2s");
    }

    #[test]
    fn two_flows_out_of_one_source_halve() {
        let mut s = sim(3, 100.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false);
        s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false);
        let (t, _) = s.next_completion().expect("flows active");
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-5, "tx shared => 2s");
    }

    #[test]
    fn full_duplex_tx_and_rx_do_not_interfere() {
        let mut s = sim(2, 100.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false);
        s.start(SimTime::ZERO, NodeId(1), NodeId(0), 100 * MB, false);
        let (t, _) = s.next_completion().expect("flows active");
        assert!(
            (t.as_secs_f64() - 1.0).abs() < 1e-5,
            "opposite directions share nothing"
        );
    }

    #[test]
    fn cross_rack_pays_oversubscription() {
        let mut s = FlowSim::new(vec![100.0; 2], 2.5);
        s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, true);
        let (t, _) = s.next_completion().expect("flow active");
        assert!((t.as_secs_f64() - 2.5).abs() < 1e-5);
    }

    #[test]
    fn late_joiner_slows_existing_flow() {
        let mut s = sim(3, 100.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false);
        // After 0.5 s flow a has moved 50 MB. Then b joins at the same dst.
        let t1 = SimTime::from_secs_f64(0.5);
        let _b = s.start(t1, NodeId(1), NodeId(2), 100 * MB, false);
        // a now has 50 MB left at 50 MB/s => finishes at t = 1.5.
        let (t, fid) = s.next_completion().expect("flows active");
        assert_eq!(fid, a);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-5, "got {t}");
    }

    #[test]
    fn departure_speeds_up_survivor() {
        let mut s = sim(3, 100.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(2), 50 * MB, false);
        let b = s.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false);
        // Both at 50 MB/s. a finishes at t=1 with b holding 50 MB.
        let (t_a, fid) = s.next_completion().expect("flows active");
        assert_eq!(fid, a);
        assert!((t_a.as_secs_f64() - 1.0).abs() < 1e-5);
        s.collect_completed(t_a);
        // b now alone at 100 MB/s: 50 MB left => finishes at t=1.5.
        let (t_b, fid) = s.next_completion().expect("b still active");
        assert_eq!(fid, b);
        assert!((t_b.as_secs_f64() - 1.5).abs() < 1e-5, "got {t_b}");
    }

    #[test]
    fn heterogeneous_capacity_bottleneck_is_min_endpoint() {
        let mut s = FlowSim::new(vec![100.0, 20.0], 1.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false);
        let (t, _) = s.next_completion().expect("flow active");
        assert!((t.as_secs_f64() - 5.0).abs() < 1e-5, "rx NIC of 20 MB/s");
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut s = sim(2, 100.0);
        let id = s.start(SimTime::ZERO, NodeId(0), NodeId(1), 0, false);
        let (t, fid) = s.next_completion().expect("flow active");
        assert_eq!((t, fid), (SimTime::ZERO, id));
        assert_eq!(s.collect_completed(SimTime::ZERO), vec![id]);
    }

    #[test]
    fn cancel_removes_and_rebalances() {
        let mut s = sim(3, 100.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false);
        let b = s.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false);
        s.cancel(SimTime::from_secs_f64(0.5), a);
        assert_eq!(s.active(), 1);
        // b moved 25 MB in the shared phase; 75 MB left at full rate.
        let (t, fid) = s.next_completion().expect("b active");
        assert_eq!(fid, b);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-5, "got {t}");
        // cancelling an unknown flow is a no-op
        s.cancel(SimTime::from_secs_f64(0.6), a);
        assert_eq!(s.active(), 1);
    }

    #[test]
    fn advance_is_idempotent_and_monotone() {
        let mut s = sim(2, 100.0);
        let id = s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false);
        let t = SimTime::from_secs_f64(0.25);
        s.advance(t);
        s.advance(t); // no double-decrement
        s.advance(SimTime::from_secs_f64(0.1)); // going backwards: no-op
        let (tc, _) = s.next_completion().expect("flow active");
        assert!((tc.as_secs_f64() - 1.0).abs() < 1e-5);
        s.collect_completed(tc);
        assert!(s.rate_of(id).is_none());
    }

    #[test]
    fn stale_completion_check_is_safe() {
        // The engine may pop a completion event scheduled before a new flow
        // slowed everything down; collect_completed must return empty then.
        let mut s = sim(3, 100.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false);
        let (t_pred, _) = s.next_completion().expect("flow active");
        s.start(SimTime::from_secs_f64(0.5), NodeId(1), NodeId(2), 100 * MB, false);
        let done = s.collect_completed(t_pred);
        assert!(done.is_empty(), "prediction went stale; nothing finished");
        let (t_new, _) = s.next_completion().expect("flows active");
        assert!(t_new > t_pred);
        assert_eq!(s.total_started(), 2);
    }

    #[test]
    fn many_flows_conserve_reasonable_aggregate() {
        // 10 senders into one receiver: aggregate completion = sum of bytes
        // over rx capacity.
        let mut s = sim(11, 100.0);
        for i in 0..10u32 {
            s.start(SimTime::ZERO, NodeId(i), NodeId(10), 10 * MB, false);
        }
        let mut last = SimTime::ZERO;
        let mut completed = 0;
        while let Some((t, _)) = s.next_completion() {
            last = t;
            completed += s.collect_completed(t).len();
        }
        assert_eq!(completed, 10);
        assert!((last.as_secs_f64() - 1.0).abs() < 1e-3, "100MB @ 100MB/s");
    }

    #[test]
    fn nic_utilization_reflects_fair_shares() {
        let mut s = sim(3, 100.0);
        let mut util = Vec::new();
        s.nic_utilization_into(&mut util);
        assert_eq!(util, vec![(0.0, 0.0); 3], "idle fabric");
        // Two senders into node 2: each runs at half the rx NIC, so each
        // tx side sits at 0.5 and the rx side is saturated.
        s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false);
        s.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false);
        s.nic_utilization_into(&mut util);
        assert!((util[0].0 - 0.5).abs() < 1e-9);
        assert!((util[1].0 - 0.5).abs() < 1e-9);
        assert!((util[2].1 - 1.0).abs() < 1e-9);
        assert_eq!(util[2].0, 0.0, "no tx at the receiver");
    }

    #[test]
    fn node_factor_derates_and_restores_mid_flow() {
        let mut s = sim(2, 100.0);
        let id = s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false);
        // 0.5 s at full rate moves 50 MB; then the receiver goes gray 4x.
        s.set_node_factor(SimTime::from_secs_f64(0.5), NodeId(1), 4.0);
        assert!((s.rate_of(id).unwrap() - 25.0 * MB as f64).abs() < 1.0);
        let (t, _) = s.next_completion().expect("flow active");
        assert!((t.as_secs_f64() - 2.5).abs() < 1e-5, "50 MB @ 25 MB/s: got {t}");
        // Recovery at t=1.5 (25 MB moved gray, 25 MB left at full rate).
        s.set_node_factor(SimTime::from_secs_f64(1.5), NodeId(1), 1.0);
        let (t, _) = s.next_completion().expect("flow active");
        assert!((t.as_secs_f64() - 1.75).abs() < 1e-5, "got {t}");
    }

    #[test]
    fn gray_source_bottlenecks_and_utilization_reads_effective() {
        let mut s = sim(3, 100.0);
        s.set_node_factor(SimTime::ZERO, NodeId(0), 2.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false);
        let b = s.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false);
        // rx fair share is 50 each; the gray tx side only offers 50, so
        // both flows sit at 50 MB/s and the receiver stays saturated.
        assert!((s.rate_of(a).unwrap() - 50.0 * MB as f64).abs() < 1.0);
        assert!((s.rate_of(b).unwrap() - 50.0 * MB as f64).abs() < 1.0);
        let mut util = Vec::new();
        s.nic_utilization_into(&mut util);
        assert!((util[0].0 - 1.0).abs() < 1e-9, "gray tx saturated vs effective cap");
        assert!((util[1].0 - 0.5).abs() < 1e-9);
        assert!((util[2].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn completed_starts_align_with_completions() {
        let mut s = sim(4, 100.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(3), 10 * MB, false);
        let t1 = SimTime::from_secs_f64(0.05);
        let b = s.start(t1, NodeId(1), NodeId(3), 10 * MB, false);
        assert_eq!(s.started_at(a), Some(SimTime::ZERO));
        assert_eq!(s.started_at(b), Some(t1));
        // Drain everything well past both completions.
        let done = s.collect_completed(SimTime::from_secs(10));
        assert_eq!(done, vec![a, b]);
        assert_eq!(
            s.completed_starts(),
            &[(a, SimTime::ZERO), (b, t1)],
            "starts index-aligned with the drained ids"
        );
        // Next drain clears the buffer.
        assert!(s.collect_completed(SimTime::from_secs(11)).is_empty());
        assert!(s.completed_starts().is_empty());
        assert!(s.started_at(a).is_none());
    }
}
