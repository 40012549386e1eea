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
//! * rates are piecewise-constant between flow arrivals/departures.
//!
//! A flow's rate depends only on the flow counts at its two endpoints, so
//! the model is incremental: a start or cancel re-rates only the flows on
//! the source's tx list and the destination's rx list, a NIC-factor change
//! only the flows on both lists of that node, and a completion batch the
//! flows sharing an endpoint with any flow it removed. Each flow keeps its
//! residual as an integer count of µB (millionths of a byte, so that a
//! rate in bytes/s times a span in µs is a count of them) as of its own
//! last rate change, so a flow whose rate is unchanged costs nothing. Completions sit in a
//! min-heap keyed by (µs, flow id); a per-flow generation stamp marks the
//! entries a re-rate superseded. A flow completes exactly at the µs
//! ceiling of its fluid completion time.
//!
//! The MapReduce engine drives this by scheduling a "network check" event at
//! [`FlowSim::next_completion`] and re-checking whenever flows start.

use crate::topology::NodeId;
use crate::MB;
use dare_simcore::time::MICROS_PER_SEC;
use dare_simcore::{FxHashMap, SimTime, Slab, SlabKey};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[cfg(test)]
mod oracle;

/// Identifier of an active flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Completion time of a flow that moves nothing (zero rate, bytes left).
const NEVER: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Flow {
    id: u64,
    src: NodeId,
    dst: NodeId,
    cross_rack: bool,
    started: SimTime,
    /// Bytes left to move as of `since`, in µB (millionths of a byte).
    residual: u64,
    /// µs of the flow's last rate change.
    since: u64,
    rate_bytes_per_sec: f64,
    /// µs the flow completes at under its current rate, or [`NEVER`].
    due: u64,
    /// Bumped whenever `due` moves; a heap entry with an older stamp is
    /// stale.
    generation: u32,
    /// Positions in the source's tx list and the destination's rx list.
    tx_pos: u32,
    rx_pos: u32,
    /// Last re-rate pass that visited the flow, so a pass rates each flow
    /// once even when it sits on several of the walked lists.
    pass: u64,
}

/// One pending completion: the min-heap orders by `(at, id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Due {
    at: u64,
    id: u64,
    generation: u32,
    key: SlabKey,
}

impl Ord for Due {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.id, other.generation).cmp(&(self.at, self.id, self.generation))
    }
}

impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
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
/// assert_eq!(t, SimTime::from_secs(2)); // 50 MB/s each
/// ```
#[derive(Debug, Clone)]
pub struct FlowSim {
    /// Per-node NIC capacity, bytes/s (converted from MB/s at construction).
    nic_bytes_per_sec: Vec<f64>,
    /// Cross-rack flows see `capacity / oversub`.
    oversub: f64,
    /// Dense arena of active flows.
    flows: Slab<Flow>,
    /// External id → slab slot. Ids stay sequential `u64`s because they
    /// appear in traces and must survive slot recycling.
    by_id: FxHashMap<u64, SlabKey>,
    next_id: u64,
    /// Per-node flows transmitting (`tx`) and receiving (`rx`) there.
    tx: Vec<Vec<SlabKey>>,
    rx: Vec<Vec<SlabKey>>,
    /// Pending completions. Its top is always live (see `drop_stale_top`).
    heap: BinaryHeap<Due>,
    /// Current re-rate pass (see `Flow::pass`).
    pass: u64,
    /// Flows ever started (diagnostics).
    total_started: u64,
    /// Flows whose rate was recomputed (work counter).
    rerates: u64,
    /// `(id, start_time)` of the flows drained by the most recent
    /// [`FlowSim::collect_completed`] call, ascending by id.
    completed_starts: Vec<(FlowId, SimTime)>,
    /// Reused by `collect_completed`: due flows, then their endpoints.
    due_scratch: Vec<(u64, SlabKey)>,
    ends_scratch: Vec<(NodeId, NodeId)>,
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
            nic_bytes_per_sec: nic_capacity_mbps.iter().map(|c| c * MB as f64).collect(),
            oversub,
            flows: Slab::new(),
            by_id: FxHashMap::default(),
            next_id: 0,
            tx: vec![Vec::new(); n],
            rx: vec![Vec::new(); n],
            heap: BinaryHeap::new(),
            pass: 0,
            total_started: 0,
            rerates: 0,
            completed_starts: Vec::new(),
            due_scratch: Vec::new(),
            ends_scratch: Vec::new(),
            node_factor: vec![1.0; n],
        }
    }

    /// Set a node's NIC derating factor (gray-failure injection): its
    /// effective capacity becomes `nic / factor` for both tx and rx
    /// until the factor is reset to `1.0`. The flows on that node's tx
    /// and rx lists are re-rated at `now`, so the change is
    /// piecewise-constant like any arrival or departure.
    pub fn set_node_factor(&mut self, now: SimTime, node: NodeId, factor: f64) {
        assert!(
            factor >= 1.0 && !factor.is_nan(),
            "NIC derating factor must be >= 1, got {factor}"
        );
        assert!(node.idx() < self.node_factor.len());
        self.node_factor[node.idx()] = factor;
        self.pass += 1;
        self.rerate_endpoints(now.as_micros(), node, node);
        self.drop_stale_top();
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

    /// Flows whose rate was recomputed, summed over every start, cancel,
    /// completion batch and NIC-factor change. A full-scan model would
    /// count every active flow at every such operation.
    pub fn rerates(&self) -> u64 {
        self.rerates
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
        let now_us = now.as_micros();
        let residual = bytes
            .checked_mul(MICROS_PER_SEC)
            .expect("a flow moves at most u64::MAX µB, about 18 TB");
        let id = self.next_id;
        self.next_id += 1;
        self.total_started += 1;
        // Rated below with the others on its lists; until then it moves
        // nothing, so only a zero-byte flow is due.
        let due = if bytes == 0 { now_us } else { NEVER };
        let key = self.flows.insert(Flow {
            id,
            src,
            dst,
            cross_rack,
            started: now,
            residual,
            since: now_us,
            rate_bytes_per_sec: 0.0,
            due,
            generation: 0,
            tx_pos: self.tx[src.idx()].len() as u32,
            rx_pos: self.rx[dst.idx()].len() as u32,
            pass: self.pass,
        });
        self.tx[src.idx()].push(key);
        self.rx[dst.idx()].push(key);
        self.by_id.insert(id, key);
        if due != NEVER {
            self.heap.push(Due {
                at: due,
                id,
                generation: 0,
                key,
            });
        }
        self.pass += 1;
        self.rerate_endpoints(now_us, src, dst);
        self.drop_stale_top();
        FlowId(id)
    }

    /// Earliest completion across active flows, assuming rates stay as
    /// they are: the µs ceiling of the flow's fluid completion time, ties
    /// broken by id. `None` when no flow is active or none can finish.
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        self.heap
            .peek()
            .map(|d| (SimTime::from_micros(d.at), FlowId(d.id)))
    }

    /// Drain every flow due at or before `now`. Returns `(id, start
    /// time)` of each, ascending by id; the slice is the same buffer
    /// [`FlowSim::completed_starts`] reads, reused across calls.
    pub fn collect_completed(&mut self, now: SimTime) -> &[(FlowId, SimTime)] {
        let now_us = now.as_micros();
        self.completed_starts.clear();
        self.due_scratch.clear();
        while let Some(&d) = self.heap.peek() {
            if d.at > now_us {
                break;
            }
            self.heap.pop();
            if self.is_live(&d) {
                self.due_scratch.push((d.id, d.key));
            }
        }
        if self.due_scratch.is_empty() {
            return &self.completed_starts;
        }
        self.due_scratch.sort_unstable_by_key(|&(id, _)| id);
        self.ends_scratch.clear();
        for i in 0..self.due_scratch.len() {
            let (id, key) = self.due_scratch[i];
            let f = self.remove(key);
            self.by_id.remove(&id);
            self.completed_starts.push((FlowId(id), f.started));
            self.ends_scratch.push((f.src, f.dst));
        }
        self.pass += 1;
        for i in 0..self.ends_scratch.len() {
            let (src, dst) = self.ends_scratch[i];
            self.rerate_endpoints(now_us, src, dst);
        }
        self.drop_stale_top();
        &self.completed_starts
    }

    /// `(id, start time)` of the flows drained by the most recent
    /// [`FlowSim::collect_completed`] call, ascending by id. Cleared (not
    /// appended) on every call.
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
        if let Some(key) = self.by_id.remove(&id.0) {
            let f = self.remove(key);
            self.pass += 1;
            self.rerate_endpoints(now.as_micros(), f.src, f.dst);
            self.drop_stale_top();
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
    /// sums — and therefore a telemetry export built from them — do not
    /// depend on slab slot order.
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

    /// Take a flow out of the slab and both endpoint lists. Its heap
    /// entry goes stale with the slab key.
    fn remove(&mut self, key: SlabKey) -> Flow {
        let f = self.flows.remove(key).expect("removing a live flow");
        let tx = &mut self.tx[f.src.idx()];
        tx.swap_remove(f.tx_pos as usize);
        if let Some(&moved) = tx.get(f.tx_pos as usize) {
            self.flows[moved].tx_pos = f.tx_pos;
        }
        let rx = &mut self.rx[f.dst.idx()];
        rx.swap_remove(f.rx_pos as usize);
        if let Some(&moved) = rx.get(f.rx_pos as usize) {
            self.flows[moved].rx_pos = f.rx_pos;
        }
        f
    }

    /// Re-rate, at `now_us`, every flow transmitting from `src` or
    /// receiving at `dst` that the current pass has not rated yet.
    fn rerate_endpoints(&mut self, now_us: u64, src: NodeId, dst: NodeId) {
        for i in 0..self.tx[src.idx()].len() {
            let key = self.tx[src.idx()][i];
            self.rerate(now_us, key);
        }
        for i in 0..self.rx[dst.idx()].len() {
            let key = self.rx[dst.idx()][i];
            self.rerate(now_us, key);
        }
    }

    /// Recompute one flow's fair-share rate. A flow whose rate bits do not
    /// change keeps its residual and its heap entry; a flow already due
    /// keeps its completion time.
    fn rerate(&mut self, now_us: u64, key: SlabKey) {
        let FlowSim {
            flows,
            tx,
            rx,
            nic_bytes_per_sec: caps,
            node_factor: fac,
            heap,
            ..
        } = self;
        let f = &mut flows[key];
        if f.pass == self.pass {
            return;
        }
        f.pass = self.pass;
        self.rerates += 1;
        let (s, d) = (f.src.idx(), f.dst.idx());
        let tx_share = caps[s] / fac[s] / tx[s].len() as f64;
        let rx_share = caps[d] / fac[d] / rx[d].len() as f64;
        let mut rate = tx_share.min(rx_share);
        if f.cross_rack {
            rate /= self.oversub;
        }
        if rate.to_bits() == f.rate_bytes_per_sec.to_bits() {
            return;
        }
        if f.due <= now_us {
            f.rate_bytes_per_sec = rate;
            return;
        }
        // Bytes/s times µs is a count of µB: floored, it loses under a
        // millionth of a byte per rate change.
        let elapsed = now_us.saturating_sub(f.since) as f64;
        let moved = (f.rate_bytes_per_sec * elapsed) as u64;
        f.residual = f.residual.saturating_sub(moved);
        f.since = now_us;
        f.rate_bytes_per_sec = rate;
        let due = due_at(now_us, f.residual, rate);
        if due != f.due {
            f.due = due;
            f.generation = f.generation.wrapping_add(1);
            if due != NEVER {
                let (id, generation) = (f.id, f.generation);
                heap.push(Due {
                    at: due,
                    id,
                    generation,
                    key,
                });
            }
        }
    }

    #[inline]
    fn is_live(&self, d: &Due) -> bool {
        self.flows
            .get(d.key)
            .is_some_and(|f| f.generation == d.generation)
    }

    /// Pop superseded entries off the heap top, so `next_completion` can
    /// peek. Drops every stale entry once the heap holds four times as
    /// many entries as there are live flows, which bounds it at
    /// O(active flows).
    fn drop_stale_top(&mut self) {
        if self.heap.len() > 64 && self.heap.len() > 4 * self.flows.len() {
            let flows = &self.flows;
            self.heap.retain(|d| {
                flows
                    .get(d.key)
                    .is_some_and(|f| f.generation == d.generation)
            });
        }
        while let Some(d) = self.heap.peek() {
            if self.is_live(d) {
                break;
            }
            self.heap.pop();
        }
    }
}

/// µs at which `residual` µB at `rate` bytes/s, starting at `now_us`,
/// are all moved: the ceiling of the fluid completion time. A flow with
/// nothing left is due now; one with a zero rate never.
fn due_at(now_us: u64, residual: u64, rate: f64) -> u64 {
    if residual == 0 {
        return now_us;
    }
    let us = (residual as f64 / rate).ceil();
    if us < (NEVER - now_us) as f64 {
        now_us + us as u64
    } else {
        NEVER
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MB;

    fn sim(nodes: usize, mbps: f64) -> FlowSim {
        FlowSim::new(vec![mbps; nodes], 1.0)
    }

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    fn ids(done: &[(FlowId, SimTime)]) -> Vec<FlowId> {
        done.iter().map(|&(id, _)| id).collect()
    }

    #[test]
    fn lone_flow_runs_at_full_capacity() {
        let mut s = sim(2, 100.0);
        let id = s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false);
        let (t, fid) = s.next_completion().expect("one active flow");
        assert_eq!(fid, id);
        assert_eq!(t, us(1_000_000), "100MB @100MB/s = 1s");
        assert_eq!(ids(s.collect_completed(t)), vec![id]);
        assert_eq!(s.active(), 0);
    }

    #[test]
    fn two_flows_into_one_destination_halve() {
        let mut s = sim(3, 100.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false);
        s.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false);
        let (t, _) = s.next_completion().expect("flows active");
        assert_eq!(t, us(2_000_000), "rx shared => 2s");
    }

    #[test]
    fn two_flows_out_of_one_source_halve() {
        let mut s = sim(3, 100.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false);
        s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false);
        let (t, _) = s.next_completion().expect("flows active");
        assert_eq!(t, us(2_000_000), "tx shared => 2s");
    }

    #[test]
    fn full_duplex_tx_and_rx_do_not_interfere() {
        let mut s = sim(2, 100.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false);
        s.start(SimTime::ZERO, NodeId(1), NodeId(0), 100 * MB, false);
        let (t, _) = s.next_completion().expect("flows active");
        assert_eq!(t, us(1_000_000), "opposite directions share nothing");
    }

    #[test]
    fn cross_rack_pays_oversubscription() {
        let mut s = FlowSim::new(vec![100.0; 2], 2.5);
        s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, true);
        let (t, _) = s.next_completion().expect("flow active");
        assert_eq!(t, us(2_500_000));
    }

    #[test]
    fn late_joiner_slows_existing_flow() {
        let mut s = sim(3, 100.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false);
        // After 0.5 s flow a has moved 50 MB. Then b joins at the same dst.
        let _b = s.start(us(500_000), NodeId(1), NodeId(2), 100 * MB, false);
        // a now has 50 MB left at 50 MB/s => finishes at exactly t = 1.5 s.
        let (t, fid) = s.next_completion().expect("flows active");
        assert_eq!(fid, a);
        assert_eq!(t, us(1_500_000));
    }

    #[test]
    fn departure_speeds_up_survivor() {
        let mut s = sim(3, 100.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(2), 50 * MB, false);
        let b = s.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false);
        // Both at 50 MB/s. a finishes at t=1 with b holding 50 MB.
        let (t_a, fid) = s.next_completion().expect("flows active");
        assert_eq!((t_a, fid), (us(1_000_000), a));
        s.collect_completed(t_a);
        // b now alone at 100 MB/s: 50 MB left => finishes at t=1.5.
        let (t_b, fid) = s.next_completion().expect("b still active");
        assert_eq!((t_b, fid), (us(1_500_000), b));
    }

    #[test]
    fn heterogeneous_capacity_bottleneck_is_min_endpoint() {
        let mut s = FlowSim::new(vec![100.0, 20.0], 1.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false);
        let (t, _) = s.next_completion().expect("flow active");
        assert_eq!(t, us(5_000_000), "rx NIC of 20 MB/s");
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut s = sim(2, 100.0);
        let t0 = us(700);
        let id = s.start(t0, NodeId(0), NodeId(1), 0, false);
        let (t, fid) = s.next_completion().expect("flow active");
        assert_eq!((t, fid), (t0, id), "due at its own start");
        assert_eq!(s.collect_completed(t0), &[(id, t0)]);
    }

    #[test]
    fn cancel_removes_and_rebalances() {
        let mut s = sim(3, 100.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false);
        let b = s.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false);
        s.cancel(us(500_000), a);
        assert_eq!(s.active(), 1);
        // b moved 25 MB in the shared phase; 75 MB left at full rate.
        let (t, fid) = s.next_completion().expect("b active");
        assert_eq!((t, fid), (us(1_250_000), b));
        // cancelling an unknown flow is a no-op
        s.cancel(us(600_000), a);
        assert_eq!(s.active(), 1);
    }

    #[test]
    fn repeated_and_backward_polls_are_no_ops() {
        let mut s = sim(2, 100.0);
        let id = s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false);
        let t = us(250_000);
        assert!(s.collect_completed(t).is_empty());
        assert!(s.collect_completed(t).is_empty());
        assert!(s.collect_completed(us(100_000)).is_empty());
        let (tc, _) = s.next_completion().expect("flow active");
        assert_eq!(tc, us(1_000_000), "polls move no bytes");
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
        s.start(us(500_000), NodeId(1), NodeId(2), 100 * MB, false);
        assert!(
            s.collect_completed(t_pred).is_empty(),
            "prediction went stale"
        );
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
        assert_eq!(last, us(1_000_000), "100MB @ 100MB/s, all in one batch");
    }

    #[test]
    fn same_microsecond_completions_form_one_ascending_batch() {
        let mut s = sim(4, 100.0);
        // Two disjoint flows, both due at exactly 1 s.
        let a = s.start(SimTime::ZERO, NodeId(2), NodeId(3), 100 * MB, false);
        let b = s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false);
        assert_eq!(s.next_completion(), Some((us(1_000_000), a)));
        assert!(s.collect_completed(us(999_999)).is_empty());
        let z = SimTime::ZERO;
        assert_eq!(s.collect_completed(us(1_000_000)), &[(a, z), (b, z)]);
        assert_eq!(s.next_completion(), None);
    }

    #[test]
    fn due_flow_keeps_its_time_when_a_same_microsecond_start_shares_its_endpoint() {
        let mut s = sim(3, 100.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false);
        // b joins a's receiver in the very µs a is due, before the check
        // that would collect a.
        let b = s.start(us(1_000_000), NodeId(1), NodeId(2), 100 * MB, false);
        assert_eq!(s.rate_of(a), Some(50.0 * MB as f64), "re-rated");
        assert_eq!(
            s.next_completion(),
            Some((us(1_000_000), a)),
            "but still due"
        );
        assert_eq!(ids(s.collect_completed(us(1_000_000))), vec![a]);
        // b ran at half rate for no time: 100 MB alone from 1 s.
        assert_eq!(s.next_completion(), Some((us(2_000_000), b)));
    }

    #[test]
    fn fractional_completion_rounds_up_to_the_next_microsecond() {
        // 3 bytes at 100 MB/s take 0.0286 µs: due 1 µs after the start.
        let mut s = sim(2, 100.0);
        let id = s.start(us(10), NodeId(0), NodeId(1), 3, false);
        assert_eq!(s.next_completion(), Some((us(11), id)));
        assert!(s.collect_completed(us(10)).is_empty());
        assert_eq!(ids(s.collect_completed(us(11))), vec![id]);
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
        s.set_node_factor(us(500_000), NodeId(1), 4.0);
        assert_eq!(s.rate_of(id), Some(25.0 * MB as f64));
        assert_eq!(
            s.next_completion(),
            Some((us(2_500_000), id)),
            "50 MB @ 25 MB/s"
        );
        // Recovery at t=1.5 (25 MB moved gray, 25 MB left at full rate).
        s.set_node_factor(us(1_500_000), NodeId(1), 1.0);
        assert_eq!(s.next_completion(), Some((us(1_750_000), id)));
    }

    #[test]
    fn node_factor_change_rerates_only_that_nodes_flows() {
        let mut s = sim(6, 100.0);
        s.start(SimTime::ZERO, NodeId(0), NodeId(1), 100 * MB, false);
        s.start(SimTime::ZERO, NodeId(2), NodeId(3), 100 * MB, false);
        s.start(SimTime::ZERO, NodeId(4), NodeId(5), 100 * MB, false);
        let before = s.rerates();
        s.set_node_factor(us(100_000), NodeId(3), 2.0);
        assert_eq!(s.rerates() - before, 1, "one flow touches node 3");
    }

    #[test]
    fn gray_source_bottlenecks_and_utilization_reads_effective() {
        let mut s = sim(3, 100.0);
        s.set_node_factor(SimTime::ZERO, NodeId(0), 2.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(2), 100 * MB, false);
        let b = s.start(SimTime::ZERO, NodeId(1), NodeId(2), 100 * MB, false);
        // rx fair share is 50 each; the gray tx side only offers 50, so
        // both flows sit at 50 MB/s and the receiver stays saturated.
        assert_eq!(s.rate_of(a), Some(50.0 * MB as f64));
        assert_eq!(s.rate_of(b), Some(50.0 * MB as f64));
        let mut util = Vec::new();
        s.nic_utilization_into(&mut util);
        assert!(
            (util[0].0 - 1.0).abs() < 1e-9,
            "gray tx saturated vs effective cap"
        );
        assert!((util[1].0 - 0.5).abs() < 1e-9);
        assert!((util[2].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn completed_starts_align_with_completions() {
        let mut s = sim(4, 100.0);
        let a = s.start(SimTime::ZERO, NodeId(0), NodeId(3), 10 * MB, false);
        let t1 = us(50_000);
        let b = s.start(t1, NodeId(1), NodeId(3), 10 * MB, false);
        assert_eq!(s.started_at(a), Some(SimTime::ZERO));
        assert_eq!(s.started_at(b), Some(t1));
        // Drain everything well past both completions.
        let done = s.collect_completed(SimTime::from_secs(10)).to_vec();
        assert_eq!(done, vec![(a, SimTime::ZERO), (b, t1)]);
        assert_eq!(s.completed_starts(), &done[..], "the same buffer");
        // Next drain clears the buffer.
        assert!(s.collect_completed(SimTime::from_secs(11)).is_empty());
        assert!(s.completed_starts().is_empty());
        assert!(s.started_at(a).is_none());
    }

    #[test]
    fn oracle_agrees_on_the_unit_scenarios() {
        // The full-scan model predicts with a +2 µs margin; polled at the
        // new model's completion times it finishes the same flows.
        let mut new = sim(3, 100.0);
        let mut old = oracle::ScanFlowSim::new(vec![100.0; 3], 1.0);
        for (t, src, bytes) in [(0, 0, 100 * MB), (500_000, 1, 100 * MB), (600_000, 0, 7)] {
            new.start(us(t), NodeId(src), NodeId(2), bytes, false);
            old.start(us(t), NodeId(src), NodeId(2), bytes, false);
        }
        while let Some((t, _)) = new.next_completion() {
            let got = ids(new.collect_completed(t));
            assert_eq!(old.collect_completed(t), got, "at {t}");
        }
        assert_eq!(old.active(), 0);
        assert!(new.rerates() <= old.touched());
    }
}
