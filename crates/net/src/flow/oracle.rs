//! The full-scan flow model, kept as a differential oracle for
//! [`super::FlowSim`].
//!
//! Every start, cancel, completion batch and NIC-factor change advances
//! the residual bytes of *all* active flows in `f64`, recomputes every
//! rate, and predicts the next completion by scanning them again. The
//! clock has microsecond resolution, so it needs three workarounds: a
//! 1 mB floor below which a flow counts as done, a dust rule that calls
//! a flow done when it would finish within 3 µs at its current rate, and
//! a +2 µs margin on every prediction so a poll at the predicted instant
//! always finds the flow finished. It therefore completes a flow up to
//! 3 µs before [`super::FlowSim`], whose completions land exactly on the
//! µs ceiling of the fluid completion time, and never after it.
//!
//! Compiled only for tests: the crate's unit tests use it as
//! `flow::oracle`, and `tests/flow_differential.rs` includes this file by
//! path. It names its dependencies through `super`, so either parent
//! must have `FlowId`, `NodeId` and `MB` in scope.

#![allow(dead_code)]

use super::{FlowId, NodeId, MB};
use dare_simcore::{FxHashMap, SimDuration, SimTime, Slab, SlabKey};

/// Residual bytes below which a flow counts as finished.
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

/// The full-scan model: same fair-share rates as [`super::FlowSim`],
/// O(active flows) work per operation.
#[derive(Debug, Clone)]
pub struct ScanFlowSim {
    nic_bytes_per_sec: Vec<f64>,
    oversub: f64,
    flows: Slab<Flow>,
    by_id: FxHashMap<u64, SlabKey>,
    next_id: u64,
    last_advance: SimTime,
    tx_count: Vec<u32>,
    rx_count: Vec<u32>,
    node_factor: Vec<f64>,
    /// Sum over rate recomputations of the flows active at each: the
    /// flows this model re-rates, one per active flow per operation.
    touched: u64,
}

impl ScanFlowSim {
    /// Build over per-node NIC capacities (MB/s) and a cross-rack
    /// oversubscription factor (`>= 1`).
    pub fn new(nic_capacity_mbps: Vec<f64>, oversub: f64) -> Self {
        assert!(!nic_capacity_mbps.is_empty());
        assert!(oversub >= 1.0, "oversubscription factor must be >= 1");
        assert!(nic_capacity_mbps.iter().all(|&c| c > 0.0));
        let n = nic_capacity_mbps.len();
        ScanFlowSim {
            nic_bytes_per_sec: nic_capacity_mbps.iter().map(|c| c * MB as f64).collect(),
            oversub,
            flows: Slab::new(),
            by_id: FxHashMap::default(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            tx_count: vec![0; n],
            rx_count: vec![0; n],
            node_factor: vec![1.0; n],
            touched: 0,
        }
    }

    /// Sum of active flows over every rate recomputation.
    pub fn touched(&self) -> u64 {
        self.touched
    }

    /// Number of active flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Set a node's NIC derating factor at `now`.
    pub fn set_node_factor(&mut self, now: SimTime, node: NodeId, factor: f64) {
        assert!(factor >= 1.0 && !factor.is_nan());
        self.advance(now);
        self.node_factor[node.idx()] = factor;
        self.recompute_rates();
    }

    /// Start a flow of `bytes` from `src` to `dst` at `now`.
    pub fn start(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cross_rack: bool,
    ) -> FlowId {
        self.advance(now);
        let id = self.next_id;
        self.next_id += 1;
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

    /// Earliest predicted completion, with the +2 µs margin.
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
                    self.last_advance + SimDuration::from_secs_f64(secs),
                    FlowId(f.id),
                )
            })
            .min_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
    }

    /// Advance to `now` and drain every finished flow, ascending by id.
    pub fn collect_completed(&mut self, now: SimTime) -> Vec<FlowId> {
        self.advance(now);
        let mut done: Vec<(u64, SlabKey)> = self
            .flows
            .iter()
            .filter(|(_, f)| f.is_done())
            .map(|(key, f)| (f.id, key))
            .collect();
        done.sort_unstable_by_key(|&(id, _)| id);
        for &(id, key) in &done {
            self.flows.remove(key);
            self.by_id.remove(&id);
        }
        if !done.is_empty() {
            self.recompute_rates();
        }
        done.into_iter().map(|(id, _)| FlowId(id)).collect()
    }

    /// Abort an active flow; no-op if it already completed.
    pub fn cancel(&mut self, now: SimTime, id: FlowId) {
        self.advance(now);
        if let Some(key) = self.by_id.remove(&id.0) {
            self.flows.remove(key);
            self.recompute_rates();
        }
    }

    /// Current rate of a flow in bytes/s.
    pub fn rate_of(&self, id: FlowId) -> Option<f64> {
        self.by_id
            .get(&id.0)
            .and_then(|&k| self.flows.get(k))
            .map(|f| f.rate_bytes_per_sec)
    }

    /// Recompute every flow's rate from per-endpoint fair shares.
    fn recompute_rates(&mut self) {
        self.touched += self.flows.len() as u64;
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
