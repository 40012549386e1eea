//! The incremental flow model against the full-scan oracle it replaced.
//!
//! Both models see the same starts, cancels and NIC-factor changes and
//! are polled at the union of their completion times. Every flow must end
//! the same way in both (completed or cancelled), and the oracle, whose
//! dust rule finishes a flow up to 3 µs early, may complete it 0–3 µs
//! before the incremental model but never after.

#[path = "../src/flow/oracle.rs"]
mod oracle;

use dare_net::flow::{FlowId, FlowSim};
use dare_net::{NodeId, MB};
use dare_simcore::check::{env_cases, run_cases, Gen};
use dare_simcore::{DetRng, SimTime};
use oracle::ScanFlowSim;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Completed(SimTime),
    Cancelled,
}

/// The two models side by side, with each flow's ending in each.
struct Pair {
    new: FlowSim,
    old: ScanFlowSim,
    ends_new: BTreeMap<FlowId, End>,
    ends_old: BTreeMap<FlowId, End>,
    started: Vec<FlowId>,
}

impl Pair {
    fn new(caps: Vec<f64>, oversub: f64) -> Self {
        Pair {
            new: FlowSim::new(caps.clone(), oversub),
            old: ScanFlowSim::new(caps, oversub),
            ends_new: BTreeMap::new(),
            ends_old: BTreeMap::new(),
            started: Vec::new(),
        }
    }

    fn next_poll(&self) -> Option<SimTime> {
        let a = self.new.next_completion().map(|(t, _)| t);
        let b = self.old.next_completion().map(|(t, _)| t);
        a.into_iter().chain(b).min()
    }

    /// Poll both models at every completion time up to `until`.
    fn poll_until(&mut self, until: SimTime) {
        while let Some(t) = self.next_poll().filter(|&t| t <= until) {
            for &(id, _) in self.new.collect_completed(t) {
                assert!(self.ends_new.insert(id, End::Completed(t)).is_none());
            }
            for id in self.old.collect_completed(t) {
                assert!(self.ends_old.insert(id, End::Completed(t)).is_none());
            }
        }
    }

    fn start(&mut self, now: SimTime, src: u32, dst: u32, bytes: u64, cross: bool) {
        let a = self.new.start(now, NodeId(src), NodeId(dst), bytes, cross);
        let b = self.old.start(now, NodeId(src), NodeId(dst), bytes, cross);
        assert_eq!(a, b, "both models number flows alike");
        self.started.push(a);
    }

    /// Cancel one flow still live in both models. A flow the oracle's
    /// dust rule already finished is left alone: that race is the 3 µs
    /// the models may differ by, not a difference in how flows end.
    fn cancel_some(&mut self, now: SimTime, pick: usize) {
        let live: Vec<FlowId> = self
            .started
            .iter()
            .copied()
            .filter(|id| !self.ends_new.contains_key(id) && !self.ends_old.contains_key(id))
            .collect();
        if live.is_empty() {
            return;
        }
        let id = live[pick % live.len()];
        self.new.cancel(now, id);
        self.old.cancel(now, id);
        self.ends_new.insert(id, End::Cancelled);
        self.ends_old.insert(id, End::Cancelled);
    }

    fn set_factor(&mut self, now: SimTime, node: u32, factor: f64) {
        self.new.set_node_factor(now, NodeId(node), factor);
        self.old.set_node_factor(now, NodeId(node), factor);
    }

    /// Drain both models and compare every flow's ending.
    fn finish(mut self) -> (FlowSim, ScanFlowSim) {
        self.poll_until(SimTime::MAX);
        assert_eq!(self.new.active(), 0);
        assert_eq!(self.old.active(), 0);
        assert_eq!(self.ends_new.len(), self.started.len());
        for id in &self.started {
            match (self.ends_new[id], self.ends_old[id]) {
                (End::Cancelled, End::Cancelled) => {}
                (End::Completed(t_new), End::Completed(t_old)) => {
                    let (n, o) = (t_new.as_micros(), t_old.as_micros());
                    assert!(
                        o <= n && n - o <= 3,
                        "{id:?}: oracle at {o} µs, incremental at {n} µs"
                    );
                }
                (a, b) => panic!("{id:?} ends as {a:?} here and {b:?} in the oracle"),
            }
        }
        (self.new, self.old)
    }
}

/// Bytes for one flow: zero sometimes, otherwise an arbitrary count up
/// to 64 MB, so fluid times rarely land on whole microseconds.
fn bytes(g: &mut Gen) -> u64 {
    if g.bool(0.1) {
        0
    } else {
        g.u64_in(1..64 * MB)
    }
}

#[test]
fn incremental_model_matches_the_full_scan_oracle() {
    let mut completed = 0usize;
    run_cases(env_cases(2_000), 0xF10E_D1FF, |g| {
        let nodes = g.u32_in(2..8);
        let caps: Vec<f64> = (0..nodes).map(|_| g.f64_in(10.0..200.0)).collect();
        let oversub = if g.bool(0.5) { 1.0 } else { g.f64_in(1.0..4.0) };
        let mut pair = Pair::new(caps, oversub);
        let mut now = SimTime::ZERO;
        for _ in 0..g.usize_in(1..60) {
            // Same-µs operations are common: a gap of 0 a fifth of the time.
            let gap = if g.bool(0.2) {
                0
            } else {
                g.u64_in(1..1_500_000)
            };
            now = SimTime::from_micros(now.as_micros() + gap);
            pair.poll_until(now);
            let roll = g.f64_in(0.0..1.0);
            if roll < 0.7 {
                let src = g.u32_in(0..nodes);
                let dst = (src + g.u32_in(1..nodes)) % nodes;
                let (b, cross) = (bytes(g), g.bool(0.4));
                pair.start(now, src, dst, b, cross);
            } else if roll < 0.85 {
                let pick = g.usize_in(0..64);
                pair.cancel_some(now, pick);
            } else {
                let node = g.u32_in(0..nodes);
                let factor = if g.bool(0.3) { 1.0 } else { g.f64_in(1.0..8.0) };
                pair.set_factor(now, node, factor);
            }
        }
        let (new, _) = pair.finish();
        completed += new.total_started() as usize;
    });
    assert!(
        completed > 10_000,
        "the cases start enough flows: {completed}"
    );
}

#[test]
fn rerates_are_a_tenth_of_what_the_full_scan_touched_at_1k_nodes() {
    // 1,000 nodes, 4,000 fetches arriving over 20 s: a few hundred in
    // flight at once, each sharing its endpoints with a handful.
    let nodes = 1_000usize;
    let mut rng = DetRng::new(7);
    let caps: Vec<f64> = (0..nodes).map(|_| rng.uniform_range(80.0, 120.0)).collect();
    let mut pair = Pair::new(caps, 1.5);
    let mut peak = 0;
    for i in 0..4_000u64 {
        let now = SimTime::from_micros(i * 5_000);
        pair.poll_until(now);
        let src = rng.index(nodes) as u32;
        let dst = ((src as usize + 1 + rng.index(nodes - 1)) % nodes) as u32;
        pair.start(now, src, dst, 128 * MB, i % 3 == 0);
        if i % 50 == 0 {
            pair.cancel_some(now, rng.index(1_000));
        }
        if i % 400 == 0 {
            pair.set_factor(now, rng.index(nodes) as u32, 2.0);
        }
        peak = peak.max(pair.new.active());
    }
    let (new, old) = pair.finish();
    assert!(peak >= 200, "enough concurrency to matter: peak {peak}");
    assert!(
        new.rerates() * 10 <= old.touched(),
        "rerates {} vs full-scan {} (peak {peak})",
        new.rerates(),
        old.touched()
    );
}
