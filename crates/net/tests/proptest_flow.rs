//! Property-based flow-simulator tests: byte conservation, monotone
//! completion times, and rate sanity under arbitrary start/drain schedules.

use dare_net::flow::FlowSim;
use dare_net::{NodeId, MB};
use dare_simcore::check::{run_cases, Gen};
use dare_simcore::{SimDuration, SimTime};

#[derive(Debug, Clone)]
struct FlowSpec {
    src: u32,
    dst: u32,
    mb: u64,
    gap_ms: u64,
    cross: bool,
}

fn flows(g: &mut Gen, nodes: u32) -> Vec<FlowSpec> {
    g.vec(1..40, |g| FlowSpec {
        src: g.u32_in(0..nodes),
        dst: g.u32_in(0..nodes),
        mb: g.u64_in(1..64),
        gap_ms: g.u64_in(0..2000),
        cross: g.bool(0.5),
    })
}

#[test]
fn all_flows_complete_in_monotone_order() {
    run_cases(64, 0xF10E_0001, |g| {
        let specs = flows(g, 6);
        let oversub = g.f64_in(1.0..3.0);
        let mut sim = FlowSim::new(vec![100.0; 6], oversub);
        let mut now = SimTime::ZERO;
        let mut started = 0u64;
        let mut completed = 0u64;
        for s in &specs {
            now += SimDuration::from_millis(s.gap_ms);
            let dst = if s.src == s.dst {
                (s.dst + 1) % 6
            } else {
                s.dst
            };
            sim.start(now, NodeId(s.src), NodeId(dst), s.mb * MB, s.cross);
            started += 1;
            // Opportunistically drain anything already done.
            completed += sim.collect_completed(now).len() as u64;
        }
        // Drain to the end; completion times must never go backwards.
        let mut last = now;
        let mut guard = 0;
        while let Some((t, _)) = sim.next_completion() {
            assert!(t >= last, "completion time went backwards");
            last = t;
            completed += sim.collect_completed(t).len() as u64;
            guard += 1;
            assert!(guard < 10_000, "drain did not converge");
        }
        assert_eq!(completed, started, "byte conservation: every flow finishes");
        assert_eq!(sim.active(), 0);
        assert_eq!(sim.total_started(), started);
    });
}

#[test]
fn rates_never_exceed_nic_capacity() {
    run_cases(64, 0xF10E_0002, |g| {
        let specs = flows(g, 4);
        let cap = 100.0 * MB as f64;
        let mut sim = FlowSim::new(vec![100.0; 4], 1.0);
        let mut now = SimTime::ZERO;
        let mut ids = Vec::new();
        for s in &specs {
            now += SimDuration::from_millis(s.gap_ms);
            let dst = if s.src == s.dst {
                (s.dst + 1) % 4
            } else {
                s.dst
            };
            ids.push(sim.start(now, NodeId(s.src), NodeId(dst), s.mb * MB, false));
            for &id in &ids {
                if let Some(r) = sim.rate_of(id) {
                    assert!(r <= cap * (1.0 + 1e-9), "rate {r} exceeds NIC");
                    assert!(r > 0.0, "active flow starved");
                }
            }
        }
    });
}

#[test]
fn lone_flow_duration_is_exact() {
    run_cases(64, 0xF10E_0003, |g| {
        let mb = g.u64_in(1..512);
        let cap = g.f64_in(10.0..200.0);
        let mut sim = FlowSim::new(vec![cap; 2], 1.0);
        sim.start(SimTime::ZERO, NodeId(0), NodeId(1), mb * MB, false);
        let (t, _) = sim.next_completion().expect("one flow");
        // Due at the µs ceiling of the fluid completion time.
        let want_us = mb as f64 / cap * 1e6;
        let t_us = t.as_micros() as f64;
        assert!(
            t_us >= want_us - 1e-6 && t_us < want_us + 1.0,
            "due at {t_us} µs, fluid time {want_us} µs"
        );
    });
}

#[test]
fn cancel_is_always_safe() {
    run_cases(64, 0xF10E_0004, |g| {
        let specs = flows(g, 5);
        let cancel_mask: Vec<bool> = g.vec(1..40, |g| g.bool(0.5));
        let mut sim = FlowSim::new(vec![100.0; 5], 1.5);
        let mut now = SimTime::ZERO;
        let mut live = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            now += SimDuration::from_millis(s.gap_ms);
            let dst = if s.src == s.dst {
                (s.dst + 1) % 5
            } else {
                s.dst
            };
            let id = sim.start(now, NodeId(s.src), NodeId(dst), s.mb * MB, s.cross);
            live.push(id);
            if *cancel_mask.get(i).unwrap_or(&false) {
                if let Some(&victim) = live.first() {
                    sim.cancel(now, victim);
                    live.remove(0);
                }
            }
        }
        // Whatever was cancelled, the rest still drains.
        let mut guard = 0;
        while let Some((t, _)) = sim.next_completion() {
            sim.collect_completed(t);
            guard += 1;
            assert!(guard < 10_000);
        }
        assert_eq!(sim.active(), 0);
    });
}
