//! Wall-clock self-profiling of the simulator's event-dispatch arms.
//!
//! The engine wraps each dispatched event in a timing scope tagged with
//! the subsystem that owns the event (scheduling, DFS, network, fault
//! handling). The accumulated per-subsystem wall time lands in
//! `results/BENCH_profile.json` via the `telemetry-smoke` bench
//! experiment, so a hot-path regression in one subsystem is visible
//! across PRs even when end-to-end wall time hides it.
//!
//! Wall-clock times are *not* deterministic and never feed back into the
//! simulation: the profiler observes `std::time::Instant` only, so a
//! profiled run stays bit-identical to an unprofiled one.

use dare_simcore::json::{self, Json};

/// The event-dispatch arms the profiler distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subsystem {
    /// Job arrivals, heartbeats/slot filling, map-compute and reduce
    /// completions.
    Sched,
    /// Local disk reads, proactive-replication epochs.
    Dfs,
    /// Flow-simulator polls (remote-fetch and transfer progress).
    Net,
    /// Crash/rejoin/declare-dead/retry/degrade handling.
    Fault,
    /// Event-queue operations (the pop feeding each dispatch). Separating
    /// queue time from handler time is what lets the report attribute
    /// wall clock to kernel overhead vs. scheduler decisions.
    Queue,
}

impl Subsystem {
    const ALL: [Subsystem; 5] = [
        Subsystem::Sched,
        Subsystem::Dfs,
        Subsystem::Net,
        Subsystem::Fault,
        Subsystem::Queue,
    ];

    /// Stable name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Sched => "sched",
            Subsystem::Dfs => "dfs",
            Subsystem::Net => "net",
            Subsystem::Fault => "fault",
            Subsystem::Queue => "queue",
        }
    }
}

/// Accumulates per-subsystem wall time while a run is in flight.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    wall_ns: [u64; 5],
    events: [u64; 5],
    peak_slab: u64,
    peak_queue: u64,
}

impl Profiler {
    /// Fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `elapsed` wall time for one event of `sub`.
    pub fn record(&mut self, sub: Subsystem, elapsed: std::time::Duration) {
        let i = sub as usize;
        self.wall_ns[i] += elapsed.as_nanos() as u64;
        self.events[i] += 1;
    }

    /// Raise the peak-slab-occupancy gauge (live arena entries — flows,
    /// attempts, heartbeat records — at their high-water mark).
    pub fn note_slab_peak(&mut self, occupancy: u64) {
        self.peak_slab = self.peak_slab.max(occupancy);
    }

    /// Raise the peak-event-queue-length gauge.
    pub fn note_queue_peak(&mut self, len: u64) {
        self.peak_queue = self.peak_queue.max(len);
    }

    /// Seal into a report.
    pub fn finish(self) -> ProfileReport {
        ProfileReport {
            wall_ns: self.wall_ns,
            events: self.events,
            peak_slab_occupancy: self.peak_slab,
            peak_queue_len: self.peak_queue,
        }
    }
}

/// Per-subsystem dispatch timings of one finished run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileReport {
    /// Total wall nanoseconds per subsystem (Sched, Dfs, Net, Fault, Queue).
    pub wall_ns: [u64; 5],
    /// Events dispatched (or, for Queue, pops timed) per subsystem.
    pub events: [u64; 5],
    /// High-water mark of live slab entries across the run's arenas.
    pub peak_slab_occupancy: u64,
    /// High-water mark of the pending event-queue length.
    pub peak_queue_len: u64,
}

impl ProfileReport {
    /// Total events dispatched (the Queue arm times the pops feeding the
    /// same events, so it is excluded to avoid double counting).
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum::<u64>() - self.events[Subsystem::Queue as usize]
    }

    /// Dispatched events per second of total dispatch+queue wall time.
    pub fn events_per_sec(&self) -> u64 {
        let wall = self.total_wall_ns();
        if wall == 0 {
            return 0;
        }
        (self.total_events() as f64 / (wall as f64 / 1e9)) as u64
    }

    /// Total wall nanoseconds across subsystems.
    pub fn total_wall_ns(&self) -> u64 {
        self.wall_ns.iter().sum()
    }

    /// Events and wall time of one subsystem.
    pub fn of(&self, sub: Subsystem) -> (u64, u64) {
        (self.events[sub as usize], self.wall_ns[sub as usize])
    }

    /// Render the `BENCH_profile.json` report: the bench envelope, the
    /// scenario label, end-to-end totals, and one entry per subsystem
    /// (integer nanoseconds only).
    pub fn to_json(&self, scenario: &str) -> String {
        let subsystems = Subsystem::ALL
            .iter()
            .map(|&sub| {
                let (events, wall) = self.of(sub);
                Json::obj([
                    ("name", Json::from(sub.name())),
                    ("events", events.into()),
                    ("wall_ns", wall.into()),
                    ("mean_ns", wall.checked_div(events).unwrap_or(0).into()),
                ])
            })
            .collect();
        json::bench_report(
            "profile",
            "cargo run --release -p dare-bench --bin experiments -- telemetry-smoke",
            [
                ("scenario", Json::from(scenario)),
                ("total_events", self.total_events().into()),
                ("total_wall_ns", self.total_wall_ns().into()),
                ("events_per_sec", self.events_per_sec().into()),
                ("peak_slab_occupancy", self.peak_slab_occupancy.into()),
                ("peak_queue_len", self.peak_queue_len.into()),
                ("subsystems", subsystems),
            ],
        )
    }

    /// One-line human summary for logs.
    pub fn summary(&self) -> String {
        let total = self.total_wall_ns().max(1) as f64;
        let mut parts = Vec::new();
        for sub in Subsystem::ALL {
            let (events, wall) = self.of(sub);
            parts.push(format!(
                "{}={:.0}% ({} ev)",
                sub.name(),
                wall as f64 / total * 100.0,
                events
            ));
        }
        format!(
            "dispatch {:.1}ms: {}",
            self.total_wall_ns() as f64 / 1e6,
            parts.join(" ")
        )
    }
}

/// Validate a `BENCH_profile.json` document: the bench envelope, the
/// scenario, integer totals, and the five subsystem entries in order with
/// integer `events`/`wall_ns`/`mean_ns` fields. This is what the CI
/// `telemetry-smoke` gate runs against the written file.
pub fn validate_profile_json(s: &str) -> Result<(), String> {
    let doc = json::parse(s)?;
    let tag = |key: &str| doc.get(key).and_then(|v| v.as_str(key));
    if tag("schema")? != json::BENCH_SCHEMA || tag("bench")? != "profile" {
        return Err("missing or wrong schema tag".into());
    }
    tag("scenario")?;
    for key in [
        "total_events",
        "total_wall_ns",
        "events_per_sec",
        "peak_slab_occupancy",
        "peak_queue_len",
    ] {
        doc.get(key)?.as_u64(key)?;
    }
    let entries = doc.get("subsystems")?.as_arr("subsystems")?;
    if entries.len() != Subsystem::ALL.len() {
        return Err(format!("{} subsystem entries, not 5", entries.len()));
    }
    for (entry, sub) in entries.iter().zip(Subsystem::ALL) {
        let name = entry.get("name")?.as_str("name")?;
        if name != sub.name() {
            return Err(format!(
                "subsystem entry {name:?} where {:?} belongs",
                sub.name()
            ));
        }
        for field in ["events", "wall_ns", "mean_ns"] {
            entry.get(field)?.as_u64(&format!("{name}.{field}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn report_accumulates_and_renders() {
        let mut p = Profiler::new();
        p.record(Subsystem::Sched, Duration::from_nanos(100));
        p.record(Subsystem::Sched, Duration::from_nanos(50));
        p.record(Subsystem::Net, Duration::from_nanos(25));
        let r = p.finish();
        assert_eq!(r.total_events(), 3);
        assert_eq!(r.total_wall_ns(), 175);
        assert_eq!(r.of(Subsystem::Sched), (2, 150));
        assert_eq!(r.of(Subsystem::Fault), (0, 0));
        let json = r.to_json("unit-test");
        validate_profile_json(&json).expect("well-formed report");
        assert!(json.contains("\"scenario\": \"unit-test\""));
        assert!(json.contains("\"name\": \"fault\", \"events\": 0"));
        assert!(r.summary().contains("sched"));
    }

    #[test]
    fn validator_rejects_malformed_reports() {
        assert!(validate_profile_json("{}").is_err());
        let r = Profiler::new().finish();
        let good = r.to_json("x");
        validate_profile_json(&good).expect("valid");
        assert!(validate_profile_json(&good.replace("dare-bench-v1", "v0")).is_err());
        assert!(
            validate_profile_json(&good.replace("\"name\": \"net\"", "\"name\": \"nyet\""))
                .is_err()
        );
        assert!(
            validate_profile_json(&good.replace("\"total_events\": 0", "\"total_events\": x"))
                .is_err()
        );
    }
}
