//! The trace: the recorded event log and the counters and latency
//! statistics folded from it.

use crate::event::{FlowKind, Subsystem, TraceEvent, TraceRecord};
use dare_simcore::stats::LatencyStat;
use dare_simcore::time::SimTime;

/// Per-subsystem and headline event counters of a [`Trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// All events recorded.
    pub total: u64,
    /// Events attributed to the scheduler subsystem.
    pub sched: u64,
    /// Events attributed to the network subsystem.
    pub net: u64,
    /// Events attributed to the DFS subsystem.
    pub dfs: u64,
    /// Events attributed to the fault subsystem.
    pub fault: u64,
    /// `task_launched` events.
    pub tasks_launched: u64,
    /// `task_committed` events.
    pub tasks_committed: u64,
    /// `delay_skip` events.
    pub delay_skips: u64,
    /// `flow_started` events.
    pub flows_started: u64,
    /// `flow_finished` events.
    pub flows_finished: u64,
    /// Bytes delivered by finished flows.
    pub bytes_delivered: u64,
    /// `replica_committed` events.
    pub replicas_committed: u64,
    /// `replica_evicted` events.
    pub replicas_evicted: u64,
    /// `task_aborted` events.
    pub tasks_aborted: u64,
}

/// A run's trace: the totally-ordered event log. The engine calls
/// [`Trace::record`] at each emission point; counters and latency
/// statistics are folds over [`Trace::records`], so a trace read back
/// from JSONL reports exactly what the live one did.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Record one event at simulation time `now`.  Sequence numbers are
    /// assigned in call order, so recording order defines the total order
    /// of the trace.
    pub fn record(&mut self, now: SimTime, event: TraceEvent) {
        let seq = self.records.len() as u64;
        self.records.push(TraceRecord {
            time: now,
            seq,
            event,
        });
    }

    /// The event log in recording order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Event counters, folded over the records.
    pub fn counters(&self) -> TraceCounters {
        let mut c = TraceCounters::default();
        for r in &self.records {
            c.total += 1;
            match r.event.subsystem() {
                Subsystem::Sched => c.sched += 1,
                Subsystem::Net => c.net += 1,
                Subsystem::Dfs => c.dfs += 1,
                Subsystem::Fault => c.fault += 1,
            }
            match r.event {
                TraceEvent::TaskLaunched { .. } => c.tasks_launched += 1,
                TraceEvent::TaskCommitted { .. } => c.tasks_committed += 1,
                TraceEvent::TaskAborted { .. } => c.tasks_aborted += 1,
                TraceEvent::DelaySkip { .. } => c.delay_skips += 1,
                TraceEvent::FlowStarted { .. } => c.flows_started += 1,
                TraceEvent::FlowFinished { bytes, .. } => {
                    c.flows_finished += 1;
                    c.bytes_delivered += bytes;
                }
                TraceEvent::ReplicaCommitted { .. } => c.replicas_committed += 1,
                TraceEvent::ReplicaEvicted { .. } => c.replicas_evicted += 1,
                _ => {}
            }
        }
        c
    }

    /// Multi-line human summary (counters + latency percentiles) printed
    /// by the CLI after a traced run. The percentiles are P² estimates
    /// (see [`LatencyStat`]) fed in record order.
    pub fn summary(&self) -> String {
        let c = self.counters();
        let [mut fetch, mut recovery, mut task, mut job]: [LatencyStat; 4] = Default::default();
        for r in &self.records {
            let (stat, us) = match r.event {
                TraceEvent::FlowFinished {
                    kind: FlowKind::Fetch,
                    dur_us,
                    ..
                } => (&mut fetch, dur_us),
                TraceEvent::FlowFinished {
                    kind: FlowKind::Recovery,
                    dur_us,
                    ..
                } => (&mut recovery, dur_us),
                TraceEvent::TaskCommitted { dur_us, .. } => (&mut task, dur_us),
                TraceEvent::JobCompleted { dur_us, .. } => (&mut job, dur_us),
                _ => continue,
            };
            stat.push(us as f64 / 1e6);
        }
        let mut s = String::new();
        s.push_str(&format!(
            "trace: {} events (sched {}, net {}, dfs {}, fault {})\n",
            c.total, c.sched, c.net, c.dfs, c.fault
        ));
        s.push_str(&format!(
            "  tasks: {} launched, {} committed, {} aborted; {} delay skips\n",
            c.tasks_launched, c.tasks_committed, c.tasks_aborted, c.delay_skips
        ));
        s.push_str(&format!(
            "  flows: {} started, {} finished, {} bytes delivered\n",
            c.flows_started, c.flows_finished, c.bytes_delivered
        ));
        s.push_str(&format!(
            "  replicas: {} committed, {} evicted\n",
            c.replicas_committed, c.replicas_evicted
        ));
        s.push_str(&format!("  fetch    {}\n", fetch.summary()));
        s.push_str(&format!("  recovery {}\n", recovery.summary()));
        s.push_str(&format!("  task     {}\n", task.summary()));
        s.push_str(&format!("  job      {}\n", job.summary()));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FlowCtx, Loc};
    use dare_simcore::time::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn counters_follow_events() {
        let mut trace = Trace::default();
        trace.record(t(0), TraceEvent::JobSubmitted { job: 0, maps: 2 });
        trace.record(
            t(1),
            TraceEvent::TaskLaunched {
                job: 0,
                task: 0,
                attempt: 0,
                node: 3,
                loc: Loc::Node,
                speculative: false,
                local_read: true,
            },
        );
        trace.record(
            t(2),
            TraceEvent::FlowStarted {
                flow: 1,
                kind: FlowKind::Fetch,
                src: 1,
                dst: 3,
                bytes: 100,
                cross_rack: false,
                ctx: FlowCtx::Fetch {
                    job: 0,
                    task: 1,
                    attempt: 0,
                },
            },
        );
        trace.record(
            t(500_000),
            TraceEvent::FlowFinished {
                flow: 1,
                kind: FlowKind::Fetch,
                src: 1,
                dst: 3,
                bytes: 100,
                dur_us: 499_998,
                ctx: FlowCtx::Fetch {
                    job: 0,
                    task: 1,
                    attempt: 0,
                },
            },
        );
        let c = trace.counters();
        assert_eq!(c.total, 4);
        assert_eq!(c.sched, 2);
        assert_eq!(c.net, 2);
        assert_eq!(c.tasks_launched, 1);
        assert_eq!(c.flows_started, 1);
        assert_eq!(c.flows_finished, 1);
        assert_eq!(c.bytes_delivered, 100);
        assert!(trace.summary().contains("  fetch    n=1 mean=0.500s"));
        // Sequence numbers are dense and ordered.
        for (i, r) in trace.records().iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
        assert!(trace.summary().contains("4 events"));
    }
}
