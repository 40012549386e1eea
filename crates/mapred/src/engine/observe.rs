use super::Engine;
use crate::result::{ProactiveStats, SimResult};
use dare_dfs::Dfs;
use dare_net::NodeId;
use dare_sched::Locality;
use dare_simcore::SimTime;
use dare_telemetry::Value::{F64, U64};
use dare_telemetry::{JobPhase, JobSample, NodeSample};
use dare_trace::{Loc, TraceEvent};

impl Engine {
    /// Record one trace event at the current simulation time (no-op
    /// unless `record_trace` is set).
    pub(super) fn emit(&mut self, ev: TraceEvent) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(self.now, ev);
        }
    }

    /// Drain the scheduler's recorded delay-scheduling declines into the
    /// trace. Called after every slot offer so skips land in the log
    /// before the launch (or give-up) they preceded.
    pub(super) fn drain_skip_trace(&mut self) {
        if self.tracer.is_none() {
            return;
        }
        let mut skips = std::mem::take(&mut self.skip_scratch);
        self.scheduler.drain_skips(&mut skips);
        for s in skips.drain(..) {
            self.emit(TraceEvent::DelaySkip {
                job: s.job.0,
                node: s.node.0,
                skips: s.skips,
                offered: trace_loc(s.offered),
            });
        }
        self.skip_scratch = skips;
    }

    /// Emit samples for every pending tick strictly before `next_event`.
    pub(super) fn pump_telemetry(&mut self, next_event: SimTime) {
        while let Some(tick) = self.telem.as_ref().map(|s| s.next) {
            if tick >= next_event {
                return;
            }
            self.take_sample(tick, false);
            if let Some(s) = self.telem.as_mut() {
                s.next = tick + s.interval;
            }
        }
    }

    /// Drain the ticks left at end of run, then take one terminal sample
    /// at the final simulation time (with a terminal row for every job).
    pub(super) fn final_telemetry(&mut self) {
        let end = self.now;
        self.pump_telemetry(end);
        self.take_sample(end, true);
    }

    /// Snapshot the cluster at tick `ts`: one cluster row, one row per
    /// node, one row per in-flight job (every job when `terminal`).
    /// Observation-only: reads engine state, mutates nothing outside the
    /// sampler itself.
    fn take_sample(&mut self, ts: SimTime, terminal: bool) {
        let Some(mut telem) = self.telem.take() else {
            return;
        };
        let t_us = ts.as_micros();
        let n = self.nodes.len();
        let map_cap = self.cfg.profile.map_slots_per_node;
        let red_cap = self.cfg.profile.reduce_slots_per_node;
        self.flows.nic_utilization_into(&mut telem.util_scratch);

        // Per-node rows, accumulating the master-visible slot totals: a
        // silently crashed node still advertises its slots until the
        // missed-heartbeat timeout declares it dead, which is exactly the
        // step change the fault-telemetry test pins at the detection tick.
        let (mut map_used, mut map_total) = (0u64, 0u64);
        let (mut red_used, mut red_total) = (0u64, 0u64);
        let mut running_reduces = 0u64;
        for i in 0..n {
            let declared = self.nodes.declared(i);
            let nm_total = if declared { 0 } else { map_cap };
            let nm_used = nm_total.saturating_sub(self.nodes.free_map(i));
            let nr_total = if declared { 0 } else { red_cap };
            let nr_used = nr_total.saturating_sub(self.nodes.free_reduce(i));
            map_used += nm_used as u64;
            map_total += nm_total as u64;
            red_used += nr_used as u64;
            red_total += nr_total as u64;
            running_reduces += self.nodes.running_reduces(i) as u64;
            let (tx, rx) = telem.util_scratch[i];
            telem.link_util.push(tx);
            telem.link_util.push(rx);
            let dn = self.dfs.datanode(NodeId(i as u32));
            telem.out.nodes.push(NodeSample {
                t_us,
                node: i as u32,
                alive: !self.nodes.crashed(i) && !declared,
                advertised: !declared,
                map_used: nm_used,
                map_total: nm_total,
                reduce_used: nr_used,
                reduce_total: nr_total,
                dynamic_blocks: dn.dynamic_count() as u64,
                dynamic_bytes: dn.dynamic_bytes(),
                tx_util: tx,
                rx_util: rx,
            });
        }

        // Per-job rows plus the cumulative locality tally. The locality
        // classes count launched attempts (rolled back if an attempt dies),
        // so the rate is over launched work, in-flight maps included; at
        // the terminal sample they equal the outcome counters exactly.
        let (mut maps_done, mut node_local) = (0u64, 0u64);
        let (mut rack_local, mut remote) = (0u64, 0u64);
        for (j, js) in self.jobs.iter().enumerate() {
            maps_done += js.maps_done as u64;
            node_local += js.node_local as u64;
            rack_local += js.rack_local as u64;
            remote += js.remote as u64;
            let phase = if js.failed {
                JobPhase::Failed
            } else if js.maps_done as usize == js.blocks.len() && js.reduces_done >= js.reduces {
                JobPhase::Done
            } else {
                JobPhase::Running
            };
            if terminal || (js.arrival <= ts && phase == JobPhase::Running) {
                telem.out.jobs.push(JobSample {
                    t_us,
                    job: j as u32,
                    phase,
                    maps_total: js.blocks.len() as u32,
                    maps_done: js.maps_done,
                    node_local: js.node_local,
                    rack_local: js.rack_local,
                    remote: js.remote,
                    reduces_done: js.reduces_done,
                });
            }
        }

        // Each cluster column is named once, here, where its value is
        // computed; the first tick records the names.
        let d = self.stats.delta(&telem.prev_faults);
        telem.prev_faults = self.stats;
        let depth = self.queue.depth();
        let dyn_bytes = self.dfs.total_dynamic_bytes();
        let primary = self.dfs.total_primary_bytes();
        let t = &mut telem.out;
        t.push_row(t_us);
        t.put("map_slots_used", U64(map_used));
        t.put("map_slots_total", U64(map_total));
        t.put("reduce_slots_used", U64(red_used));
        t.put("reduce_slots_total", U64(red_total));
        t.put("queued_jobs", U64(depth.jobs as u64));
        t.put("pending_tasks", U64(depth.pending_tasks as u64));
        t.put("running_maps", U64(depth.running_maps as u64));
        t.put("pending_reduces", U64(self.pending_reduces.len() as u64));
        t.put("running_reduces", U64(running_reduces));
        t.put("maps_done", U64(maps_done));
        t.put("node_local", U64(node_local));
        t.put("rack_local", U64(rack_local));
        t.put("remote", U64(remote));
        let launched = node_local + rack_local + remote;
        let locality = if launched == 0 {
            0.0
        } else {
            node_local as f64 / launched as f64
        };
        t.put("locality_rate", F64(locality));
        t.put("dynamic_replicas", U64(self.dfs.total_dynamic_replicas()));
        t.put("dynamic_bytes", U64(dyn_bytes));
        let overhead = if primary == 0 {
            0.0
        } else {
            dyn_bytes as f64 / primary as f64
        };
        t.put("storage_overhead", F64(overhead));
        t.put("under_replicated", U64(self.recovery_q.len() as u64));
        t.put("lost_blocks", U64(self.lost_blocks.len() as u64));
        t.put("active_flows", U64(self.flows.active() as u64));
        t.put("fetch_flows", U64(self.fetches.len() as u64));
        t.put("recovery_flows", U64(self.recovery_flows.len() as u64));
        t.put("proactive_flows", U64(self.proactive_flows.len() as u64));
        t.put_window("link_util", &mut telem.link_util);
        t.put("d_nodes_declared_dead", U64(d.nodes_declared_dead));
        t.put("d_nodes_rejoined", U64(d.nodes_rejoined));
        t.put("d_blocks_re_replicated", U64(d.blocks_re_replicated));
        t.put("d_recovery_bytes", U64(d.recovery_bytes));
        t.put("d_blocks_lost", U64(d.blocks_lost));
        t.put("d_tasks_retried", U64(d.tasks_retried));
        t.put("d_tasks_failed", U64(d.tasks_failed));
        t.put("d_jobs_failed", U64(d.jobs_failed));
        if let Some(repair_time) = telem.repair_time.as_mut() {
            t.put("corrupt_replicas", U64(self.dfs.total_corrupt_replicas()));
            t.put("quarantine_depth", U64(self.repair_started.len() as u64));
            t.put("d_scrub_bytes", U64(d.scrub_bytes));
            t.put("d_checksum_failures", U64(d.checksum_failures));
            t.put("d_scrub_detections", U64(d.scrub_detections));
            t.put("d_replicas_quarantined", U64(d.replicas_quarantined));
            t.put_window("repair_time_secs", repair_time);
        }
        self.telem = Some(telem);
    }

    pub(super) fn finish(mut self) -> SimResult {
        let trace = self.tracer.take();
        let telemetry = self.telem.take().map(|t| t.out);
        let profile = self.profiler.take().map(|mut p| {
            p.note_slab_peak(self.flows.peak_active() as u64);
            p.finish()
        });
        let dfs_fingerprint = self.dfs.replica_fingerprint();
        self.outcomes.sort_by_key(|o| o.id);
        let run = dare_metrics::summarize(&self.outcomes);
        let mut replicas_created = 0;
        let mut evictions = 0;
        let mut skipped_by_sampling = 0;
        let mut skipped_no_victim = 0;
        for p in &self.policies {
            let s = p.stats();
            replicas_created += s.replicas_created;
            evictions += s.evictions;
            skipped_by_sampling += s.skipped_by_sampling;
            skipped_no_victim += s.skipped_no_victim;
        }
        let cv_after = popularity_cv_of(&self.dfs, &self.file_popularity);
        let proactive = self.scarlett.as_ref().map(|sc| ProactiveStats {
            bytes_moved: sc.bytes_moved,
            replicas_created: sc.replicas_created,
            evictions: sc.evictions,
        });
        let _ = &self.workload_name;
        SimResult {
            blocks_per_job: dare_metrics::blocks_created_per_job(
                replicas_created,
                self.outcomes.len(),
            ),
            run,
            outcomes: self.outcomes,
            replicas_created,
            evictions,
            skipped_by_sampling,
            skipped_no_victim,
            cv_before: self.cv_before,
            cv_after,
            final_dynamic_bytes: self.dfs.total_dynamic_bytes(),
            remote_bytes_fetched: self.remote_bytes_fetched,
            proactive,
            speculative_launches: self.speculative_launches,
            speculative_wins: self.speculative_wins,
            faults: self.stats,
            trace,
            telemetry,
            profile,
            logical_events: self.logical_events,
            sched_offers: self.sched_offers,
            sched_probes: self.queue.probes(),
            flow_rerates: self.flows.rerates(),
            dfs_fingerprint,
        }
    }
}

/// Map the scheduler's locality class onto the trace schema's.
pub(super) fn trace_loc(l: Locality) -> Loc {
    match l {
        Locality::NodeLocal => Loc::Node,
        Locality::RackLocal => Loc::Rack,
        Locality::Remote => Loc::Remote,
    }
}

/// Fig. 11's uniformity score over the current DFS placement.
pub(super) fn popularity_cv_of(dfs: &Dfs, file_popularity: &[f64]) -> f64 {
    let per_node: Vec<Vec<(u64, f64)>> = dfs
        .datanodes()
        .iter()
        .map(|dn| {
            dn.all_blocks()
                .into_iter()
                .map(|b| {
                    let meta = dfs.namenode().block(b);
                    (meta.size_bytes, file_popularity[meta.file.idx()])
                })
                .collect()
        })
        .collect();
    dare_metrics::popularity_cv(&per_node)
}
