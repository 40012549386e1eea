//! Byte-stable CSV/JSON exports and the terminal attribution table.
//!
//! Every duration is formatted straight from integer microseconds as a
//! fixed six-decimal seconds string (`123.456789`), so identical traces
//! produce byte-identical exports regardless of platform, thread count
//! or float rounding mode — the same golden-file discipline the JSONL
//! trace export follows.

use crate::analyze::{JobXray, XrayReport, COMPONENT_BUCKETS};
use dare_simcore::json::Json;

/// Format integer microseconds as a fixed-point seconds string with six
/// decimals (`1_500_000` → `"1.500000"`). Pure integer arithmetic for
/// byte stability.
pub fn secs(us: u64) -> String {
    format!("{}.{:06}", us / 1_000_000, us % 1_000_000)
}

/// The per-job CSV header, one column per critical-path bucket, one
/// per all-task bucket sum, plus the three what-if estimates.
pub const CSV_HEADER: &str = "job,maps,tasks,turnaround_s,reduce_s,critical_task,\
cp_queue_s,cp_sched_delay_s,cp_fetch_s,cp_recovery_s,cp_compute_s,cp_retry_s,\
sum_queue_s,sum_sched_delay_s,sum_fetch_s,sum_recovery_s,sum_compute_s,sum_retry_s,\
whatif_all_local_s,whatif_zero_sched_s,whatif_zero_fault_s";

fn csv_row(j: &JobXray) -> String {
    let mut row = format!(
        "{},{},{},{},{},{}",
        j.job,
        j.maps,
        j.tasks.len(),
        secs(j.turnaround_us),
        secs(j.reduce_us),
        j.critical_task
    );
    for b in COMPONENT_BUCKETS {
        row.push(',');
        row.push_str(&secs(j.cp_bucket_us(b)));
    }
    for b in COMPONENT_BUCKETS {
        row.push(',');
        row.push_str(&secs(j.sum_bucket_us(b)));
    }
    for w in [
        j.whatif_all_local_us,
        j.whatif_zero_sched_us,
        j.whatif_zero_fault_us,
    ] {
        row.push(',');
        row.push_str(&secs(w));
    }
    row
}

/// Render the report as a per-job CSV (header + one row per completed
/// job, sorted by job id, trailing newline).
pub fn to_csv(report: &XrayReport) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for j in &report.jobs {
        out.push_str(&csv_row(j));
        out.push('\n');
    }
    out
}

/// Render the report as one JSON document (`"schema": "dare-xray-v1"`):
/// aggregate totals plus a `per_job` array, one job a line. Durations
/// are fixed-point seconds numbers.
pub fn to_json(report: &XrayReport) -> String {
    let s = |us: u64| Json::Num(secs(us));
    // The bucket and what-if columns of the totals and of every job.
    let buckets = |cp: [u64; 6], sum: [u64; 6], whatif: [u64; 3]| {
        let cp =
            (COMPONENT_BUCKETS.iter().zip(cp)).map(|(b, us)| (format!("cp_{}_s", b.name()), s(us)));
        let sum = (COMPONENT_BUCKETS.iter().zip(sum))
            .map(|(b, us)| (format!("sum_{}_s", b.name()), s(us)));
        let names = [
            "whatif_all_local_s",
            "whatif_zero_sched_s",
            "whatif_zero_fault_s",
        ];
        let whatif = names
            .into_iter()
            .zip(whatif)
            .map(|(k, us)| (k.to_string(), s(us)));
        cp.chain(sum).chain(whatif).collect::<Vec<_>>()
    };
    let named =
        |fields: Vec<(&'static str, Json)>| fields.into_iter().map(|(k, v)| (k.to_string(), v));
    let per_job = report.jobs.iter().map(|j| {
        let head = vec![
            ("job", Json::from(j.job)),
            ("maps", j.maps.into()),
            ("tasks", j.tasks.len().into()),
            ("turnaround_s", s(j.turnaround_us)),
            ("reduce_s", s(j.reduce_us)),
            ("critical_task", j.critical_task.into()),
        ];
        let cp = COMPONENT_BUCKETS.map(|b| j.cp_bucket_us(b));
        let sum = COMPONENT_BUCKETS.map(|b| j.sum_bucket_us(b));
        let whatif = [
            j.whatif_all_local_us,
            j.whatif_zero_sched_us,
            j.whatif_zero_fault_us,
        ];
        Json::Obj(named(head).chain(buckets(cp, sum, whatif)).collect())
    });
    let t = report.totals();
    let head = vec![
        ("schema", Json::from("dare-xray-v1")),
        ("jobs", t.jobs.into()),
        ("jobs_failed", report.jobs_failed.into()),
        ("tasks", t.tasks.into()),
        ("skipped_tasks", report.skipped_tasks.into()),
        ("spec_launches", report.spec_launches.into()),
        ("spec_waste_s", s(report.spec_waste_us)),
        ("turnaround_s", s(t.turnaround_us)),
        ("reduce_s", s(t.reduce_us)),
    ];
    let whatif = [
        t.whatif_all_local_us,
        t.whatif_zero_sched_us,
        t.whatif_zero_fault_us,
    ];
    let fields = named(head)
        .chain(buckets(t.cp_us, t.sum_us, whatif))
        .chain([("per_job".to_string(), per_job.collect())]);
    Json::Obj(fields.collect()).render()
}

/// Render the human attribution table printed by `dare-sim xray`: the
/// `top` slowest jobs by turnaround (critical-path buckets per row), a
/// totals row, and the what-if summary lines.
pub fn table(report: &XrayReport, top: usize) -> String {
    let t = report.totals();
    let mut out = String::new();
    out.push_str(&format!(
        "xray: {} jobs attributed ({} failed/incomplete excluded), {} tasks",
        t.jobs, report.jobs_failed, t.tasks
    ));
    if report.spec_launches > 0 {
        out.push_str(&format!(
            "; {} speculative backups ({} s waste)",
            report.spec_launches,
            secs(report.spec_waste_us)
        ));
    }
    out.push('\n');
    if report.jobs.is_empty() {
        return out;
    }
    out.push_str(&format!(
        "{:>6} {:>5} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "job",
        "maps",
        "turnaround",
        "queue",
        "sched",
        "fetch",
        "recovery",
        "compute",
        "retry",
        "reduce"
    ));
    let mut order: Vec<&JobXray> = report.jobs.iter().collect();
    order.sort_by(|a, b| {
        b.turnaround_us
            .cmp(&a.turnaround_us)
            .then(a.job.cmp(&b.job))
    });
    for j in order.iter().take(top) {
        out.push_str(&format!(
            "{:>6} {:>5} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            j.job,
            j.maps,
            secs(j.turnaround_us),
            secs(j.cp_bucket_us(crate::Bucket::Queue)),
            secs(j.cp_bucket_us(crate::Bucket::SchedDelay)),
            secs(j.cp_bucket_us(crate::Bucket::Fetch)),
            secs(j.cp_bucket_us(crate::Bucket::Recovery)),
            secs(j.cp_bucket_us(crate::Bucket::Compute)),
            secs(j.cp_bucket_us(crate::Bucket::Retry)),
            secs(j.reduce_us),
        ));
    }
    if order.len() > top {
        out.push_str(&format!("  ... {} more jobs\n", order.len() - top));
    }
    out.push_str(&format!(
        "{:>6} {:>5} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "TOTAL",
        t.tasks,
        secs(t.turnaround_us),
        secs(t.cp_us[0]),
        secs(t.cp_us[1]),
        secs(t.cp_us[2]),
        secs(t.cp_us[3]),
        secs(t.cp_us[4]),
        secs(t.cp_us[5]),
        secs(t.reduce_us),
    ));
    for (name, w) in [
        ("all-local fetches", t.whatif_all_local_us),
        ("zero sched delay", t.whatif_zero_sched_us),
        ("zero faults", t.whatif_zero_fault_us),
    ] {
        let saved = t.turnaround_us - w;
        let pct = if t.turnaround_us > 0 {
            saved as f64 * 100.0 / t.turnaround_us as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "what-if {:<18} turnaround {} s (saves {} s, {:.1}%)\n",
            name,
            secs(w),
            secs(saved),
            pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use dare_simcore::time::SimTime;
    use dare_trace::{Loc, Trace, TraceEvent};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn mini_report() -> XrayReport {
        let mut tr = Trace::default();
        tr.record(t(0), TraceEvent::JobSubmitted { job: 3, maps: 1 });
        tr.record(
            t(1_000_000),
            TraceEvent::TaskLaunched {
                job: 3,
                task: 0,
                attempt: 0,
                node: 2,
                loc: Loc::Node,
                speculative: false,
                local_read: true,
            },
        );
        tr.record(
            t(1_250_000),
            TraceEvent::TaskReadDone {
                job: 3,
                task: 0,
                attempt: 0,
                node: 2,
            },
        );
        tr.record(
            t(4_000_000),
            TraceEvent::TaskCommitted {
                job: 3,
                task: 0,
                attempt: 0,
                node: 2,
                dur_us: 3_000_000,
            },
        );
        tr.record(
            t(4_500_000),
            TraceEvent::JobCompleted {
                job: 3,
                dur_us: 4_500_000,
            },
        );
        analyze(&tr)
    }

    #[test]
    fn secs_formats_fixed_point() {
        assert_eq!(secs(0), "0.000000");
        assert_eq!(secs(1), "0.000001");
        assert_eq!(secs(1_500_000), "1.500000");
        assert_eq!(secs(61_000_001), "61.000001");
    }

    #[test]
    fn csv_is_exact_and_stable() {
        let r = mini_report();
        let csv = to_csv(&r);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        let row = lines.next().unwrap();
        assert_eq!(
            row,
            "3,1,1,4.500000,0.500000,0,\
             1.000000,0.000000,0.000000,0.000000,3.000000,0.000000,\
             1.000000,0.000000,0.000000,0.000000,3.000000,0.000000,\
             4.500000,4.500000,4.500000"
        );
        assert_eq!(lines.next(), None);
        // Byte-stable across renders.
        assert_eq!(csv, to_csv(&r));
    }

    #[test]
    fn json_carries_schema_and_totals() {
        let r = mini_report();
        let json = to_json(&r);
        assert!(json.starts_with("{\n  \"schema\": \"dare-xray-v1\",\n  \"jobs\": 1,"));
        assert!(json.contains("\n  \"cp_compute_s\": 3.000000,"));
        assert!(json.contains("\n  \"whatif_all_local_s\": 4.500000,"));
        assert!(json.contains("\"per_job\": [\n    {\"job\": 3, \"maps\": 1,"));
        assert!(json.ends_with("\"whatif_zero_fault_s\": 4.500000}\n  ]\n}\n"));
        dare_simcore::json::parse(&json).expect("one JSON document");
        assert_eq!(json, to_json(&r));
    }

    #[test]
    fn table_lists_jobs_and_whatifs() {
        let r = mini_report();
        let tbl = table(&r, 10);
        assert!(tbl.contains("1 jobs attributed"));
        assert!(tbl.contains("what-if all-local fetches"));
        assert!(tbl.contains("4.500000"));
        // Truncation notice when top is smaller than the job count.
        let tbl0 = table(&r, 0);
        assert!(tbl0.contains("... 1 more jobs"));
    }
}
