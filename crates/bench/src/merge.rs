//! The farm's merged outputs: per-cell CSV, per-coordinate aggregate
//! CSV and JSON, all byte-stable at any thread count.

use crate::run::Sweep;
use crate::spec::{levels, Cell, Metrics, AXES, METRICS};
use dare_simcore::stats::{summarize, Summary};
use std::collections::BTreeMap;

/// Fixed-precision float formatting shared by all merged outputs.
fn fmt(v: f64) -> String {
    format!("{v:.6}")
}

/// The CSV header cells naming the axes.
fn axis_names() -> String {
    AXES.map(|(name, _)| name).join(",")
}

impl Sweep {
    /// One row per coordinate, sorted by coordinate key: a cell standing
    /// for the coordinate, the replicate count and one [`Summary`] per
    /// metric.
    fn aggregate(&self) -> Vec<(&Cell, usize, Vec<Summary>)> {
        let mut groups: BTreeMap<String, (&Cell, Vec<Vec<f64>>)> = BTreeMap::new();
        for (cell, values) in &self.runs {
            let entry = groups
                .entry(cell.key())
                .or_insert_with(|| (cell, vec![Vec::new(); METRICS.len()]));
            for (m, &v) in entry.1.iter_mut().zip(values) {
                m.push(v);
            }
        }
        groups
            .into_values()
            .map(|(cell, per_metric)| {
                let n = per_metric[0].len();
                (cell, n, per_metric.iter().map(|m| summarize(m)).collect())
            })
            .collect()
    }

    /// Per-cell CSV: one row per run, sorted by `(coordinate key,
    /// replicate)`. Columns: the axes, `replicate`, `seed`, the metrics.
    pub fn cells_csv(&self) -> String {
        let mut out = format!("{},replicate,seed,{}\n", axis_names(), METRICS.join(","));
        let mut rows: Vec<&(Cell, Metrics)> = self.runs.iter().collect();
        rows.sort_by_key(|(c, _)| (c.key(), c.replicate));
        for (cell, values) in rows {
            let levels = cell.coords.join(",");
            out.push_str(&format!("{levels},{},{}", cell.replicate, cell.seed));
            for v in values {
                out.push(',');
                out.push_str(&fmt(*v));
            }
            out.push('\n');
        }
        out
    }

    /// Aggregate CSV: one row per coordinate, sorted by coordinate key.
    /// Columns: the axes, `n`, then per metric
    /// `<m>_mean,<m>_std,<m>_ci95`. With a single replicate the spread
    /// columns are empty strings — never `NaN`.
    pub fn agg_csv(&self) -> String {
        let mut out = format!("{},n", axis_names());
        for m in METRICS {
            out.push_str(&format!(",{m}_mean,{m}_std,{m}_ci95"));
        }
        out.push('\n');

        for (cell, n, stats) in self.aggregate() {
            out.push_str(&format!("{},{n}", cell.coords.join(",")));
            for s in &stats {
                out.push(',');
                out.push_str(&fmt(s.mean));
                if s.has_spread() {
                    out.push_str(&format!(",{},{}", fmt(s.std), fmt(s.ci95)));
                } else {
                    out.push_str(",,");
                }
            }
            out.push('\n');
        }
        out
    }

    /// Machine-readable merge: the matrix, the metric names, and the
    /// aggregate rows as JSON. Spread fields are `null` with a single
    /// replicate. Contains no timing, so two runs of the same matrix
    /// produce identical bytes at any thread count.
    pub fn merged_json(&self) -> String {
        let quoted = |xs: &[&str]| {
            let q: Vec<String> = xs.iter().map(|x| format!("\"{x}\"")).collect();
            q.join(", ")
        };
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"sweep\": \"dare-farm\",\n  \"base_seed\": {},\n  \"seeds\": {},\n  \"cells\": {},\n",
            self.base_seed,
            self.seeds,
            self.runs.len()
        ));
        let axes: Vec<String> = AXES
            .iter()
            .zip(levels(self.quick))
            .map(|((name, seeded), levels)| {
                format!(
                    "{{\"name\": \"{name}\", \"seeded\": {seeded}, \"levels\": [{}]}}",
                    quoted(levels)
                )
            })
            .collect();
        out.push_str(&format!(
            "  \"axes\": [{}],\n  \"metrics\": [{}],\n  \"aggregate\": [\n",
            axes.join(", "),
            quoted(&METRICS)
        ));
        let rows = self.aggregate();
        for (i, (cell, n, stats)) in rows.iter().enumerate() {
            let [scheduler, policy, profile, faults] = cell.coords;
            out.push_str(&format!(
                "    {{\"coords\": {{\"faults\": \"{faults}\", \"policy\": \"{policy}\", \
                 \"profile\": \"{profile}\", \"scheduler\": \"{scheduler}\"}}, \"n\": {n}"
            ));
            for (m, s) in METRICS.iter().zip(stats) {
                let (std, ci) = if s.has_spread() {
                    (fmt(s.std), fmt(s.ci95))
                } else {
                    ("null".to_string(), "null".to_string())
                };
                out.push_str(&format!(
                    ", \"{m}\": {{\"mean\": {}, \"std\": {std}, \"ci95\": {ci}}}",
                    fmt(s.mean)
                ));
            }
            out.push('}');
            if i + 1 < rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::sweep;

    /// The quick matrix with deterministic pseudo-metrics in place of
    /// engine runs.
    fn fake(seeds: u32, threads: usize) -> Sweep {
        sweep(99, seeds, true, threads, |c| {
            let base = (c.seed % 1000) as f64;
            let bump = if c.coords[1] == "lru" { 0.5 } else { 0.0 };
            [base + bump, base / 2.0, 0.0, 0.0, 0.0, c.replicate as f64]
        })
    }

    #[test]
    fn aggregate_rows_equal_mean_of_their_cell_rows() {
        let sw = fake(5, 1);
        for (cell, n, stats) in sw.aggregate() {
            let members: Vec<&Metrics> = sw
                .runs
                .iter()
                .filter(|(c, _)| c.coords == cell.coords)
                .map(|(_, m)| m)
                .collect();
            assert_eq!(members.len(), n);
            for (mi, s) in stats.iter().enumerate() {
                let mean = members.iter().map(|m| m[mi]).sum::<f64>() / n as f64;
                assert!((s.mean - mean).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn csv_shapes_and_sorting() {
        let sw = fake(2, 1);
        let cells_csv = sw.cells_csv();
        assert_eq!(
            cells_csv.lines().next().unwrap(),
            "scheduler,policy,profile,faults,replicate,seed,\
             job_locality,task_locality,gmtt_s,p95_slowdown,jobs_failed,re_replicated"
        );
        assert_eq!(cells_csv.lines().count(), 1 + 8 * 2);
        // Sorted by coordinate key (all four axes, by axis name) then
        // replicate.
        assert_eq!(
            sw.runs[0].0.key(),
            "faults=calm;policy=vanilla;profile=cct;scheduler=fifo"
        );
        let first = cells_csv.lines().nth(1).unwrap();
        assert!(first.starts_with("fair,lru,cct,calm,0,"));
        let agg = sw.agg_csv();
        assert!(agg.starts_with("scheduler,policy,profile,faults,n,job_locality_mean,"));
        assert_eq!(agg.lines().count(), 1 + 8);
    }

    #[test]
    fn single_replicate_emits_empty_spread_fields() {
        let sw = fake(1, 1);
        let agg = sw.agg_csv();
        let cells: Vec<&str> = agg.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(cells[4], "1", "n column");
        assert_eq!((cells[6], cells[7]), ("", ""), "spread empty at n=1");
        let json = sw.merged_json();
        assert!(json.contains("\"std\": null"));
        assert!(!agg.contains("NaN") && !json.contains("NaN"));
    }

    #[test]
    fn merged_outputs_byte_identical_across_thread_counts() {
        let one = fake(4, 1);
        let eight = fake(4, 8);
        assert_eq!(one.cells_csv(), eight.cells_csv());
        assert_eq!(one.agg_csv(), eight.agg_csv());
        assert_eq!(one.merged_json(), eight.merged_json());
    }
}
