//! Console tables, CSV output, the replicate-seed rule, and the shared
//! run matrix.

use dare_core::PolicyKind;
use dare_mapred::{SchedulerKind, SimConfig, SimResult};
use dare_simcore::json::{self, Json};
use dare_simcore::rng::DetRng;
use dare_simcore::stats::{summarize, Summary};
use dare_workload::Workload;
use std::path::{Path, PathBuf};

/// A simple fixed-width console table that doubles as a CSV buffer.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n== {} ==", self.title);
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.header);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for r in &self.rows {
            line(r);
        }
    }

    /// Serialize as CSV (RFC 4180): a field holding `,`, `"` or a
    /// newline is quoted, with its quotes doubled; every other field is
    /// written as is.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        for line in std::iter::once(&self.header).chain(&self.rows) {
            for (i, field) in line.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                if field.contains([',', '"', '\n', '\r']) {
                    s.push('"');
                    s.push_str(&field.replace('"', "\"\""));
                    s.push('"');
                } else {
                    s.push_str(field);
                }
            }
            s.push('\n');
        }
        s
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Where results land: `results/` next to the workspace root, or the
/// current directory as a fallback.
pub fn results_dir() -> PathBuf {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let found = [PathBuf::from("results"), repo]
        .into_iter()
        .find(|d| d.is_dir());
    found.unwrap_or_else(|| PathBuf::from("."))
}

/// Where CSV results land: `results/<name>.csv`.
pub fn csv_path(name: &str) -> PathBuf {
    results_dir().join(format!("{name}.csv"))
}

/// Print where `path` was written, or why it was not; returns whether it
/// was.
pub fn announce(path: &Path, written: Result<(), String>) -> bool {
    match &written {
        Ok(()) => println!("[results] wrote {}", path.display()),
        Err(e) => eprintln!("[results] {e}"),
    }
    written.is_ok()
}

/// Write `contents` to `results/<file>`; returns whether it was written.
pub fn write_result(file: &str, contents: &str) -> bool {
    let path = results_dir().join(file);
    let written = std::fs::write(&path, contents);
    announce(
        &path,
        written.map_err(|e| format!("could not write {}: {e}", path.display())),
    )
}

/// Write a table's CSV to `results/<name>.csv` (best effort).
pub fn write_csv(name: &str, table: &Table) {
    write_result(&format!("{name}.csv"), &table.to_csv());
}

/// The paper's default seed for experiment runs; change with `--seed`.
pub const DEFAULT_SEED: u64 = 20110926;

/// Derive the seed of one replicate of one experiment cell.
///
/// `seeded_key` names the cell's *seeded* (environment) coordinates —
/// cluster profile, fault level — as `axis=level` pairs sorted and
/// joined with `;`. Treatment coordinates (scheduler, policy) stay out
/// of it, so every system compared in one replicate sees the same draws.
/// The rule:
///
/// - empty `seeded_key` and `replicate == 0` → `base_seed` unchanged, so
///   a `--seeds 1` run reproduces the repo's historical single-seed runs
///   bit-for-bit;
/// - otherwise, a `DetRng` substream labelled `farm:<seeded_key>` at
///   index `replicate`. The label is part of every replicate seed ≥ 1 in
///   the committed `results/`: renaming it moves all of them.
pub fn cell_seed(base_seed: u64, seeded_key: &str, replicate: u32) -> u64 {
    if seeded_key.is_empty() && replicate == 0 {
        return base_seed;
    }
    DetRng::new(base_seed)
        .substream_idx(&format!("farm:{seeded_key}"), replicate as u64)
        .seed()
}

/// One numeric column of a replicated experiment table.
#[derive(Debug, Clone, Copy)]
pub struct MetricCol {
    /// Column name (header cell).
    pub name: &'static str,
    /// Decimal places for the mean (spread columns get at least 3).
    pub prec: usize,
}

/// Shorthand [`MetricCol`] constructor.
pub const fn metric(name: &'static str, prec: usize) -> MetricCol {
    MetricCol { name, prec }
}

/// How to order the merged rows of a replicated experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOrder {
    /// Order of first appearance across replicates (fixed-structure
    /// experiments: the first replicate defines the rows).
    FirstAppearance,
    /// Sort by the first label parsed as a number — for experiments
    /// whose row set varies per seed (e.g. popularity ranks, burst
    /// windows), so late-appearing rows still land in axis order.
    NumericFirstLabel,
}

/// A replicated experiment's merged result: the printable/CSV table
/// (mean columns in the legacy positions, `_std`/`_ci95` appended) plus
/// the numeric summaries for JSON writers.
pub struct SeedTable {
    /// Console/CSV table.
    pub table: Table,
    /// Per-row label values and per-metric summaries, in table order.
    pub rows: Vec<(Vec<String>, Vec<Summary>)>,
    /// Replicates requested.
    pub seeds: u32,
}

/// Run `collect(seed, replicate)` once per replicate and merge the rows
/// into means with appended `<metric>_std` / `<metric>_ci95` columns.
///
/// Replicate seeds follow [`cell_seed`] with no seeded coordinates, so
/// replicate 0 *is* `base_seed` — a `--seeds 1` run reproduces the repo's
/// historical single-seed tables byte-for-byte except for the appended
/// (empty) spread columns. Rows are matched across replicates by their label
/// columns; spread columns are empty strings when a row has fewer than
/// two replicates. Mean columns keep their legacy positions so the
/// committed gnuplot scripts' 1-based column indices stay valid. An
/// experiment with seeded coordinates derives its own seeds from the
/// replicate index and its base seed.
pub fn replicate_experiment<F>(
    title: &str,
    labels: &[&str],
    metrics: &[MetricCol],
    order: RowOrder,
    base_seed: u64,
    seeds: u32,
    collect: F,
) -> SeedTable
where
    F: Fn(u64, u32) -> Vec<(Vec<String>, Vec<f64>)>,
{
    let seeds = seeds.max(1);
    // label-key -> (first-appearance index, per-metric samples)
    let mut merged: Vec<(Vec<String>, Vec<Vec<f64>>)> = Vec::new();
    let mut index: std::collections::HashMap<Vec<String>, usize> = std::collections::HashMap::new();
    for rep in 0..seeds {
        let seed = cell_seed(base_seed, "", rep);
        for (row_labels, values) in collect(seed, rep) {
            assert_eq!(row_labels.len(), labels.len(), "label arity in {title}");
            assert_eq!(values.len(), metrics.len(), "metric arity in {title}");
            let at = *index.entry(row_labels.clone()).or_insert_with(|| {
                merged.push((row_labels, vec![Vec::new(); metrics.len()]));
                merged.len() - 1
            });
            for (samples, v) in merged[at].1.iter_mut().zip(values) {
                samples.push(v);
            }
        }
    }
    if order == RowOrder::NumericFirstLabel {
        merged.sort_by(|a, b| {
            let x: f64 = a.0[0].parse().unwrap_or(f64::MAX);
            let y: f64 = b.0[0].parse().unwrap_or(f64::MAX);
            x.total_cmp(&y)
        });
    }

    let mut header: Vec<&str> = labels.to_vec();
    for m in metrics {
        header.push(m.name);
    }
    let spread_names: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (format!("{}_std", m.name), format!("{}_ci95", m.name)))
        .collect();
    for (s, c) in &spread_names {
        header.push(s);
        header.push(c);
    }
    let mut table = Table::new(title, &header);
    let mut rows = Vec::with_capacity(merged.len());
    for (row_labels, samples) in merged {
        let sums: Vec<Summary> = samples.iter().map(|s| summarize(s)).collect();
        let mut cells = row_labels.clone();
        for (m, s) in metrics.iter().zip(&sums) {
            cells.push(format!("{:.prec$}", s.mean, prec = m.prec));
        }
        for (m, s) in metrics.iter().zip(&sums) {
            if s.has_spread() {
                let p = m.prec.max(3);
                cells.push(format!("{:.p$}", s.std, p = p));
                cells.push(format!("{:.p$}", s.ci95, p = p));
            } else {
                cells.push(String::new());
                cells.push(String::new());
            }
        }
        table.row(cells);
        rows.push((row_labels, sums));
    }
    SeedTable { table, rows, seeds }
}

impl SeedTable {
    /// Print the table and write it to `results/<name>.csv`.
    pub fn emit(&self, name: &str) {
        self.table.print();
        write_csv(name, &self.table);
    }

    /// The body of `results/BENCH_<bench>.json`: a `config` object
    /// holding the caller's run configuration `config`, then `seed`,
    /// `seeds` and `quick`; then per row its labels and the mean and
    /// 95 % CI half-width of every metric across seeds.
    pub fn bench_body<K: Into<String>>(
        &self,
        config: impl IntoIterator<Item = (K, Json)>,
        seed: u64,
        quick: bool,
    ) -> [(&'static str, Json); 2] {
        let config = config.into_iter().map(|(k, v)| (k.into(), v)).chain([
            ("seed".to_string(), seed.into()),
            ("seeds".to_string(), self.seeds.into()),
            ("quick".to_string(), quick.into()),
        ]);
        let rows = self.rows.iter().map(|(labels, sums)| {
            // Header: label columns, then one mean column per metric.
            let (label_names, metric_names) = self.table.header.split_at(labels.len());
            let label_cells =
                (label_names.iter().zip(labels)).map(|(k, v)| (k.clone(), Json::from(v.as_str())));
            let metric_cells = (metric_names.iter().zip(sums)).flat_map(|(m, s)| {
                [
                    (m.clone(), Json::fixed(s.mean, 6)),
                    (format!("{m}_ci95"), Json::fixed(s.ci95, 6)),
                ]
            });
            Json::obj(label_cells.chain(metric_cells))
        });
        [
            ("config", Json::Obj(config.collect())),
            ("rows", rows.collect()),
        ]
    }

    /// Write [`SeedTable::bench_body`] to `results/BENCH_<bench>.json`;
    /// `bench` is also the experiment id. Returns whether the file was
    /// written.
    pub fn write_bench<K: Into<String>>(
        &self,
        bench: &str,
        config: impl IntoIterator<Item = (K, Json)>,
        seed: u64,
        quick: bool,
    ) -> bool {
        write_bench(
            bench,
            &experiments_command(bench, seed, self.seeds, quick),
            self.bench_body(config, seed, quick),
        )
    }
}

/// The command that reruns experiment `id`: `BENCH_QUICK=1` when `quick`,
/// `--seed` when not [`DEFAULT_SEED`], `--seeds` when above 1.
pub fn experiments_command(id: &str, seed: u64, seeds: u32, quick: bool) -> String {
    let quick = if quick { "BENCH_QUICK=1 " } else { "" };
    let seed = Some(seed).filter(|&s| s != DEFAULT_SEED);
    let seed = seed.map_or(String::new(), |s| format!(" --seed {s}"));
    let seeds = Some(seeds).filter(|&n| n > 1);
    let seeds = seeds.map_or(String::new(), |n| format!(" --seeds {n}"));
    format!("{quick}cargo run --release -p dare-bench --bin experiments -- {id}{seed}{seeds}")
}

/// Write `results/BENCH_<bench>.json`: `body` inside the bench envelope
/// ([`json::bench_report`]), with `command` the command that regenerates
/// the file. Returns whether it was written; a debug build is refused.
pub fn write_bench<K: Into<String>>(
    bench: &str,
    command: &str,
    body: impl IntoIterator<Item = (K, Json)>,
) -> bool {
    let path = results_dir().join(format!("BENCH_{bench}.json"));
    let report = json::bench_report(bench, command, body);
    announce(&path, json::write_bench_report(&path, &report))
}

/// One cell of the Figs. 7/10 matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Scheduler used.
    pub scheduler: SchedulerKind,
    /// Policy used.
    pub policy: PolicyKind,
    /// Workload name.
    pub workload: String,
    /// The run's results.
    pub result: SimResult,
}

/// Run the {vanilla, LRU, ElephantTrap} × scheduler matrix for one
/// workload on one base configuration, on every available core.
pub fn run_matrix(
    base: &SimConfig,
    workload: &Workload,
    schedulers: &[SchedulerKind],
) -> Vec<MatrixCell> {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    run_matrix_threads(base, workload, schedulers, threads)
}

/// [`run_matrix`] on up to `threads` workers. Cells come back in
/// scheduler-major, policy-minor order at any thread count.
pub fn run_matrix_threads(
    base: &SimConfig,
    workload: &Workload,
    schedulers: &[SchedulerKind],
    threads: usize,
) -> Vec<MatrixCell> {
    let policies = [
        PolicyKind::Vanilla,
        PolicyKind::GreedyLru,
        PolicyKind::elephant_default(),
    ];
    let mut cells: Vec<(SchedulerKind, PolicyKind)> = Vec::new();
    for &s in schedulers {
        for &p in &policies {
            cells.push((s, p));
        }
    }

    dare_simcore::parallel::parallel_map_threads(cells, threads, |(s, p)| {
        let mut cfg = base.clone();
        cfg.scheduler = s;
        cfg.policy = p;
        let result = dare_mapred::run(cfg, workload);
        MatrixCell {
            scheduler: s,
            policy: p,
            workload: workload.name.clone(),
            result,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        assert!(t.is_empty());
        t.row(vec!["1".into(), "x".into()]);
        t.row(vec!["2".into(), "y".into()]);
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,x\n2,y\n");
        t.print(); // smoke: must not panic
    }

    #[test]
    fn csv_quotes_fields_with_separators() {
        let mut t = Table::new("demo", &["policy", "locality"]);
        t.row(vec!["elephant-trap(p=0.3,thr=1)".into(), "0.5".into()]);
        t.row(vec!["say \"hi\"".into(), "a\nb".into()]);
        let csv = t.to_csv();
        assert_eq!(
            csv,
            "policy,locality\n\"elephant-trap(p=0.3,thr=1)\",0.5\n\"say \"\"hi\"\"\",\"a\nb\"\n"
        );
        // A comma inside a quoted field does not split it: the first data
        // row has exactly as many fields as the header.
        let first = csv.lines().nth(1).expect("data row");
        let mut fields = 0;
        let mut quoted = false;
        for c in first.chars() {
            match c {
                '"' => quoted = !quoted,
                ',' if !quoted => fields += 1,
                _ => {}
            }
        }
        assert_eq!(fields + 1, t.header.len());
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_path_resolves() {
        let p = csv_path("zzz");
        assert!(p.to_string_lossy().ends_with("zzz.csv"));
    }

    #[test]
    fn cell_seed_rule_is_pinned() {
        // Literal values: every replicate seed in the committed results
        // derives from this rule, so a drift must fail here, not only in
        // a figure diff.
        assert_eq!(cell_seed(20110926, "", 0), 20110926);
        assert_eq!(cell_seed(20110926, "", 1), 9869054555245199038);
        assert_eq!(
            cell_seed(20110926, "faults=heavy;profile=ec2", 2),
            1823312696039065281
        );
    }

    #[test]
    fn replicate_experiment_single_seed_matches_legacy_layout() {
        // seeds = 1: replicate 0 is the base seed itself, the mean
        // column carries the single run's value, and the appended
        // spread columns are empty — never NaN.
        let st = replicate_experiment(
            "t",
            &["k"],
            &[metric("v", 3)],
            RowOrder::FirstAppearance,
            77,
            1,
            |seed, replicate| {
                assert_eq!((seed, replicate), (77, 0), "replicate 0 is the base seed");
                vec![(vec!["a".into()], vec![1.5])]
            },
        );
        assert_eq!(st.table.to_csv(), "k,v,v_std,v_ci95\na,1.500,,\n");
        assert_eq!(st.rows[0].1[0].n, 1);
    }

    #[test]
    fn replicate_experiment_means_and_spread() {
        // Two replicates returning 1.0 and 3.0: mean 2, std √2,
        // ci95 = 1.96·√2/√2 = 1.96.
        let st = replicate_experiment(
            "t",
            &["k"],
            &[metric("v", 3)],
            RowOrder::FirstAppearance,
            77,
            2,
            |seed, replicate| {
                assert_eq!(seed, cell_seed(77, "", replicate));
                vec![(vec!["a".into()], vec![1.0 + 2.0 * replicate as f64])]
            },
        );
        let s = st.rows[0].1[0];
        assert_eq!(s.n, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - 2f64.sqrt()).abs() < 1e-12);
        assert!((s.ci95 - 1.96).abs() < 1e-12);
        assert!(st.table.to_csv().contains("a,2.000,1.414,1.960"));
    }

    #[test]
    fn bench_body_puts_the_callers_config_before_the_run_keys() {
        let st = replicate_experiment(
            "t",
            &["k"],
            &[metric("v", 3)],
            RowOrder::FirstAppearance,
            77,
            2,
            |_, replicate| vec![(vec!["a".into()], vec![1.0 + 2.0 * replicate as f64])],
        );
        let config = [("profile", Json::from("ec2")), ("jobs", 30u32.into())];
        let body = Json::obj(st.bench_body(config, 77, true)).render();
        assert!(
            body.contains(
                r#""config": {"profile": "ec2", "jobs": 30, "seed": 77, "seeds": 2, "quick": true}"#
            ),
            "{body}"
        );
        assert!(
            body.contains(r#"{"k": "a", "v": 2.000000, "v_ci95": 1.960000}"#),
            "{body}"
        );
    }

    #[test]
    fn replicate_experiment_aligns_variable_rows_numerically() {
        // Replicates disagree on the row set; merged rows sort by the
        // numeric first label and carry per-row replicate counts.
        let st = replicate_experiment(
            "t",
            &["rank"],
            &[metric("v", 1)],
            RowOrder::NumericFirstLabel,
            77,
            2,
            |seed, _| {
                if seed == 77 {
                    vec![
                        (vec!["1".into()], vec![10.0]),
                        (vec!["10".into()], vec![1.0]),
                    ]
                } else {
                    vec![
                        (vec!["1".into()], vec![12.0]),
                        (vec!["2".into()], vec![5.0]),
                    ]
                }
            },
        );
        let labels: Vec<&str> = st.rows.iter().map(|(l, _)| l[0].as_str()).collect();
        assert_eq!(labels, ["1", "2", "10"]);
        assert_eq!(st.rows[0].1[0].n, 2);
        assert_eq!(st.rows[1].1[0].n, 1);
    }
}
