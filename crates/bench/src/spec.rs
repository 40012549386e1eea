//! The farm experiment's fixed run matrix: its four axes and their
//! levels, the metric columns, and one [`Cell`] per (coordinate,
//! replicate) with its seed from [`cell_seed`].

use crate::harness::cell_seed;

/// Metric columns every cell reports, in order.
pub const METRICS: [&str; 6] = [
    "job_locality",
    "task_locality",
    "gmtt_s",
    "p95_slowdown",
    "jobs_failed",
    "re_replicated",
];

/// One cell's metric values, aligned with [`METRICS`].
pub type Metrics = [f64; METRICS.len()];

/// The axes in declared (column) order, and whether each enters the seed.
pub const AXES: [(&str, bool); 4] = [
    ("scheduler", false),
    ("policy", false),
    ("profile", true),
    ("faults", true),
];

/// The levels of each axis, in [`AXES`] order. `quick` is the CI smoke
/// shape: two levels per axis on the CCT profile only. The full matrix
/// is 2 schedulers × 3 policies × 2 profiles × 3 fault levels.
pub(crate) fn levels(quick: bool) -> [&'static [&'static str]; 4] {
    if quick {
        [
            &["fifo", "fair"],
            &["vanilla", "lru"],
            &["cct"],
            &["calm", "heavy"],
        ]
    } else {
        [
            &["fifo", "fair"],
            &["vanilla", "lru", "et"],
            &["cct", "ec2"],
            &["calm", "light", "heavy"],
        ]
    }
}

/// One run of the matrix: a coordinate plus a replicate index, carrying
/// its derived seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Levels in [`AXES`] order: scheduler, policy, profile, faults.
    pub coords: [&'static str; 4],
    /// Replicate number, `0..seeds`.
    pub replicate: u32,
    /// Seed for this run, from [`cell_seed`].
    pub seed: u64,
}

impl Cell {
    /// Canonical coordinate key: `axis=level` over all four axes, sorted
    /// by axis name. Rows group and sort by it.
    pub fn key(&self) -> String {
        let [scheduler, policy, profile, faults] = self.coords;
        format!("faults={faults};policy={policy};profile={profile};scheduler={scheduler}")
    }
}

/// The full run matrix: axes nested in declared order, replicates
/// innermost.
pub fn cells(base_seed: u64, seeds: u32, quick: bool) -> Vec<Cell> {
    let [schedulers, policies, profiles, faults] = levels(quick);
    let mut out = Vec::new();
    for &scheduler in schedulers {
        for &policy in policies {
            for &profile in profiles {
                for &fault in faults {
                    // Only the environment axes enter the seed.
                    let env = format!("faults={fault};profile={profile}");
                    for replicate in 0..seeds {
                        out.push(Cell {
                            coords: [scheduler, policy, profile, fault],
                            replicate,
                            seed: cell_seed(base_seed, &env, replicate),
                        });
                    }
                }
            }
        }
    }
    out
}

/// Jobs per synthesized workload for one cell.
pub fn jobs_per_cell(quick: bool) -> u32 {
    if quick {
        6
    } else {
        20
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_counts_and_order() {
        assert_eq!(super::cells(42, 3, true).len(), 2 * 2 * 2 * 3);
        let cells = super::cells(42, 3, false);
        assert_eq!(cells.len(), 2 * 3 * 2 * 3 * 3);
        // Declared axis order, replicates innermost.
        assert_eq!(cells[0].coords, ["fifo", "vanilla", "cct", "calm"]);
        assert_eq!(cells[0].replicate, 0);
        assert_eq!(cells[1].replicate, 1);
        assert_eq!(cells[3].coords, ["fifo", "vanilla", "cct", "light"]);
        assert_eq!(cells[3].replicate, 0);
        assert_eq!(cells.last().unwrap().coords, ["fair", "et", "ec2", "heavy"]);
        assert_eq!(cells.last().unwrap().replicate, 2);
    }

    #[test]
    fn key_is_sorted_and_complete() {
        let cells = cells(42, 1, false);
        assert_eq!(
            cells[0].key(),
            "faults=calm;policy=vanilla;profile=cct;scheduler=fifo"
        );
        // Every key names all four axes, sorted by axis name, and tells
        // the coordinates apart.
        let mut names: Vec<&str> = AXES.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        for cell in &cells {
            let key = cell.key();
            let axes: Vec<&str> = key
                .split(';')
                .map(|p| p.split('=').next().unwrap())
                .collect();
            assert_eq!(axes, names, "{key}");
        }
        let mut keys: Vec<String> = cells.iter().map(Cell::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len());
    }

    #[test]
    fn treatment_axes_share_seeds_within_replicate() {
        // Common random numbers: same environment + replicate ⇒ same seed
        // across all scheduler × policy combinations; environments and
        // replicates draw distinct seeds.
        let cells = cells(42, 3, false);
        assert_eq!(cells.len(), 2 * 3 * 2 * 3 * 3);
        for a in &cells {
            for b in &cells {
                let same_env = a.coords[2..] == b.coords[2..] && a.replicate == b.replicate;
                assert_eq!(same_env, a.seed == b.seed, "{a:?} vs {b:?}");
            }
        }
    }
}
