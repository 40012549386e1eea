//! Self-verifying reproduction: run the headline experiments and check
//! each of the paper's claims against explicit acceptance bands, printing
//! a PASS/FAIL table. `cargo run -p dare-bench --bin experiments -- verify`
//! is the one-command answer to "does this reproduction still hold?".

use crate::harness::{write_csv, Table};
use dare_core::PolicyKind;
use dare_mapred::{SchedulerKind, SimConfig, SimResult};
use dare_simcore::parallel::parallel_map;

/// One checked claim.
struct Claim {
    id: &'static str,
    paper: &'static str,
    measured: String,
    pass: bool,
}

fn run(
    policy: PolicyKind,
    sched: SchedulerKind,
    wl: &dare_workload::Workload,
    seed: u64,
) -> SimResult {
    dare_mapred::run(SimConfig::cct(policy, sched, seed), wl)
}

/// Run the verification suite; returns the number of failed claims.
pub fn run_all(seed: u64) -> usize {
    let wl1 = dare_workload::wl1(seed);
    let wl2 = dare_workload::wl2(seed);

    // All base runs in parallel.
    let configs = [
        ("v-fifo-1", PolicyKind::Vanilla, SchedulerKind::Fifo, 1u8),
        ("l-fifo-1", PolicyKind::GreedyLru, SchedulerKind::Fifo, 1),
        (
            "e-fifo-1",
            PolicyKind::elephant_default(),
            SchedulerKind::Fifo,
            1,
        ),
        (
            "v-fair-1",
            PolicyKind::Vanilla,
            SchedulerKind::fair_default(),
            1,
        ),
        ("v-fifo-2", PolicyKind::Vanilla, SchedulerKind::Fifo, 2),
        ("l-fifo-2", PolicyKind::GreedyLru, SchedulerKind::Fifo, 2),
        (
            "e-fifo-2",
            PolicyKind::elephant_default(),
            SchedulerKind::Fifo,
            2,
        ),
        (
            "v-fair-2",
            PolicyKind::Vanilla,
            SchedulerKind::fair_default(),
            2,
        ),
        (
            "l-fair-2",
            PolicyKind::GreedyLru,
            SchedulerKind::fair_default(),
            2,
        ),
        (
            "e-fair-2",
            PolicyKind::elephant_default(),
            SchedulerKind::fair_default(),
            2,
        ),
    ];
    let results = parallel_map(configs.to_vec(), |(key, policy, sched, which)| {
        let wl = if which == 1 { &wl1 } else { &wl2 };
        (key, run(policy, sched, wl, seed))
    });
    let get = |key: &str| {
        &results
            .iter()
            .find(|(k, _)| *k == key)
            .expect("configured run")
            .1
    };

    let mut claims: Vec<Claim> = Vec::new();
    let mut claim = |id: &'static str, paper: &'static str, measured: String, pass: bool| {
        claims.push(Claim {
            id,
            paper,
            measured,
            pass,
        });
    };

    // 1. FIFO locality multiplier.
    let mult1 = get("l-fifo-1").run.job_locality / get("v-fifo-1").run.job_locality;
    claim(
        "fifo-locality-multiplier",
        ">7x (we accept >=3x)",
        format!("{mult1:.1}x (wl1, lru)"),
        mult1 >= 3.0,
    );
    // 2. ElephantTrap also multiplies FIFO locality.
    let mult_et = get("e-fifo-1").run.job_locality / get("v-fifo-1").run.job_locality;
    claim(
        "fifo-locality-et",
        "large improvement at p=0.3",
        format!("{mult_et:.1}x (wl1, et)"),
        mult_et >= 2.0,
    );
    // 3. Fair + DARE approaches full locality on wl2.
    let fair_dare = get("l-fair-2").run.job_locality;
    claim(
        "fair-dare-near-full",
        "close to 100% (we accept >=0.85)",
        format!("{fair_dare:.3} (wl2, fair, lru)"),
        fair_dare >= 0.85,
    );
    // 4. GMTT reduction.
    let gmtt_red = 1.0 - get("l-fifo-2").run.gmtt_secs / get("v-fifo-2").run.gmtt_secs;
    claim(
        "gmtt-reduction",
        "-16%..-19% (we accept >=5%)",
        format!("{:.1}% (wl2, fifo, lru)", gmtt_red * 100.0),
        gmtt_red >= 0.05,
    );
    // 5. Slowdown reduction.
    let slow_red = 1.0 - get("l-fifo-2").run.mean_slowdown / get("v-fifo-2").run.mean_slowdown;
    claim(
        "slowdown-reduction",
        "-20%..-25% (we accept >=5%)",
        format!("{:.1}% (wl2, fifo, lru)", slow_red * 100.0),
        slow_red >= 0.05,
    );
    // 6. ET disk writes ~50% of LRU at comparable locality.
    let write_ratio =
        get("e-fifo-2").replicas_created as f64 / get("l-fifo-2").replicas_created.max(1) as f64;
    let loc_ratio = get("e-fifo-2").run.job_locality / get("l-fifo-2").run.job_locality;
    claim(
        "et-half-the-writes",
        "~50% of LRU's disk writes, comparable locality",
        format!(
            "{:.0}% writes at {:.0}% of lru locality (wl2)",
            write_ratio * 100.0,
            loc_ratio * 100.0
        ),
        write_ratio <= 0.65 && loc_ratio >= 0.6,
    );
    // 7. DARE consumes no extra network (remote bytes strictly drop).
    let net_v = get("v-fifo-2").remote_bytes_fetched;
    let net_d = get("e-fifo-2").remote_bytes_fetched;
    claim(
        "no-extra-network",
        "piggybacks on existing fetches; total remote bytes fall",
        format!(
            "{:.1} GB -> {:.1} GB",
            net_v as f64 / (1u64 << 30) as f64,
            net_d as f64 / (1u64 << 30) as f64
        ),
        net_d < net_v,
    );
    // 8. Placement uniformity (Fig. 11).
    let r = get("e-fifo-1");
    claim(
        "placement-uniformity",
        "cv drops after DARE at p>=0.2",
        format!("{:.2} -> {:.2} (wl1)", r.cv_before, r.cv_after),
        r.cv_after < r.cv_before,
    );
    // 9. Fair scheduler ordering on wl2 (the workload chosen to favour it).
    let fair_better = get("v-fair-2").run.gmtt_secs < get("v-fifo-2").run.gmtt_secs;
    claim(
        "wl2-favours-fair",
        "Fair produces lower completion times for wl2",
        format!(
            "fair {:.1}s vs fifo {:.1}s",
            get("v-fair-2").run.gmtt_secs,
            get("v-fifo-2").run.gmtt_secs
        ),
        fair_better,
    );

    let mut t = Table::new(
        "verify: paper claims vs this build",
        &["claim", "paper", "measured", "status"],
    );
    let mut failed = 0;
    for c in &claims {
        if !c.pass {
            failed += 1;
        }
        t.row(vec![
            c.id.to_string(),
            c.paper.to_string(),
            c.measured.clone(),
            if c.pass { "PASS".into() } else { "FAIL".into() },
        ]);
    }
    t.print();
    write_csv("verify", &t);
    println!(
        "\n{}/{} claims hold at seed {seed}",
        claims.len() - failed,
        claims.len()
    );
    failed
}
