//! Command-line driver shared by the `experiments` binary and the
//! `dare-sim experiments` subcommand.
//!
//! ```text
//! experiments [ids...] [--seed N] [--seeds N]
//! ```
//!
//! `--seed` sets the base seed (default [`DEFAULT_SEED`]); `--seeds`
//! replicates every sweep over N derived seeds, turning each value
//! column into a mean with appended `_std`/`_ci95` columns. A leading
//! literal `--` is skipped so `dare-sim experiments -- all --seeds 5`
//! works the same as passing the ids directly.

use crate::experiments::*;
use crate::harness::DEFAULT_SEED;

/// Parse `args` (not including the program name) and run the requested
/// experiments. Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut which: Vec<String> = Vec::new();
    let mut seed = DEFAULT_SEED;
    let mut seeds: u32 = 1;
    let mut it = args.iter().enumerate().peekable();
    while let Some((i, a)) = it.next() {
        match a.as_str() {
            // Allow `experiments -- all` (cargo/forwarding idiom).
            "--" if i == 0 => {}
            "--seed" => match it.next().and_then(|(_, s)| s.parse().ok()) {
                Some(v) => seed = v,
                None => return usage("--seed needs an integer"),
            },
            "--seeds" => match it.next().and_then(|(_, s)| s.parse().ok()) {
                Some(v) if v >= 1 => seeds = v,
                _ => return usage("--seeds needs an integer >= 1"),
            },
            "--help" | "-h" => return usage(""),
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() {
        which.push("all".into());
    }

    let t0 = std::time::Instant::now();
    for w in &which {
        let code = run_one(w, seed, seeds);
        if code != 0 {
            return code;
        }
    }
    eprintln!("\n[experiments] done in {:.1}s", t0.elapsed().as_secs_f64());
    0
}

fn run_one(which: &str, seed: u64, seeds: u32) -> i32 {
    match which {
        "table1" => tables::table1(seed, seeds),
        "table2" => tables::table2(seed, seeds),
        "fig1" => fig1::run(seed, seeds),
        "fig2" => fig2::run(seed, seeds),
        "fig3" => fig3::run(seed, seeds),
        "fig4" => fig45::fig4(seed, seeds),
        "fig5" => fig45::fig5(seed, seeds),
        "fig6" => fig6::run(seed, seeds),
        "fig7" => fig7::run(seed, seeds),
        "fig8" => fig8::run(seed, seeds),
        "fig9" => fig9::run(seed, seeds),
        "fig10" => fig10::run(seed, seeds),
        "fig11" => fig11::run(seed, seeds),
        "ablation" => ablation::run(seed, seeds),
        "resilience" => resilience::run(seed, seeds),
        "durability" => durability::run(seed, seeds),
        "farm" => farm::run(seed, seeds),
        "verify" => {
            if verify::run_all(seed) > 0 {
                return 1;
            }
        }
        "trace-smoke" => {
            if trace_smoke::run(seed) > 0 {
                return 1;
            }
        }
        "attribution" => {
            if attribution::run(seed, seeds) > 0 {
                return 1;
            }
        }
        "telemetry-smoke" => {
            if telemetry_smoke::run(seed) > 0 {
                return 1;
            }
        }
        "throughput" => {
            if throughput::run(seed) > 0 {
                return 1;
            }
        }
        "plots" => {
            let dir = crate::harness::csv_path("x");
            let dir = dir.parent().expect("csv dir").to_path_buf();
            let n = crate::plot::write_all(&dir);
            println!("[plots] wrote {n} gnuplot scripts to {}", dir.display());
        }
        "all" => {
            for id in [
                "table1",
                "table2",
                "fig1",
                "fig2",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "ablation",
                "resilience",
                "durability",
                "farm",
                "plots",
                "verify",
            ] {
                eprintln!("[experiments] running {id} (seed {seed}, seeds {seeds})");
                let code = run_one(id, seed, seeds);
                if code != 0 {
                    return code;
                }
            }
        }
        other => return usage(&format!("unknown experiment id: {other}")),
    }
    0
}

fn usage(err: &str) -> i32 {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: experiments [ids...] [--seed N] [--seeds N]\n\
         ids: table1 table2 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 ablation resilience durability farm plots trace-smoke telemetry-smoke throughput attribution verify all\n\
         --seeds N replicates every sweep over N derived seeds (CI columns in the CSVs)"
    );
    if err.is_empty() {
        0
    } else {
        2
    }
}
