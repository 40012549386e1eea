//! Micro-benchmarks of the core data structures: the ElephantTrap circular
//! list, and the per-task cost of each policy kind's hot path.

use dare_bench::microbench::{black_box, Runner};
use dare_core::{CircularTrap, Policy, PolicyCtx, PolicyKind};
use dare_dfs::{BlockId, FileId};
use dare_simcore::DetRng;

const BLK: u64 = 128 * (1 << 20);

fn bench_circular_trap(r: &mut Runner) {
    for &size in &[16usize, 64, 256] {
        let mut trap = CircularTrap::new();
        for k in 0..size as u64 {
            trap.insert(k);
        }
        let mut i = 0u64;
        r.bench(&format!("circular_trap/touch/{size}"), move || {
            i = (i + 7) % size as u64;
            black_box(trap.touch(&i))
        });

        let mut trap = CircularTrap::new();
        for k in 0..size as u64 {
            trap.insert(k);
            for _ in 0..4 {
                trap.touch(&k);
            }
        }
        r.bench(&format!("circular_trap/victim_search/{size}"), move || {
            black_box(trap.find_victim(1, |_| true))
        });
    }
}

fn policy_throughput(r: &mut Runner) {
    let kinds = [
        ("vanilla", PolicyKind::Vanilla),
        ("lru", PolicyKind::GreedyLru),
        (
            "elephant",
            PolicyKind::ElephantTrap {
                p: 0.3,
                threshold: 1,
            },
        ),
        ("lfu", PolicyKind::Lfu),
    ];
    for (name, kind) in kinds {
        let mut policy = Policy::new(kind, 64 * BLK);
        let mut rng = DetRng::new(7);
        let mut wl = DetRng::new(8);
        r.bench(&format!("policy_on_map_task/{name}"), move || {
            let block = wl.index(256) as u64;
            black_box(policy.on_map_task(PolicyCtx {
                block: BlockId(block),
                file: FileId((block / 4) as u32),
                block_bytes: BLK,
                is_local: wl.coin(0.5),
                rng: &mut rng,
            }))
        });
    }
}

fn main() {
    let mut r = Runner::from_env();
    bench_circular_trap(&mut r);
    policy_throughput(&mut r);
    r.finish("structures");
}
