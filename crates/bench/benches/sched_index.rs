//! Before/after benchmark of the incremental locality index.
//!
//! "Before" is the naive-scan reference scheduler (`Scheduler::naive`,
//! the scans in `dare_sched::oracle`, O(tasks × replicas) per offer, full deficit
//! sort per Fair offer); "after" is the indexed production path. Both
//! replay the identical offer stream — the differential tests prove them
//! bit-identical — on the paper's 100-node EC2 profile, in a
//! scheduling-dominated configuration (many concurrent jobs, instant
//! task completion, so slot offers are all that costs anything).
//!
//! Also measures, with a counting global allocator, heap allocations per
//! scheduling probe: `classify` and the queue's `pick_best_for` must not
//! allocate at all on the borrow-based lookup path. And per map task over
//! warmed add → take → complete → retire cycles of the job queue: once
//! its recycled storage has grown, a job's whole life allocates nothing.
//!
//! Emits machine-readable results to `results/BENCH_sched.json` and
//! fails loudly if the indexed path is not at least 2× faster or if any
//! of the three allocation counts is above zero.

use dare_bench::microbench::{black_box, Runner};
use dare_core::PolicyKind;
use dare_dfs::BlockId;
use dare_mapred::{Engine, SchedulerKind, SimConfig};
use dare_net::{ClusterProfile, NodeId, Topology};
use dare_sched::locality::classify;
use dare_sched::{JobId, JobQueue, PendingTask, Scheduler, TableLookup, TaskId};
use dare_simcore::{DetRng, SimTime};
use dare_workload::swim::{synthesize, SwimParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System` allocator wrapper that counts allocation events.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const JOBS: u32 = 64;
const TASKS_PER_JOB: usize = 256;
const BLOCKS: u64 = 2048;
const REPLICAS: u32 = 3;
/// Replicas live on this many nodes — the paper's skewed pre-replication
/// placement, where a popular dataset's blocks sit on a small fraction
/// of a big cluster. Most slot offers then come from nodes holding no
/// replica of any pending task: the naive scan's worst case (it only
/// early-exits on a node-local hit) and the scheduling-dominated regime
/// the index exists for.
const HOT_NODES: u32 = 10;

/// The paper's 100-node EC2 topology (99 workers).
fn ec2_topology() -> Topology {
    let mut rng = DetRng::new(0xEC2);
    ClusterProfile::ec2().build_topology(&mut rng)
}

/// Skewed placement: every block's replicas land on the hot subset.
fn layout() -> TableLookup {
    let mut t = TableLookup::new();
    for b in 0..BLOCKS {
        let locs: Vec<u32> = (0..REPLICAS as u64)
            // offsets 0,3,6 are distinct mod HOT_NODES, so no dedup needed
            .map(|i| ((b * 7 + i * 3) % HOT_NODES as u64) as u32)
            .collect();
        t.set(b, &locs);
    }
    t
}

fn fill_queue(lookup: &TableLookup, topo: &Topology) -> JobQueue {
    let mut q = JobQueue::new();
    for j in 0..JOBS {
        let tasks: Vec<PendingTask> = (0..TASKS_PER_JOB)
            .map(|t| PendingTask {
                task: TaskId(t as u32),
                block: BlockId((j as u64 * 131 + t as u64 * 17) % BLOCKS),
            })
            .collect();
        q.add_job(JobId(j), SimTime::from_secs(j as u64), tasks, lookup, topo);
    }
    q
}

/// Offer slots round-robin until every task is handed out; completions
/// are instant so the drain cost is pure scheduling.
fn drain(sched: &mut Scheduler, q: &mut JobQueue, lookup: &TableLookup, topo: &Topology) -> u64 {
    let nodes = topo.nodes();
    let mut n = 0u32;
    let mut assigned = 0u64;
    let mut idle = 0u32;
    while q.has_pending() && idle < 8 * nodes {
        let node = NodeId(n % nodes);
        n += 1;
        match sched.pick_map(q, node, lookup, topo) {
            Some(a) => {
                q.on_map_complete(a.job);
                assigned += 1;
                idle = 0;
            }
            None => idle += 1,
        }
    }
    assigned
}

struct PairResult {
    scheduler: &'static str,
    naive_ns: f64,
    indexed_ns: f64,
}

impl PairResult {
    fn speedup(&self) -> f64 {
        self.naive_ns / self.indexed_ns
    }
}

fn offer_replay(r: &mut Runner, topo: &Topology, lookup: &TableLookup) -> Vec<PairResult> {
    let expected = JOBS as u64 * TASKS_PER_JOB as u64;
    [SchedulerKind::Fifo, SchedulerKind::fair_default()]
        .into_iter()
        .map(|kind| {
            let name = kind.label();
            let mut measure = |naive: bool| {
                let label = if naive { "naive" } else { "indexed" };
                let mk = if naive {
                    Scheduler::naive
                } else {
                    Scheduler::new
                };
                r.bench_batched(
                    &format!("offer_replay/{name}/{label}"),
                    || (mk(kind), fill_queue(lookup, topo)),
                    |(mut sched, mut q)| {
                        let got = drain(&mut sched, &mut q, lookup, topo);
                        assert_eq!(got, expected, "drain must hand out every task");
                    },
                )
                .median_ns
            };
            let naive_ns = measure(true);
            let indexed_ns = measure(false);
            PairResult {
                scheduler: name,
                naive_ns,
                indexed_ns,
            }
        })
        .collect()
}

/// Job sizes (map tasks) of one job-lifecycle cycle: SWIM-like small jobs
/// and one large one.
const CYCLE_SIZES: [usize; 6] = [1, 3, 2, 5, 1, 120];
/// Block layouts the cycles rotate through, so jobs of one size meet
/// different node and rack sets.
const CYCLE_LAYOUTS: u64 = 8;

/// One add → take → complete → retire cycle: the `CYCLE_SIZES` jobs
/// arrive together, the Fair scheduler drains them through round-robin
/// slot offers (each launched task completes at once), and every job
/// retires. Returns the map tasks run.
fn lifecycle_cycle(
    q: &mut JobQueue,
    sched: &mut Scheduler,
    cycle: u64,
    lookup: &TableLookup,
    topo: &Topology,
) -> u64 {
    let first = cycle as u32 * CYCLE_SIZES.len() as u32;
    for (k, &size) in CYCLE_SIZES.iter().enumerate() {
        let salt = (cycle % CYCLE_LAYOUTS) * 97 + k as u64 * 13;
        let tasks = (0..size).map(|t| PendingTask {
            task: TaskId(t as u32),
            block: BlockId((salt + t as u64 * 17) % BLOCKS),
        });
        q.add_job(
            JobId(first + k as u32),
            SimTime::from_secs(cycle),
            tasks,
            lookup,
            topo,
        );
    }
    let mut ran = 0u64;
    let mut n = 0u32;
    while q.has_pending() {
        let node = NodeId(n % topo.nodes());
        n += 1;
        if let Some(a) = sched.pick_map(q, node, lookup, topo) {
            q.on_map_complete(a.job);
            ran += 1;
        }
    }
    for k in 0..CYCLE_SIZES.len() as u32 {
        q.retire_job(JobId(first + k));
    }
    ran
}

/// Warm-up cycles before counting. Recycled position lists change owner
/// from job to job and grow to the largest length they meet; on this mix
/// the last such growth happens around cycle 80.
const WARM_CYCLES: u64 = 256;

/// Allocation events per map task over `cycles` job-lifecycle cycles,
/// after `WARM_CYCLES` warm-up cycles — must be 0.0.
fn allocs_per_map_task(cycles: u64, lookup: &TableLookup, topo: &Topology) -> f64 {
    let total_jobs = (WARM_CYCLES + cycles) as usize * CYCLE_SIZES.len();
    let mut q = JobQueue::with_job_capacity(total_jobs);
    let mut sched = Scheduler::new(SchedulerKind::fair_default());
    for c in 0..WARM_CYCLES {
        lifecycle_cycle(&mut q, &mut sched, c, lookup, topo);
    }
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    let mut tasks = 0;
    for c in WARM_CYCLES..WARM_CYCLES + cycles {
        tasks += lifecycle_cycle(&mut q, &mut sched, c, lookup, topo);
    }
    (ALLOC_EVENTS.load(Ordering::Relaxed) - before) as f64 / tasks as f64
}

/// Allocation events per probe over `n` probes of `f` — must be 0.0 for
/// the zero-allocation acceptance check.
fn allocs_per_probe(n: u64, mut f: impl FnMut(u64)) -> f64 {
    // Warm-up: let any lazily grown scratch reach steady state.
    for i in 0..64 {
        f(i);
    }
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    for i in 0..n {
        f(i);
    }
    (ALLOC_EVENTS.load(Ordering::Relaxed) - before) as f64 / n as f64
}

fn engine_wallclock(r: &mut Runner) -> PairResult {
    let wl = synthesize(
        "bench",
        &SwimParams {
            jobs: if r.quick { 30 } else { 100 },
            ..SwimParams::wl1()
        },
        7,
    );
    let mut measure = |naive: bool| {
        let label = if naive { "naive" } else { "indexed" };
        let wl = &wl;
        r.bench(&format!("engine_ec2/fair/{label}"), move || {
            let cfg = SimConfig::ec2(
                PolicyKind::elephant_default(),
                SchedulerKind::fair_default(),
                7,
            );
            let engine = if naive {
                Engine::with_scheduler(cfg, wl, Scheduler::naive(SchedulerKind::fair_default()))
            } else {
                Engine::new(cfg, wl)
            };
            black_box(engine.run())
        })
        .median_ns
    };
    let naive_ns = measure(true);
    let indexed_ns = measure(false);
    PairResult {
        scheduler: "engine-ec2-fair",
        naive_ns,
        indexed_ns,
    }
}

fn main() {
    let mut r = Runner::from_env();
    let topo = ec2_topology();
    let lookup = layout();

    // -- Scheduling-dominated offer replay: naive scan vs index. --------
    let pairs = offer_replay(&mut r, &topo, &lookup);

    // -- Zero-allocation probes. ----------------------------------------
    let classify_allocs = {
        let lookup = &lookup;
        let topo = &topo;
        allocs_per_probe(100_000, |i| {
            black_box(classify(
                BlockId(i % BLOCKS),
                NodeId((i % topo.nodes() as u64) as u32),
                lookup,
                topo,
            ));
        })
    };
    let mut q = fill_queue(&lookup, &topo);
    let probe_allocs = allocs_per_probe(100_000, |i| {
        black_box(q.pick_best_for(
            JobId((i % JOBS as u64) as u32),
            NodeId((i % topo.nodes() as u64) as u32),
            &topo,
        ));
    });
    println!("classify allocations/probe:      {classify_allocs}");
    println!("pick_best_for allocations/probe: {probe_allocs}");
    let task_allocs = allocs_per_map_task(if r.quick { 256 } else { 2048 }, &lookup, &topo);
    println!("job lifecycle allocations/task:  {task_allocs}");

    // -- End-to-end engine wall clock on the EC2 profile. ---------------
    let engine = engine_wallclock(&mut r);

    // -- Emit BENCH_sched.json. -----------------------------------------
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"nodes\": {}, \"jobs\": {}, \"tasks_per_job\": {}, \"blocks\": {}, \"replicas\": {}, \"hot_nodes\": {}, \"quick\": {}}},\n",
        topo.nodes(), JOBS, TASKS_PER_JOB, BLOCKS, REPLICAS, HOT_NODES, r.quick
    ));
    json.push_str("  \"offer_replay\": [\n");
    for (i, p) in pairs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scheduler\": \"{}\", \"naive_ns\": {:.1}, \"indexed_ns\": {:.1}, \"speedup\": {:.2}}}{}\n",
            p.scheduler,
            p.naive_ns,
            p.indexed_ns,
            p.speedup(),
            if i + 1 < pairs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"engine_wallclock\": {{\"profile\": \"{}\", \"naive_ns\": {:.1}, \"indexed_ns\": {:.1}, \"speedup\": {:.2}}},\n",
        engine.scheduler, engine.naive_ns, engine.indexed_ns, engine.speedup()
    ));
    json.push_str(&format!(
        "  \"classify_allocs_per_probe\": {classify_allocs},\n  \"pick_probe_allocs_per_probe\": {probe_allocs},\n  \"lifecycle_allocs_per_map_task\": {task_allocs}\n}}\n"
    ));
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_sched.json");
    std::fs::write(&path, &json).expect("write BENCH_sched.json");
    println!("wrote {}", path.display());

    // -- Acceptance gates. ----------------------------------------------
    assert_eq!(classify_allocs, 0.0, "classify must not heap-allocate");
    assert_eq!(probe_allocs, 0.0, "pick_best_for must not heap-allocate");
    assert_eq!(
        task_allocs, 0.0,
        "a warmed job lifecycle (add, take, complete, retire) must not heap-allocate"
    );
    for p in &pairs {
        assert!(
            p.speedup() >= 2.0,
            "indexed {} path must be >= 2x the naive scan (got {:.2}x)",
            p.scheduler,
            p.speedup()
        );
    }
    r.finish("sched_index");
}
