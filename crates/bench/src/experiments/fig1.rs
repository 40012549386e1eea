//! Fig. 1 — distribution of traceroute hop counts between node pairs in a
//! 20-node EC2 allocation. The paper found most pairs 4 hops apart (a
//! same-size in-house cluster would be 1-2 hops everywhere).

use crate::harness::{metric, replicate_experiment, RowOrder};
use dare_net::{ClusterProfile, NodeId};
use dare_simcore::DetRng;

/// Regenerate Fig. 1, replicated over `seeds` topology/probe draws.
pub fn run(seed: u64, seeds: u32) {
    let st = replicate_experiment(
        "Fig. 1: hop-count distribution, 20-node EC2 cluster (paper: mode at 4 hops)",
        &["hops"],
        &[metric("proportion_of_node_pairs", 3)],
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |seed, _| {
            let root = DetRng::new(seed);
            let mut topo_rng = root.substream("fig1-topo");
            let mut probe_rng = root.substream("fig1-probe");
            let profile = ClusterProfile::ec2_small();
            let topo = profile.build_topology(&mut topo_rng);

            let n = topo.nodes();
            let mut counts = [0u32; 11];
            let mut pairs = 0u32;
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let h = topo.measured_hops(NodeId(a), NodeId(b), &mut probe_rng) as usize;
                    counts[h.min(10)] += 1;
                    pairs += 1;
                }
            }
            counts
                .iter()
                .enumerate()
                .map(|(h, &c)| (vec![h.to_string()], vec![c as f64 / pairs as f64]))
                .collect()
        },
    );
    st.emit("fig1");
}
