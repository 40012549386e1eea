//! Replica placement policies.
//!
//! Where the *initial* (primary) replicas of a freshly written block go.
//! DARE does not change this policy — it layers dynamic replicas on top —
//! but the baseline matters: the paper's "Before DARE" placement dispersion
//! in Fig. 11 is exactly what [`DefaultPlacement`] produces.

use dare_net::{NodeId, Topology};
use dare_simcore::DetRng;

/// Chooses the target nodes for the replicas of one new block.
pub trait PlacementPolicy {
    /// Pick `replicas` distinct nodes for a block written by `writer`
    /// (None for external/ingest writes). Must return exactly
    /// `min(replicas, topology.nodes())` distinct nodes.
    fn place(
        &self,
        topo: &Topology,
        writer: Option<NodeId>,
        replicas: u32,
        rng: &mut DetRng,
    ) -> Vec<NodeId>;
}

/// The Hadoop default (rack-aware) policy:
/// 1. first replica on the writer's node (or a random node for ingest);
/// 2. second replica on a node in a *different* rack;
/// 3. third replica on a different node in the *same rack as the second*;
/// 4. any further replicas on random remaining nodes.
///
/// On a single-rack cluster the rack constraints degenerate to "any other
/// node", matching real HDFS behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultPlacement;

impl PlacementPolicy for DefaultPlacement {
    fn place(
        &self,
        topo: &Topology,
        writer: Option<NodeId>,
        replicas: u32,
        rng: &mut DetRng,
    ) -> Vec<NodeId> {
        let n = topo.nodes() as usize;
        let k = (replicas as usize).min(n);
        let mut chosen: Vec<NodeId> = Vec::with_capacity(k);
        if k == 0 {
            return chosen;
        }

        // 1st replica: writer-local, or random for ingest writes.
        let first = writer.unwrap_or_else(|| NodeId(rng.index(n) as u32));
        chosen.push(first);

        // 2nd replica: different rack if one exists, else any other node.
        if chosen.len() < k {
            let off_rack: Vec<NodeId> = (0..n as u32)
                .map(NodeId)
                .filter(|&m| !topo.same_rack(first, m))
                .collect();
            let pool: Vec<NodeId> = if off_rack.is_empty() {
                (0..n as u32).map(NodeId).filter(|&m| m != first).collect()
            } else {
                off_rack
            };
            if !pool.is_empty() {
                chosen.push(pool[rng.index(pool.len())]);
            }
        }

        // 3rd replica: same rack as the 2nd, different node; else random.
        if chosen.len() < k {
            let second = chosen[1];
            let same_rack: Vec<NodeId> = topo
                .nodes_in_rack(topo.rack_of(second))
                .into_iter()
                .filter(|m| !chosen.contains(m))
                .collect();
            if !same_rack.is_empty() {
                chosen.push(same_rack[rng.index(same_rack.len())]);
            }
        }

        // Remaining replicas: random distinct nodes.
        while chosen.len() < k {
            let cand = NodeId(rng.index(n) as u32);
            if !chosen.contains(&cand) {
                chosen.push(cand);
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dare_net::RackId;

    fn distinct(v: &[NodeId]) -> bool {
        let mut s = v.to_vec();
        s.sort();
        s.dedup();
        s.len() == v.len()
    }

    #[test]
    fn default_single_rack_is_writer_plus_distinct_others() {
        let topo = Topology::single_rack(10);
        let mut rng = DetRng::new(1);
        for _ in 0..100 {
            let p = DefaultPlacement.place(&topo, Some(NodeId(4)), 3, &mut rng);
            assert_eq!(p.len(), 3);
            assert_eq!(p[0], NodeId(4), "first replica is writer-local");
            assert!(distinct(&p));
        }
    }

    #[test]
    fn default_multi_rack_obeys_rack_rules() {
        // 3 racks of 3 nodes
        let topo = Topology::explicit(vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 10);
        let mut rng = DetRng::new(2);
        for _ in 0..200 {
            let p = DefaultPlacement.place(&topo, Some(NodeId(0)), 3, &mut rng);
            assert!(distinct(&p));
            assert_eq!(topo.rack_of(p[0]), RackId(0));
            assert_ne!(topo.rack_of(p[1]), RackId(0), "2nd replica off-rack");
            assert_eq!(
                topo.rack_of(p[2]),
                topo.rack_of(p[1]),
                "3rd replica in 2nd's rack"
            );
        }
    }

    #[test]
    fn replicas_capped_by_cluster_size() {
        let topo = Topology::single_rack(2);
        let mut rng = DetRng::new(3);
        let p = DefaultPlacement.place(&topo, None, 5, &mut rng);
        assert_eq!(p.len(), 2);
        assert!(distinct(&p));
    }

    #[test]
    fn ingest_write_spreads_first_replica() {
        let topo = Topology::single_rack(20);
        let mut rng = DetRng::new(4);
        let mut firsts = std::collections::HashSet::new();
        for _ in 0..200 {
            let p = DefaultPlacement.place(&topo, None, 1, &mut rng);
            firsts.insert(p[0]);
        }
        assert!(firsts.len() > 10, "ingest writes should spread out");
    }

    #[test]
    fn zero_replicas_yields_empty() {
        let topo = Topology::single_rack(5);
        let mut rng = DetRng::new(6);
        assert!(DefaultPlacement.place(&topo, None, 0, &mut rng).is_empty());
    }
}
