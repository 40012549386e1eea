//! Replica placement policy.
//!
//! Where the *initial* (primary) replicas of a freshly written block go.
//! DARE does not change this policy — it layers dynamic replicas on top —
//! but the baseline matters: the paper's "Before DARE" placement dispersion
//! in Fig. 11 is exactly what [`DefaultPlacement`] produces.

use dare_net::{NodeId, Topology};
use dare_simcore::DetRng;

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

impl DefaultPlacement {
    /// Pick `replicas` distinct nodes for a block written by `writer`
    /// (None for external/ingest writes): exactly
    /// `min(replicas, topology.nodes())` of them.
    ///
    /// Each rule draws one uniform index into its candidate pool and maps
    /// it onto the pool by rank (`rank_skip`) instead of listing the
    /// pool, so a block costs O(log rack) rather than O(nodes).
    pub fn place(
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

        // 2nd replica: a node off the first's rack if one exists (the
        // complement of its ascending member list), else any other node.
        if chosen.len() < k {
            let home = topo.rack_members(topo.rack_of(first));
            let (excl, off) = if home.len() < n {
                (home, n - home.len())
            } else {
                (std::slice::from_ref(&first), n - 1)
            };
            let i = rank_skip(excl.len(), |j| excl[j].idx(), rng.index(off));
            chosen.push(NodeId(i as u32));
        }

        // 3rd replica: same rack as the 2nd, different node; else random.
        // The chosen nodes in that rack (at most two) are excluded by
        // their positions in its member list.
        if chosen.len() < k {
            let rack = topo.rack_of(chosen[1]);
            let members = topo.rack_members(rack);
            let mut excl = [0usize; 2];
            let mut m = 0;
            for &c in chosen.iter().filter(|&&c| topo.rack_of(c) == rack) {
                excl[m] = members.partition_point(|&x| x < c);
                m += 1;
            }
            excl[..m].sort_unstable();
            if members.len() > m {
                let i = rank_skip(m, |j| excl[j], rng.index(members.len() - m));
                chosen.push(members[i]);
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

/// The `idx`-th (0-based) value of `0, 1, 2, …` once the `len` ascending,
/// distinct values `excl(0) < … < excl(len - 1)` are removed:
/// `idx + #{j : excl(j) − j ≤ idx}`. `excl(j) − j` counts the kept values
/// below `excl(j)`, so it never decreases and the count is a binary
/// search: O(log len).
fn rank_skip(len: usize, excl: impl Fn(usize) -> usize, idx: usize) -> usize {
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if excl(mid) - mid <= idx {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    idx + lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use dare_net::RackId;

    /// The list-the-pool placement `DefaultPlacement::place` replaced:
    /// O(nodes) per block, kept as the differential oracle. It draws the
    /// same `rng.index` values over explicit candidate lists.
    fn oracle_place(
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
        let first = writer.unwrap_or_else(|| NodeId(rng.index(n) as u32));
        chosen.push(first);
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
        if chosen.len() < k {
            let second = chosen[1];
            let same_rack: Vec<NodeId> = (0..n as u32)
                .map(NodeId)
                .filter(|&m| topo.same_rack(second, m) && !chosen.contains(&m))
                .collect();
            if !same_rack.is_empty() {
                chosen.push(same_rack[rng.index(same_rack.len())]);
            }
        }
        while chosen.len() < k {
            let cand = NodeId(rng.index(n) as u32);
            if !chosen.contains(&cand) {
                chosen.push(cand);
            }
        }
        chosen
    }

    #[test]
    fn placement_matches_the_list_oracle_on_random_topologies() {
        let mut gen = DetRng::new(0x91AC_E5ED);
        for trial in 0..3_000u32 {
            let nodes = 1 + gen.index(60) as u32;
            let topo = match trial % 4 {
                0 => Topology::single_rack(nodes),
                // More racks than nodes leaves some racks empty.
                1 => {
                    let racks = 1 + gen.index(2 * nodes as usize) as u32;
                    Topology::virtualized(nodes, racks, 1 + gen.index(4) as u32, &mut gen)
                }
                2 => {
                    let racks = 1 + gen.index(8);
                    Topology::explicit((0..nodes).map(|_| gen.index(racks) as u32).collect(), 2)
                }
                _ => Topology::single_rack(1),
            };
            let rf = gen.index(6) as u32;
            let writer = gen
                .coin(0.5)
                .then(|| NodeId(gen.index(topo.nodes() as usize) as u32));
            let seed = gen.next_u64();
            let (mut fast, mut slow) = (DetRng::new(seed), DetRng::new(seed));
            for block in 0..20 {
                assert_eq!(
                    DefaultPlacement.place(&topo, writer, rf, &mut fast),
                    oracle_place(&topo, writer, rf, &mut slow),
                    "trial {trial}, block {block}: {} nodes, {} racks, rf {rf}, writer {writer:?}",
                    topo.nodes(),
                    topo.racks()
                );
            }
            for _ in 0..4 {
                assert_eq!(fast.next_u64(), slow.next_u64(), "trial {trial}: rng state");
            }
        }
    }

    #[test]
    fn rank_skip_edges() {
        let skip = |excl: &[usize], idx| rank_skip(excl.len(), |j| excl[j], idx);
        // Nothing excluded: the identity.
        assert_eq!(skip(&[], 0), 0);
        assert_eq!(skip(&[], 7), 7);
        // Every excluded value below idx: shift by all of them.
        assert_eq!(skip(&[0, 1, 2], 0), 3);
        assert_eq!(skip(&[1, 3, 4], 5), 8);
        // A run starting at idx is jumped over as a whole.
        assert_eq!(skip(&[2, 3, 4], 2), 5);
        assert_eq!(skip(&[1, 3, 4], 1), 2);
        // idx at the top of the pool 0..10 minus {0, 4, 9}: the last kept value.
        assert_eq!(skip(&[0, 4, 9], 6), 8);
        assert_eq!(skip(&[0, 4, 8], 6), 9);
        // Exhaustive against a filter over small universes.
        for mask in 0u32..(1 << 8) {
            let excl: Vec<usize> = (0..8).filter(|b| mask >> b & 1 == 1).collect();
            let kept: Vec<usize> = (0..8).filter(|b| mask >> b & 1 == 0).collect();
            for (idx, &want) in kept.iter().enumerate() {
                assert_eq!(skip(&excl, idx), want, "excl {excl:?} idx {idx}");
            }
        }
    }

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
