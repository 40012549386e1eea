//! Cluster topology: node→rack placement and the traceroute hop metric.
//!
//! Two shapes matter to the paper:
//! * the CCT cluster is a **single rack** — every pair of distinct nodes is
//!   one switch hop apart;
//! * the EC2 cluster scatters instances across racks and aggregation pods,
//!   which is what produces Fig. 1's "most node pairs are 4 hops apart"
//!   distribution and the cross-rack bandwidth tax.

use dare_simcore::DetRng;

/// Identifier of a cluster node (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node vectors.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a rack (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RackId(pub u32);

impl RackId {
    /// Index into per-rack vectors.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Per-node placement: which rack and which aggregation pod the node's rack
/// hangs off. Pods only matter for the EC2 hop metric.
#[derive(Debug, Clone, Copy)]
struct Placement {
    rack: RackId,
    pod: u32,
}

/// A cluster topology: node placement plus the hop metric between nodes.
#[derive(Debug, Clone)]
pub struct Topology {
    placements: Vec<Placement>,
    /// Every rack's members, ascending, concatenated in rack order: rack
    /// `r` owns `members[rack_start[r]..rack_start[r + 1]]`, so there are
    /// `rack_start.len() - 1` racks.
    members: Vec<NodeId>,
    rack_start: Vec<u32>,
    /// Hops between distinct nodes in the same rack.
    hops_same_rack: u32,
    /// Hops between nodes in different racks of the same pod.
    hops_same_pod: u32,
    /// Hops between nodes in different pods.
    hops_cross_pod: u32,
    /// Probability that a cross-rack path shows one extra traceroute hop
    /// (asymmetric routing / intermediate L3 hops on EC2).
    extra_hop_prob: f64,
}

impl Topology {
    /// Single-rack dedicated cluster (the CCT testbed): every pair of
    /// distinct nodes is one hop apart through the top-of-rack switch.
    pub fn single_rack(nodes: u32) -> Self {
        assert!(nodes > 0);
        let placements = (0..nodes)
            .map(|_| Placement {
                rack: RackId(0),
                pod: 0,
            })
            .collect();
        Topology::with_members(placements, 1, [1, 1, 1], 0.0)
    }

    /// Multi-rack virtualized cluster (EC2-like): `nodes` instances are
    /// scattered uniformly over `racks` racks; racks are grouped into pods
    /// of `racks_per_pod`. Same-rack pairs see 2 hops, same-pod pairs 4,
    /// cross-pod pairs 6, and with probability `extra_hop_prob` a cross-rack
    /// pair reports one or more extra hops (matching the long tail of
    /// Fig. 1).
    pub fn virtualized(nodes: u32, racks: u32, racks_per_pod: u32, rng: &mut DetRng) -> Self {
        assert!(nodes > 0 && racks > 0 && racks_per_pod > 0);
        let placements = (0..nodes)
            .map(|_| {
                let rack = RackId(rng.index(racks as usize) as u32);
                Placement {
                    rack,
                    pod: rack.0 / racks_per_pod,
                }
            })
            .collect();
        Topology::with_members(placements, racks, [2, 4, 6], 0.25)
    }

    /// Explicit placement (tests and custom scenarios): `racks_of[i]` is the
    /// rack of node `i`; pods group `racks_per_pod` consecutive rack ids.
    pub fn explicit(racks_of: Vec<u32>, racks_per_pod: u32) -> Self {
        assert!(!racks_of.is_empty() && racks_per_pod > 0);
        let racks = racks_of.iter().copied().max().expect("non-empty") + 1;
        let placements = racks_of
            .iter()
            .map(|&r| Placement {
                rack: RackId(r),
                pod: r / racks_per_pod,
            })
            .collect();
        let same_rack = if racks == 1 { 1 } else { 2 };
        Topology::with_members(placements, racks, [same_rack, 4, 6], 0.0)
    }

    /// Assemble a topology and index each rack's members once. `hops` is
    /// the same-rack, same-pod and cross-pod hop count.
    fn with_members(
        placements: Vec<Placement>,
        racks: u32,
        hops: [u32; 3],
        extra_hop_prob: f64,
    ) -> Self {
        let mut rack_start = vec![0u32; racks as usize + 1];
        for p in &placements {
            rack_start[p.rack.idx() + 1] += 1;
        }
        for r in 0..racks as usize {
            rack_start[r + 1] += rack_start[r];
        }
        // A stable sort keeps each rack's members in node order.
        let mut members: Vec<NodeId> = (0..placements.len() as u32).map(NodeId).collect();
        members.sort_by_key(|m| placements[m.idx()].rack);
        Topology {
            placements,
            members,
            rack_start,
            hops_same_rack: hops[0],
            hops_same_pod: hops[1],
            hops_cross_pod: hops[2],
            extra_hop_prob,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.placements.len() as u32
    }

    /// Number of racks.
    pub fn racks(&self) -> u32 {
        self.rack_start.len() as u32 - 1
    }

    /// Rack of a node.
    pub fn rack_of(&self, n: NodeId) -> RackId {
        self.placements[n.idx()].rack
    }

    /// True when the two nodes share a rack (includes `a == b`).
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// True when the path between the nodes crosses rack boundaries —
    /// such transfers pay the oversubscription tax.
    pub fn crosses_racks(&self, a: NodeId, b: NodeId) -> bool {
        !self.same_rack(a, b)
    }

    /// Deterministic structural hop count between two nodes (no traceroute
    /// jitter): 0 for self, then same-rack / same-pod / cross-pod tiers.
    pub fn base_hops(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return 0;
        }
        let pa = self.placements[a.idx()];
        let pb = self.placements[b.idx()];
        if pa.rack == pb.rack {
            self.hops_same_rack
        } else if pa.pod == pb.pod {
            self.hops_same_pod
        } else {
            self.hops_cross_pod
        }
    }

    /// Hop count as *measured* (traceroute-style): the structural count plus
    /// occasional extra hops on cross-rack paths. This is what Fig. 1 plots.
    pub fn measured_hops(&self, a: NodeId, b: NodeId, rng: &mut DetRng) -> u32 {
        let base = self.base_hops(a, b);
        if base <= self.hops_same_rack {
            return base;
        }
        let mut h = base;
        let mut p = self.extra_hop_prob;
        // geometric number of extra hops, capped so the tail stays plausible
        while h < base + 4 && rng.coin(p) {
            h += 1;
            p *= 0.5;
        }
        h
    }

    /// All nodes in rack `r`, ascending (empty for a rack no node landed
    /// in). A borrow of a list built with the topology.
    ///
    /// # Panics
    ///
    /// When `r` is not below [`Topology::racks`].
    pub fn rack_members(&self, r: RackId) -> &[NodeId] {
        let (lo, hi) = (self.rack_start[r.idx()], self.rack_start[r.idx() + 1]);
        &self.members[lo as usize..hi as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rack_all_pairs_one_hop() {
        let t = Topology::single_rack(20);
        assert_eq!(t.nodes(), 20);
        assert_eq!(t.racks(), 1);
        for a in 0..20 {
            for b in 0..20 {
                let (a, b) = (NodeId(a), NodeId(b));
                let want = if a == b { 0 } else { 1 };
                assert_eq!(t.base_hops(a, b), want);
                assert!(t.same_rack(a, b));
                assert!(!t.crosses_racks(a, b));
            }
        }
    }

    #[test]
    fn explicit_placement_tiers() {
        // racks: 0,0,1,1,4 — pods of 2 racks => pods 0,0,0,0,2
        let t = Topology::explicit(vec![0, 0, 1, 1, 4], 2);
        assert_eq!(t.racks(), 5);
        assert_eq!(t.base_hops(NodeId(0), NodeId(1)), 2); // same rack
        assert_eq!(t.base_hops(NodeId(0), NodeId(2)), 4); // same pod
        assert_eq!(t.base_hops(NodeId(0), NodeId(4)), 6); // cross pod
        assert_eq!(t.base_hops(NodeId(3), NodeId(3)), 0);
        assert!(t.crosses_racks(NodeId(0), NodeId(2)));
    }

    #[test]
    fn virtualized_hops_mostly_four_like_fig1() {
        let mut rng = DetRng::new(1);
        // 20 nodes over 10 racks, 5 racks per pod (2 pods) — the shape the
        // paper's EC2 allocation exhibits.
        let t = Topology::virtualized(20, 10, 5, &mut rng);
        let mut counts = [0u32; 12];
        let mut pairs = 0u32;
        for a in 0..20 {
            for b in 0..20 {
                if a == b {
                    continue;
                }
                let h = t.measured_hops(NodeId(a), NodeId(b), &mut rng) as usize;
                counts[h.min(11)] += 1;
                pairs += 1;
            }
        }
        // The mode must sit at >= 4 hops and some pairs must be same-rack.
        let mode = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(h, _)| h)
            .expect("non-empty");
        assert!(mode >= 4, "mode hop count {mode}");
        assert!(counts[0] == 0, "distinct pairs can't be 0 hops");
        assert!(pairs == 380);
    }

    #[test]
    fn measured_hops_deterministic_for_same_rack() {
        // multi-rack layout, but nodes 0 and 1 share rack 0
        let t = Topology::explicit(vec![0, 0, 1], 1);
        let mut rng = DetRng::new(2);
        for _ in 0..50 {
            assert_eq!(t.measured_hops(NodeId(0), NodeId(1), &mut rng), 2);
        }
    }

    #[test]
    fn rack_members_lists_members() {
        let t = Topology::explicit(vec![0, 1, 0, 1, 0], 1);
        assert_eq!(t.rack_members(RackId(0)), [NodeId(0), NodeId(2), NodeId(4)]);
        assert_eq!(t.rack_members(RackId(1)), [NodeId(1), NodeId(3)]);
        // Rack 1 of 3 is empty; every node is listed exactly once.
        let t = Topology::explicit(vec![2, 0, 2, 2], 1);
        assert!(t.rack_members(RackId(1)).is_empty());
        assert_eq!(t.rack_members(RackId(2)), [NodeId(0), NodeId(2), NodeId(3)]);
        let mut rng = DetRng::new(9);
        let t = Topology::virtualized(50, 20, 4, &mut rng);
        let mut seen = 0;
        for r in 0..t.racks() {
            let m = t.rack_members(RackId(r));
            assert!(m.windows(2).all(|w| w[0] < w[1]), "ascending");
            assert!(m.iter().all(|&n| t.rack_of(n) == RackId(r)));
            seen += m.len();
        }
        assert_eq!(seen, 50);
    }
}
