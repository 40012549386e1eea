//! Task locality levels and classification.

use crate::LocationLookup;
use dare_dfs::BlockId;
use dare_net::{NodeId, Topology};

/// How close a map task runs to its input block. Ordering matters:
/// `NodeLocal < RackLocal < Remote` — smaller is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Locality {
    /// The block has a replica on the task's node (disk read).
    NodeLocal,
    /// A replica exists in the task's rack (one-switch fetch).
    RackLocal,
    /// All replicas are off-rack (cross-fabric fetch).
    Remote,
}

impl Locality {
    /// Label used in result tables.
    pub fn label(self) -> &'static str {
        match self {
            Locality::NodeLocal => "node-local",
            Locality::RackLocal => "rack-local",
            Locality::Remote => "remote",
        }
    }
}

/// Classify how local `block` would be if executed on `node`.
pub fn classify(
    block: BlockId,
    node: NodeId,
    lookup: &dyn LocationLookup,
    topo: &Topology,
) -> Locality {
    let locs = lookup.locations(block);
    if locs.contains(&node) {
        return Locality::NodeLocal;
    }
    if locs.iter().any(|&l| topo.same_rack(l, node)) {
        return Locality::RackLocal;
    }
    Locality::Remote
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_prefers_closer() {
        assert!(Locality::NodeLocal < Locality::RackLocal);
        assert!(Locality::RackLocal < Locality::Remote);
    }

    #[test]
    fn classify_levels() {
        // racks: node0/node1 in rack0, node2/node3 in rack1
        let topo = Topology::explicit(vec![0, 0, 1, 1], 10);
        let lookup = crate::TableLookup::from_pairs(&[(0, vec![0]), (1, vec![1]), (2, vec![3])]);
        assert_eq!(
            classify(BlockId(0), NodeId(0), &lookup, &topo),
            Locality::NodeLocal
        );
        assert_eq!(
            classify(BlockId(1), NodeId(0), &lookup, &topo),
            Locality::RackLocal
        );
        assert_eq!(
            classify(BlockId(2), NodeId(0), &lookup, &topo),
            Locality::Remote
        );
    }

    #[test]
    fn labels() {
        assert_eq!(Locality::NodeLocal.label(), "node-local");
        assert_eq!(Locality::RackLocal.label(), "rack-local");
        assert_eq!(Locality::Remote.label(), "remote");
    }
}
