//! Per-node slot and liveness state.
//!
//! The fields are private: every write goes through a method that logs
//! the node, so the engine's per-event invariant check can re-check only
//! the nodes an event touched, and a write site added later cannot skip
//! the mark. Logging is off unless invariant checks are armed.

/// Slots, running work and liveness of every node.
#[derive(Clone)]
pub(crate) struct NodeTable {
    free_map: Vec<u32>,
    free_reduce: Vec<u32>,
    /// Reduce tasks currently running per node (slot restore on rejoin).
    running_reduces: Vec<u32>,
    /// Map tasks currently running (or fetching) per node.
    running_on: Vec<Vec<(u32, u32)>>,
    /// Nodes with at least one free reduce slot, one bit per node, so
    /// `fill_reduce_slots` finds the lowest-index candidate a word at a
    /// time instead of checking every node (the scan dominated 10k-node
    /// runs), and a slot freed in `on_reduce_done` sets a bit rather
    /// than allocating. Membership tracks `free_reduce[i] > 0` only;
    /// liveness is re-checked at pick time, exactly like the old linear
    /// scan did.
    reduce_free: Vec<u64>,
    /// Node is silently down: it stops heartbeating, its in-flight work
    /// becomes zombie state, but the master does not know yet.
    crashed: Vec<bool>,
    /// Node declared dead by the master after the missed-heartbeat
    /// timeout; its replicas are dropped and its attempts re-queued.
    declared: Vec<bool>,
    /// Nodes written since the last [`NodeTable::drain_touched`].
    touched: Vec<u32>,
    log: bool,
}

impl NodeTable {
    /// `n` live, idle nodes with full slots.
    pub(crate) fn new(n: usize, map_slots: u32, reduce_slots: u32) -> Self {
        let mut t = NodeTable {
            free_map: vec![map_slots; n],
            free_reduce: vec![reduce_slots; n],
            running_reduces: vec![0; n],
            running_on: vec![Vec::new(); n],
            reduce_free: vec![0; n.div_ceil(64)],
            crashed: vec![false; n],
            declared: vec![false; n],
            touched: Vec::new(),
            log: false,
        };
        if reduce_slots > 0 {
            (0..n).for_each(|i| t.index_reduce_free(i, true));
        }
        t
    }

    /// Start logging writes, with every node logged once so the first
    /// check covers the initial state.
    pub(crate) fn log_touches(&mut self) {
        self.log = true;
        self.touched.extend(0..self.len() as u32);
    }

    /// Move the nodes written since the last call into `out`.
    pub(crate) fn drain_touched(&mut self, out: &mut Vec<u32>) {
        out.append(&mut self.touched);
    }

    fn touch(&mut self, i: usize) {
        if self.log {
            self.touched.push(i as u32);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.crashed.len()
    }

    /// Neither crashed nor declared dead.
    pub(crate) fn up(&self, i: usize) -> bool {
        !self.crashed[i] && !self.declared[i]
    }

    pub(crate) fn crashed(&self, i: usize) -> bool {
        self.crashed[i]
    }

    pub(crate) fn declared(&self, i: usize) -> bool {
        self.declared[i]
    }

    pub(crate) fn free_map(&self, i: usize) -> u32 {
        self.free_map[i]
    }

    pub(crate) fn free_reduce(&self, i: usize) -> u32 {
        self.free_reduce[i]
    }

    pub(crate) fn running_reduces(&self, i: usize) -> u32 {
        self.running_reduces[i]
    }

    pub(crate) fn running_on(&self, i: usize) -> &[(u32, u32)] {
        &self.running_on[i]
    }

    /// Whether node `i` is in the reduce free-node index.
    pub(crate) fn reduce_indexed(&self, i: usize) -> bool {
        self.reduce_free[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// The reduce free-node index, ascending.
    pub(crate) fn reduce_free_nodes(&self) -> impl Iterator<Item = u32> + '_ {
        self.reduce_free.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    ((w as u32) << 6) | b
                })
            })
        })
    }

    pub(crate) fn set_crashed(&mut self, i: usize, v: bool) {
        self.touch(i);
        self.crashed[i] = v;
    }

    pub(crate) fn set_declared(&mut self, i: usize, v: bool) {
        self.touch(i);
        self.declared[i] = v;
    }

    pub(crate) fn free_map_mut(&mut self, i: usize) -> &mut u32 {
        self.touch(i);
        &mut self.free_map[i]
    }

    pub(crate) fn free_reduce_mut(&mut self, i: usize) -> &mut u32 {
        self.touch(i);
        &mut self.free_reduce[i]
    }

    pub(crate) fn running_reduces_mut(&mut self, i: usize) -> &mut u32 {
        self.touch(i);
        &mut self.running_reduces[i]
    }

    pub(crate) fn running_on_mut(&mut self, i: usize) -> &mut Vec<(u32, u32)> {
        self.touch(i);
        &mut self.running_on[i]
    }

    /// Add node `i` to (`free`) or drop it from the reduce free-node index.
    pub(crate) fn index_reduce_free(&mut self, i: usize, free: bool) {
        self.touch(i);
        if free {
            self.reduce_free[i >> 6] |= 1u64 << (i & 63);
        } else {
            self.reduce_free[i >> 6] &= !(1u64 << (i & 63));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_are_logged_only_once_armed() {
        let mut t = NodeTable::new(3, 2, 1);
        *t.free_map_mut(1) -= 1;
        let mut out = Vec::new();
        t.drain_touched(&mut out);
        assert!(out.is_empty(), "unarmed table logs nothing");

        t.log_touches();
        t.drain_touched(&mut out);
        assert_eq!(out, [0, 1, 2], "arming logs every node once");
        out.clear();
        t.set_crashed(2, true);
        t.running_on_mut(0).push((7, 3));
        t.index_reduce_free(1, false);
        t.drain_touched(&mut out);
        assert_eq!(out, [2, 0, 1]);
        assert!(!t.up(2) && t.up(0));
        assert_eq!(t.running_on(0), [(7, 3)]);
        assert!(!t.reduce_indexed(1));
        assert_eq!(t.reduce_free_nodes().collect::<Vec<_>>(), [0, 2]);
    }

    #[test]
    fn reduce_index_spans_words_in_ascending_order() {
        let mut t = NodeTable::new(130, 1, 1);
        assert_eq!(t.reduce_free_nodes().count(), 130);
        for i in (0..130).filter(|i| ![3, 63, 64, 129].contains(i)) {
            t.index_reduce_free(i, false);
        }
        assert_eq!(t.reduce_free_nodes().collect::<Vec<_>>(), [3, 63, 64, 129]);
        assert!(t.reduce_indexed(64) && !t.reduce_indexed(65));
        assert_eq!(NodeTable::new(130, 1, 0).reduce_free_nodes().count(), 0);
    }
}
