//! `CircularTrap` — the ElephantTrap circular list, generic over keys.
//!
//! The structure from Lu, Prabhakar & Bonomi, "ElephantTrap: a low cost
//! device for identifying large flows" (HOTI 2007), as adapted by DARE:
//!
//! * tracked items live on a circular list with an **eviction pointer**;
//! * each item carries an access count, incremented (by the caller, usually
//!   behind a sampling coin) on hits;
//! * a victim search walks the ring from the pointer, **halving** every
//!   count it passes, and stops at the first item whose halved count fell
//!   below the caller's threshold — competitive aging: items must keep
//!   *earning* their slot, and recently inserted popular items survive the
//!   sweep because their counts halve at most once per full rotation;
//! * new items are inserted **right before the eviction pointer**, so a
//!   fresh item gets a full rotation of grace before it can be inspected.
//!
//! The DARE policy stores `BlockId`s here; the `heavy_hitters` example
//! reuses the same structure for its original purpose, network flows.

use std::collections::HashMap;
use std::hash::Hash;

/// A circular list of tracked keys with access counts and an eviction
/// pointer implementing the ElephantTrap aging discipline.
#[derive(Debug, Clone)]
pub struct CircularTrap<K: Eq + Hash + Copy> {
    ring: Vec<K>,
    counts: HashMap<K, u64>,
    /// Index into `ring` of the next eviction-candidate to inspect.
    pointer: usize,
}

impl<K: Eq + Hash + Copy> Default for CircularTrap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Copy> CircularTrap<K> {
    /// Empty trap.
    pub fn new() -> Self {
        CircularTrap {
            ring: Vec::new(),
            counts: HashMap::new(),
            pointer: 0,
        }
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Access count of `k`, if tracked.
    pub fn count(&self, k: &K) -> Option<u64> {
        self.counts.get(k).copied()
    }

    /// Insert `k` right before the eviction pointer with a zero count.
    /// Returns false (no-op) when `k` is already tracked.
    pub fn insert(&mut self, k: K) -> bool {
        if self.counts.contains_key(&k) {
            return false;
        }
        // Inserting at `pointer` shifts the current pointee one slot right;
        // advancing the pointer keeps it aimed at the same element, so the
        // new entry is the *last* the next full sweep will reach.
        self.ring.insert(self.pointer, k);
        self.pointer += 1;
        if self.pointer >= self.ring.len() {
            self.pointer = 0;
        }
        self.counts.insert(k, 0);
        true
    }

    /// Increment the access count of a tracked key. Returns false when the
    /// key is not tracked.
    pub fn touch(&mut self, k: &K) -> bool {
        match self.counts.get_mut(k) {
            Some(c) => {
                *c += 1;
                true
            }
            None => false,
        }
    }

    /// Remove a tracked key, keeping the pointer aimed at the element that
    /// followed it. Returns false when the key was not tracked.
    pub fn remove(&mut self, k: &K) -> bool {
        if self.counts.remove(k).is_none() {
            return false;
        }
        let idx = self
            .ring
            .iter()
            .position(|x| x == k)
            .expect("counts and ring agree");
        self.ring.remove(idx);
        if self.ring.is_empty() {
            self.pointer = 0;
        } else {
            if idx < self.pointer {
                self.pointer -= 1;
            }
            if self.pointer >= self.ring.len() {
                self.pointer = 0;
            }
        }
        true
    }

    /// One ElephantTrap victim search: walk at most one full rotation from
    /// the eviction pointer; halve each visited key's count; the first key
    /// whose *halved* count drops below `threshold` and that `eligible`
    /// accepts is returned (still tracked — callers decide whether to
    /// [`CircularTrap::remove`] it). `None` when a full rotation finds no
    /// eligible victim.
    ///
    /// The pointer is left one past the last inspected element, so repeated
    /// searches keep rotating instead of hammering the same prefix.
    pub fn find_victim<F: Fn(&K) -> bool>(&mut self, threshold: u64, eligible: F) -> Option<K> {
        let n = self.ring.len();
        for _ in 0..n {
            let k = self.ring[self.pointer];
            let c = self
                .counts
                .get_mut(&k)
                .expect("ring keys always have counts");
            *c /= 2; // competitive aging
            let aged = *c;
            self.pointer = (self.pointer + 1) % n;
            if aged < threshold && eligible(&k) {
                return Some(k);
            }
        }
        None
    }

    /// Keys sorted by descending access count (heavy hitters first). Ties
    /// broken by ring position for determinism.
    pub fn heavy_hitters(&self) -> Vec<(K, u64)> {
        let mut v: Vec<(K, u64)> = self.ring.iter().map(|&k| (k, self.counts[&k])).collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_touch() {
        let mut t = CircularTrap::new();
        assert!(t.insert(1u32));
        assert!(!t.insert(1), "duplicate rejected");
        assert!(t.insert(2));
        assert_eq!(t.len(), 2);
        assert!(t.touch(&1));
        assert!(t.touch(&1));
        assert!(!t.touch(&99));
        assert_eq!(t.count(&1), Some(2));
        assert_eq!(t.count(&2), Some(0));
        assert_eq!(t.count(&99), None);
    }

    #[test]
    fn victim_search_halves_counts_and_finds_cold_key() {
        let mut t = CircularTrap::new();
        for k in [10u32, 20, 30] {
            t.insert(k);
        }
        // Heat up 10 and 20; leave 30 cold.
        for _ in 0..8 {
            t.touch(&10);
        }
        for _ in 0..4 {
            t.touch(&20);
        }
        let v = t.find_victim(1, |_| true).expect("cold key exists");
        assert_eq!(v, 30, "the zero-count key is the victim");
        // Passed keys were halved exactly once.
        let h: std::collections::HashMap<u32, u64> = t.heavy_hitters().into_iter().collect();
        let halved: u64 = h[&10] + h[&20];
        assert!(
            halved == 6 || halved == 8 || halved == 10 || halved == 12,
            "some subset of {{10,20}} was passed and halved: {h:?}"
        );
    }

    #[test]
    fn victim_search_fails_when_everything_is_hot() {
        let mut t = CircularTrap::new();
        for k in [1u32, 2] {
            t.insert(k);
            for _ in 0..100 {
                t.touch(&k);
            }
        }
        // threshold 1: counts 100 -> 50 after one sweep; no victim.
        assert_eq!(t.find_victim(1, |_| true), None);
        assert_eq!(t.count(&1), Some(50));
        assert_eq!(t.count(&2), Some(50));
        // Repeated sweeps age them down to victims eventually (log2 steps).
        let mut sweeps = 0;
        while t.find_victim(1, |_| true).is_none() {
            sweeps += 1;
            assert!(sweeps < 12, "competitive aging must converge");
        }
    }

    #[test]
    fn exclusion_filter_skips_ineligible_victims() {
        let mut t = CircularTrap::new();
        for k in [1u32, 2, 3] {
            t.insert(k);
        }
        // All counts zero; exclude keys 1 and 2.
        let v = t.find_victim(1, |k| *k == 3).expect("3 is eligible");
        assert_eq!(v, 3);
        // Exclude everything: no victim even though all are cold.
        assert_eq!(t.find_victim(1, |_| false), None);
    }

    #[test]
    fn remove_keeps_pointer_consistent() {
        let mut t = CircularTrap::new();
        for k in 0u32..5 {
            t.insert(k);
        }
        assert!(t.remove(&2));
        assert!(!t.remove(&2));
        assert_eq!(t.len(), 4);
        assert_eq!(t.count(&2), None);
        // Victim search still terminates and visits everyone.
        for _ in 0..4 {
            assert!(t.find_victim(1, |_| true).is_some());
        }
    }

    #[test]
    fn remove_last_element_resets_pointer() {
        let mut t = CircularTrap::new();
        t.insert(7u32);
        assert!(t.remove(&7));
        assert!(t.is_empty());
        assert_eq!(t.find_victim(1, |_| true), None);
        // Reinsert works after emptying.
        assert!(t.insert(8));
        assert_eq!(t.find_victim(1, |_| true), Some(8));
    }

    #[test]
    fn new_insert_gets_full_rotation_of_grace() {
        let mut t = CircularTrap::new();
        t.insert(1u32);
        t.insert(2);
        t.insert(3);
        // The most recent insert comes LAST: the sweep reaches older
        // entries first.
        let victims: Vec<u32> = (0..3).filter_map(|_| t.find_victim(1, |_| true)).collect();
        assert_eq!(victims, vec![1, 2, 3]);
    }

    #[test]
    fn heavy_hitters_sorted_desc() {
        let mut t = CircularTrap::new();
        for k in [1u32, 2, 3] {
            t.insert(k);
        }
        for _ in 0..5 {
            t.touch(&2);
        }
        t.touch(&3);
        let hh = t.heavy_hitters();
        assert_eq!(hh[0], (2, 5));
        assert_eq!(hh[1], (3, 1));
        assert_eq!(hh[2], (1, 0));
    }

    #[test]
    fn pointer_rotates_across_searches() {
        let mut t = CircularTrap::new();
        for k in 0u32..4 {
            t.insert(k);
        }
        // All cold: each search returns the next ring element, not always
        // the same one.
        let a = t.find_victim(1, |_| true).expect("cold ring");
        t.remove(&a);
        let b = t.find_victim(1, |_| true).expect("cold ring");
        assert_ne!(a, b);
    }
}
