//! Generational-index arenas for hot simulation state.
//!
//! A [`Slab`] stores values in a dense `Vec`, hands out [`SlabKey`]s
//! (slot index + generation), and recycles freed slots through an
//! intrusive free list. Compared to the `HashMap<u64, T>` tables it
//! replaces, a slab lookup is one bounds check and one generation
//! compare — no hashing, no probing — and sequential iteration walks
//! contiguous memory.
//!
//! The generation counter makes stale keys detectable: removing a value
//! bumps the slot's generation, so a key retained past its value's death
//! misses instead of silently reading the slot's next tenant. That is the
//! property that lets the engine keep flow/attempt handles in several
//! side tables without risking ABA confusion when slots recycle.

/// Handle to one slab slot: dense index plus the slot generation the
/// value was inserted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlabKey {
    idx: u32,
    gen: u32,
}

impl SlabKey {
    /// The slot index (dense, reusable; stable for the value's lifetime).
    #[inline]
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// The generation the key was minted under (diagnostics).
    #[inline]
    pub fn generation(self) -> u32 {
        self.gen
    }
}

#[derive(Debug, Clone)]
enum Slot<T> {
    /// Occupied slot; generation of the current tenant.
    Full { gen: u32, value: T },
    /// Free slot; generation the *next* tenant will get, plus the next
    /// free slot (`u32::MAX` terminates the list).
    Free { gen: u32, next_free: u32 },
}

/// A generational slab arena.
///
/// ```
/// use dare_simcore::Slab;
///
/// let mut s: Slab<&str> = Slab::new();
/// let k = s.insert("alpha");
/// assert_eq!(s[k], "alpha");
/// assert_eq!(s.remove(k), Some("alpha"));
/// assert_eq!(s.get(k), None); // stale key misses, even after reuse
/// let k2 = s.insert("beta");
/// assert_eq!(k2.index(), k.index());
/// assert!(s.get(k).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    len: usize,
    /// High-water mark of simultaneously live values (telemetry).
    peak: usize,
}

const FREE_END: u32 = u32::MAX;

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: FREE_END,
            len: 0,
            peak: 0,
        }
    }

    /// Empty slab with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free_head: FREE_END,
            len: 0,
            peak: 0,
        }
    }

    /// Number of live values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of simultaneously live values.
    #[inline]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Insert a value, reusing the most recently freed slot if any.
    pub fn insert(&mut self, value: T) -> SlabKey {
        self.len += 1;
        self.peak = self.peak.max(self.len);
        if self.free_head != FREE_END {
            let idx = self.free_head;
            match self.slots[idx as usize] {
                Slot::Free { gen, next_free } => {
                    self.free_head = next_free;
                    self.slots[idx as usize] = Slot::Full { gen, value };
                    SlabKey { idx, gen }
                }
                Slot::Full { .. } => unreachable!("free list points at a full slot"),
            }
        } else {
            let idx = u32::try_from(self.slots.len()).expect("slab overflow (>4G slots)");
            self.slots.push(Slot::Full { gen: 0, value });
            SlabKey { idx, gen: 0 }
        }
    }

    /// Remove and return the value under `key`, if the key is current.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let slot = self.slots.get_mut(key.idx as usize)?;
        match slot {
            Slot::Full { gen, .. } if *gen == key.gen => {
                let next_gen = key.gen.wrapping_add(1);
                let old = std::mem::replace(
                    slot,
                    Slot::Free {
                        gen: next_gen,
                        next_free: self.free_head,
                    },
                );
                self.free_head = key.idx;
                self.len -= 1;
                match old {
                    Slot::Full { value, .. } => Some(value),
                    Slot::Free { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Shared access, `None` for stale or out-of-range keys.
    #[inline]
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        match self.slots.get(key.idx as usize) {
            Some(Slot::Full { gen, value }) if *gen == key.gen => Some(value),
            _ => None,
        }
    }

    /// Mutable access, `None` for stale or out-of-range keys.
    #[inline]
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        match self.slots.get_mut(key.idx as usize) {
            Some(Slot::Full { gen, value }) if *gen == key.gen => Some(value),
            _ => None,
        }
    }

    /// True when `key` refers to a live value.
    #[inline]
    pub fn contains(&self, key: SlabKey) -> bool {
        self.get(key).is_some()
    }

    /// Iterate live `(key, &value)` pairs in slot order.
    ///
    /// Slot order is allocation-history order, not insertion order; code
    /// that needs deterministic processing should collect and sort by a
    /// domain key, exactly as it did with hash maps.
    pub fn iter(&self) -> impl Iterator<Item = (SlabKey, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Full { gen, value } => Some((
                SlabKey {
                    idx: i as u32,
                    gen: *gen,
                },
                value,
            )),
            Slot::Free { .. } => None,
        })
    }

    /// Iterate live `(key, &mut value)` pairs in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (SlabKey, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Full { gen, value } => Some((
                    SlabKey {
                        idx: i as u32,
                        gen: *gen,
                    },
                    value,
                )),
                Slot::Free { .. } => None,
            })
    }

    /// Drop every value and reset the free list (generations advance so
    /// old keys stay stale).
    pub fn clear(&mut self) {
        for slot in self.slots.iter_mut() {
            if let Slot::Full { gen, .. } = slot {
                *slot = Slot::Free {
                    gen: gen.wrapping_add(1),
                    next_free: FREE_END,
                };
            }
        }
        // Rebuild the free list back-to-front so low slots are reused first.
        self.free_head = FREE_END;
        for i in (0..self.slots.len()).rev() {
            if let Slot::Free { next_free, .. } = &mut self.slots[i] {
                *next_free = self.free_head;
                self.free_head = i as u32;
            }
        }
        self.len = 0;
    }
}

impl<T> std::ops::Index<SlabKey> for Slab<T> {
    type Output = T;
    #[inline]
    fn index(&self, key: SlabKey) -> &T {
        self.get(key).expect("stale or invalid slab key")
    }
}

impl<T> std::ops::IndexMut<SlabKey> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, key: SlabKey) -> &mut T {
        self.get_mut(key).expect("stale or invalid slab key")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut s = Slab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        assert_eq!(s.len(), 2);
        assert_eq!(s[a], 10);
        assert_eq!(s[b], 20);
        *s.get_mut(a).unwrap() += 1;
        assert_eq!(s.remove(a), Some(11));
        assert_eq!(s.remove(a), None, "double remove misses");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn stale_keys_miss_after_slot_reuse() {
        let mut s = Slab::new();
        let a = s.insert("old");
        s.remove(a);
        let b = s.insert("new");
        assert_eq!(b.index(), a.index(), "slot is recycled");
        assert_ne!(b.generation(), a.generation());
        assert!(s.get(a).is_none(), "stale key must not alias new tenant");
        assert_eq!(s[b], "new");
    }

    #[test]
    fn free_list_reuses_lifo_and_len_tracks() {
        let mut s = Slab::with_capacity(8);
        let keys: Vec<_> = (0..5).map(|i| s.insert(i)).collect();
        s.remove(keys[1]);
        s.remove(keys[3]);
        let x = s.insert(100);
        assert_eq!(x.index(), 3, "most recently freed slot first");
        let y = s.insert(200);
        assert_eq!(y.index(), 1);
        let z = s.insert(300);
        assert_eq!(z.index(), 5, "free list exhausted, grows");
        assert_eq!(s.len(), 6);
        assert_eq!(s.peak(), 6);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut s = Slab::new();
        let keys: Vec<_> = (0..10).map(|i| s.insert(i)).collect();
        for k in &keys {
            s.remove(*k);
        }
        assert_eq!(s.len(), 0);
        assert_eq!(s.peak(), 10);
        s.insert(1);
        assert_eq!(s.peak(), 10, "peak does not reset on drain");
    }

    #[test]
    fn iter_yields_live_values_in_slot_order() {
        let mut s = Slab::new();
        let a = s.insert('a');
        let b = s.insert('b');
        let _c = s.insert('c');
        s.remove(b);
        let live: Vec<char> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(live, vec!['a', 'c']);
        assert!(s.iter().all(|(k, _)| s.contains(k)));
        assert_eq!(s.iter().next().unwrap().0, a);
    }

    #[test]
    fn clear_staleifies_everything() {
        let mut s = Slab::new();
        let keys: Vec<_> = (0..4).map(|i| s.insert(i)).collect();
        s.clear();
        assert!(s.is_empty());
        assert!(keys.iter().all(|&k| s.get(k).is_none()));
        let k = s.insert(99);
        assert_eq!(k.index(), 0, "low slots reused first after clear");
        assert_eq!(s[k], 99);
    }
}
