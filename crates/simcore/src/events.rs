//! Generic discrete-event queue.
//!
//! [`EventQueue`] is a calendar queue / single-level timing wheel: events
//! within an 8.4 s horizon land in one of 8192 fixed-width (1024 µs)
//! buckets, beyond-horizon events wait in an overflow heap, and the
//! bucket currently being drained lives in a small binary heap so
//! same-bucket events still pop in exact `(time, sequence)` order.
//! Pushes are O(1) amortized; pops touch only the handful of events
//! sharing the active millisecond instead of a heap over the entire
//! pending set.
//!
//! The wheel's entries live in one slab, not in a buffer per bucket:
//! each bucket is the head of an intrusive singly linked list through
//! the slab, and drained entries go on a free list for the next push.
//! Storage therefore grows with the peak number of pending events, not
//! with the wheel size, and a fresh queue costs two flat arrays. A
//! short run that touches thousands of buckets once each (every cell of
//! the paper's matrix) would otherwise pay one allocation per bucket.
//! A bucket's list pours into the active heap in reverse push order;
//! the heap orders by the unique `(time, sequence)` key, so pop order
//! does not depend on it.
//!
//! Ties between simultaneous events break by insertion order (a
//! monotonically increasing sequence number), which keeps event
//! interleavings — and therefore whole simulation runs — deterministic.
//! The test module drives a plain [`std::collections::BinaryHeap`] keyed
//! by `(SimTime, sequence)` side by side with the calendar as its
//! differential oracle.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry: payload `E` to be delivered at `time`.
#[derive(Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // with the lowest sequence number winning ties (FIFO for same-time).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// log2 of the bucket width in microseconds (1024 µs ≈ 1 ms per bucket).
const WIDTH_LOG2: u32 = 10;
/// log2 of the wheel size in buckets (8192 buckets ≈ 8.4 s horizon).
const WHEEL_LOG2: u32 = 13;
const WHEEL: usize = 1 << WHEEL_LOG2;
const WHEEL_MASK: u64 = (WHEEL as u64) - 1;
/// End of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

#[inline]
fn bucket_of(time: SimTime) -> u64 {
    time.as_micros() >> WIDTH_LOG2
}

/// A deterministic priority queue of simulation events.
///
/// ```
/// use dare_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(5), "later");
/// q.push(SimTime::from_secs(1), "sooner");
/// q.push(SimTime::from_secs(1), "sooner-but-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner-but-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "later")));
/// assert_eq!(q.pop(), None);
/// ```
///
/// Invariant: whenever `len > 0`, `cur` is non-empty and holds the global
/// minimum `(time, seq)` entry. Events in wheel slot for absolute bucket
/// `b > cur_bucket` all have `time >= (cur_bucket + 1) << WIDTH_LOG2`,
/// which is strictly later than every entry routed into `cur` (those have
/// bucket `<= cur_bucket`), so draining `cur` first is exact.
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Min-heap of the active bucket (plus any late/past-time pushes).
    cur: BinaryHeap<Scheduled<E>>,
    /// Absolute index of the bucket `cur` is draining.
    cur_bucket: u64,
    /// Fixed wheel of future buckets within the horizon: the head of
    /// each slot's list in `slab` (`NIL` when empty). Slot `s` holds
    /// events of exactly one absolute bucket `b ≡ s (mod WHEEL)` with
    /// `cur_bucket < b < cur_bucket + WHEEL`.
    wheel: Vec<u32>,
    /// Wheel entries; `None` while an index is on the free list.
    slab: Vec<Option<Scheduled<E>>>,
    /// Parallel to `slab`: the next entry of the same slot's list, or of
    /// the free list.
    next: Vec<u32>,
    /// Head of the free list of `slab` indices.
    free: u32,
    /// One occupancy bit per wheel slot (`trailing_zeros` scan finds the
    /// next non-empty bucket without reading the slot heads).
    occ: Vec<u64>,
    /// Beyond-horizon events, min-first.
    overflow: BinaryHeap<Scheduled<E>>,
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            cur: BinaryHeap::new(),
            cur_bucket: 0,
            wheel: vec![NIL; WHEEL],
            slab: Vec::new(),
            next: Vec::new(),
            free: NIL,
            occ: vec![0u64; WHEEL / 64],
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedule `event` for delivery at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.route(Scheduled { time, seq, event });
        self.len += 1;
        if self.cur.is_empty() {
            self.advance();
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.cur.pop()?;
        self.len -= 1;
        if self.cur.is_empty() && self.len > 0 {
            self.advance();
        }
        Some((s.time, s.event))
    }

    /// Time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cur.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Visit every pending entry as `(time, seq, &event)` without
    /// disturbing the queue. Visit **order is unspecified**; callers
    /// needing a canonical view (e.g. state fingerprints for the model
    /// checker) must collect and sort by `(time, seq)`.
    ///
    /// Only the occupied wheel slots are read, found through the
    /// occupancy bits: the engine's quiescence test calls this on every
    /// step once the jobs are done, and walking all `WHEEL` slots there
    /// cost more than the events themselves.
    pub fn for_each_scheduled(&self, mut f: impl FnMut(SimTime, u64, &E)) {
        let mut visit = |s: &Scheduled<E>| f(s.time, s.seq, &s.event);
        self.cur.iter().for_each(&mut visit);
        for (w, &word) in self.occ.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let slot = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut i = self.wheel[slot];
                while i != NIL {
                    visit(self.slab[i as usize].as_ref().expect("linked entry"));
                    i = self.next[i as usize];
                }
            }
        }
        self.overflow.iter().for_each(&mut visit);
    }

    #[inline]
    fn set_occ(&mut self, slot: usize) {
        self.occ[slot >> 6] |= 1u64 << (slot & 63);
    }

    #[inline]
    fn clear_occ(&mut self, slot: usize) {
        self.occ[slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// Route one entry to `cur`, the wheel, or overflow.
    fn route(&mut self, s: Scheduled<E>) {
        let b = bucket_of(s.time);
        if b <= self.cur_bucket {
            self.cur.push(s);
        } else if b < self.cur_bucket + WHEEL as u64 {
            self.link((b & WHEEL_MASK) as usize, s);
        } else {
            self.overflow.push(s);
        }
    }

    /// Put `s` at the head of wheel slot `slot`'s list, reusing a freed
    /// slab entry when there is one.
    fn link(&mut self, slot: usize, s: Scheduled<E>) {
        let i = if self.free == NIL {
            self.slab.push(Some(s));
            self.next.push(NIL);
            (self.slab.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.next[i as usize];
            self.slab[i as usize] = Some(s);
            i
        };
        self.next[i as usize] = self.wheel[slot];
        self.wheel[slot] = i;
        self.set_occ(slot);
    }

    /// Find the earliest non-empty bucket after `cur_bucket`, jump to it,
    /// and pour its events into `cur`. Called only when `cur` is empty and
    /// at least one event is pending in the wheel or overflow.
    fn advance(&mut self) {
        debug_assert!(self.cur.is_empty() && self.len > 0);
        // Earliest occupied wheel slot, as a delta in (0, WHEEL) from the
        // current bucket's slot position.
        let base = (self.cur_bucket & WHEEL_MASK) as usize;
        let wheel_bucket = self
            .next_occupied_after(base)
            .map(|delta| self.cur_bucket + delta as u64);
        let overflow_bucket = self.overflow.peek().map(|s| bucket_of(s.time));
        let target = match (wheel_bucket, overflow_bucket) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => unreachable!("advance() with no pending events"),
        };
        self.cur_bucket = target;
        let slot = (target & WHEEL_MASK) as usize;
        if self.occ[slot >> 6] & (1u64 << (slot & 63)) != 0 && wheel_bucket == Some(target) {
            self.clear_occ(slot);
            let mut i = std::mem::replace(&mut self.wheel[slot], NIL);
            while i != NIL {
                let s = self.slab[i as usize].take().expect("linked entry");
                let after = std::mem::replace(&mut self.next[i as usize], self.free);
                self.free = i;
                self.cur.push(s);
                i = after;
            }
        }
        // Pull newly-in-horizon overflow events forward: same-bucket ones
        // into `cur`, the rest onto the wheel. Keeping overflow drained to
        // beyond-horizon entries keeps its heap small.
        while let Some(s) = self.overflow.peek() {
            if bucket_of(s.time) >= self.cur_bucket + WHEEL as u64 {
                break;
            }
            let s = self.overflow.pop().expect("peeked");
            let b = bucket_of(s.time);
            if b <= self.cur_bucket {
                self.cur.push(s);
            } else {
                self.link((b & WHEEL_MASK) as usize, s);
            }
        }
        debug_assert!(!self.cur.is_empty());
    }

    /// Smallest `delta in 1..WHEEL` such that slot `(base + delta) % WHEEL`
    /// is occupied, scanning the bitset one 64-bit word at a time.
    fn next_occupied_after(&self, base: usize) -> Option<usize> {
        let words = self.occ.len();
        let start = (base + 1) % WHEEL;
        let mut word_idx = start >> 6;
        // First (partial) word: mask off bits below `start`.
        let mut word = self.occ[word_idx] & !((1u64 << (start & 63)) - 1);
        for step in 0..=words {
            if word != 0 {
                let slot = (word_idx << 6) + word.trailing_zeros() as usize;
                let delta = (slot + WHEEL - base) & (WHEEL - 1);
                // delta == 0 would mean `base` itself; the scan starts
                // strictly after it, so delta is in 1..WHEEL here — except
                // when wrapping all the way back to `base`'s own word.
                if delta != 0 {
                    return Some(delta);
                }
            }
            if step == words {
                break;
            }
            word_idx = (word_idx + 1) % words;
            word = self.occ[word_idx];
            // On wrapping back into the starting word, only bits at or
            // below `base` remain unexamined.
            if word_idx == start >> 6 {
                word &= (1u64 << (start & 63)) - 1;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{env_cases, run_cases};
    use crate::time::SimDuration;

    /// The calendar queue and its differential oracle — a plain binary
    /// heap keyed by `(time, insertion seq)` — fed the same schedule.
    #[derive(Clone, Default)]
    struct WithOracle {
        cal: EventQueue<u64>,
        heap: BinaryHeap<Scheduled<u64>>,
    }

    impl WithOracle {
        fn push(&mut self, time: SimTime, event: u64) {
            let seq = self.cal.next_seq;
            self.heap.push(Scheduled { time, seq, event });
            self.cal.push(time, event);
        }

        /// Pop both; they must agree on the entry, the length left and
        /// the next time.
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let got = self.cal.pop();
            assert_eq!(
                got,
                self.heap.pop().map(|s| (s.time, s.event)),
                "kernels diverged"
            );
            assert_eq!(self.cal.len(), self.heap.len());
            assert_eq!(self.cal.peek_time(), self.heap.peek().map(|s| s.time));
            got
        }

        /// The calendar's visited schedule, sorted, equals the oracle's.
        fn assert_same_schedule(&self) {
            let mut seen = Vec::new();
            self.cal
                .for_each_scheduled(|t, seq, &e| seen.push((t, seq, e)));
            seen.sort_unstable();
            let mut want: Vec<_> = self.heap.iter().map(|s| (s.time, s.seq, s.event)).collect();
            want.sort_unstable();
            assert_eq!(seen, want, "calendar exposes a different schedule");
        }

        fn drain(&mut self) -> Vec<u64> {
            std::iter::from_fn(|| self.pop().map(|(_, e)| e)).collect()
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = WithOracle::default();
        for s in [9u64, 3, 7, 1, 5] {
            q.push(SimTime::from_secs(s), s);
        }
        assert_eq!(q.drain(), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = WithOracle::default();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(2), 'b');
        q.push(SimTime::from_secs(1), 'a');
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = WithOracle::default();
        let mut now = SimTime::ZERO;
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(4), 4);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
        now += SimDuration::from_secs(1);
        // schedule relative to "now"
        q.push(now + SimDuration::from_secs(1), 2);
        q.push(now + SimDuration::from_secs(2), 3);
        assert_eq!(q.drain(), vec![2, 3, 4]);
    }

    #[test]
    fn overflow_horizon_round_trip() {
        // Events far beyond the 8.4 s wheel horizon must still pop in
        // exact order once the wheel advances to them.
        let mut q = WithOracle::default();
        for s in [3600u64, 7200, 60, 1, 86_400] {
            q.push(SimTime::from_secs(s), s);
        }
        assert_eq!(q.drain(), vec![1, 60, 3600, 7200, 86_400]);
    }

    #[test]
    fn push_behind_drained_time_still_pops_first() {
        // A push earlier than the bucket currently being drained (legal,
        // if unusual, for the simulation) routes into the active heap and
        // pops before everything later.
        let mut q = WithOracle::default();
        q.push(SimTime::from_secs(10), 10);
        let _ = q.pop();
        q.push(SimTime::from_secs(20), 20);
        q.push(SimTime::from_secs(5), 5);
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 5)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(20), 20)));
    }

    #[test]
    fn for_each_scheduled_sees_all_entries_in_both_kernels() {
        // Push a schedule with an overflow-horizon event and a same-time
        // tie; after sorting by (time, seq) the calendar's visited view
        // must equal the oracle heap's contents.
        let mut q = WithOracle::default();
        for s in [9u64, 1, 1, 86_400, 5] {
            q.push(SimTime::from_secs(s), s);
        }
        let _ = q.pop(); // drop the first 1 s event, forcing a partially drained state
        q.assert_same_schedule();
        let mut seen = Vec::new();
        q.cal
            .for_each_scheduled(|t, seq, &e| seen.push((t, seq, e)));
        seen.sort_unstable();
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0].0, SimTime::from_secs(1));
        assert_eq!(seen[3].2, 86_400);
    }

    /// Under randomized interleaved push/pop workloads — same-time
    /// bursts, in-horizon spreads, and far-overflow times — the calendar
    /// pops the exact `(time, insertion-order)` sequence the heap oracle
    /// does, and every 16th operation it visits the same schedule. A
    /// clone taken at a random step (the engine's `Clone`, which the
    /// model checker forks by) is fed the same operations from then on
    /// and pops the same sequence as the original.
    #[test]
    fn calendar_matches_heap_oracle() {
        run_cases(env_cases(64), 0xCA1E_17DA, |g| {
            let mut q = WithOracle::default();
            let mut now = 0u64;
            let mut next_tag = 0u64;
            let ops = g.usize_in(1..400);
            let clone_at = g.usize_in(0..ops);
            let mut fork: Option<WithOracle> = None;
            for op in 0..ops {
                if op == clone_at {
                    fork = Some(q.clone());
                }
                if op % 16 == 0 {
                    q.assert_same_schedule();
                }
                if g.bool(0.6) {
                    // Push a burst at one drawn time: tight (same bucket),
                    // spread (across the wheel), or far (overflow).
                    let t = match g.usize_in(0..4) {
                        0 => now + g.u64_in(0..1_024),
                        1 => now + g.u64_in(0..8_000_000),
                        2 => now + g.u64_in(0..60_000_000),
                        _ => now.saturating_sub(g.u64_in(0..2_048)),
                    };
                    let burst = g.usize_in(1..6);
                    for _ in 0..burst {
                        q.push(SimTime::from_micros(t), next_tag);
                        if let Some(f) = fork.as_mut() {
                            f.push(SimTime::from_micros(t), next_tag);
                        }
                        next_tag += 1;
                    }
                } else {
                    let got = q.pop();
                    if let Some(f) = fork.as_mut() {
                        assert_eq!(f.pop(), got, "clone diverged");
                    }
                    if let Some((t, _)) = got {
                        now = now.max(t.as_micros());
                    }
                }
            }
            // Drain: the full remaining sequences must be identical.
            let rest = q.drain();
            if let Some(mut f) = fork {
                assert_eq!(f.drain(), rest, "clone diverged");
            }
        });
    }

    /// A steady population of re-arming chains (heartbeat-like, with a
    /// few beyond-horizon hops) over several wheel turns: the calendar
    /// keeps matching the oracle while drained entries are reused, so
    /// the slab never grows past the pending count.
    #[test]
    fn steady_population_reuses_freed_entries() {
        run_cases(env_cases(8), 0x51AB_F4EE, |g| {
            let mut q = WithOracle::default();
            let chains = g.u64_in(1..200);
            for c in 0..chains {
                q.push(SimTime::from_micros(g.u64_in(0..3_000_000)), c);
            }
            // Five wheel turns (8.4 s each) of simulated time.
            let end = (5 * WHEEL as u64) << WIDTH_LOG2;
            let mut ops = 0usize;
            while let Some((t, c)) = q.pop() {
                if t.as_micros() >= end {
                    break;
                }
                let hop = if g.bool(0.02) {
                    g.u64_in(9_000_000..20_000_000)
                } else {
                    g.u64_in(2_900_000..3_100_000)
                };
                q.push(SimTime::from_micros(t.as_micros() + hop), c);
                ops += 1;
                if ops.is_multiple_of(64) {
                    q.assert_same_schedule();
                }
            }
            assert!(
                q.cal.slab.len() as u64 <= chains,
                "slab outgrew the pending count"
            );
            q.drain();
        });
    }
}
