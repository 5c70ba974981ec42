//! The deterministic event queue and its monotonic clock.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Handle to a scheduled event, usable with [`EventQueue::cancel`].
///
/// Ids are assigned in schedule order and never reused within one queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// Bits of the packed key below the class byte: schedule sequence numbers
/// must stay under `2^SEQ_BITS`.
const SEQ_BITS: u32 = 56;

/// Maps a time's bits onto `u64` so that unsigned order is
/// [`f64::total_cmp`] order: negatives flip every bit, everything else
/// flips only the sign bit.
fn fold_time(time: f64) -> u64 {
    let bits = time.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`fold_time`].
fn unfold_time(folded: u64) -> f64 {
    f64::from_bits(if folded >> 63 == 1 { folded & !(1 << 63) } else { !folded })
}

/// One heap entry. Ordering is the whole determinism contract: earliest
/// `time` first, then lowest `class`, then lowest `seq` (schedule order).
/// All three are packed into one `u128` — folded time in the high 64
/// bits, class in bits 56–63, seq below — so each sift step of the heap
/// is a single integer compare. The payload is `None` once delivered
/// (see [`EventQueue::pop`]).
struct Entry<E> {
    key: u128,
    payload: Option<E>,
}

impl<E> Entry<E> {
    fn new(time: f64, class: u8, seq: u64, payload: E) -> Self {
        let key =
            u128::from(fold_time(time)) << 64 | u128::from(class) << SEQ_BITS | u128::from(seq);
        Self { key, payload: Some(payload) }
    }

    fn time(&self) -> f64 {
        unfold_time((self.key >> 64) as u64)
    }

    fn seq(&self) -> u64 {
        self.key as u64 & ((1 << SEQ_BITS) - 1)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event
        // on top.
        other.key.cmp(&self.key)
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A binary-heap event queue with a built-in monotonic clock.
///
/// Events are typed (`E` is the simulator's event enum) and delivered in
/// `(time, class, seq)` order: earliest timestamp first, ties broken by
/// the event's priority class (lower fires first), then by schedule order.
/// Nothing in the delivery order depends on hash-map iteration or
/// addresses, so a fixed schedule replays identically.
///
/// The clock ([`EventQueue::now`]) advances only when an event is popped
/// and never moves backwards; scheduling into the past panics.
///
/// Cost: [`pop`](EventQueue::pop) takes the top entry's payload but
/// leaves the entry on the heap, and a [`schedule`](EventQueue::schedule)
/// right after it writes the new event over that entry and sifts it down
/// once. So a simulator step that pops one event and schedules one costs
/// one O(log n) sift, not a pop's two and a push's one. Any other call
/// first removes the delivered entry, at the price of an ordinary heap
/// pop. No call touches a hash set unless an event was cancelled;
/// [`EventQueue::cancel`] costs O(n). Simulators that keep one pending
/// event per actor (one arrival per stream, one completion per die) keep
/// n small.
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Whether the heap's top entry is the one the last `pop` delivered
    /// (payload taken), waiting to be overwritten or removed.
    delivered: bool,
    /// Ids cancelled but still buried in the heap (lazy deletion).
    cancelled: HashSet<u64>,
    /// Scheduled events not yet delivered or cancelled.
    live: usize,
    next_seq: u64,
    now: f64,
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at `0.0`.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            delivered: false,
            cancelled: HashSet::new(),
            live: 0,
            next_seq: 0,
            now: 0.0,
        }
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (`0.0` before the first pop).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Live (scheduled, not yet delivered or cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `payload` at absolute time `time` in priority class
    /// `class` (lower classes fire first at equal timestamps) and returns
    /// a handle for [`EventQueue::cancel`].
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite or lies before [`EventQueue::now`],
    /// or after `2^56` schedules on one queue.
    pub fn schedule(&mut self, time: f64, class: u8, payload: E) -> EventId {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        assert!(time >= self.now, "cannot schedule into the past ({time} < {})", self.now);
        let seq = self.next_seq;
        assert!(seq < 1 << SEQ_BITS, "event sequence space exhausted");
        self.next_seq += 1;
        self.live += 1;
        let entry = Entry::new(time, class, seq, payload);
        if std::mem::take(&mut self.delivered) {
            // Overwrite the delivered top entry: one sift down from the root.
            *self.heap.peek_mut().expect("the delivered entry is on the heap") = entry;
        } else {
            self.heap.push(entry);
        }
        EventId(seq)
    }

    /// Removes the entry the last [`pop`](Self::pop) delivered, if no
    /// schedule has overwritten it.
    fn discard_delivered(&mut self) {
        if std::mem::take(&mut self.delivered) {
            self.heap.pop();
        }
    }

    /// Cancels a scheduled event. Returns `true` if the event was still
    /// pending (it will never be delivered), `false` if it was already
    /// delivered or cancelled.
    ///
    /// O(n) in the heap size: the heap is scanned to confirm the event is
    /// still queued, which keeps `schedule` and `pop` free of per-event
    /// bookkeeping.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.discard_delivered();
        let queued = !self.cancelled.contains(&id.0) && self.heap.iter().any(|e| e.seq() == id.0);
        if queued {
            self.cancelled.insert(id.0);
            self.live -= 1;
        }
        queued
    }

    /// Whether event `seq` was cancelled; forgets the id, since its entry
    /// is leaving the heap.
    fn take_cancelled(&mut self, seq: u64) -> bool {
        !self.cancelled.is_empty() && self.cancelled.remove(&seq)
    }

    /// Delivers the next event, advancing the clock to its timestamp.
    /// Returns `None` when no live events remain.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let time = self.peek_time()?;
        // The key stays, so the heap order does too.
        let mut top = self.heap.peek_mut().expect("peek_time saw a live top entry");
        let payload = top.payload.take().expect("a live entry holds its payload");
        drop(top);
        self.delivered = true;
        self.live -= 1;
        debug_assert!(time >= self.now, "heap delivered an event out of order");
        self.now = time;
        Some((time, payload))
    }

    /// Timestamp of the next live event without delivering it (the
    /// delivered entry and cancelled entries at the top are discarded on
    /// the way).
    pub fn peek_time(&mut self) -> Option<f64> {
        self.discard_delivered();
        loop {
            let top = self.heap.peek()?;
            let (seq, time) = (top.seq(), top.time());
            if !self.take_cancelled(seq) {
                return Some(time);
            }
            self.heap.pop();
        }
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.live)
            .field("scheduled_total", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_then_class_then_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, 1, "c");
        q.schedule(5.0, 0, "b");
        q.schedule(1.0, 7, "a");
        q.schedule(5.0, 1, "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
    }

    #[test]
    fn clock_tracks_pops_and_rejects_past_schedules() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 0, ());
        q.schedule(3.0, 0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 3.0);
        // Same-instant scheduling is allowed; the past is not.
        q.schedule(3.0, 0, ());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.schedule(2.9, 0, ());
        }));
        assert!(result.is_err(), "scheduling into the past must panic");
    }

    #[test]
    fn cancellation_is_lazy_but_final() {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, 0, "a");
        let b = q.schedule(2.0, 0, "b");
        q.schedule(3.0, 0, "c");
        assert_eq!(q.len(), 3);
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel reports false");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert!(!q.cancel(a), "cancelling a delivered event reports false");
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn a_schedule_at_now_in_a_lower_class_overwrites_the_delivered_entry() {
        let mut q = EventQueue::new();
        q.schedule(2.0, 1, "first");
        q.schedule(2.0, 2, "after");
        q.schedule(5.0, 0, "later");
        assert_eq!(q.pop(), Some((2.0, "first")));
        // Sorts before the class-1 entry it overwrites on the heap.
        q.schedule(2.0, 0, "now");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((2.0, "now")));
        assert_eq!(q.pop(), Some((2.0, "after")));
        assert_eq!(q.pop(), Some((5.0, "later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn the_event_just_delivered_cannot_be_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, 0, "a");
        q.schedule(2.0, 0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert!(q.delivered, "the delivered entry is still the heap's top");
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.pop(), Some((2.0, "b")));
    }

    #[test]
    fn peek_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, 0, "a");
        q.schedule(2.0, 0, "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.pop(), Some((2.0, "b")));
    }

    #[test]
    fn folded_times_sort_like_total_cmp_and_round_trip() {
        let times = [f64::MIN, -1e9, -1.5, -f64::MIN_POSITIVE, -0.0, 0.0, 5e-324, 1.0, 3.0, 1e300];
        for (i, &a) in times.iter().enumerate() {
            assert_eq!(unfold_time(fold_time(a)).to_bits(), a.to_bits());
            for &b in &times[i..] {
                assert_eq!(fold_time(a).cmp(&fold_time(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn negative_zero_and_zero_coexist() {
        let mut q = EventQueue::new();
        q.schedule(0.0, 0, "pos");
        q.schedule(-0.0, 0, "neg");
        // total_cmp orders -0.0 before 0.0; both are "now".
        assert_eq!(q.pop(), Some((-0.0, "neg")));
        assert_eq!(q.pop(), Some((0.0, "pos")));
    }
}
