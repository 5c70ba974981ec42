//! The parallel evaluation engine: a scoped worker pool and a sharded
//! schedule cache, both built on `std` alone.
//!
//! RANA's Stage-2 search and the paper's design-space sweeps (Figures
//! 15-19) are embarrassingly parallel — candidates, layers, and design
//! points are all independent — but the *selection* among candidates is
//! order-sensitive (the scheduler's tie-breaking predicate is not a total
//! order). The engine therefore parallelizes only the evaluation:
//! [`par_map`] preserves input order exactly, and every reduction over
//! its output runs serially in that order, making parallel results
//! bit-identical to the serial path.
//!
//! [`ScheduleCache`] memoizes finished layer searches across threads,
//! networks, and design points, keyed by the canonical fingerprints of
//! `rana_accel::fingerprint` (layer shape + full scheduling context). The
//! map is sharded by key so concurrent workers rarely contend on a lock.

use crate::scheduler::LayerSchedule;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker threads to use: the `RANA_THREADS` environment variable when
/// set (≥ 1), otherwise [`std::thread::available_parallelism`].
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var("RANA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies `f` to every item on a scoped worker pool, returning results
/// in input order (deterministic regardless of scheduling).
///
/// Uses [`thread_count`] workers; see [`par_map_with`] for an explicit
/// count. With one worker (or one item) it runs inline, so the serial
/// and parallel code paths share every instruction except the fan-out.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, thread_count(), f)
}

/// [`par_map`] with an explicit worker count.
///
/// Work is distributed by an atomic counter (dynamic stealing — layer
/// searches vary wildly in cost), and each worker tags results with
/// their input index; the join scatters them back into place.
pub fn par_map_with<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return rana_trace::span("par.map_inline", || items.iter().map(&f).collect());
    }
    rana_trace::span("par.map", || par_map_pooled(items, workers, f))
}

/// The multi-worker body of [`par_map_with`], separated so the span hook
/// times exactly the fan-out/join. Every worker records into the caller's
/// trace session, and each item's ledgers are held and replayed in input
/// order, so the ledger sum matches the inline path.
fn par_map_pooled<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let f = &|item: &T| rana_trace::hold_ledgers(|| f(item));
    let next = &next;
    let session = &rana_trace::Handle::current();
    let mut slots: Vec<Option<_>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let tagged: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    session.enter(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            local.push((i, f(&items[i])));
                        }
                        local
                    })
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("par_map worker panicked")).collect()
    });
    for (i, r) in tagged {
        slots[i] = Some(r);
    }
    let replay = |(r, ledgers): (R, Vec<rana_trace::EnergyLedger>)| {
        rana_trace::replay_ledgers(&ledgers);
        r
    };
    slots.into_iter().map(|s| replay(s.expect("every index produced exactly once"))).collect()
}

/// Shards in the schedule cache. A power of two; selected by the low
/// bits of the (already well-mixed) FNV key.
const SHARDS: usize = 16;

/// A concurrent memoization cache for finished layer searches.
///
/// Keys are `Scheduler::layer_key` digests — the layer's shape fingerprint
/// composed with the scheduler's context fingerprint — so one cache can be
/// shared safely across networks, refresh intervals, and design points:
/// any context difference that could change the result changes the key.
///
/// Cached values carry the name of the first layer that produced them;
/// readers patch in their own layer name (shapes are shared, names are
/// not).
///
/// Entries arrive through two doors: [`insert`](Self::insert) stores a
/// search the process just ran, while [`preload`](Self::preload) stores
/// a *warm* entry deserialized from a persistent
/// [`ScheduleStore`](crate::store::ScheduleStore). Warm entries are
/// tracked separately ([`warm_len`](Self::warm_len),
/// [`warm_hits`](Self::warm_hits)) so a serving run can report how much
/// of its Stage-2 work the persistent store absorbed.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    shards: [Mutex<HashMap<u64, Slot>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    warm_hits: AtomicU64,
}

/// One cache slot: the memoized search plus its provenance.
#[derive(Debug, Clone)]
struct Slot {
    sched: LayerSchedule,
    /// `true` when the entry was preloaded from a persistent store
    /// rather than computed in-process.
    warm: bool,
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Slot>> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Looks up a finished search, counting the hit or miss.
    ///
    /// When tracing is active each lookup also emits a
    /// [`rana_trace::Event::CacheLookup`] and bumps the
    /// `cache.schedule.{hit,miss}` counters. Lookups from parallel
    /// workers emit in completion order, so the event *order* is only
    /// deterministic at one worker thread (`RANA_THREADS=1`); the
    /// counters are order-free and deterministic at any thread count.
    pub fn get(&self, key: u64) -> Option<LayerSchedule> {
        let found = self.shard(key).lock().expect("cache shard poisoned").get(&key).cloned();
        let hit = found.is_some();
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if found.as_ref().is_some_and(|s| s.warm) {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        if rana_trace::enabled() {
            rana_trace::count(if hit { "cache.schedule.hit" } else { "cache.schedule.miss" }, 1);
            rana_trace::emit(|| rana_trace::Event::CacheLookup {
                cache: "schedule".to_string(),
                fingerprint: key,
                hit,
            });
        }
        found.map(|s| s.sched)
    }

    /// Stores a finished search. Last write wins; concurrent writers for
    /// the same key store identical values (the search is deterministic),
    /// so the race is benign.
    pub fn insert(&self, key: u64, value: LayerSchedule) {
        self.shard(key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, Slot { sched: value, warm: false });
    }

    /// Stores an entry deserialized from a persistent store, marking it
    /// *warm* so hits on it are counted under [`warm_hits`](Self::warm_hits).
    ///
    /// A warm preload never displaces an in-process entry: the search is
    /// deterministic, so an existing slot already holds the same value
    /// and keeps its provenance.
    pub fn preload(&self, key: u64, value: LayerSchedule) {
        self.shard(key)
            .lock()
            .expect("cache shard poisoned")
            .entry(key)
            .or_insert(Slot { sched: value, warm: true });
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries that were preloaded from a persistent store.
    pub fn warm_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").values().filter(|v| v.warm).count())
            .sum()
    }

    /// Every `(key, schedule)` pair, sorted by key.
    ///
    /// The sort makes the listing deterministic regardless of shard
    /// layout or insertion order — this is what a persistent store
    /// serializes.
    pub fn entries(&self) -> Vec<(u64, LayerSchedule)> {
        let mut out: Vec<(u64, LayerSchedule)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("cache shard poisoned")
                    .iter()
                    .map(|(k, v)| (*k, v.sched.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups that found a *warm* (store-preloaded) entry — Stage-2
    /// searches the persistent store absorbed.
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map_with(&items, threads, |&x| x * x);
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let none: Vec<u32> = vec![];
        assert!(par_map_with(&none, 4, |&x| x).is_empty());
        assert_eq!(par_map_with(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_uneven_work_still_ordered() {
        // Make later items cheap and early items expensive so workers
        // finish out of order.
        let items: Vec<usize> = (0..64).collect();
        let out = par_map_with(&items, 4, |&i| {
            let spins = (64 - i) * 1000;
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_add(k as u64 ^ acc.rotate_left(7));
            }
            std::hint::black_box(acc); // the spin loop cannot be optimized out
            i
        });
        assert_eq!(out, items);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        use rana_accel::{analyze, AcceleratorConfig, Pattern, SchedLayer, Tiling};
        let cfg = AcceleratorConfig::paper_edram();
        let layer = SchedLayer::from_conv(rana_zoo::alexnet().conv("conv1").unwrap());
        let sim = analyze(&layer, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        let sched = LayerSchedule {
            sim,
            refresh_words: 0,
            energy: crate::energy::EnergyBreakdown::default(),
        };

        let cache = ScheduleCache::new();
        assert!(cache.is_empty());
        assert!(cache.get(42).is_none());
        cache.insert(42, sched.clone());
        let got = cache.get(42).expect("stored entry");
        assert_eq!(got, sched);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));

        // Preloaded entries are tracked as warm and count warm hits.
        cache.preload(43, sched.clone());
        assert_eq!((cache.len(), cache.warm_len()), (2, 1));
        assert!(cache.get(43).is_some());
        assert_eq!(cache.warm_hits(), 1);
        // Hits on in-process entries do not count as warm.
        assert!(cache.get(42).is_some());
        assert_eq!(cache.warm_hits(), 1);
        // A preload never displaces an in-process entry's provenance.
        cache.preload(42, sched.clone());
        assert_eq!(cache.warm_len(), 1);
        // entries() lists everything sorted by key.
        let keys: Vec<u64> = cache.entries().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![42, 43]);
    }
}
