//! Functional banked eDRAM array with retention-fault injection.
//!
//! Each cell's retention time is drawn (deterministically, from a hash of
//! its address) from a [`RetentionDistribution`]. A read resolves the stored
//! word against the time elapsed since its *charge time*, when it was last
//! written or refreshed: a bit whose cell retention is shorter than that
//! age reads back a random value (paper §IV-B). A refresh *re-writes
//! whatever is currently resolvable* — refreshing too late locks corrupted
//! bits in, exactly as in hardware.
//!
//! Time is carried explicitly by the caller in microseconds, so the model
//! works both for the cycle simulator (which converts cycles to µs) and for
//! standalone fault-injection studies.
//!
//! # Decay resolution and the weakest-cell filter
//!
//! A cell's retention quantile is `q = hash53(seed, addr, bit) / 2^53`, and
//! data of age `t` loses bit `bit` iff `q` is below the failure rate
//! `failure_rate(t)`; a failed bit reads an epoch-keyed random value. That
//! per-bit loop (16 hashes per word) is the only decay semantics. Rates of
//! at most 10⁻⁹ count as zero, so young data is returned as stored; that
//! test comes first at every caller.
//!
//! Within the tolerable retention almost no word has a failing cell (at
//! 734 µs, 10⁻⁵ of cells fail), so a [`WeakestCellMap`] keeps a one-byte
//! *weakest-cell bucket* per word: the smallest of its 16 quantiles rounded
//! down to a power of two. When the rate is at or below that floor, no
//! quantile lies below the rate, so no bit fails and the stored word is the
//! loop's result. The random bit is consulted only for failing bits, so
//! skipping the loop is exact: every value and every fault count is the one
//! the per-bit loop gives.
//!
//! The map also keeps one bucket per block of 64 words: the block's weakest
//! word. A block's floor is at most the floor of every word in it, so row
//! reads look the rate up once per run of words that share a charge time
//! and then copy every block whose floor the rate does not exceed; only the
//! words of the other blocks meet the per-word filter.
//!
//! A block is filled all at once by one kernel, which takes the block's
//! words in pairs, runs two independent `min` chains over their 16 hashes
//! and stores the 64 word buckets and the block's maximum. The kernel is
//! one body compiled twice: for AVX-512 (F, DQ and VL, whose 64-bit lane
//! multiply the hash needs) and for the baseline target. On x86-64 the
//! fill picks one at run time with `is_x86_feature_detected!`; other
//! targets call the body directly. There are no hand-written intrinsics,
//! so both variants compute the same bytes.
//!
//! A bucket is a pure function of `(seed, addr)`, so every array on the same
//! cell seed can share one map (an `Arc`): the channel groups of a layer and
//! the images of a batch use one map between them. The buckets are
//! `AtomicU8`s accessed with `Relaxed` operations, and that suffices: 0
//! means "not computed yet", whoever finds a block unfilled fills it, two
//! threads that race on a fill store the same bytes, and a reader that sees
//! 0 fills the block again. No byte publishes another, so no ordering
//! between them is needed, and nobody waits.
//!
//! [`WeakestCellMap::fill`] fills the blocks of a word range ahead of use.
//! `rana_core::execute_layer_batch` splits a layer's resident words across
//! its workers before the images start, so each block is filled about once
//! per batch instead of being raced for by images that run the same tile
//! sequence in lockstep. A pre-filled map is built even for data
//! that will never decay; a single-image call keeps the lazy fill, which
//! touches the map only for decayed data.
//!
//! # Charge times and bank refreshes
//!
//! The controller refreshes whole banks, and so does the array: a word's
//! charge time is the later of its own write time and its bank's last
//! refresh, in IEEE 754's total order (−0.0 before +0.0, because a time's
//! bits key the random value a decayed cell reads). A refresh stores its
//! time once per bank instead of in every word. Beside the per-word write
//! times and the per-bank refresh times, the array keeps the range every
//! written word lies in (its *written extent*) and the oldest and newest
//! write time.
//!
//! A pulse later than every write costs blocks of the written extent, not
//! words of the bank: the age of the bank's oldest charge — its refresh,
//! or without one the oldest write — gives the highest failure rate any of
//! its words can have, because `failure_rate` never decreases with age. A
//! block whose floor is at or above that rate holds no failing cell, so
//! the pulse skips it; only the words of the other blocks are resolved
//! (one rate per run of equal charge times) and stored back, and then the
//! bank takes the pulse's time. Times out of order take the word-by-word
//! path, which gives the same values, faults and charge times as a write
//! time per word: a write that its bank's refresh would hide (an older
//! time, or the same instant with the other zero) first stamps that
//! refresh into the bank's written words, and a pulse no later than the
//! newest write resolves and stamps them one by one.
//!
//! # Recycled storage
//!
//! Channel groups, images and layers run one buffer after another, and a
//! fresh buffer would map (and fault in) new memory each time, then mark
//! every word never written. A dropped array instead cleans its written
//! extent and hands its words and times to the next array built, through
//! a private list of at most four spare storages shared by all threads. A
//! storage only grows: an array uses its prefix, and the words past it
//! stay clean.

use crate::retention::RetentionDistribution;
use crate::stats::MemoryStats;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};

/// Per-bit failure rates at or below this count as zero — even a billion
/// bit reads would expect no flip — which keeps young-data reads cheap.
const NEGLIGIBLE_RATE: f64 = 1e-9;

/// Words per block of a [`WeakestCellMap`].
const BLOCK_WORDS: usize = 64;

/// Entries of an [`EdramArray`]'s age → failure-rate memo.
const RATE_MEMO: usize = 8;

/// Weakest-cell buckets of one cell seed, filled a block at a time and
/// shared by every [`EdramArray`] on that seed.
///
/// Word bucket `w` in `1..=54` means all 16 cell quantiles of the word are
/// at least `2^-w` (0 for `w == 54`); a block's bucket is the largest (the
/// weakest) of its words' buckets. 0 means "not computed yet", so the map
/// starts as zeroed memory that is never touched for young data. See the
/// [module docs](self) for why sharing it across threads is exact.
///
/// ```
/// use rana_edram::{EdramArray, RetentionDistribution, WeakestCellMap};
/// use std::sync::Arc;
///
/// let cells = Arc::new(WeakestCellMap::new(42, 2 * 1024));
/// let dist = RetentionDistribution::kong2008();
/// let mut a = EdramArray::with_cells(2, 1024, dist.clone(), Arc::clone(&cells));
/// let mut b = EdramArray::with_cells(2, 1024, dist, cells);
/// a.write(10, 0x1234, 0.0);
/// b.write(10, 0x1234, 0.0);
/// // Both arrays decay the same cells; the second reuses the first's fills.
/// assert_eq!(a.read(10, 2400.0), b.read(10, 2400.0));
/// ```
#[derive(Debug)]
pub struct WeakestCellMap {
    seed: u64,
    /// Bucket per word.
    words: Box<[AtomicU8]>,
    /// Bucket per block of [`BLOCK_WORDS`] words: its weakest word's bucket.
    blocks: Box<[AtomicU8]>,
}

impl WeakestCellMap {
    /// An empty map of the cells of `capacity_words` words on cell `seed`.
    pub fn new(seed: u64, capacity_words: usize) -> Self {
        // Collected zeros compile to one zeroed allocation.
        let zeroed = |n| std::iter::repeat_with(|| AtomicU8::new(0)).take(n).collect();
        Self {
            seed,
            words: zeroed(capacity_words),
            blocks: zeroed(capacity_words.div_ceil(BLOCK_WORDS)),
        }
    }

    /// The cell seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Words the map covers.
    pub fn capacity_words(&self) -> usize {
        self.words.len()
    }

    /// Fills every block that holds a word of `words` and is not filled
    /// yet, so that later decayed reads of those words find their buckets.
    ///
    /// ```
    /// use rana_edram::WeakestCellMap;
    ///
    /// let cells = WeakestCellMap::new(9, 1000);
    /// // Threads may split a map into disjoint ranges and fill them at once.
    /// std::thread::scope(|s| {
    ///     s.spawn(|| cells.fill(0..512));
    ///     s.spawn(|| cells.fill(512..1000));
    /// });
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `words` extends past the end of the map.
    pub fn fill(&self, words: Range<usize>) {
        assert!(words.end <= self.words.len(), "fill past the end of the map");
        for block in words.start / BLOCK_WORDS..words.end.div_ceil(BLOCK_WORDS) {
            self.block_bucket(block);
        }
    }

    /// Bucket of word `addr`, filling its block on first use.
    fn word_bucket(&self, addr: usize) -> u8 {
        let slot = &self.words[addr];
        if slot.load(Relaxed) == 0 {
            self.store_block(addr / BLOCK_WORDS);
        }
        slot.load(Relaxed)
    }

    /// Bucket of block `block`, filling the block on first use.
    fn block_bucket(&self, block: usize) -> u8 {
        match self.blocks[block].load(Relaxed) {
            0 => self.store_block(block),
            w => w,
        }
    }

    /// Computes and stores the word buckets of block `block` and the
    /// block's own bucket, the largest of them, which it returns. The last
    /// block may be partial: only its words inside the map are stored and
    /// counted.
    fn store_block(&self, block: usize) -> u8 {
        let first = block * BLOCK_WORDS;
        let slots = &self.words[first..(first + BLOCK_WORDS).min(self.words.len())];
        let mut buckets = [0; BLOCK_WORDS];
        fill_block(self.seed, first as u64, &mut buckets);
        for (slot, &w) in slots.iter().zip(&buckets) {
            slot.store(w, Relaxed);
        }
        let w = buckets[..slots.len()].iter().copied().max().expect("a block holds a word");
        self.blocks[block].store(w, Relaxed);
        w
    }

    /// The parts of `words` whose block may hold a cell failing at `rate`:
    /// every word outside them is intact at that rate.
    fn suspects(&self, words: Range<usize>, rate: f64) -> impl Iterator<Item = Range<usize>> + '_ {
        (words.start / BLOCK_WORDS..words.end.div_ceil(BLOCK_WORDS))
            .filter(move |&block| rate > floor(self.block_bucket(block)))
            .map(move |block| {
                (block * BLOCK_WORDS).max(words.start)..((block + 1) * BLOCK_WORDS).min(words.end)
            })
    }
}

/// At most this many storages of dropped arrays wait for the next arrays
/// (see the [module docs](self)); a drop beyond it frees its storage.
const SPARE_STORAGES: usize = 4;

/// Clean storage of dropped arrays, taken last in, first out. Every
/// update is one push or pop, so a list whose lock was poisoned is still
/// valid.
static SPARES: Mutex<Vec<Storage>> = Mutex::new(Vec::new());

/// What an [`EdramArray`] keeps its data in, and what a dropped array hands
/// to the next one: clean, every word 0 and never written. An array uses
/// a prefix of the words; the storage only grows, so that it never has to
/// clean words again that it once held clean.
#[derive(Debug, Default)]
struct Storage {
    words: Vec<i16>,
    written_at: Vec<f64>,
    refreshed_at: Vec<f64>,
}

impl Storage {
    /// Clean storage for `num_banks` banks of `bank_words` words: a spare
    /// one, grown if need be, when one waits.
    fn take(num_banks: usize, bank_words: usize) -> Self {
        let mut storage =
            SPARES.lock().unwrap_or_else(PoisonError::into_inner).pop().unwrap_or_default();
        storage.fit(num_banks, bank_words);
        storage
    }

    /// Makes clean storage hold at least `num_banks` banks of `bank_words`
    /// words, none of them refreshed.
    fn fit(&mut self, num_banks: usize, bank_words: usize) {
        let total = num_banks * bank_words;
        if self.words.len() < total {
            self.words.resize(total, 0);
            self.written_at.resize(total, f64::NEG_INFINITY);
        }
        self.refreshed_at.clear();
        self.refreshed_at.resize(num_banks, f64::NEG_INFINITY);
    }
}

/// A banked eDRAM array with per-word write timestamps.
///
/// # Example
///
/// ```
/// use rana_edram::{EdramArray, RetentionDistribution};
///
/// let mut mem = EdramArray::new(2, 1024, RetentionDistribution::kong2008(), 42);
/// mem.write(10, 0x1234, 0.0);
/// // Read well within retention: intact.
/// assert_eq!(mem.read(10, 10.0), 0x1234);
/// ```
#[derive(Debug, Clone)]
pub struct EdramArray {
    num_banks: usize,
    bank_words: usize,
    /// `num_banks × bank_words`.
    total: usize,
    /// Stored words: the first `total` are the array's, any after them
    /// belong to the storage, clean.
    words: Vec<i16>,
    /// Time of last write per word; `NEG_INFINITY` = never written (reads
    /// as an aged-out cell). Its bank's refresh may be later: see
    /// [`charge`].
    written_at: Vec<f64>,
    /// Per bank: the time of its last refresh not yet stamped into its
    /// words' write times, or −∞.
    refreshed_at: Vec<f64>,
    /// The latest of the banks' refresh times in IEEE 754's total order
    /// (it may outlive a bank's refresh that re-stamping cleared)...
    latest_refresh: f64,
    /// ...and how many banks carry exactly it: all of them when every bank
    /// was refreshed by the same pulse.
    at_latest: usize,
    /// Every word written since the storage was clean lies in this range.
    written: Range<usize>,
    /// At most every written word's write time (NaN writes aside: they
    /// make `newest` NaN).
    oldest_write: f64,
    /// At least every written word's write time, and NaN once a NaN time
    /// was written.
    newest: f64,
    /// Weakest-cell buckets of the array's cells (carries the cell seed).
    cells: Arc<WeakestCellMap>,
    dist: RetentionDistribution,
    stats: MemoryStats,
    /// Memo of the last [`RATE_MEMO`] `(age, failure rate)` lookups,
    /// replaced round-robin at `next_rate`: reads within a tile share their
    /// timestamp, and the scalar engine alternates between a few operand
    /// ages, so this removes nearly all of the log-space interpolation cost.
    rates: [(f64, f64); RATE_MEMO],
    next_rate: usize,
}

impl Drop for EdramArray {
    /// Cleans the words the array wrote and hands its storage to the next
    /// array built.
    fn drop(&mut self) {
        let storage = self.take_storage();
        if storage.words.capacity() > 0 {
            let mut spares = SPARES.lock().unwrap_or_else(PoisonError::into_inner);
            if spares.len() < SPARE_STORAGES {
                spares.push(storage);
            }
        }
    }
}

impl EdramArray {
    /// Creates an array of `num_banks` banks of `bank_words` 16-bit words,
    /// with its own [`WeakestCellMap`] on cell `seed`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(
        num_banks: usize,
        bank_words: usize,
        dist: RetentionDistribution,
        seed: u64,
    ) -> Self {
        let cells = Arc::new(WeakestCellMap::new(seed, num_banks * bank_words));
        Self::with_cells(num_banks, bank_words, dist, cells)
    }

    /// [`new`](EdramArray::new) on a shared [`WeakestCellMap`], whose seed
    /// is the array's cell seed.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the map covers fewer words
    /// than the array holds.
    pub fn with_cells(
        num_banks: usize,
        bank_words: usize,
        dist: RetentionDistribution,
        cells: Arc<WeakestCellMap>,
    ) -> Self {
        assert!(num_banks > 0 && bank_words > 0, "array dimensions must be positive");
        let total = num_banks * bank_words;
        assert!(
            cells.capacity_words() >= total,
            "weakest-cell map covers {} words, the array holds {total}",
            cells.capacity_words()
        );
        Self::on_storage(num_banks, bank_words, dist, cells, Storage::take(num_banks, bank_words))
    }

    /// The array on clean `storage` fitted to it.
    fn on_storage(
        num_banks: usize,
        bank_words: usize,
        dist: RetentionDistribution,
        cells: Arc<WeakestCellMap>,
        storage: Storage,
    ) -> Self {
        let Storage { words, written_at, refreshed_at } = storage;
        Self {
            num_banks,
            bank_words,
            total: num_banks * bank_words,
            words,
            written_at,
            refreshed_at,
            latest_refresh: f64::NEG_INFINITY,
            at_latest: num_banks,
            written: 0..0,
            oldest_write: f64::INFINITY,
            newest: f64::NEG_INFINITY,
            cells,
            dist,
            stats: MemoryStats::default(),
            rates: [(f64::NAN, 0.0); RATE_MEMO],
            next_rate: 0,
        }
    }

    /// Cleans the words the array wrote and takes its storage, leaving the
    /// array empty.
    fn take_storage(&mut self) -> Storage {
        self.words[self.written.clone()].fill(0);
        self.written_at[self.written.clone()].fill(f64::NEG_INFINITY);
        self.written = 0..0;
        Storage {
            words: std::mem::take(&mut self.words),
            written_at: std::mem::take(&mut self.written_at),
            refreshed_at: std::mem::take(&mut self.refreshed_at),
        }
    }

    /// Total capacity in 16-bit words.
    pub fn capacity_words(&self) -> usize {
        self.total
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.num_banks
    }

    /// Words per bank.
    pub fn bank_words(&self) -> usize {
        self.bank_words
    }

    /// The bank containing word address `addr`.
    pub fn bank_of(&self, addr: usize) -> usize {
        addr / self.bank_words
    }

    /// Access statistics accumulated so far.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = MemoryStats::default();
    }

    /// Writes a word, recharging its cells.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    pub fn write(&mut self, addr: usize, value: i16, now_us: f64) {
        self.note_write(addr..addr + 1, now_us);
        self.words[addr] = value;
        self.written_at[addr] = now_us;
        self.stats.writes += 1;
    }

    /// Writes a slice of words starting at `addr`, recharging their cells.
    ///
    /// # Panics
    ///
    /// Panics if the slice extends past the end of the array.
    pub fn write_slice(&mut self, addr: usize, values: &[i16], now_us: f64) {
        let words = addr..addr + values.len();
        self.note_write(words.clone(), now_us);
        self.words[words.clone()].copy_from_slice(values);
        self.written_at[words].fill(now_us);
        self.stats.writes += values.len() as u64;
    }

    /// Records a write of `words` at `now_us`. A bank whose refresh would
    /// hide `now_us` (a write older than the refresh, or its ±0 twin)
    /// first stamps the refresh into its words; no bank's can when
    /// `now_us` is at or after the latest refresh.
    ///
    /// # Panics
    ///
    /// Panics if `words` extends past the end of the array.
    #[inline]
    fn note_write(&mut self, words: Range<usize>, now_us: f64) {
        let total = self.total;
        assert!(words.end <= total, "write [{}, {}) past the end {total}", words.start, words.end);
        if words.is_empty() {
            return;
        }
        if now_us.total_cmp(&self.latest_refresh).is_lt() {
            self.restamp_hiding(words.clone(), now_us);
        }
        self.written = if self.written.is_empty() {
            words
        } else {
            self.written.start.min(words.start)..self.written.end.max(words.end)
        };
        self.oldest_write = self.oldest_write.min(now_us);
        if now_us > self.newest || now_us.is_nan() {
            self.newest = now_us;
        }
    }

    /// Re-stamps every bank of `words` whose refresh would hide a write at
    /// `now_us`.
    #[cold]
    fn restamp_hiding(&mut self, words: Range<usize>, now_us: f64) {
        for bank in words.start / self.bank_words..=(words.end - 1) / self.bank_words {
            if charge(now_us, self.refreshed_at[bank]).to_bits() != now_us.to_bits() {
                self.restamp(bank);
            }
        }
    }

    /// The written words of bank `bank` (possibly with never-written ones
    /// among them).
    fn written_in(&self, bank: usize) -> Range<usize> {
        let start = (bank * self.bank_words).max(self.written.start);
        start..((bank + 1) * self.bank_words).min(self.written.end).max(start)
    }

    /// Stamps bank `bank`'s refresh into the write times of its written
    /// words, so that each carries its own charge time.
    fn restamp(&mut self, bank: usize) {
        let refreshed = self.refreshed_at[bank];
        if refreshed != f64::NEG_INFINITY {
            let words = self.written_in(bank);
            for t in &mut self.written_at[words] {
                *t = charge(*t, refreshed);
            }
            self.set_refresh(bank, f64::NEG_INFINITY);
            if refreshed > self.newest {
                self.newest = refreshed;
            }
        }
    }

    /// Sets bank `bank`'s pending refresh, keeping the count of banks at
    /// the latest one.
    fn set_refresh(&mut self, bank: usize, t: f64) {
        let old = std::mem::replace(&mut self.refreshed_at[bank], t);
        let at_latest = |t: f64| t.total_cmp(&self.latest_refresh).is_eq();
        match t.total_cmp(&self.latest_refresh) {
            std::cmp::Ordering::Greater => (self.latest_refresh, self.at_latest) = (t, 1),
            std::cmp::Ordering::Equal if !at_latest(old) => self.at_latest += 1,
            std::cmp::Ordering::Less if at_latest(old) => self.at_latest -= 1,
            _ => {}
        }
    }

    /// The pending refresh of word `addr`'s bank.
    #[inline]
    fn refresh_of(&self, addr: usize) -> f64 {
        if self.at_latest == self.num_banks {
            self.latest_refresh
        } else {
            self.refreshed_at[addr / self.bank_words]
        }
    }

    /// The charge time of word `addr` (in bounds): its write or its
    /// bank's refresh, whichever is later.
    #[inline]
    fn charge_at(&self, addr: usize) -> f64 {
        charge(self.written_at[addr], self.refresh_of(addr))
    }

    /// Reads a word, injecting retention faults for cells older than their
    /// sampled retention time. Every read counts the word's flipped bits in
    /// the fault statistics, so a decayed word read twice counts them twice.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    pub fn read(&mut self, addr: usize, now_us: f64) -> i16 {
        self.stats.reads += 1;
        assert!(addr < self.total, "word {addr} out of bounds");
        let rate = self.rate_since(self.charge_at(addr), now_us);
        if rate <= NEGLIGIBLE_RATE {
            return self.words[addr];
        }
        let (value, faults) = self.decay(addr, rate);
        self.stats.faults += u64::from(faults);
        value
    }

    /// Reads a slice of words starting at `addr`.
    pub fn read_slice(&mut self, addr: usize, len: usize, now_us: f64) -> Vec<i16> {
        (0..len).map(|i| self.read(addr + i, now_us)).collect()
    }

    /// Row-granular decayed read: resolves `out.len()` contiguous words at
    /// one timestamp into `out`, counting one read per word.
    ///
    /// Observationally equivalent to `out.len()` individual [`read`]s —
    /// decay resolution is deterministic and has no observable side
    /// effects, so the values, fault counts, and read counts are
    /// identical — but the age → failure-rate lookup is resolved once per
    /// run of words sharing a charge time, and young runs and blocks
    /// whose weakest cell outlives the rate are copied wholesale.
    ///
    /// ```
    /// use rana_edram::{EdramArray, RetentionDistribution};
    ///
    /// let mut mem = EdramArray::new(2, 1024, RetentionDistribution::kong2008(), 42);
    /// mem.write_slice(8, &[1, 2, 3, 4], 0.0);
    /// let mut row = [0i16; 4];
    /// mem.read_row_into(8, 10.0, &mut row);
    /// assert_eq!(row, [1, 2, 3, 4]);
    /// assert_eq!(mem.stats().reads, 4);
    /// ```
    ///
    /// [`read`]: EdramArray::read
    ///
    /// # Panics
    ///
    /// Panics if the row extends past the end of the array.
    pub fn read_row_into(&mut self, addr: usize, now_us: f64, out: &mut [i16]) {
        self.read_row_impl(addr, now_us, out, None, 1);
    }

    /// [`read_row_into`] with per-word read multiplicities: word `i` is
    /// accounted as `scale * mult[i]` logical read accesses (values are
    /// still resolved once). Callers that hoist a word out of a loop nest
    /// pass the number of reads the nest would have issued, keeping the
    /// read and fault statistics bit-identical to the unhoisted loop —
    /// a decayed word's fault bits are counted once per accounted access,
    /// exactly as repeated [`read`]s would count them.
    ///
    /// A zero multiplicity resolves the word (the caller may want the
    /// value) without counting any access.
    ///
    /// [`read_row_into`]: EdramArray::read_row_into
    /// [`read`]: EdramArray::read
    ///
    /// # Panics
    ///
    /// Panics if `mult.len() != out.len()` or the row extends past the end
    /// of the array.
    pub fn read_row_weighted(
        &mut self,
        addr: usize,
        now_us: f64,
        out: &mut [i16],
        mult: &[u64],
        scale: u64,
    ) {
        assert_eq!(mult.len(), out.len(), "one multiplicity per word");
        self.read_row_impl(addr, now_us, out, Some(mult), scale);
    }

    /// Shared body of the row reads: resolves runs of words that share a
    /// charge time with one failure-rate lookup each, and decays only the
    /// words of blocks whose weakest cell may fail.
    fn read_row_impl(
        &mut self,
        addr: usize,
        now_us: f64,
        out: &mut [i16],
        mult: Option<&[u64]>,
        scale: u64,
    ) {
        let n = out.len();
        assert!(addr + n <= self.total, "row [{addr}, {}) out of bounds", addr + n);
        let acc_reads = |i: usize| mult.map_or(1, |m| m[i]).wrapping_mul(scale);
        out.copy_from_slice(&self.words[addr..addr + n]);
        let mut i = addr;
        while i < addr + n {
            let (refreshed, span_end) = self.refresh_span(i, addr + n);
            while i < span_end {
                let j = self.run_end(i, span_end, refreshed);
                let rate = self.rate_since(charge(self.written_at[i], refreshed), now_us);
                if rate > NEGLIGIBLE_RATE {
                    for words in self.cells.suspects(i..j, rate) {
                        for a in words {
                            let (value, faults) = self.decay(a, rate);
                            out[a - addr] = value;
                            self.stats.faults += u64::from(faults) * acc_reads(a - addr);
                        }
                    }
                }
                i = j;
            }
        }
        self.stats.reads += (0..n).map(acc_reads).sum::<u64>();
    }

    /// The pending refresh of word `addr`'s bank, and the end (at most
    /// `end`) of the banks from there on that carry the same one: runs of
    /// equal charge times may cross them.
    fn refresh_span(&self, addr: usize, end: usize) -> (f64, usize) {
        if self.at_latest == self.num_banks {
            return (self.latest_refresh, end);
        }
        let first = addr / self.bank_words;
        let refreshed = self.refreshed_at[first];
        let same = self.refreshed_at[first + 1..=(end - 1) / self.bank_words]
            .iter()
            .take_while(|t| t.to_bits() == refreshed.to_bits())
            .count();
        (refreshed, ((first + 1 + same) * self.bank_words).min(end))
    }

    /// Refreshes one bank: every written word is resolved at `now_us`
    /// (late refreshes lock corrupted bits in) and recharged; never-written
    /// words stay unwritten. Returns the number of refreshed words.
    ///
    /// A pulse after every write of the array costs what the bank holds,
    /// not its size: it prices the bank's oldest charge once, resolves
    /// only the words of blocks of the written extent whose weakest cell
    /// may fail at that rate, and stamps its time on the bank alone. Any
    /// other pulse resolves and stamps the bank's written words one by
    /// one.
    pub fn refresh_bank(&mut self, bank: usize, now_us: f64) -> usize {
        assert!(bank < self.num_banks, "bank {bank} out of range");
        self.stats.refresh_words += self.bank_words as u64;
        let words = self.written_in(bank);
        if self.newest < now_us {
            if !words.is_empty() {
                // Every written word was charged at the bank's refresh or,
                // without one, no earlier than the oldest write; failure
                // rates grow with age, so none fails at a higher rate.
                let refreshed = self.refreshed_at[bank];
                let oldest =
                    if refreshed == f64::NEG_INFINITY { self.oldest_write } else { refreshed };
                let rate = self.rate_since(oldest, now_us);
                if rate > NEGLIGIBLE_RATE {
                    for block in words.start / BLOCK_WORDS..words.end.div_ceil(BLOCK_WORDS) {
                        if rate > floor(self.cells.block_bucket(block)) {
                            let first = (block * BLOCK_WORDS).max(words.start);
                            let last = ((block + 1) * BLOCK_WORDS).min(words.end);
                            self.resolve_in_place(first..last, now_us);
                        }
                    }
                }
            }
            self.set_refresh(bank, now_us);
        } else if !words.is_empty() {
            self.restamp(bank);
            self.resolve_in_place(words.clone(), now_us);
            for t in &mut self.written_at[words] {
                if *t != f64::NEG_INFINITY {
                    *t = now_us;
                }
            }
            // A pulse no later than the newest write may still be older
            // than the oldest: the words it stamps keep the bounds true.
            self.oldest_write = self.oldest_write.min(now_us);
            if now_us.is_nan() {
                self.newest = now_us;
            }
        }
        self.bank_words
    }

    /// Resolves every written word of `words`, all in one bank, at `now_us`
    /// and stores the result, counting the bits it locks in.
    fn resolve_in_place(&mut self, words: Range<usize>, now_us: f64) {
        let refreshed = self.refreshed_at[words.start / self.bank_words];
        let mut i = words.start;
        while i < words.end {
            let j = self.run_end(i, words.end, refreshed);
            let c = charge(self.written_at[i], refreshed);
            if c != f64::NEG_INFINITY {
                let rate = self.rate_since(c, now_us);
                if rate > NEGLIGIBLE_RATE {
                    for words in self.cells.suspects(i..j, rate) {
                        for addr in words {
                            let (value, faults) = self.decay(addr, rate);
                            self.words[addr] = value;
                            self.stats.faults += u64::from(faults);
                        }
                    }
                }
            }
            i = j;
        }
    }

    /// End of the maximal run of words from `start` (before `end`, in banks
    /// with pending refresh `refreshed`) whose charge times equal
    /// `start`'s. Equal, not identical: ±0 and never-written words group
    /// too.
    fn run_end(&self, start: usize, end: usize, refreshed: f64) -> usize {
        // A written word no later than the refresh is charged at the
        // refresh; any other word carries its own time.
        let hidden = |t: f64| t > f64::NEG_INFINITY && t <= refreshed;
        let first = self.written_at[start];
        let rest = &self.written_at[start + 1..end];
        let run = if hidden(first) {
            Self::prefix_len(rest, hidden)
        } else {
            Self::prefix_len(rest, |t| t == first)
        };
        start + 1 + run
    }

    /// How many of `times` from the first on satisfy `same`: whole chunks
    /// first, each tested without an early exit so the test vectorizes.
    #[inline(always)]
    fn prefix_len(times: &[f64], same: impl Fn(f64) -> bool) -> usize {
        let whole = |chunk: &[f64]| chunk.iter().fold(true, |all, &t| all & same(t));
        let chunks = times.chunks_exact(8).take_while(|&chunk| whole(chunk)).count() * 8;
        chunks + times[chunks..].iter().take_while(|&&t| same(t)).count()
    }

    /// Resolves `addr` under a per-bit failure `rate` above
    /// `NEGLIGIBLE_RATE`: every bit whose cell quantile lies below `rate`
    /// (its retention is shorter than the data's age) reads back a random
    /// value. Returns `(value, corrupted_bit_count)`.
    ///
    /// The word's weakest-cell floor decides first: when `rate` is at or
    /// below it, no quantile can lie below `rate`, so no bit fails and the
    /// stored word is returned without evaluating the 16 per-bit hashes.
    /// The random value of a failed bit is consulted only for failing
    /// bits, so skipping the loop is exact.
    fn decay(&self, addr: usize, rate: f64) -> (i16, u32) {
        if rate <= floor(self.cells.word_bucket(addr)) {
            return (self.words[addr], 0);
        }
        let seed = self.cells.seed;
        let mut value = self.words[addr] as u16;
        let mut faults = 0;
        // A charge epoch keys the "random" value a failed cell reads, so two
        // reads of the same decayed cell agree but a recharge re-rolls it.
        let epoch = self.charge_at(addr).to_bits();
        for bit in 0..16u32 {
            let q = hash01(seed, addr as u64, u64::from(bit));
            if q < rate {
                let random_bit =
                    (hash01(seed ^ 0x9E37_79B9_7F4A_7C15, addr as u64 ^ epoch, u64::from(bit))
                        > 0.5) as u16;
                let old = (value >> bit) & 1;
                if old != random_bit {
                    faults += 1;
                }
                value = (value & !(1 << bit)) | (random_bit << bit);
            }
        }
        (value as i16, faults)
    }

    /// Per-bit failure rate of data charged at `charged_at` and resolved
    /// at `now_us` (0 for non-positive ages), through the rate memo. The
    /// rate is a pure function of the age, so a memo hit is exact.
    fn rate_since(&mut self, charged_at: f64, now_us: f64) -> f64 {
        let age = now_us - charged_at;
        if age <= 0.0 {
            return 0.0;
        }
        if let Some(&(_, rate)) = self.rates.iter().find(|&&(a, _)| a == age) {
            return rate;
        }
        let rate = self.dist.failure_rate(age);
        self.rates[self.next_rate] = (age, rate);
        self.next_rate = (self.next_rate + 1) % RATE_MEMO;
        rate
    }
}

/// The charge time of a word written at `written` (−∞: never written) in
/// a bank whose pending refresh is at `refreshed` (−∞: none): the later of
/// the two in IEEE 754's total order, in which −0.0 comes before +0.0. The
/// order of zeros matters: a time's bits key the random value a decayed
/// cell reads, so a word must carry the exact time its last write or
/// refresh left. A never-written word stays never written.
#[inline]
fn charge(written: f64, refreshed: f64) -> f64 {
    if written < refreshed {
        if written == f64::NEG_INFINITY {
            written
        } else {
            refreshed
        }
    } else if written > refreshed || refreshed == f64::NEG_INFINITY {
        written
    } else if written != f64::NEG_INFINITY && written.total_cmp(&refreshed).is_lt() {
        // The same instant with the other zero, or a NaN.
        refreshed
    } else {
        written
    }
}

/// The floor `2^-w` under the cell quantiles of bucket `w` (exact; 0 for
/// bucket 54).
fn floor(w: u8) -> f64 {
    if w > 53 {
        0.0
    } else {
        // Biased exponent 1023 − w over a zero mantissa: exactly 2^-w.
        f64::from_bits(u64::from(1023 - u16::from(w)) << 52)
    }
}

/// Word buckets of the [`BLOCK_WORDS`] words from address `first` into
/// `out`: through the body compiled for AVX-512 where this CPU has it, the
/// baseline body elsewhere (see the [module docs](self)). Both store the
/// same bytes.
#[allow(unsafe_code)]
fn fill_block(seed: u64, first: u64, out: &mut [u8; BLOCK_WORDS]) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
        {
            // SAFETY: avx512f, avx512dq and avx512vl, the features the
            // callee enables, were detected on this CPU just above.
            unsafe { fill_block_avx512(seed, first, out) };
            return;
        }
    }
    fill_block_body(seed, first, out);
}

/// [`fill_block_body`] compiled for AVX-512, whose 64-bit lane multiply
/// runs the hash in vector registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn fill_block_avx512(seed: u64, first: u64, out: &mut [u8; BLOCK_WORDS]) {
    fill_block_body(seed, first, out);
}

/// The bucket of each word `addr` from `first`: with
/// `m = min_b hash53(seed, addr, b)`, `w = m.leading_zeros() − 10`, so that
/// `m ≥ 2^(53−w)` — every quantile `hash53 / 2^53` is at least `2^-w` —
/// for `w` in `1..=53`; `m == 0` gives `w = 54`. Words go in pairs, as two
/// independent `min` chains, which the compiler interleaves (and, given
/// 64-bit lane multiplies, vectorizes).
#[inline(always)]
fn fill_block_body(seed: u64, first: u64, out: &mut [u8; BLOCK_WORDS]) {
    for (pair, buckets) in out.chunks_exact_mut(2).enumerate() {
        let addr = first + 2 * pair as u64;
        let (mut m0, mut m1) = (u64::MAX, u64::MAX);
        for bit in 0..16 {
            m0 = m0.min(hash53(seed, addr, bit));
            m1 = m1.min(hash53(seed, addr + 1, bit));
        }
        buckets[0] = (m0.leading_zeros() - 10) as u8;
        buckets[1] = (m1.leading_zeros() - 10) as u8;
    }
}

/// SplitMix64-style hash of three values onto `[0, 1)`: `hash53` over
/// `2^53`, which is exact in an `f64`.
fn hash01(a: u64, b: u64, c: u64) -> f64 {
    hash53(a, b, c) as f64 / (1u64 << 53) as f64
}

/// SplitMix64-style hash of three values onto the 53-bit integers.
#[inline(always)]
fn hash53(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z >> 11
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseResult;
    use std::sync::Barrier;

    fn array() -> EdramArray {
        EdramArray::new(4, 256, RetentionDistribution::kong2008(), 7)
    }

    #[test]
    fn fresh_data_reads_intact() {
        let mut m = array();
        for addr in 0..64 {
            m.write(addr, (addr as i16).wrapping_mul(321), 0.0);
        }
        for addr in 0..64 {
            assert_eq!(m.read(addr, 40.0), (addr as i16).wrapping_mul(321));
        }
        assert_eq!(m.stats().faults, 0);
    }

    #[test]
    fn ancient_data_corrupts() {
        let mut m = array();
        let n = 1024;
        // Fill every word of the array.
        for addr in 0..n {
            m.write(addr, 0x5555, 0.0);
        }
        // Age far beyond the distribution's tail: every cell failed.
        let mut corrupted = 0;
        for addr in 0..n {
            if m.read(addr, 1e9) != 0x5555 {
                corrupted += 1;
            }
        }
        // All bits random => P(word intact) = 2^-16; essentially all differ.
        assert!(corrupted > n - 5, "only {corrupted}/{n} corrupted");
    }

    #[test]
    fn moderate_age_corrupts_statistically() {
        let mut m = EdramArray::new(16, 4096, RetentionDistribution::kong2008(), 3);
        let n = 16 * 4096;
        for addr in 0..n {
            m.write(addr, 0, 0.0);
        }
        // Age = 2.4 ms -> failure rate 1e-4 per bit, expect ~ n*16*1e-4/2
        // flipped bits (half of randomized bits flip a zero word).
        for addr in 0..n {
            m.read(addr, 2400.0);
        }
        let faults = m.stats().faults;
        // Faults count actually-changed bits.
        let expected = n as f64 * 16.0 * 1e-4 / 2.0;
        assert!(
            (faults as f64 - expected).abs() < expected * 0.5 + 5.0,
            "faults {faults}, expected ~{expected}"
        );
    }

    #[test]
    fn timely_refresh_preserves_data() {
        let mut m = array();
        m.write(0, 0x7ABC, 0.0);
        let mut t = 0.0;
        // Refresh every 40 µs for 100 intervals; data must survive.
        for _ in 0..100 {
            t += 40.0;
            m.refresh_bank(0, t);
        }
        assert_eq!(m.read(0, t + 10.0), 0x7ABC);
    }

    #[test]
    fn decayed_reads_are_repeatable() {
        let mut m = array();
        m.write(5, 0x0F0F, 0.0);
        let a = m.read(5, 1e8);
        let b = m.read(5, 1e8);
        assert_eq!(a, b, "same decayed cell must read the same random value");
    }

    #[test]
    fn refresh_counts_words() {
        let mut m = array();
        m.refresh_bank(2, 0.0);
        assert_eq!(m.stats().refresh_words, 256);
    }

    #[test]
    fn bank_mapping() {
        let m = array();
        assert_eq!(m.bank_of(0), 0);
        assert_eq!(m.bank_of(255), 0);
        assert_eq!(m.bank_of(256), 1);
        assert_eq!(m.capacity_words(), 1024);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        array().write(4096, 0, 0.0);
    }

    #[test]
    fn hash01_is_uniformish() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| hash01(1, i, 2)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    /// Row reads must be observationally equivalent to per-word reads:
    /// same values, same read counts, same fault counts — including on
    /// decayed data and across mixed write timestamps within one row.
    #[test]
    fn row_read_equals_per_word_reads() {
        for read_at in [40.0, 2400.0, 1e8] {
            let mut a = EdramArray::new(2, 512, RetentionDistribution::kong2008(), 11);
            let mut b = a.clone();
            for addr in 0..96 {
                let t = if addr % 3 == 0 { 0.0 } else { 5.0 }; // mixed timestamps
                a.write(addr, (addr as i16).wrapping_mul(-773), t);
                b.write(addr, (addr as i16).wrapping_mul(-773), t);
            }
            let per_word: Vec<i16> = (0..96).map(|addr| a.read(addr, read_at)).collect();
            let mut row = vec![0i16; 96];
            b.read_row_into(0, read_at, &mut row);
            assert_eq!(row, per_word, "values at age {read_at}");
            assert_eq!(a.stats(), b.stats(), "stats at age {read_at}");
        }
    }

    #[test]
    fn weighted_row_read_accounts_hoisted_accesses() {
        let mut a = EdramArray::new(1, 256, RetentionDistribution::kong2008(), 5);
        let mut b = a.clone();
        for addr in 0..4 {
            a.write(addr, 0x2A2A, 0.0);
            b.write(addr, 0x2A2A, 0.0);
        }
        // Reference: word i read scale * mult[i] times, far past retention
        // (decayed reads are repeatable, so every repeat sees the value
        // and recounts the fault bits).
        let mult = [1u64, 2, 3, 0];
        let mut vals = [0i16; 4];
        for (i, &m) in mult.iter().enumerate() {
            for _ in 0..3 * m {
                vals[i] = a.read(i, 1e8);
            }
        }
        let mut row = [0i16; 4];
        b.read_row_weighted(0, 1e8, &mut row, &mult, 3);
        assert_eq!(&row[..3], &vals[..3], "resolved values match repeated reads");
        assert_eq!(a.stats(), b.stats(), "hoisted accounting matches the unhoisted loop");
        assert_eq!(b.stats().reads, 3 * (1 + 2 + 3));
    }

    #[test]
    fn accounted_faults_past_u32_do_not_wrap() {
        // A hoisted word read 2^32 times with about half its bits decayed
        // accounts for several times u32::MAX fault bits.
        let mut m = array();
        m.write(0, 0x3C3C, 0.0);
        let mut probe = m.clone();
        probe.read(0, 1e8);
        let per_read = probe.stats().faults;
        assert!(per_read > 1, "a fully aged word should flip several bits");

        let mut row = [0i16; 1];
        m.read_row_weighted(0, 1e8, &mut row, &[1 << 31], 2);
        assert_eq!(m.stats().reads, 1 << 32);
        assert_eq!(m.stats().faults, per_read << 32);
        assert!(m.stats().faults > u64::from(u32::MAX));
    }

    #[test]
    #[should_panic]
    fn row_read_past_the_end_panics() {
        let mut m = array();
        let mut out = [0i16; 8];
        m.read_row_into(1020, 0.0, &mut out);
    }

    /// The per-bit decay model, written out independently of the array's
    /// fast paths (no run grouping, no rate memo, no filtering): the
    /// oracle every access path must reproduce bit for bit.
    struct Reference {
        words: Vec<i16>,
        written_at: Vec<f64>,
        bank_words: usize,
        dist: RetentionDistribution,
        seed: u64,
        stats: MemoryStats,
    }

    /// SplitMix64-style hash onto `[0, 1)`, as the cell model defines it.
    fn ref_hash01(a: u64, b: u64, c: u64) -> f64 {
        let mut z = a
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
        z ^= z >> 30;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bucket of word `addr` by its definition: the weakest of its 16 cell
    /// quantiles lies in `[2^-w, 2^(1-w))`, so `w` is read off that
    /// quantile's binary exponent, or is 54 for a zero quantile.
    fn ref_bucket(seed: u64, addr: u64) -> u8 {
        let q = (0..16).map(|bit| ref_hash01(seed, addr, bit)).fold(1.0, f64::min);
        if q == 0.0 {
            54
        } else {
            (1023 - (q.to_bits() >> 52)) as u8
        }
    }

    impl Reference {
        fn new(
            num_banks: usize,
            bank_words: usize,
            dist: RetentionDistribution,
            seed: u64,
        ) -> Self {
            let total = num_banks * bank_words;
            Self {
                words: vec![0; total],
                written_at: vec![f64::NEG_INFINITY; total],
                bank_words,
                dist,
                seed,
                stats: MemoryStats::default(),
            }
        }

        /// Every one of the word's 16 cells is tested against the failure
        /// rate of its age; a failed cell reads an epoch-keyed random bit.
        fn resolve(&self, addr: usize, now_us: f64) -> (i16, u32) {
            let age = now_us - self.written_at[addr];
            let rate = if age <= 0.0 { 0.0 } else { self.dist.failure_rate(age) };
            if rate <= 1e-9 {
                return (self.words[addr], 0);
            }
            let epoch = self.written_at[addr].to_bits();
            let mut value = self.words[addr] as u16;
            let mut faults = 0;
            for bit in 0..16u32 {
                if ref_hash01(self.seed, addr as u64, u64::from(bit)) < rate {
                    let key = addr as u64 ^ epoch;
                    let random = ref_hash01(self.seed ^ 0x9E37_79B9_7F4A_7C15, key, u64::from(bit));
                    let random_bit = u16::from(random > 0.5);
                    faults += u32::from((value >> bit) & 1 != random_bit);
                    value = (value & !(1 << bit)) | (random_bit << bit);
                }
            }
            (value as i16, faults)
        }

        fn write(&mut self, addr: usize, value: i16, now_us: f64) {
            self.words[addr] = value;
            self.written_at[addr] = now_us;
            self.stats.writes += 1;
        }

        /// Word `addr + i` read `scale * mult[i]` times (once without `mult`).
        fn read_row(
            &mut self,
            addr: usize,
            now_us: f64,
            len: usize,
            mult: Option<&[u64]>,
            scale: u64,
        ) -> Vec<i16> {
            (0..len)
                .map(|i| {
                    let accesses = mult.map_or(1, |m| m[i] * scale);
                    let (value, faults) = self.resolve(addr + i, now_us);
                    self.stats.reads += accesses;
                    self.stats.faults += u64::from(faults) * accesses;
                    value
                })
                .collect()
        }

        fn refresh_bank(&mut self, bank: usize, now_us: f64) {
            for addr in bank * self.bank_words..(bank + 1) * self.bank_words {
                if self.written_at[addr] != f64::NEG_INFINITY {
                    let (value, faults) = self.resolve(addr, now_us);
                    self.words[addr] = value;
                    self.written_at[addr] = now_us;
                    self.stats.faults += u64::from(faults);
                }
            }
            self.stats.refresh_words += self.bank_words as u64;
        }
    }

    /// Ages (µs) every case mixes: young, the 45 µs weakest cell, the
    /// 734 µs tolerable retention, the decay knees, and fully aged out.
    const AGES: [f64; 8] = [0.0, 1e-3, 10.0, 45.0, 734.0, 2400.0, 1e4, 1e8];

    /// The bits of every word's charge time: what the reference keeps as
    /// its per-word write times.
    fn charges(mem: &EdramArray) -> Vec<u64> {
        (0..mem.capacity_words()).map(|addr| mem.charge_at(addr).to_bits()).collect()
    }

    fn bits(times: &[f64]) -> Vec<u64> {
        times.iter().map(|t| t.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `read`, `read_row_into`, `read_row_weighted` and `refresh_bank`
        /// reproduce the reference's values, stored words, timestamps and
        /// statistics on random shapes, seeds, ages and access sequences.
        /// Words are preloaded in runs that share a timestamp (an `AGES`
        /// entry before time 0, or never written); each step then writes,
        /// reads or refreshes at an `AGES` entry or the case's free age.
        #[test]
        fn access_paths_match_the_per_bit_reference(
            seed in any::<u64>(),
            shape in (1usize..=4, 1usize..=96),
            free_age in 0.0f64..25_000.0,
            runs in proptest::collection::vec((1usize..24, 0..=AGES.len(), any::<u64>()), 1..24),
            steps in proptest::collection::vec((0u8..5, any::<u64>(), 0..=AGES.len()), 1..40),
        ) {
            let (num_banks, bank_words) = shape;
            let dist = RetentionDistribution::kong2008();
            let mut mem = EdramArray::new(num_banks, bank_words, dist.clone(), seed);
            let mut reference = Reference::new(num_banks, bank_words, dist, seed);
            let total = num_banks * bank_words;
            let age = |k: usize| AGES.get(k).copied().unwrap_or(free_age);

            // Preload runs of equal write timestamps; the index one past
            // AGES leaves its run never written.
            let mut addr = 0;
            for &(len, k, values) in &runs {
                let len = len.min(total - addr);
                if k < AGES.len() {
                    for i in 0..len {
                        let v = (values.rotate_left(7 * i as u32) >> 17) as i16;
                        mem.write(addr + i, v, -AGES[k]);
                        reference.write(addr + i, v, -AGES[k]);
                    }
                }
                addr += len;
            }

            for &(kind, r, k) in &steps {
                let now = age(k);
                let at = (r % total as u64) as usize;
                let len = 1 + ((r >> 32) % (total - at) as u64) as usize;
                match kind {
                    0 => {
                        let v = (r >> 48) as i16;
                        mem.write(at, v, now);
                        reference.write(at, v, now);
                    }
                    1 => {
                        let want = reference.read_row(at, now, 1, None, 1)[0];
                        prop_assert_eq!(mem.read(at, now), want, "read @{} t={}", at, now);
                    }
                    2 => {
                        let want = reference.read_row(at, now, len, None, 1);
                        let mut got = vec![0i16; len];
                        mem.read_row_into(at, now, &mut got);
                        prop_assert_eq!(got, want, "row @{}+{} t={}", at, len, now);
                    }
                    3 => {
                        let mult: Vec<u64> = (0..len).map(|i| (r >> (i % 48)) & 3).collect();
                        let scale = 1 + (r >> 60);
                        let want = reference.read_row(at, now, len, Some(&mult), scale);
                        let mut got = vec![0i16; len];
                        mem.read_row_weighted(at, now, &mut got, &mult, scale);
                        prop_assert_eq!(got, want, "weighted @{}+{} t={}", at, len, now);
                    }
                    _ => {
                        let bank = at % num_banks;
                        mem.refresh_bank(bank, now);
                        reference.refresh_bank(bank, now);
                    }
                }
                prop_assert_eq!(mem.stats(), &reference.stats, "after step {:?}", (kind, r, k));
            }
            prop_assert_eq!(&mem.words[..total], &reference.words[..]);
            prop_assert_eq!(charges(&mem), bits(&reference.written_at));
        }
    }

    /// Drives `mem` and a fresh per-bit reference through the preload and
    /// steps of `access_paths_match_the_per_bit_reference`, checking every
    /// step's values and statistics and the final words and charge times.
    /// A step's time index `k` past `AGES.len()` runs the step at the
    /// negated age `k − AGES.len() − 1`, so times may run backwards and
    /// through −0.0.
    fn matches_reference(
        mem: &mut EdramArray,
        runs: &[(usize, usize, u64)],
        steps: &[(u8, u64, usize)],
        free_age: f64,
    ) -> TestCaseResult {
        let (num_banks, bank_words) = (mem.num_banks(), mem.bank_words());
        let mut reference =
            Reference::new(num_banks, bank_words, mem.dist.clone(), mem.cells.seed());
        let total = num_banks * bank_words;
        let unsigned = |k: usize| AGES.get(k).copied().unwrap_or(free_age);
        let age = |k: usize| match k.checked_sub(AGES.len() + 1) {
            Some(k) => -unsigned(k),
            None => unsigned(k),
        };
        let mut addr = 0;
        for &(len, k, values) in runs {
            let len = len.min(total - addr);
            if k < AGES.len() {
                for i in 0..len {
                    let v = (values.rotate_left(7 * i as u32) >> 17) as i16;
                    mem.write(addr + i, v, -AGES[k]);
                    reference.write(addr + i, v, -AGES[k]);
                }
            }
            addr += len;
        }
        for &(kind, r, k) in steps {
            let now = age(k);
            let at = (r % total as u64) as usize;
            let len = 1 + ((r >> 32) % (total - at) as u64) as usize;
            let mut got = vec![0i16; len];
            match kind {
                0 => {
                    let v = (r >> 48) as i16;
                    mem.write(at, v, now);
                    reference.write(at, v, now);
                }
                1 => prop_assert_eq!(mem.read(at, now), reference.read_row(at, now, 1, None, 1)[0]),
                2 => {
                    mem.read_row_into(at, now, &mut got);
                    prop_assert_eq!(got, reference.read_row(at, now, len, None, 1));
                }
                3 => {
                    let mult: Vec<u64> = (0..len).map(|i| (r >> (i % 48)) & 3).collect();
                    let scale = 1 + (r >> 60);
                    mem.read_row_weighted(at, now, &mut got, &mult, scale);
                    prop_assert_eq!(got, reference.read_row(at, now, len, Some(&mult), scale));
                }
                _ => {
                    mem.refresh_bank(at % num_banks, now);
                    reference.refresh_bank(at % num_banks, now);
                }
            }
            prop_assert_eq!(mem.stats(), &reference.stats, "after step {:?}", (kind, r, k));
        }
        prop_assert_eq!(&mem.words[..total], &reference.words[..]);
        prop_assert_eq!(charges(mem), bits(&reference.written_at));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// An array on a map with a random range filled ahead, and a second
        /// array on the map the first array filled, reproduce the reference
        /// as well: a stored bucket answers exactly as the fill that
        /// computed it. Arrays span up to eight 64-word blocks, the
        /// last one often partial, and preloaded runs of up to 99 words
        /// straddle block edges.
        #[test]
        fn an_array_on_a_filled_map_matches_the_per_bit_reference(
            seed in any::<u64>(),
            shape in (1usize..=3, 1usize..=160),
            free_age in 0.0f64..25_000.0,
            runs in proptest::collection::vec((1usize..100, 0..=AGES.len(), any::<u64>()), 1..12),
            steps in proptest::collection::vec((0u8..5, any::<u64>(), 0..=AGES.len()), 1..40),
            prefill in (0usize..=480, 0usize..=480),
        ) {
            let (num_banks, bank_words) = shape;
            let total = num_banks * bank_words;
            let cells = Arc::new(WeakestCellMap::new(seed, total));
            let (lo, hi) = (prefill.0.min(prefill.1).min(total), prefill.0.max(prefill.1).min(total));
            cells.fill(lo..hi);
            for _ in 0..2 {
                let dist = RetentionDistribution::kong2008();
                let mut mem = EdramArray::with_cells(num_banks, bank_words, dist, Arc::clone(&cells));
                matches_reference(&mut mem, &runs, &steps, free_age)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// An array built on storage that an earlier array of another shape
        /// wrote, decayed, refreshed and handed on matches the per-bit
        /// reference of a fresh array: handing storage on cleaned every
        /// word the earlier array touched. Both arrays run steps whose
        /// times go backwards and through ±0 as well as forwards, so banks
        /// take both kinds of pulse and re-stamp on writes older than a
        /// pulse.
        #[test]
        fn an_array_on_recycled_storage_matches_the_per_bit_reference(
            seed in any::<u64>(),
            shapes in ((1usize..=4, 1usize..=96), (1usize..=4, 1usize..=96)),
            free_age in 0.0f64..25_000.0,
            runs in proptest::collection::vec((1usize..24, 0..=AGES.len(), any::<u64>()), 1..24),
            earlier in proptest::collection::vec((0u8..5, any::<u64>(), 0..=2 * AGES.len() + 1), 1..40),
            steps in proptest::collection::vec((0u8..5, any::<u64>(), 0..=2 * AGES.len() + 1), 1..40),
        ) {
            let dist = RetentionDistribution::kong2008();
            let ((b0, w0), (b1, w1)) = shapes;
            let mut first = EdramArray::new(b0, w0, dist.clone(), seed);
            matches_reference(&mut first, &runs, &earlier, free_age)?;
            let mut storage = first.take_storage();
            storage.fit(b1, w1);
            let cells = Arc::new(WeakestCellMap::new(seed.rotate_left(1), b1 * w1));
            let mut mem = EdramArray::on_storage(b1, w1, dist, cells, storage);
            matches_reference(&mut mem, &runs, &steps, free_age)?;
        }
    }

    /// −0.0 and +0.0 are one instant but key different decay epochs. A
    /// pulse at −0.0 after writes at +0.0 must re-stamp the words, though
    /// it is no later than them, and a write at −0.0 after a pulse at
    /// +0.0 must keep its own time. Long after, every word reads what the
    /// per-bit reference reads and carries its time.
    #[test]
    fn signed_zero_times_keep_their_own_epochs() {
        let dist = RetentionDistribution::kong2008();
        // (preload time, pulse time, a rewrite of word 3 after the pulse)
        let cases = [(0.0, -0.0, None), (-10.0, 0.0, Some(-0.0)), (-0.0, 0.0, Some(0.0))];
        for (preload, pulse, rewrite) in cases {
            let mut mem = EdramArray::new(2, 8, dist.clone(), 23);
            let mut reference = Reference::new(2, 8, dist.clone(), 23);
            for addr in 0..16 {
                mem.write(addr, 0x0F0F, preload);
                reference.write(addr, 0x0F0F, preload);
            }
            mem.refresh_bank(0, pulse);
            reference.refresh_bank(0, pulse);
            if let Some(t) = rewrite {
                mem.write(3, 0x0F0F, t);
                reference.write(3, 0x0F0F, t);
            }
            let case = format!("preload {preload:?}, pulse {pulse:?}, rewrite {rewrite:?}");
            assert_eq!(charges(&mem), bits(&reference.written_at), "{case}");
            let mut row = [0; 16];
            mem.read_row_into(0, 1e8, &mut row);
            assert_eq!(row.to_vec(), reference.read_row(0, 1e8, 16, None, 1), "{case}");
            assert_eq!(mem.stats(), &reference.stats, "{case}");
        }
    }

    /// Both variants of the fill kernel store, byte for byte, the buckets
    /// the definition gives: the baseline body, called here directly, and
    /// whatever `fill_block` dispatches to, which is the AVX-512 body on a
    /// CPU with AVX-512 F, DQ and VL. Blocks at the start of the address
    /// space and far up it, on random seeds.
    #[test]
    fn every_fill_kernel_equals_the_definition() {
        let mut seed = 0x5EED_u64;
        for round in 0..24u64 {
            seed = seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(round | 1);
            let blocks = [0, 1, 7 + round, 1 << 26, (1 << 40) + round, u64::MAX / 64 - 1];
            for block in blocks {
                let first = block * BLOCK_WORDS as u64;
                let want: Vec<u8> =
                    (first..first + BLOCK_WORDS as u64).map(|a| ref_bucket(seed, a)).collect();
                let (mut plain, mut dispatched) = ([0; BLOCK_WORDS], [0; BLOCK_WORDS]);
                fill_block_body(seed, first, &mut plain);
                fill_block(seed, first, &mut dispatched);
                assert_eq!(plain.to_vec(), want, "baseline, seed {seed:#x}, block {block}");
                assert_eq!(dispatched.to_vec(), want, "dispatched, seed {seed:#x}, block {block}");
            }
        }
    }

    /// `fill` fills every block that a word of its range lies in and no
    /// other, and on a map whose length is not a multiple of the block the
    /// partial last block counts only its real words: its bucket is their
    /// maximum, which is often below the maximum over a whole block.
    #[test]
    fn fill_covers_its_blocks_and_ends_at_the_map() {
        let words = 5 * BLOCK_WORDS + 37;
        let mut partial_max_differs = false;
        for seed in 0..16 {
            let map = WeakestCellMap::new(seed, words);
            map.fill(BLOCK_WORDS + 3..2 * BLOCK_WORDS + 1);
            let filled = |m: &WeakestCellMap| -> Vec<bool> {
                m.blocks.iter().map(|b| b.load(Relaxed) != 0).collect()
            };
            assert_eq!(filled(&map), [false, true, true, false, false, false], "seed {seed}");
            map.fill(0..0);
            map.fill(4 * BLOCK_WORDS..words);
            assert_eq!(filled(&map), [false, true, true, false, true, true], "seed {seed}");
            map.fill(0..words);
            for (addr, slot) in map.words.iter().enumerate() {
                assert_eq!(slot.load(Relaxed), ref_bucket(seed, addr as u64), "word {addr}");
            }
            for (block, slot) in map.blocks.iter().enumerate() {
                let first = block * BLOCK_WORDS;
                let real =
                    (first..words.min(first + BLOCK_WORDS)).map(|a| ref_bucket(seed, a as u64));
                assert_eq!(slot.load(Relaxed), real.max().unwrap(), "block {block}");
            }
            let last = 5 * BLOCK_WORDS as u64;
            let whole = (last..last + BLOCK_WORDS as u64).map(|a| ref_bucket(seed, a)).max();
            partial_max_differs |= whole != Some(map.blocks[5].load(Relaxed));
        }
        assert!(partial_max_differs, "some seed must tell the partial block's maximum apart");
    }

    #[test]
    #[should_panic(expected = "fill past the end of the map")]
    fn fill_past_the_end_panics() {
        WeakestCellMap::new(1, 100).fill(64..101);
    }

    /// Two threads released together by a barrier fill the same blocks of
    /// one map, each through its own array reading every word at an age
    /// where most blocks hold a failing cell. Both read what an array on a
    /// single-threaded map reads, the two maps hold the same buckets, and
    /// every bucket is the one its definition gives.
    #[test]
    fn racing_threads_fill_one_map_exactly() {
        // 193 blocks, the last partial: long enough a read that both
        // threads are still filling when the later one starts.
        let (num_banks, bank_words) = (3, 4100);
        let words = num_banks * bank_words;
        let dist = RetentionDistribution::kong2008();
        let preloaded = |cells: &Arc<WeakestCellMap>| {
            let mut mem =
                EdramArray::with_cells(num_banks, bank_words, dist.clone(), Arc::clone(cells));
            for addr in 0..words {
                mem.write(addr, (addr as i16).wrapping_mul(-311), 0.0);
            }
            mem
        };
        let read_all = |mem: &mut EdramArray| {
            let mut row = vec![0i16; words];
            mem.read_row_into(0, 4400.0, &mut row); // rate 1e-3
            (row, *mem.stats())
        };
        for seed in 0..8 {
            let single = Arc::new(WeakestCellMap::new(seed, words));
            let want = read_all(&mut preloaded(&single));
            assert!(want.1.faults > 0, "the age must decay some words");
            let shared = Arc::new(WeakestCellMap::new(seed, words));
            let barrier = Barrier::new(2);
            std::thread::scope(|scope| {
                let racers: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut mem = preloaded(&shared);
                            barrier.wait();
                            read_all(&mut mem)
                        })
                    })
                    .collect();
                for racer in racers {
                    assert_eq!(racer.join().expect("racer panicked"), want, "seed {seed}");
                }
            });
            let buckets = |map: &WeakestCellMap, which: fn(&WeakestCellMap) -> &[AtomicU8]| {
                which(map).iter().map(|b| b.load(Relaxed)).collect::<Vec<_>>()
            };
            let word_buckets = buckets(&shared, |m| &m.words);
            let block_buckets = buckets(&shared, |m| &m.blocks);
            assert_eq!(word_buckets, buckets(&single, |m| &m.words), "seed {seed}");
            assert_eq!(block_buckets, buckets(&single, |m| &m.blocks), "seed {seed}");
            for (addr, &w) in word_buckets.iter().enumerate() {
                assert_eq!(w, ref_bucket(seed, addr as u64), "seed {seed}, word {addr}");
            }
            for (block, words) in word_buckets.chunks(BLOCK_WORDS).enumerate() {
                assert_eq!(block_buckets[block], *words.iter().max().unwrap(), "block {block}");
            }
        }
    }
}
