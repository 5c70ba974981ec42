//! Functional banked eDRAM array with retention-fault injection.
//!
//! Each cell's retention time is drawn (deterministically, from a hash of
//! its address) from a [`RetentionDistribution`]. A read resolves the stored
//! word against the time elapsed since it was last written or refreshed: a
//! bit whose cell retention is shorter than that age reads back a random
//! value (paper §IV-B). A refresh *re-writes whatever is currently
//! resolvable* — refreshing too late locks corrupted bits in, exactly as in
//! hardware.
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
//! at most 10⁻⁹ count as zero, so young data is returned as stored.
//!
//! Within the tolerable retention almost no word has a failing cell (at
//! 734 µs, 10⁻⁵ of cells fail), so each word also keeps a one-byte
//! *weakest-cell bucket*, filled on its first decayed resolution: the
//! smallest of its 16 quantiles rounded down to a power of two. When the
//! rate is at or below that floor, no quantile lies below the rate, so no
//! bit fails and the stored word is the loop's result. The random bit is
//! consulted only for failing bits, so skipping the loop is exact: every
//! value and every fault count is the one the per-bit loop gives. Row reads
//! and bank refreshes look the rate up once per run of words that share a
//! write timestamp and apply the filter word by word.

use crate::retention::RetentionDistribution;
use crate::stats::MemoryStats;

/// Per-bit failure rates at or below this count as zero — even a billion
/// bit reads would expect no flip — which keeps young-data reads cheap.
const NEGLIGIBLE_RATE: f64 = 1e-9;

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
    words: Vec<i16>,
    /// Time of last write or refresh per word; `NEG_INFINITY` = never
    /// written (reads as an aged-out cell).
    written_at: Vec<f64>,
    /// Weakest-cell bucket per word, filled on the word's first decayed
    /// resolution: `w` in `1..=54` means all 16 cell quantiles are at
    /// least `2^-w` (0 for `w == 54`); 0 means not computed yet (so the
    /// table starts as zeroed memory that is never touched for young data).
    weakest: Vec<u8>,
    dist: RetentionDistribution,
    seed: u64,
    stats: MemoryStats,
    /// One-entry memo for the age → failure-rate lookup: reads within a
    /// tile share their timestamp, so this removes nearly all of the
    /// log-space interpolation cost.
    cached_age: f64,
    cached_rate: f64,
}

impl EdramArray {
    /// Creates an array of `num_banks` banks of `bank_words` 16-bit words.
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
        assert!(num_banks > 0 && bank_words > 0, "array dimensions must be positive");
        let total = num_banks * bank_words;
        Self {
            num_banks,
            bank_words,
            words: vec![0; total],
            written_at: vec![f64::NEG_INFINITY; total],
            weakest: vec![0; total],
            dist,
            seed,
            stats: MemoryStats::default(),
            cached_age: f64::NAN,
            cached_rate: 0.0,
        }
    }

    /// Total capacity in 16-bit words.
    pub fn capacity_words(&self) -> usize {
        self.words.len()
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
        self.words[addr] = value;
        self.written_at[addr] = now_us;
        self.stats.writes += 1;
    }

    /// Writes a slice of words starting at `addr`.
    pub fn write_slice(&mut self, addr: usize, values: &[i16], now_us: f64) {
        for (i, &v) in values.iter().enumerate() {
            self.write(addr + i, v, now_us);
        }
    }

    /// Reads a word, injecting retention faults for cells older than their
    /// sampled retention time.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    pub fn read(&mut self, addr: usize, now_us: f64) -> i16 {
        self.stats.reads += 1;
        let rate = self.rate_since(self.written_at[addr], now_us);
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
    /// run of words sharing a write timestamp, and young runs are copied
    /// wholesale.
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
    /// write timestamp with one failure-rate lookup each.
    fn read_row_impl(
        &mut self,
        addr: usize,
        now_us: f64,
        out: &mut [i16],
        mult: Option<&[u64]>,
        scale: u64,
    ) {
        let n = out.len();
        assert!(addr + n <= self.words.len(), "row [{addr}, {}) out of bounds", addr + n);
        let acc_reads = |m: Option<&[u64]>, i: usize| m.map_or(1, |m| m[i]).wrapping_mul(scale);
        let mut i = 0;
        while i < n {
            let j = self.run_end(addr + i, addr + n) - addr;
            let rate = self.rate_since(self.written_at[addr + i], now_us);
            if rate <= NEGLIGIBLE_RATE {
                out[i..j].copy_from_slice(&self.words[addr + i..addr + j]);
            } else {
                for (t, o) in (i..j).zip(&mut out[i..j]) {
                    let (value, faults) = self.decay(addr + t, rate);
                    *o = value;
                    self.stats.faults += u64::from(faults) * acc_reads(mult, t);
                }
            }
            for t in i..j {
                self.stats.reads += acc_reads(mult, t);
            }
            i = j;
        }
    }

    /// Refreshes one bank: every written word is resolved at `now_us`
    /// (late refreshes lock corrupted bits in) and re-written; never-written
    /// words stay unwritten. Returns the number of refreshed words.
    ///
    /// Like the row reads, this works on runs of words sharing a write
    /// timestamp: one failure-rate lookup and one timestamp `fill` per run.
    pub fn refresh_bank(&mut self, bank: usize, now_us: f64) -> usize {
        assert!(bank < self.num_banks, "bank {bank} out of range");
        let end = (bank + 1) * self.bank_words;
        let mut i = bank * self.bank_words;
        while i < end {
            let j = self.run_end(i, end);
            let wa = self.written_at[i];
            if wa != f64::NEG_INFINITY {
                let rate = self.rate_since(wa, now_us);
                if rate > NEGLIGIBLE_RATE {
                    for addr in i..j {
                        let (value, faults) = self.decay(addr, rate);
                        self.words[addr] = value;
                        self.stats.faults += u64::from(faults);
                    }
                }
                self.written_at[i..j].fill(now_us);
            }
            i = j;
        }
        self.stats.refresh_words += self.bank_words as u64;
        self.bank_words
    }

    /// End of the maximal run of words from `start` (before `end`) that
    /// share `start`'s write timestamp. `NEG_INFINITY == NEG_INFINITY`, so
    /// never-written words group too.
    fn run_end(&self, start: usize, end: usize) -> usize {
        let wa = self.written_at[start];
        start + 1 + self.written_at[start + 1..end].iter().take_while(|&&t| t == wa).count()
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
    fn decay(&mut self, addr: usize, rate: f64) -> (i16, u32) {
        if rate <= self.weakest_floor(addr) {
            return (self.words[addr], 0);
        }
        let mut value = self.words[addr] as u16;
        let mut faults = 0;
        // A write epoch keys the "random" value a failed cell reads, so two
        // reads of the same decayed cell agree but a rewrite re-rolls it.
        let epoch = self.written_at[addr].to_bits();
        for bit in 0..16u32 {
            let q = hash01(self.seed, addr as u64, u64::from(bit));
            if q < rate {
                let random_bit =
                    (hash01(self.seed ^ 0x9E37_79B9_7F4A_7C15, addr as u64 ^ epoch, u64::from(bit))
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
}

impl EdramArray {
    /// Per-bit failure rate of data written at `written_at` and resolved at
    /// `now_us` (0 for non-positive ages), through a one-entry memo: reads
    /// within a tile share their timestamp, so this removes nearly all of
    /// the log-space interpolation cost.
    fn rate_since(&mut self, written_at: f64, now_us: f64) -> f64 {
        let age = now_us - written_at;
        if age <= 0.0 {
            0.0
        } else if age == self.cached_age {
            self.cached_rate
        } else {
            let r = self.dist.failure_rate(age);
            self.cached_age = age;
            self.cached_rate = r;
            r
        }
    }

    /// The floor `2^-w` under the 16 cell quantiles of `addr` (exact; 0
    /// for bucket 54), computing and storing the word's bucket `w` on
    /// first use.
    fn weakest_floor(&mut self, addr: usize) -> f64 {
        let mut w = self.weakest[addr];
        if w == 0 {
            w = weakest_bucket(self.seed, addr as u64);
            self.weakest[addr] = w;
        }
        if w > 53 {
            0.0
        } else {
            // Biased exponent 1023 − w over a zero mantissa: exactly 2^-w.
            f64::from_bits(u64::from(1023 - u16::from(w)) << 52)
        }
    }
}

/// Bucket of the smallest cell quantile of word `addr`: with
/// `m = min_b hash53(seed, addr, b)`, `w = m.leading_zeros() − 10`, so that
/// `m ≥ 2^(53−w)` — every quantile `hash53 / 2^53` is at least `2^-w` —
/// for `w` in `1..=53`; `m == 0` gives `w = 54`.
fn weakest_bucket(seed: u64, addr: u64) -> u8 {
    let m = (0..16).map(|bit| hash53(seed, addr, bit)).min().expect("16 cells");
    (m.leading_zeros() - 10) as u8
}

/// SplitMix64-style hash of three values onto `[0, 1)`: `hash53` over
/// `2^53`, which is exact in an `f64`.
fn hash01(a: u64, b: u64, c: u64) -> f64 {
    hash53(a, b, c) as f64 / (1u64 << 53) as f64
}

/// SplitMix64-style hash of three values onto the 53-bit integers.
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
            prop_assert_eq!(&mem.words, &reference.words);
            let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&mem.written_at), bits(&reference.written_at));
        }
    }
}
