//! Log-linear streaming histograms with bounded relative error.
//!
//! The bucketing follows the HDR-histogram idea: magnitudes are split into
//! power-of-two segments, each segment into `2^p` linear sub-buckets, so a
//! bucket never spans more than a `2^-p` relative range. Everything a
//! histogram reports — quantiles, sums, means — is derived purely from the
//! bucket counts (plus exactly-tracked min/max), which makes the type a
//! *CRDT-style* accumulator: [`merge`](HistF64::merge) is associative and
//! commutative, and recording a stream into shards and merging them is
//! byte-identical to recording the stream into one histogram. Quantiles
//! are deterministic (nearest-rank over bucket representatives) and carry
//! the same `2^-p` relative-error bound as the buckets.
//!
//! Two concrete types share the machinery: [`HistI64`] buckets integer
//! magnitudes (exact below `2^(p+1)`), [`HistF64`] buckets the IEEE-754
//! bit pattern directly (exponent plus top `p` mantissa bits), which is
//! log-linear over the full double range with no configuration.
//!
//! Both keep their counts in dense chunks of 256 consecutive bucket
//! indices, allocated as values land in them (see [`HistI64`]).

use std::fmt;

/// Default sub-bucket precision: 7 bits → relative error ≤ 2⁻⁷ ≈ 0.8 %.
pub const DEFAULT_PRECISION_BITS: u32 = 7;

/// Maximum supported precision (f64 has 52 mantissa bits; staying far
/// below keeps bucket counts small).
pub const MAX_PRECISION_BITS: u32 = 20;

fn check_precision(p: u32) -> u32 {
    assert!(
        (1..=MAX_PRECISION_BITS).contains(&p),
        "histogram precision must be in 1..={MAX_PRECISION_BITS}, got {p}"
    );
    p
}

/// Bucket index of a non-negative integer magnitude at precision `p`.
fn i64_index(m: u64, p: u32) -> u64 {
    let half = 1u64 << p;
    let sub = half << 1;
    if m < sub {
        return m;
    }
    let msb = 63 - u64::from(m.leading_zeros());
    let b = msb - u64::from(p);
    let off = (m >> b) - half;
    (b + 1) * half + off
}

/// Midpoint representative of an integer bucket (exact below `2^(p+1)`).
fn i64_representative(i: u64, p: u32) -> u64 {
    let half = 1u64 << p;
    let sub = half << 1;
    if i < sub {
        return i;
    }
    let b = i / half - 1;
    let off = i - (b + 1) * half;
    let start = (half + off) << b;
    start + (1u64 << b) / 2
}

/// Bucket index of a positive finite f64: exponent and top `p` mantissa
/// bits of the raw IEEE-754 pattern (monotone for positive floats).
fn f64_index(v: f64, p: u32) -> u64 {
    v.to_bits() >> (52 - p)
}

/// Midpoint representative of a positive-f64 bucket.
fn f64_representative(i: u64, p: u32) -> f64 {
    f64::from_bits((i << (52 - p)) + (1u64 << (51 - p)))
}

/// Bucket indices per chunk of [`Buckets`]: 2 KiB of counts.
const CHUNK: usize = 256;
/// `log2(CHUNK)`.
const CHUNK_BITS: u32 = CHUNK.trailing_zeros();

/// Counts by bucket index, in dense chunks of [`CHUNK`] consecutive
/// indices. A chunk exists once one of its buckets was counted, so every
/// chunk holds a nonzero count and two stores with the same counts have
/// the same chunks: equality compares the chunk lists.
#[derive(Clone, Default)]
struct Buckets {
    /// Chunk numbers (`index >> CHUNK_BITS`), ascending.
    ids: Vec<u64>,
    /// The chunks' counts, `CHUNK` per id, in `ids` order.
    counts: Vec<u64>,
    /// Position in `ids` of the chunk the last add went to.
    last: usize,
}

impl Buckets {
    /// Position in `ids` of chunk `id`, inserting it (all zeros) if absent.
    fn chunk(&mut self, id: u64) -> usize {
        self.ids.binary_search(&id).unwrap_or_else(|at| {
            self.ids.insert(at, id);
            self.counts.splice(at * CHUNK..at * CHUNK, [0; CHUNK]);
            at
        })
    }

    /// Adds `n` to bucket `index`.
    fn add(&mut self, index: u64, n: u64) {
        let id = index >> CHUNK_BITS;
        if self.ids.get(self.last) != Some(&id) {
            self.last = self.chunk(id);
        }
        self.counts[self.last * CHUNK + (index as usize & (CHUNK - 1))] += n;
    }

    /// Occupied buckets as `(index, count)`, ascending by index (reverse
    /// it for descending).
    fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, u64)> + '_ {
        self.ids.iter().zip(self.counts.chunks_exact(CHUNK)).flat_map(|(&id, chunk)| {
            chunk
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n != 0)
                .map(move |(j, &n)| (id << CHUNK_BITS | j as u64, n))
        })
    }

    /// Folds `other`'s counts in, chunk by chunk.
    fn merge(&mut self, other: &Buckets) {
        for (&id, chunk) in other.ids.iter().zip(other.counts.chunks_exact(CHUNK)) {
            let at = self.chunk(id);
            for (mine, &n) in self.counts[at * CHUNK..][..CHUNK].iter_mut().zip(chunk) {
                *mine += n;
            }
        }
    }

    /// Number of occupied buckets.
    fn len(&self) -> usize {
        self.counts.iter().filter(|&&n| n != 0).count()
    }
}

impl PartialEq for Buckets {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids && self.counts == other.counts
    }
}
impl Eq for Buckets {}

impl fmt::Debug for Buckets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Streaming log-linear histogram over `i64` values.
///
/// Values below `2^(p+1)` in magnitude are recorded exactly; larger
/// magnitudes land in buckets spanning at most a `2^-p` relative range.
/// The running `sum` is exact (i128), so `mean` is exact too.
///
/// Storage: per sign, dense chunks of 256 consecutive bucket counts
/// (2 KiB each), allocated when a value first lands in one and kept in
/// ascending order. Recording finds its chunk through the last one hit
/// (a binary search otherwise) and adds to it; memory is bounded by the
/// occupied chunks, whatever the value range or precision.
///
/// ```
/// use rana_trace::metrics::HistI64;
///
/// let mut h = HistI64::new();
/// for v in [3, 10, 10, 250] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.quantile(0.5), Some(10));
/// assert_eq!(h.min(), Some(3));
/// assert_eq!(h.sum(), 273);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistI64 {
    precision: u32,
    /// Bucketed counts of positive values (and zero, in bucket 0).
    pos: Buckets,
    /// Bucketed counts of negative values, by magnitude.
    neg: Buckets,
    count: u64,
    sum: i128,
    min: i64,
    max: i64,
}

impl Default for HistI64 {
    fn default() -> Self {
        Self::new()
    }
}

impl HistI64 {
    /// An empty histogram at the default precision.
    pub fn new() -> Self {
        Self::with_precision(DEFAULT_PRECISION_BITS)
    }

    /// An empty histogram with `2^p` linear sub-buckets per octave.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `1..=`[`MAX_PRECISION_BITS`].
    pub fn with_precision(p: u32) -> Self {
        Self {
            precision: check_precision(p),
            pos: Buckets::default(),
            neg: Buckets::default(),
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: i64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v`.
    pub fn record_n(&mut self, v: i64, n: u64) {
        if n == 0 {
            return;
        }
        let side = if v < 0 { &mut self.neg } else { &mut self.pos };
        side.add(i64_index(v.unsigned_abs(), self.precision), n);
        self.count += n;
        self.sum += i128::from(v) * i128::from(n);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> i128 {
        self.sum
    }

    /// Exact minimum recorded value (`None` when empty).
    pub fn min(&self) -> Option<i64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum recorded value (`None` when empty).
    pub fn max(&self) -> Option<i64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`: the bucket representative
    /// of the `ceil(q·count)`-th smallest recorded value (clamped to the
    /// first/last value). The result is within `2^-p` relative error of
    /// the true order statistic, and exact for magnitudes below
    /// `2^(p+1)`. `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<i64> {
        if self.count == 0 {
            return None;
        }
        let rank = nearest_rank(q, self.count);
        let mut seen = 0u64;
        // Ascending value order: most-negative magnitudes first.
        for (i, n) in self.neg.iter().rev() {
            seen += n;
            if seen >= rank {
                return Some(-(i64_representative(i, self.precision).min(i64::MAX as u64) as i64));
            }
        }
        for (i, n) in self.pos.iter() {
            seen += n;
            if seen >= rank {
                return Some(i64_representative(i, self.precision).min(i64::MAX as u64) as i64);
            }
        }
        Some(self.max)
    }

    /// Folds `other` into `self`. Associative and commutative: sharding a
    /// stream and merging reproduces the single-histogram state exactly.
    ///
    /// # Panics
    ///
    /// Panics when the precisions differ.
    pub fn merge(&mut self, other: &HistI64) {
        assert_eq!(self.precision, other.precision, "cannot merge histograms of mixed precision");
        self.pos.merge(&other.pos);
        self.neg.merge(&other.neg);
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of distinct occupied buckets.
    pub fn buckets(&self) -> usize {
        self.pos.len() + self.neg.len()
    }
}

/// Streaming log-linear histogram over finite `f64` values.
///
/// Positive values are bucketed by their raw IEEE-754 bit pattern
/// (exponent plus the top `p` mantissa bits), negatives symmetrically by
/// magnitude, and zeros counted exactly — so the bucket scheme is
/// log-linear over the entire double range with relative error ≤ `2^-p`.
/// Non-finite values are not recorded (tracked in
/// [`skipped`](HistF64::skipped)).
///
/// The reported `sum`/`mean` are reconstructed from bucket
/// representatives in fixed bucket order, never from a running float
/// accumulator: they are a pure function of the merged bucket state, so
/// merging in any order or grouping yields bit-identical statistics.
///
/// Storage is [`HistI64`]'s: per sign, dense chunks of 256 consecutive
/// bucket counts, allocated on first use and found through the last one
/// hit. A histogram holding only `1e-300` and `1e300` at
/// [`MAX_PRECISION_BITS`] holds two chunks, where one array per binade
/// would take 8 MiB.
///
/// ```
/// use rana_trace::metrics::HistF64;
///
/// let mut h = HistF64::new();
/// for v in [1.0, 2.5, 2.5, 1e6] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((p50 - 2.5).abs() / 2.5 < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HistF64 {
    precision: u32,
    /// Bucketed counts of positive values.
    pos: Buckets,
    /// Bucketed counts of negative values, by magnitude.
    neg: Buckets,
    zeros: u64,
    skipped: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for HistF64 {
    fn default() -> Self {
        Self::new()
    }
}

impl HistF64 {
    /// An empty histogram at the default precision.
    pub fn new() -> Self {
        Self::with_precision(DEFAULT_PRECISION_BITS)
    }

    /// An empty histogram with `2^p` sub-buckets per binade.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `1..=`[`MAX_PRECISION_BITS`].
    pub fn with_precision(p: u32) -> Self {
        Self {
            precision: check_precision(p),
            pos: Buckets::default(),
            neg: Buckets::default(),
            zeros: 0,
            skipped: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one value; non-finite values are counted as skipped.
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v`.
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        if !v.is_finite() {
            self.skipped += n;
            return;
        }
        if v == 0.0 {
            self.zeros += n;
        } else if v > 0.0 {
            self.pos.add(f64_index(v, self.precision), n);
        } else {
            self.neg.add(f64_index(-v, self.precision), n);
        }
        self.count += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Sub-bucket precision in bits.
    pub fn precision_bits(&self) -> u32 {
        self.precision
    }

    /// Total recorded (finite) values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Non-finite values that were rejected.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Exact minimum recorded value (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum recorded value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum reconstructed from bucket representatives in ascending bucket
    /// order — deterministic and merge-order independent, within `2^-p`
    /// relative error of the true sum for same-signed data.
    pub fn sum(&self) -> f64 {
        let mut s = 0.0;
        for (i, n) in self.neg.iter().rev() {
            s -= f64_representative(i, self.precision) * n as f64;
        }
        for (i, n) in self.pos.iter() {
            s += f64_representative(i, self.precision) * n as f64;
        }
        s
    }

    /// Mean derived from [`sum`](Self::sum) (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum() / self.count as f64)
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`, as the midpoint
    /// representative of the bucket holding the `ceil(q·count)`-th
    /// smallest value — within `2^-p` relative error of the true order
    /// statistic (exact for zeros). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = nearest_rank(q, self.count);
        let mut seen = 0u64;
        for (i, n) in self.neg.iter().rev() {
            seen += n;
            if seen >= rank {
                return Some(-f64_representative(i, self.precision));
            }
        }
        seen += self.zeros;
        if seen >= rank {
            return Some(0.0);
        }
        for (i, n) in self.pos.iter() {
            seen += n;
            if seen >= rank {
                return Some(f64_representative(i, self.precision));
            }
        }
        Some(self.max)
    }

    /// Folds `other` into `self`. Associative and commutative.
    ///
    /// # Panics
    ///
    /// Panics when the precisions differ.
    pub fn merge(&mut self, other: &HistF64) {
        assert_eq!(self.precision, other.precision, "cannot merge histograms of mixed precision");
        self.pos.merge(&other.pos);
        self.neg.merge(&other.neg);
        self.zeros += other.zeros;
        self.skipped += other.skipped;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of distinct occupied buckets (zeros count as one when
    /// present).
    pub fn buckets(&self) -> usize {
        self.pos.len() + self.neg.len() + usize::from(self.zeros > 0)
    }
}

/// Nearest-rank index: `ceil(q·count)` clamped into `[1, count]`.
fn nearest_rank(q: f64, count: u64) -> u64 {
    let q = q.clamp(0.0, 1.0);
    ((q * count as f64).ceil() as u64).clamp(1, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_integers_are_exact() {
        let mut h = HistI64::new();
        for v in 0..=255 {
            h.record(v);
        }
        for q in [0.01f64, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let want = ((q * 256.0).ceil() as i64 - 1).max(0);
            assert_eq!(h.quantile(q), Some(want), "q={q}");
        }
        assert_eq!(h.sum(), (0..=255).sum::<i64>() as i128);
    }

    #[test]
    fn large_integers_have_bounded_relative_error() {
        let mut h = HistI64::new();
        let v = 123_456_789_i64;
        h.record(v);
        let got = h.quantile(0.5).unwrap();
        let rel = (got - v).abs() as f64 / v as f64;
        assert!(rel <= 1.0 / 128.0, "rel err {rel}");
    }

    #[test]
    fn negative_values_sort_before_positive() {
        let mut h = HistI64::new();
        h.record(-1000);
        h.record(-10);
        h.record(5);
        h.record(2000);
        assert_eq!(h.min(), Some(-1000));
        assert_eq!(h.max(), Some(2000));
        let q25 = h.quantile(0.25).unwrap();
        assert!((-1010..=-990).contains(&q25), "{q25}");
        assert_eq!(h.quantile(0.5), Some(-10));
        assert_eq!(h.quantile(0.75), Some(5));
    }

    #[test]
    fn i64_merge_matches_single_stream() {
        let vals: Vec<i64> = (0..500).map(|i| (i * i * 7919) % 1_000_003 - 300_000).collect();
        let mut whole = HistI64::new();
        let mut a = HistI64::new();
        let mut b = HistI64::new();
        for (k, &v) in vals.iter().enumerate() {
            whole.record(v);
            if k % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn f64_quantiles_bound_relative_error() {
        let mut h = HistF64::new();
        let vals: Vec<f64> = (1..=1000).map(|i| (i as f64).powf(1.7) * 1e-3).collect();
        for &v in &vals {
            h.record(v);
        }
        for q in [0.05f64, 0.5, 0.95, 0.99] {
            let rank = ((q * 1000.0).ceil() as usize).clamp(1, 1000);
            let want = vals[rank - 1];
            let got = h.quantile(q).unwrap();
            assert!((got - want).abs() / want <= 1.0 / 128.0, "q={q}: {got} vs {want}");
        }
    }

    #[test]
    fn f64_handles_zero_negative_and_nonfinite() {
        let mut h = HistF64::new();
        h.record(0.0);
        h.record(-2.0);
        h.record(4.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.skipped(), 2);
        assert_eq!(h.quantile(0.5), Some(0.0));
        assert_eq!(h.min(), Some(-2.0));
        let s = h.sum();
        assert!((s - 2.0).abs() / 2.0 <= 0.02, "{s}");
    }

    #[test]
    fn f64_merge_matches_single_stream_bitwise() {
        let vals: Vec<f64> =
            (0..400).map(|i| ((i * 2654435761u64 % 1_000_000) as f64).sqrt() - 300.0).collect();
        let mut whole = HistF64::new();
        let mut shards = [HistF64::new(), HistF64::new(), HistF64::new()];
        for (k, &v) in vals.iter().enumerate() {
            whole.record(v);
            shards[k % 3].record(v);
        }
        let mut merged = shards[0].clone();
        merged.merge(&shards[1]);
        merged.merge(&shards[2]);
        assert_eq!(merged, whole);
        assert_eq!(merged.sum().to_bits(), whole.sum().to_bits());
    }

    #[test]
    fn far_apart_values_allocate_one_chunk_each() {
        let mut h = HistF64::with_precision(MAX_PRECISION_BITS);
        h.record(1e-300);
        h.record(1e300);
        assert_eq!(h.pos.ids.len(), 2);
        assert_eq!(h.pos.counts.len(), 2 * CHUNK);
        assert!(h.neg.ids.is_empty() && h.neg.counts.is_empty());
        assert_eq!(h.buckets(), 2);
        assert_eq!(format!("{:?}", h.neg), "{}");
    }

    #[test]
    #[should_panic(expected = "mixed precision")]
    fn mixed_precision_merge_panics() {
        let mut a = HistF64::with_precision(7);
        a.merge(&HistF64::with_precision(8));
    }

    #[test]
    fn empty_histograms_report_none() {
        let h = HistF64::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        let g = HistI64::new();
        assert_eq!(g.quantile(0.99), None);
        assert_eq!(g.mean(), None);
    }
}
