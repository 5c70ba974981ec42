//! Property-based tests of the streaming histograms — the CRDT laws
//! (merge associativity/commutativity, shard/merge round-trip) and the
//! `2^-p` quantile relative-error bound that `rana_trace::metrics`
//! promises — and of their chunked bucket store against the one-`BTreeMap`
//! store it replaced, kept here as a reference model.
#![recursion_limit = "256"]

use proptest::prelude::*;
use rana_repro::core::metrics::{HistF64, HistI64, DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS};

/// The advertised bucket bound at the default precision, with float slack.
const REL_ERR: f64 = 1.0 / 128.0 + 1e-12;

/// Nearest-rank reference quantile over a sorted sample, matching the
/// histogram's rank rule (`ceil(q·n)` clamped into `[1, n]`).
fn true_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len() as f64;
    let rank = ((q * n).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn hist_f64(values: &[f64]) -> HistF64 {
    let mut h = HistF64::new();
    for &v in values {
        h.record(v);
    }
    h
}

fn hist_i64(values: &[i64]) -> HistI64 {
    let mut h = HistI64::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Merging shard histograms is associative and commutative: any
    /// grouping and order of the same three shards yields the same
    /// structure (bucket counts, min/max, and hence every statistic).
    #[test]
    fn f64_merge_is_associative_and_commutative(
        a in proptest::collection::vec(-1e9f64..1e9, 0..40),
        b in proptest::collection::vec(-1e9f64..1e9, 0..40),
        c in proptest::collection::vec(-1e9f64..1e9, 0..40),
    ) {
        let (ha, hb, hc) = (hist_f64(&a), hist_f64(&b), hist_f64(&c));
        // (a ⊔ b) ⊔ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊔ (b ⊔ c)
        let mut right_inner = hb.clone();
        right_inner.merge(&hc);
        let mut right = ha.clone();
        right.merge(&right_inner);
        prop_assert_eq!(&left, &right, "associativity");
        // c ⊔ b ⊔ a
        let mut rev = hc;
        rev.merge(&hb);
        rev.merge(&ha);
        prop_assert_eq!(&left, &rev, "commutativity");
    }

    /// Sharding a stream and merging the shards is indistinguishable
    /// from recording the whole stream into one histogram.
    #[test]
    fn f64_shard_merge_round_trips(
        values in proptest::collection::vec(-1e12f64..1e12, 1..120),
        cut in 0usize..120,
    ) {
        let whole = hist_f64(&values);
        let k = cut.min(values.len());
        let mut sharded = hist_f64(&values[..k]);
        sharded.merge(&hist_f64(&values[k..]));
        prop_assert_eq!(&sharded, &whole);
        prop_assert_eq!(whole.count(), values.len() as u64);
    }

    /// Same round-trip law for the integer histogram, including the
    /// exact i128 sum.
    #[test]
    fn i64_shard_merge_round_trips(
        values in proptest::collection::vec(-1_000_000_000i64..1_000_000_000, 1..120),
        cut in 0usize..120,
    ) {
        let whole = hist_i64(&values);
        let k = cut.min(values.len());
        let mut sharded = hist_i64(&values[..k]);
        sharded.merge(&hist_i64(&values[k..]));
        prop_assert_eq!(&sharded, &whole);
        prop_assert_eq!(whole.sum(), values.iter().map(|&v| i128::from(v)).sum::<i128>());
        prop_assert_eq!(whole.min(), values.iter().min().copied());
        prop_assert_eq!(whole.max(), values.iter().max().copied());
    }

    /// Every reported quantile of a positive stream lands within the
    /// advertised `2^-p` relative error of the true nearest-rank sample,
    /// and min/max are exact.
    #[test]
    fn f64_quantiles_meet_the_relative_error_bound(
        values in proptest::collection::vec(1e-3f64..1e9, 1..150),
    ) {
        let h = hist_f64(&values);
        let mut values = values.clone();
        values.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let got = h.quantile(q).expect("non-empty");
            let want = true_quantile(&values, q);
            let err = (got - want).abs() / want;
            prop_assert!(
                err <= REL_ERR,
                "q={q}: histogram {got} vs true {want} (rel err {err:.3e})"
            );
        }
        prop_assert_eq!(h.min(), values.first().copied());
        prop_assert_eq!(h.max(), values.last().copied());
    }

    /// Integer values below `2^(p+1)` are bucketed exactly, so every
    /// quantile *equals* the true nearest-rank sample.
    #[test]
    fn i64_small_values_are_exact(
        values in proptest::collection::vec(0i64..256, 1..100),
    ) {
        prop_assert_eq!(1i64 << (DEFAULT_PRECISION_BITS + 1), 256);
        let h = hist_i64(&values);
        let mut values = values.clone();
        values.sort_unstable();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let n = values.len() as f64;
            let rank = ((q * n).ceil() as usize).clamp(1, values.len());
            prop_assert_eq!(h.quantile(q), Some(values[rank - 1]));
        }
    }

    /// Large integers fall back to the same `2^-p` relative bound.
    #[test]
    fn i64_quantiles_meet_the_relative_error_bound(
        values in proptest::collection::vec(1i64..1_000_000_000_000, 1..150),
    ) {
        let h = hist_i64(&values);
        let mut values = values.clone();
        values.sort_unstable();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let n = values.len() as f64;
            let rank = ((q * n).ceil() as usize).clamp(1, values.len());
            let want = values[rank - 1] as f64;
            let got = h.quantile(q).expect("non-empty") as f64;
            let err = (got - want).abs() / want;
            prop_assert!(
                err <= REL_ERR,
                "q={q}: histogram {got} vs true {want} (rel err {err:.3e})"
            );
        }
    }

    /// Recording in any order yields the same histogram: the structure
    /// depends on the multiset of values, not the stream order.
    #[test]
    fn f64_recording_is_order_independent(
        values in proptest::collection::vec(-1e6f64..1e6, 1..80),
    ) {
        let forward = hist_f64(&values);
        let reversed: Vec<f64> = values.iter().rev().copied().collect();
        prop_assert_eq!(hist_f64(&reversed), forward);
    }
}

#[test]
fn non_finite_values_are_skipped_not_recorded() {
    let mut h = HistF64::new();
    h.record(f64::NAN);
    h.record(f64::INFINITY);
    h.record(f64::NEG_INFINITY);
    h.record(1.0);
    assert_eq!(h.count(), 1);
    assert_eq!(h.skipped(), 3);
    let q = h.quantile(1.0).expect("one finite value");
    assert!((q - 1.0).abs() <= REL_ERR, "quantile {q} strayed from the lone value");
}

/// The histograms as they were stored before the chunked buckets: one
/// `BTreeMap` of bucket counts per sign, with the same bucketing and the
/// same statistics.
mod reference {
    use std::collections::BTreeMap;

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

    fn f64_index(v: f64, p: u32) -> u64 {
        v.to_bits() >> (52 - p)
    }

    fn f64_representative(i: u64, p: u32) -> f64 {
        f64::from_bits((i << (52 - p)) + (1u64 << (51 - p)))
    }

    fn nearest_rank(q: f64, count: u64) -> u64 {
        let q = q.clamp(0.0, 1.0);
        ((q * count as f64).ceil() as u64).clamp(1, count)
    }

    fn merge_into(into: &mut BTreeMap<u64, u64>, from: &BTreeMap<u64, u64>) {
        for (&i, &n) in from {
            *into.entry(i).or_insert(0) += n;
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RefI64 {
        precision: u32,
        pos: BTreeMap<u64, u64>,
        neg: BTreeMap<u64, u64>,
        pub count: u64,
        pub sum: i128,
        min: i64,
        max: i64,
    }

    impl RefI64 {
        pub fn new(p: u32) -> Self {
            let (pos, neg) = (BTreeMap::new(), BTreeMap::new());
            Self { precision: p, pos, neg, count: 0, sum: 0, min: i64::MAX, max: i64::MIN }
        }

        pub fn record(&mut self, v: i64) {
            let side = if v < 0 { &mut self.neg } else { &mut self.pos };
            *side.entry(i64_index(v.unsigned_abs(), self.precision)).or_insert(0) += 1;
            self.count += 1;
            self.sum += i128::from(v);
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }

        pub fn min(&self) -> Option<i64> {
            (self.count > 0).then_some(self.min)
        }

        pub fn max(&self) -> Option<i64> {
            (self.count > 0).then_some(self.max)
        }

        pub fn mean(&self) -> Option<f64> {
            (self.count > 0).then(|| self.sum as f64 / self.count as f64)
        }

        pub fn quantile(&self, q: f64) -> Option<i64> {
            if self.count == 0 {
                return None;
            }
            let (rank, p) = (nearest_rank(q, self.count), self.precision);
            let mut seen = 0u64;
            for (&i, &n) in self.neg.iter().rev() {
                seen += n;
                if seen >= rank {
                    return Some(-(i64_representative(i, p).min(i64::MAX as u64) as i64));
                }
            }
            for (&i, &n) in self.pos.iter() {
                seen += n;
                if seen >= rank {
                    return Some(i64_representative(i, p).min(i64::MAX as u64) as i64);
                }
            }
            Some(self.max)
        }

        pub fn merge(&mut self, other: &RefI64) {
            merge_into(&mut self.pos, &other.pos);
            merge_into(&mut self.neg, &other.neg);
            self.count += other.count;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }

        pub fn buckets(&self) -> usize {
            self.pos.len() + self.neg.len()
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    pub struct RefF64 {
        precision: u32,
        pos: BTreeMap<u64, u64>,
        neg: BTreeMap<u64, u64>,
        zeros: u64,
        pub skipped: u64,
        pub count: u64,
        min: f64,
        max: f64,
    }

    impl RefF64 {
        pub fn new(p: u32) -> Self {
            let (pos, neg) = (BTreeMap::new(), BTreeMap::new());
            let (min, max) = (f64::INFINITY, f64::NEG_INFINITY);
            Self { precision: p, pos, neg, zeros: 0, skipped: 0, count: 0, min, max }
        }

        pub fn record(&mut self, v: f64) {
            if !v.is_finite() {
                self.skipped += 1;
                return;
            }
            if v == 0.0 {
                self.zeros += 1;
            } else if v > 0.0 {
                *self.pos.entry(f64_index(v, self.precision)).or_insert(0) += 1;
            } else {
                *self.neg.entry(f64_index(-v, self.precision)).or_insert(0) += 1;
            }
            self.count += 1;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }

        pub fn min(&self) -> Option<f64> {
            (self.count > 0).then_some(self.min)
        }

        pub fn max(&self) -> Option<f64> {
            (self.count > 0).then_some(self.max)
        }

        pub fn sum(&self) -> f64 {
            let mut s = 0.0;
            for (&i, &n) in self.neg.iter().rev() {
                s -= f64_representative(i, self.precision) * n as f64;
            }
            for (&i, &n) in self.pos.iter() {
                s += f64_representative(i, self.precision) * n as f64;
            }
            s
        }

        pub fn mean(&self) -> Option<f64> {
            (self.count > 0).then(|| self.sum() / self.count as f64)
        }

        pub fn quantile(&self, q: f64) -> Option<f64> {
            if self.count == 0 {
                return None;
            }
            let rank = nearest_rank(q, self.count);
            let mut seen = 0u64;
            for (&i, &n) in self.neg.iter().rev() {
                seen += n;
                if seen >= rank {
                    return Some(-f64_representative(i, self.precision));
                }
            }
            seen += self.zeros;
            if seen >= rank {
                return Some(0.0);
            }
            for (&i, &n) in self.pos.iter() {
                seen += n;
                if seen >= rank {
                    return Some(f64_representative(i, self.precision));
                }
            }
            Some(self.max)
        }

        pub fn merge(&mut self, other: &RefF64) {
            merge_into(&mut self.pos, &other.pos);
            merge_into(&mut self.neg, &other.neg);
            self.zeros += other.zeros;
            self.skipped += other.skipped;
            self.count += other.count;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }

        pub fn buckets(&self) -> usize {
            self.pos.len() + self.neg.len() + usize::from(self.zeros > 0)
        }
    }
}

use reference::{RefF64, RefI64};

/// Quantiles the comparisons read: both ends, a fine grid and the tails.
fn probe_quantiles() -> impl Iterator<Item = f64> {
    (0..=20).map(|k| f64::from(k) / 20.0).chain([1e-9, 0.001, 0.01, 0.99, 0.999, 1.0 - 1e-9])
}

/// A double from anywhere in the range, by `kind`: a raw bit pattern
/// (NaN and ±∞ included, which both stores skip), ±0, a subnormal, a
/// value near ±1e300 or ±1e-300, or one of a narrow cluster, so buckets
/// repeat and chunks fill.
fn any_double(kind: u8, bits: u64) -> f64 {
    let sign = if bits >> 63 == 1 { -1.0 } else { 1.0 };
    let jitter = 1.0 + (bits % 1000) as f64 / 1000.0;
    match kind {
        0 => f64::from_bits(bits),
        1 => sign * 0.0,
        2 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
        3 => sign * 1e300 * jitter,
        4 => sign * 1e-300 * jitter,
        _ => sign * (1e3 + (bits % 4096) as f64),
    }
}

/// An integer from anywhere in the range, by `kind`: any `i64`, the two
/// extremes, a small value (exact buckets) or one of a large cluster.
fn any_integer(kind: u8, bits: u64) -> i64 {
    match kind {
        0 => bits as i64,
        1 => [i64::MIN, i64::MAX, 0, -1][(bits % 4) as usize],
        2 => (bits % 512) as i64 - 256,
        _ => (1 << 40) + (bits % 100_000) as i64 * if bits >> 63 == 1 { -1 } else { 1 },
    }
}

fn doubles() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u8..6, any::<u64>()).prop_map(|(k, b)| any_double(k, b)), 0..48)
}

fn integers() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec((0u8..4, any::<u64>()).prop_map(|(k, b)| any_integer(k, b)), 0..48)
}

/// Both stores over `values` at precision `p`.
fn both_f64(values: &[f64], p: u32) -> (HistF64, RefF64) {
    let (mut h, mut r) = (HistF64::with_precision(p), RefF64::new(p));
    for &v in values {
        h.record(v);
        r.record(v);
    }
    (h, r)
}

fn both_i64(values: &[i64], p: u32) -> (HistI64, RefI64) {
    let (mut h, mut r) = (HistI64::with_precision(p), RefI64::new(p));
    for &v in values {
        h.record(v);
        r.record(v);
    }
    (h, r)
}

/// Every statistic of `h` equals the reference's, bit for bit.
fn same_f64(h: &HistF64, r: &RefF64) -> TestCaseResult {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    prop_assert_eq!((h.count(), h.skipped(), h.buckets()), (r.count, r.skipped, r.buckets()));
    prop_assert_eq!(bits(h.min()), bits(r.min()));
    prop_assert_eq!(bits(h.max()), bits(r.max()));
    prop_assert_eq!(h.sum().to_bits(), r.sum().to_bits());
    prop_assert_eq!(bits(h.mean()), bits(r.mean()));
    for q in probe_quantiles() {
        prop_assert_eq!(bits(h.quantile(q)), bits(r.quantile(q)), "q = {}", q);
    }
    Ok(())
}

fn same_i64(h: &HistI64, r: &RefI64) -> TestCaseResult {
    prop_assert_eq!((h.count(), h.sum(), h.buckets()), (r.count, r.sum, r.buckets()));
    prop_assert_eq!((h.min(), h.max()), (r.min(), r.max()));
    prop_assert_eq!(h.mean().map(f64::to_bits), r.mean().map(f64::to_bits));
    for q in probe_quantiles() {
        prop_assert_eq!(h.quantile(q), r.quantile(q), "q = {}", q);
    }
    Ok(())
}

/// Splits `values` over four shards by `shard_of` and merges the shards,
/// in the order `order` ranks them, into both stores; half the time the
/// shards pair up first.
fn sharded<T: Copy, H: Clone, R: Clone>(
    values: &[T],
    shard_of: &[u8],
    order: u64,
    build: impl Fn(&[T]) -> (H, R),
    merge: impl Fn(&mut H, &mut R, &H, &R),
) -> (H, R) {
    let shards: Vec<(H, R)> = (0..4u8)
        .map(|s| {
            let part: Vec<T> = values
                .iter()
                .zip(shard_of)
                .filter(|&(_, &k)| k % 4 == s)
                .map(|(&v, _)| v)
                .collect();
            build(&part)
        })
        .collect();
    let mut rank: Vec<usize> = (0..4).collect();
    rank.sort_by_key(|&i| (order >> (8 * i)) & 0xff);
    let (mut h, mut r) = build(&[]);
    if order >> 63 == 1 {
        let pair = |a: usize, b: usize| {
            let (mut h, mut r) = shards[a].clone();
            merge(&mut h, &mut r, &shards[b].0, &shards[b].1);
            (h, r)
        };
        let (left, right) = (pair(rank[0], rank[1]), pair(rank[2], rank[3]));
        merge(&mut h, &mut r, &left.0, &left.1);
        merge(&mut h, &mut r, &right.0, &right.1);
    } else {
        for &i in &rank {
            merge(&mut h, &mut r, &shards[i].0, &shards[i].1);
        }
    }
    (h, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The chunked `HistF64` reports what the `BTreeMap` store reported,
    /// bit for bit, at any precision, for values from the whole double
    /// range, recorded whole or sharded and merged in any order; and two
    /// histograms compare equal exactly when their references do.
    #[test]
    fn f64_chunked_store_equals_the_btreemap_store(
        values in doubles(),
        p in 1u32..MAX_PRECISION_BITS + 1,
        shard_of in proptest::collection::vec(any::<u8>(), 48..49),
        order in any::<u64>(),
        swap in (0usize..48, 0u8..6, any::<u64>()),
    ) {
        let (h, r) = both_f64(&values, p);
        same_f64(&h, &r)?;
        let merge = |h: &mut HistF64, r: &mut RefF64, oh: &HistF64, or: &RefF64| {
            h.merge(oh);
            r.merge(or);
        };
        let (hs, rs) = sharded(&values, &shard_of, order, |v| both_f64(v, p), merge);
        same_f64(&hs, &rs)?;
        prop_assert!(hs == h && rs == r, "sharding changed the histogram");
        // One value swapped for another: equal exactly when the
        // references are.
        let mut other = values.clone();
        if let Some(v) = other.get_mut(swap.0 % values.len().max(1)) {
            *v = any_double(swap.1, swap.2);
        }
        let (ho, ro) = both_f64(&other, p);
        prop_assert_eq!(ho == h, ro == r);
    }

    /// The same for `HistI64`, over the whole `i64` range.
    #[test]
    fn i64_chunked_store_equals_the_btreemap_store(
        values in integers(),
        p in 1u32..MAX_PRECISION_BITS + 1,
        shard_of in proptest::collection::vec(any::<u8>(), 48..49),
        order in any::<u64>(),
        swap in (0usize..48, 0u8..4, any::<u64>()),
    ) {
        let (h, r) = both_i64(&values, p);
        same_i64(&h, &r)?;
        let merge = |h: &mut HistI64, r: &mut RefI64, oh: &HistI64, or: &RefI64| {
            h.merge(oh);
            r.merge(or);
        };
        let (hs, rs) = sharded(&values, &shard_of, order, |v| both_i64(v, p), merge);
        same_i64(&hs, &rs)?;
        prop_assert!(hs == h && rs == r, "sharding changed the histogram");
        let mut other = values.clone();
        if let Some(v) = other.get_mut(swap.0 % values.len().max(1)) {
            *v = any_integer(swap.1, swap.2);
        }
        let (ho, ro) = both_i64(&other, p);
        prop_assert_eq!(ho == h, ro == r);
    }
}

/// Every precision from 1 to `MAX_PRECISION_BITS` on one stream that
/// holds each kind of double and integer.
#[test]
fn every_precision_matches_the_btreemap_store() {
    let doubles: Vec<f64> = (0..240u64)
        .map(|i| any_double((i % 6) as u8, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .chain([5e-324, -5e-324, f64::MIN_POSITIVE, f64::MAX, f64::MIN, 0.0, -0.0])
        .collect();
    let integers: Vec<i64> = (0..240u64)
        .map(|i| any_integer((i % 4) as u8, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    for p in 1..=MAX_PRECISION_BITS {
        let (h, r) = both_f64(&doubles, p);
        if let Err(e) = same_f64(&h, &r) {
            panic!("HistF64 at p = {p}: {e:?}");
        }
        let (h, r) = both_i64(&integers, p);
        if let Err(e) = same_i64(&h, &r) {
            panic!("HistI64 at p = {p}: {e:?}");
        }
    }
}
