//! Property-based tests of the streaming histograms — the CRDT laws
//! (merge associativity/commutativity, shard/merge round-trip) and the
//! `2^-p` quantile relative-error bound that `rana_trace::metrics`
//! promises.
#![recursion_limit = "256"]

use proptest::prelude::*;
use rana_repro::core::metrics::{HistF64, HistI64, DEFAULT_PRECISION_BITS};

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
