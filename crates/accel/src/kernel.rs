//! Inner MAC row kernels of the blocked functional engine.
//!
//! Each kernel multiplies a row of one 16-bit operand by one value of the
//! other and accumulates the *rounded, shifted* products into 32-bit
//! lanes: `acc[j] += (row[j·step] · v + half) >> shift`. The row is either
//! a tile's weights along its output channels (times one input value) or
//! a row of input values along its output columns (times one weight); the
//! product commutes, so one kernel serves both lane axes. The shift and
//! rounding happen per product, exactly as the scalar engine does, so the
//! blocked engine stays bit-identical while the compiler gets a
//! branch-free, contiguous loop it can autovectorize.

/// Unit-stride row MAC: `acc[j] += (row[j] · v + half) >> shift`.
///
/// `shift` must be in `0..=30` and `half` must be the matching rounding
/// constant (`1 << (shift - 1)`, or `0` when `shift == 0`); the caller
/// guarantees the accumulators cannot overflow (bounded term count).
#[inline]
pub(crate) fn mac_row(acc: &mut [i32], row: &[i16], v: i16, shift: u32, half: i32) {
    debug_assert_eq!(acc.len(), row.len());
    let v = i32::from(v);
    for (a, &x) in acc.iter_mut().zip(row) {
        *a += (i32::from(x) * v + half) >> shift;
    }
}

/// Strided row MAC: `acc[j] += (row[j · step] · v + half) >> shift`.
///
/// Used for output-column lanes when the layer stride exceeds 1, so
/// consecutive output columns sample non-adjacent input columns. Same
/// contract as [`mac_row`].
#[inline]
pub(crate) fn mac_row_strided(
    acc: &mut [i32],
    row: &[i16],
    step: usize,
    v: i16,
    shift: u32,
    half: i32,
) {
    debug_assert!(acc.is_empty() || (acc.len() - 1) * step < row.len());
    let v = i32::from(v);
    for (j, a) in acc.iter_mut().enumerate() {
        *a += (i32::from(row[j * step]) * v + half) >> shift;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(acc: &mut [i32], xs: &[i16], step: usize, w: i16, shift: u32, half: i32) {
        for (j, a) in acc.iter_mut().enumerate() {
            *a += (i32::from(xs[j * step]) * i32::from(w) + half) >> shift;
        }
    }

    #[test]
    fn unit_stride_matches_reference_across_lane_counts() {
        // Lane counts straddling typical vector widths, extreme operands
        // included.
        let xs: Vec<i16> = (0..37)
            .map(|i| [i16::MIN, -3, 0, 1, 7, i16::MAX][i % 6].wrapping_add(i as i16))
            .collect();
        for n in [0usize, 1, 7, 8, 9, 16, 23, 37] {
            for (w, shift) in [(i16::MAX, 12u32), (i16::MIN, 12), (-77, 1), (13, 0), (255, 30)] {
                let half = if shift > 0 { 1i32 << (shift - 1) } else { 0 };
                let mut got = vec![5i32; n];
                let mut want = got.clone();
                mac_row(&mut got, &xs[..n], w, shift, half);
                reference(&mut want, &xs[..n], 1, w, shift, half);
                assert_eq!(got, want, "n={n} w={w} shift={shift}");
            }
        }
    }

    #[test]
    fn strided_matches_reference() {
        let xs: Vec<i16> = (0..64).map(|i| (i * 1021 % 4093) as i16 - 2046).collect();
        for step in [2usize, 3, 4] {
            let n = (xs.len() - 1) / step + 1;
            let mut got = vec![-9i32; n];
            let mut want = got.clone();
            mac_row_strided(&mut got, &xs, step, -1234, 12, 1 << 11);
            reference(&mut want, &xs, step, -1234, 12, 1 << 11);
            assert_eq!(got, want, "step={step}");
        }
    }
}
