//! Inner MAC kernels of the blocked functional engine.
//!
//! Every kernel accumulates *rounded, shifted* products of two 16-bit
//! operands into 32-bit lanes: `(a · b + half) >> shift` per product,
//! exactly as the scalar engine rounds, so the blocked engine stays
//! bit-identical while the compiler gets branch-free, contiguous loops it
//! can autovectorize. One operand comes as a row of lane values, the other
//! as one value broadcast across the lanes; the product commutes, so the
//! same kernels serve both lane axes (a tile's output channels over its
//! transposed weights, or an output row's columns over a row of inputs).
//!
//! Both kernels are register-blocked: they run `n` reduction steps on
//! accumulators the caller keeps in a local array, so the lanes stay in
//! registers for a whole reduction instead of being loaded and stored at
//! every step. [`mac_lanes16`] is the 16-lane body (the PE array's rows);
//! [`mac_lanes`] takes any width and a lane stride, for narrower blocks
//! and strided columns. A whole reduction must fit one 32-bit run: a layer
//! call whose reductions are longer runs the scalar engine's reference
//! tile instead of these kernels.

/// Lanes of the fixed-width micro-kernel.
pub(crate) const LANES: usize = 16;

/// The register-blocked 16-lane micro-kernel: for each step `t < n`,
/// `acc[j] += (rows[t·row_step + j] · scalars[t·scalar_step] + half) >> shift`.
///
/// `shift` must be in `0..=30` and `half` must be the matching rounding
/// constant (`1 << (shift - 1)`, or `0` when `shift == 0`); the caller
/// guarantees the `n` steps cannot overflow a lane.
#[allow(clippy::too_many_arguments)] // two strided operands, the step count and the rounding
#[inline]
pub(crate) fn mac_lanes16(
    acc: &mut [i32; LANES],
    rows: &[i16],
    row_step: usize,
    scalars: &[i16],
    scalar_step: usize,
    n: usize,
    shift: u32,
    half: i32,
) {
    // A local copy the optimizer can keep in registers for all n steps.
    let mut lanes = *acc;
    for t in 0..n {
        let row: &[i16; LANES] = rows[t * row_step..][..LANES].try_into().expect("16 lanes");
        let x = i32::from(scalars[t * scalar_step]);
        for (a, &r) in lanes.iter_mut().zip(row) {
            *a += (i32::from(r) * x + half) >> shift;
        }
    }
    *acc = lanes;
}

/// [`mac_lanes16`] for any lane count, with lanes `lane_step` apart in
/// each row: `acc[j] += (rows[t·row_step + j·lane_step] ·
/// scalars[t·scalar_step] + half) >> shift`. Same contract.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn mac_lanes(
    acc: &mut [i32],
    rows: &[i16],
    lane_step: usize,
    row_step: usize,
    scalars: &[i16],
    scalar_step: usize,
    n: usize,
    shift: u32,
    half: i32,
) {
    for t in 0..n {
        let row = &rows[t * row_step..];
        let x = i32::from(scalars[t * scalar_step]);
        for (j, a) in acc.iter_mut().enumerate() {
            *a += (i32::from(row[j * lane_step]) * x + half) >> shift;
        }
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

    /// Operands straddling the extremes, deterministic in `i`.
    fn operand(i: usize) -> i16 {
        [i16::MIN, -3, 0, 1, 7, i16::MAX][i % 6].wrapping_add((i * 31 % 97) as i16)
    }

    #[test]
    fn one_step_matches_reference_across_lane_counts() {
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
                mac_lanes(&mut got, &xs[..n], 1, 0, &[w], 0, 1, shift, half);
                reference(&mut want, &xs[..n], 1, w, shift, half);
                assert_eq!(got, want, "n={n} w={w} shift={shift}");
            }
        }
    }

    #[test]
    fn strided_step_matches_reference() {
        let xs: Vec<i16> = (0..64).map(|i| (i * 1021 % 4093) as i16 - 2046).collect();
        for step in [2usize, 3, 4] {
            let n = (xs.len() - 1) / step + 1;
            let mut got = vec![-9i32; n];
            let mut want = got.clone();
            mac_lanes(&mut got, &xs, step, 0, &[-1234], 0, 1, 12, 1 << 11);
            reference(&mut want, &xs, step, -1234, 12, 1 << 11);
            assert_eq!(got, want, "step={step}");
        }
    }

    #[test]
    fn micro_kernels_match_one_step_at_a_time() {
        // Strided rows and scalars, extreme operands, every shift the lane
        // path takes.
        let rows: Vec<i16> = (0..400).map(operand).collect();
        let scalars: Vec<i16> = (0..90).map(|i| operand(i * 7 + 3)).collect();
        for (shift, steps) in [(1u32, 1usize), (4, 5), (12, 9), (30, 9)] {
            let half = 1i32 << (shift - 1);
            for (row_step, scalar_step) in [(16usize, 1usize), (21, 9), (40, 2)] {
                let mut want = [-3i32; LANES];
                for t in 0..steps {
                    let (row, x) = (&rows[t * row_step..], scalars[t * scalar_step]);
                    reference(&mut want, row, 1, x, shift, half);
                }
                let mut got = [-3i32; LANES];
                mac_lanes16(&mut got, &rows, row_step, &scalars, scalar_step, steps, shift, half);
                assert_eq!(got, want, "shift {shift} steps {steps} row_step {row_step}");
                for (width, lane_step) in [(LANES, 1usize), (5, 1), (7, 2), (3, 3)] {
                    let mut want = vec![11i32; width];
                    for t in 0..steps {
                        let (row, x) = (&rows[t * row_step..], scalars[t * scalar_step]);
                        reference(&mut want, row, lane_step, x, shift, half);
                    }
                    let mut got = vec![11i32; width];
                    mac_lanes(
                        &mut got,
                        &rows,
                        lane_step,
                        row_step,
                        &scalars,
                        scalar_step,
                        steps,
                        shift,
                        half,
                    );
                    assert_eq!(got, want, "width {width} lane_step {lane_step} shift {shift}");
                }
            }
        }
    }
}
