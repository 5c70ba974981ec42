//! Signed 16-bit fixed-point values.
//!
//! A [`QFormat`] fixes the number of fractional bits `f` of a `Q(15-f).f`
//! signed value stored in an `i16`. [`Fixed`] pairs a raw word with its
//! format and provides the saturating arithmetic used by the accelerator's
//! 16-bit MAC datapath (Table III of the paper).

use std::fmt;

/// Number format of a signed 16-bit fixed-point value: `frac_bits` bits of
/// fraction, `15 - frac_bits` bits of integer magnitude plus a sign bit.
///
/// # Example
///
/// ```
/// use rana_fixq::QFormat;
/// let q = QFormat::new(12); // Q3.12
/// assert_eq!(q.resolution(), 1.0 / 4096.0);
/// assert_eq!(q.quantize(0.5), 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    frac_bits: u8,
}

impl QFormat {
    /// Creates a format with `frac_bits` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits > 15` (an `i16` has 15 magnitude bits).
    pub fn new(frac_bits: u8) -> Self {
        assert!(frac_bits <= 15, "an i16 Q-format has at most 15 fractional bits");
        Self { frac_bits }
    }

    /// Number of fractional bits.
    pub fn frac_bits(&self) -> u8 {
        self.frac_bits
    }

    /// Smallest representable positive step.
    pub fn resolution(&self) -> f64 {
        1.0 / self.scale()
    }

    /// Scale factor `2^frac_bits`.
    pub fn scale(&self) -> f64 {
        f64::from(1u32 << self.frac_bits)
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f64 {
        f64::from(i16::MAX) / self.scale()
    }

    /// Quantizes `x` to the nearest representable raw word, saturating at the
    /// format's range.
    pub fn quantize(&self, x: f64) -> i16 {
        let scaled = (x * self.scale()).round();
        if scaled >= f64::from(i16::MAX) {
            i16::MAX
        } else if scaled <= f64::from(i16::MIN) {
            i16::MIN
        } else {
            scaled as i16
        }
    }

    /// Converts a raw word back to a real value.
    pub fn dequantize(&self, raw: i16) -> f64 {
        f64::from(raw) / self.scale()
    }

    /// Picks the widest format (most fractional bits) that can represent
    /// `max_abs` without saturating. Falls back to `Q0.15` for values below
    /// the smallest step and to `Q15.0` for very large magnitudes.
    ///
    /// # Example
    ///
    /// ```
    /// use rana_fixq::QFormat;
    /// let q = QFormat::for_max_abs(3.2);
    /// assert!(q.max_value() >= 3.2);
    /// assert!(q.frac_bits() >= 12);
    /// ```
    pub fn for_max_abs(max_abs: f64) -> Self {
        let max_abs = max_abs.abs();
        for frac in (0..=15u8).rev() {
            let q = QFormat::new(frac);
            if q.max_value() >= max_abs {
                return q;
            }
        }
        QFormat::new(0)
    }
}

impl Default for QFormat {
    /// `Q7.8`, a reasonable default for CNN activations.
    fn default() -> Self {
        QFormat::new(8)
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", 15 - self.frac_bits, self.frac_bits)
    }
}

/// A signed 16-bit fixed-point value: a raw word interpreted under a
/// [`QFormat`].
///
/// Arithmetic saturates instead of wrapping, matching a hardware datapath
/// with saturation logic.
///
/// # Example
///
/// ```
/// use rana_fixq::{Fixed, QFormat};
/// let q = QFormat::new(8);
/// let a = Fixed::from_f64(1.25, q);
/// let b = Fixed::from_f64(2.0, q);
/// assert_eq!(a.saturating_mul(b).to_f64(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fixed {
    raw: i16,
    format: QFormat,
}

impl Fixed {
    /// Wraps a raw word in a format.
    pub fn from_raw(raw: i16, format: QFormat) -> Self {
        Self { raw, format }
    }

    /// Quantizes a real value.
    pub fn from_f64(x: f64, format: QFormat) -> Self {
        Self { raw: format.quantize(x), format }
    }

    /// The raw 16-bit word.
    pub fn raw(&self) -> i16 {
        self.raw
    }

    /// The format this word is interpreted under.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Real value of this word.
    pub fn to_f64(&self) -> f64 {
        self.format.dequantize(self.raw)
    }

    /// Saturating addition. Both operands must share a format.
    ///
    /// # Panics
    ///
    /// Panics if the formats differ.
    pub fn saturating_add(self, rhs: Fixed) -> Fixed {
        assert_eq!(self.format, rhs.format, "mismatched Q formats");
        Fixed::from_raw(self.raw.saturating_add(rhs.raw), self.format)
    }

    /// Saturating subtraction. Both operands must share a format.
    ///
    /// # Panics
    ///
    /// Panics if the formats differ.
    pub fn saturating_sub(self, rhs: Fixed) -> Fixed {
        assert_eq!(self.format, rhs.format, "mismatched Q formats");
        Fixed::from_raw(self.raw.saturating_sub(rhs.raw), self.format)
    }

    /// Saturating multiplication with rounding, producing a result in
    /// `self`'s format (the 32-bit product is rescaled by `rhs`'s fractional
    /// bits, as a hardware multiplier followed by a shifter would).
    pub fn saturating_mul(self, rhs: Fixed) -> Fixed {
        let product = i32::from(self.raw) * i32::from(rhs.raw);
        let shift = rhs.format.frac_bits();
        let rounded = round_shift(product, shift);
        Fixed::from_raw(saturate_i32(rounded), self.format)
    }

    /// The accelerator's multiply-accumulate: `acc + self * rhs`, with the
    /// product rescaled into `acc`'s format before the saturating add.
    ///
    /// ```
    /// use rana_fixq::{Fixed, QFormat};
    ///
    /// let q = QFormat::new(8);
    /// let (x, w) = (Fixed::from_f64(1.5, q), Fixed::from_f64(2.0, q));
    /// let acc = Fixed::from_f64(0.25, q);
    /// assert_eq!(x.mac(w, acc).to_f64(), 3.25); // 0.25 + 1.5 * 2.0
    /// ```
    pub fn mac(self, rhs: Fixed, acc: Fixed) -> Fixed {
        let product = i64::from(self.raw) * i64::from(rhs.raw);
        // Rescale the product (frac = self.f + rhs.f) into acc's format.
        let prod_frac = i32::from(self.format.frac_bits()) + i32::from(rhs.format.frac_bits());
        let shift = prod_frac - i32::from(acc.format.frac_bits());
        let rescaled = if shift >= 0 {
            round_shift64(product, shift as u32)
        } else {
            product.saturating_shl((-shift) as u32)
        };
        let sum = rescaled.saturating_add(i64::from(acc.raw));
        Fixed::from_raw(saturate_i64(sum), acc.format)
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.to_f64(), self.format)
    }
}

fn round_shift(x: i32, shift: u8) -> i32 {
    if shift == 0 {
        return x;
    }
    let half = 1i32 << (shift - 1);
    (x + half) >> shift
}

fn round_shift64(x: i64, shift: u32) -> i64 {
    if shift == 0 {
        return x;
    }
    let half = 1i64 << (shift - 1);
    (x + half) >> shift
}

fn saturate_i32(x: i32) -> i16 {
    x.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16
}

fn saturate_i64(x: i64) -> i16 {
    x.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for i64 {
    fn saturating_shl(self, shift: u32) -> Self {
        self.checked_shl(shift).unwrap_or(if self < 0 { i64::MIN } else { i64::MAX })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrip_exact_values() {
        let q = QFormat::new(8);
        for x in [-2.0, -0.5, 0.0, 0.25, 1.0, 100.0] {
            assert_eq!(q.dequantize(q.quantize(x)), x, "value {x} should be exact in Q7.8");
        }
    }

    #[test]
    fn quantize_saturates() {
        let q = QFormat::new(12);
        assert_eq!(q.quantize(1e9), i16::MAX);
        assert_eq!(q.quantize(-1e9), i16::MIN);
    }

    #[test]
    fn quantize_rounds_to_nearest() {
        let q = QFormat::new(8);
        // 0.001953125 = half a step in Q7.8; rounds away from zero.
        assert_eq!(q.quantize(0.001953125), 1);
        assert_eq!(q.quantize(0.0019), 0);
    }

    #[test]
    fn for_max_abs_picks_tightest_format() {
        assert_eq!(QFormat::for_max_abs(0.9).frac_bits(), 15);
        assert_eq!(QFormat::for_max_abs(1.0).frac_bits(), 14);
        assert_eq!(QFormat::for_max_abs(100.0).frac_bits(), 8);
        assert_eq!(QFormat::for_max_abs(0.0).frac_bits(), 15);
    }

    #[test]
    fn format_display() {
        assert_eq!(QFormat::new(8).to_string(), "Q7.8");
        assert_eq!(QFormat::new(15).to_string(), "Q0.15");
    }

    #[test]
    fn saturating_add_saturates() {
        let q = QFormat::new(0);
        let max = Fixed::from_raw(i16::MAX, q);
        let one = Fixed::from_raw(1, q);
        assert_eq!(max.saturating_add(one).raw(), i16::MAX);
    }

    #[test]
    fn mul_matches_real_arithmetic() {
        let q = QFormat::new(8);
        let a = Fixed::from_f64(1.5, q);
        let b = Fixed::from_f64(-2.25, q);
        assert!((a.saturating_mul(b).to_f64() - (-3.375)).abs() < q.resolution());
    }

    #[test]
    fn mac_accumulates() {
        let q = QFormat::new(8);
        let acc = Fixed::from_f64(10.0, q);
        let a = Fixed::from_f64(2.0, q);
        let b = Fixed::from_f64(3.0, q);
        assert!((a.mac(b, acc).to_f64() - 16.0).abs() < 2.0 * q.resolution());
    }

    #[test]
    fn mac_saturates_instead_of_wrapping() {
        let q = QFormat::new(0);
        let acc = Fixed::from_raw(i16::MAX - 1, q);
        let a = Fixed::from_raw(100, q);
        let b = Fixed::from_raw(100, q);
        assert_eq!(a.mac(b, acc).raw(), i16::MAX);
    }

    #[test]
    fn mac_mixed_formats() {
        let qa = QFormat::new(12);
        let qw = QFormat::new(14);
        let qo = QFormat::new(10);
        let a = Fixed::from_f64(1.0, qa);
        let w = Fixed::from_f64(0.5, qw);
        let acc = Fixed::from_f64(2.0, qo);
        assert!((a.mac(w, acc).to_f64() - 2.5).abs() < 2.0 * qo.resolution());
    }
}
