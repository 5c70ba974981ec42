//! The one module that knows JSON syntax.
//!
//! Every deterministic report in the workspace serializes through these
//! helpers: [`json_string`] and [`json_f64`] for scalars, [`Obj`] for a
//! compact object, [`array()`] for a compact array and [`Pretty`] for the
//! two-level indented layout of the telemetry and metrics snapshots.
//! Keys keep insertion order and floats use shortest-round-trip
//! formatting, so equal input always gives equal bytes.
//!
//! ```
//! use rana_trace::json::{array, Obj};
//!
//! let json = Obj::new()
//!     .str("design", "RANA*(E-5)")
//!     .f64("rate_rps", 1.5)
//!     .raw("seed", 17)
//!     .raw("tiling", array([16, 16, 1, 16]))
//!     .finish();
//! assert_eq!(json, r#"{"design":"RANA*(E-5)","rate_rps":1.5,"seed":17,"tiling":[16,16,1,16]}"#);
//! ```

use std::fmt::{Display, Write as _};

/// JSON string literal with the standard escapes (control characters
/// without a short escape become `\u00XX`).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Shortest-round-trip JSON number for an `f64` (`null` for non-finite
/// values, which JSON cannot represent).
pub fn json_f64(x: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, x);
    out
}

/// `null` for `None`, the value's `Display` form otherwise.
pub fn json_opt(v: Option<impl Display>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// A compact JSON array of already-serialized items: `[a,b,c]`.
pub fn array<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{item}");
    }
    out.push(']');
    out
}

fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// A compact JSON object under construction; keys keep insertion order.
#[must_use]
#[derive(Debug)]
pub struct Obj(String);

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self(String::from("{"))
    }

    /// Adds `"key":"value"`, escaping the value.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        push_string(&mut self.0, value);
        self
    }

    /// Adds `"key":<number>` ([`json_f64`] spelling).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        push_f64(&mut self.0, value);
        self
    }

    /// Adds `"key":<value>` with `value` written verbatim: an integer, a
    /// bool, a fixed-decimal number or nested JSON.
    pub fn raw(mut self, key: &str, value: impl Display) -> Self {
        self.key(key);
        let _ = write!(self.0, "{value}");
        self
    }

    /// Closes the object.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }

    fn key(&mut self, key: &str) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        push_string(&mut self.0, key);
        self.0.push(':');
    }
}

/// The two-level indented layout of the telemetry and metrics snapshots:
/// one top-level entry per line, and each [`Pretty::map`] with one entry
/// per line (an empty map stays `{}`).
///
/// ```
/// use rana_trace::json::Pretty;
///
/// let json = Pretty::new()
///     .raw("events", 2)
///     .map("counters", [("a", 1), ("b", 2)])
///     .map("spans", Vec::<(&str, u64)>::new())
///     .finish();
/// assert_eq!(
///     json,
///     "{\n  \"events\": 2,\n  \"counters\": {\n    \"a\": 1,\n    \"b\": 2\n  },\n  \"spans\": {}\n}"
/// );
/// ```
#[must_use]
#[derive(Debug)]
pub struct Pretty(String);

impl Default for Pretty {
    fn default() -> Self {
        Self::new()
    }
}

impl Pretty {
    /// An empty top-level object.
    pub fn new() -> Self {
        Self(String::from("{\n"))
    }

    /// Adds a top-level `"key": <value>` line, `value` written verbatim.
    pub fn raw(mut self, key: &str, value: impl Display) -> Self {
        self.key(key);
        let _ = write!(self.0, "{value}");
        self
    }

    /// Adds a top-level `"key": {…}` map with one `"k": <v>` line per
    /// entry, each `v` written verbatim.
    pub fn map<K: AsRef<str>, V: Display>(
        mut self,
        key: &str,
        entries: impl IntoIterator<Item = (K, V)>,
    ) -> Self {
        self.key(key);
        self.0.push('{');
        let mut empty = true;
        for (k, v) in entries {
            self.0.push_str(if empty { "\n    " } else { ",\n    " });
            push_string(&mut self.0, k.as_ref());
            let _ = write!(self.0, ": {v}");
            empty = false;
        }
        self.0.push_str(if empty { "}" } else { "\n  }" });
        self
    }

    /// Closes the top-level object.
    pub fn finish(mut self) -> String {
        self.0.push_str("\n}");
        self.0
    }

    fn key(&mut self, key: &str) {
        if self.0.len() > 2 {
            self.0.push_str(",\n");
        }
        self.0.push_str("  ");
        push_string(&mut self.0, key);
        self.0.push_str(": ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_apply_to_keys_and_values() {
        let j = Obj::new().str("a\"b\\c", "x\ny\r\tz\"").finish();
        assert_eq!(j, r#"{"a\"b\\c":"x\ny\r\tz\""}"#);
    }

    #[test]
    fn control_characters_use_unicode_escapes() {
        assert_eq!(json_string("\u{0}\u{1f}\u{7f}é"), "\"\\u0000\\u001f\u{7f}é\"");
    }

    #[test]
    fn non_finite_numbers_are_null() {
        let j = Obj::new()
            .f64("nan", f64::NAN)
            .f64("inf", f64::INFINITY)
            .f64("ninf", f64::NEG_INFINITY)
            .f64("x", -0.25)
            .finish();
        assert_eq!(j, r#"{"nan":null,"inf":null,"ninf":null,"x":-0.25}"#);
        assert_eq!(json_f64(1e-7), "0.0000001");
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(Obj::new().finish(), "{}");
        assert_eq!(array(Vec::<u8>::new()), "[]");
    }

    #[test]
    fn raw_values_nest_verbatim() {
        let inner = Obj::new().raw("n", 1).raw("ok", true).finish();
        let j = Obj::new()
            .raw("inner", &inner)
            .raw("list", array([inner.as_str(), "null"]))
            .raw("fixed", format!("{:.3}", 2.0))
            .raw("none", json_opt(None::<u8>))
            .raw("some", json_opt(Some(json_f64(0.5))))
            .finish();
        assert_eq!(
            j,
            r#"{"inner":{"n":1,"ok":true},"list":[{"n":1,"ok":true},null],"fixed":2.000,"none":null,"some":0.5}"#
        );
    }

    #[test]
    fn pretty_layout_with_empty_and_non_empty_maps() {
        let j = Pretty::new()
            .map("empty", Vec::<(String, u64)>::new())
            .map("full", [("k\"1", "{\"count\": 1}"), ("k2", "2")])
            .raw("last", 3)
            .finish();
        assert_eq!(
            j,
            "{\n  \"empty\": {},\n  \"full\": {\n    \"k\\\"1\": {\"count\": 1},\n    \
             \"k2\": 2\n  },\n  \"last\": 3\n}"
        );
    }
}
