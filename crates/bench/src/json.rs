//! Minimal JSON parser and structural differ for the bench-regression
//! gate (`exp_bench_diff`).
//!
//! Numbers are kept as their *raw source literals*, so the strict policy
//! can demand byte-identical spelling (the repo's `BENCH_*.json`
//! artifacts are byte-deterministic by contract), while the
//! timing-quarantined policy reparses them as `f64` and applies a
//! relative noise band. No external crates: the gate must run in the
//! offline container.

/// A parsed JSON value. Objects keep source key order; numbers and
/// strings keep their raw source spelling (strings without the quotes,
/// escapes left as written).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source literal (e.g. `"1e-9"`, `"42"`).
    Num(String),
    /// A string, raw (escapes untouched, quotes stripped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document; trailing non-whitespace is an
    /// error. Error strings carry a byte offset for context.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// A short type label for diff messages.
    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.i < self.s.len() && self.s[self.i] == b {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.i;
        while self.i < self.s.len() {
            match self.s[self.i] {
                b'"' => {
                    let raw = std::str::from_utf8(&self.s[start..self.i])
                        .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?
                        .to_string();
                    self.i += 1;
                    return Ok(raw);
                }
                b'\\' => self.i += 2,
                _ => self.i += 1,
            }
        }
        Err(format!("unterminated string at byte {start}"))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(self.s[self.i], b'-' | b'+' | b'.' | b'0'..=b'9' | b'e' | b'E')
                {
                    self.i += 1;
                }
                if self.i == start {
                    return Err(format!("unexpected byte {} at {}", self.s[start], start));
                }
                let raw = std::str::from_utf8(&self.s[start..self.i]).unwrap().to_string();
                raw.parse::<f64>().map_err(|_| format!("bad number {raw:?} at byte {start}"))?;
                Ok(Json::Num(raw))
            }
        }
    }
}

/// How [`diff`] compares numeric leaves.
#[derive(Debug, Clone, Copy)]
pub enum NumericPolicy {
    /// Raw literals must match byte for byte — for artifacts that are
    /// byte-deterministic by contract.
    Exact,
    /// Values reparse as `f64`; the candidate must be finite and, when
    /// the absolute difference exceeds 1e-9, within `factor`x of the
    /// baseline with the same sign — for wall-clock timing artifacts
    /// where only the order of magnitude is stable. Leaves under one of
    /// the `counters` keys are work counts, not timings, and compare as
    /// [`NumericPolicy::Exact`] does.
    Band {
        /// Allowed multiplicative drift in either direction.
        factor: f64,
        /// Object keys whose numeric values must match exactly.
        counters: &'static [&'static str],
    },
}

/// Structurally compares `new` against `base`, appending one
/// human-readable line per difference (path, expectation, actual).
/// Structure — key sets, array lengths, value types, booleans, strings —
/// is always strict; only numeric leaves follow `policy`.
pub fn diff(base: &Json, new: &Json, policy: NumericPolicy) -> Vec<String> {
    let mut out = Vec::new();
    walk(base, new, policy, "$", &mut out);
    out
}

fn walk(base: &Json, new: &Json, policy: NumericPolicy, path: &str, out: &mut Vec<String>) {
    match (base, new) {
        (Json::Num(b), Json::Num(n)) => match policy {
            NumericPolicy::Band { counters, .. }
                if path.rsplit_once('.').is_some_and(|(_, key)| counters.contains(&key)) =>
            {
                if b != n {
                    out.push(format!("{path}: work counter expected {b}, got {n}"));
                }
            }
            NumericPolicy::Exact => {
                if b != n {
                    out.push(format!("{path}: expected {b}, got {n}"));
                }
            }
            NumericPolicy::Band { factor, .. } => {
                // Both literals parsed as f64 at parse time.
                let (bv, nv) = (b.parse::<f64>().unwrap(), n.parse::<f64>().unwrap());
                if !in_band(bv, nv, factor) {
                    out.push(format!("{path}: {n} outside {factor}x noise band of baseline {b}"));
                }
            }
        },
        (Json::Bool(b), Json::Bool(n)) => {
            if b != n {
                out.push(format!("{path}: expected {b}, got {n}"));
            }
        }
        (Json::Str(b), Json::Str(n)) => {
            if b != n {
                out.push(format!("{path}: expected {b:?}, got {n:?}"));
            }
        }
        (Json::Null, Json::Null) => {}
        (Json::Arr(b), Json::Arr(n)) => {
            if b.len() != n.len() {
                out.push(format!("{path}: array length {} vs baseline {}", n.len(), b.len()));
                return;
            }
            for (i, (bi, ni)) in b.iter().zip(n).enumerate() {
                walk(bi, ni, policy, &format!("{path}[{i}]"), out);
            }
        }
        (Json::Obj(b), Json::Obj(n)) => {
            for (k, bv) in b {
                match n.iter().find(|(nk, _)| nk == k) {
                    Some((_, nv)) => walk(bv, nv, policy, &format!("{path}.{k}"), out),
                    None => out.push(format!("{path}.{k}: missing (present in baseline)")),
                }
            }
            for (k, _) in n {
                if !b.iter().any(|(bk, _)| bk == k) {
                    out.push(format!("{path}.{k}: unexpected (absent from baseline)"));
                }
            }
        }
        _ => out.push(format!("{path}: type {} vs baseline {}", new.kind(), base.kind())),
    }
}

/// The timing band: finite, near-equal absolute values always pass;
/// otherwise sign must agree and the magnitude ratio stay in
/// `[1/factor, factor]`. A zero baseline accepts any finite value (a
/// timer that measured nothing once may measure a little next run).
fn in_band(base: f64, new: f64, factor: f64) -> bool {
    if !new.is_finite() || !base.is_finite() {
        return false;
    }
    if (base - new).abs() <= 1e-9 || base == 0.0 {
        return true;
    }
    let ratio = new / base;
    ratio.is_finite() && ratio > 0.0 && (1.0 / factor..=factor).contains(&ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"a": 1, "b": [1.5e-3, true, "x\"y"], "c": {"d": null}}"#;

    #[test]
    fn parses_and_preserves_raw_literals() {
        let v = Json::parse(SAMPLE).unwrap();
        let Json::Obj(fields) = &v else { panic!("not an object") };
        assert_eq!(fields[0], ("a".into(), Json::Num("1".into())));
        let Json::Arr(items) = &fields[1].1 else { panic!("not an array") };
        assert_eq!(items[0], Json::Num("1.5e-3".into()));
        assert_eq!(items[2], Json::Str("x\\\"y".into()));
        assert_eq!(fields[2].1, Json::Obj(vec![("d".into(), Json::Null)]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "\"open", "{\"a\" 1}", "12 34", "nul", "1e", ""] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn exact_policy_flags_any_literal_change() {
        let a = Json::parse(r#"{"x": 1.50}"#).unwrap();
        let b = Json::parse(r#"{"x": 1.5}"#).unwrap();
        // Same value, different spelling: strict artifacts are
        // byte-deterministic, so spelling drift is a regression.
        assert_eq!(diff(&a, &b, NumericPolicy::Exact).len(), 1);
        assert!(diff(&a, &a, NumericPolicy::Exact).is_empty());
    }

    #[test]
    fn band_policy_tolerates_timing_noise_but_not_structure() {
        let band = NumericPolicy::Band { factor: 100.0, counters: &[] };
        let base = Json::parse(r#"{"ms": 5.0, "ok": true}"#).unwrap();
        let noisy = Json::parse(r#"{"ms": 71.2, "ok": true}"#).unwrap();
        assert!(diff(&base, &noisy, band).is_empty());
        let wild = Json::parse(r#"{"ms": 50000.0, "ok": true}"#).unwrap();
        assert_eq!(diff(&base, &wild, band).len(), 1);
        let flipped = Json::parse(r#"{"ms": 5.0, "ok": false}"#).unwrap();
        assert_eq!(diff(&base, &flipped, band).len(), 1, "bools stay strict");
        let reshaped = Json::parse(r#"{"ms": [5.0], "ok": true}"#).unwrap();
        assert_eq!(diff(&base, &reshaped, band).len(), 1, "types stay strict");
    }

    #[test]
    fn band_policy_counters_compare_exactly() {
        let band = NumericPolicy::Band { factor: 100.0, counters: &["misses"] };
        let base = Json::parse(r#"{"ms": 5.0, "misses": 786, "runs": [{"misses": 3}]}"#).unwrap();
        let noisy = Json::parse(r#"{"ms": 9.0, "misses": 786, "runs": [{"misses": 3}]}"#).unwrap();
        assert!(diff(&base, &noisy, band).is_empty());
        let moved = Json::parse(r#"{"ms": 5.0, "misses": 787, "runs": [{"misses": 4}]}"#).unwrap();
        let d = diff(&base, &moved, band);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].starts_with("$.misses: work counter"), "{d:?}");
        assert!(d[1].starts_with("$.runs[0].misses: work counter"), "{d:?}");
    }

    #[test]
    fn object_key_drift_is_reported_both_ways() {
        let a = Json::parse(r#"{"keep": 1, "lost": 2}"#).unwrap();
        let b = Json::parse(r#"{"keep": 1, "added": 3}"#).unwrap();
        let d = diff(&a, &b, NumericPolicy::Exact);
        assert_eq!(d.len(), 2);
        assert!(d[0].contains("lost") && d[0].contains("missing"));
        assert!(d[1].contains("added") && d[1].contains("unexpected"));
    }

    #[test]
    fn zero_and_near_equal_baselines_pass_the_band() {
        assert!(in_band(0.0, 123.0, 10.0));
        assert!(in_band(1e-10, 2e-10, 1.5));
        assert!(!in_band(5.0, -5.0, 100.0), "sign flips never pass");
        assert!(!in_band(5.0, f64::NAN, 100.0));
    }
}
