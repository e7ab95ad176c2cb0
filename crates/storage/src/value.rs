//! Runtime values stored in tables and produced by query evaluation.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A single cell value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float (also used for NUMBER/DECIMAL).
    Float(f64),
    /// Text value.
    Text(String),
    /// Boolean value.
    Bool(bool),
    /// Date stored as days since the Unix epoch.
    Date(i64),
    /// Timestamp stored as seconds since the Unix epoch.
    Timestamp(i64),
}

impl Value {
    /// Is this the NULL value?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Coerce to a float for arithmetic, if numeric (dates/timestamps count
    /// as numeric so range predicates over them work).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Date(d) => Some(*d as f64),
            Value::Timestamp(t) => Some(*t as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Coerce to an integer if exactly representable. Delegates to
    /// `Value::exact_int`, so an integral float outside `i64` range
    /// (`1e300`) returns `None` instead of silently saturating to
    /// `i64::MAX` the way a bare `as` cast would.
    pub fn as_i64(&self) -> Option<i64> {
        self.exact_int()
    }

    /// Borrow text content if this is a text value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Truthiness used by WHERE/HAVING evaluation (NULL is not true).
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Null => false,
            Value::Text(s) => !s.is_empty(),
            Value::Date(_) | Value::Timestamp(_) => true,
        }
    }

    /// SQL-style equality: NULL compares as not-equal to everything,
    /// numeric types compare by value across Int/Float.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// The exact `i64` this numeric value represents, if it represents one:
    /// integers, dates, timestamps and booleans directly, and floats that
    /// are integral and within `i64` range (so `3.0` is exactly `3`, but
    /// `2.5`, `1e300` and NaN are not integers). Used by comparisons and
    /// hash keys so integer semantics never round through `f64`, and by the
    /// columnar engine's column-slice keys (which must coincide with
    /// [`Value::group_key`] equality without allocating the key string).
    pub(crate) fn exact_int(&self) -> Option<i64> {
        const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0; // 2^63, exact
        match self {
            Value::Int(i) => Some(*i),
            Value::Date(d) => Some(*d),
            Value::Timestamp(t) => Some(*t),
            Value::Bool(b) => Some(*b as i64),
            Value::Float(f) if f.fract() == 0.0 && *f >= -TWO_POW_63 && *f < TWO_POW_63 => {
                Some(*f as i64)
            }
            _ => None,
        }
    }

    /// Total ordering used for ORDER BY, grouping keys and MIN/MAX.
    /// NULLs sort first; values of different families sort by family.
    /// Integer-valued operands compare exactly as `i64` (no rounding
    /// through `f64`, which collapses distinct integers above 2^53), and a
    /// mixed integer/float pair compares the float against the exact
    /// integer — so equality coincides with [`Value::group_key`] equality
    /// everywhere (NaN excepted) and the ordering stays transitive even at
    /// the 2^63 boundary.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn family(v: &Value) -> u8 {
            match v {
                Null => 0,
                Int(_) | Float(_) | Date(_) | Timestamp(_) | Bool(_) => 1,
                Text(_) => 2,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Text(a), Text(b)) => a.cmp(b),
            _ => {
                let (fa, fb) = (family(self), family(other));
                if fa != fb {
                    return fa.cmp(&fb);
                }
                match (self.exact_int(), other.exact_int()) {
                    (Some(a), Some(b)) => a.cmp(&b),
                    // A non-exact numeric is always a Float, so as_f64 is Some.
                    (Some(a), None) => cmp_int_float(a, other.as_f64().unwrap_or(f64::NAN)),
                    (None, Some(b)) => {
                        cmp_int_float(b, self.as_f64().unwrap_or(f64::NAN)).reverse()
                    }
                    (None, None) => match (self.as_f64(), other.as_f64()) {
                        (Some(a), Some(b)) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
                        _ => Ordering::Equal,
                    },
                }
            }
        }
    }

    /// A canonical key string used for grouping, DISTINCT and set operations.
    /// Integer-valued numerics (including `3.0`, and `-0.0` folded into `0`)
    /// are encoded exactly as `i64` so `1` and `1.0` group together without
    /// distinct large integers colliding through `f64` formatting; other
    /// floats use their shortest round-trip decimal form.
    pub fn group_key(&self) -> String {
        match self {
            Value::Null => "\u{0}NULL".to_string(),
            Value::Text(s) => format!("t:{s}"),
            other => match other.exact_int() {
                Some(i) => format!("i:{i}"),
                None => format!("f:{}", other.as_f64().unwrap_or(f64::NAN)),
            },
        }
    }
}

/// Exact `i64` vs `f64` comparison used by [`Value::total_cmp`] and the
/// columnar comparison kernels. `b` is assumed *not* to be an integer in
/// `i64` range (that is the exact-int path); NaN compares Equal, preserving
/// the engine's long-standing NaN quirk.
pub(crate) fn cmp_int_float(a: i64, b: f64) -> Ordering {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if b.is_nan() {
        return Ordering::Equal;
    }
    if b >= TWO_POW_63 {
        return Ordering::Less;
    }
    if b < -TWO_POW_63 {
        return Ordering::Greater;
    }
    // |b| < 2^63, so its truncation converts to i64 exactly.
    let truncated = b.trunc() as i64;
    match a.cmp(&truncated) {
        Ordering::Equal if b.fract() > 0.0 => Ordering::Less,
        Ordering::Equal if b.fract() < 0.0 => Ordering::Greater,
        ord => ord,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Null, _) | (_, Value::Null) => false,
            _ => self.total_cmp(other) == Ordering::Equal,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{:.1}", v)
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
            Value::Date(d) => write!(f, "DATE({d})"),
            Value::Timestamp(t) => write!(f, "TS({t})"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Evaluate a SQL `LIKE` pattern (`%` = any run of characters, `_` = any
/// single character). Matching is case-sensitive, mirroring most production
/// dialects, and operates on **characters**, not bytes, so `_` consumes one
/// whole multi-byte UTF-8 character.
///
/// The matcher is an iterative two-pointer scan with a single `%` backtrack
/// point: when a mismatch occurs, only the **most recent** `%` is retried,
/// one character further into the text. An earlier `%` never needs
/// revisiting — anything a retry of it could match is already reachable by
/// retrying the later `%` — so the worst case is O(text × pattern) instead
/// of the exponential blowup (and recursion-depth stack risk) of the old
/// recursive backtracker on `%a%a%a…`-style patterns. Shared by the legacy
/// interpreter, the planned engine's per-row evaluator and its columnar
/// LIKE kernel (`PhysExpr::{eval, eval_batch}` and `Executor` all call this
/// function).
pub fn like_match(text: &str, pattern: &str) -> bool {
    let (t, p) = (text, pattern);
    // Byte cursors into `t` and `p`, always on character boundaries.
    let mut ti = 0;
    let mut pi = 0;
    // The single backtrack point: (pattern cursor just past the most
    // recent '%', text cursor where that '%' should next resume).
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        match p[pi..].chars().next() {
            Some('%') => {
                pi += 1;
                // '%' first tries to match zero characters.
                star = Some((pi, ti));
                continue;
            }
            Some(pc) => {
                let tc = t[ti..].chars().next().expect("ti < t.len()");
                if pc == '_' || pc == tc {
                    pi += pc.len_utf8();
                    ti += tc.len_utf8();
                    continue;
                }
            }
            None => {}
        }
        // Mismatch (or pattern exhausted with text remaining): grow the
        // most recent '%' by one character and retry, or fail for good.
        match star {
            Some((star_pi, star_ti)) => {
                let skipped = t[star_ti..].chars().next().expect("star_ti < t.len()");
                let resume = star_ti + skipped.len_utf8();
                star = Some((star_pi, resume));
                pi = star_pi;
                ti = resume;
            }
            None => return false,
        }
    }
    // Text consumed: the remaining pattern must be all '%'.
    p[pi..].chars().all(|c| c == '%')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_behaviour() {
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert!(!Value::Null.is_truthy());
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(Value::Int(3).sql_eq(&Value::Float(3.0)), Some(true));
        assert_eq!(Value::Int(3).group_key(), Value::Float(3.0).group_key());
    }

    #[test]
    fn ordering_families() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(
            Value::Int(5).total_cmp(&Value::Text("a".into())),
            Ordering::Less
        );
        assert_eq!(
            Value::Text("abc".into()).total_cmp(&Value::Text("abd".into())),
            Ordering::Less
        );
        assert_eq!(
            Value::Float(2.5).total_cmp(&Value::Int(2)),
            Ordering::Greater
        );
    }

    #[test]
    fn large_integers_compare_exactly() {
        // Through f64 these are indistinguishable; exact i64 must order them.
        let a = Value::Int(1i64 << 53);
        let b = Value::Int((1i64 << 53) + 1);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_ne!(a, b);
        assert_eq!(
            Value::Int(i64::MAX).total_cmp(&Value::Int(i64::MIN)),
            Ordering::Greater
        );
        // Integral floats still equal their integer counterparts...
        assert_eq!(Value::Float(3.0).total_cmp(&Value::Int(3)), Ordering::Equal);
        // ...and -0.0 equals (and groups with) 0.
        assert_eq!(
            Value::Float(-0.0).total_cmp(&Value::Int(0)),
            Ordering::Equal
        );
        assert_eq!(Value::Float(-0.0).group_key(), Value::Int(0).group_key());
        // Non-integral and out-of-range floats keep f64 ordering.
        assert_eq!(
            Value::Float(1e300).total_cmp(&Value::Int(i64::MAX)),
            Ordering::Greater
        );
        // At the 2^63 boundary a float no longer rounds into equality with
        // i64::MAX: comparison agrees with key equality (both "not equal").
        let two_pow_63 = Value::Float(9_223_372_036_854_775_808.0);
        assert_eq!(Value::Int(i64::MAX).total_cmp(&two_pow_63), Ordering::Less);
        assert_ne!(Value::Int(i64::MAX).group_key(), two_pow_63.group_key());
        assert_eq!(
            two_pow_63.total_cmp(&Value::Int(i64::MAX)),
            Ordering::Greater
        );
        // Mixed fractional comparisons are exact around large integers.
        assert_eq!(
            Value::Int((1i64 << 53) + 1).total_cmp(&Value::Float((1i64 << 53) as f64 + 0.5)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Int(-5).total_cmp(&Value::Float(-5.5)),
            Ordering::Greater
        );
        assert_eq!(Value::Int(5).total_cmp(&Value::Float(5.5)), Ordering::Less);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64).as_f64(), Some(3.0));
        assert_eq!(Value::from(2.5).as_i64(), None);
        assert_eq!(Value::from(2.0).as_i64(), Some(2));
        // Integral but outside i64 range: must not saturate to i64::MAX.
        assert_eq!(Value::from(1e300).as_i64(), None);
        assert_eq!(Value::from(-1e300).as_i64(), None);
        assert_eq!(Value::from(f64::NAN).as_i64(), None);
        assert_eq!(Value::from("x").as_text(), Some("x"));
        assert_eq!(Value::from(true).as_i64(), Some(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Text("hi".into()).to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("BENCH", "B%"));
        assert!(like_match("BENCH", "%NCH"));
        assert!(like_match("BENCH", "B_NCH"));
        assert!(like_match("BENCH", "%"));
        assert!(!like_match("BENCH", "b%"));
        assert!(!like_match("BENCH", "B_CH"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
        // Multiple '%' runs and '%' adjacency.
        assert!(like_match("BENCH", "%%"));
        assert!(like_match("BENCH", "B%%H"));
        assert!(like_match("abcabc", "%abc"));
        assert!(!like_match("abcabd", "%abc"));
        assert!(like_match("mississippi", "%iss%ppi"));
        assert!(!like_match("mississippi", "%iss%ppx"));
        // The single-backtrack point must retry the *latest* '%': the
        // first "is" candidate after each '%' is not always the right one.
        assert!(like_match("mississippi", "m%is%sip%"));
        assert!(like_match("aab", "%a_b"));
    }

    #[test]
    fn like_underscore_consumes_whole_utf8_chars() {
        // '_' is one character, not one byte: 'é' is 2 bytes, '魚' is 3.
        assert!(like_match("é", "_"));
        assert!(!like_match("é", "__"));
        assert!(like_match("魚", "_"));
        assert!(like_match("caffé", "caff_"));
        assert!(like_match("caffé", "c_ff_"));
        assert!(!like_match("caffé", "caff__"));
        // Literal multi-byte characters still match themselves...
        assert!(like_match("caffé", "caffé"));
        assert!(like_match("caffé", "%é"));
        // ...and '%' runs are byte-boundary safe around them.
        assert!(like_match("魚と米", "魚%米"));
        assert!(like_match("魚と米", "_と_"));
        assert!(!like_match("魚と米", "魚%肉"));
    }

    /// The old recursive byte-wise matcher was exponential on
    /// `%a%a%a…`-style patterns over all-'a' text (each '%' scanned every
    /// suffix). The iterative matcher is O(text × pattern); this watchdog
    /// fails within the timebox instead of hanging the whole suite if the
    /// matcher ever regresses to super-polynomial behavior.
    #[test]
    fn pathological_like_patterns_complete_within_timebox() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let text = "a".repeat(4_000);
            let miss = format!("{}b", "%a".repeat(40));
            let hit = "%a".repeat(40).to_string() + "%";
            let underscores = format!("{}%", "_".repeat(500));
            let results = (
                like_match(&text, &miss),
                like_match(&text, &hit),
                like_match(&text, &underscores),
                // Deep recursion risk of the old matcher: a very long
                // pattern of literals must not overflow the stack.
                like_match(&text, &"a".repeat(4_000)),
            );
            tx.send(results).ok();
        });
        let (miss, hit, underscores, literal) = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("LIKE matcher exceeded the timebox: exponential/hanging regression");
        assert!(!miss, "no 'b' in the text");
        assert!(hit);
        assert!(underscores);
        assert!(literal);
    }
}
