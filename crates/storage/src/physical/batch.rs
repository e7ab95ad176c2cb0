//! Typed columnar batches — the data representation of the columnar engine.
//!
//! A [`Batch`] holds a run of rows decoded into typed column vectors
//! ([`ColumnVec`]): `i64`/`f64`/`bool`/`String` payload vectors plus a
//! [`NullMask`] bitmap, with a heterogeneous [`ColumnVec::Any`] fallback for
//! columns that mix value families (CTE outputs, CASE results, per-row
//! fallback evaluation). Filters never copy data: they refine the batch's
//! **selection vector** (the ascending list of live physical row indices)
//! and leave the columns untouched. Operators that materialize (Project,
//! joins) produce dense batches with no selection.
//!
//! The module also provides the **column-slice keys** and the one hash
//! kernel built on them. [`KeyPart`] is the allocation-free canonical form
//! of one cell — its equality and hash coincide exactly with
//! [`Value::group_key`] string equality (integers, dates, timestamps and
//! booleans fold to exact `i64`, integral floats fold with them, `-0.0`
//! folds into `0`, NaNs are canonicalized) — so grouping and joining on
//! column slices is byte-compatible with the interpreter's string keys
//! without allocating a `String` per row. [`Grouping`] groups the rows of
//! one batch by such keys; GROUP BY, DISTINCT and both hash-join build
//! sides all use it, and a group's members are a selection vector.

use crate::sync::Arc;
use std::hash::{DefaultHasher, Hash, Hasher};

use crate::table::Row;
use crate::value::Value;

/// Physical rows per batch. Fixed, so batch boundaries — and therefore
/// evaluation order and error identity — never depend on the input.
pub(crate) const BATCH_ROWS: usize = 1024;

// ---------------------------------------------------------------------
// Null bitmap
// ---------------------------------------------------------------------

/// A bitmap of NULL positions (bit set = NULL), one bit per row.
#[derive(Debug, Clone, Default)]
pub(crate) struct NullMask {
    bits: Vec<u64>,
    len: usize,
}

impl NullMask {
    /// An all-valid mask for `len` rows.
    pub(crate) fn new(len: usize) -> Self {
        NullMask {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Mark row `i` NULL.
    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Append one row to the mask.
    #[inline]
    pub(crate) fn push(&mut self, null: bool) {
        if self.len.is_multiple_of(64) {
            self.bits.push(0);
        }
        if null {
            self.bits[self.len / 64] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }
}

// ---------------------------------------------------------------------
// Column vectors
// ---------------------------------------------------------------------

/// One column of a [`Batch`]: a typed payload vector plus a null bitmap,
/// or the heterogeneous `Any` fallback.
#[derive(Debug, Clone)]
pub(crate) enum ColumnVec {
    /// 64-bit integers.
    Int64(Vec<i64>, NullMask),
    /// 64-bit floats.
    Float64(Vec<f64>, NullMask),
    /// Booleans.
    Bool(Vec<bool>, NullMask),
    /// Text values.
    Text(Vec<String>, NullMask),
    /// Dates (days since epoch).
    Date(Vec<i64>, NullMask),
    /// Timestamps (seconds since epoch).
    Timestamp(Vec<i64>, NullMask),
    /// Mixed-family fallback: boxed values, NULLs inline.
    Any(Vec<Value>),
}

impl ColumnVec {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        match self {
            ColumnVec::Int64(v, _) | ColumnVec::Date(v, _) | ColumnVec::Timestamp(v, _) => v.len(),
            ColumnVec::Float64(v, _) => v.len(),
            ColumnVec::Bool(v, _) => v.len(),
            ColumnVec::Text(v, _) => v.len(),
            ColumnVec::Any(v) => v.len(),
        }
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub(crate) fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVec::Int64(_, m)
            | ColumnVec::Float64(_, m)
            | ColumnVec::Bool(_, m)
            | ColumnVec::Text(_, m)
            | ColumnVec::Date(_, m)
            | ColumnVec::Timestamp(_, m) => m.get(i),
            ColumnVec::Any(v) => v[i].is_null(),
        }
    }

    /// Materialize row `i` as a boxed [`Value`] (clones text).
    pub(crate) fn value(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int64(v, m) => {
                if m.get(i) {
                    Value::Null
                } else {
                    Value::Int(v[i])
                }
            }
            ColumnVec::Float64(v, m) => {
                if m.get(i) {
                    Value::Null
                } else {
                    Value::Float(v[i])
                }
            }
            ColumnVec::Bool(v, m) => {
                if m.get(i) {
                    Value::Null
                } else {
                    Value::Bool(v[i])
                }
            }
            ColumnVec::Text(v, m) => {
                if m.get(i) {
                    Value::Null
                } else {
                    Value::Text(v[i].clone())
                }
            }
            ColumnVec::Date(v, m) => {
                if m.get(i) {
                    Value::Null
                } else {
                    Value::Date(v[i])
                }
            }
            ColumnVec::Timestamp(v, m) => {
                if m.get(i) {
                    Value::Null
                } else {
                    Value::Timestamp(v[i])
                }
            }
            ColumnVec::Any(v) => v[i].clone(),
        }
    }

    /// The canonical key form of row `i`, allocation-free.
    #[inline]
    pub(crate) fn key_part(&self, i: usize) -> KeyPart<'_> {
        match self {
            ColumnVec::Int64(v, m) | ColumnVec::Date(v, m) | ColumnVec::Timestamp(v, m) => {
                if m.get(i) {
                    KeyPart::Null
                } else {
                    KeyPart::Int(v[i])
                }
            }
            ColumnVec::Float64(v, m) => {
                if m.get(i) {
                    KeyPart::Null
                } else {
                    KeyPart::from_f64(v[i])
                }
            }
            ColumnVec::Bool(v, m) => {
                if m.get(i) {
                    KeyPart::Null
                } else {
                    KeyPart::Int(i64::from(v[i]))
                }
            }
            ColumnVec::Text(v, m) => {
                if m.get(i) {
                    KeyPart::Null
                } else {
                    KeyPart::Text(&v[i])
                }
            }
            ColumnVec::Any(v) => KeyPart::from_value(&v[i]),
        }
    }

    /// A column of `n` copies of `value` (literal broadcast). Text
    /// literals clone per row — the same cost a per-row `Literal.eval`
    /// pays — until kernels grow a constant-column operand form.
    pub(crate) fn broadcast(value: &Value, n: usize) -> ColumnVec {
        let mut b = ColumnBuilder::with_capacity(n);
        for _ in 0..n {
            b.push_ref(value);
        }
        b.finish()
    }

    /// Decode a column from borrowed values.
    pub(crate) fn from_values<'a>(values: impl ExactSizeIterator<Item = &'a Value>) -> ColumnVec {
        let mut b = ColumnBuilder::with_capacity(values.len());
        for v in values {
            b.push_ref(v);
        }
        b.finish()
    }

    /// Decode one column of a row slice (column-pruned scans decode
    /// column-by-column instead of whole batches).
    pub(crate) fn from_rows_column(rows: &[Row], col: usize) -> ColumnVec {
        ColumnVec::from_values(rows.iter().map(move |r| r.get(col).unwrap_or(&Value::Null)))
    }

    /// Gather rows at `idx` into a new dense column of the same type.
    pub(crate) fn gather(&self, idx: &[u32]) -> ColumnVec {
        fn pick<T: Clone + Default>(v: &[T], m: &NullMask, idx: &[u32]) -> (Vec<T>, NullMask) {
            let mut out = Vec::with_capacity(idx.len());
            let mut mask = NullMask::new(idx.len());
            for (j, &i) in idx.iter().enumerate() {
                let i = ix(i);
                if m.get(i) {
                    mask.set(j);
                    out.push(T::default());
                } else {
                    out.push(v[i].clone());
                }
            }
            (out, mask)
        }
        match self {
            ColumnVec::Int64(v, m) => {
                let (o, mk) = pick(v, m, idx);
                ColumnVec::Int64(o, mk)
            }
            ColumnVec::Float64(v, m) => {
                let (o, mk) = pick(v, m, idx);
                ColumnVec::Float64(o, mk)
            }
            ColumnVec::Bool(v, m) => {
                let (o, mk) = pick(v, m, idx);
                ColumnVec::Bool(o, mk)
            }
            ColumnVec::Text(v, m) => {
                let (o, mk) = pick(v, m, idx);
                ColumnVec::Text(o, mk)
            }
            ColumnVec::Date(v, m) => {
                let (o, mk) = pick(v, m, idx);
                ColumnVec::Date(o, mk)
            }
            ColumnVec::Timestamp(v, m) => {
                let (o, mk) = pick(v, m, idx);
                ColumnVec::Timestamp(o, mk)
            }
            ColumnVec::Any(v) => ColumnVec::Any(idx.iter().map(|&i| v[ix(i)].clone()).collect()),
        }
    }

    /// Gather rows at `idx`, where [`PAD_NULL`] entries become NULL rows
    /// (outer-join padding).
    pub(crate) fn gather_padded(&self, idx: &[u32]) -> ColumnVec {
        if !idx.contains(&PAD_NULL) {
            return self.gather(idx);
        }
        let mut b = ColumnBuilder::with_capacity(idx.len());
        for &i in idx {
            if i == PAD_NULL {
                b.push(Value::Null);
            } else {
                b.push(self.value(ix(i)));
            }
        }
        b.finish()
    }
}

/// Sentinel gather index meaning "a NULL cell" (outer-join padding). Batches
/// are bounded by [`BATCH_ROWS`] and table sizes stay far below 2^32 rows.
pub(crate) const PAD_NULL: u32 = u32::MAX;

/// A `u32` row id as an index (lossless widening).
#[inline]
pub(crate) fn ix(id: u32) -> usize {
    id as usize
}

/// An index as a `u32` row id. Row counts stay below [`PAD_NULL`]: a
/// batch holds at most [`BATCH_ROWS`] rows, a flattened input the rows of
/// one table or join, far below 2^32.
#[inline]
pub(crate) fn row_id(i: usize) -> u32 {
    debug_assert!(i < ix(PAD_NULL), "row index {i} past the u32 row-id range");
    i as u32
}

/// Concatenate columns into one. A lone part passes through; parts of one
/// variant stitch their payload vectors, moving the payload of every part
/// no one else holds; mixed parts rebuild per value.
pub(crate) fn concat_columns(mut parts: Vec<Arc<ColumnVec>>) -> Arc<ColumnVec> {
    if parts.len() == 1 {
        return parts.swap_remove(0);
    }
    let one_variant = parts
        .windows(2)
        .all(|w| std::mem::discriminant(w[0].as_ref()) == std::mem::discriminant(w[1].as_ref()));
    if !one_variant {
        let mut builder = ColumnBuilder::with_capacity(parts.iter().map(|p| p.len()).sum());
        for part in &parts {
            (0..part.len()).for_each(|i| builder.push(part.value(i)));
        }
        return Arc::new(builder.finish());
    }
    let mut owned = parts.into_iter().map(Arc::unwrap_or_clone);
    let Some(mut out) = owned.next() else {
        return Arc::new(ColumnVec::Any(Vec::new()));
    };
    owned.for_each(|part| out.append(part));
    Arc::new(out)
}

impl ColumnVec {
    /// Append a column of the same variant, moving its payload.
    fn append(&mut self, other: ColumnVec) {
        fn stitch<T>(v: &mut Vec<T>, m: &mut NullMask, ov: Vec<T>, om: &NullMask) {
            (0..ov.len()).for_each(|i| m.push(om.get(i)));
            v.extend(ov);
        }
        match (self, other) {
            (ColumnVec::Int64(v, m), ColumnVec::Int64(ov, om))
            | (ColumnVec::Date(v, m), ColumnVec::Date(ov, om))
            | (ColumnVec::Timestamp(v, m), ColumnVec::Timestamp(ov, om)) => stitch(v, m, ov, &om),
            (ColumnVec::Float64(v, m), ColumnVec::Float64(ov, om)) => stitch(v, m, ov, &om),
            (ColumnVec::Bool(v, m), ColumnVec::Bool(ov, om)) => stitch(v, m, ov, &om),
            (ColumnVec::Text(v, m), ColumnVec::Text(ov, om)) => stitch(v, m, ov, &om),
            (ColumnVec::Any(v), ColumnVec::Any(ov)) => v.extend(ov),
            _ => unreachable!("concat_columns appends parts of one variant"),
        }
    }
}

// ---------------------------------------------------------------------
// Column builder (specialize on first non-NULL value, degrade to Any)
// ---------------------------------------------------------------------

/// Builds a [`ColumnVec`] value-by-value: the first non-NULL value fixes
/// the typed representation; any later family mismatch degrades the whole
/// column to [`ColumnVec::Any`].
pub(crate) struct ColumnBuilder {
    state: BuilderState,
    capacity: usize,
}

enum BuilderState {
    /// Only NULLs so far.
    Pending(usize),
    Typed(ColumnVec),
    Any(Vec<Value>),
}

impl ColumnBuilder {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ColumnBuilder {
            state: BuilderState::Pending(0),
            capacity,
        }
    }

    /// Append an owned value (moves it when the column is heterogeneous).
    pub(crate) fn push(&mut self, value: Value) {
        match &mut self.state {
            BuilderState::Any(values) => values.push(value),
            _ => self.push_ref(&value),
        }
    }

    /// Append a borrowed value (clones only what the typed column stores).
    pub(crate) fn push_ref(&mut self, value: &Value) {
        match &mut self.state {
            BuilderState::Pending(nulls) => {
                if value.is_null() {
                    *nulls += 1;
                    return;
                }
                let nulls = *nulls;
                match typed_column_for(value, self.capacity) {
                    Some(mut col) => {
                        for _ in 0..nulls {
                            push_typed(&mut col, &Value::Null);
                        }
                        push_typed(&mut col, value);
                        self.state = BuilderState::Typed(col);
                    }
                    None => {
                        let mut values = Vec::with_capacity(self.capacity);
                        values.extend(std::iter::repeat_n(Value::Null, nulls));
                        values.push(value.clone());
                        self.state = BuilderState::Any(values);
                    }
                }
            }
            BuilderState::Typed(col) => {
                if value.is_null() || matches_column(col, value) {
                    push_typed(col, value);
                } else {
                    // Family mismatch: degrade the whole column to Any.
                    let done = col.len();
                    let mut values = Vec::with_capacity(self.capacity.max(done + 1));
                    for i in 0..done {
                        values.push(col.value(i));
                    }
                    values.push(value.clone());
                    self.state = BuilderState::Any(values);
                }
            }
            BuilderState::Any(values) => values.push(value.clone()),
        }
    }

    pub(crate) fn finish(self) -> ColumnVec {
        match self.state {
            BuilderState::Pending(nulls) => ColumnVec::Any(vec![Value::Null; nulls]),
            BuilderState::Typed(col) => col,
            BuilderState::Any(values) => ColumnVec::Any(values),
        }
    }
}

/// The empty typed column matching a (non-NULL) value's variant, or `None`
/// if the value has no typed column (unreachable today — every variant
/// does — but kept total for safety).
fn typed_column_for(v: &Value, capacity: usize) -> Option<ColumnVec> {
    Some(match v {
        Value::Int(_) => ColumnVec::Int64(Vec::with_capacity(capacity), NullMask::default()),
        Value::Float(_) => ColumnVec::Float64(Vec::with_capacity(capacity), NullMask::default()),
        Value::Bool(_) => ColumnVec::Bool(Vec::with_capacity(capacity), NullMask::default()),
        Value::Text(_) => ColumnVec::Text(Vec::with_capacity(capacity), NullMask::default()),
        Value::Date(_) => ColumnVec::Date(Vec::with_capacity(capacity), NullMask::default()),
        Value::Timestamp(_) => {
            ColumnVec::Timestamp(Vec::with_capacity(capacity), NullMask::default())
        }
        Value::Null => return None,
    })
}

/// Whether a non-NULL value fits a typed column without degrading.
fn matches_column(col: &ColumnVec, v: &Value) -> bool {
    matches!(
        (col, v),
        (ColumnVec::Int64(..), Value::Int(_))
            | (ColumnVec::Float64(..), Value::Float(_))
            | (ColumnVec::Bool(..), Value::Bool(_))
            | (ColumnVec::Text(..), Value::Text(_))
            | (ColumnVec::Date(..), Value::Date(_))
            | (ColumnVec::Timestamp(..), Value::Timestamp(_))
    )
}

/// Push a NULL or matching value into a typed column.
fn push_typed(col: &mut ColumnVec, v: &Value) {
    match (col, v) {
        (ColumnVec::Int64(vals, m), Value::Int(i)) => {
            vals.push(*i);
            m.push(false);
        }
        (ColumnVec::Float64(vals, m), Value::Float(f)) => {
            vals.push(*f);
            m.push(false);
        }
        (ColumnVec::Bool(vals, m), Value::Bool(b)) => {
            vals.push(*b);
            m.push(false);
        }
        (ColumnVec::Text(vals, m), Value::Text(s)) => {
            vals.push(s.clone());
            m.push(false);
        }
        (ColumnVec::Date(vals, m), Value::Date(d)) => {
            vals.push(*d);
            m.push(false);
        }
        (ColumnVec::Timestamp(vals, m), Value::Timestamp(t)) => {
            vals.push(*t);
            m.push(false);
        }
        (ColumnVec::Int64(vals, m), Value::Null)
        | (ColumnVec::Date(vals, m), Value::Null)
        | (ColumnVec::Timestamp(vals, m), Value::Null) => {
            vals.push(0);
            m.push(true);
        }
        (ColumnVec::Float64(vals, m), Value::Null) => {
            vals.push(0.0);
            m.push(true);
        }
        (ColumnVec::Bool(vals, m), Value::Null) => {
            vals.push(false);
            m.push(true);
        }
        (ColumnVec::Text(vals, m), Value::Null) => {
            vals.push(String::new());
            m.push(true);
        }
        _ => unreachable!("caller checked matches_column"),
    }
}

// ---------------------------------------------------------------------
// Column-slice keys
// ---------------------------------------------------------------------

/// Canonical, allocation-free key form of one cell. Equality and hashing
/// coincide exactly with [`Value::group_key`] string equality: integral
/// numerics (Int/Date/Timestamp/Bool and exactly-integral floats, `-0.0`
/// included) fold to `Int`, non-integral floats keep their (canonicalized)
/// bits — distinct non-NaN floats have distinct bits and distinct shortest
/// round-trip decimal forms, so bit equality and formatted-string equality
/// agree — and all NaNs collapse to one canonical pattern (all NaNs format
/// as `"NaN"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum KeyPart<'a> {
    /// SQL NULL (groups with NULL; excluded from join keys by callers).
    Null,
    /// Exact integer form of any integral numeric.
    Int(i64),
    /// Canonicalized bits of a non-integral float.
    Float(u64),
    /// Borrowed text.
    Text(&'a str),
}

impl<'a> KeyPart<'a> {
    /// Canonical key form of a float (integral floats fold to `Int`).
    #[inline]
    pub(crate) fn from_f64(f: f64) -> KeyPart<'static> {
        match Value::Float(f).exact_int() {
            Some(i) => KeyPart::Int(i),
            None if f.is_nan() => KeyPart::Float(f64::NAN.to_bits()),
            None => KeyPart::Float(f.to_bits()),
        }
    }

    /// Canonical key form of a boxed value.
    #[inline]
    pub(crate) fn from_value(v: &'a Value) -> KeyPart<'a> {
        match v {
            Value::Null => KeyPart::Null,
            Value::Text(s) => KeyPart::Text(s),
            other => match other.exact_int() {
                Some(i) => KeyPart::Int(i),
                None => KeyPart::from_f64(other.as_f64().unwrap_or(f64::NAN)),
            },
        }
    }
}

/// Deterministic composite hash of one row across `cols` (fixed-key
/// `DefaultHasher`, not the per-process-randomized `RandomState`).
fn composite_hash(cols: &[&ColumnVec], i: usize) -> u64 {
    let mut hasher = DefaultHasher::new();
    for col in cols {
        col.key_part(i).hash(&mut hasher);
    }
    hasher.finish()
}

/// Whether two rows' composite keys are equal across two column sets.
fn composite_eq(a: &[&ColumnVec], ia: usize, b: &[&ColumnVec], ib: usize) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .all(|(ca, cb)| ca.key_part(ia) == cb.key_part(ib))
}

/// Whether every key cell of the row is non-NULL (NULL never joins).
pub(crate) fn keys_nonnull(cols: &[&ColumnVec], i: usize) -> bool {
    cols.iter().all(|c| !c.is_null(i))
}

// ---------------------------------------------------------------------
// Hash grouping
// ---------------------------------------------------------------------

/// Chosen rows of one batch grouped by key columns: the one hash kernel
/// behind GROUP BY, DISTINCT and both hash-join build sides. Keys compare
/// as [`KeyPart`]s, so NULL keys group together (a join leaves those rows
/// out of its build) and `1`, `1.0`, `-0.0` and `0` share a group. Groups
/// are numbered in first-seen order, and each group's members keep the
/// order the rows were given in (ascending, at every caller).
///
/// The build allocates nothing per group: groups hang off power-of-two
/// bucket heads in collision chains, and the members of every group sit
/// in one flat array.
pub(crate) struct Grouping<'a> {
    keys: Vec<&'a ColumnVec>,
    /// Per bucket, its newest group or [`PAD_NULL`]; a power of two long.
    heads: Vec<u32>,
    /// Per group: its key hash, its first member, and the next group in
    /// its bucket's chain.
    hashes: Vec<u64>,
    firsts: Vec<u32>,
    next: Vec<u32>,
    /// Group `g`'s members are `members[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    members: Vec<u32>,
}

impl<'a> Grouping<'a> {
    /// Group `rows` (row indices of the `keys` columns) by their key.
    pub(crate) fn build(keys: Vec<&'a ColumnVec>, rows: impl IntoIterator<Item = usize>) -> Self {
        let mut grouping = Grouping {
            keys,
            heads: vec![PAD_NULL; 16],
            hashes: Vec::new(),
            firsts: Vec::new(),
            next: Vec::new(),
            starts: Vec::new(),
            members: Vec::new(),
        };
        // Each row's group: the one with an equal key, or a new one.
        let mut assigned: Vec<(u32, u32)> = Vec::new();
        for i in rows {
            let hash = composite_hash(&grouping.keys, i);
            let g = match grouping.lookup(hash, &grouping.keys, i) {
                Some(g) => g,
                None => grouping.insert(hash, i),
            };
            assigned.push((row_id(i), row_id(g)));
        }
        // Counting sort into the flat member array: each group's count
        // becomes its end offset, and filling backwards moves every offset
        // to its group's start while keeping the members in order.
        let mut starts = vec![0u32; grouping.firsts.len() + 1];
        for &(_, g) in &assigned {
            starts[ix(g)] += 1;
        }
        let mut end = 0;
        for start in &mut starts {
            end += *start;
            *start = end;
        }
        let mut members = vec![0; assigned.len()];
        for &(i, g) in assigned.iter().rev() {
            let start = &mut starts[ix(g)];
            *start -= 1;
            members[ix(*start)] = i;
        }
        grouping.starts = starts;
        grouping.members = members;
        grouping
    }

    /// The number of groups.
    pub(crate) fn len(&self) -> usize {
        self.firsts.len()
    }

    /// Group `g`'s members, ascending.
    pub(crate) fn members(&self, g: usize) -> &[u32] {
        &self.members[ix(self.starts[g])..ix(self.starts[g + 1])]
    }

    /// Each group's first member, in group order (so ascending).
    pub(crate) fn firsts(&self) -> &[u32] {
        &self.firsts
    }

    /// The group whose key equals row `i` of `other`, a column set laid
    /// out like the grouped keys.
    pub(crate) fn find(&self, other: &[&ColumnVec], i: usize) -> Option<usize> {
        self.lookup(composite_hash(other, i), other, i)
    }

    fn lookup(&self, hash: u64, other: &[&ColumnVec], i: usize) -> Option<usize> {
        let mut g = self.heads[bucket(hash, self.heads.len())];
        while g != PAD_NULL {
            let group = ix(g);
            if self.hashes[group] == hash
                && composite_eq(&self.keys, ix(self.firsts[group]), other, i)
            {
                return Some(group);
            }
            g = self.next[group];
        }
        None
    }

    /// Open a group whose first member is row `first`. Past one group per
    /// bucket the heads double and every chain is relinked.
    fn insert(&mut self, hash: u64, first: usize) -> usize {
        let g = self.len();
        if g == self.heads.len() {
            self.heads = vec![PAD_NULL; 2 * g];
            (0..g).for_each(|k| self.link(k));
        }
        self.hashes.push(hash);
        self.firsts.push(row_id(first));
        self.next.push(PAD_NULL);
        self.link(g);
        g
    }

    fn link(&mut self, g: usize) {
        let b = bucket(self.hashes[g], self.heads.len());
        self.next[g] = self.heads[b];
        self.heads[b] = row_id(g);
    }
}

/// The bucket of `hash` among `buckets` (a power of two); on 32-bit
/// targets the cast keeps the low bits, which is all a bucket needs.
fn bucket(hash: u64, buckets: usize) -> usize {
    hash as usize & (buckets - 1)
}

// ---------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------

/// A run of rows in columnar form: typed columns plus an optional
/// selection vector of live physical row indices (ascending). `len` is the
/// physical row count, tracked separately so zero-column batches (FROM-less
/// SELECT) still carry their row count.
///
/// Columns are shared by `Arc`: cloning a batch (to refine its selection,
/// or to hand a table's cached decode to a query) bumps refcounts instead
/// of copying payloads.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    /// Physical rows in each column.
    pub len: usize,
    /// The columns; each has `len` rows.
    pub columns: Vec<Arc<ColumnVec>>,
    /// Live physical row indices (ascending), or `None` for all-live.
    pub selection: Option<Vec<u32>>,
}

impl Batch {
    /// Number of live (selected) rows.
    pub(crate) fn live(&self) -> usize {
        match &self.selection {
            Some(sel) => sel.len(),
            None => self.len,
        }
    }

    /// Iterate the physical indices of live rows, in ascending order.
    pub(crate) fn live_rows(&self) -> impl Iterator<Item = usize> + '_ {
        let (sel, dense) = match &self.selection {
            Some(sel) => (sel.as_slice(), 0),
            None => (&[][..], self.len),
        };
        sel.iter().map(|&i| ix(i)).chain(0..dense)
    }

    /// Decode a row slice into one dense batch of `width` columns.
    pub(crate) fn from_rows(rows: &[Row], width: usize) -> Batch {
        let columns = (0..width)
            .map(|c| {
                Arc::new(ColumnVec::from_values(
                    rows.iter().map(move |r| r.get(c).unwrap_or(&Value::Null)),
                ))
            })
            .collect();
        Batch {
            len: rows.len(),
            columns,
            selection: None,
        }
    }

    /// Materialize one live row (by physical index) as a boxed row.
    pub(crate) fn gather_row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Materialize all live rows, consuming the batch. Dense batches with
    /// uniquely-owned columns move their payloads (no second copy of text
    /// values); shared or selected batches gather.
    pub(crate) fn into_rows(self) -> Vec<Row> {
        if self.selection.is_some() {
            return self.live_rows().map(|i| self.gather_row(i)).collect();
        }
        let mut rows: Vec<Row> = (0..self.len)
            .map(|_| Row::with_capacity(self.columns.len()))
            .collect();
        for col in self.columns {
            match Arc::try_unwrap(col) {
                Ok(ColumnVec::Any(values)) => {
                    for (row, v) in rows.iter_mut().zip(values) {
                        row.push(v);
                    }
                }
                Ok(ColumnVec::Text(values, m)) => {
                    for (i, (row, s)) in rows.iter_mut().zip(values).enumerate() {
                        row.push(if m.get(i) {
                            Value::Null
                        } else {
                            Value::Text(s)
                        });
                    }
                }
                Ok(typed) => {
                    for (i, row) in rows.iter_mut().enumerate() {
                        row.push(typed.value(i));
                    }
                }
                Err(shared) => {
                    for (i, row) in rows.iter_mut().enumerate() {
                        row.push(shared.value(i));
                    }
                }
            }
        }
        rows
    }

    /// The dense column `c` restricted to live rows (a refcount bump when
    /// the batch is unselected; NULL column if `c` is out of range,
    /// mirroring the per-row evaluator's `row.get(idx)` robustness).
    pub(crate) fn column_live(&self, c: usize) -> Arc<ColumnVec> {
        match self.columns.get(c) {
            None => Arc::new(ColumnVec::Any(vec![Value::Null; self.live()])),
            Some(col) => match &self.selection {
                None => Arc::clone(col),
                Some(sel) => Arc::new(col.gather(sel)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_specializes_and_degrades() {
        let vals = [Value::Null, Value::Int(1), Value::Null, Value::Int(2)];
        let col = ColumnVec::from_values(vals.iter());
        assert!(matches!(col, ColumnVec::Int64(..)));
        assert_eq!(col.value(0), Value::Null);
        assert_eq!(col.value(3), Value::Int(2));

        let mixed = [Value::Int(1), Value::Text("x".into())];
        let col = ColumnVec::from_values(mixed.iter());
        assert!(matches!(col, ColumnVec::Any(_)));
        assert_eq!(col.value(0), Value::Int(1));
        assert_eq!(col.value(1), Value::Text("x".into()));

        let all_null = [Value::Null, Value::Null];
        let col = ColumnVec::from_values(all_null.iter());
        assert_eq!(col.len(), 2);
        assert!(col.is_null(0) && col.is_null(1));
    }

    #[test]
    fn key_parts_match_group_key_equality() {
        let pairs = [
            (Value::Int(3), Value::Float(3.0), true),
            (Value::Int(0), Value::Float(-0.0), true),
            (Value::Int(1 << 53), Value::Float((1i64 << 53) as f64), true),
            (
                Value::Int((1 << 53) + 1),
                Value::Float((1i64 << 53) as f64),
                false,
            ),
            (
                Value::Int(i64::MAX),
                Value::Float(9_223_372_036_854_775_808.0),
                false,
            ),
            (Value::Float(0.5), Value::Float(0.5), true),
            (Value::Float(0.5), Value::Float(0.25), false),
            (Value::Date(7), Value::Int(7), true),
            (Value::Timestamp(9), Value::Int(9), true),
            (Value::Bool(true), Value::Int(1), true),
            (Value::Text("3".into()), Value::Int(3), false),
            (Value::Null, Value::Null, true),
            (Value::Float(f64::NAN), Value::Float(-f64::NAN), true),
        ];
        for (a, b, equal) in &pairs {
            assert_eq!(
                KeyPart::from_value(a) == KeyPart::from_value(b),
                *equal,
                "{a:?} vs {b:?}"
            );
            assert_eq!(
                a.group_key() == b.group_key(),
                *equal,
                "group_key oracle disagrees on {a:?} vs {b:?}"
            );
        }
    }

    fn groups_of(grouping: &Grouping<'_>) -> Vec<Vec<u32>> {
        (0..grouping.len())
            .map(|g| grouping.members(g).to_vec())
            .collect()
    }

    #[test]
    fn grouping_folds_keys_as_key_parts_do() {
        let col = ColumnVec::from_values(
            [
                Value::Int(1),
                Value::Float(1.0),
                Value::Null,
                Value::Float(-0.0),
                Value::Int(0),
                Value::Null,
                Value::Int(2),
                Value::Float(1.5),
            ]
            .iter(),
        );
        let grouping = Grouping::build(vec![&col], 0..col.len());
        // NULLs group together; 1 and 1.0, -0.0 and 0 fold; first-seen order.
        assert_eq!(
            groups_of(&grouping),
            vec![vec![0, 1], vec![2, 5], vec![3, 4], vec![6], vec![7]]
        );
        assert_eq!(grouping.firsts(), &[0, 2, 3, 6, 7]);
    }

    #[test]
    fn grouping_takes_only_the_chosen_rows_on_composite_keys() {
        let a = ColumnVec::from_values([1, 1, 2, 1, 2, 1].map(Value::Int).iter());
        let b = ColumnVec::from_values(["x", "y", "x", "x", "x", "y"].map(Value::from).iter());
        let grouping = Grouping::build(vec![&a, &b], [1, 2, 3, 4, 5]);
        assert_eq!(groups_of(&grouping), vec![vec![1, 5], vec![2, 4], vec![3]]);
        // Without key columns every chosen row shares one group.
        let one = Grouping::build(Vec::new(), [0, 3, 4]);
        assert_eq!(groups_of(&one), vec![vec![0, 3, 4]]);
        assert!(Grouping::build(vec![&a], []).firsts().is_empty());
    }

    #[test]
    fn grouping_finds_keys_of_another_column_set() {
        let ints = ColumnVec::from_values([Value::Int(1), Value::Int(2), Value::Null].iter());
        let grouping = Grouping::build(vec![&ints], 0..3);
        let floats = ColumnVec::from_values(
            [Value::Float(2.0), Value::Float(2.5), Value::Float(1.0)].iter(),
        );
        let other = [&floats];
        assert_eq!(grouping.find(&other, 0), Some(1)); // 2.0 == 2
        assert_eq!(grouping.find(&other, 1), None); // 2.5 != 2
        assert_eq!(grouping.find(&other, 2), Some(0)); // 1.0 == 1
        let nulls = ColumnVec::from_values([Value::Null].iter());
        assert_eq!(grouping.find(&[&nulls], 0), Some(2));
        // A build that leaves NULL keys out finds nothing for them.
        let non_null = Grouping::build(vec![&ints], (0..3).filter(|&i| !ints.is_null(i)));
        assert_eq!(non_null.find(&[&nulls], 0), None);
    }

    #[test]
    fn grouping_keeps_order_across_bucket_growth() {
        // 1,000 keys (the heads double six times), each seen three times,
        // interleaved: key k sits at rows k, 1000 + k and 2000 + k.
        let col = ColumnVec::from_values(
            (0..3000)
                .map(|i| Value::Int(i % 1000))
                .collect::<Vec<_>>()
                .iter(),
        );
        let grouping = Grouping::build(vec![&col], 0..3000);
        assert_eq!(grouping.len(), 1000);
        for k in 0..1000u32 {
            assert_eq!(grouping.members(ix(k)), &[k, 1000 + k, 2000 + k]);
            assert_eq!(grouping.find(&[&col], 2000 + ix(k)), Some(ix(k)));
        }
    }

    #[test]
    fn live_rows_walks_the_selection_not_the_length() {
        let mut batch = Batch {
            len: 100_000,
            columns: Vec::new(),
            selection: None,
        };
        assert_eq!(batch.live_rows().count(), 100_000);
        batch.selection = Some(vec![5, 70_000, 99_999]);
        assert_eq!(
            batch.live_rows().collect::<Vec<_>>(),
            vec![5, 70_000, 99_999]
        );
        batch.selection = Some(Vec::new());
        assert_eq!(batch.live_rows().next(), None);
    }

    #[test]
    fn batch_round_trips_rows_with_selection() {
        let rows: Vec<Row> = (0..10)
            .map(|i| vec![Value::Int(i), Value::Text(format!("r{i}"))])
            .collect();
        let mut batch = Batch::from_rows(&rows, 2);
        assert_eq!(batch.live(), 10);
        assert_eq!(batch.clone().into_rows(), rows);

        batch.selection = Some(vec![1, 4, 7]);
        assert_eq!(batch.live(), 3);
        let selected = batch.into_rows();
        assert_eq!(selected.len(), 3);
        assert_eq!(selected[1], vec![Value::Int(4), Value::Text("r4".into())]);
    }

    #[test]
    fn gather_padded_inserts_nulls() {
        let col = ColumnVec::from_values([Value::Int(10), Value::Int(20)].iter());
        let out = col.gather_padded(&[1, PAD_NULL, 0]);
        assert_eq!(out.value(0), Value::Int(20));
        assert_eq!(out.value(1), Value::Null);
        assert_eq!(out.value(2), Value::Int(10));
    }

    #[test]
    fn null_mask_push_and_set() {
        let mut m = NullMask::new(70);
        m.set(65);
        assert!(m.get(65) && !m.get(64));
        let mut pushed = NullMask::default();
        for i in 0..130 {
            pushed.push(i % 3 == 0);
        }
        assert!(pushed.get(0) && pushed.get(129) && !pushed.get(1));
    }
}
