//! Row storage for a single table — an immutable, `Arc`-shared payload
//! behind a monotonically increasing version.
//!
//! A [`Table`] is a cheap *handle*: the schema plus an `Arc` to the actual
//! row payload (`TableData`) and a version counter. Cloning a handle
//! shares the payload by refcount, which is what makes database snapshots
//! cheap (see [`crate::snapshot::Snapshot`]). Writers go through
//! [`Arc::make_mut`]: while any snapshot still pins the payload the write
//! copies it (copy-on-write install of a new version), and once the writer
//! holds the only reference further writes mutate in place. Either way the
//! payload a snapshot observes never changes after the snapshot is taken.
//!
//! The cached columnar decode lives *inside* the payload, so its lifetime
//! is exactly one table version: a copy-on-write starts the new version
//! with a cold cache (clones of `ColumnarCache` are empty), an in-place
//! write resets it explicitly, and a snapshot's pinned decode stays valid
//! forever because its payload is immutable. A stale decode is therefore
//! unrepresentable, not merely avoided.

use crate::sync::{Arc, OnceLock};
use std::collections::HashMap;

use crate::error::{StorageError, StorageResult};
use crate::physical::batch::{Batch, ColumnVec, BATCH_ROWS};
use crate::schema::TableSchema;
use crate::value::Value;
use bp_sql::DataType;
use serde::{Deserialize, Serialize};

/// A row of values, one per column in the owning table's schema.
pub type Row = Vec<Value>;

/// The lazily-built columnar decode of a table's rows, shared with the
/// columnar engine's scans. Cached per `(batch, column)` cell so a scan can
/// decode **only the columns the plan references** (projection pruning)
/// while every decoded column is still built once per table version and
/// shared by refcount. Transparent to the table's value semantics: clones
/// start empty, equality ignores it, and serde skips it. Any row mutation
/// replaces it with a fresh (empty) cache.
#[derive(Debug, Default)]
struct ColumnarCache(OnceLock<Vec<ColumnSlots>>);

/// One batch's worth of per-column decode slots, each filled on first use.
type ColumnSlots = Box<[OnceLock<Arc<ColumnVec>>]>;

impl Clone for ColumnarCache {
    fn clone(&self) -> Self {
        ColumnarCache::default()
    }
}

impl PartialEq for ColumnarCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

// The cache is derived data: it serializes as `null` and deserializes (or
// is absent, for older snapshots) as an empty cache.
impl Serialize for ColumnarCache {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for ColumnarCache {
    fn from_value(_: &serde::Value) -> Result<Self, serde::Error> {
        Ok(ColumnarCache::default())
    }

    fn from_missing(_: &str) -> Result<Self, serde::Error> {
        Ok(ColumnarCache::default())
    }
}

/// A secondary index over one column of one immutable table version:
///
/// * a **hash index** — canonical [`Value::group_key`] → ascending row ids,
///   NULLs excluded (NULL never matches an equality or IN probe) — serving
///   point lookups and IN-list / IN-subquery probes, and
/// * an **ordered index** — row ids sorted by [`Value::total_cmp`], ties
///   broken by row id, NULLs first — serving range scans, MIN/MAX, and
///   `ORDER BY col LIMIT k` prefixes.
///
/// Group-key equality coincides with `total_cmp == Equal` for every value
/// except NaN (which `total_cmp` treats as equal to any inexact float while
/// its group key is distinct), so a column containing NaN poisons both
/// structures: [`ColumnIndex::has_nan`] is the flag the execution fast
/// paths check before trusting the index — when set they fall back to the
/// exact scan kernels, keeping results byte-identical.
#[derive(Debug)]
pub(crate) struct ColumnIndex {
    hash: HashMap<String, Vec<u32>>,
    ordered: Vec<u32>,
    null_count: usize,
    has_nan: bool,
}

impl ColumnIndex {
    fn build(rows: &[Row], col: usize) -> ColumnIndex {
        let mut hash: HashMap<String, Vec<u32>> = HashMap::new();
        let mut null_count = 0usize;
        let mut has_nan = false;
        for (i, row) in rows.iter().enumerate() {
            match &row[col] {
                Value::Null => null_count += 1,
                v => {
                    if matches!(v, Value::Float(f) if f.is_nan()) {
                        has_nan = true;
                    }
                    hash.entry(v.group_key()).or_default().push(i as u32);
                }
            }
        }
        let mut ordered: Vec<u32> = (0..rows.len() as u32).collect();
        // NaN breaks total_cmp's total order (it compares Equal to any
        // inexact float), so the ordered index is only built — and only
        // consulted — on NaN-free columns.
        if !has_nan {
            ordered.sort_by(|&a, &b| {
                rows[a as usize][col]
                    .total_cmp(&rows[b as usize][col])
                    .then(a.cmp(&b))
            });
        }
        ColumnIndex {
            hash,
            ordered,
            null_count,
            has_nan,
        }
    }

    /// Whether the column contains a NaN, which invalidates every fast path
    /// over this index (callers must use the exact scan kernels instead).
    pub(crate) fn has_nan(&self) -> bool {
        self.has_nan
    }

    /// Number of NULLs in the column (the length of the ordered index's
    /// NULL prefix).
    pub(crate) fn null_count(&self) -> usize {
        self.null_count
    }

    /// All row ids sorted by `(total_cmp, row id)`, NULLs first. Meaningful
    /// only when [`ColumnIndex::has_nan`] is false.
    pub(crate) fn ordered(&self) -> &[u32] {
        &self.ordered
    }

    /// Row ids whose value equals `key` under SQL equality, ascending.
    /// NULL keys match nothing. Meaningful only when `!has_nan`.
    pub(crate) fn point(&self, key: &Value) -> &[u32] {
        if key.is_null() {
            return &[];
        }
        self.hash
            .get(&key.group_key())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct non-NULL values in the column (distinct by
    /// `group_key`, the same equivalence `COUNT(DISTINCT col)` dedups by).
    pub(crate) fn distinct_keys(&self) -> usize {
        self.hash.len()
    }

    /// Row ids whose value equals *any* of `keys` under SQL equality,
    /// ascending. NULL keys match nothing. Meaningful only when `!has_nan`.
    pub(crate) fn probe<'a>(&self, keys: impl IntoIterator<Item = &'a Value>) -> Vec<u32> {
        let mut seen = std::collections::HashSet::new();
        let mut ids: Vec<u32> = Vec::new();
        for key in keys {
            if key.is_null() {
                continue;
            }
            let gk = key.group_key();
            if seen.insert(gk.clone()) {
                if let Some(v) = self.hash.get(&gk) {
                    ids.extend_from_slice(v);
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Row ids whose value falls inside the (optionally half-open) range,
    /// ascending. NULL column values never match; a NULL bound matches
    /// nothing (the comparison would be UNKNOWN on every row). Meaningful
    /// only when `!has_nan`.
    pub(crate) fn range(
        &self,
        rows: &[Row],
        col: usize,
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
    ) -> Vec<u32> {
        use std::cmp::Ordering;
        if lower.is_some_and(|(v, _)| v.is_null()) || upper.is_some_and(|(v, _)| v.is_null()) {
            return Vec::new();
        }
        let tail = &self.ordered[self.null_count..];
        let start = match lower {
            Some((v, inclusive)) => tail.partition_point(|&r| {
                let ord = rows[r as usize][col].total_cmp(v);
                ord == Ordering::Less || (!inclusive && ord == Ordering::Equal)
            }),
            None => 0,
        };
        let end = match upper {
            Some((v, inclusive)) => tail.partition_point(|&r| {
                let ord = rows[r as usize][col].total_cmp(v);
                ord == Ordering::Less || (inclusive && ord == Ordering::Equal)
            }),
            None => tail.len(),
        };
        let mut ids: Vec<u32> = tail[start..end.max(start)].to_vec();
        ids.sort_unstable();
        ids
    }
}

/// The lazily-built per-column secondary indexes of one table version.
/// Same transparency contract as [`ColumnarCache`]: clones start empty,
/// equality ignores it, serde skips it, and any row mutation replaces it —
/// so the Arc-versioned snapshot model invalidates indexes for free, and a
/// pinned snapshot keeps reading its own consistent index.
#[derive(Debug, Default)]
struct IndexCache(OnceLock<Box<[OnceLock<Arc<ColumnIndex>>]>>);

impl IndexCache {
    fn column(&self, width: usize, col: usize, rows: &[Row]) -> Arc<ColumnIndex> {
        let slots = self
            .0
            .get_or_init(|| (0..width).map(|_| OnceLock::new()).collect());
        slots[col]
            .get_or_init(|| Arc::new(ColumnIndex::build(rows, col)))
            .clone()
    }
}

impl Clone for IndexCache {
    fn clone(&self) -> Self {
        IndexCache::default()
    }
}

impl PartialEq for IndexCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Serialize for IndexCache {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for IndexCache {
    fn from_value(_: &serde::Value) -> Result<Self, serde::Error> {
        Ok(IndexCache::default())
    }

    fn from_missing(_: &str) -> Result<Self, serde::Error> {
        Ok(IndexCache::default())
    }
}

/// The lazily-built per-column statistics of one table version (row count,
/// NDV, min/max, null fraction, numeric histograms — see [`crate::stats`]).
/// Same transparency contract as [`ColumnarCache`] and [`IndexCache`]:
/// clones start empty, equality ignores it, serde skips it, and any row
/// mutation replaces it — so statistics are always about exactly the rows
/// of the version they sit on, and a stale statistic is unrepresentable.
#[derive(Debug, Default)]
struct StatsCache(OnceLock<Arc<crate::stats::TableStats>>);

impl Clone for StatsCache {
    fn clone(&self) -> Self {
        StatsCache::default()
    }
}

impl PartialEq for StatsCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Serialize for StatsCache {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for StatsCache {
    fn from_value(_: &serde::Value) -> Result<Self, serde::Error> {
        Ok(StatsCache::default())
    }

    fn from_missing(_: &str) -> Result<Self, serde::Error> {
        Ok(StatsCache::default())
    }
}

/// One immutable version of a table's payload: the rows plus the columnar
/// decode derived from exactly those rows. Shared by `Arc` between the live
/// database and any snapshots pinning this version.
#[derive(Debug, Default)]
struct TableData {
    rows: Vec<Row>,
    columnar: ColumnarCache,
    indexes: IndexCache,
    stats: StatsCache,
}

impl Clone for TableData {
    fn clone(&self) -> Self {
        // A clone is the start of a *new* version (copy-on-write): carry
        // the rows, start the decode, index and stats caches cold. The
        // original version keeps its warm caches for the snapshots still
        // reading it.
        TableData {
            rows: self.rows.clone(),
            columnar: ColumnarCache::default(),
            indexes: IndexCache::default(),
            stats: StatsCache::default(),
        }
    }
}

/// An in-memory table: a schema plus an `Arc`-shared, versioned row
/// payload. Clones share the payload (refcount bump, no row copy); writes
/// copy-on-write when the payload is shared.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    version: u64,
    data: Arc<TableData>,
}

impl Table {
    /// Create an empty table with the given schema, at version 0.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            version: 0,
            data: Arc::new(TableData::default()),
        }
    }

    /// The table's version: 0 when created, bumped by every row mutation.
    /// Monotonically increasing within one handle's lineage; used by
    /// [`crate::prepared::PlanCache`] for per-table invalidation (together
    /// with payload identity, which is exact across handle clones).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether two handles read the *same payload instance* — the exact
    /// "same version" test. Pointer equality is sound because a shared
    /// payload is never mutated in place: any write through a handle whose
    /// payload is also pinned elsewhere copies first (`Arc::make_mut`).
    pub fn same_version(&self, other: &Table) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.data.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.rows.is_empty()
    }

    /// Borrow all rows.
    pub fn rows(&self) -> &[Row] {
        &self.data.rows
    }

    /// Insert a row after validating its arity and (loosely) its types.
    ///
    /// Integers are accepted where floats are declared and vice versa when
    /// exactly representable; NULL is accepted in nullable columns only.
    /// On success the table's version is bumped; if the payload is shared
    /// with a snapshot it is copied first, so the snapshot's view is
    /// untouched. Validation failures mutate nothing.
    pub fn insert(&mut self, row: Row) -> StorageResult<()> {
        if row.len() != self.schema.column_count() {
            return Err(StorageError::SchemaMismatch(format!(
                "table {} expects {} values, got {}",
                self.schema.name,
                self.schema.column_count(),
                row.len()
            )));
        }
        let mut coerced = Vec::with_capacity(row.len());
        for (value, column) in row.into_iter().zip(&self.schema.columns) {
            if value.is_null() {
                if !column.nullable {
                    return Err(StorageError::SchemaMismatch(format!(
                        "column {}.{} is NOT NULL",
                        self.schema.name, column.name
                    )));
                }
                coerced.push(Value::Null);
                continue;
            }
            coerced.push(coerce(value, column.data_type).map_err(|v| {
                StorageError::SchemaMismatch(format!(
                    "value {v} does not fit column {}.{} of type {:?}",
                    self.schema.name, column.name, column.data_type
                ))
            })?);
        }
        // Copy-on-write: clones the payload only when a snapshot still pins
        // it (the clone starts with cold decode and index caches); otherwise
        // mutates in place, where the caches must be reset by hand.
        let data = Arc::make_mut(&mut self.data);
        data.columnar = ColumnarCache::default();
        data.indexes = IndexCache::default();
        data.stats = StatsCache::default();
        data.rows.push(coerced);
        self.version += 1;
        Ok(())
    }

    /// The table's rows decoded into fixed-size columnar [`Batch`]es —
    /// each `(batch, column)` cell is decoded once per table version (any
    /// write starts a fresh cache, whether it copied the payload or reset
    /// it in place) and shared with every scan by refcount. The returned
    /// batches are dense (no selection); batch boundaries are fixed by
    /// [`BATCH_ROWS`], never by `threads` (which only parallelizes the
    /// one-time decode), so columnar execution is deterministic at every
    /// thread count.
    #[cfg(test)]
    pub(crate) fn columnar_batches(&self, threads: usize) -> Vec<Batch> {
        self.columnar_batches_for(threads, None)
    }

    /// [`Table::columnar_batches`] restricted to the columns in `cols`
    /// (projection pruning): only the referenced columns are decoded.
    /// Pruned slots are filled with a shared empty placeholder column —
    /// loudly wrong (out-of-bounds panic) if a consumer the plan analysis
    /// missed ever touches one — unless an earlier scan already decoded the
    /// real column, in which case the cached decode rides along for free.
    pub(crate) fn columnar_batches_for(
        &self,
        threads: usize,
        cols: Option<&[usize]>,
    ) -> Vec<Batch> {
        let width = self.schema.column_count();
        let rows = &self.data.rows;
        let chunks: Vec<&[Row]> = rows.chunks(BATCH_ROWS).collect();
        let grid = self.data.columnar.0.get_or_init(|| {
            chunks
                .iter()
                .map(|_| (0..width).map(|_| OnceLock::new()).collect())
                .collect()
        });
        let needed: Vec<usize> = match cols {
            Some(cols) => cols.to_vec(),
            None => (0..width).collect(),
        };
        crate::physical::parallel::run_tasks(threads, chunks.len(), |i| {
            for &c in &needed {
                grid[i][c].get_or_init(|| Arc::new(ColumnVec::from_rows_column(chunks[i], c)));
            }
            Ok::<_, std::convert::Infallible>(())
        })
        .expect("decode is infallible");
        let placeholder = Arc::new(ColumnVec::Any(Vec::new()));
        chunks
            .iter()
            .zip(grid)
            .map(|(chunk, slots)| Batch {
                len: chunk.len(),
                columns: (0..width)
                    .map(|c| {
                        slots[c]
                            .get()
                            .cloned()
                            .unwrap_or_else(|| placeholder.clone())
                    })
                    .collect(),
                selection: None,
            })
            .collect()
    }

    /// The lazily-built secondary index over column `col` of this table
    /// version — built on first use, shared by refcount afterwards, and
    /// immutable for as long as any snapshot pins this payload.
    pub(crate) fn secondary_index(&self, col: usize) -> Arc<ColumnIndex> {
        self.data
            .indexes
            .column(self.schema.column_count(), col, &self.data.rows)
    }

    /// The lazily-built per-column statistics of this table version — built
    /// in one pass over the rows on first use, shared by refcount
    /// afterwards, and (like the columnar decode and the secondary indexes)
    /// describing exactly the rows a snapshot pinning this payload reads.
    pub(crate) fn stats(&self) -> Arc<crate::stats::TableStats> {
        self.data
            .stats
            .0
            .get_or_init(|| {
                Arc::new(crate::stats::TableStats::build(
                    &self.data.rows,
                    self.schema.column_count(),
                ))
            })
            .clone()
    }

    /// Insert many rows, stopping at the first failure.
    pub fn insert_all<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> StorageResult<usize> {
        let mut n = 0;
        for row in rows {
            self.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Value at (row, column-name), if present.
    pub fn value(&self, row: usize, column: &str) -> Option<&Value> {
        let idx = self.schema.column_index(column)?;
        self.data.rows.get(row).and_then(|r| r.get(idx))
    }

    /// Iterate over one column's values.
    pub fn column_values(&self, column: &str) -> Option<Vec<&Value>> {
        let idx = self.schema.column_index(column)?;
        Some(self.data.rows.iter().map(|r| &r[idx]).collect())
    }
}

// Logical equality: same schema, same rows. The version counter and payload
// identity are physical bookkeeping (two handles that arrived at the same
// rows along different write histories are equal), and the decode cache is
// derived data.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.data.rows == other.data.rows
    }
}

// Serde keeps the flat pre-snapshot wire shape ({schema, rows, ...}): the
// `Arc` payload and decode cache are runtime details. The version counter
// rides along so a reloaded database does not restart every table at 0;
// older snapshots without the field fall back to the row count (any
// monotonic starting point works).
impl Serialize for Table {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("schema".to_string(), self.schema.to_value()),
            ("version".to_string(), self.version.to_value()),
            ("rows".to_string(), self.data.rows.to_value()),
        ])
    }
}

impl Deserialize for Table {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let schema = match value.get("schema") {
            Some(v) => TableSchema::from_value(v)?,
            None => return Err(serde::Error::missing_field("schema")),
        };
        let rows = match value.get("rows") {
            Some(v) => Vec::<Row>::from_value(v)?,
            None => return Err(serde::Error::missing_field("rows")),
        };
        let version = match value.get("version") {
            Some(v) => u64::from_value(v)?,
            None => rows.len() as u64,
        };
        Ok(Table {
            schema,
            version,
            data: Arc::new(TableData {
                rows,
                columnar: ColumnarCache::default(),
                indexes: IndexCache::default(),
                stats: StatsCache::default(),
            }),
        })
    }
}

/// Coerce a value to a column type; returns the original value on failure.
fn coerce(value: Value, target: DataType) -> Result<Value, Value> {
    match (target, &value) {
        (DataType::Integer, Value::Int(_)) => Ok(value),
        // exact_int both checks integrality and rejects floats outside i64
        // range — a bare `as` cast would saturate 1e300 to i64::MAX and
        // store a legal-looking but corrupted key.
        (DataType::Integer, Value::Float(_)) => match value.exact_int() {
            Some(i) => Ok(Value::Int(i)),
            None => Err(value),
        },
        (DataType::Float, Value::Float(_)) => Ok(value),
        (DataType::Float, Value::Int(i)) => Ok(Value::Float(*i as f64)),
        (DataType::Text, Value::Text(_)) => Ok(value),
        (DataType::Boolean, Value::Bool(_)) => Ok(value),
        (DataType::Boolean, Value::Int(i)) if *i == 0 || *i == 1 => Ok(Value::Bool(*i == 1)),
        (DataType::Date, Value::Date(_)) => Ok(value),
        (DataType::Date, Value::Int(i)) => Ok(Value::Date(*i)),
        (DataType::Timestamp, Value::Timestamp(_)) => Ok(value),
        (DataType::Timestamp, Value::Int(i)) => Ok(Value::Timestamp(*i)),
        // Text columns are forgiving: enterprise warehouses routinely store
        // numbers in VARCHAR columns, which is part of the ambiguity the
        // paper highlights.
        (DataType::Text, other) => Ok(Value::Text(other.to_string())),
        _ => Err(value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn table() -> Table {
        Table::new(TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("name", DataType::Text),
                Column::new("score", DataType::Float),
            ],
        ))
    }

    #[test]
    fn insert_and_read() {
        let mut t = table();
        t.insert(vec![1.into(), "alice".into(), 3.5.into()])
            .unwrap();
        t.insert(vec![2.into(), Value::Null, Value::Null]).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(0, "name"), Some(&Value::Text("alice".into())));
        assert_eq!(t.value(1, "score"), Some(&Value::Null));
        assert_eq!(t.column_values("id").unwrap().len(), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = table();
        let err = t.insert(vec![1.into()]).unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch(_)));
    }

    #[test]
    fn not_null_enforced() {
        let mut t = table();
        let err = t
            .insert(vec![Value::Null, "x".into(), 1.0.into()])
            .unwrap_err();
        assert!(err.to_string().contains("NOT NULL"));
    }

    #[test]
    fn numeric_coercion() {
        let mut t = table();
        t.insert(vec![Value::Float(3.0), "x".into(), Value::Int(4)])
            .unwrap();
        assert_eq!(t.value(0, "id"), Some(&Value::Int(3)));
        assert_eq!(t.value(0, "score"), Some(&Value::Float(4.0)));
    }

    #[test]
    fn integer_coercion_rejects_out_of_range_floats() {
        // 1e300 is integral (fract == 0) but far outside i64 range: it must
        // be a SchemaMismatch, not a silently saturated i64::MAX key.
        let mut t = table();
        let err = t
            .insert(vec![Value::Float(1e300), "x".into(), 1.0.into()])
            .unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch(_)));
        let err = t
            .insert(vec![Value::Float(-1e300), "x".into(), 1.0.into()])
            .unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch(_)));
        // In-range integral floats still coerce.
        t.insert(vec![Value::Float(7.0), "x".into(), 1.0.into()])
            .unwrap();
        assert_eq!(t.value(0, "id"), Some(&Value::Int(7)));
    }

    #[test]
    fn text_column_accepts_numbers() {
        let mut t = table();
        t.insert(vec![1.into(), Value::Int(42), Value::Null])
            .unwrap();
        assert_eq!(t.value(0, "name"), Some(&Value::Text("42".into())));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = table();
        let err = t
            .insert(vec!["not a number".into(), "x".into(), 1.0.into()])
            .unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch(_)));
    }

    #[test]
    fn insert_all_counts() {
        let mut t = table();
        let n = t
            .insert_all(vec![
                vec![1.into(), "a".into(), 1.0.into()],
                vec![2.into(), "b".into(), 2.0.into()],
            ])
            .unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn version_bumps_on_every_insert_and_failed_inserts_leave_it_alone() {
        let mut t = table();
        assert_eq!(t.version(), 0);
        t.insert(vec![1.into(), "a".into(), 1.0.into()]).unwrap();
        assert_eq!(t.version(), 1);
        assert!(t.insert(vec![1.into()]).is_err());
        assert_eq!(t.version(), 1, "failed insert must not bump the version");
        t.insert(vec![2.into(), "b".into(), 2.0.into()]).unwrap();
        assert_eq!(t.version(), 2);
    }

    #[test]
    fn clones_share_the_payload_until_a_write_copies_it() {
        let mut t = table();
        t.insert(vec![1.into(), "a".into(), 1.0.into()]).unwrap();
        let pinned = t.clone();
        assert!(t.same_version(&pinned), "clone pins the same payload");
        t.insert(vec![2.into(), "b".into(), 2.0.into()]).unwrap();
        assert!(
            !t.same_version(&pinned),
            "write under a pin must copy-on-write a new payload"
        );
        assert_eq!(pinned.row_count(), 1, "pinned payload is untouched");
        assert_eq!(t.row_count(), 2);
        assert_eq!(pinned.version(), 1);
        assert_eq!(t.version(), 2);
    }

    #[test]
    fn pinned_columnar_decode_survives_writes_and_new_version_decodes_fresh() {
        let mut t = table();
        t.insert_all((0..10i64).map(|i| vec![i.into(), format!("r{i}").into(), (i as f64).into()]))
            .unwrap();
        let pinned = t.clone();
        let before = pinned.columnar_batches(1);
        assert_eq!(before.iter().map(|b| b.len).sum::<usize>(), 10);
        // Writer streams more rows; the pinned decode must not change.
        t.insert(vec![10.into(), "new".into(), 1.0.into()]).unwrap();
        let after = pinned.columnar_batches(1);
        assert_eq!(
            after.iter().map(|b| b.len).sum::<usize>(),
            10,
            "a pinned snapshot's decode can never observe later inserts"
        );
        // The writer's new version decodes all rows.
        assert_eq!(
            t.columnar_batches(1).iter().map(|b| b.len).sum::<usize>(),
            11
        );
    }

    #[test]
    fn secondary_index_agrees_with_a_naive_scan() {
        let mut t = table();
        t.insert_all(vec![
            vec![5.into(), "e".into(), 2.5.into()],
            vec![1.into(), "a".into(), Value::Null],
            vec![3.into(), "c".into(), 1.0.into()],
            vec![1.into(), "a2".into(), 4.0.into()],
            vec![2.into(), "b".into(), 1.0.into()],
        ])
        .unwrap();
        let idx = t.secondary_index(0);
        assert!(!idx.has_nan());
        // Point: both rows with id = 1, ascending; Float(1.0) probes the
        // same group (group-key equality folds exact ints).
        assert_eq!(idx.point(&Value::Int(1)), &[1, 3]);
        assert_eq!(idx.point(&Value::Float(1.0)), &[1, 3]);
        assert_eq!(idx.point(&Value::Int(99)), &[] as &[u32]);
        assert_eq!(idx.point(&Value::Null), &[] as &[u32]);
        // Range over id: 2 <= id < 5 -> rows 2 (id 3) and 4 (id 2).
        let ids = idx.range(
            t.rows(),
            0,
            Some((&Value::Int(2), true)),
            Some((&Value::Int(5), false)),
        );
        assert_eq!(ids, vec![2, 4]);
        // Multi-key probe deduplicates keys and sorts ascending.
        assert_eq!(
            idx.probe(&[Value::Int(2), Value::Int(1), Value::Int(1), Value::Null]),
            vec![1, 3, 4]
        );
        // Ordered index on the nullable float column: NULL first, then by
        // value with ties broken by row id.
        let fidx = t.secondary_index(2);
        assert_eq!(fidx.null_count(), 1);
        assert_eq!(fidx.ordered(), &[1, 2, 4, 0, 3]);
        // A NULL bound matches nothing.
        assert!(fidx
            .range(t.rows(), 2, Some((&Value::Null, true)), None)
            .is_empty());
    }

    #[test]
    fn nan_poisoned_columns_set_the_fallback_flag() {
        let mut t = table();
        t.insert_all(vec![
            vec![1.into(), "a".into(), f64::NAN.into()],
            vec![2.into(), "b".into(), 1.0.into()],
        ])
        .unwrap();
        assert!(t.secondary_index(2).has_nan());
        assert!(!t.secondary_index(0).has_nan());
    }

    #[test]
    fn pinned_secondary_index_survives_writes_and_new_version_rebuilds() {
        let mut t = table();
        t.insert_all((0..10i64).map(|i| vec![i.into(), format!("r{i}").into(), (i as f64).into()]))
            .unwrap();
        let pinned = t.clone();
        let before = pinned.secondary_index(0);
        assert_eq!(before.point(&Value::Int(7)), &[7]);
        assert_eq!(before.point(&Value::Int(10)), &[] as &[u32]);
        // Writer installs a new version; the pinned index must not change.
        t.insert(vec![10.into(), "new".into(), 1.0.into()]).unwrap();
        let still = pinned.secondary_index(0);
        assert_eq!(
            still.point(&Value::Int(10)),
            &[] as &[u32],
            "a pinned snapshot's index can never observe later inserts"
        );
        assert!(Arc::ptr_eq(&before, &still), "pinned index is cached");
        // The writer's new version rebuilds lazily and sees the new row.
        assert_eq!(t.secondary_index(0).point(&Value::Int(10)), &[10]);
    }

    #[test]
    fn pinned_stats_survive_writes_and_new_version_recomputes() {
        let mut t = table();
        t.insert_all((0..10i64).map(|i| vec![i.into(), format!("r{i}").into(), (i as f64).into()]))
            .unwrap();
        let pinned = t.clone();
        let before = pinned.stats();
        assert_eq!(before.row_count, 10);
        assert_eq!(before.column(0).unwrap().ndv, 10);
        // Writer installs a new version; the pinned stats must not change.
        t.insert(vec![10.into(), "new".into(), 1.0.into()]).unwrap();
        let still = pinned.stats();
        assert_eq!(
            still.row_count, 10,
            "a pinned snapshot's statistics can never observe later inserts"
        );
        assert!(Arc::ptr_eq(&before, &still), "pinned stats are cached");
        // The writer's new version recomputes lazily and sees the new row.
        let fresh = t.stats();
        assert_eq!(fresh.row_count, 11);
        assert_eq!(fresh.column(0).unwrap().ndv, 11);
    }

    #[test]
    fn projection_pruned_decode_materializes_only_requested_columns() {
        let mut t = table();
        t.insert_all((0..4i64).map(|i| vec![i.into(), format!("r{i}").into(), (i as f64).into()]))
            .unwrap();
        let pruned = t.columnar_batches_for(1, Some(&[0]));
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].columns[0].len(), 4, "requested column decoded");
        assert_eq!(pruned[0].columns[1].len(), 0, "pruned column is empty");
        assert_eq!(pruned[0].columns[2].len(), 0, "pruned column is empty");
        // A later full decode fills the remaining cells and reuses the
        // already-decoded column by refcount.
        let full = t.columnar_batches(1);
        assert!(Arc::ptr_eq(&pruned[0].columns[0], &full[0].columns[0]));
        assert_eq!(full[0].columns[1].len(), 4);
        assert_eq!(full[0].columns[2].len(), 4);
    }

    #[test]
    fn serde_round_trip_preserves_rows_and_version() {
        let mut t = table();
        t.insert_all(vec![
            vec![1.into(), "a".into(), 1.0.into()],
            vec![2.into(), "b".into(), 2.0.into()],
        ])
        .unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.version(), 2);
    }
}
