//! The 5-level backtranslation clarity rubric (paper §5.2, Figure 4).
//!
//! To measure how much SQL-relevant information a natural-language
//! description preserves, the paper backtranslates the description into SQL
//! with a vanilla LLM and grades the regenerated query against the original
//! on a 5-level scale:
//!
//! 1. **Invalid** — the regenerated SQL fails to parse or execute.
//! 2. **Executable but structurally incorrect** — wrong tables, missing
//!    joins, irrelevant subqueries.
//! 3. **Column-level errors** — right structure, wrong columns / filters /
//!    functions / groupings.
//! 4. **Minor issues** — mostly faithful; ordering, nuance, or redundancy
//!    deviations.
//! 5. **Fully correct** — matches the original in structure and semantics.
//!
//! [`grade`] reproduces this rubric mechanically using the SQL analyzer and,
//! when a database is supplied, actual execution results.

use bp_sql::{analyze, Query};
use bp_storage::{results_match, Database, ExecOptions, PlanCache, Snapshot};
use serde::{Deserialize, Serialize};

/// The five clarity levels of the backtranslation rubric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ClarityLevel {
    /// Level 1: the SQL fails to parse or execute.
    Invalid = 1,
    /// Level 2: executable but structurally incorrect.
    StructurallyIncorrect = 2,
    /// Level 3: structurally correct but column-level errors.
    ColumnErrors = 3,
    /// Level 4: mostly faithful with minor deviations.
    MinorIssues = 4,
    /// Level 5: fully correct.
    FullyCorrect = 5,
}

impl ClarityLevel {
    /// Numeric value 1..=5.
    pub fn as_u8(&self) -> u8 {
        *self as u8
    }

    /// Construct from a numeric level (clamped to 1..=5).
    pub fn from_u8(level: u8) -> ClarityLevel {
        match level {
            0 | 1 => ClarityLevel::Invalid,
            2 => ClarityLevel::StructurallyIncorrect,
            3 => ClarityLevel::ColumnErrors,
            4 => ClarityLevel::MinorIssues,
            _ => ClarityLevel::FullyCorrect,
        }
    }

    /// All levels, lowest to highest.
    pub fn all() -> [ClarityLevel; 5] {
        [
            ClarityLevel::Invalid,
            ClarityLevel::StructurallyIncorrect,
            ClarityLevel::ColumnErrors,
            ClarityLevel::MinorIssues,
            ClarityLevel::FullyCorrect,
        ]
    }
}

/// The graded outcome of one backtranslation comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RubricOutcome {
    /// The assigned clarity level.
    pub level: ClarityLevel,
    /// A short explanation of why the level was assigned.
    pub reason: String,
}

/// Grade a regenerated SQL text against the original query.
///
/// When `db` is provided, level 1 vs 2 is decided by actually executing the
/// regenerated SQL, and level 5 requires matching execution results; without
/// a database the decision falls back to purely structural comparison.
pub fn grade(original: &Query, regenerated_sql: &str, db: Option<&Database>) -> RubricOutcome {
    // Level 1: must parse.
    let regenerated = match bp_sql::parse_query(regenerated_sql) {
        Ok(q) => q,
        Err(e) => {
            return RubricOutcome {
                level: ClarityLevel::Invalid,
                reason: format!("regenerated SQL does not parse: {e}"),
            }
        }
    };

    // Level 1 (continued): must execute when a database is available.
    let mut execution_matches = None;
    if let Some(db) = db {
        match db.execute(&regenerated) {
            Err(e) => {
                return RubricOutcome {
                    level: ClarityLevel::Invalid,
                    reason: format!("regenerated SQL fails to execute: {e}"),
                }
            }
            Ok(predicted) => {
                if let Ok(gold) = db.execute(original) {
                    execution_matches = Some(results_match(&gold, &predicted));
                }
            }
        }
    }

    grade_structural(original, &regenerated, execution_matches)
}

/// Levels 2–5 of the rubric: the purely structural comparison shared by
/// [`grade`] and [`grade_cached`], applied once level 1 (parse + execute)
/// has been decided and execution results (when available) compared.
fn grade_structural(
    original: &Query,
    regenerated: &Query,
    execution_matches: Option<bool>,
) -> RubricOutcome {
    let gold = analyze(original);
    let pred = analyze(regenerated);

    // Level 2: structural correctness = same base tables and comparable join
    // / nesting shape.
    let tables_match = gold.tables == pred.tables;
    let join_gap = gold.join_count.abs_diff(pred.join_count);
    let nesting_gap = gold.nesting_depth.abs_diff(pred.nesting_depth);
    if !tables_match || join_gap > 1 {
        return RubricOutcome {
            level: ClarityLevel::StructurallyIncorrect,
            reason: format!(
                "structural mismatch: tables {:?} vs {:?}, joins {} vs {}",
                gold.tables, pred.tables, gold.join_count, pred.join_count
            ),
        };
    }

    // Level 3: column-level correctness = same columns, aggregates, grouping
    // and predicate count.
    let columns_match = gold.columns == pred.columns;
    let mut gold_aggs = gold.aggregate_functions.clone();
    let mut pred_aggs = pred.aggregate_functions.clone();
    gold_aggs.sort();
    pred_aggs.sort();
    let aggregates_match = gold_aggs == pred_aggs;
    let grouping_match = gold.has_group_by == pred.has_group_by;
    let mut gold_lits = gold.literal_terms.clone();
    let mut pred_lits = pred.literal_terms.clone();
    gold_lits.sort();
    pred_lits.sort();
    let filters_match = gold.predicate_count == pred.predicate_count && gold_lits == pred_lits;
    if !columns_match || !aggregates_match || !grouping_match || !filters_match {
        return RubricOutcome {
            level: ClarityLevel::ColumnErrors,
            reason: format!(
                "column-level mismatch: columns equal = {columns_match}, aggregates equal = {aggregates_match}, grouping equal = {grouping_match}, filters equal = {filters_match}"
            ),
        };
    }

    // Level 4 vs 5: ordering / limit nuances and (when available) execution
    // result equality.
    let ordering_match = gold.has_order_by == pred.has_order_by
        && gold.has_limit == pred.has_limit
        && gold.has_distinct == pred.has_distinct
        && nesting_gap == 0
        && gold.set_operation_count == pred.set_operation_count;
    let fully_correct = match execution_matches {
        Some(matches) => matches && ordering_match,
        None => ordering_match,
    };
    if fully_correct {
        RubricOutcome {
            level: ClarityLevel::FullyCorrect,
            reason: "structure, columns, and semantics all match".to_string(),
        }
    } else {
        RubricOutcome {
            level: ClarityLevel::MinorIssues,
            reason: format!(
                "minor deviations: ordering/limit/distinct aligned = {ordering_match}, execution match = {execution_matches:?}"
            ),
        }
    }
}

/// Grade from SQL text for both sides.
pub fn grade_sql(
    original_sql: &str,
    regenerated_sql: &str,
    db: Option<&Database>,
) -> Result<RubricOutcome, bp_sql::SqlError> {
    let original = bp_sql::parse_query(original_sql)?;
    Ok(grade(&original, regenerated_sql, db))
}

/// [`grade_sql`] with execution routed through a shared [`PlanCache`]
/// against a pinned [`Snapshot`] — the shape batch graders want: every
/// distinct SQL text (each original query, and each regeneration that
/// reproduces one) is parsed, planned and compiled once per corpus sweep
/// instead of once per comparison, and all comparisons in a sweep read one
/// consistent database state however fast a writer streams inserts.
///
/// The outcome is identical to [`grade_sql`] with the same data: caching
/// changes how often compilation happens, never what is graded.
pub fn grade_cached(
    original_sql: &str,
    regenerated_sql: &str,
    snapshot: &Snapshot,
    cache: &PlanCache,
) -> Result<RubricOutcome, bp_sql::SqlError> {
    let original = bp_sql::parse_query(original_sql)?;
    // Level 1: must parse.
    let regenerated = match bp_sql::parse_query(regenerated_sql) {
        Ok(q) => q,
        Err(e) => {
            return Ok(RubricOutcome {
                level: ClarityLevel::Invalid,
                reason: format!("regenerated SQL does not parse: {e}"),
            })
        }
    };
    // Level 1 (continued): must execute. Each side runs single-threaded —
    // sweeps parallelize across comparisons, not inside one query — and
    // folds its counters into the cache; that is where the study report's
    // index-scan vs full-scan split comes from.
    let run = |sql: &str| cache.execute(snapshot, sql, ExecOptions::serial());
    let mut execution_matches = None;
    match run(regenerated_sql) {
        Err(e) => {
            return Ok(RubricOutcome {
                level: ClarityLevel::Invalid,
                reason: format!("regenerated SQL fails to execute: {e}"),
            })
        }
        Ok(predicted) => {
            if let Ok(gold) = run(original_sql) {
                execution_matches = Some(results_match(&gold, &predicted));
            }
        }
    }
    Ok(grade_structural(&original, &regenerated, execution_matches))
}

/// A histogram of clarity levels (the series plotted in Figure 4).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ClarityHistogram {
    /// Count of outcomes per level 1..=5 (index 0 = level 1).
    pub counts: [usize; 5],
}

impl ClarityHistogram {
    /// Build a histogram from a list of outcomes.
    pub fn from_levels<'a, I: IntoIterator<Item = &'a ClarityLevel>>(levels: I) -> Self {
        let mut histogram = ClarityHistogram::default();
        for level in levels {
            histogram.counts[(level.as_u8() - 1) as usize] += 1;
        }
        histogram
    }

    /// Add one outcome.
    pub fn record(&mut self, level: ClarityLevel) {
        self.counts[(level.as_u8() - 1) as usize] += 1;
    }

    /// Total number of recorded outcomes.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Proportion of outcomes at the given level.
    pub fn proportion(&self, level: ClarityLevel) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.counts[(level.as_u8() - 1) as usize] as f64 / total as f64
    }

    /// Mean clarity level.
    pub fn mean_level(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let weighted: usize = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, c)| (i + 1) * c)
            .sum();
        weighted as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campus_db() -> Database {
        let mut db = Database::new("campus");
        db.ingest_ddl(
            "CREATE TABLE students (id INT PRIMARY KEY, name VARCHAR(50), gpa NUMBER, dept VARCHAR(20));",
        )
        .unwrap();
        db.insert_into(
            "students",
            vec![
                vec![1.into(), "alice".into(), 3.9.into(), "EECS".into()],
                vec![2.into(), "bob".into(), 3.1.into(), "MATH".into()],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn unparseable_sql_is_level_1() {
        let outcome = grade_sql("SELECT name FROM students", "SELEC name FROM FROM", None).unwrap();
        assert_eq!(outcome.level, ClarityLevel::Invalid);
    }

    #[test]
    fn unexecutable_sql_is_level_1_with_database() {
        let db = campus_db();
        let outcome = grade_sql(
            "SELECT name FROM students",
            "SELECT name FROM professors",
            Some(&db),
        )
        .unwrap();
        assert_eq!(outcome.level, ClarityLevel::Invalid);
    }

    #[test]
    fn wrong_table_without_db_is_level_2() {
        let outcome = grade_sql(
            "SELECT name FROM students",
            "SELECT name FROM professors",
            None,
        )
        .unwrap();
        assert_eq!(outcome.level, ClarityLevel::StructurallyIncorrect);
    }

    #[test]
    fn wrong_column_is_level_3() {
        let outcome = grade_sql(
            "SELECT name FROM students WHERE gpa > 3.5",
            "SELECT dept FROM students WHERE gpa > 3.5",
            None,
        )
        .unwrap();
        assert_eq!(outcome.level, ClarityLevel::ColumnErrors);
    }

    #[test]
    fn missing_filter_is_level_3() {
        let outcome = grade_sql(
            "SELECT name FROM students WHERE dept = 'EECS'",
            "SELECT name FROM students",
            None,
        )
        .unwrap();
        assert_eq!(outcome.level, ClarityLevel::ColumnErrors);
    }

    #[test]
    fn missing_order_by_is_level_4() {
        let outcome = grade_sql(
            "SELECT name, gpa FROM students ORDER BY gpa DESC",
            "SELECT name, gpa FROM students",
            None,
        )
        .unwrap();
        assert_eq!(outcome.level, ClarityLevel::MinorIssues);
    }

    #[test]
    fn identical_query_is_level_5() {
        let db = campus_db();
        let outcome = grade_sql(
            "SELECT name FROM students WHERE gpa > 3.5",
            "SELECT name FROM students WHERE gpa > 3.5",
            Some(&db),
        )
        .unwrap();
        assert_eq!(outcome.level, ClarityLevel::FullyCorrect);
    }

    #[test]
    fn equivalent_rewrite_is_level_5_without_db() {
        let outcome = grade_sql(
            "SELECT name FROM students WHERE gpa > 3.5 ORDER BY name",
            "SELECT name FROM students WHERE gpa > 3.5 ORDER BY name ASC",
            None,
        )
        .unwrap();
        assert_eq!(outcome.level, ClarityLevel::FullyCorrect);
    }

    #[test]
    fn grade_cached_agrees_with_grade_sql_everywhere() {
        let db = campus_db();
        let snapshot = db.snapshot();
        let cache = PlanCache::with_default_capacity();
        let cases = [
            // (original, regenerated) covering every rubric level, plus
            // failure modes on both sides.
            ("SELECT name FROM students", "SELEC name FROM FROM"),
            ("SELECT name FROM students", "SELECT name FROM professors"),
            (
                "SELECT name FROM students WHERE gpa > 3.5",
                "SELECT dept FROM students WHERE gpa > 3.5",
            ),
            (
                "SELECT name FROM students WHERE dept = 'EECS'",
                "SELECT name FROM students",
            ),
            (
                "SELECT name, gpa FROM students ORDER BY gpa DESC",
                "SELECT name, gpa FROM students",
            ),
            (
                "SELECT name FROM students WHERE gpa > 3.5",
                "SELECT name FROM students WHERE gpa > 3.5",
            ),
            // Original fails to execute: falls back to structural grading.
            ("SELECT nosuch FROM students", "SELECT nosuch FROM students"),
        ];
        for (original, regenerated) in cases {
            let direct = grade_sql(original, regenerated, Some(&db)).unwrap();
            let cached = grade_cached(original, regenerated, &snapshot, &cache).unwrap();
            assert_eq!(
                direct, cached,
                "cached grading diverges on ({original}, {regenerated})"
            );
            // And again, now that every plan is warm in the cache.
            let warm = grade_cached(original, regenerated, &snapshot, &cache).unwrap();
            assert_eq!(direct, warm);
        }
        // The sweep's access-path split is observable on the cache: the
        // sargable predicates (`dept = 'EECS'`, `gpa > 3.5`) compiled onto
        // the secondary index, the bare projections walked the table.
        let access = cache.access_stats();
        assert!(access.index_scan > 0, "sargable cases must probe the index");
        assert!(access.full_scan > 0, "unfiltered cases must full-scan");
        // Unparseable originals error identically.
        assert!(grade_sql("SELEC", "SELECT 1", Some(&db)).is_err());
        assert!(grade_cached("SELEC", "SELECT 1", &snapshot, &cache).is_err());
        let stats = cache.stats();
        assert!(stats.hits > 0, "second sweep must hit the cache");
    }

    #[test]
    fn grade_cached_pins_its_snapshot_under_writes() {
        let mut db = campus_db();
        let snapshot = db.snapshot();
        let cache = PlanCache::with_default_capacity();
        let before = grade_cached(
            "SELECT COUNT(*) FROM students",
            "SELECT COUNT(*) FROM students",
            &snapshot,
            &cache,
        )
        .unwrap();
        db.insert_into(
            "students",
            vec![vec![3.into(), "carol".into(), 3.5.into(), "EECS".into()]],
        )
        .unwrap();
        // The pinned snapshot still grades the old state...
        let pinned = grade_cached(
            "SELECT COUNT(*) FROM students",
            "SELECT COUNT(*) FROM students",
            &snapshot,
            &cache,
        )
        .unwrap();
        assert_eq!(before, pinned);
        // ...and a fresh snapshot sees the write, with the stale plan
        // invalidated by table version rather than reused.
        let fresh = db.snapshot();
        let outcome = grade_cached(
            "SELECT COUNT(*) FROM students",
            "SELECT COUNT(*) FROM students",
            &fresh,
            &cache,
        )
        .unwrap();
        assert_eq!(outcome.level, ClarityLevel::FullyCorrect);
        assert!(cache.stats().invalidations >= 1);
    }

    #[test]
    fn level_round_trip() {
        for level in ClarityLevel::all() {
            assert_eq!(ClarityLevel::from_u8(level.as_u8()), level);
        }
        assert_eq!(ClarityLevel::from_u8(0), ClarityLevel::Invalid);
        assert_eq!(ClarityLevel::from_u8(9), ClarityLevel::FullyCorrect);
    }

    #[test]
    fn histogram_accumulates() {
        let mut histogram = ClarityHistogram::default();
        histogram.record(ClarityLevel::FullyCorrect);
        histogram.record(ClarityLevel::FullyCorrect);
        histogram.record(ClarityLevel::MinorIssues);
        assert_eq!(histogram.total(), 3);
        assert!((histogram.proportion(ClarityLevel::FullyCorrect) - 2.0 / 3.0).abs() < 1e-9);
        assert!((histogram.mean_level() - (5.0 + 5.0 + 4.0) / 3.0).abs() < 1e-9);
        let from_levels = ClarityHistogram::from_levels(&[
            ClarityLevel::FullyCorrect,
            ClarityLevel::FullyCorrect,
            ClarityLevel::MinorIssues,
        ]);
        assert_eq!(histogram, from_levels);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let histogram = ClarityHistogram::default();
        assert_eq!(histogram.total(), 0);
        assert_eq!(histogram.mean_level(), 0.0);
        assert_eq!(histogram.proportion(ClarityLevel::Invalid), 0.0);
    }
}
