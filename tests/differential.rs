//! Differential test suite for the planned query engine.
//!
//! Every query of a generated workload — across all four benchmark corpora
//! (Spider, Bird, Fiben, Beaver) — is executed **two ways**:
//! `ExecStrategy::Planned` (the columnar batch engine, the default) and
//! `ExecStrategy::Legacy` (the tree-walking interpreter, the oracle).
//! Successful results must be *identical*: same columns, same rows in the
//! same order, same ordered flag — or both engines must fail.
//!
//! The planned engine runs at thread budgets 1 **and** 4 (parallel
//! operators run even on single-core CI; determinism makes extra workers
//! harmless) and must be byte-identical to itself across thread counts —
//! including on error paths. Seed-driven generators target what the corpus
//! generator never emits: NULL-heavy boolean predicates (three-valued
//! logic), large-magnitude integers (±2^53 neighborhood, `i64::MIN`/`MAX`),
//! text containing the historical `"\u{1}"` key separator, and ORDER
//! BY/LIMIT/OFFSET/DISTINCT combinations that exercise the fused Top-K and
//! the dedup paths.

use benchpress_suite::datasets::{BenchmarkKind, CorpusScale, GeneratedBenchmark};
use benchpress_suite::sql::DataType;
use benchpress_suite::storage::{Column, Database, ExecOptions, ExecStrategy, TableSchema, Value};
use proptest::prelude::*;

/// Parallel thread budget for the planned engine in this suite.
const TEST_THREADS: usize = 4;

/// Execute with the columnar engine (at threads 1 and 4) and the legacy
/// interpreter. Successful results must be byte-identical across both
/// engines and thread counts; when a query errors, both engines must error,
/// and the columnar engine's error must be identical across thread counts.
fn assert_engines_agree(db: &Database, sql: &str, label: &str) {
    let legacy = db.execute_sql(sql, ExecOptions::new(ExecStrategy::Legacy));
    let columnar = db.execute_sql(
        sql,
        ExecOptions::new(ExecStrategy::Planned).with_threads(TEST_THREADS),
    );
    match (&legacy, &columnar) {
        (Ok(l), Ok(c)) => assert_eq!(l, c, "legacy vs columnar disagree on {label}: {sql}"),
        (Err(_), Err(_)) => {}
        (l, c) => panic!("ok/err divergence on {label} query {sql}: legacy={l:?} columnar={c:?}"),
    }
    // Thread-count determinism, including error identity.
    let columnar_serial = db.execute_sql(sql, ExecOptions::serial());
    assert_eq!(
        columnar_serial, columnar,
        "parallel columnar diverges from serial columnar on {label}: {sql}"
    );
}

fn assert_corpus_differential(kind: BenchmarkKind, query_count: usize, seed: u64) {
    let corpus = GeneratedBenchmark::generate(kind, query_count, seed);
    for entry in &corpus.log {
        assert_engines_agree(&corpus.database, &entry.sql, kind.name());
    }
}

/// Every plan the compiler emits for a corpus — at both fast-path settings
/// — must pass the static verifier with zero violations. Compile failures
/// are skipped (deferred plan errors are legal); compiled plans must be
/// sound.
fn assert_corpus_verifies(kind: BenchmarkKind, query_count: usize, seed: u64) {
    use benchpress_suite::storage::{compile_query, verify_plan, CompileOptions};
    let corpus = GeneratedBenchmark::generate(kind, query_count, seed);
    let snapshot = corpus.database.snapshot();
    for entry in &corpus.log {
        let Ok(query) = benchpress_suite::sql::parse_query(&entry.sql) else {
            continue;
        };
        for fast_paths in [true, false] {
            let options = CompileOptions {
                fast_paths,
                ..CompileOptions::default()
            };
            if let Ok(plan) = compile_query(&snapshot, &query, options) {
                let violations = verify_plan(&snapshot, &plan);
                assert!(
                    violations.is_empty(),
                    "{} (fast_paths={fast_paths}): {}\n{}",
                    kind.name(),
                    entry.sql,
                    violations
                        .iter()
                        .map(|v| format!("  - {v}"))
                        .collect::<Vec<_>>()
                        .join("\n")
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Spider-like workloads (simple lookups + light aggregation).
    #[test]
    fn planned_matches_interpreter_on_spider(seed in 0u64..10_000) {
        assert_corpus_differential(BenchmarkKind::Spider, 10, seed);
    }

    /// Bird-like workloads (wider schemas, more aggregation).
    #[test]
    fn planned_matches_interpreter_on_bird(seed in 0u64..10_000) {
        assert_corpus_differential(BenchmarkKind::Bird, 10, seed);
    }

    /// Fiben-like workloads (deep joins and nesting).
    #[test]
    fn planned_matches_interpreter_on_fiben(seed in 0u64..10_000) {
        assert_corpus_differential(BenchmarkKind::Fiben, 8, seed);
    }

    /// Beaver-like workloads (enterprise: CTEs, deep joins, domain filters,
    /// NULL-heavy data).
    #[test]
    fn planned_matches_interpreter_on_beaver(seed in 0u64..10_000) {
        assert_corpus_differential(BenchmarkKind::Beaver, 8, seed);
    }

    /// Static-verification property: every plan compiled from all four
    /// corpora passes `verify_plan` with zero violations, with index fast
    /// paths both on and off. (In debug builds the compile hook asserts
    /// this a second time from inside `compile_query`.)
    #[test]
    fn corpus_plans_verify_cleanly(seed in 0u64..10_000) {
        for kind in [
            BenchmarkKind::Spider,
            BenchmarkKind::Bird,
            BenchmarkKind::Fiben,
            BenchmarkKind::Beaver,
        ] {
            assert_corpus_verifies(kind, 8, seed);
        }
    }
}

/// One scaled corpus run: the hash-join and multi-batch columnar paths
/// (exercised for real at Medium scale, with inputs large enough to split
/// into multiple batches/morsels) must agree with the oracles row-for-row.
#[test]
fn planned_matches_interpreter_on_scaled_corpus() {
    let corpus = GeneratedBenchmark::generate_scaled(
        BenchmarkKind::Spider,
        6,
        20_260_730,
        CorpusScale::Medium,
    );
    for entry in &corpus.log {
        assert_engines_agree(&corpus.database, &entry.sql, "scaled-corpus");
    }
}

// ---------------------------------------------------------------------
// Scalar-kernel corner corpus: three-valued logic, exact integers,
// separator-bearing text
// ---------------------------------------------------------------------

/// SplitMix64: expands one proptest-supplied seed into a deterministic
/// stream for the predicate/query generators below.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        &options[self.below(options.len())]
    }
}

/// Large-magnitude integers around the f64-exactness cliff plus the i64
/// extremes; every value here collided (or truncated) on the old
/// f64-routed key/arithmetic paths.
const EDGE_INTS: [i64; 10] = [
    i64::MIN,
    i64::MIN + 1,
    -(1 << 53) - 1,
    -(1 << 53),
    0,
    1,
    (1 << 53) - 1,
    1 << 53,
    (1 << 53) + 1,
    i64::MAX,
];

/// Text values around the historical `"\u{1}"` composite-key separator.
const EDGE_TEXT: [&str; 8] = [
    "a",
    "b",
    "a\u{1}b",
    "a\u{1}",
    "\u{1}b",
    "",
    "\u{1}",
    "a\u{1}b\u{1}c",
];

/// A two-table database stocked with NULL-heavy booleans, ±2^53-boundary
/// integers, i64 extremes, and separator-bearing text. The proptest suites
/// use the small size (fast inline execution, many seeds); the scaled test
/// below uses a size past the morsel threshold so the same corner data
/// also flows through the multi-morsel parallel operators.
fn edge_db() -> Database {
    edge_db_sized(48)
}

fn edge_db_sized(rows_per_table: i64) -> Database {
    let mut db = Database::new("edge");
    for table in ["EDGE_A", "EDGE_B"] {
        db.create_table(TableSchema::new(
            table,
            vec![
                Column::new("ID", DataType::Integer).primary_key(),
                Column::new("BIG", DataType::Integer),
                Column::new("FRAC", DataType::Float),
                Column::new("FLAG", DataType::Boolean),
                Column::new("TXT", DataType::Text),
                Column::new("GRP", DataType::Text),
            ],
        ))
        .expect("edge schema");
    }
    for (t, table) in ["EDGE_A", "EDGE_B"].iter().enumerate() {
        let mut mix = Mix(0xed6e ^ ((t as u64) << 32));
        let rows: Vec<Vec<Value>> = (0..rows_per_table)
            .map(|i| {
                let big = if mix.below(4) == 0 {
                    Value::Null
                } else {
                    Value::Int(*mix.pick(&EDGE_INTS))
                };
                let frac = match mix.below(6) {
                    0 => Value::Null,
                    1 => Value::Float((1i64 << 53) as f64),
                    // 2^63: the f64 that i64::MAX rounds to — comparison
                    // and hash keys must agree it equals no i64.
                    2 => Value::Float(9_223_372_036_854_775_808.0),
                    3 => Value::Float(-0.0),
                    4 => Value::Float(0.5),
                    _ => Value::Float(mix.below(10) as f64),
                };
                let flag = match mix.below(3) {
                    0 => Value::Null,
                    1 => Value::Bool(true),
                    _ => Value::Bool(false),
                };
                vec![
                    Value::Int(i),
                    big,
                    frac,
                    flag,
                    Value::Text(mix.pick(&EDGE_TEXT).to_string()),
                    Value::Text(format!("g{}", mix.below(3))),
                ]
            })
            .collect();
        db.insert_into(table, rows).expect("edge rows");
    }
    db
}

/// The corner corpus plus NaN-poisoned float rows: NaN breaks the
/// coincidence between the secondary indexes' `total_cmp`/`group_key`
/// structure and per-row SQL semantics, so every index fast path must
/// detect it and fall back to the exact scan kernels. Data-level only —
/// no SQL literal spells NaN, which is exactly why the generators cannot
/// reach this state without help.
fn edge_db_with_nan() -> Database {
    let mut db = edge_db();
    for table in ["EDGE_A", "EDGE_B"] {
        let rows: Vec<Vec<Value>> = (0..6i64)
            .map(|i| {
                vec![
                    Value::Int(1000 + i),
                    Value::Int(i % 3),
                    if i % 2 == 0 {
                        Value::Float(f64::NAN)
                    } else {
                        Value::Float(0.5)
                    },
                    Value::Bool(true),
                    Value::Text("n".to_string()),
                    Value::Text(format!("g{}", i % 3)),
                ]
            })
            .collect();
        db.insert_into(table, rows).expect("nan rows");
    }
    db
}

/// Render one sargable conjunct — the shapes the compiler lowers onto a
/// secondary index: point equality (int/float/text, including a float
/// literal probing an int column), one-sided ranges, BETWEEN, IN-lists.
fn gen_sargable(mix: &mut Mix) -> String {
    let int_lits = ["0", "1", "3", "9007199254740993", "-1"];
    match mix.below(10) {
        0 => format!("ID = {}", mix.below(64)),
        1 => format!("BIG = {}", mix.pick(&int_lits)),
        2 => format!("TXT = '{}'", mix.pick(&["a", "b", "a\u{1}b", ""])),
        3 => format!("FRAC {} 0.5", mix.pick(&["<", "<=", ">", ">=", "="])),
        4 => format!(
            "BIG {} {}",
            mix.pick(&["<", "<=", ">", ">="]),
            mix.pick(&int_lits)
        ),
        5 => format!("ID BETWEEN {} AND {}", mix.below(40), mix.below(80)),
        6 => format!(
            "BIG IN ({}, {}, 9007199254740992)",
            mix.pick(&int_lits),
            mix.pick(&int_lits)
        ),
        7 => format!("TXT IN ('a', '\u{1}', '{}')", mix.pick(&["b", "a\u{1}b"])),
        8 => format!("GRP = 'g{}'", mix.below(4)),
        // A float-literal point probe on an integer column: `3.0` must hit
        // the same rows as `3`, and `0.5` none.
        _ => format!("BIG = {}", mix.pick(&["3.0", "0.5", "-0.0"])),
    }
}

/// Render a random boolean predicate tree: NULL-heavy comparison leaves
/// (every third row has a NULL somewhere) composed with AND/OR/NOT — the
/// shapes where eager two-valued logic diverges from SQL's three-valued
/// logic.
fn gen_predicate(mix: &mut Mix, depth: usize) -> String {
    if depth == 0 || mix.below(3) == 0 {
        let literal_ints = [
            "0",
            "1",
            "9007199254740992",
            "9007199254740993",
            "-9007199254740993",
        ];
        return match mix.below(8) {
            0 => "FLAG".to_string(),
            1 => format!(
                "BIG {} {}",
                mix.pick(&["=", "<>", "<", ">", "<=", ">="]),
                mix.pick(&literal_ints)
            ),
            2 => format!("FRAC {} 0.5", mix.pick(&["=", "<", ">"])),
            3 => format!("TXT = '{}'", mix.pick(&["a", "b", "a\u{1}b"])),
            4 => format!("BIG IS {}NULL", mix.pick(&["", "NOT "])),
            5 => format!("FLAG IS {}NULL", mix.pick(&["", "NOT "])),
            6 => "BIG = FRAC".to_string(),
            _ => format!(
                "BIG BETWEEN {} AND 9007199254740993",
                mix.pick(&["-9007199254740993", "0"])
            ),
        };
    }
    match mix.below(4) {
        0 => format!(
            "({} AND {})",
            gen_predicate(mix, depth - 1),
            gen_predicate(mix, depth - 1)
        ),
        1 => format!(
            "({} OR {})",
            gen_predicate(mix, depth - 1),
            gen_predicate(mix, depth - 1)
        ),
        2 => format!("(NOT {})", gen_predicate(mix, depth - 1)),
        _ => format!(
            "({} OR ({} AND {}))",
            gen_predicate(mix, depth - 1),
            gen_predicate(mix, depth - 1),
            gen_predicate(mix, depth - 1)
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// NULL-heavy boolean predicates: projected (so TRUE/FALSE/NULL all
    /// become visible output) and used as WHERE filters.
    #[test]
    fn three_valued_predicates_agree(seed in 0u64..1_000_000) {
        let db = edge_db();
        let mut mix = Mix(seed);
        for _ in 0..6 {
            let pred = gen_predicate(&mut mix, 3);
            assert_engines_agree(
                &db,
                &format!("SELECT ID, ({pred}) FROM EDGE_A ORDER BY ID"),
                "3vl-projection",
            );
            assert_engines_agree(
                &db,
                &format!("SELECT ID FROM EDGE_A WHERE {pred} ORDER BY ID"),
                "3vl-filter",
            );
        }
    }

    /// Large-magnitude integer keys and separator-bearing text through
    /// grouping, DISTINCT, joins and set operations.
    #[test]
    fn exact_keys_and_separator_text_agree(seed in 0u64..1_000_000) {
        let db = edge_db();
        let mut mix = Mix(seed ^ 0x5eed);
        let queries = [
            "SELECT GRP, TXT, COUNT(*) FROM EDGE_A GROUP BY GRP, TXT ORDER BY GRP, TXT".to_string(),
            "SELECT BIG, COUNT(*) FROM EDGE_A GROUP BY BIG ORDER BY BIG".to_string(),
            "SELECT DISTINCT TXT, GRP FROM EDGE_A ORDER BY TXT, GRP".to_string(),
            "SELECT DISTINCT BIG FROM EDGE_A ORDER BY BIG".to_string(),
            "SELECT a.ID, b.ID FROM EDGE_A a JOIN EDGE_B b ON a.TXT = b.TXT ORDER BY a.ID, b.ID".to_string(),
            "SELECT a.ID, b.ID FROM EDGE_A a JOIN EDGE_B b ON a.BIG = b.BIG ORDER BY a.ID, b.ID".to_string(),
            // Cross-type Int↔Float join keys across the 2^53 and 2^63
            // boundaries: the interpreter's comparison equality and the
            // hash join's key equality must coincide.
            "SELECT a.ID, b.ID FROM EDGE_A a JOIN EDGE_B b ON a.BIG = b.FRAC ORDER BY a.ID, b.ID".to_string(),
            "SELECT a.ID, b.ID FROM EDGE_A a LEFT JOIN EDGE_B b ON a.TXT = b.TXT AND a.GRP = b.GRP ORDER BY a.ID, b.ID".to_string(),
            "SELECT TXT FROM EDGE_A UNION SELECT TXT FROM EDGE_B ORDER BY TXT".to_string(),
            "SELECT TXT, GRP FROM EDGE_A INTERSECT SELECT TXT, GRP FROM EDGE_B".to_string(),
            "SELECT BIG FROM EDGE_A EXCEPT SELECT BIG FROM EDGE_B".to_string(),
            "SELECT MIN(BIG), MAX(BIG), COUNT(DISTINCT BIG) FROM EDGE_A".to_string(),
            format!(
                "SELECT ID FROM EDGE_A WHERE BIG IN (SELECT BIG FROM EDGE_B WHERE {}) ORDER BY ID",
                gen_predicate(&mut mix, 2)
            ),
            // Arithmetic on extreme integers: overflow must be an error in
            // both engines, never a silently rounded f64 answer.
            "SELECT ID, BIG + 1 FROM EDGE_A ORDER BY ID".to_string(),
            "SELECT ID, -BIG FROM EDGE_A ORDER BY ID".to_string(),
            "SELECT ID, BIG * 2 FROM EDGE_A ORDER BY ID".to_string(),
            "SELECT SUM(BIG) FROM EDGE_A WHERE BIG > 0".to_string(),
        ];
        for sql in &queries {
            assert_engines_agree(&db, sql, "exact-keys");
        }
    }

    /// Sargable predicate shapes the compiler lowers onto secondary
    /// indexes — point equality, one-sided ranges, BETWEEN, IN-lists, IN
    /// (subquery), index-served aggregates, and ordered-index Top-K
    /// prefixes — with and without residual conjuncts. The legacy
    /// interpreter never uses an index, so agreement with it *is* the
    /// indexed ≡ scanned proof; the NaN-poisoned corpus additionally
    /// forces every fast path through its exact-fallback branch.
    #[test]
    fn indexed_access_paths_agree(seed in 0u64..1_000_000) {
        for (db, tag) in [(edge_db(), "indexed"), (edge_db_with_nan(), "indexed-nan")] {
            let mut mix = Mix(seed ^ 0x1dc5);
            for _ in 0..4 {
                let sarg = gen_sargable(&mut mix);
                // Bare sargable filter, with projection pruning in play.
                assert_engines_agree(
                    &db,
                    &format!("SELECT ID, TXT FROM EDGE_A WHERE {sarg} ORDER BY ID"),
                    tag,
                );
                // Sargable conjunct + benign residual above the index scan.
                assert_engines_agree(
                    &db,
                    &format!(
                        "SELECT ID FROM EDGE_A WHERE {sarg} AND {} ORDER BY ID",
                        gen_predicate(&mut mix, 1)
                    ),
                    tag,
                );
            }
            // Ordered-index Top-K prefixes: NULLs sort first, duplicate keys
            // keep row order, OFFSET skips before LIMIT takes.
            let k = mix.below(20);
            let off = mix.below(6);
            assert_engines_agree(
                &db,
                &format!("SELECT BIG FROM EDGE_A ORDER BY BIG LIMIT {k}"),
                tag,
            );
            if tag == "indexed" {
                // ORDER BY over a NaN-bearing column is a pre-existing
                // engine panic (non-total sort comparator) in *every*
                // engine's full-sort path, so the NaN corpus only orders
                // by the NaN-free columns above.
                assert_engines_agree(
                    &db,
                    &format!("SELECT FRAC, ID FROM EDGE_A ORDER BY FRAC LIMIT {k} OFFSET {off}"),
                    tag,
                );
            }
            // Index-served aggregates (MAX(FRAC) falls back under NaN).
            assert_engines_agree(
                &db,
                "SELECT MIN(BIG), MAX(FRAC), COUNT(*), COUNT(BIG), COUNT(DISTINCT TXT) FROM EDGE_A",
                tag,
            );
            // IN (uncorrelated subquery) as a hash-index probe.
            assert_engines_agree(
                &db,
                &format!(
                    "SELECT ID FROM EDGE_A WHERE BIG IN (SELECT BIG FROM EDGE_B WHERE {}) ORDER BY ID",
                    gen_sargable(&mut mix)
                ),
                tag,
            );
        }
    }

    /// ORDER BY / LIMIT / OFFSET / DISTINCT combinations: the fused Top-K
    /// operator (bounded heap) must be byte-identical to the oracles' full
    /// sort + truncate, including stability on duplicate keys, and DISTINCT
    /// must dedup identically in both engines.
    #[test]
    fn order_by_limit_distinct_agree(seed in 0u64..1_000_000) {
        let db = edge_db();
        let mut mix = Mix(seed ^ 0x70b1);
        let key_pool = ["GRP", "TXT", "BIG", "FRAC", "ID", "FLAG"];
        for _ in 0..8 {
            // 1-3 sort keys with random directions; GRP/TXT/FLAG are
            // duplicate-heavy, so stability is observable under LIMIT.
            let key_count = 1 + mix.below(3);
            let keys: Vec<String> = (0..key_count)
                .map(|_| format!("{} {}", mix.pick(&key_pool), mix.pick(&["ASC", "DESC"])))
                .collect();
            let distinct = if mix.below(3) == 0 { "DISTINCT " } else { "" };
            let limit = match mix.below(4) {
                0 => String::new(),
                1 => format!(" LIMIT {}", mix.below(60)),
                2 => format!(" LIMIT {} OFFSET {}", mix.below(20), mix.below(20)),
                _ => format!(" LIMIT {}", 1 + mix.below(5)),
            };
            let sql = format!(
                "SELECT {distinct}GRP, TXT, BIG FROM EDGE_A ORDER BY {}{limit}",
                keys.join(", ")
            );
            assert_engines_agree(&db, &sql, "order-limit-distinct");
            // Top-K below an aggregation, and LIMIT over a set operation.
            let agg = format!(
                "SELECT GRP, COUNT(*) AS N FROM EDGE_A GROUP BY GRP ORDER BY N {}, GRP{limit}",
                mix.pick(&["ASC", "DESC"])
            );
            assert_engines_agree(&db, &agg, "order-limit-agg");
        }
        assert_engines_agree(
            &db,
            "SELECT TXT FROM EDGE_A UNION ALL SELECT TXT FROM EDGE_B ORDER BY TXT LIMIT 7 OFFSET 3",
            "order-limit-setop",
        );
    }
}

/// The corner-case data at a size past the morsel threshold (512 rows), so
/// three-valued predicates, exact integer keys, and separator-bearing text
/// flow through the *multi-morsel* parallel Filter/Project/Join/Aggregate
/// paths — the 48-row proptest corpus above runs inline and never splits.
#[test]
fn corner_corpus_agrees_through_multi_morsel_operators() {
    let db = edge_db_sized(640);
    let mut mix = Mix(0x600d);
    let queries = [
        format!(
            "SELECT ID, ({p}) FROM EDGE_A ORDER BY ID",
            p = gen_predicate(&mut mix, 3)
        ),
        format!(
            "SELECT ID FROM EDGE_A WHERE {} ORDER BY ID",
            gen_predicate(&mut mix, 3)
        ),
        "SELECT GRP, TXT, COUNT(*) FROM EDGE_A GROUP BY GRP, TXT ORDER BY GRP, TXT".to_string(),
        "SELECT DISTINCT BIG FROM EDGE_A ORDER BY BIG".to_string(),
        "SELECT a.ID, b.ID FROM EDGE_A a JOIN EDGE_B b ON a.TXT = b.TXT AND a.GRP = b.GRP ORDER BY a.ID, b.ID".to_string(),
        "SELECT a.ID, b.ID FROM EDGE_A a JOIN EDGE_B b ON a.BIG = b.BIG ORDER BY a.ID, b.ID".to_string(),
        "SELECT TXT, GRP FROM EDGE_A EXCEPT SELECT TXT, GRP FROM EDGE_B".to_string(),
        "SELECT ID, BIG + 1 FROM EDGE_A ORDER BY ID".to_string(),
        "SELECT SUM(BIG) FROM EDGE_A WHERE BIG > 0".to_string(),
        // DISTINCT-heavy micro-asserts: 640 rows collapse to a handful of
        // duplicate-laden key combinations, so the dedup path (columnar
        // column-slice keys vs the interpreter's composite-string set) does
        // real work, including separator-bearing text and exact integers.
        "SELECT DISTINCT GRP FROM EDGE_A".to_string(),
        "SELECT DISTINCT TXT, GRP FROM EDGE_A ORDER BY TXT, GRP".to_string(),
        "SELECT DISTINCT BIG, FRAC FROM EDGE_A ORDER BY BIG, FRAC".to_string(),
        "SELECT DISTINCT FLAG, GRP, TXT FROM EDGE_A".to_string(),
        "SELECT COUNT(DISTINCT TXT), COUNT(DISTINCT BIG) FROM EDGE_A".to_string(),
        "SELECT DISTINCT GRP, TXT FROM EDGE_A ORDER BY GRP, TXT LIMIT 5".to_string(),
    ];
    for sql in &queries {
        assert_engines_agree(&db, sql, "scaled-edge");
    }
    // Outer joins whose unmatched-right tracking spans several left-row
    // morsels: non-equi ON clauses run as nested loops, equi keys as hash
    // joins. `a.ID = b.BIG` matches only a handful of rows, so both sides
    // keep hundreds of unmatched rows while the output stays small.
    let outer_joins = [
        (
            "SELECT a.ID, b.ID FROM EDGE_A a RIGHT JOIN EDGE_B b ON a.ID < b.ID - 600 ORDER BY a.ID, b.ID",
            "NestedLoopJoin",
        ),
        (
            "SELECT a.ID, b.ID FROM EDGE_A a FULL JOIN EDGE_B b ON a.ID < b.ID - 600 ORDER BY a.ID, b.ID",
            "NestedLoopJoin",
        ),
        (
            "SELECT a.ID, b.ID FROM EDGE_A a RIGHT JOIN EDGE_B b ON a.ID = b.BIG ORDER BY a.ID, b.ID",
            "HashJoin",
        ),
        (
            "SELECT a.ID, b.ID FROM EDGE_A a FULL JOIN EDGE_B b ON a.ID = b.BIG ORDER BY a.ID, b.ID",
            "HashJoin",
        ),
    ];
    let snapshot = db.snapshot();
    for (sql, operator) in outer_joins {
        let query = benchpress_suite::sql::parse_query(sql).expect("outer join parses");
        let plan = benchpress_suite::storage::compile_query(&snapshot, &query, Default::default())
            .expect("outer join compiles");
        let rendered = plan.explain(&snapshot);
        assert!(
            rendered.contains(operator),
            "expected a {operator} for {sql}; plan:\n{rendered}"
        );
        assert_engines_agree(&db, sql, "scaled-edge-outer");
    }
}

/// Regression: a query error raised inside one morsel of a multi-morsel
/// parallel run must surface as the same clean `Err` serial execution
/// reports — never a panic. The scheduler once checked the shared failure
/// flag *after* claiming a morsel slot, so a worker could abandon a slot
/// that precedes the earliest error and crash result collection; repeated
/// rounds give thread timing a chance to hit any such window.
#[test]
fn parallel_query_errors_match_serial_cleanly() {
    let mut db = Database::new("overflow");
    db.create_table(TableSchema::new(
        "WIDE",
        vec![
            Column::new("ID", DataType::Integer).primary_key(),
            Column::new("BIG", DataType::Integer),
        ],
    ))
    .expect("schema");
    // 4096 rows split into many morsels; the first overflow site sits
    // mid-table so the failing morsel has predecessors still in flight.
    let rows: Vec<Vec<Value>> = (0..4096i64)
        .map(|i| {
            let big = if i >= 1500 && i % 700 == 0 {
                i64::MAX
            } else {
                i
            };
            vec![Value::Int(i), Value::Int(big)]
        })
        .collect();
    db.insert_into("WIDE", rows).expect("rows");
    let sql = "SELECT ID, BIG + 1 FROM WIDE";
    let serial = db
        .execute_sql(sql, ExecOptions::serial())
        .expect_err("serial planned must report the overflow");
    for round in 0..25 {
        let parallel = db
            .execute_sql(sql, ExecOptions::default().with_threads(8))
            .expect_err("parallel planned must report the overflow, not panic");
        assert_eq!(
            parallel, serial,
            "round {round}: planned error must be deterministic"
        );
    }
}

// ---------------------------------------------------------------------
// Cost-based join reordering: cost-based ≡ syntactic ≡ legacy
// ---------------------------------------------------------------------

/// A database shaped so join order matters: four tables spanning two
/// orders of magnitude in size, chained by shared keys (big → mid on a
/// fan-out key, mid → small, small → tiny), with an extreme-integer column
/// on the big table so generated projections can force identical overflow
/// errors through every compilation.
fn join_order_db() -> Database {
    let mut db = Database::new("reorder");
    db.create_table(TableSchema::new(
        "R_BIG",
        vec![
            Column::new("ID", DataType::Integer).primary_key(),
            Column::new("K", DataType::Integer),
            Column::new("EX", DataType::Integer),
        ],
    ))
    .expect("R_BIG schema");
    db.create_table(TableSchema::new(
        "R_MID",
        vec![
            Column::new("ID", DataType::Integer).primary_key(),
            Column::new("K", DataType::Integer),
            Column::new("J", DataType::Integer),
        ],
    ))
    .expect("R_MID schema");
    db.create_table(TableSchema::new(
        "R_SMALL",
        vec![
            Column::new("J", DataType::Integer).primary_key(),
            Column::new("M", DataType::Integer),
        ],
    ))
    .expect("R_SMALL schema");
    db.create_table(TableSchema::new(
        "R_TINY",
        vec![
            Column::new("M", DataType::Integer).primary_key(),
            Column::new("LBL", DataType::Text),
        ],
    ))
    .expect("R_TINY schema");
    db.insert_into(
        "R_BIG",
        (0..1024i64).map(|i| {
            let ex = if i == 600 { i64::MAX } else { i };
            vec![Value::Int(i), Value::Int(i % 8), Value::Int(ex)]
        }),
    )
    .expect("R_BIG rows");
    db.insert_into(
        "R_MID",
        (0..128i64).map(|i| vec![Value::Int(i), Value::Int(i % 8), Value::Int(i % 32)]),
    )
    .expect("R_MID rows");
    db.insert_into(
        "R_SMALL",
        (0..32i64).map(|i| vec![Value::Int(i), Value::Int(i % 4)]),
    )
    .expect("R_SMALL rows");
    db.insert_into(
        "R_TINY",
        (0..4i64).map(|i| vec![Value::Int(i), Value::Text(format!("m{i}"))]),
    )
    .expect("R_TINY rows");
    db
}

/// The reordered-joins oracle: compile `sql` with the cost-based join
/// reorderer and pinned to syntactic order, and require byte-identical
/// behavior — results *and* errors — at thread counts 1 and 4, plus
/// Ok/Err parity (and result equality on success) with the legacy
/// interpreter, which never reorders anything. The cost-based plan must
/// also pass the static verifier (whose join-binding invariant is
/// association-order-independent). Failure messages print both plans'
/// `explain()` renderings so a divergence immediately shows the shapes
/// that produced it.
fn assert_join_orders_agree(db: &Database, sql: &str) {
    use benchpress_suite::storage::{compile_query, exec_compiled, verify_plan, CompileOptions};
    let query = benchpress_suite::sql::parse_query(sql).expect("generated join SQL parses");
    let snapshot = db.snapshot();
    let cost_based = compile_query(&snapshot, &query, CompileOptions::default());
    let syntactic = compile_query(
        &snapshot,
        &query,
        CompileOptions {
            cost_based: false,
            ..CompileOptions::default()
        },
    );
    let (cost_based, syntactic) = match (cost_based, syntactic) {
        (Ok(c), Ok(s)) => (c, s),
        (Err(c), Err(s)) => {
            assert_eq!(
                c, s,
                "compile errors must not depend on the optimizer: {sql}"
            );
            return;
        }
        (c, s) => panic!(
            "optimizer changed compile outcome on {sql}: cost_based_err={:?} syntactic_err={:?}",
            c.err(),
            s.err()
        ),
    };
    let violations = verify_plan(&snapshot, &cost_based);
    assert!(
        violations.is_empty(),
        "reordered plan fails verification on {sql}:\n{}\nplan:\n{}",
        violations
            .iter()
            .map(|v| format!("  - {v}"))
            .collect::<Vec<_>>()
            .join("\n"),
        cost_based.explain(&snapshot)
    );
    let mut serial_result = None;
    for threads in [1usize, TEST_THREADS] {
        let options = ExecOptions::default().with_threads(threads);
        let from_cost = exec_compiled(&snapshot, &cost_based, options);
        let from_syntactic = exec_compiled(&snapshot, &syntactic, options);
        assert_eq!(
            from_cost,
            from_syntactic,
            "cost-based vs syntactic diverge at {threads} thread(s) on {sql}\n\
             cost-based plan:\n{}\nsyntactic plan:\n{}",
            cost_based.explain(&snapshot),
            syntactic.explain(&snapshot)
        );
        if let Some(serial) = &serial_result {
            assert_eq!(
                serial, &from_cost,
                "thread count changes the reordered plan's outcome on {sql}"
            );
        } else {
            serial_result = Some(from_cost);
        }
    }
    let legacy = db.execute_sql(sql, ExecOptions::new(ExecStrategy::Legacy));
    match (legacy, serial_result.expect("both thread counts ran")) {
        (Ok(l), Ok(c)) => assert_eq!(
            l,
            c,
            "legacy vs cost-based diverge on {sql}\ncost-based plan:\n{}",
            cost_based.explain(&snapshot)
        ),
        (Err(_), Err(_)) => {}
        (l, c) => panic!("ok/err divergence on {sql}: legacy={l:?} cost_based={c:?}"),
    }
}

/// Seed-driven multi-join chains over [`join_order_db`]: 3- or 4-table
/// spines written big-table-first (the pathological syntactic order) or
/// tiny-table-first, with optional filters on the tail and an optional
/// overflow-bearing projection that must error identically through every
/// compilation.
fn gen_join_chain(mix: &mut Mix) -> String {
    let reversed = mix.below(2) == 0;
    let four_way = mix.below(2) == 0;
    let overflow = mix.below(4) == 0;
    let select = if overflow {
        "R_BIG.EX + 1"
    } else {
        "R_BIG.ID, R_MID.ID, R_SMALL.M"
    };
    let mut joins = vec![
        ("R_BIG", None),
        ("R_MID", Some("R_BIG.K = R_MID.K")),
        ("R_SMALL", Some("R_MID.J = R_SMALL.J")),
    ];
    if four_way {
        joins.push(("R_TINY", Some("R_SMALL.M = R_TINY.M")));
    }
    if reversed {
        // Same spine written small-table-first: already a good order, so
        // the reorderer should change little — identity must hold anyway.
        // The ON clauses shift one slot because each belongs to the later
        // table of its adjacent pair.
        joins.reverse();
        let conditions: Vec<_> = joins.iter().filter_map(|(_, on)| *on).collect();
        for (entry, condition) in joins.iter_mut().skip(1).zip(conditions) {
            entry.1 = Some(condition);
        }
        joins[0].1 = None;
    }
    let mut sql = format!("SELECT {select} FROM {}", joins[0].0);
    for (name, on) in &joins[1..] {
        sql.push_str(&format!(
            " JOIN {name} ON {}",
            on.expect("joined table has ON")
        ));
    }
    match mix.below(3) {
        0 => sql.push_str(" WHERE R_SMALL.J < 5"),
        1 if four_way => sql.push_str(" WHERE R_TINY.M = 2"),
        _ => {}
    }
    sql
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        .. ProptestConfig::default()
    })]

    /// Reordered joins are invisible: for seed-driven 3- and 4-table
    /// equi-join chains (pathological and benign syntactic orders, tail
    /// filters, overflow projections), the cost-based compilation must be
    /// byte-identical to the syntactic one — serial and parallel, errors
    /// included — and agree with the legacy interpreter.
    #[test]
    fn reordered_joins_are_byte_identical_across_compilations(seed in 0u64..1_000_000) {
        let db = join_order_db();
        let mut mix = Mix(seed ^ 0x0e0e);
        for _ in 0..4 {
            let sql = gen_join_chain(&mut mix);
            assert_join_orders_agree(&db, &sql);
        }
    }
}

/// The generator's pathological shape really is reordered — otherwise the
/// property above would be vacuously comparing a plan against itself.
#[test]
fn pathological_chain_is_cost_based_reordered() {
    use benchpress_suite::storage::{compile_query, CompileOptions};
    let db = join_order_db();
    let snapshot = db.snapshot();
    let sql = "SELECT R_BIG.ID, R_MID.ID, R_SMALL.M FROM R_BIG \
               JOIN R_MID ON R_BIG.K = R_MID.K \
               JOIN R_SMALL ON R_MID.J = R_SMALL.J";
    let query = benchpress_suite::sql::parse_query(sql).expect("parses");
    let plan = compile_query(&snapshot, &query, CompileOptions::default()).expect("compiles");
    assert!(
        plan.optimizer_stats().cost_based >= 1,
        "the big-first chain must be cost-based reordered; plan:\n{}",
        plan.explain(&snapshot)
    );
    assert_join_orders_agree(&db, sql);
}

// ---------------------------------------------------------------------
// Snapshot storage: snapshot reads vs single-borrow reads, and prepared
// queries under a streaming writer
// ---------------------------------------------------------------------

/// Every way to run a query must agree, for every corpus query: the
/// database's text convenience, `Snapshot::execute`, a prepared query and
/// the plan cache return byte-identical results — planned at threads 1 and
/// 4, and legacy — including error identity. The columnar ≡ legacy oracle
/// applies unchanged to the snapshot path, and the cache's always-on
/// verifier checks each distinct compiled text exactly once, cleanly.
#[test]
fn snapshot_reads_match_borrowed_reads_on_every_engine() {
    use benchpress_suite::storage::{compile_query, CompileOptions, PlanCache};
    let corpus = GeneratedBenchmark::generate(BenchmarkKind::Beaver, 8, 20_260_808);
    let db = &corpus.database;
    let snapshot = db.snapshot();
    let cache = PlanCache::with_default_capacity();
    let mut compiled = std::collections::BTreeSet::new();
    let engines = [
        ExecOptions::serial(),
        ExecOptions::serial().with_threads(TEST_THREADS),
        ExecOptions::new(ExecStrategy::Legacy),
    ];
    for entry in &corpus.log {
        let sql = entry.sql.as_str();
        // The snapshot path must satisfy the full differential...
        assert_engines_agree(db, sql, "snapshot-corpus");
        let query = benchpress_suite::sql::parse_query(sql).expect("corpus SQL parses");
        if compile_query(&snapshot, &query, CompileOptions::default()).is_ok() {
            compiled.insert(sql);
        }
        // ...and every entry point must mirror the text convenience.
        for options in engines {
            let text = db.execute_sql(sql, options);
            let others = [
                ("Snapshot::execute", snapshot.execute(&query, options)),
                (
                    "PreparedQuery::execute",
                    snapshot.prepare(sql).and_then(|p| p.execute(options)),
                ),
                ("PlanCache::execute", cache.execute(&snapshot, sql, options)),
            ];
            for (entry_point, result) in others {
                assert_eq!(
                    text, result,
                    "{entry_point} diverges from Database::execute_sql ({options:?}): {sql}"
                );
            }
        }
    }
    let verified = cache.verifier_stats();
    assert_eq!(verified.plans_verified, compiled.len() as u64);
    assert_eq!(verified.violations, 0);
}

/// Concurrency stress: reader threads executing `PreparedQuery`s while a
/// writer streams inserts. Each reader's whole report must be byte-identical
/// to a serial re-run against its pinned snapshot — the prepared query pins
/// the version it was compiled for, whatever the writer does — at every
/// thread count, and batch errors must surface first-in-input-order.
#[test]
fn prepared_queries_survive_a_streaming_writer() {
    use benchpress_suite::storage::{batch_map, PlanCache};

    let corpus = GeneratedBenchmark::generate(BenchmarkKind::Spider, 8, 20_260_807);
    let db = std::sync::RwLock::new(corpus.database.clone());
    let sqls: Vec<String> = corpus.log.iter().map(|entry| entry.sql.clone()).collect();
    let cache = PlanCache::with_default_capacity();
    // Rows matching the first table of the corpus schema for the writer.
    let victim_table = {
        let guard = db.read().unwrap();
        let table = guard.tables().next().expect("corpus has tables");
        (table.schema.name.clone(), table.schema.clone())
    };
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for i in 0..300i64 {
                let mut guard = db.write().unwrap();
                let row: Vec<Value> = victim_table
                    .1
                    .columns
                    .iter()
                    .enumerate()
                    .map(|(c, column)| match column.data_type {
                        DataType::Integer => Value::Int(1_000_000 + i * 16 + c as i64),
                        DataType::Float => Value::Float(i as f64),
                        _ => Value::Text(format!("w{i}_{c}")),
                    })
                    .collect();
                guard
                    .insert_into(&victim_table.0, vec![row])
                    .expect("writer inserts");
            }
        });
        let readers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let snapshot = db.read().unwrap().snapshot();
                    for threads in [1usize, 4] {
                        let parallel = batch_map(threads, sqls.len(), |i| {
                            cache
                                .get(&snapshot, &sqls[i])
                                .and_then(|p| p.execute(ExecOptions::serial()))
                        })
                        .expect("corpus queries execute");
                        let serial: Vec<_> = sqls
                            .iter()
                            .map(|sql| {
                                let query = benchpress_suite::sql::parse_query(sql)
                                    .expect("corpus SQL parses");
                                snapshot
                                    .execute(&query, ExecOptions::serial())
                                    .expect("serial run executes")
                            })
                            .collect();
                        assert_eq!(
                            parallel, serial,
                            "prepared batch at {threads} threads diverges from serial snapshot run"
                        );
                    }
                })
            })
            .collect();
        for reader in readers {
            reader.join().expect("reader panics propagate");
        }
        writer.join().expect("writer panics propagate");
    });
    // First-error-in-input-order under writes: index 1 errors before index 3.
    let snapshot = db.read().unwrap().snapshot();
    let batch = [
        sqls[0].clone(),
        "SELECT definitely_missing FROM nowhere".to_string(),
        sqls[1].clone(),
        "SELECT also_missing FROM nowhere".to_string(),
    ];
    for threads in [1usize, 4] {
        let err = batch_map(threads, batch.len(), |i| {
            let query = benchpress_suite::sql::parse_query(&batch[i])?;
            snapshot.execute(&query, ExecOptions::serial())
        })
        .expect_err("batch contains failing statements");
        assert!(
            err.to_string().contains("NOWHERE") || err.to_string().contains("nowhere"),
            "unexpected first error at {threads} threads: {err}"
        );
    }
}
