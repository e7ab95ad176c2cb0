//! Simulated text-to-SQL inference (the workload behind Figure 1).
//!
//! Given a natural-language question, the gold SQL it corresponds to, and a
//! description of the target database, a simulated model either reproduces
//! the gold query (success) or produces a corrupted variant whose failure
//! mode matches the paper's qualitative analysis: easy, unambiguous public
//! benchmark queries mostly succeed, while complex enterprise queries over
//! ambiguous schemas with domain-specific vocabulary collapse to near-zero
//! execution accuracy.

use crate::corrupt::{apply, Corruption};
use crate::model::ModelProfile;
use crate::sql2nl::stable_hash;
use bp_sql::{analyze, Query};
use bp_storage::{batch_map, results_match, Catalog, Database, ExecOptions, PlanCache, Snapshot};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Characteristics of the target workload/database that drive difficulty.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct WorkloadDifficulty {
    /// Schema ambiguity in `[0, 1]` (duplicated column names, overlapping
    /// tables — Table 2's low uniqueness / low type diversity).
    pub schema_ambiguity: f64,
    /// Number of domain-specific terms in the question that the model cannot
    /// resolve without enterprise knowledge.
    pub domain_terms: usize,
}

/// The outcome of one simulated text-to-SQL inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Text2SqlPrediction {
    /// The SQL the model produced.
    pub sql: String,
    /// Whether the simulation decided this inference succeeds semantically
    /// (before execution verification).
    pub intended_success: bool,
    /// The corruption applied on failure, if any.
    pub corruption: Option<Corruption>,
}

/// Simulate a model translating a question into SQL.
///
/// The gold query is used as the target the model is trying to reach; on a
/// success draw the gold SQL is reproduced (with canonical formatting), on a
/// failure draw a corruption whose severity scales with how badly the draw
/// missed is applied.
pub fn predict_sql<R: Rng>(
    profile: &ModelProfile,
    gold: &Query,
    difficulty: WorkloadDifficulty,
    catalog: &Catalog,
    rng: &mut R,
) -> Text2SqlPrediction {
    let analysis = analyze(gold);
    let success_probability = profile.text2sql_success_probability(
        analysis.difficulty_score(),
        difficulty.schema_ambiguity,
        difficulty.domain_terms,
    );
    let draw: f64 = rng.gen();
    if draw < success_probability {
        return Text2SqlPrediction {
            sql: gold.to_string(),
            intended_success: true,
            corruption: None,
        };
    }
    // How badly the draw missed determines the severity of the mistake.
    // Schema ambiguity and unresolved domain terms push failures toward the
    // severe end (wrong tables/columns): with duplicated column names and
    // opaque vocabulary the model binds to the wrong schema elements, which
    // is exactly the enterprise failure mode the paper describes.
    let miss = (draw - success_probability) / (1.0 - success_probability).max(1e-9);
    let severity =
        miss + 0.45 * difficulty.schema_ambiguity + 0.12 * difficulty.domain_terms as f64;
    let corruption = if severity > 1.25 {
        Corruption::BreakSyntax
    } else if severity > 0.62 {
        Corruption::WrongTable
    } else if severity > 0.45 {
        Corruption::WrongColumn
    } else if severity > 0.32 {
        Corruption::DropFilter
    } else if severity > 0.20 && analysis.aggregate_count > 0 {
        Corruption::WrongAggregate
    } else if severity > 0.10 && analysis.has_group_by {
        Corruption::DropGroupBy
    } else {
        Corruption::DropOrdering
    };
    Text2SqlPrediction {
        sql: apply(gold, corruption, catalog, rng),
        intended_success: false,
        corruption: Some(corruption),
    }
}

/// One (question, gold SQL) evaluation item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalItem {
    /// The natural-language question.
    pub question: String,
    /// The gold SQL text.
    pub gold_sql: String,
    /// Per-item difficulty characteristics.
    pub difficulty: WorkloadDifficulty,
}

/// Result of evaluating a model on a workload.
///
/// **Denominator semantics.** `total` counts every item in the workload.
/// Items whose *gold* SQL fails to parse, plan or execute are corpus
/// defects the model never saw; they are reported in `gold_invalid` and
/// excluded from the accuracy denominator (`total - gold_invalid`, the
/// *gradable* items). `invalid` counts gradable items whose *predicted*
/// SQL failed — those are model failures and stay in the denominator.
/// The invariant is `correct + invalid <= total - gold_invalid <= total`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionAccuracyReport {
    /// Model display name.
    pub model: String,
    /// Number of items in the workload, gradable or not.
    pub total: usize,
    /// Number of gradable items whose predicted SQL executed to the gold
    /// result.
    pub correct: usize,
    /// Number of gradable items whose *prediction* failed to parse, plan
    /// or execute — a model failure, counted against accuracy.
    pub invalid: usize,
    /// Number of items whose *gold* SQL failed to parse, plan or execute —
    /// a corpus defect, excluded from the accuracy denominator.
    pub gold_invalid: usize,
}

impl ExecutionAccuracyReport {
    /// Number of items actually graded: `total - gold_invalid`. Saturating,
    /// so a hand-built or deserialized report violating the documented
    /// invariant degrades to 0 instead of panicking.
    pub fn gradable(&self) -> usize {
        self.total.saturating_sub(self.gold_invalid)
    }

    /// Execution accuracy in percent: `correct / gradable` (0 when no item
    /// is gradable). Gold-side corpus defects do not deflate the score;
    /// invalid *predictions* do.
    pub fn accuracy_percent(&self) -> f64 {
        if self.gradable() == 0 {
            0.0
        } else {
            self.correct as f64 / self.gradable() as f64 * 100.0
        }
    }
}

/// How one evaluation item was graded — the per-item unit the batch
/// pipeline's workers produce and the in-order merge folds into an
/// [`ExecutionAccuracyReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ItemOutcome {
    /// Prediction executed to the gold result set.
    Correct,
    /// Prediction executed but its result differs from gold.
    Incorrect,
    /// Prediction failed to parse, plan or execute.
    InvalidPrediction,
    /// Gold SQL failed to parse, plan or execute (corpus defect).
    GoldInvalid,
}

/// Evaluate a model's execution accuracy over a workload against a database
/// with the default options: the planned engine, across all available
/// hardware threads, through a fresh [`PlanCache`].
///
/// Every prediction is executed on `db` and compared to the gold result with
/// the Spider/Bird execution-accuracy convention (see
/// [`bp_storage::results_match`]). Grading runs the inter-query batch
/// pipeline (see [`evaluate_execution_accuracy_cached`]); the whole run is
/// deterministic for a given `seed` regardless of thread count.
pub fn evaluate_execution_accuracy(
    profile: &ModelProfile,
    items: &[EvalItem],
    db: &Database,
    seed: u64,
) -> ExecutionAccuracyReport {
    let cache = PlanCache::with_default_capacity();
    evaluate_execution_accuracy_cached(profile, items, db, seed, ExecOptions::default(), &cache)
}

/// [`evaluate_execution_accuracy`] with full [`ExecOptions`] control,
/// grading through a caller-supplied [`PlanCache`].
///
/// This is the **inter-query batch pipeline**: `options.threads` sizes a
/// deterministic work-stealing worker pool ([`bp_storage::batch_map`]) that
/// fans the *items* out, while each item executes its two queries
/// single-threaded on `options.strategy` — for corpus grading, parallelism
/// across thousands of independent items beats parallelism inside one
/// small query, and the two never compose well (nested pools just contend).
/// Grading million-entry logs wants the planned engine (the columnar batch
/// engine, the default); differential checks of the grader itself can pin
/// [`bp_storage::ExecStrategy::Legacy`] (the interpreter oracle). All workers share
/// `cache`, so each distinct SQL text (every gold query, and every
/// prediction that reproduces one) is parsed, planned and compiled once,
/// and long-lived services (and repeated study runs over the same corpus)
/// reuse compiled plans across calls.
///
/// The whole run grades one [`Snapshot`] taken up front: a writer streaming
/// inserts concurrently never perturbs in-flight grading, and the cache's
/// per-table-version invalidation recompiles stale entries automatically on
/// the first call after a write. The report is **byte-identical at every
/// thread count** and equal to a serial loop over the items, by
/// construction: each item's RNG is independently seeded from `(seed, gold
/// SQL, index)`, query execution is deterministic, and per-item outcomes
/// are merged in input order. Cache sharing never changes the report —
/// only how often compilation happens.
pub fn evaluate_execution_accuracy_cached(
    profile: &ModelProfile,
    items: &[EvalItem],
    db: &Database,
    seed: u64,
    options: ExecOptions,
    cache: &PlanCache,
) -> ExecutionAccuracyReport {
    let snapshot = db.snapshot();
    let item_options = ExecOptions::new(options.strategy).with_threads(1);
    let outcomes = batch_map(options.threads.max(1), items.len(), |index| {
        Ok::<_, std::convert::Infallible>(grade_item(
            profile,
            &items[index],
            index,
            &snapshot,
            seed,
            cache,
            item_options,
        ))
    })
    .expect("grading items is infallible");
    let mut report = ExecutionAccuracyReport {
        model: profile.kind.name().to_string(),
        total: items.len(),
        correct: 0,
        invalid: 0,
        gold_invalid: 0,
    };
    for outcome in outcomes {
        match outcome {
            ItemOutcome::Correct => report.correct += 1,
            ItemOutcome::Incorrect => {}
            ItemOutcome::InvalidPrediction => report.invalid += 1,
            ItemOutcome::GoldInvalid => report.gold_invalid += 1,
        }
    }
    report
}

/// Grade one evaluation item: prepare and execute the gold query (failures
/// are corpus defects → [`ItemOutcome::GoldInvalid`]), simulate the model's
/// prediction, execute it (failures are model errors →
/// [`ItemOutcome::InvalidPrediction`]) and compare result sets. Prepared
/// plans come from the shared `cache`, so repeated SQL texts compile once.
fn grade_item(
    profile: &ModelProfile,
    item: &EvalItem,
    index: usize,
    snapshot: &Snapshot,
    seed: u64,
    cache: &PlanCache,
    options: ExecOptions,
) -> ItemOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(
        seed ^ stable_hash(&item.gold_sql) ^ (index as u64).wrapping_mul(0x9e3779b97f4a7c15),
    );
    // Gold side first: an item whose gold SQL cannot run was never a fair
    // test of the model, whatever its prediction would have done.
    let gold = match cache.get(snapshot, &item.gold_sql) {
        Ok(prepared) => prepared,
        Err(_) => return ItemOutcome::GoldInvalid,
    };
    let gold_result = match gold.execute(options) {
        Ok(result) => result,
        Err(_) => return ItemOutcome::GoldInvalid,
    };
    let prediction = predict_sql(
        profile,
        gold.query(),
        item.difficulty,
        snapshot.catalog(),
        &mut rng,
    );
    let predicted_result = match cache
        .get(snapshot, &prediction.sql)
        .and_then(|p| p.execute(options))
    {
        Ok(result) => result,
        Err(_) => return ItemOutcome::InvalidPrediction,
    };
    if results_match(&gold_result, &predicted_result) {
        ItemOutcome::Correct
    } else {
        ItemOutcome::Incorrect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use bp_sql::parse_query;
    use bp_storage::ExecStrategy;

    fn campus_db() -> Database {
        let mut db = Database::new("campus");
        db.ingest_ddl(
            "CREATE TABLE students (id INT PRIMARY KEY, name VARCHAR(40), gpa NUMBER, dept VARCHAR(20));
             CREATE TABLE enrollments (student_id INT, term VARCHAR(20), course VARCHAR(20));",
        )
        .unwrap();
        db.insert_into(
            "students",
            (0..40)
                .map(|i| {
                    vec![
                        i.into(),
                        format!("student_{i}").into(),
                        (2.0 + (i % 20) as f64 / 10.0).into(),
                        if i % 2 == 0 {
                            "EECS".into()
                        } else {
                            "MATH".into()
                        },
                    ]
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        db.insert_into(
            "enrollments",
            (0..40)
                .map(|i| {
                    vec![
                        i.into(),
                        if i % 4 == 0 {
                            "J-term".into()
                        } else {
                            "Fall".into()
                        },
                        format!("6.{i:03}").into(),
                    ]
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        db
    }

    fn easy_items() -> Vec<EvalItem> {
        vec![
            EvalItem {
                question: "How many students are there?".into(),
                gold_sql: "SELECT COUNT(*) FROM students".into(),
                difficulty: WorkloadDifficulty::default(),
            },
            EvalItem {
                question: "List the names of EECS students".into(),
                gold_sql: "SELECT name FROM students WHERE dept = 'EECS'".into(),
                difficulty: WorkloadDifficulty::default(),
            },
            EvalItem {
                question: "Average gpa per department".into(),
                gold_sql: "SELECT dept, AVG(gpa) FROM students GROUP BY dept".into(),
                difficulty: WorkloadDifficulty::default(),
            },
        ]
    }

    fn hard_items() -> Vec<EvalItem> {
        vec![
            EvalItem {
                question: "J-term enrollment counts per department for high-GPA students".into(),
                gold_sql: "SELECT s.dept, COUNT(DISTINCT e.student_id) FROM students s JOIN enrollments e ON s.id = e.student_id WHERE e.term = 'J-term' AND s.gpa > (SELECT AVG(gpa) FROM students) GROUP BY s.dept ORDER BY 2 DESC"
                    .into(),
                difficulty: WorkloadDifficulty {
                    schema_ambiguity: 0.6,
                    domain_terms: 3,
                },
            };
            5
        ]
    }

    #[test]
    fn prediction_is_gold_or_corrupted() {
        let db = campus_db();
        let gold = parse_query("SELECT COUNT(*) FROM students").unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let prediction = predict_sql(
            &ModelKind::Gpt4o.profile(),
            &gold,
            WorkloadDifficulty::default(),
            db.catalog(),
            &mut rng,
        );
        if prediction.intended_success {
            assert_eq!(prediction.sql, gold.to_string());
            assert!(prediction.corruption.is_none());
        } else {
            assert!(prediction.corruption.is_some());
        }
    }

    #[test]
    fn strong_model_beats_weak_model_on_easy_workload() {
        let db = campus_db();
        let strong =
            evaluate_execution_accuracy(&ModelKind::Gpt4o.profile(), &easy_items(), &db, 7);
        let weak =
            evaluate_execution_accuracy(&ModelKind::Llama8B.profile(), &easy_items(), &db, 7);
        assert!(strong.accuracy_percent() >= weak.accuracy_percent());
        assert_eq!(strong.total, 3);
    }

    #[test]
    fn enterprise_difficulty_collapses_accuracy() {
        let db = campus_db();
        let profile = ModelKind::Gpt4o.profile();
        // Run the same items many times via different seeds to smooth noise.
        let mut easy_correct = 0usize;
        let mut hard_correct = 0usize;
        let mut easy_total = 0usize;
        let mut hard_total = 0usize;
        for seed in 0..10 {
            let easy = evaluate_execution_accuracy(&profile, &easy_items(), &db, seed);
            let hard = evaluate_execution_accuracy(&profile, &hard_items(), &db, seed);
            easy_correct += easy.correct;
            easy_total += easy.total;
            hard_correct += hard.correct;
            hard_total += hard.total;
        }
        let easy_acc = easy_correct as f64 / easy_total as f64;
        let hard_acc = hard_correct as f64 / hard_total as f64;
        assert!(easy_acc > 0.6, "easy accuracy too low: {easy_acc}");
        assert!(hard_acc < 0.2, "hard accuracy too high: {hard_acc}");
    }

    #[test]
    fn grading_agrees_across_execution_engines() {
        let db = campus_db();
        let profile = ModelKind::Gpt4o.profile();
        for items in [easy_items(), hard_items()] {
            let [planned, legacy] = [ExecStrategy::Planned, ExecStrategy::Legacy].map(|strategy| {
                let cache = PlanCache::with_default_capacity();
                let options = ExecOptions::new(strategy);
                evaluate_execution_accuracy_cached(&profile, &items, &db, 11, options, &cache)
            });
            assert_eq!(planned, legacy);
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let db = campus_db();
        let profile = ModelKind::DeepSeek.profile();
        let a = evaluate_execution_accuracy(&profile, &easy_items(), &db, 123);
        let b = evaluate_execution_accuracy(&profile, &easy_items(), &db, 123);
        assert_eq!(a, b);
    }

    #[test]
    fn gold_side_failures_count_as_gold_invalid_not_invalid() {
        let db = campus_db();
        // Unparseable gold: the model never saw a real item.
        let unparseable = vec![EvalItem {
            question: "broken".into(),
            gold_sql: "NOT REAL SQL".into(),
            difficulty: WorkloadDifficulty::default(),
        }];
        let report = evaluate_execution_accuracy(&ModelKind::Gpt4o.profile(), &unparseable, &db, 1);
        assert_eq!(report.gold_invalid, 1);
        assert_eq!(report.invalid, 0);
        assert_eq!(report.correct, 0);
        assert_eq!(report.gradable(), 0);
        assert_eq!(report.accuracy_percent(), 0.0);
        // Gold that parses but fails at execution time is a corpus defect
        // too — it must land in gold_invalid, not be silently dropped.
        let erroring = vec![EvalItem {
            question: "divides by zero".into(),
            gold_sql: "SELECT 1 / 0".into(),
            difficulty: WorkloadDifficulty::default(),
        }];
        let report = evaluate_execution_accuracy(&ModelKind::Gpt4o.profile(), &erroring, &db, 1);
        assert_eq!(report.gold_invalid, 1);
        assert_eq!(report.invalid, 0);
        assert_eq!(report.total, 1);
    }

    #[test]
    fn gold_defects_do_not_deflate_accuracy() {
        let db = campus_db();
        // A perfectly-graded valid item mixed with two corpus defects:
        // accuracy is judged over the gradable item only.
        let mut items = easy_items();
        items.push(EvalItem {
            question: "broken".into(),
            gold_sql: "NOT REAL SQL".into(),
            difficulty: WorkloadDifficulty::default(),
        });
        items.push(EvalItem {
            question: "errors".into(),
            gold_sql: "SELECT 1 / 0".into(),
            difficulty: WorkloadDifficulty::default(),
        });
        let with_defects = evaluate_execution_accuracy(&ModelKind::Gpt4o.profile(), &items, &db, 7);
        let clean = evaluate_execution_accuracy(&ModelKind::Gpt4o.profile(), &easy_items(), &db, 7);
        assert_eq!(with_defects.total, clean.total + 2);
        assert_eq!(with_defects.gold_invalid, 2);
        assert_eq!(with_defects.gradable(), clean.gradable());
        assert_eq!(with_defects.correct, clean.correct);
        assert_eq!(
            with_defects.accuracy_percent(),
            clean.accuracy_percent(),
            "corpus defects must not deflate the model's score"
        );
    }

    #[test]
    fn batch_grading_is_identical_across_thread_counts_and_to_serial() {
        let db = campus_db();
        let profile = ModelKind::Gpt4o.profile();
        let mut items = easy_items();
        items.extend(hard_items());
        items.push(EvalItem {
            question: "broken".into(),
            gold_sql: "NOT REAL SQL".into(),
            difficulty: WorkloadDifficulty::default(),
        });
        let grade = |options| {
            let cache = PlanCache::with_default_capacity();
            evaluate_execution_accuracy_cached(&profile, &items, &db, 41, options, &cache)
        };
        let serial = grade(ExecOptions::serial());
        for threads in [1usize, 4, 16] {
            let batched = grade(ExecOptions::default().with_threads(threads));
            assert_eq!(
                serial, batched,
                "batch report diverges at threads={threads}"
            );
        }
        // The legacy-interpreter strategy bypasses the compiled-plan path
        // entirely; the batch pipeline must still agree with it.
        let legacy = grade(ExecOptions::new(ExecStrategy::Legacy).with_threads(4));
        assert_eq!(serial, legacy);
    }

    #[test]
    fn empty_workload_reports_zero() {
        let db = campus_db();
        let report = evaluate_execution_accuracy(&ModelKind::Gpt4o.profile(), &[], &db, 1);
        assert_eq!(report.accuracy_percent(), 0.0);
        assert_eq!(report.total, 0);
        assert_eq!(report.gold_invalid, 0);
    }
}
