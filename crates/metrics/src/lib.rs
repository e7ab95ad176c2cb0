//! # bp-metrics — evaluation metrics for the BenchPress reproduction
//!
//! The metrics used throughout the paper's evaluation:
//!
//! * [`textsim`] — exact match, BLEU, ROUGE, Jaccard (review/export step).
//! * [`coverage`](mod@coverage) — annotation accuracy via SQL-component coverage (Table 3).
//! * [`rubric`] — the 5-level backtranslation clarity rubric (Figure 4).
//! * [`complexity`] — query- and data-level complexity aggregation with the
//!   relative-delta presentation of Tables 1 and 2.
//! * [`stats`] — summary statistics shared by the study and bench harnesses.

#![warn(missing_docs)]

pub mod complexity;
pub mod coverage;
pub mod rubric;
pub mod stats;
pub mod textsim;

pub use complexity::{DataComplexity, QueryComplexity, RelativeDelta};
pub use coverage::{
    coverage, coverage_sql, ComponentCheck, ComponentKind, CoverageReport,
    DEFAULT_ACCURACY_THRESHOLD,
};
pub use rubric::{grade, grade_cached, grade_sql, ClarityHistogram, ClarityLevel, RubricOutcome};
pub use stats::{mean, median, percentile, std_dev, Summary};
pub use textsim::{bleu, exact_match, jaccard, rouge_l, rouge_n};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// BLEU and ROUGE are bounded in [0, 1] and exact self-match scores 1.
        #[test]
        fn text_metrics_bounded(a in "[a-z ]{1,60}", b in "[a-z ]{1,60}") {
            let scores = [bleu(&a, &b), rouge_n(&a, &b, 1), rouge_n(&a, &b, 2), rouge_l(&a, &b), jaccard(&a, &b)];
            for s in scores {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&s), "score out of range: {s}");
            }
        }

        /// Self-similarity of a non-trivial sentence is 1 for ROUGE-L and Jaccard.
        #[test]
        fn self_similarity(a in "[a-z]{2,10}( [a-z]{2,10}){1,8}") {
            prop_assert!((rouge_l(&a, &a) - 1.0).abs() < 1e-9);
            prop_assert!((jaccard(&a, &a) - 1.0).abs() < 1e-9);
            prop_assert!(exact_match(&a, &a));
        }

        /// Coverage score is always within [0, 1] regardless of description.
        #[test]
        fn coverage_bounded(desc in "[a-zA-Z ]{0,120}") {
            let report = coverage_sql(
                "SELECT dept, COUNT(*) FROM students WHERE gpa > 3.0 GROUP BY dept ORDER BY 2 DESC LIMIT 3",
                &desc,
            ).unwrap();
            let s = report.score();
            prop_assert!((0.0..=1.0).contains(&s));
        }

        /// Relative deltas invert correctly: a 50% decrease from the baseline
        /// never reports as an increase.
        #[test]
        fn relative_delta_sign(base in 0.1f64..1e6, factor in 0.01f64..0.99) {
            let delta = RelativeDelta::new(base, base * factor);
            prop_assert!(delta.is_decrease());
            prop_assert!(delta.arrow_notation().starts_with('↓'));
        }

        /// Summary invariants: min <= median <= max and mean within [min, max].
        #[test]
        fn summary_invariants(values in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
            let s = Summary::of(&values);
            prop_assert!(s.min <= s.median + 1e-9);
            prop_assert!(s.median <= s.max + 1e-9);
            prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        }
    }
}
