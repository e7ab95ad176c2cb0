//! Property tests for the SQL `LIKE` matcher.
//!
//! The matcher (`bp_storage::like_match`) was rewritten from a recursive
//! byte-wise backtracker — exponential on `%a%a%a…` patterns and wrong for
//! `_` over multi-byte UTF-8 — to an iterative two-pointer scan with a
//! single `%` backtrack point. This suite pits the new matcher against a
//! reimplementation of the old recursive algorithm as an **oracle on ASCII
//! inputs** (where the byte-wise semantics were correct), bounded small
//! enough that the oracle's exponential worst case stays harmless, plus
//! targeted UTF-8 and engine-level regressions. Both engines (the legacy
//! interpreter and the columnar planned engine) call the same
//! `like_match`, so one oracle covers the whole system; the engine-level
//! check below confirms the sharing end to end.

use benchpress_suite::storage::like_match;
use benchpress_suite::storage::{Database, ExecOptions, ExecStrategy};
use proptest::prelude::*;

/// The pre-rewrite matcher, verbatim in structure: recursive, byte-wise,
/// exponential backtracking on `%`. Correct on ASCII; kept here only as a
/// differential oracle.
fn recursive_like_oracle(text: &str, pattern: &str) -> bool {
    fn helper(t: &[u8], p: &[u8]) -> bool {
        if p.is_empty() {
            return t.is_empty();
        }
        match p[0] {
            b'%' => (0..=t.len()).any(|skip| helper(&t[skip..], &p[1..])),
            b'_' => !t.is_empty() && helper(&t[1..], &p[1..]),
            c => !t.is_empty() && t[0] == c && helper(&t[1..], &p[1..]),
        }
    }
    helper(text.as_bytes(), pattern.as_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    })]

    /// On ASCII inputs the iterative matcher agrees with the old recursive
    /// oracle on every (text, pattern) pair — including patterns that are
    /// all wildcards. Sizes are bounded so the oracle's exponential case
    /// (many `%`s over a matching-ish text) stays fast.
    #[test]
    fn iterative_matcher_agrees_with_recursive_oracle(
        text in "[ab]{0,10}",
        pattern in "[ab%_]{0,8}",
    ) {
        prop_assert_eq!(
            like_match(&text, &pattern),
            recursive_like_oracle(&text, &pattern),
            "divergence on text={:?} pattern={:?}", text, pattern
        );
    }

    /// Same agreement over a wider ASCII alphabet with sparser wildcards
    /// (the oracle is cheap when `%` is rare).
    #[test]
    fn matcher_agrees_on_wider_alphabet(
        text in "[a-e ]{0,16}",
        pattern in "([a-e ]|%|_){0,10}",
    ) {
        prop_assert_eq!(
            like_match(&text, &pattern),
            recursive_like_oracle(&text, &pattern),
            "divergence on text={:?} pattern={:?}", text, pattern
        );
    }

    /// `%`-only patterns match everything; `_`-only patterns match exactly
    /// by character count (not byte count).
    #[test]
    fn wildcard_identities(text in ".{0,12}") {
        prop_assert!(like_match(&text, "%"));
        prop_assert!(like_match(&text, "%%"));
        let underscores = "_".repeat(text.chars().count());
        prop_assert!(like_match(&text, &underscores));
        prop_assert_eq!(like_match(&text, &format!("{underscores}_")), false);
        // Every text matches itself when it contains no wildcard bytes.
        if !text.contains(['%', '_']) {
            prop_assert!(like_match(&text, &text));
        }
    }

    /// Prefix/suffix/containment forms derived from the text itself always
    /// match, on arbitrary Unicode (char-boundary safe).
    #[test]
    fn derived_patterns_match(text in "[a-zé魚α ]{1,10}") {
        let n = text.chars().count();
        let prefix: String = text.chars().take(n / 2).collect();
        let suffix: String = text.chars().skip(n / 2).collect();
        if !prefix.contains(['%', '_']) {
            prop_assert!(like_match(&text, &format!("{prefix}%")));
        }
        if !suffix.contains(['%', '_']) {
            prop_assert!(like_match(&text, &format!("%{suffix}")));
            prop_assert!(like_match(&text, &format!("{prefix}%{suffix}")));
        }
    }
}

/// The byte-wise matcher treated `_` as "one byte": multi-byte characters
/// made patterns mis-align. The char-wise matcher must not.
#[test]
fn utf8_regressions() {
    assert!(like_match("é", "_"));
    assert!(!like_match("é", "__"));
    assert!(like_match("αβγ", "___"));
    assert!(!like_match("αβγ", "__"));
    assert!(like_match("魚と米", "魚_米"));
    assert!(like_match("naïve", "na_ve"));
    assert!(like_match("naïve", "%ïve"));
    assert!(!like_match("naïve", "na__ve"));
}

/// Pathological patterns complete (quickly) instead of blowing the stack
/// or the clock — the workspace-level companion to the timeboxed watchdog
/// in `bp-storage`'s unit tests.
#[test]
fn pathological_patterns_terminate() {
    let text = "a".repeat(2_000);
    assert!(!like_match(&text, &format!("{}b", "%a".repeat(30))));
    assert!(like_match(&text, &format!("{}%", "%a".repeat(30))));
    assert!(like_match(&text, &"%".repeat(500)));
}

/// Both engines share the fixed matcher: a LIKE predicate over text with
/// multi-byte characters grades identically under the legacy interpreter
/// and the columnar kernel.
#[test]
fn engines_share_the_fixed_matcher() {
    let mut db = Database::new("likes");
    db.ingest_ddl("CREATE TABLE names (id INT PRIMARY KEY, name VARCHAR(30));")
        .unwrap();
    db.insert_into(
        "names",
        vec![
            vec![1.into(), "café".into()],
            vec![2.into(), "cafe".into()],
            vec![3.into(), "魚と米".into()],
            vec![4.into(), "caff".into()],
        ],
    )
    .unwrap();
    for (sql, expected_rows) in [
        ("SELECT id FROM names WHERE name LIKE 'caf_' ORDER BY id", 3),
        (
            "SELECT id FROM names WHERE name LIKE 'caf__' ORDER BY id",
            0,
        ),
        ("SELECT id FROM names WHERE name LIKE '魚_米'", 1),
        ("SELECT id FROM names WHERE name LIKE '%é'", 1),
    ] {
        let legacy = db
            .execute_sql(sql, ExecOptions::new(ExecStrategy::Legacy))
            .unwrap();
        let columnar = db
            .execute_sql(sql, ExecOptions::new(ExecStrategy::Planned))
            .unwrap();
        assert_eq!(legacy, columnar, "legacy vs columnar diverge on {sql}");
        assert_eq!(
            legacy.row_count(),
            expected_rows,
            "wrong match set for {sql}"
        );
    }
}
