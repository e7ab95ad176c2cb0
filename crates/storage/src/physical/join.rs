//! The nested-loop join for non-equi constraints and cross joins.
//!
//! Equi-joins run as the columnar engine's hash join
//! (`columnar::columnar_hash_join`); every other join converts its inputs
//! to rows and pairs them here. The quadratic pair loop fans out over
//! left-row morsels; per-morsel outputs and right-matched sets are merged
//! in morsel order, so the output — including the padded unmatched rows of
//! LEFT/RIGHT/FULL joins — is byte-identical to the serial pair order at
//! every thread count.

use bp_sql::JoinOperator;

use crate::error::{StorageError, StorageResult};
use crate::plan::ColumnBinding;
use crate::table::Row;
use crate::value::Value;

use super::expr::{EvalEnv, PhysExpr};
use super::parallel::run_morsels;
use super::RunCtx;

fn pad_left(width: usize, rrow: &Row) -> Row {
    let mut combined: Row = std::iter::repeat_n(Value::Null, width).collect();
    combined.extend(rrow.iter().cloned());
    combined
}

fn pad_right(lrow: &Row, width: usize) -> Row {
    let mut combined = lrow.clone();
    combined.extend(std::iter::repeat_n(Value::Null, width));
    combined
}

/// Nested-loop join: every (left, right) pair in left-row-major order is
/// kept when `on` holds (or unconditionally when `on` is `None`); LEFT/FULL
/// pad unmatched left rows in place, and RIGHT/FULL append the unmatched
/// right rows, in right-row order, after all pairs.
pub(super) fn nested_loop_join(
    left_rows: &[Row],
    right_rows: &[Row],
    operator: JoinOperator,
    on: Option<&PhysExpr>,
    bindings: &[ColumnBinding],
    right_width: usize,
    ctx: &RunCtx<'_>,
) -> StorageResult<Vec<Row>> {
    let track_right = matches!(operator, JoinOperator::RightOuter | JoinOperator::FullOuter);
    let probe_chunks = run_morsels(ctx.threads, left_rows.len(), |range| {
        let wctx = ctx.serial();
        let mut out: Vec<Row> = Vec::new();
        let mut matched_right: Vec<usize> = Vec::new();
        // Transient per-morsel dedup bitmap (dropped before the result is
        // stored): keeps matched_right at O(distinct right rows) instead
        // of O(output rows) on skewed RIGHT/FULL joins.
        let mut seen = vec![false; if track_right { right_rows.len() } else { 0 }];
        for lrow in &left_rows[range] {
            let mut matched = false;
            for (ri, rrow) in right_rows.iter().enumerate() {
                let mut combined = lrow.clone();
                combined.extend(rrow.iter().cloned());
                let keep = match on {
                    None => true,
                    Some(on) => {
                        let env = EvalEnv {
                            ctx: &wctx,
                            bindings,
                            row: &combined,
                            group: None,
                        };
                        on.eval_truthy(&env)?
                    }
                };
                if keep {
                    matched = true;
                    if track_right && !seen[ri] {
                        seen[ri] = true;
                        matched_right.push(ri);
                    }
                    out.push(combined);
                }
            }
            if !matched && matches!(operator, JoinOperator::LeftOuter | JoinOperator::FullOuter) {
                out.push(pad_right(lrow, right_width));
            }
        }
        Ok::<_, StorageError>((out, matched_right))
    })?;

    let mut rows = Vec::new();
    let mut right_matched = vec![false; if track_right { right_rows.len() } else { 0 }];
    for (chunk, matched) in probe_chunks {
        rows.extend(chunk);
        for ri in matched {
            right_matched[ri] = true;
        }
    }
    if track_right {
        let left_width = bindings.len() - right_width;
        for (ri, rrow) in right_rows.iter().enumerate() {
            if !right_matched[ri] {
                rows.push(pad_left(left_width, rrow));
            }
        }
    }
    Ok(rows)
}
