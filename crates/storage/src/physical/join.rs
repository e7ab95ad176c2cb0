//! The nested-loop join for non-equi constraints and cross joins.
//!
//! Equi-joins run as the columnar engine's hash join
//! (`columnar::columnar_hash_join`); every other join converts its inputs
//! to rows and pairs them here, in one left-row-major loop on the calling
//! thread — the interpreter's pair order, padded unmatched rows of
//! LEFT/RIGHT/FULL joins included.

use bp_sql::JoinOperator;

use crate::error::StorageResult;
use crate::table::Row;
use crate::value::Value;

use super::expr::{EvalEnv, PhysExpr};
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
/// right rows, in right-row order, after all pairs. `on` reads the joined
/// row (`widths` = its width and its right part's); a kept row emits only
/// the ordinals in `cols`, when given.
pub(super) fn nested_loop_join(
    left_rows: &[Row],
    right_rows: &[Row],
    operator: JoinOperator,
    on: Option<&PhysExpr>,
    (width, right_width): (usize, usize),
    cols: Option<&[usize]>,
    ctx: &RunCtx<'_>,
) -> StorageResult<Vec<Row>> {
    let emit = |row: Row| match cols {
        Some(cols) => cols.iter().map(|&c| row[c].clone()).collect(),
        None => row,
    };
    let track_right = matches!(operator, JoinOperator::RightOuter | JoinOperator::FullOuter);
    let mut right_matched = vec![false; if track_right { right_rows.len() } else { 0 }];
    let mut rows = Vec::new();
    for lrow in left_rows {
        let mut matched = false;
        for (ri, rrow) in right_rows.iter().enumerate() {
            let mut combined = lrow.clone();
            combined.extend(rrow.iter().cloned());
            let keep = match on {
                None => true,
                Some(on) => {
                    let env = EvalEnv {
                        ctx,
                        row: &combined,
                        group: None,
                    };
                    on.eval_truthy(&env)?
                }
            };
            if keep {
                matched = true;
                if track_right {
                    right_matched[ri] = true;
                }
                rows.push(emit(combined));
            }
        }
        if !matched && matches!(operator, JoinOperator::LeftOuter | JoinOperator::FullOuter) {
            rows.push(emit(pad_right(lrow, right_width)));
        }
    }
    if track_right {
        let left_width = width - right_width;
        for (ri, rrow) in right_rows.iter().enumerate() {
            if !right_matched[ri] {
                rows.push(emit(pad_left(left_width, rrow)));
            }
        }
    }
    Ok(rows)
}
