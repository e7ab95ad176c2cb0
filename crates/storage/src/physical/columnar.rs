//! Columnar batch execution — the default strategy of the planned engine.
//!
//! Operators consume and produce [`Vec<Batch>`]: scans decode table rows
//! into typed column vectors once (fixed [`BATCH_ROWS`]-row batches, so
//! batch boundaries never depend on the thread budget), filters refine each
//! batch's **selection vector** without touching the data, projections
//! evaluate vectorized expression kernels over whole batches, and the hash
//! join and hash aggregate key on **column slices** ([`KeyPart`] hashes)
//! instead of allocating a composite `String` per row. The morsel-parallel
//! scheduler hands out whole batches as morsels ([`run_tasks`] over the
//! batch list).
//!
//! Everything not yet vectorized falls back without leaving the engine:
//! expressions with subqueries/CASE/functions evaluate per row inside their
//! batch (see [`PhysExpr::eval_batch`]), and blocking or rare operators
//! (sort, set operations, non-equi joins, derived tables) convert batches
//! to rows, reuse the row operators, and convert back.
//!
//! Output is byte-identical at every thread count: batch boundaries are
//! fixed, per-batch results are reassembled in batch order, join candidates
//! are emitted in build order, and aggregate groups merge in first-seen
//! order over batches. The legacy interpreter (`ExecStrategy::Legacy`)
//! is the differential oracle for this engine.
//!
//! Two documented divergences from the interpreter. **NaN join keys**: the
//! interpreter's total ordering treats NaN as equal to every number, the
//! hash join as equal only to NaN — NaN cannot be produced by the supported
//! expression surface. **Error identity under multiple failures**: a query
//! errors on exactly the same inputs in both engines, and each engine's
//! reported error is deterministic at every thread count — but when
//! *several* rows or operands can fail, the columnar engine evaluates
//! operand-major (whole left column, then whole right column) while the
//! interpreter evaluates row-major, so the two may surface different
//! members of the same error set (e.g. the left operand's overflow on a
//! later row vs the right operand's division-by-zero on an earlier row).
//! Matching row-major error selection would require error-deferring
//! kernels; the differential suite therefore requires Ok-results to be
//! byte-identical and both engines to fail on the same queries, and exact
//! error equality only within an engine across thread counts.

use crate::sync::{Arc, Mutex};
use std::collections::HashMap;

use bp_sql::JoinOperator;

use crate::error::{StorageError, StorageResult};
use crate::plan::ColumnBinding;
use crate::scalar::{combine_set_operation, truth3_col};
use crate::table::Row;
use crate::value::Value;

use super::batch::{
    composite_eq, composite_hash, concat_dense, keys_nonnull, Batch, ColumnBuilder, ColumnVec,
    BATCH_ROWS, PAD_NULL,
};
use super::expr::{BatchEnv, PhysExpr};
use super::parallel::{run_morsels, run_tasks};
use super::{
    compare_rows, dedup_rows, eval_count, exec_index_agg, exec_index_top_k, exec_query_plan,
    finalize_agg_groups, index_scan_ids, join, top_k_rows, PhysNode, RunCtx,
};

/// Execute a node columnar-ly and materialize the live rows (the
/// `QueryResult` edge). Dense batches move their payloads out.
pub(crate) fn exec_node_rows(node: &PhysNode, ctx: &RunCtx<'_>) -> StorageResult<Vec<Row>> {
    let batches = exec_node_col(node, ctx)?;
    batches_to_rows(batches, ctx)
}

/// Chunk rows into fixed-size dense batches (decoded in parallel).
fn rows_to_batches(rows: &[Row], width: usize, ctx: &RunCtx<'_>) -> StorageResult<Vec<Batch>> {
    let chunks: Vec<&[Row]> = rows.chunks(BATCH_ROWS.max(1)).collect();
    run_tasks(ctx.threads, chunks.len(), |i| {
        Ok::<_, StorageError>(Batch::from_rows(chunks[i], width))
    })
}

/// Materialize all live rows of a batch list, in batch order (parallel;
/// each batch is consumed exactly once).
fn batches_to_rows(batches: Vec<Batch>, ctx: &RunCtx<'_>) -> StorageResult<Vec<Row>> {
    let total: usize = batches.iter().map(|b| b.live()).sum();
    let cells: Vec<Mutex<Option<Batch>>> =
        batches.into_iter().map(|b| Mutex::new(Some(b))).collect();
    let chunks = run_tasks(ctx.threads, cells.len(), |i| {
        let batch = cells[i]
            .lock()
            .expect("batch cell lock")
            .take()
            .expect("each batch converted once");
        Ok::<_, StorageError>(batch.into_rows())
    })?;
    let mut rows = Vec::with_capacity(total);
    for chunk in chunks {
        rows.extend(chunk);
    }
    Ok(rows)
}

/// Flatten a batch list into one dense batch (the hash-join build side
/// needs global row indices). All-dense same-variant columns stitch their
/// payload vectors directly; anything else compacts per batch and rebuilds
/// per value.
fn flatten_batches(batches: Vec<Batch>, width: usize) -> Batch {
    if batches.len() == 1 && batches[0].selection.is_none() {
        return batches.into_iter().next().expect("one batch");
    }
    let total: usize = batches.iter().map(|b| b.live()).sum();
    let all_dense = batches.iter().all(|b| b.selection.is_none());
    let columns = (0..width)
        .map(|c| {
            if all_dense {
                let parts: Vec<&ColumnVec> =
                    batches.iter().map(|b| b.columns[c].as_ref()).collect();
                if let Some(col) = concat_dense(&parts) {
                    return Arc::new(col);
                }
            }
            let mut builder = ColumnBuilder::with_capacity(total);
            for batch in &batches {
                for i in batch.live_rows() {
                    builder.push(batch.columns[c].value(i));
                }
            }
            Arc::new(builder.finish())
        })
        .collect();
    Batch {
        len: total,
        columns,
        selection: None,
    }
}

pub(crate) fn exec_node_col(node: &PhysNode, ctx: &RunCtx<'_>) -> StorageResult<Vec<Batch>> {
    match node {
        PhysNode::ScanTable { name, cols } => {
            let table = ctx
                .db
                .table(name)
                .ok_or_else(|| StorageError::UnknownTable(name.clone()))?;
            // The table's columnar decode is computed once and cached on
            // the table (invalidated by inserts); a scan is refcount bumps
            // plus fresh (all-live) selections. With a pruning mask only
            // the referenced columns are decoded.
            Ok(table.columnar_batches_for(ctx.threads, cols.as_deref()))
        }
        PhysNode::IndexScan { name, access, cols } => {
            let table = ctx
                .db
                .table(name)
                .ok_or_else(|| StorageError::UnknownTable(name.clone()))?;
            // The index answers with ascending global row ids; those map
            // straight onto per-batch selection vectors (batch boundaries
            // are fixed at BATCH_ROWS), so no data moves at all.
            let ids = index_scan_ids(table, access, ctx)?;
            let mut batches = table.columnar_batches_for(ctx.threads, cols.as_deref());
            let mut sels: Vec<Vec<u32>> = batches.iter().map(|_| Vec::new()).collect();
            for id in ids {
                sels[id as usize / BATCH_ROWS].push((id as usize % BATCH_ROWS) as u32);
            }
            for (batch, sel) in batches.iter_mut().zip(sels) {
                batch.selection = Some(sel);
            }
            Ok(batches)
        }
        PhysNode::IndexAgg { name, specs } => {
            let rows = exec_index_agg(name, specs, ctx)?;
            rows_to_batches(&rows, specs.len(), ctx)
        }
        PhysNode::IndexTopK {
            name,
            key_ordinal,
            output,
            limit,
            offset,
        } => {
            let rows = exec_index_top_k(name, *key_ordinal, output, limit, offset.as_ref(), ctx)?;
            rows_to_batches(&rows, output.len(), ctx)
        }
        PhysNode::ScanCte { name } => {
            let result = ctx
                .frame
                .and_then(|f| f.get(name))
                .ok_or_else(|| StorageError::UnknownTable(name.clone()))?;
            rows_to_batches(&result.rows, result.columns.len(), ctx)
        }
        PhysNode::ScanDerived { plan } => {
            let result = exec_query_plan(plan, ctx)?;
            rows_to_batches(&result.rows, result.columns.len(), ctx)
        }
        PhysNode::ScanEmpty => Ok(vec![Batch {
            len: 1,
            columns: Vec::new(),
            selection: None,
        }]),
        PhysNode::Filter {
            input,
            predicate,
            bindings,
        } => {
            let mut batches = exec_node_col(input, ctx)?;
            // Selection refinement: evaluate the predicate over each
            // batch's live rows and keep the physical indices where it is
            // TRUE. The columns themselves are untouched.
            let selections = run_tasks(ctx.threads, batches.len(), |i| {
                let batch = &batches[i];
                let wctx = ctx.serial();
                let env = BatchEnv {
                    ctx: &wctx,
                    bindings,
                };
                let col = predicate.eval_batch(batch, &env)?;
                let (truth, nulls) = truth3_col(col.as_ref());
                let mut sel = Vec::new();
                for (j, phys) in batch.live_rows().enumerate() {
                    if truth[j] && !nulls.get(j) {
                        sel.push(phys as u32);
                    }
                }
                Ok::<_, StorageError>(sel)
            })?;
            for (batch, sel) in batches.iter_mut().zip(selections) {
                batch.selection = Some(sel);
            }
            Ok(batches)
        }
        PhysNode::Project {
            input,
            items,
            visible,
            distinct,
            bindings,
        } => {
            let batches = exec_node_col(input, ctx)?;
            let mut out = run_tasks(ctx.threads, batches.len(), |i| {
                let batch = &batches[i];
                let wctx = ctx.serial();
                let env = BatchEnv {
                    ctx: &wctx,
                    bindings,
                };
                let columns = items
                    .iter()
                    .map(|item| item.eval_batch(batch, &env))
                    .collect::<StorageResult<Vec<_>>>()?;
                Ok::<_, StorageError>(Batch {
                    len: batch.live(),
                    columns,
                    selection: None,
                })
            })?;
            if *distinct {
                dedup_batches(&mut out, *visible);
            }
            Ok(out)
        }
        PhysNode::HashJoin {
            left,
            right,
            operator,
            left_keys,
            right_keys,
            residual,
            bindings,
            right_width,
            build_left,
        } => {
            let left_batches = exec_node_col(left, ctx)?;
            let right_batches = exec_node_col(right, ctx)?;
            columnar_hash_join(
                left_batches,
                right_batches,
                *operator,
                left_keys,
                right_keys,
                residual.as_ref(),
                bindings,
                *right_width,
                *build_left,
                ctx,
            )
        }
        PhysNode::NestedLoopJoin {
            left,
            right,
            operator,
            on,
            bindings,
            right_width,
        } => {
            // Non-equi and cross joins are rare: reuse the row operator.
            let left_rows = exec_node_rows(left, ctx)?;
            let right_rows = exec_node_rows(right, ctx)?;
            let rows = join::nested_loop_join(
                &left_rows,
                &right_rows,
                *operator,
                on.as_ref(),
                bindings,
                *right_width,
                ctx,
            )?;
            rows_to_batches(&rows, bindings.len(), ctx)
        }
        PhysNode::HashAggregate {
            input,
            group_by,
            having,
            items,
            visible,
            distinct,
            bindings,
        } => {
            let batches = exec_node_col(input, ctx)?;
            let mut rows =
                columnar_hash_aggregate(&batches, group_by, having.as_ref(), items, bindings, ctx)?;
            if *distinct {
                dedup_rows(&mut rows, *visible);
            }
            rows_to_batches(&rows, items.len(), ctx)
        }
        PhysNode::Sort { input, keys } => {
            let mut rows = exec_node_rows(input, ctx)?;
            let width = rows.first().map(|r| r.len()).unwrap_or(0);
            rows.sort_by(|a, b| compare_rows(a, b, keys));
            rows_to_batches(&rows, width, ctx)
        }
        PhysNode::TopK {
            input,
            keys,
            limit,
            offset,
        } => {
            let rows = exec_node_rows(input, ctx)?;
            let width = rows.first().map(|r| r.len()).unwrap_or(0);
            let skip = match offset {
                Some(offset) => eval_count(offset, ctx)?,
                None => 0,
            };
            let take = eval_count(limit, ctx)?;
            let rows = top_k_rows(rows, keys, skip, take);
            rows_to_batches(&rows, width, ctx)
        }
        PhysNode::Limit {
            input,
            limit,
            offset,
        } => {
            let batches = exec_node_col(input, ctx)?;
            let mut skip = match offset {
                Some(offset) => eval_count(offset, ctx)?,
                None => 0,
            };
            let mut remaining = match limit {
                Some(limit) => eval_count(limit, ctx)?,
                None => usize::MAX,
            };
            let mut out = Vec::new();
            for mut batch in batches {
                if remaining == 0 {
                    break;
                }
                let live: Vec<u32> = batch.live_rows().map(|i| i as u32).collect();
                if skip >= live.len() {
                    skip -= live.len();
                    continue;
                }
                let start = skip;
                skip = 0;
                let end = live.len().min(start + remaining.min(live.len() - start));
                remaining = remaining.saturating_sub(end - start);
                batch.selection = Some(live[start..end].to_vec());
                out.push(batch);
            }
            Ok(out)
        }
        PhysNode::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let l = exec_query_plan(left, ctx)?;
            let r = exec_query_plan(right, ctx)?;
            let combined = combine_set_operation(*op, *all, l, r)?;
            rows_to_batches(&combined.rows, combined.columns.len(), ctx)
        }
        PhysNode::Nested(sub) => {
            let result = exec_query_plan(sub, ctx)?;
            rows_to_batches(&result.rows, result.columns.len(), ctx)
        }
    }
}

/// DISTINCT over the visible prefix of the projected batches: one
/// sequential pass (batch order = row order) keying on column slices, no
/// string materialization. Keeps first occurrences, like [`dedup_rows`].
fn dedup_batches(batches: &mut [Batch], visible: usize) {
    // Per-batch key-column refs, computed once (not per row/comparison).
    let key_cols: Vec<Vec<&ColumnVec>> = batches
        .iter()
        .map(|b| {
            b.columns[..visible.min(b.columns.len())]
                .iter()
                .map(|c| c.as_ref())
                .collect()
        })
        .collect();
    // bucket hash → (batch, physical row) of each distinct representative.
    let mut buckets: HashMap<u64, Vec<(usize, u32)>> = HashMap::new();
    let mut selections: Vec<Vec<u32>> = Vec::with_capacity(batches.len());
    for (bi, batch) in batches.iter().enumerate() {
        let cols = &key_cols[bi];
        let mut sel = Vec::new();
        for i in batch.live_rows() {
            let hash = composite_hash(cols, i);
            let bucket = buckets.entry(hash).or_default();
            let duplicate = bucket
                .iter()
                .any(|&(obi, oi)| composite_eq(&key_cols[obi], oi as usize, cols, i));
            if !duplicate {
                bucket.push((bi, i as u32));
                sel.push(i as u32);
            }
        }
        selections.push(sel);
    }
    for (batch, sel) in batches.iter_mut().zip(selections) {
        batch.selection = Some(sel);
    }
}

/// Columnar hash join: build a bucket table over the flattened right side
/// keyed on column slices, probe left batches in parallel, and emit output
/// batches by gathering columns — no composite key strings, no per-pair row
/// concatenation. Candidate pairs are enumerated left-row-major with
/// right candidates in build order.
///
/// With `build_left` the bucket table is built over the left batches instead
/// and the right rows probe it in right-row order, appending each right index
/// to its matched left rows' candidate lists; reading a left row's list then
/// yields matches ascending by right index — the exact build-right candidate
/// sequence — so the output is byte-identical either way.
#[allow(clippy::too_many_arguments)]
fn columnar_hash_join(
    left_batches: Vec<Batch>,
    right_batches: Vec<Batch>,
    operator: JoinOperator,
    left_keys: &[usize],
    right_keys: &[usize],
    residual: Option<&PhysExpr>,
    bindings: &[ColumnBinding],
    right_width: usize,
    build_left: bool,
    ctx: &RunCtx<'_>,
) -> StorageResult<Vec<Batch>> {
    let left_width = bindings.len() - right_width;
    let right = flatten_batches(right_batches, right_width);
    let right_key_cols: Vec<&ColumnVec> = right_keys
        .iter()
        .map(|&k| right.columns[k].as_ref())
        .collect();

    // Physical-row offsets of each left batch in a global left-row id space
    // (only used by the build-left path's candidate lists).
    let mut left_offsets: Vec<usize> = Vec::with_capacity(left_batches.len());
    let mut total_left = 0usize;
    for batch in &left_batches {
        left_offsets.push(total_left);
        total_left += batch.len;
    }

    // Build-left: per-left-row candidate lists filled by probing with the
    // right side; build-right (default): bucket table hash → right row
    // indices in right-row order. Hash collisions are resolved by key
    // equality, so candidate sequences are exact-key candidate lists either
    // way.
    let left_matches: Option<Vec<Vec<u32>>> = if build_left {
        Some(build_left_matches(
            &left_batches,
            &left_offsets,
            total_left,
            left_keys,
            &right,
            &right_key_cols,
            ctx,
        )?)
    } else {
        None
    };
    let mut table: HashMap<u64, Vec<u32>> = HashMap::new();
    if !build_left {
        table.reserve(right.len);
        for ri in 0..right.len {
            if keys_nonnull(&right_key_cols, ri) {
                table
                    .entry(composite_hash(&right_key_cols, ri))
                    .or_default()
                    .push(ri as u32);
            }
        }
    }

    let track_right = matches!(operator, JoinOperator::RightOuter | JoinOperator::FullOuter);
    let left_outer = matches!(operator, JoinOperator::LeftOuter | JoinOperator::FullOuter);

    // Probe: one task per left batch, reassembled in batch order.
    let probed = run_tasks(ctx.threads, left_batches.len(), |bi| {
        let batch = &left_batches[bi];
        let wctx = ctx.serial();
        let left_key_cols: Vec<&ColumnVec> = left_keys
            .iter()
            .map(|&k| batch.columns[k].as_ref())
            .collect();

        // Candidate pairs, left-row-major. Build-left reads precomputed
        // per-left-row lists (already in right-row order); build-right
        // hashes into the right-side bucket table.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut per_row: Vec<(u32, u32)> = Vec::new(); // (left phys, pair count)
        for lphys in batch.live_rows() {
            let start = pairs.len();
            if let Some(matches) = &left_matches {
                for &ri in &matches[left_offsets[bi] + lphys] {
                    pairs.push((lphys as u32, ri));
                }
            } else if keys_nonnull(&left_key_cols, lphys) {
                if let Some(candidates) = table.get(&composite_hash(&left_key_cols, lphys)) {
                    for &ri in candidates {
                        if composite_eq(&left_key_cols, lphys, &right_key_cols, ri as usize) {
                            pairs.push((lphys as u32, ri));
                        }
                    }
                }
            }
            per_row.push((lphys as u32, (pairs.len() - start) as u32));
        }

        // Residual predicate over the candidate-pair batch.
        let keep: Vec<bool> = match residual {
            None => vec![true; pairs.len()],
            Some(predicate) => {
                let lidx: Vec<u32> = pairs.iter().map(|p| p.0).collect();
                let ridx: Vec<u32> = pairs.iter().map(|p| p.1).collect();
                let mut columns = Vec::with_capacity(bindings.len());
                for c in 0..left_width {
                    columns.push(Arc::new(batch.columns[c].gather(&lidx)));
                }
                for c in 0..right_width {
                    columns.push(Arc::new(right.columns[c].gather(&ridx)));
                }
                let candidates = Batch {
                    len: pairs.len(),
                    columns,
                    selection: None,
                };
                let env = BatchEnv {
                    ctx: &wctx,
                    bindings,
                };
                let col = predicate.eval_batch(&candidates, &env)?;
                let (truth, nulls) = truth3_col(col.as_ref());
                (0..pairs.len())
                    .map(|j| truth[j] && !nulls.get(j))
                    .collect()
            }
        };

        // Output plan: kept pairs per left row in order; unmatched left
        // rows pad NULLs on the right for LEFT/FULL joins.
        let mut lidx: Vec<u32> = Vec::new();
        let mut ridx: Vec<u32> = Vec::new();
        let mut matched_right: Vec<u32> = Vec::new();
        let mut seen = vec![false; if track_right { right.len } else { 0 }];
        let mut p = 0usize;
        for &(lphys, count) in &per_row {
            let mut matched = false;
            for j in p..p + count as usize {
                if keep[j] {
                    matched = true;
                    lidx.push(pairs[j].0);
                    ridx.push(pairs[j].1);
                    if track_right && !seen[pairs[j].1 as usize] {
                        seen[pairs[j].1 as usize] = true;
                        matched_right.push(pairs[j].1);
                    }
                }
            }
            p += count as usize;
            if !matched && left_outer {
                lidx.push(lphys);
                ridx.push(PAD_NULL);
            }
        }

        let mut columns = Vec::with_capacity(bindings.len());
        for c in 0..left_width {
            columns.push(Arc::new(batch.columns[c].gather(&lidx)));
        }
        for c in 0..right_width {
            columns.push(Arc::new(right.columns[c].gather_padded(&ridx)));
        }
        Ok::<_, StorageError>((
            Batch {
                len: lidx.len(),
                columns,
                selection: None,
            },
            matched_right,
        ))
    })?;

    let mut out = Vec::with_capacity(probed.len() + 1);
    let mut right_matched = vec![false; if track_right { right.len } else { 0 }];
    for (batch, matched) in probed {
        out.push(batch);
        for ri in matched {
            right_matched[ri as usize] = true;
        }
    }
    if track_right {
        let unmatched: Vec<u32> = (0..right.len as u32)
            .filter(|&ri| !right_matched[ri as usize])
            .collect();
        if !unmatched.is_empty() {
            let mut columns = Vec::with_capacity(bindings.len());
            for _ in 0..left_width {
                columns.push(Arc::new(ColumnVec::Any(vec![Value::Null; unmatched.len()])));
            }
            for c in 0..right_width {
                columns.push(Arc::new(right.columns[c].gather(&unmatched)));
            }
            out.push(Batch {
                len: unmatched.len(),
                columns,
                selection: None,
            });
        }
    }
    Ok(out)
}

/// Build-side-flipped candidate enumeration: bucket every live left row by
/// key hash (in batch-major left-row order), then probe with the flattened
/// right side in right-row order, appending each right index to the candidate
/// lists of the left rows it key-matches. Morsel chunks merge in range order,
/// so every per-left-row list comes out ascending by right index — exactly
/// the sequence the build-right path would have enumerated.
#[allow(clippy::too_many_arguments)]
fn build_left_matches(
    left_batches: &[Batch],
    left_offsets: &[usize],
    total_left: usize,
    left_keys: &[usize],
    right: &Batch,
    right_key_cols: &[&ColumnVec],
    ctx: &RunCtx<'_>,
) -> StorageResult<Vec<Vec<u32>>> {
    let left_key_cols: Vec<Vec<&ColumnVec>> = left_batches
        .iter()
        .map(|batch| {
            left_keys
                .iter()
                .map(|&k| batch.columns[k].as_ref())
                .collect()
        })
        .collect();
    let mut table: HashMap<u64, Vec<(u32, u32)>> = HashMap::with_capacity(total_left);
    for (bi, batch) in left_batches.iter().enumerate() {
        let cols = &left_key_cols[bi];
        for lphys in batch.live_rows() {
            if keys_nonnull(cols, lphys) {
                table
                    .entry(composite_hash(cols, lphys))
                    .or_default()
                    .push((bi as u32, lphys as u32));
            }
        }
    }
    let pair_chunks = run_morsels(ctx.threads, right.len, |range| {
        let mut pairs: Vec<(u32, u32, u32)> = Vec::new();
        for ri in range {
            if keys_nonnull(right_key_cols, ri) {
                if let Some(candidates) = table.get(&composite_hash(right_key_cols, ri)) {
                    for &(bi, lphys) in candidates {
                        if composite_eq(
                            &left_key_cols[bi as usize],
                            lphys as usize,
                            right_key_cols,
                            ri,
                        ) {
                            pairs.push((bi, lphys, ri as u32));
                        }
                    }
                }
            }
        }
        Ok::<_, StorageError>(pairs)
    })?;
    let mut matches: Vec<Vec<u32>> = vec![Vec::new(); total_left];
    for chunk in pair_chunks {
        for (bi, lphys, ri) in chunk {
            matches[left_offsets[bi as usize] + lphys as usize].push(ri);
        }
    }
    Ok(matches)
}

/// Columnar hash aggregation: group keys are evaluated as whole columns per
/// batch and grouped on column-slice hashes (no composite key strings);
/// per-batch partial groupings merge in batch order so global group order
/// is first-seen over the input. Group rows are then gathered and
/// finalized with the shared HAVING/projection phase.
fn columnar_hash_aggregate(
    batches: &[Batch],
    group_by: &[PhysExpr],
    having: Option<&PhysExpr>,
    items: &[PhysExpr],
    bindings: &[ColumnBinding],
    ctx: &RunCtx<'_>,
) -> StorageResult<Vec<Row>> {
    struct Partial {
        /// Evaluated key columns, dense over the batch's live rows.
        keys: Vec<Arc<ColumnVec>>,
        /// Physical row index of each live row.
        phys: Vec<u32>,
        /// Local groups: (key hash, representative dense index, members as
        /// dense indices), in first-seen order.
        groups: Vec<(u64, u32, Vec<u32>)>,
    }

    // Phase 1 — parallel per-batch partial grouping.
    let partials: Vec<Partial> = run_tasks(ctx.threads, batches.len(), |bi| {
        let batch = &batches[bi];
        let wctx = ctx.serial();
        let env = BatchEnv {
            ctx: &wctx,
            bindings,
        };
        let keys = group_by
            .iter()
            .map(|e| e.eval_batch(batch, &env))
            .collect::<StorageResult<Vec<_>>>()?;
        let key_refs: Vec<&ColumnVec> = keys.iter().map(|c| c.as_ref()).collect();
        let phys: Vec<u32> = batch.live_rows().map(|i| i as u32).collect();
        let mut groups: Vec<(u64, u32, Vec<u32>)> = Vec::new();
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        for j in 0..phys.len() {
            let hash = composite_hash(&key_refs, j);
            let bucket = buckets.entry(hash).or_default();
            let existing = bucket
                .iter()
                .find(|&&g| composite_eq(&key_refs, groups[g as usize].1 as usize, &key_refs, j));
            match existing {
                Some(&g) => groups[g as usize].2.push(j as u32),
                None => {
                    bucket.push(groups.len() as u32);
                    groups.push((hash, j as u32, vec![j as u32]));
                }
            }
        }
        Ok::<_, StorageError>(Partial { keys, phys, groups })
    })?;

    // Phase 2 — deterministic merge in batch order: global groups hold
    // (batch, physical row) members; key equality compares representative
    // key cells across batches. Key-column refs are computed once per
    // partial, not per candidate comparison.
    let all_key_refs: Vec<Vec<&ColumnVec>> = partials
        .iter()
        .map(|p| p.keys.iter().map(|c| c.as_ref()).collect())
        .collect();
    let mut global: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut reps: Vec<(usize, usize)> = Vec::new(); // (batch, dense index)
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    for (bi, partial) in partials.iter().enumerate() {
        let key_refs = &all_key_refs[bi];
        for (hash, rep, members) in &partial.groups {
            let bucket = buckets.entry(*hash).or_default();
            let existing = bucket.iter().find(|&&g| {
                let (obi, oj) = reps[g as usize];
                composite_eq(&all_key_refs[obi], oj, key_refs, *rep as usize)
            });
            let members_phys = members
                .iter()
                .map(|&j| (bi as u32, partial.phys[j as usize]));
            match existing {
                Some(&g) => global[g as usize].extend(members_phys),
                None => {
                    bucket.push(global.len() as u32);
                    reps.push((bi, *rep as usize));
                    global.push(members_phys.collect());
                }
            }
        }
    }

    // Phase 3 — gather group rows (parallel over groups) and finalize with
    // the shared HAVING/projection phase.
    let groups: Vec<Vec<Row>> = run_tasks(ctx.threads, global.len(), |g| {
        Ok::<_, StorageError>(
            global[g]
                .iter()
                .map(|&(bi, phys)| batches[bi as usize].gather_row(phys as usize))
                .collect(),
        )
    })?;
    let mut groups = groups;
    if groups.is_empty() && group_by.is_empty() {
        // Aggregates over an empty input still produce one row.
        groups.push(Vec::new());
    }
    finalize_agg_groups(&groups, having, items, bindings, ctx)
}
