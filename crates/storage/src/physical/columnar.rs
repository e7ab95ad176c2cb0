//! Columnar batch execution — the default strategy of the planned engine.
//!
//! Operators consume and produce [`Vec<Batch>`]: scans decode table rows
//! into typed column vectors once (fixed [`BATCH_ROWS`]-row batches),
//! filters refine each batch's **selection vector** without touching the
//! data, projections evaluate vectorized expression kernels over whole
//! batches, and the hash join and hash aggregate key on **column slices**
//! ([`KeyPart`](super::batch::KeyPart) hashes) instead of allocating a
//! composite `String` per row. Every operator is a plain loop over its
//! batches on the calling thread; parallelism lives one level up, across
//! independent queries (see [`batch_map`](super::batch_map)).
//!
//! Everything not yet vectorized falls back without leaving the engine:
//! expressions with subqueries/CASE/functions evaluate per row inside their
//! batch (see [`PhysExpr::eval_batch`]), and blocking operators (sort, set
//! operations, derived tables) convert batches to rows, reuse the row
//! operators, and convert back. Every join is the hash join: one without
//! equi-keys (a cross join or a non-equi ON) runs it with empty key lists.
//!
//! Output order is the interpreter's: batches are visited in row order,
//! join candidates are emitted left-row-major in right-row order, and
//! aggregate groups appear in first-seen order. The legacy interpreter
//! (`ExecStrategy::Legacy`) is the differential oracle for this engine.
//!
//! Two documented divergences from the interpreter. **NaN join keys**: the
//! interpreter's total ordering treats NaN as equal to every number, the
//! hash join as equal only to NaN — NaN cannot be produced by the supported
//! expression surface. **Error identity under multiple failures**: a query
//! errors on exactly the same inputs in both engines, and each engine's
//! reported error is deterministic — but when
//! *several* rows or operands can fail, the columnar engine evaluates
//! operand-major (whole left column, then whole right column) while the
//! interpreter evaluates row-major, so the two may surface different
//! members of the same error set (e.g. the left operand's overflow on a
//! later row vs the right operand's division-by-zero on an earlier row).
//! Matching row-major error selection would require error-deferring
//! kernels. The differential suite nevertheless asserts identical errors:
//! its generated workloads, corner corpora and Figure 1 predictions never
//! reach such a statement, and one that did would show up there.

use crate::sync::Arc;
use std::collections::HashMap;

use bp_sql::JoinOperator;

use crate::error::{StorageError, StorageResult};
use crate::scalar::{combine_set_operation, truth3_col};
use crate::table::Row;
use crate::value::Value;

use super::batch::{
    composite_eq, composite_hash, concat_dense, keys_nonnull, Batch, ColumnBuilder, ColumnVec,
    BATCH_ROWS, PAD_NULL,
};
use super::expr::PhysExpr;
use super::{
    compare_rows, eval_count, exec_index_agg, exec_query_plan, finalize_agg_groups, index_scan_ids,
    top_k_rows, PhysNode, RunCtx,
};

/// Execute a node columnar-ly and materialize the live rows (the
/// `QueryResult` edge). Dense batches move their payloads out.
pub(crate) fn exec_node_rows(node: &PhysNode, ctx: &RunCtx<'_>) -> StorageResult<Vec<Row>> {
    let batches = exec_node_col(node, ctx)?;
    let mut rows = Vec::with_capacity(batches.iter().map(|b| b.live()).sum());
    for batch in batches {
        rows.extend(batch.into_rows());
    }
    Ok(rows)
}

/// Chunk rows into fixed-size dense batches.
fn rows_to_batches(rows: &[Row], width: usize) -> Vec<Batch> {
    rows.chunks(BATCH_ROWS)
        .map(|chunk| Batch::from_rows(chunk, width))
        .collect()
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
            // the columns the plan reads are decoded and emitted.
            Ok(table.columnar_batches_for(cols.as_deref()))
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
            let mut batches = table.columnar_batches_for(cols.as_deref());
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
            Ok(rows_to_batches(&rows, specs.len()))
        }
        PhysNode::ScanCte { depth, idx } => {
            // Only a miscompile misses; the verifier reports `CteOutOfBounds`.
            let result = ctx.frame.and_then(|f| f.get(*depth, *idx)).ok_or_else(|| {
                StorageError::PlanVerification(format!("no CTE {idx} in the plan {depth} out"))
            })?;
            Ok(rows_to_batches(&result.rows, result.columns.len()))
        }
        PhysNode::ScanDerived { plan } => {
            let result = exec_query_plan(plan, ctx)?;
            Ok(rows_to_batches(&result.rows, result.columns.len()))
        }
        PhysNode::ScanEmpty => Ok(vec![Batch {
            len: 1,
            columns: Vec::new(),
            selection: None,
        }]),
        PhysNode::Filter {
            input, predicate, ..
        } => {
            let mut batches = exec_node_col(input, ctx)?;
            // Selection refinement: evaluate the predicate over each
            // batch's live rows and keep the physical indices where it is
            // TRUE. The columns themselves are untouched.
            for batch in &mut batches {
                let col = predicate.eval_batch(batch, ctx)?;
                let (truth, nulls) = truth3_col(col.as_ref());
                let sel = batch
                    .live_rows()
                    .enumerate()
                    .filter(|&(j, _)| truth[j] && !nulls.get(j))
                    .map(|(_, phys)| phys as u32)
                    .collect();
                batch.selection = Some(sel);
            }
            Ok(batches)
        }
        PhysNode::Project {
            input,
            items,
            visible,
            distinct,
            ..
        } => {
            let batches = exec_node_col(input, ctx)?;
            let mut out = batches
                .iter()
                .map(|batch| {
                    Ok(Batch {
                        len: batch.live(),
                        columns: items
                            .iter()
                            .map(|item| item.eval_batch(batch, ctx))
                            .collect::<StorageResult<Vec<_>>>()?,
                        selection: None,
                    })
                })
                .collect::<StorageResult<Vec<_>>>()?;
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
            width,
            right_width,
            build_left,
            cols,
        } => {
            let left_batches = exec_node_col(left, ctx)?;
            let right_batches = exec_node_col(right, ctx)?;
            let emit = cols.clone().unwrap_or_else(|| (0..*width).collect());
            columnar_hash_join(
                left_batches,
                right_batches,
                *operator,
                left_keys,
                right_keys,
                residual.as_ref(),
                (*width, *right_width),
                &emit,
                *build_left,
                ctx,
            )
        }
        PhysNode::HashAggregate {
            input,
            group_by,
            having,
            items,
            visible,
            distinct,
            input_width,
        } => {
            let batches = exec_node_col(input, ctx)?;
            let width = *input_width;
            let rows =
                columnar_hash_aggregate(&batches, group_by, having.as_ref(), items, width, ctx)?;
            let mut out = rows_to_batches(&rows, items.len());
            if *distinct {
                dedup_batches(&mut out, *visible);
            }
            Ok(out)
        }
        PhysNode::Sort { input, keys } => {
            let mut rows = exec_node_rows(input, ctx)?;
            let width = rows.first().map(|r| r.len()).unwrap_or(0);
            rows.sort_by(|a, b| compare_rows(a, b, keys));
            Ok(rows_to_batches(&rows, width))
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
            Ok(rows_to_batches(&rows, width))
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
            Ok(rows_to_batches(&combined.rows, combined.columns.len()))
        }
        PhysNode::Nested(sub) => {
            let result = exec_query_plan(sub, ctx)?;
            Ok(rows_to_batches(&result.rows, result.columns.len()))
        }
    }
}

/// DISTINCT over the visible prefix of projected or aggregated batches:
/// one sequential pass (batch order = row order) keying on column slices,
/// no string materialization. Keeps first occurrences.
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
/// keyed on column slices, probe it with each left batch in turn, and emit
/// one output batch per left batch by gathering the `emit` columns of the
/// joined row (`widths` = its width and its right part's) — no composite
/// key strings, no per-pair row concatenation. Candidate pairs are
/// enumerated left-row-major with right candidates in build order.
///
/// A join without equi-keys (a cross join or a non-equi ON) is the same
/// loop with empty key lists: every right row lands in the one empty-key
/// bucket, so each left row's candidates are all right rows in right-row
/// order — the nested loop's pair order, padding included.
///
/// Pairs stream. Without a residual each candidate goes straight into the
/// output gather indices; with one, the residual runs over chunks of at
/// most [`BATCH_ROWS`] candidate pairs, so a keyless join never holds its
/// |L|×|R| candidates at once (the compiler never builds it left, whose
/// candidate lists would hold them all).
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
    (width, right_width): (usize, usize),
    emit: &[usize],
    build_left: bool,
    ctx: &RunCtx<'_>,
) -> StorageResult<Vec<Batch>> {
    let left_width = width - right_width;
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
    let left_matches: Option<Vec<Vec<u32>>> = build_left.then(|| {
        build_left_matches(
            &left_batches,
            &left_offsets,
            total_left,
            left_keys,
            &right_key_cols,
            right.len,
        )
    });
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
    let mut right_matched = vec![false; if track_right { right.len } else { 0 }];

    let mut out = Vec::with_capacity(left_batches.len() + 1);
    for (bi, batch) in left_batches.iter().enumerate() {
        let left_key_cols: Vec<&ColumnVec> = left_keys
            .iter()
            .map(|&k| batch.columns[k].as_ref())
            .collect();
        let mut sink = JoinSink {
            lidx: Vec::new(),
            ridx: Vec::new(),
            left_matched: vec![false; batch.len],
            left_outer,
            right_matched: &mut right_matched,
        };
        let mut pending = PendingPairs::default();
        for lphys in batch.live_rows() {
            // Build-left reads precomputed per-left-row lists (already in
            // right-row order and key-equal); build-right hashes into the
            // right-side bucket table and checks key equality.
            let candidates: &[u32] = match &left_matches {
                Some(matches) => &matches[left_offsets[bi] + lphys],
                None if keys_nonnull(&left_key_cols, lphys) => table
                    .get(&composite_hash(&left_key_cols, lphys))
                    .map_or(&[], Vec::as_slice),
                None => &[],
            };
            let lp = lphys as u32;
            for &ri in candidates {
                if left_matches.is_none()
                    && !composite_eq(&left_key_cols, lphys, &right_key_cols, ri as usize)
                {
                    continue;
                }
                match residual {
                    None => sink.pair(lp, ri),
                    Some(predicate) => {
                        pending.left.push(lp);
                        pending.right.push(ri);
                        if pending.left.len() == BATCH_ROWS {
                            pending.flush(predicate, batch, &right, left_width, &mut sink, ctx)?;
                        }
                    }
                }
            }
            match residual {
                None => sink.finish_row(lp),
                Some(_) => pending.finished.push((lp, pending.left.len())),
            }
        }
        if let Some(predicate) = residual {
            pending.flush(predicate, batch, &right, left_width, &mut sink, ctx)?;
        }

        let (lidx, ridx) = (sink.lidx, sink.ridx);
        let columns = emit
            .iter()
            .map(|&c| match c.checked_sub(left_width) {
                None => Arc::new(batch.columns[c].gather(&lidx)),
                Some(rc) => Arc::new(right.columns[rc].gather_padded(&ridx)),
            })
            .collect();
        out.push(Batch {
            len: lidx.len(),
            columns,
            selection: None,
        });
    }

    if track_right {
        let unmatched: Vec<u32> = (0..right.len as u32)
            .filter(|&ri| !right_matched[ri as usize])
            .collect();
        if !unmatched.is_empty() {
            let columns = emit
                .iter()
                .map(|&c| match c.checked_sub(left_width) {
                    None => Arc::new(ColumnVec::Any(vec![Value::Null; unmatched.len()])),
                    Some(rc) => Arc::new(right.columns[rc].gather(&unmatched)),
                })
                .collect();
            out.push(Batch {
                len: unmatched.len(),
                columns,
                selection: None,
            });
        }
    }
    Ok(out)
}

/// One left batch's join output as gather indices (left physical row,
/// right row or [`PAD_NULL`]), in output order, plus the match flags that
/// outer joins pad by.
struct JoinSink<'m> {
    lidx: Vec<u32>,
    ridx: Vec<u32>,
    /// Per physical row of the left batch: whether a pair has been kept.
    left_matched: Vec<bool>,
    left_outer: bool,
    /// Per right row, for RIGHT/FULL joins; empty otherwise.
    right_matched: &'m mut [bool],
}

impl JoinSink<'_> {
    /// Emit a kept pair.
    fn pair(&mut self, l: u32, r: u32) {
        self.lidx.push(l);
        self.ridx.push(r);
        self.left_matched[l as usize] = true;
        if let Some(matched) = self.right_matched.get_mut(r as usize) {
            *matched = true;
        }
    }

    /// Close a left row once all its candidates are decided: a LEFT/FULL
    /// join pads an unmatched row with NULLs right after where its pairs
    /// would be.
    fn finish_row(&mut self, l: u32) {
        if self.left_outer && !self.left_matched[l as usize] {
            self.lidx.push(l);
            self.ridx.push(PAD_NULL);
        }
    }
}

/// Candidate pairs awaiting the join residual (at most [`BATCH_ROWS`]),
/// and the left rows whose candidates have all been queued, each with the
/// number of pairs queued before its end.
#[derive(Default)]
struct PendingPairs {
    left: Vec<u32>,
    right: Vec<u32>,
    finished: Vec<(u32, usize)>,
}

impl PendingPairs {
    /// Evaluate `predicate` over the queued pairs of `batch` ⋈ `right`,
    /// then hand `sink` the kept pairs and the finished rows in queue
    /// order. A row's candidates may span chunks: its match flag lives in
    /// the sink, so only the chunk holding its end pads it.
    fn flush(
        &mut self,
        predicate: &PhysExpr,
        batch: &Batch,
        right: &Batch,
        left_width: usize,
        sink: &mut JoinSink<'_>,
        ctx: &RunCtx<'_>,
    ) -> StorageResult<()> {
        let mut keep = Vec::new();
        if !self.left.is_empty() {
            let mut columns = Vec::with_capacity(left_width + right.columns.len());
            for c in 0..left_width {
                columns.push(Arc::new(batch.columns[c].gather(&self.left)));
            }
            for column in &right.columns {
                columns.push(Arc::new(column.gather(&self.right)));
            }
            let candidates = Batch {
                len: self.left.len(),
                columns,
                selection: None,
            };
            let col = predicate.eval_batch(&candidates, ctx)?;
            let (truth, nulls) = truth3_col(col.as_ref());
            keep = (0..self.left.len())
                .map(|j| truth[j] && !nulls.get(j))
                .collect();
        }
        let mut finished = self.finished.iter().peekable();
        for (j, &kept) in keep.iter().enumerate() {
            while let Some((l, _)) = finished.next_if(|&&(_, end)| end <= j) {
                sink.finish_row(*l);
            }
            if kept {
                sink.pair(self.left[j], self.right[j]);
            }
        }
        for &(l, _) in finished {
            sink.finish_row(l);
        }
        self.left.clear();
        self.right.clear();
        self.finished.clear();
        Ok(())
    }
}

/// Build-side-flipped candidate enumeration: bucket every live left row by
/// key hash (in batch-major left-row order), then probe with the flattened
/// right side in right-row order, appending each right index to the candidate
/// lists of the left rows it key-matches. Every per-left-row list therefore
/// comes out ascending by right index — exactly the sequence the build-right
/// path would have enumerated.
fn build_left_matches(
    left_batches: &[Batch],
    left_offsets: &[usize],
    total_left: usize,
    left_keys: &[usize],
    right_key_cols: &[&ColumnVec],
    right_len: usize,
) -> Vec<Vec<u32>> {
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
    let mut matches: Vec<Vec<u32>> = vec![Vec::new(); total_left];
    for ri in 0..right_len {
        if !keys_nonnull(right_key_cols, ri) {
            continue;
        }
        let Some(candidates) = table.get(&composite_hash(right_key_cols, ri)) else {
            continue;
        };
        for &(bi, lphys) in candidates {
            let (bi, lphys) = (bi as usize, lphys as usize);
            if composite_eq(&left_key_cols[bi], lphys, right_key_cols, ri) {
                matches[left_offsets[bi] + lphys].push(ri as u32);
            }
        }
    }
    matches
}

/// Columnar hash aggregation: group keys are evaluated as whole columns per
/// batch and grouped on column-slice hashes (no composite key strings) in
/// one pass over the batches in row order, so group order is first-seen
/// over the input and each group's rows stay in row order. The groups are
/// then finalized with the shared HAVING/projection phase.
fn columnar_hash_aggregate(
    batches: &[Batch],
    group_by: &[PhysExpr],
    having: Option<&PhysExpr>,
    items: &[PhysExpr],
    width: usize,
    ctx: &RunCtx<'_>,
) -> StorageResult<Vec<Row>> {
    // Evaluated key columns per batch, dense over the batch's live rows.
    let keys = batches
        .iter()
        .map(|batch| {
            group_by
                .iter()
                .map(|e| e.eval_batch(batch, ctx))
                .collect::<StorageResult<Vec<_>>>()
        })
        .collect::<StorageResult<Vec<_>>>()?;
    let key_refs: Vec<Vec<&ColumnVec>> = keys
        .iter()
        .map(|cols| cols.iter().map(|c| c.as_ref()).collect())
        .collect();

    // Group rows in first-seen order; `reps` is each group's first member
    // as (batch, dense index) for key comparison.
    let mut groups: Vec<Vec<Row>> = Vec::new();
    let mut reps: Vec<(usize, usize)> = Vec::new();
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    for (bi, batch) in batches.iter().enumerate() {
        let cols = &key_refs[bi];
        for (j, phys) in batch.live_rows().enumerate() {
            let bucket = buckets.entry(composite_hash(cols, j)).or_default();
            let existing = bucket.iter().find(|&&g| {
                let (obi, oj) = reps[g as usize];
                composite_eq(&key_refs[obi], oj, cols, j)
            });
            let row = batch.gather_row(phys);
            match existing {
                Some(&g) => groups[g as usize].push(row),
                None => {
                    bucket.push(groups.len() as u32);
                    reps.push((bi, j));
                    groups.push(vec![row]);
                }
            }
        }
    }
    if groups.is_empty() && group_by.is_empty() {
        // Aggregates over an empty input still produce one row.
        groups.push(Vec::new());
    }
    finalize_agg_groups(&groups, having, items, width, ctx)
}
