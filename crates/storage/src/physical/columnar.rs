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
//! operators, and convert back. Aggregation does not: it flattens its input
//! into one batch, groups it with the hash kernel
//! ([`Grouping`](super::batch::Grouping)), and evaluates each aggregate's
//! argument as a column over its group, a selection vector. DISTINCT and
//! both join build sides group with the same kernel. Every join is the hash
//! join: one without equi-keys (a cross join or a non-equi ON) runs it with
//! empty key lists.
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
//! The same holds for group keys, which evaluate over the whole input, and
//! for aggregate arguments, which evaluate over the whole group.
//! Matching row-major error selection would require error-deferring
//! kernels. The differential suite nevertheless asserts identical errors:
//! its generated workloads, corner corpora and Figure 1 predictions never
//! reach such a statement, and one that did would show up there.

use crate::sync::Arc;

use bp_sql::JoinOperator;

use crate::error::{StorageError, StorageResult};
use crate::scalar::{combine_set_operation, truth3_col};
use crate::table::Row;
use crate::value::Value;

use super::batch::{
    concat_columns, ix, keys_nonnull, row_id, Batch, ColumnVec, Grouping, BATCH_ROWS, PAD_NULL,
};
use super::expr::{EvalEnv, PhysExpr};
use super::{
    compare_rows, eval_count, exec_index_agg, exec_query_plan, index_scan_ids, top_k_rows,
    PhysNode, RunCtx,
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

/// Flatten a batch list into one dense batch of its live rows, for the
/// hash kernel, which groups the rows of one batch. Each batch's live part
/// of a column is gathered typed and the parts concatenated; the batches
/// are dropped as they are read, so a part no one else holds moves into
/// the result, and a lone unselected batch passes through.
fn flatten_batches(batches: Vec<Batch>, width: usize) -> Batch {
    let len = batches.iter().map(Batch::live).sum();
    let mut parts: Vec<Vec<Arc<ColumnVec>>> = (0..width)
        .map(|_| Vec::with_capacity(batches.len()))
        .collect();
    for batch in batches {
        for (c, column) in parts.iter_mut().enumerate() {
            column.push(batch.column_live(c));
        }
    }
    Batch {
        len,
        columns: parts.into_iter().map(concat_columns).collect(),
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
                sels[ix(id) / BATCH_ROWS].push(row_id(ix(id) % BATCH_ROWS));
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
                    .map(|(_, phys)| row_id(phys))
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
            // The input goes at the end of the statement, so DISTINCT's
            // flatten can move the columns no one else holds.
            let out = exec_node_col(input, ctx)?
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
            Ok(if *distinct {
                vec![distinct_rows(out, items.len(), *visible)]
            } else {
                out
            })
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
            let input = flatten_batches(exec_node_col(input, ctx)?, *input_width);
            let rows = columnar_hash_aggregate(&input, group_by, having.as_ref(), items, ctx)?;
            let out = rows_to_batches(&rows, items.len());
            Ok(if *distinct {
                vec![distinct_rows(out, items.len(), *visible)]
            } else {
                out
            })
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
                let live: Vec<u32> = batch.live_rows().map(row_id).collect();
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
    }
}

/// DISTINCT over the visible prefix of projected or aggregated batches
/// (`width` columns): group the flattened rows on that prefix and select
/// each group's first member, so first occurrences survive in row order.
fn distinct_rows(batches: Vec<Batch>, width: usize, visible: usize) -> Batch {
    let mut rows = flatten_batches(batches, width);
    let keys = rows.columns[..visible].iter().map(AsRef::as_ref).collect();
    let firsts = Grouping::build(keys, 0..rows.len).firsts().to_vec();
    rows.selection = Some(firsts);
    rows
}

/// Columnar hash join: group the flattened right side's rows on their key
/// columns, probe with each left batch in turn, and emit one output batch
/// per left batch by gathering the `emit` columns of the joined row
/// (`widths` = its width and its right part's) — no composite key strings,
/// no per-pair row concatenation. A left row finds its group once; the
/// group's members are its candidates, already key-equal and in right-row
/// order, so pairs are enumerated left-row-major with right candidates
/// ascending. Rows with a NULL key cell are left out of the build, so they
/// match nothing.
///
/// A join without equi-keys (a cross join or a non-equi ON) is the same
/// loop with empty key lists: every right row lands in the one empty-key
/// group, so each left row's candidates are all right rows in right-row
/// order — the nested loop's pair order, padding included.
///
/// Pairs stream. Without a residual each candidate goes straight into the
/// output gather indices; with one, the residual runs over chunks of at
/// most [`BATCH_ROWS`] candidate pairs, so a keyless join never holds its
/// |L|×|R| candidates at once.
///
/// With `build_left` the left side is flattened and grouped instead, and
/// the right rows, walked in order, are appended to their left group's
/// list. A left row's candidates are its group's list: ascending by right
/// index — the exact build-right candidate sequence — so the output is
/// byte-identical either way, and each list is held once per key.
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
    let right_key_cols = key_columns(&right, right_keys);
    let left_batches = if build_left {
        vec![flatten_batches(left_batches, left_width)]
    } else {
        left_batches
    };
    // Group the build side's rows whose keys are non-NULL (NULL never
    // joins); building left, also list each left group's right rows.
    let (build, build_keys) = if build_left {
        (&left_batches[0], left_keys)
    } else {
        (&right, right_keys)
    };
    let build_keys = key_columns(build, build_keys);
    let groups = Grouping::build(
        build_keys.clone(),
        (0..build.len).filter(|&i| keys_nonnull(&build_keys, i)),
    );
    let left_lists: Option<Vec<Vec<u32>>> = build_left.then(|| {
        let mut lists = vec![Vec::new(); groups.len()];
        for ri in 0..right.len {
            if let Some(g) = groups.find(&right_key_cols, ri) {
                lists[g].push(row_id(ri));
            }
        }
        lists
    });

    let track_right = matches!(operator, JoinOperator::RightOuter | JoinOperator::FullOuter);
    let left_outer = matches!(operator, JoinOperator::LeftOuter | JoinOperator::FullOuter);
    let mut right_matched = vec![false; if track_right { right.len } else { 0 }];

    let mut out = Vec::with_capacity(left_batches.len() + 1);
    for batch in &left_batches {
        let left_key_cols = key_columns(batch, left_keys);
        let mut sink = JoinSink {
            lidx: Vec::new(),
            ridx: Vec::new(),
            left_matched: vec![false; batch.len],
            left_outer,
            right_matched: &mut right_matched,
        };
        let mut pending = PendingPairs::default();
        for lphys in batch.live_rows() {
            let candidates: &[u32] = match (groups.find(&left_key_cols, lphys), &left_lists) {
                (None, _) => &[],
                (Some(g), Some(lists)) => &lists[g],
                (Some(g), None) => groups.members(g),
            };
            let lp = row_id(lphys);
            for &ri in candidates {
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
        let unmatched: Vec<u32> = (0..right.len)
            .filter(|&ri| !right_matched[ri])
            .map(row_id)
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

/// The key columns `keys` of `batch`.
fn key_columns<'b>(batch: &'b Batch, keys: &[usize]) -> Vec<&'b ColumnVec> {
    keys.iter().map(|&k| batch.columns[k].as_ref()).collect()
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
        self.left_matched[ix(l)] = true;
        if let Some(matched) = self.right_matched.get_mut(ix(r)) {
            *matched = true;
        }
    }

    /// Close a left row once all its candidates are decided: a LEFT/FULL
    /// join pads an unmatched row with NULLs right after where its pairs
    /// would be.
    fn finish_row(&mut self, l: u32) {
        if self.left_outer && !self.left_matched[ix(l)] {
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

/// Columnar hash aggregation over the flattened input: group keys are
/// evaluated as whole columns and grouped by the hash kernel, so groups
/// come out first-seen and each group's members ascending. A group is the
/// input batch with its members as the selection; HAVING and the output
/// items evaluate per group against its first row, and each aggregate's
/// argument evaluates as a column over the group (see
/// [`EvalEnv::group`]).
fn columnar_hash_aggregate(
    input: &Batch,
    group_by: &[PhysExpr],
    having: Option<&PhysExpr>,
    items: &[PhysExpr],
    ctx: &RunCtx<'_>,
) -> StorageResult<Vec<Row>> {
    let keys = group_by
        .iter()
        .map(|e| e.eval_batch(input, ctx))
        .collect::<StorageResult<Vec<_>>>()?;
    let groups = Grouping::build(keys.iter().map(AsRef::as_ref).collect(), 0..input.len);
    // Aggregates over an empty input still produce one (empty) group.
    let global = (groups.len() == 0 && group_by.is_empty()).then_some(&[][..]);
    let mut out = Vec::with_capacity(groups.len());
    for members in (0..groups.len()).map(|g| groups.members(g)).chain(global) {
        let group = Batch {
            len: input.len,
            columns: input.columns.clone(),
            selection: Some(members.to_vec()),
        };
        let representative = match members.first() {
            Some(&first) => input.gather_row(ix(first)),
            None => vec![Value::Null; input.columns.len()],
        };
        let env = EvalEnv {
            ctx,
            row: &representative,
            group: Some(&group),
        };
        if let Some(having) = having {
            if !having.eval_truthy(&env)? {
                continue;
            }
        }
        out.push(
            items
                .iter()
                .map(|item| item.eval(&env))
                .collect::<StorageResult<Row>>()?,
        );
    }
    Ok(out)
}
