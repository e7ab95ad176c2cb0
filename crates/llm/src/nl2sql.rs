//! NL-to-SQL backtranslation (the "vanilla LLM" of the paper's §5.2
//! backtranslation study and the planned text-to-SQL validation loop).
//!
//! The backtranslator regenerates SQL *solely from the natural-language
//! description and the schema*: tables are selected by lexical overlap with
//! the description, aggregates come from phrasing cues ("number of",
//! "average", "highest"), filters come from quoted literals and comparison
//! phrases, grouping from "for each"/"per", ordering and limits from
//! "sorted"/"top". Its output quality therefore depends directly on how much
//! SQL-relevant information the description preserves — which is precisely
//! what the paper's Figure 4 uses backtranslation to measure. No gold query
//! is consulted.
//!
//! [`Backtranslator::new`] splits every table and column name of the
//! catalog into lowercase parts once, into a schema lexicon that stores
//! each distinct part once with its common-word flag. A
//! [`Backtranslator::backtranslate`] call then tokenizes the description
//! and answers each distinct part against that token set at most once,
//! with a few ordered-set lookups whose count does not depend on the
//! description's length. Scoring every table reads those answers, so a
//! call costs one pass over the lexicon's part references plus the
//! description's own phrase scans.

use crate::model::ModelProfile;
use bp_embed::tokenize;
use bp_sql::DataType;
use bp_storage::{Catalog, TableSchema};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// An aggregate inferred from description phrasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum InferredAggregate {
    Count,
    Sum,
    Avg,
    Max,
    Min,
}

impl InferredAggregate {
    fn sql_name(&self) -> &'static str {
        match self {
            InferredAggregate::Count => "COUNT",
            InferredAggregate::Sum => "SUM",
            InferredAggregate::Avg => "AVG",
            InferredAggregate::Max => "MAX",
            InferredAggregate::Min => "MIN",
        }
    }
}

/// The backtranslator: schema-grounded, deterministic reconstruction of SQL
/// from a natural-language description.
#[derive(Debug, Clone)]
pub struct Backtranslator<'a> {
    lexicon: Lexicon<'a>,
    profile: ModelProfile,
}

impl<'a> Backtranslator<'a> {
    /// Create a backtranslator over a schema catalog using the given model
    /// profile (the paper uses a vanilla, un-tuned model here). Splits the
    /// catalog's names into the schema lexicon every call reads.
    pub fn new(catalog: &'a Catalog, profile: ModelProfile) -> Self {
        Backtranslator {
            lexicon: Lexicon::new(catalog),
            profile,
        }
    }

    /// Regenerate SQL from a description. Always returns *some* SQL text;
    /// whether it parses/executes/matches is what the rubric grades.
    pub fn backtranslate(&self, description: &str) -> String {
        let mentions = self.lexicon.mentions(tokenize(description));
        let lower = description.to_lowercase();

        // 1. Table selection by lexical overlap.
        let mut scored_tables: Vec<(f64, &LexTable<'a>)> = self
            .lexicon
            .tables
            .iter()
            .map(|t| (mentions.table_score(t), t))
            .filter(|(score, _)| *score > 0.0)
            .collect();
        scored_tables
            .sort_by(|(a, ta), (b, tb)| b.total_cmp(a).then(ta.schema.name.cmp(&tb.schema.name)));
        if scored_tables.is_empty() {
            // Nothing recognizable: emit a degenerate query (level 1-2 outcome).
            return "SELECT 1".to_string();
        }
        let primary = scored_tables[0].1;
        // Include a second table only when its *name* (not just a column) is
        // clearly mentioned and a join key exists.
        let secondary = scored_tables.iter().skip(1).map(|(_, t)| *t).find(|t| {
            mentions.any(&t.parts, &[]) && join_condition(primary.schema, t.schema).is_some()
        });

        // 2. Aggregates and distinct.
        let aggregate = infer_aggregate(&lower);
        let distinct =
            lower.contains("distinct") || lower.contains("unique ") || lower.contains("different ");

        // 3. Columns mentioned, per table.
        let mentioned_primary = mentioned_columns(primary, &mentions);
        let mentioned_secondary = secondary
            .map(|t| mentioned_columns(t, &mentions))
            .unwrap_or_default();

        // 4. Grouping.
        let group_column = self.lexicon.infer_group_column(&lower, primary, secondary);

        // 5. Filters.
        let mut filters =
            self.lexicon
                .infer_literal_filters(description, &lower, primary, secondary);
        filters.extend(self.lexicon.infer_numeric_filters(&lower, primary));

        // 6. Ordering and limit.
        let wants_order = lower.contains("sorted")
            || lower.contains("order")
            || lower.contains("descending")
            || lower.contains("ascending")
            || lower.contains(" top ")
            || lower.contains("highest")
            || lower.contains("most ");
        let descending = !lower.contains("ascending");
        let limit = infer_limit(&lower);

        // 7. Assemble the projection.
        let mut projection: Vec<String> = Vec::new();
        if let Some(group_column) = &group_column {
            projection.push(group_column.clone());
        }
        if let Some(aggregate) = aggregate {
            let argument = aggregate_argument(
                aggregate,
                distinct,
                &mentioned_primary,
                &mentioned_secondary,
                group_column.as_deref(),
                primary.schema,
            );
            projection.push(argument);
        }
        // When aggregating, the grouping key and the aggregate cover the
        // output; only non-aggregate queries project other mentioned columns.
        if aggregate.is_none() {
            for column in &mentioned_primary {
                if projection.len() >= 4 {
                    break;
                }
                if Some(column.as_str()) != group_column.as_deref()
                    && !projection.iter().any(|p| p.contains(column))
                {
                    projection.push(column.clone());
                }
            }
        }
        if projection.is_empty() {
            projection.push("*".to_string());
        }

        // 8. Vanilla-model imperfection: a weak backtranslator occasionally
        // drops the WHERE clause it found. Deterministic per description.
        let drop_filters = self.profile.sql_skill < 0.7 && {
            let h = crate::sql2nl::stable_hash(description);
            (h % 100) as f64 / 100.0 > self.profile.sql_skill
        };

        // 9. Assemble the SQL text.
        let (primary, secondary) = (primary.schema, secondary.map(|t| t.schema));
        let mut sql = format!("SELECT {}", projection.join(", "));
        sql.push_str(&format!(" FROM {}", primary.name));
        if let Some(secondary) = secondary {
            if let Some((left, right)) = join_condition(primary, secondary) {
                sql.push_str(&format!(
                    " JOIN {} ON {}.{} = {}.{}",
                    secondary.name, primary.name, left, secondary.name, right
                ));
            }
        }
        if !filters.is_empty() && !drop_filters {
            sql.push_str(&format!(" WHERE {}", filters.join(" AND ")));
        }
        if let Some(group_column) = &group_column {
            sql.push_str(&format!(" GROUP BY {group_column}"));
        }
        if wants_order {
            let key = if aggregate.is_some() {
                "2".to_string()
            } else {
                projection[0].clone()
            };
            // Only order by ordinal 2 if there are at least 2 projected columns.
            let key = if key == "2" && projection.len() < 2 {
                projection[0].clone()
            } else {
                key
            };
            if key != "*" {
                sql.push_str(&format!(
                    " ORDER BY {key}{}",
                    if descending { " DESC" } else { "" }
                ));
            }
        }
        if let Some(limit) = limit {
            sql.push_str(&format!(" LIMIT {limit}"));
        }
        sql
    }
}

/// Index of a distinct name part in [`Lexicon::parts`].
type PartId = usize;

/// One distinct lowercase name part of a catalog.
#[derive(Debug, Clone)]
struct Part {
    text: String,
    /// [`is_common_word`] of `text`.
    common: bool,
}

/// A table's names, split into lexicon parts.
#[derive(Debug, Clone)]
struct LexTable<'a> {
    schema: &'a TableSchema,
    /// The table name under Unicode `to_lowercase`.
    full_name: PartId,
    /// `tokenize(name)` of the table, in order.
    parts: Vec<PartId>,
    /// `tokenize(name)` of each column, in column order.
    columns: Vec<Vec<PartId>>,
}

/// The schema lexicon: every table and column name of a catalog split into
/// lowercase parts once, each distinct part stored once.
#[derive(Debug, Clone)]
struct Lexicon<'a> {
    parts: Vec<Part>,
    /// One entry per table, in catalog order.
    tables: Vec<LexTable<'a>>,
}

impl<'a> Lexicon<'a> {
    fn new(catalog: &'a Catalog) -> Self {
        let mut parts: Vec<Part> = Vec::new();
        let mut ids: BTreeMap<String, PartId> = BTreeMap::new();
        let mut intern = |text: String| {
            *ids.entry(text).or_insert_with_key(|text| {
                parts.push(Part {
                    text: text.clone(),
                    common: is_common_word(text),
                });
                parts.len() - 1
            })
        };
        let mut tables = Vec::new();
        for schema in catalog.tables() {
            let full_name = intern(schema.name.to_lowercase());
            let mut split = |name: &str| -> Vec<PartId> {
                tokenize(name).into_iter().map(&mut intern).collect()
            };
            tables.push(LexTable {
                schema,
                full_name,
                parts: split(&schema.name),
                columns: schema.columns.iter().map(|c| split(&c.name)).collect(),
            });
        }
        Lexicon { parts, tables }
    }

    /// The parts that `tokens` mention.
    fn mentions(&self, tokens: Vec<String>) -> Mentions<'_> {
        Mentions {
            parts: &self.parts,
            tokens: tokens.into_iter().collect(),
            memo: vec![Cell::new(None); self.parts.len()],
        }
    }
}

/// Which lexicon parts one token set contains, each part answered at most
/// once.
struct Mentions<'l> {
    parts: &'l [Part],
    tokens: BTreeSet<String>,
    memo: Vec<Cell<Option<bool>>>,
}

impl Mentions<'_> {
    fn contains(&self, part: PartId) -> bool {
        let cell = &self.memo[part];
        cell.get().unwrap_or_else(|| {
            let hit = tokens_contains(&self.tokens, &self.parts[part].text);
            cell.set(Some(hit));
            hit
        })
    }

    /// Whether any of `parts` longer than two bytes and not in `generic` is
    /// mentioned.
    fn any(&self, parts: &[PartId], generic: &[&str]) -> bool {
        parts.iter().any(|&part| {
            let text = self.parts[part].text.as_str();
            text.len() > 2 && !generic.contains(&text) && self.contains(part)
        })
    }

    /// Lexical evidence that the tokens are about `table`. The weights are
    /// added in a fixed order, so equal evidence gives bit-equal scores.
    fn table_score(&self, table: &LexTable<'_>) -> f64 {
        let mut score = 0.0;
        // Exact full-name mention (e.g. "students", "moira_list") is the
        // strongest possible signal.
        if self.contains(table.full_name) && !self.parts[table.full_name].common {
            score += 3.0;
        }
        for &part in &table.parts {
            let Part { text, common } = &self.parts[part];
            if part == table.full_name || text.len() <= 2 {
                continue;
            }
            if self.contains(part) {
                score += if *common { 0.25 } else { 1.0 };
            }
        }
        for &part in table.columns.iter().flatten() {
            let Part { text, common } = &self.parts[part];
            if text.len() > 2 && self.contains(part) {
                score += if *common { 0.1 } else { 0.5 };
            }
        }
        score
    }
}

/// Words that appear both in ordinary English and in schema identifiers
/// ("list", "name", ...); they carry much less evidence for table selection.
fn is_common_word(word: &str) -> bool {
    matches!(
        word,
        "list"
            | "name"
            | "data"
            | "type"
            | "key"
            | "code"
            | "status"
            | "date"
            | "value"
            | "number"
            | "id"
            | "all"
            | "record"
            | "records"
            | "table"
            | "info"
    )
}

/// Whether `tokens` holds some `t` that matches `part` with light
/// plural/prefix slack, so "students" matches the `student` part: `t` equals
/// `part`, `part + "s"` or `part` minus a trailing `s`, or both are at least
/// 4 bytes long and one starts with the other. Allocates nothing, and the
/// number of lookups depends on `part` only, not on the size of `tokens`.
fn tokens_contains(tokens: &BTreeSet<String>, part: &str) -> bool {
    if tokens.contains(part) {
        return true;
    }
    // The tokens that start with `part` sort right after it.
    let mut longer = tokens
        .range::<str, _>((Bound::Excluded(part), Bound::Unbounded))
        .take_while(|t| t.starts_with(part));
    if longer.any(|t| part.len() >= 4 || (t.len() == part.len() + 1 && t.ends_with('s'))) {
        return true;
    }
    if part
        .strip_suffix('s')
        .is_some_and(|stem| tokens.contains(stem))
    {
        return true;
    }
    // The tokens that `part` starts with are its char-boundary prefixes.
    (4..part.len()).any(|end| part.is_char_boundary(end) && tokens.contains(&part[..end]))
}

fn mentioned_columns(table: &LexTable<'_>, mentions: &Mentions<'_>) -> Vec<String> {
    let generic = ["id", "key", "code", "num", "no"];
    table
        .schema
        .columns
        .iter()
        .zip(&table.columns)
        .filter(|(_, parts)| mentions.any(parts, &generic))
        .map(|(c, _)| c.name.clone())
        .collect()
}

fn infer_aggregate(lower: &str) -> Option<InferredAggregate> {
    if lower.contains("number of") || lower.contains("how many") || lower.contains("count") {
        Some(InferredAggregate::Count)
    } else if lower.contains("average") || lower.contains(" mean ") {
        Some(InferredAggregate::Avg)
    } else if lower.contains("total ") || lower.contains(" sum ") {
        Some(InferredAggregate::Sum)
    } else if lower.contains("highest") || lower.contains("maximum") || lower.contains("largest") {
        Some(InferredAggregate::Max)
    } else if lower.contains("lowest")
        || lower.contains("minimum")
        || lower.contains("fewest")
        || lower.contains("smallest")
    {
        Some(InferredAggregate::Min)
    } else {
        None
    }
}

fn aggregate_argument(
    aggregate: InferredAggregate,
    distinct: bool,
    primary_columns: &[String],
    secondary_columns: &[String],
    group_column: Option<&str>,
    primary: &TableSchema,
) -> String {
    let distinct_prefix = if distinct { "DISTINCT " } else { "" };
    // Prefer a mentioned column that is not the grouping column; numeric
    // aggregates prefer numeric columns.
    let numeric_needed = !matches!(aggregate, InferredAggregate::Count);
    let candidate = secondary_columns
        .iter()
        .chain(primary_columns.iter())
        .find(|c| {
            Some(c.as_str()) != group_column
                && (!numeric_needed
                    || primary
                        .column(c)
                        .map(|col| matches!(col.data_type, DataType::Integer | DataType::Float))
                        .unwrap_or(true))
        })
        .cloned();
    match (aggregate, candidate) {
        (InferredAggregate::Count, None) => "COUNT(*)".to_string(),
        (agg, Some(column)) => format!("{}({distinct_prefix}{column})", agg.sql_name()),
        (agg, None) => {
            // Fall back to the first numeric column of the primary table.
            let column = primary
                .columns
                .iter()
                .find(|c| matches!(c.data_type, DataType::Integer | DataType::Float))
                .map(|c| c.name.clone())
                .unwrap_or_else(|| "*".to_string());
            format!("{}({distinct_prefix}{column})", agg.sql_name())
        }
    }
}

impl Lexicon<'_> {
    fn infer_group_column(
        &self,
        lower: &str,
        primary: &LexTable<'_>,
        secondary: Option<&LexTable<'_>>,
    ) -> Option<String> {
        let cue_positions: Vec<usize> = ["for each ", "per ", "for every ", "by each "]
            .iter()
            .filter_map(|cue| lower.find(cue).map(|p| p + cue.len()))
            .collect();
        let position = cue_positions.into_iter().min()?;
        // The grouping key is the phrase immediately after the cue, up to the
        // next clause boundary ("for each dept, report ..." → "dept").
        let tail: String = lower[position..]
            .chars()
            .take_while(|c| *c != ',' && *c != '.' && *c != ';')
            .take(40)
            .collect();
        let tail_mentions = self.mentions(tokenize(&tail));
        let candidates = |table: &LexTable<'_>| -> Option<String> {
            table
                .schema
                .columns
                .iter()
                .zip(&table.columns)
                .find(|(_, parts)| tail_mentions.any(parts, &["id", "key", "code"]))
                .map(|(c, _)| c.name.clone())
        };
        candidates(primary).or_else(|| secondary.and_then(candidates))
    }

    fn infer_literal_filters(
        &self,
        description: &str,
        lower: &str,
        primary: &LexTable<'_>,
        secondary: Option<&LexTable<'_>>,
    ) -> Vec<String> {
        let mut filters = Vec::new();
        for literal in quoted_literals(description) {
            if literal.is_empty() {
                continue;
            }
            // Find the text column whose name parts appear closest before the literal.
            let literal_position = lower
                .find(&format!("'{}'", literal.to_lowercase()))
                .unwrap_or(0);
            let window: String = lower[..literal_position]
                .chars()
                .rev()
                .take(70)
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            // Pick the text column mentioned *closest* to the literal ("rows
            // where dept is 'EECS'" should bind to dept, not to an earlier
            // mention of name).
            let pick_column = |table: &LexTable<'_>| -> Option<String> {
                let mut best: Option<(usize, String)> = None;
                for (column, parts) in table.schema.columns.iter().zip(&table.columns) {
                    if column.data_type != DataType::Text {
                        continue;
                    }
                    let latest = parts
                        .iter()
                        .map(|&p| self.parts[p].text.as_str())
                        .filter(|p| p.len() > 2)
                        .filter_map(|p| window.rfind(p))
                        .max();
                    if let Some(position) = latest {
                        if best.as_ref().map(|(b, _)| position > *b).unwrap_or(true) {
                            best = Some((position, column.name.clone()));
                        }
                    }
                }
                best.map(|(_, name)| name)
            };
            let column = pick_column(primary)
                .or_else(|| secondary.and_then(pick_column))
                .or_else(|| {
                    primary
                        .schema
                        .columns
                        .iter()
                        .find(|c| c.data_type == DataType::Text)
                        .map(|c| c.name.clone())
                });
            let Some(column) = column else { continue };
            let starts_with_cue = lower[..literal_position].ends_with("starts with ")
                || window.trim_end().ends_with("starts with")
                || window.contains("starting with");
            if starts_with_cue {
                filters.push(format!("{column} LIKE '{literal}%'"));
            } else if window.contains("ends with") || window.contains("ending with") {
                filters.push(format!("{column} LIKE '%{literal}'"));
            } else {
                filters.push(format!("{column} = '{literal}'"));
            }
        }
        filters
    }

    fn infer_numeric_filters(&self, lower: &str, primary: &LexTable<'_>) -> Vec<String> {
        let mut filters = Vec::new();
        let comparisons = [
            ("greater than", ">"),
            ("more than", ">"),
            ("above", ">"),
            ("at least", ">="),
            ("less than", "<"),
            ("fewer than", "<"),
            ("below", "<"),
            ("at most", "<="),
        ];
        let numeric = || {
            primary
                .schema
                .columns
                .iter()
                .zip(&primary.columns)
                .filter(|(c, _)| matches!(c.data_type, DataType::Integer | DataType::Float))
        };
        for (phrase, operator) in comparisons {
            let mut search_from = 0usize;
            while let Some(found) = lower[search_from..].find(phrase) {
                let position = search_from + found + phrase.len();
                let tail: String = lower[position..].chars().take(20).collect();
                let number: String = tail
                    .chars()
                    .skip_while(|c| !c.is_ascii_digit())
                    .take_while(|c| c.is_ascii_digit() || *c == '.')
                    .collect::<String>()
                    .trim_end_matches('.')
                    .to_string();
                search_from = position;
                if number.is_empty() {
                    continue;
                }
                // Column: the numeric column whose name parts appear before the phrase.
                let head: String = lower[..search_from.saturating_sub(phrase.len())]
                    .chars()
                    .rev()
                    .take(60)
                    .collect::<String>()
                    .chars()
                    .rev()
                    .collect();
                let head_mentions = self.mentions(tokenize(&head));
                let column = numeric()
                    .find(|(_, parts)| head_mentions.any(parts, &[]))
                    .or_else(|| numeric().next());
                if let Some((column, _)) = column {
                    filters.push(format!("{} {} {}", column.name, operator, number));
                }
            }
        }
        filters
    }
}

fn quoted_literals(description: &str) -> Vec<String> {
    let mut literals = Vec::new();
    let mut rest = description;
    while let Some(start) = rest.find('\'') {
        let after = &rest[start + 1..];
        match after.find('\'') {
            Some(end) => {
                literals.push(after[..end].to_string());
                rest = &after[end + 1..];
            }
            None => break,
        }
    }
    literals
}

fn infer_limit(lower: &str) -> Option<usize> {
    if lower.contains("single top row") || lower.contains("only the single") {
        return Some(1);
    }
    if let Some(position) = lower.find("top ") {
        let tail: String = lower[position + 4..].chars().take(10).collect();
        let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(n) = digits.parse::<usize>() {
            return Some(n);
        }
        if tail.starts_with("row") || tail.starts_with("result") {
            return Some(1);
        }
    }
    if lower.contains("the most") && (lower.contains("which ") || lowest_single_cue(lower)) {
        return Some(1);
    }
    None
}

fn lowest_single_cue(lower: &str) -> bool {
    lower.contains("the one ") || lower.contains("single ")
}

fn join_condition(left: &TableSchema, right: &TableSchema) -> Option<(String, String)> {
    // Prefer declared foreign keys in either direction.
    for column in &left.columns {
        if let Some((table, target)) = &column.references {
            if table.eq_ignore_ascii_case(&right.name) {
                return Some((column.name.clone(), target.clone()));
            }
        }
    }
    for column in &right.columns {
        if let Some((table, target)) = &column.references {
            if table.eq_ignore_ascii_case(&left.name) {
                return Some((target.clone(), column.name.clone()));
            }
        }
    }
    // Otherwise, a shared column name (the enterprise "user_id everywhere" pattern).
    for lc in &left.columns {
        for rc in &right.columns {
            if lc.name.eq_ignore_ascii_case(&rc.name) && lc.name.to_lowercase().contains("id") {
                return Some((lc.name.clone(), rc.name.clone()));
            }
        }
    }
    // Finally, "<left-table-singular>_id" style keys.
    for rc in &right.columns {
        let lowered = rc.name.to_lowercase();
        if lowered.ends_with("_id") || lowered.ends_with("_key") {
            let stem = lowered.trim_end_matches("_id").trim_end_matches("_key");
            if left.name.to_lowercase().contains(stem) {
                if let Some(pk) = left.columns.iter().find(|c| c.primary_key) {
                    return Some((pk.name.clone(), rc.name.clone()));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use bp_storage::Column;

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog
            .add_table(TableSchema::new(
                "students",
                vec![
                    Column::new("id", DataType::Integer).primary_key(),
                    Column::new("name", DataType::Text),
                    Column::new("gpa", DataType::Float),
                    Column::new("dept", DataType::Text),
                ],
            ))
            .unwrap();
        catalog
            .add_table(TableSchema::new(
                "enrollments",
                vec![
                    Column::new("student_id", DataType::Integer).references("students", "id"),
                    Column::new("term", DataType::Text),
                    Column::new("course", DataType::Text),
                ],
            ))
            .unwrap();
        catalog
            .add_table(TableSchema::new(
                "moira_list",
                vec![
                    Column::new("moira_list_key", DataType::Integer).primary_key(),
                    Column::new("moira_list_name", DataType::Text),
                    Column::new("dept", DataType::Text),
                ],
            ))
            .unwrap();
        catalog
    }

    fn translator(catalog: &Catalog) -> Backtranslator<'_> {
        Backtranslator::new(catalog, ModelKind::Gpt4o.profile())
    }

    #[test]
    fn simple_count_round_trips() {
        let catalog = catalog();
        let sql = translator(&catalog).backtranslate("Report the number of students.");
        assert!(sql.to_uppercase().contains("COUNT"));
        assert!(sql.to_lowercase().contains("from students"));
        bp_sql::parse_query(&sql).expect("parses");
    }

    #[test]
    fn filter_literal_is_reconstructed() {
        let catalog = catalog();
        let sql = translator(&catalog).backtranslate(
            "List the name of students, considering only rows where dept is 'EECS'.",
        );
        assert!(sql.contains("dept = 'EECS'"), "got: {sql}");
        bp_sql::parse_query(&sql).expect("parses");
    }

    #[test]
    fn starts_with_becomes_like() {
        let catalog = catalog();
        let sql = translator(&catalog).backtranslate(
            "Report the number of distinct moira list name in the moira list records, considering only rows where moira list name starts with 'B'.",
        );
        assert!(sql.contains("LIKE 'B%'"), "got: {sql}");
        bp_sql::parse_query(&sql).expect("parses");
    }

    #[test]
    fn grouping_and_ordering_are_reconstructed() {
        let catalog = catalog();
        let sql = translator(&catalog).backtranslate(
            "For each dept, report the number of students, sorted by the count in descending order, returning only the top 3 rows.",
        );
        let upper = sql.to_uppercase();
        assert!(upper.contains("GROUP BY"), "got: {sql}");
        assert!(upper.contains("ORDER BY"), "got: {sql}");
        assert!(upper.contains("LIMIT 3"), "got: {sql}");
        bp_sql::parse_query(&sql).expect("parses");
    }

    #[test]
    fn numeric_comparison_reconstructed() {
        let catalog = catalog();
        let sql = translator(&catalog)
            .backtranslate("List the name of students whose gpa is greater than 3.5.");
        assert!(sql.contains("gpa > 3.5"), "got: {sql}");
    }

    #[test]
    fn join_reconstructed_when_both_tables_mentioned() {
        let catalog = catalog();
        let sql = translator(&catalog).backtranslate(
            "Report the number of enrollments by combining the students and enrollments records, considering only rows where term is 'J-term'.",
        );
        let upper = sql.to_uppercase();
        assert!(upper.contains("JOIN"), "got: {sql}");
        assert!(sql.contains("term = 'J-term'"), "got: {sql}");
        bp_sql::parse_query(&sql).expect("parses");
    }

    #[test]
    fn vague_description_misses_information() {
        let catalog = catalog();
        let sql = translator(&catalog).backtranslate("Show some data about students.");
        // The filter and aggregation information is simply not there, so the
        // reconstruction cannot contain it.
        assert!(!sql.to_uppercase().contains("WHERE"));
        bp_sql::parse_query(&sql).expect("parses");
    }

    #[test]
    fn unrelated_description_yields_degenerate_query() {
        let catalog = catalog();
        let sql = translator(&catalog).backtranslate("quarterly revenue of the sales pipeline");
        assert_eq!(sql, "SELECT 1");
    }

    #[test]
    fn backtranslation_is_deterministic() {
        let catalog = catalog();
        let t = translator(&catalog);
        let description = "For each dept, report the average gpa of students.";
        assert_eq!(t.backtranslate(description), t.backtranslate(description));
    }

    #[test]
    fn average_uses_numeric_column() {
        let catalog = catalog();
        let sql = translator(&catalog)
            .backtranslate("For each dept, report the average gpa in the students records.");
        assert!(
            sql.to_uppercase()
                .contains("AVG(gpa)".to_uppercase().as_str()),
            "got: {sql}"
        );
    }

    #[test]
    fn quoted_literals_extractor() {
        assert_eq!(
            quoted_literals("where dept is 'EECS' and name starts with 'B'"),
            vec!["EECS".to_string(), "B".to_string()]
        );
        assert!(quoted_literals("no literals here").is_empty());
    }

    #[test]
    fn weak_model_sometimes_drops_filters() {
        let catalog = catalog();
        let weak = Backtranslator::new(&catalog, ModelKind::Llama8B.profile());
        // Across many paraphrases, at least one reconstruction should lose its
        // WHERE clause due to the weak model's skill, and at least one keep it.
        let mut kept = 0;
        let mut dropped = 0;
        for i in 0..30 {
            let description = format!(
                "List the name of students number {i}, considering only rows where dept is 'EECS'."
            );
            let sql = weak.backtranslate(&description);
            if sql.to_uppercase().contains("WHERE") {
                kept += 1;
            } else {
                dropped += 1;
            }
        }
        assert!(kept > 0);
        assert!(dropped > 0);
    }

    #[test]
    fn weak_model_dropping_its_filter_keeps_the_limit() {
        let catalog = catalog();
        let weak = Backtranslator::new(&catalog, ModelKind::Llama8B.profile());
        let mut dropped = 0;
        for i in 0..40 {
            let description = format!(
                "Variant {i}: list the name and dept of students where dept is 'EECS', returning only the single result."
            );
            let sql = weak.backtranslate(&description);
            assert!(sql.ends_with(" LIMIT 1"), "got: {sql}");
            if !sql.contains(" WHERE ") {
                assert_eq!(sql, "SELECT name, dept FROM students LIMIT 1");
                dropped += 1;
            }
        }
        assert!(dropped > 0, "no variant exercised the dropped filter");
    }

    #[test]
    fn weak_model_drops_a_filter_whose_literal_looks_like_a_clause() {
        let catalog = catalog();
        let weak = Backtranslator::new(&catalog, ModelKind::Llama8B.profile());
        let mut dropped = 0;
        for i in 0..40 {
            let description = format!(
                "Variant {i}: list the name of students where dept is 'x GROUP BY y', sorted by name."
            );
            let sql = weak.backtranslate(&description);
            if !sql.contains(" WHERE ") {
                assert!(!sql.contains("GROUP BY"), "got: {sql}");
                assert!(sql.ends_with(" ORDER BY name DESC"), "got: {sql}");
                dropped += 1;
            }
        }
        assert!(dropped > 0, "no variant exercised the dropped filter");
    }

    /// The scorer as it was before the schema lexicon: every call
    /// re-tokenizes every name and scans every token. The lexicon scorer
    /// must match it bit for bit.
    mod reference {
        use super::super::is_common_word;
        use bp_embed::tokenize;
        use bp_storage::TableSchema;
        use std::collections::BTreeSet;

        fn name_parts(name: &str) -> Vec<String> {
            tokenize(name)
        }

        pub(super) fn tokens_contains(tokens: &BTreeSet<String>, part: &str) -> bool {
            if tokens.contains(part) {
                return true;
            }
            tokens.iter().any(|t| {
                (t.len() >= 4
                    && part.len() >= 4
                    && (t.starts_with(part) || part.starts_with(t.as_str())))
                    || *t == format!("{part}s")
                    || format!("{t}s") == part
            })
        }

        pub(super) fn table_score(table: &TableSchema, tokens: &BTreeSet<String>) -> f64 {
            let mut score = 0.0;
            let full_name = table.name.to_lowercase();
            if tokens_contains(tokens, &full_name) && !is_common_word(&full_name) {
                score += 3.0;
            }
            for part in name_parts(&table.name) {
                if part == full_name || part.len() <= 2 {
                    continue;
                }
                if tokens_contains(tokens, &part) {
                    score += if is_common_word(&part) { 0.25 } else { 1.0 };
                }
            }
            for column in &table.columns {
                for part in name_parts(&column.name) {
                    if part.len() > 2 && tokens_contains(tokens, &part) {
                        score += if is_common_word(&part) { 0.1 } else { 0.5 };
                    }
                }
            }
            score
        }
    }

    /// Every table's lexicon score equals the reference score bit for bit,
    /// and every lexicon part is matched exactly as the reference matches it.
    fn assert_scores_match(catalog: &Catalog, tokens: Vec<String>) {
        let lexicon = Lexicon::new(catalog);
        let set: BTreeSet<String> = tokens.iter().cloned().collect();
        let mentions = lexicon.mentions(tokens);
        for part in &lexicon.parts {
            assert_eq!(
                tokens_contains(&set, &part.text),
                reference::tokens_contains(&set, &part.text),
                "part {:?}, tokens {set:?}",
                part.text
            );
        }
        for table in &lexicon.tables {
            assert_eq!(
                mentions.table_score(table).to_bits(),
                reference::table_score(table.schema, &set).to_bits(),
                "table {:?}, tokens {set:?}",
                table.schema.name
            );
        }
    }

    /// Tokens that just hit or just miss `part` under the plural/prefix
    /// slack: byte prefixes of 2–5 bytes (cut back to a char boundary),
    /// `part` minus its last char, and `part` plus `s`, `ss` or `x`.
    fn near_misses(part: &str) -> Vec<String> {
        let prefix = |bytes: usize| {
            let mut end = bytes.min(part.len());
            while !part.is_char_boundary(end) {
                end -= 1;
            }
            part[..end].to_string()
        };
        let mut chars = part.chars();
        chars.next_back();
        let mut near = vec![prefix(2), prefix(3), prefix(4), prefix(5)];
        near.push(chars.as_str().to_string());
        near.extend(["s", "ss", "x"].map(|suffix| format!("{part}{suffix}")));
        near.retain(|t| !t.is_empty());
        near
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Generated schemas in every naming style the corpora use, plus
        /// short parts and names whose Unicode and ASCII lowercase differ,
        /// scored against token sets built from their own near-misses.
        #[test]
        fn lexicon_scores_match_reference_on_generated_schemas(
            names in proptest::collection::vec(
                prop_oneof![
                    "[a-z]{1,7}(_[a-z]{1,6}){0,3}",
                    "[a-z]{1,7}([A-Z][a-z]{1,5}){0,3}",
                    "[A-Z]{1,7}(_[A-Z]{1,6}){0,3}",
                    "[a-z]{1,2}(_[a-z]{1,2}){0,3}",
                    "[a-zéßİÉ]{1,5}(_[a-zéßİÉs]{1,5}){0,2}",
                    "(list|name|data|key|status|record|records|info)(_[a-z]{1,6}){0,2}",
                ],
                2..24,
            ),
            shape in proptest::collection::vec(0usize..4, 1..6),
            picks in proptest::collection::vec(0usize..1000, 0..24),
            words in proptest::collection::vec("[a-zéßs]{1,8}", 0..6),
        ) {
            // Carve the names into tables of 0-3 columns each.
            let mut catalog = Catalog::new();
            let mut names = names.into_iter();
            for columns in shape {
                let Some(table) = names.next() else { break };
                let columns = names
                    .by_ref()
                    .take(columns)
                    .map(|c| Column::new(c, DataType::Text))
                    .collect();
                // A duplicate (case-insensitive) table name is simply skipped.
                let _ = catalog.add_table(TableSchema::new(table, columns));
            }
            // Candidate tokens: every part, its near-misses, and the whole
            // lowercase table names.
            let mut candidates: Vec<String> = Vec::new();
            for table in catalog.tables() {
                candidates.push(table.name.to_lowercase());
                let columns = table.columns.iter().map(|c| &c.name);
                for part in std::iter::once(&table.name).chain(columns).flat_map(|n| tokenize(n)) {
                    candidates.extend(near_misses(&part));
                    candidates.push(part);
                }
            }
            let mut tokens: Vec<String> = picks
                .iter()
                .map(|&pick| candidates[pick % candidates.len()].clone())
                .collect();
            tokens.extend(words);
            assert_scores_match(&catalog, tokens);
        }
    }

    #[test]
    fn lexicon_scores_match_reference_on_non_ascii_names() {
        let mut catalog = Catalog::new();
        for (table, column) in [
            ("İstanbul_Straße", "straße_öl"),
            ("ÉCOLE_ÉLÈVES", "élèves_names"),
            ("naïveÉcole", "İİİİ"),
            ("students", "ss"),
        ] {
            catalog
                .add_table(TableSchema::new(
                    table,
                    vec![Column::new(column, DataType::Text)],
                ))
                .unwrap();
        }
        for text in [
            "İstanbul straße students student",
            "i̇stanbul_straße écoles élève élèves_name",
            "naïveécole naïv naïveÉcoles İİİ İİİİs",
            "stud studs s students_s",
        ] {
            assert_scores_match(&catalog, tokenize(text));
        }
    }

    #[test]
    fn lexicon_scores_match_reference_on_every_corpus() {
        use bp_datasets::{BenchmarkKind, GeneratedBenchmark};
        for kind in [
            BenchmarkKind::Spider,
            BenchmarkKind::Bird,
            BenchmarkKind::Fiben,
            BenchmarkKind::Beaver,
        ] {
            for seed in [7, 2026] {
                let bench = GeneratedBenchmark::generate(kind, 12, seed);
                let catalog = bench.database.catalog();
                for entry in &bench.log {
                    let query = bp_sql::parse_query(&entry.sql).expect("corpus SQL parses");
                    for description in [entry.question.clone(), crate::describe_query(&query)] {
                        assert_scores_match(catalog, tokenize(&description));
                    }
                }
            }
        }
    }
}
