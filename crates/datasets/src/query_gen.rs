//! Workload (SQL log) generation.
//!
//! [`generate_workload`] produces the per-benchmark SQL logs BenchPress
//! ingests: executable queries over the generated database whose complexity
//! mix follows the benchmark profile (simple lookups for Spider-like
//! corpora, deep join + aggregation + subquery queries with domain-specific
//! filters for the Beaver-like corpus), each paired with a gold natural
//! language question and the difficulty descriptor used by the text-to-SQL
//! simulator.

use crate::profile::BenchmarkProfile;
use crate::vocab::DomainLexicon;
use bp_llm::WorkloadDifficulty;
use bp_sql::DataType;
use bp_storage::{Database, Table, Value};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One entry of a generated SQL log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Sequential id within the log.
    pub id: usize,
    /// The SQL query text (always executable against the generated database).
    pub sql: String,
    /// The gold natural-language question for the query.
    pub question: String,
    /// Difficulty descriptor consumed by the text-to-SQL simulator.
    pub difficulty: WorkloadDifficulty,
}

/// Generate `count` log entries for a database following the profile's
/// template mix. Deterministic for a given seed; every returned query has
/// been verified to execute against `db`.
pub fn generate_workload(
    db: &Database,
    profile: &BenchmarkProfile,
    lexicon: &DomainLexicon,
    count: usize,
    seed: u64,
) -> Vec<LogEntry> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let cumulative = profile.query_mix.cumulative();
    let mut entries = Vec::with_capacity(count);
    let mut id = 0;
    while entries.len() < count {
        let draw: f64 = rng.gen();
        let template = cumulative.iter().position(|c| draw <= *c).unwrap_or(0);
        let sql = match template {
            0 => simple_query(db, profile, &mut rng),
            1 => aggregate_query(db, profile, &mut rng),
            2 => join_query(db, profile, &mut rng),
            3 => nested_query(db, profile, &mut rng),
            _ => deep_enterprise_query(db, profile, &mut rng),
        };
        let Some(sql) = sql else { continue };
        // Only keep queries that parse and execute.
        let Ok(query) = bp_sql::parse_query(&sql) else {
            continue;
        };
        if db.execute(&query).is_err() {
            continue;
        }
        let question = bp_llm::describe_query(&query);
        let domain_terms = lexicon.terms_in(&sql).len();
        entries.push(LogEntry {
            id,
            sql,
            question,
            difficulty: WorkloadDifficulty {
                schema_ambiguity: profile.schema_ambiguity,
                domain_terms,
            },
        });
        id += 1;
    }
    entries
}

// ---------------------------------------------------------------------
// Column/value pickers
// ---------------------------------------------------------------------

fn random_table<'a>(db: &'a Database, rng: &mut ChaCha8Rng) -> &'a Table {
    let tables: Vec<&Table> = db.tables().collect();
    tables[rng.gen_range(0..tables.len())]
}

fn columns_of_type(table: &Table, data_type: DataType, include_keys: bool) -> Vec<String> {
    table
        .schema
        .columns
        .iter()
        .filter(|c| c.data_type == data_type && (include_keys || !c.primary_key))
        .map(|c| c.name.clone())
        .collect()
}

fn non_key_columns(table: &Table) -> Vec<String> {
    table
        .schema
        .columns
        .iter()
        .filter(|c| !c.primary_key)
        .map(|c| c.name.clone())
        .collect()
}

fn primary_key(table: &Table) -> Option<String> {
    table
        .schema
        .columns
        .iter()
        .find(|c| c.primary_key)
        .map(|c| c.name.clone())
}

/// Sample a non-null value of a column from the table's actual rows, so
/// generated filters are guaranteed to reference real data.
fn sample_value(table: &Table, column: &str, rng: &mut ChaCha8Rng) -> Option<Value> {
    let values = table.column_values(column)?;
    let non_null: Vec<&&Value> = values.iter().filter(|v| !v.is_null()).collect();
    if non_null.is_empty() {
        return None;
    }
    Some((*non_null[rng.gen_range(0..non_null.len())]).clone())
}

fn literal(value: &Value) -> String {
    match value {
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Date(d) => d.to_string(),
        Value::Timestamp(t) => t.to_string(),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        other => other.to_string(),
    }
}

fn text_filter(table: &Table, rng: &mut ChaCha8Rng) -> Option<String> {
    let columns = columns_of_type(table, DataType::Text, false);
    if columns.is_empty() {
        return None;
    }
    let column = &columns[rng.gen_range(0..columns.len())];
    let value = sample_value(table, column, rng)?;
    if rng.gen_bool(0.2) {
        if let Value::Text(text) = &value {
            let prefix: String = text.chars().take(1).collect();
            if !prefix.is_empty() {
                return Some(format!("{column} LIKE '{prefix}%'"));
            }
        }
    }
    Some(format!("{column} = {}", literal(&value)))
}

fn numeric_filter(table: &Table, rng: &mut ChaCha8Rng) -> Option<String> {
    let mut columns = columns_of_type(table, DataType::Integer, false);
    columns.extend(columns_of_type(table, DataType::Float, false));
    if columns.is_empty() {
        return None;
    }
    let column = &columns[rng.gen_range(0..columns.len())];
    let value = sample_value(table, column, rng)?;
    let operator = ["<", "<=", ">", ">="][rng.gen_range(0..4usize)];
    Some(format!("{column} {operator} {}", literal(&value)))
}

fn any_filter(table: &Table, rng: &mut ChaCha8Rng) -> Option<String> {
    if rng.gen_bool(0.6) {
        text_filter(table, rng).or_else(|| numeric_filter(table, rng))
    } else {
        numeric_filter(table, rng).or_else(|| text_filter(table, rng))
    }
}

fn aggregate_call(table: &Table, rng: &mut ChaCha8Rng) -> String {
    let mut numeric = columns_of_type(table, DataType::Integer, false);
    numeric.extend(columns_of_type(table, DataType::Float, false));
    if numeric.is_empty() || rng.gen_bool(0.4) {
        return "COUNT(*)".to_string();
    }
    let column = &numeric[rng.gen_range(0..numeric.len())];
    let function = ["SUM", "AVG", "MAX", "MIN", "COUNT"][rng.gen_range(0..5usize)];
    if function == "COUNT" && rng.gen_bool(0.5) {
        format!("COUNT(DISTINCT {column})")
    } else {
        format!("{function}({column})")
    }
}

/// A (child, fk column, parent, parent pk) relationship usable for joins.
fn foreign_key_pair<'a>(
    db: &'a Database,
    rng: &mut ChaCha8Rng,
) -> Option<(&'a Table, String, &'a Table, String)> {
    let mut pairs = foreign_key_pairs(db);
    if pairs.is_empty() {
        return None;
    }
    let (child, fk, parent, pk) = pairs.swap_remove(rng.gen_range(0..pairs.len()));
    Some((child, fk, parent, pk))
}

/// Every (child, fk column, parent, parent pk) edge of the schema's
/// foreign-key graph, in catalog order.
fn foreign_key_pairs(db: &Database) -> Vec<(&Table, String, &Table, String)> {
    let mut pairs = Vec::new();
    for table in db.tables() {
        for column in &table.schema.columns {
            if let Some((parent_name, parent_column)) = &column.references {
                if let Some(parent) = db.table(parent_name) {
                    pairs.push((table, column.name.clone(), parent, parent_column.clone()));
                }
            }
        }
    }
    pairs
}

// ---------------------------------------------------------------------
// Query templates
// ---------------------------------------------------------------------

fn simple_query(
    db: &Database,
    _profile: &BenchmarkProfile,
    rng: &mut ChaCha8Rng,
) -> Option<String> {
    let table = random_table(db, rng);
    let columns = non_key_columns(table);
    if columns.is_empty() {
        return None;
    }
    let how_many = rng.gen_range(1..=columns.len().min(3));
    let projection: Vec<String> = (0..how_many)
        .map(|i| columns[(i * 7 + rng.gen_range(0..columns.len())) % columns.len()].clone())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let filter = any_filter(table, rng);
    let mut sql = format!(
        "SELECT {} FROM {}",
        projection.join(", "),
        table.schema.name
    );
    if let Some(filter) = filter {
        sql.push_str(&format!(" WHERE {filter}"));
    }
    if rng.gen_bool(0.25) {
        sql.push_str(&format!(" ORDER BY {}", projection[0]));
        if rng.gen_bool(0.5) {
            sql.push_str(" DESC");
        }
    }
    Some(sql)
}

fn aggregate_query(
    db: &Database,
    _profile: &BenchmarkProfile,
    rng: &mut ChaCha8Rng,
) -> Option<String> {
    let table = random_table(db, rng);
    let group_columns = columns_of_type(table, DataType::Text, false);
    let aggregate = aggregate_call(table, rng);
    let mut sql = if group_columns.is_empty() || rng.gen_bool(0.3) {
        format!("SELECT {aggregate} FROM {}", table.schema.name)
    } else {
        let group = &group_columns[rng.gen_range(0..group_columns.len())];
        format!(
            "SELECT {group}, {aggregate} FROM {} GROUP BY {group}",
            table.schema.name
        )
    };
    if let Some(filter) = any_filter(table, rng) {
        if rng.gen_bool(0.6) {
            // Insert WHERE before GROUP BY if present.
            if let Some(position) = sql.find(" GROUP BY ") {
                sql.insert_str(position, &format!(" WHERE {filter}"));
            } else {
                sql.push_str(&format!(" WHERE {filter}"));
            }
        }
    }
    if sql.contains("GROUP BY") && rng.gen_bool(0.45) {
        sql.push_str(" HAVING COUNT(*) > 1");
    }
    if sql.contains("GROUP BY") && rng.gen_bool(0.5) {
        sql.push_str(" ORDER BY 2 DESC");
        if rng.gen_bool(0.5) {
            sql.push_str(&format!(" LIMIT {}", rng.gen_range(1..=10)));
        }
    }
    Some(sql)
}

fn join_query(db: &Database, _profile: &BenchmarkProfile, rng: &mut ChaCha8Rng) -> Option<String> {
    // Multi-table equi-join shapes (3–5 tables, chain or star topology)
    // exercise the optimizer's join reordering; the FK data they follow is
    // deliberately skewed (see `schema_gen::populate`), so syntactic join
    // order is frequently the wrong one.
    if rng.gen_bool(0.4) {
        let multi = if rng.gen_bool(0.5) {
            join_chain_query(db, rng)
        } else {
            join_star_query(db, rng)
        };
        if let Some(sql) = multi {
            return Some(sql);
        }
    }
    let (child, fk, parent, pk) = foreign_key_pair(db, rng)?;
    let child_columns = non_key_columns(child);
    let parent_columns = non_key_columns(parent);
    if child_columns.is_empty() || parent_columns.is_empty() {
        return None;
    }
    let child_column = &child_columns[rng.gen_range(0..child_columns.len())];
    let parent_column = &parent_columns[rng.gen_range(0..parent_columns.len())];
    let mut sql = format!(
        "SELECT c.{child_column}, p.{parent_column} FROM {} c JOIN {} p ON c.{fk} = p.{pk}",
        child.schema.name, parent.schema.name
    );
    if let Some(filter) = text_filter(parent, rng).or_else(|| any_filter(child, rng)) {
        // Qualify the filter column with the right alias.
        let qualified = if parent
            .schema
            .column(filter.split_whitespace().next().unwrap_or(""))
            .is_some()
        {
            format!("p.{filter}")
        } else {
            format!("c.{filter}")
        };
        sql.push_str(&format!(" WHERE {qualified}"));
    }
    Some(sql)
}

/// Chain topology: follow foreign-key edges child → parent → grandparent
/// for 3–5 tables, equi-joining every hop in syntactic (child-first) order.
/// The generated schemas reference strictly earlier tables, so a chain
/// never revisits a relation.
fn join_chain_query(db: &Database, rng: &mut ChaCha8Rng) -> Option<String> {
    let edges = foreign_key_pairs(db);
    if edges.is_empty() {
        return None;
    }
    let target = rng.gen_range(3..=5usize);
    let (mut current, fk, parent, pk) = edges[rng.gen_range(0..edges.len())].clone();
    let mut chain: Vec<(&Table, String, String)> = vec![(current, fk, pk)];
    let mut tables = vec![current, parent];
    current = parent;
    while tables.len() < target {
        let Some((_, fk, parent, pk)) = edges
            .iter()
            .find(|(child, ..)| child.schema.name == current.schema.name)
            .cloned()
        else {
            break;
        };
        chain.push((current, fk, pk));
        tables.push(parent);
        current = parent;
    }
    if tables.len() < 3 {
        return None;
    }
    let first_col = non_key_columns(tables[0]).first()?.clone();
    let last = tables.len() - 1;
    let last_col = primary_key(tables[last])?;
    let mut sql = format!(
        "SELECT t0.{first_col}, t{last}.{last_col} FROM {} t0",
        tables[0].schema.name
    );
    for (hop, (_, fk, pk)) in chain.iter().enumerate() {
        sql.push_str(&format!(
            " JOIN {} t{} ON t{}.{fk} = t{}.{pk}",
            tables[hop + 1].schema.name,
            hop + 1,
            hop,
            hop + 1,
        ));
    }
    if let Some(filter) = any_filter(tables[last], rng) {
        sql.push_str(&format!(" WHERE t{last}.{filter}"));
    }
    Some(sql)
}

/// Star topology: one parent (hub) equi-joined by 2–4 distinct child
/// tables through their foreign keys — the dimension-table shape. Joins
/// are spelled child-first so the hub sits in the middle of the syntactic
/// order, which only a cost-based reorder can fix.
fn join_star_query(db: &Database, rng: &mut ChaCha8Rng) -> Option<String> {
    // A spoke is (child table, fk column on the child, pk column on the hub).
    type Spoke<'a> = (&'a Table, String, String);
    let edges = foreign_key_pairs(db);
    // Group children by parent; need a hub with at least two children.
    let mut hubs: Vec<(&Table, Vec<Spoke>)> = Vec::new();
    for (child, fk, parent, pk) in &edges {
        match hubs
            .iter_mut()
            .find(|(hub, _)| hub.schema.name == parent.schema.name)
        {
            Some((_, spokes)) => spokes.push((child, fk.clone(), pk.clone())),
            None => hubs.push((parent, vec![(child, fk.clone(), pk.clone())])),
        }
    }
    hubs.retain(|(_, spokes)| spokes.len() >= 2);
    if hubs.is_empty() {
        return None;
    }
    let (hub, spokes) = &hubs[rng.gen_range(0..hubs.len())];
    let arms = spokes.len().min(rng.gen_range(2..=4usize));
    let first_col = non_key_columns(spokes[0].0).first()?.clone();
    let hub_pk = primary_key(hub)?;
    let mut sql = format!(
        "SELECT t0.{first_col}, hub.{hub_pk} FROM {} t0 JOIN {} hub ON t0.{} = hub.{}",
        spokes[0].0.schema.name, hub.schema.name, spokes[0].1, spokes[0].2,
    );
    for (i, (child, fk, pk)) in spokes.iter().take(arms).enumerate().skip(1) {
        sql.push_str(&format!(
            " JOIN {} t{i} ON t{i}.{fk} = hub.{pk}",
            child.schema.name
        ));
    }
    if let Some(filter) = any_filter(hub, rng) {
        sql.push_str(&format!(" WHERE hub.{filter}"));
    }
    Some(sql)
}

fn nested_query(db: &Database, profile: &BenchmarkProfile, rng: &mut ChaCha8Rng) -> Option<String> {
    if rng.gen_bool(0.5) {
        // Membership subquery over a foreign key.
        let (child, fk, parent, pk) = foreign_key_pair(db, rng)?;
        let parent_columns = non_key_columns(parent);
        if parent_columns.is_empty() {
            return None;
        }
        let projection = &parent_columns[rng.gen_range(0..parent_columns.len())];
        let inner_filter = any_filter(child, rng)?;
        Some(format!(
            "SELECT {projection} FROM {} WHERE {pk} IN (SELECT {fk} FROM {} WHERE {inner_filter})",
            parent.schema.name, child.schema.name
        ))
    } else {
        // Scalar comparison against an aggregate of the same table.
        let table = random_table(db, rng);
        let mut numeric = columns_of_type(table, DataType::Integer, false);
        numeric.extend(columns_of_type(table, DataType::Float, false));
        if numeric.is_empty() {
            return None;
        }
        let column = &numeric[rng.gen_range(0..numeric.len())];
        let projection = non_key_columns(table);
        let projected = &projection[rng.gen_range(0..projection.len())];
        let extra = text_filter(table, rng)
            .map(|f| format!(" AND {f}"))
            .filter(|_| rng.gen_bool(profile.query_mix.nested + 0.3))
            .unwrap_or_default();
        Some(format!(
            "SELECT {projected} FROM {t} WHERE {column} > (SELECT AVG({column}) FROM {t}){extra}",
            t = table.schema.name
        ))
    }
}

fn deep_enterprise_query(
    db: &Database,
    _profile: &BenchmarkProfile,
    rng: &mut ChaCha8Rng,
) -> Option<String> {
    let (child, fk, parent, pk) = foreign_key_pair(db, rng)?;
    let group_columns = columns_of_type(parent, DataType::Text, false);
    if group_columns.is_empty() {
        return None;
    }
    let group = &group_columns[rng.gen_range(0..group_columns.len())];
    let mut child_numeric = columns_of_type(child, DataType::Integer, false);
    child_numeric.extend(columns_of_type(child, DataType::Float, false));
    let agg2 = child_numeric
        .first()
        .map(|c| format!("MAX(c.{c})"))
        .unwrap_or_else(|| "COUNT(*)".to_string());
    let child_pk = primary_key(child).unwrap_or_else(|| fk.clone());
    let parent_filter = text_filter(parent, rng).map(|f| format!("p.{f}"));
    let child_scalar = child_numeric.first().map(|c| {
        format!(
            "c.{c} > (SELECT AVG({c}) FROM {child_table})",
            child_table = child.schema.name
        )
    });
    let mut conditions: Vec<String> = Vec::new();
    conditions.extend(parent_filter);
    conditions.extend(child_scalar);
    if let Some(extra) = text_filter(child, rng) {
        if rng.gen_bool(0.5) {
            conditions.push(format!("c.{extra}"));
        }
    }
    let where_clause = if conditions.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conditions.join(" AND "))
    };
    let mut sql = format!(
        "SELECT p.{group}, COUNT(DISTINCT c.{child_pk}), {agg2} FROM {child_table} c JOIN {parent_table} p ON c.{fk} = p.{pk}{where_clause} GROUP BY p.{group} HAVING COUNT(*) >= 1 ORDER BY 2 DESC",
        child_table = child.schema.name,
        parent_table = parent.schema.name,
    );
    if rng.gen_bool(0.6) {
        sql.push_str(&format!(" LIMIT {}", rng.gen_range(1..=5)));
    }
    // Occasionally wrap the whole thing in a CTE, matching the paper's
    // Figure 3 presentation of warehouse queries.
    if rng.gen_bool(0.35) {
        sql = format!(
            "WITH PerGroup AS ({sql}) SELECT COUNT(*), MAX({group}) FROM PerGroup",
            group = group
        );
    }
    Some(sql)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BenchmarkKind;
    use crate::schema_gen::{generate_database, lexicon_for};
    use bp_metrics::QueryComplexity;

    fn workload(kind: BenchmarkKind, count: usize, seed: u64) -> (Database, Vec<LogEntry>) {
        let profile = kind.profile();
        let db = generate_database(&profile, seed);
        let lexicon = lexicon_for(kind);
        let entries = generate_workload(&db, &profile, &lexicon, count, seed);
        (db, entries)
    }

    #[test]
    fn generates_requested_number_of_executable_queries() {
        let (db, entries) = workload(BenchmarkKind::Spider, 25, 1);
        assert_eq!(entries.len(), 25);
        for entry in &entries {
            let query = bp_sql::parse_query(&entry.sql).expect("parses");
            db.execute(&query).expect("executes");
            assert!(!entry.question.is_empty());
        }
    }

    #[test]
    fn workload_generation_is_deterministic() {
        let (_, a) = workload(BenchmarkKind::Bird, 10, 7);
        let (_, b) = workload(BenchmarkKind::Bird, 10, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn beaver_workload_is_more_complex_than_spider() {
        let (_, spider) = workload(BenchmarkKind::Spider, 30, 3);
        let (_, beaver) = workload(BenchmarkKind::Beaver, 30, 3);
        let complexity = |entries: &[LogEntry]| {
            let queries: Vec<_> = entries
                .iter()
                .map(|e| bp_sql::parse_query(&e.sql).unwrap())
                .collect();
            QueryComplexity::from_queries("w", &queries)
        };
        let spider_complexity = complexity(&spider);
        let beaver_complexity = complexity(&beaver);
        assert!(beaver_complexity.tokens > spider_complexity.tokens * 1.5);
        assert!(beaver_complexity.aggregations > spider_complexity.aggregations);
        assert!(beaver_complexity.tables > spider_complexity.tables);
        assert!(beaver_complexity.nestings > spider_complexity.nestings);
    }

    /// `bp_sql::analyze` reads only the AST, so it must not matter whether
    /// a query was parsed from the generator's text or from its canonical
    /// rendering. The rendering must also tokenize (Table 1 counts its
    /// tokens) and be a fixed point of parse-then-render (a successful
    /// prediction emits it as its SQL).
    #[test]
    fn canonical_rendering_preserves_structural_analysis() {
        for kind in BenchmarkKind::all() {
            for seed in [2026, 31337] {
                let (_, entries) = workload(*kind, 40, seed);
                for entry in &entries {
                    let original = bp_sql::parse_query(&entry.sql).expect("parses");
                    let rendered = original.to_string();
                    bp_sql::tokenize(&rendered).expect("canonical rendering tokenizes");
                    let reparsed = bp_sql::parse_query(&rendered).expect("rendering re-parses");
                    assert_eq!(
                        bp_sql::analyze(&reparsed),
                        bp_sql::analyze(&original),
                        "{kind:?} seed {seed}: {}",
                        entry.sql
                    );
                    assert_eq!(reparsed.to_string(), rendered);
                }
            }
        }
    }

    #[test]
    fn workloads_contain_multi_table_join_chains_counted_in_complexity() {
        let (db, entries) = workload(BenchmarkKind::Bird, 60, 11);
        let multi_join: Vec<_> = entries
            .iter()
            .filter(|e| {
                let query = bp_sql::parse_query(&e.sql).expect("parses");
                bp_sql::analyze(&query).tables.len() >= 3
            })
            .collect();
        assert!(
            !multi_join.is_empty(),
            "expected 3+-table join chains in a 60-query workload"
        );
        // The chain/star shapes must execute on the generated data and
        // register in the Table 1/2 complexity metric exactly like the
        // hand-written templates do.
        for entry in &multi_join {
            let query = bp_sql::parse_query(&entry.sql).unwrap();
            db.execute(&query).expect("multi-join executes");
        }
        let queries: Vec<_> = entries
            .iter()
            .map(|e| bp_sql::parse_query(&e.sql).unwrap())
            .collect();
        let complexity = QueryComplexity::from_queries("w", &queries);
        assert!(
            complexity.tables > 1.0,
            "join shapes should lift the mean table count above single-table, got {}",
            complexity.tables
        );
    }

    #[test]
    fn beaver_queries_carry_domain_terms_and_ambiguity() {
        let (_, entries) = workload(BenchmarkKind::Beaver, 30, 5);
        let with_domain_terms = entries
            .iter()
            .filter(|e| e.difficulty.domain_terms > 0)
            .count();
        assert!(
            with_domain_terms >= 5,
            "expected domain terms in the Beaver workload, got {with_domain_terms}/30"
        );
        assert!(entries.iter().all(|e| e.difficulty.schema_ambiguity > 0.5));
    }

    #[test]
    fn spider_queries_have_no_domain_terms() {
        let (_, entries) = workload(BenchmarkKind::Spider, 20, 5);
        assert!(entries.iter().all(|e| e.difficulty.domain_terms == 0));
    }

    #[test]
    fn questions_describe_their_queries() {
        let (_, entries) = workload(BenchmarkKind::Bird, 10, 11);
        for entry in &entries {
            let report = bp_metrics::coverage_sql(&entry.sql, &entry.question).unwrap();
            assert!(
                report.score() > 0.6,
                "gold question should describe its query well: {} -> {} (score {})",
                entry.sql,
                entry.question,
                report.score()
            );
        }
    }

    #[test]
    fn ids_are_sequential() {
        let (_, entries) = workload(BenchmarkKind::Fiben, 12, 2);
        for (index, entry) in entries.iter().enumerate() {
            assert_eq!(entry.id, index);
        }
    }
}
