//! Data profiling: the schema/data statistics reported in Table 2 of the
//! paper (columns per table, rows per table, tables per database, value
//! uniqueness, sparsity, and data-type diversity).

use crate::database::Database;
use crate::table::Table;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Profile of a single table's data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableProfile {
    /// Table name.
    pub name: String,
    /// Number of columns.
    pub column_count: usize,
    /// Number of rows.
    pub row_count: usize,
    /// Average over columns of (distinct non-null values / rows); 0 for an
    /// empty table. Lower uniqueness means more repeated values, which the
    /// paper marks as harder (more ambiguity).
    pub uniqueness: f64,
    /// Fraction of cells that are NULL.
    pub sparsity: f64,
    /// Number of distinct data types among the table's columns.
    pub data_type_count: usize,
}

/// Profile of a whole database (averages over its tables).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatabaseProfile {
    /// Database name.
    pub name: String,
    /// Number of tables in the database.
    pub table_count: usize,
    /// Mean number of columns per table.
    pub avg_columns_per_table: f64,
    /// Mean number of rows per table.
    pub avg_rows_per_table: f64,
    /// Mean per-table uniqueness.
    pub uniqueness: f64,
    /// Mean per-table sparsity (fraction of NULL cells).
    pub sparsity: f64,
    /// Number of distinct data types used across the whole database.
    pub data_type_count: usize,
    /// Per-table profiles.
    pub tables: Vec<TableProfile>,
}

/// Profile a single table.
pub fn profile_table(table: &Table) -> TableProfile {
    let column_count = table.schema.column_count();
    let row_count = table.row_count();
    // The cached per-version statistics count NULLs and distinct non-NULL
    // values by `group_key` — exactly the profile's equivalence.
    let stats = table.stats();
    let mut null_cells = 0usize;
    let mut uniqueness_sum = 0.0;
    for column in &stats.columns {
        null_cells += column.null_count;
        if row_count > 0 {
            // Uniqueness of a column = distinct non-null values / total rows.
            uniqueness_sum += column.ndv as f64 / row_count as f64;
        }
    }

    let uniqueness = if column_count > 0 && row_count > 0 {
        uniqueness_sum / column_count as f64
    } else {
        0.0
    };
    let sparsity = if column_count > 0 && row_count > 0 {
        null_cells as f64 / (column_count * row_count) as f64
    } else {
        0.0
    };
    TableProfile {
        name: table.schema.name.clone(),
        column_count,
        row_count,
        uniqueness,
        sparsity,
        data_type_count: table.schema.data_types().len(),
    }
}

/// Profile a whole database.
pub fn profile_database(db: &Database) -> DatabaseProfile {
    let tables: Vec<TableProfile> = db.tables().map(profile_table).collect();
    let table_count = tables.len();
    let mean = |f: &dyn Fn(&TableProfile) -> f64| -> f64 {
        if table_count == 0 {
            0.0
        } else {
            tables.iter().map(f).sum::<f64>() / table_count as f64
        }
    };
    let mut all_types: BTreeSet<String> = BTreeSet::new();
    for table in db.tables() {
        for dt in table.schema.data_types() {
            all_types.insert(format!("{dt:?}"));
        }
    }
    DatabaseProfile {
        name: db.name.clone(),
        table_count,
        avg_columns_per_table: mean(&|t| t.column_count as f64),
        avg_rows_per_table: mean(&|t| t.row_count as f64),
        uniqueness: mean(&|t| t.uniqueness),
        sparsity: mean(&|t| t.sparsity),
        data_type_count: all_types.len(),
        tables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::value::Value;
    use bp_sql::DataType;

    fn db_with_data() -> Database {
        let mut db = Database::new("profiled");
        db.create_table(TableSchema::new(
            "metrics",
            vec![
                Column::new("device_id", DataType::Integer),
                Column::new("metric", DataType::Text),
                Column::new("value", DataType::Float),
            ],
        ))
        .unwrap();
        db.insert_into(
            "metrics",
            vec![
                vec![1.into(), "cpu".into(), 0.5.into()],
                vec![1.into(), "cpu".into(), Value::Null],
                vec![2.into(), "mem".into(), Value::Null],
                vec![2.into(), "cpu".into(), 0.9.into()],
            ],
        )
        .unwrap();
        db.create_table(TableSchema::new(
            "devices",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("name", DataType::Text),
            ],
        ))
        .unwrap();
        db.insert_into(
            "devices",
            vec![
                vec![1.into(), "laptop".into()],
                vec![2.into(), "desktop".into()],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn table_profile_counts() {
        let db = db_with_data();
        let p = profile_table(db.table("metrics").unwrap());
        assert_eq!(p.column_count, 3);
        assert_eq!(p.row_count, 4);
        // 2 NULL cells out of 12.
        assert!((p.sparsity - 2.0 / 12.0).abs() < 1e-9);
        // uniqueness: device_id 2/4, metric 2/4, value 2/4 → 0.5
        assert!((p.uniqueness - 0.5).abs() < 1e-9);
        assert_eq!(p.data_type_count, 3);
    }

    #[test]
    fn empty_table_profile_is_zeroed() {
        let mut db = Database::new("x");
        db.create_table(TableSchema::new(
            "t",
            vec![Column::new("a", DataType::Integer)],
        ))
        .unwrap();
        let p = profile_table(db.table("t").unwrap());
        assert_eq!(p.row_count, 0);
        assert_eq!(p.uniqueness, 0.0);
        assert_eq!(p.sparsity, 0.0);
    }

    #[test]
    fn database_profile_averages() {
        let db = db_with_data();
        let p = profile_database(&db);
        assert_eq!(p.table_count, 2);
        assert!((p.avg_columns_per_table - 2.5).abs() < 1e-9);
        assert!((p.avg_rows_per_table - 3.0).abs() < 1e-9);
        assert_eq!(p.data_type_count, 3);
        assert_eq!(p.tables.len(), 2);
        // devices has perfect uniqueness (2 distinct / 2 rows in both columns)
        let devices = p.tables.iter().find(|t| t.name == "devices").unwrap();
        assert!((devices.uniqueness - 1.0).abs() < 1e-9);
        assert_eq!(devices.sparsity, 0.0);
    }

    #[test]
    fn fully_null_column_increases_sparsity() {
        let mut db = Database::new("sparse");
        db.create_table(TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Integer),
                Column::new("b", DataType::Text),
            ],
        ))
        .unwrap();
        db.insert_into(
            "t",
            vec![vec![1.into(), Value::Null], vec![2.into(), Value::Null]],
        )
        .unwrap();
        let p = profile_table(db.table("t").unwrap());
        assert!((p.sparsity - 0.5).abs() < 1e-9);
    }
}
