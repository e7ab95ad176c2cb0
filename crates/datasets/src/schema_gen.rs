//! Synthetic schema and data generation.
//!
//! [`generate_database`] builds a populated [`Database`] whose shape follows
//! a [`BenchmarkProfile`]: number of tables, columns per table, data-type
//! diversity, value uniqueness, NULL sparsity, and — for the enterprise
//! profile — warehouse-style naming with heavy column-name duplication and
//! near-duplicate tables (the `ACADEMIC_TERMS` vs `ACADEMIC_TERMS_ALL`
//! pattern the paper describes).

use crate::profile::{BenchmarkKind, BenchmarkProfile};
use crate::vocab::{
    DomainLexicon, ENTERPRISE_SHARED_COLUMNS, ENTERPRISE_SPECIFIC_SUFFIXES, ENTERPRISE_SUBJECTS,
    PUBLIC_ATTRIBUTES, PUBLIC_ENTITIES,
};
use bp_sql::DataType;
use bp_storage::{Column, Database, TableSchema, Value};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Values used for enterprise text columns so that domain terms actually
/// appear in the data (and therefore in generated filters).
const ENTERPRISE_TEXT_VALUES: &[&str] = &[
    "J-term",
    "Fall",
    "Spring",
    "IAP",
    "STREET",
    "PO BOX",
    "ACTIVE",
    "INACTIVE",
    "Course 6",
    "UROP",
    "DLC-021",
    "FY26",
    "EXEMPT",
    "NON-EXEMPT",
    "GRAD",
    "UNDERGRAD",
];

/// Public-benchmark text values (clean, unambiguous categories).
const PUBLIC_TEXT_VALUES: &[&str] = &[
    "USA",
    "France",
    "Japan",
    "Brazil",
    "rock",
    "jazz",
    "classical",
    "economy",
    "business",
    "first",
    "red",
    "blue",
    "green",
    "small",
    "medium",
    "large",
    "north",
    "south",
    "east",
    "west",
];

/// Generate a populated database for a benchmark profile.
///
/// `seed` makes generation fully deterministic; the same seed always yields
/// byte-identical schemas and rows.
pub fn generate_database(profile: &BenchmarkProfile, seed: u64) -> Database {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut db = Database::new(profile.kind.name());
    let schemas = if profile.kind.is_enterprise() {
        enterprise_schemas(profile, &mut rng)
    } else {
        public_schemas(profile, &mut rng)
    };
    for schema in schemas {
        db.create_table(schema)
            .expect("generated table names are unique");
    }
    populate(&mut db, profile, &mut rng);
    db
}

fn data_type_cycle(profile: &BenchmarkProfile) -> Vec<DataType> {
    let mut types = vec![
        DataType::Integer,
        DataType::Text,
        DataType::Float,
        DataType::Date,
    ];
    if profile.target_data_types > 4 {
        types.push(DataType::Timestamp);
    }
    if profile.target_data_types > 5 {
        types.push(DataType::Boolean);
    }
    types
}

fn public_schemas(profile: &BenchmarkProfile, rng: &mut ChaCha8Rng) -> Vec<TableSchema> {
    let mut entities: Vec<&str> = PUBLIC_ENTITIES.to_vec();
    entities.shuffle(rng);
    let types = data_type_cycle(profile);
    let mut schemas: Vec<TableSchema> = Vec::new();
    for index in 0..profile.schema_tables {
        let entity = entities[index % entities.len()];
        let table_name = if index < entities.len() {
            entity.to_string()
        } else {
            format!("{entity}_{index}")
        };
        let singular = entity.trim_end_matches('s');
        let mut columns =
            vec![Column::new(format!("{singular}_id"), DataType::Integer).primary_key()];
        // Optional foreign key to an earlier table to enable joins.
        if !schemas.is_empty() && rng.gen_bool(0.6) {
            let parent = &schemas[rng.gen_range(0..schemas.len())];
            let parent_pk = parent
                .columns
                .iter()
                .find(|c| c.primary_key)
                .map(|c| c.name.clone())
                .unwrap_or_else(|| "id".to_string());
            columns.push(
                Column::new(parent_pk.clone(), DataType::Integer)
                    .references(parent.name.clone(), parent_pk),
            );
        }
        let mut attributes: Vec<&str> = PUBLIC_ATTRIBUTES.to_vec();
        attributes.shuffle(rng);
        let mut type_index = 0usize;
        while columns.len() < profile.columns_per_table {
            let attribute = attributes[(columns.len() + index) % attributes.len()];
            let name = if columns
                .iter()
                .any(|c| c.name.eq_ignore_ascii_case(attribute))
            {
                format!("{attribute}_{}", columns.len())
            } else {
                attribute.to_string()
            };
            let data_type = match attribute {
                "name" | "title" | "city" | "country" | "status" | "category" | "phone"
                | "email" => DataType::Text,
                "year" | "age" | "rank" | "capacity" | "quantity" | "population" => {
                    DataType::Integer
                }
                _ => {
                    type_index += 1;
                    types[type_index % types.len()]
                }
            };
            columns.push(Column::new(name, data_type));
        }
        schemas.push(TableSchema::new(table_name, columns));
    }
    schemas
}

fn enterprise_schemas(profile: &BenchmarkProfile, rng: &mut ChaCha8Rng) -> Vec<TableSchema> {
    let types = data_type_cycle(profile);
    let mut schemas: Vec<TableSchema> = Vec::new();
    for index in 0..profile.schema_tables {
        let subject = ENTERPRISE_SUBJECTS[index % ENTERPRISE_SUBJECTS.len()];
        // Warehouse duplication: later passes over the subject list create the
        // `_ALL` / `_HIST` materialized-view style near-duplicates.
        let table_name = match index / ENTERPRISE_SUBJECTS.len() {
            0 => subject.to_string(),
            1 => format!("{subject}_ALL"),
            2 => format!("{subject}_HIST"),
            n => format!("{subject}_V{n}"),
        };
        let mut columns =
            vec![Column::new(format!("{subject}_KEY"), DataType::Integer).primary_key()];
        // Subject-specific columns.
        let mut suffixes: Vec<&str> = ENTERPRISE_SPECIFIC_SUFFIXES.to_vec();
        suffixes.shuffle(rng);
        let specific = (profile.columns_per_table / 2).max(2);
        for suffix in suffixes.iter().take(specific) {
            if *suffix == "KEY" {
                continue;
            }
            let data_type = match *suffix {
                "NAME" | "TITLE" | "TYPE" | "CATEGORY" | "OWNER" | "GROUP" => DataType::Text,
                "AMOUNT" | "BALANCE" | "RATE" => DataType::Float,
                "COUNT" | "LEVEL" => DataType::Integer,
                "START_DATE" | "END_DATE" => DataType::Date,
                _ => types[rng.gen_range(0..types.len())],
            };
            columns.push(Column::new(format!("{subject}_{suffix}"), data_type));
        }
        // Shared ambiguous columns (the `user_id`-everywhere phenomenon).
        let mut shared: Vec<&str> = ENTERPRISE_SHARED_COLUMNS.to_vec();
        shared.shuffle(rng);
        for column in shared {
            if columns.len() >= profile.columns_per_table {
                break;
            }
            if !rng.gen_bool(profile.duplicate_column_rate.clamp(0.0, 1.0)) {
                continue;
            }
            let data_type = if column.ends_with("DATE") {
                DataType::Date
            } else if column.ends_with("_ID") || column == "FISCAL_YEAR" || column == "ROW_VERSION"
            {
                DataType::Integer
            } else {
                DataType::Text
            };
            columns.push(Column::new(column, data_type));
        }
        // Foreign keys to earlier subjects via their _KEY columns.
        if !schemas.is_empty() && columns.len() < profile.columns_per_table + 2 {
            let parent = &schemas[rng.gen_range(0..schemas.len())];
            if let Some(pk) = parent.columns.iter().find(|c| c.primary_key) {
                if !columns.iter().any(|c| c.name == pk.name) {
                    columns.push(
                        Column::new(pk.name.clone(), DataType::Integer)
                            .references(parent.name.clone(), pk.name.clone()),
                    );
                }
            }
        }
        while columns.len() < profile.columns_per_table {
            columns.push(Column::new(
                format!("{subject}_ATTR_{}", columns.len()),
                types[columns.len() % types.len()],
            ));
        }
        schemas.push(TableSchema::new(table_name, columns));
    }
    schemas
}

fn populate(db: &mut Database, profile: &BenchmarkProfile, rng: &mut ChaCha8Rng) {
    let text_values: &[&str] = if profile.kind.is_enterprise() {
        ENTERPRISE_TEXT_VALUES
    } else {
        PUBLIC_TEXT_VALUES
    };
    let table_names: Vec<String> = db.tables().map(|t| t.schema.name.clone()).collect();
    for table_name in table_names {
        let schema = db.table(&table_name).expect("table exists").schema.clone();
        let rows = profile.rows_per_table;
        let pool_size = ((rows as f64 * profile.distinct_fraction).round() as usize).max(1);
        let mut generated_rows = Vec::with_capacity(rows);
        for row_index in 0..rows {
            let mut row: Vec<Value> = Vec::with_capacity(schema.column_count());
            for column in &schema.columns {
                if column.primary_key {
                    row.push(Value::Int(row_index as i64));
                    continue;
                }
                if column.nullable && rng.gen_bool(profile.null_rate.clamp(0.0, 0.95)) {
                    row.push(Value::Null);
                    continue;
                }
                // Foreign keys draw from a quadratically skewed fan-in:
                // child rows concentrate on low parent keys, so multi-join
                // workloads see the skewed key distributions whose join
                // order genuinely matters (uniform fan-in makes every
                // association tree cost about the same).
                if column.references.is_some() && column.data_type == DataType::Integer {
                    let draw: f64 = rng.gen();
                    row.push(Value::Int((draw * draw * pool_size as f64) as i64));
                    continue;
                }
                let pooled = rng.gen_range(0..pool_size) as i64;
                let value = match column.data_type {
                    DataType::Integer => Value::Int(pooled),
                    DataType::Float => Value::Float(pooled as f64 + 0.5),
                    DataType::Date => Value::Date(18_000 + pooled),
                    DataType::Timestamp => Value::Timestamp(1_600_000_000 + pooled * 3_600),
                    DataType::Boolean => Value::Bool(pooled % 2 == 0),
                    DataType::Text => {
                        let pool_index =
                            (pooled as usize) % text_values.len().min(pool_size.max(1));
                        Value::Text(text_values[pool_index].to_string())
                    }
                };
                row.push(value);
            }
            generated_rows.push(row);
        }
        db.insert_into(&schema.name, generated_rows)
            .expect("generated rows match the generated schema");
    }
}

/// Generate the domain lexicon appropriate for a benchmark (enterprise terms
/// for Beaver, an empty lexicon for public benchmarks).
pub fn lexicon_for(kind: BenchmarkKind) -> DomainLexicon {
    if kind.is_enterprise() {
        DomainLexicon::enterprise()
    } else {
        DomainLexicon::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{profile_database, ExecOptions};

    #[test]
    fn generation_is_deterministic() {
        let profile = BenchmarkKind::Spider.profile();
        let a = generate_database(&profile, 11);
        let b = generate_database(&profile, 11);
        assert_eq!(a.schema_ddl(), b.schema_ddl());
        assert_eq!(a.total_rows(), b.total_rows());
        let c = generate_database(&profile, 12);
        assert_ne!(a.schema_ddl(), c.schema_ddl());
    }

    #[test]
    fn table_and_row_counts_match_profile() {
        for kind in BenchmarkKind::all() {
            let profile = kind.profile();
            let db = generate_database(&profile, 3);
            assert_eq!(db.table_count(), profile.schema_tables, "{}", kind.name());
            for table in db.tables() {
                assert_eq!(table.row_count(), profile.rows_per_table);
            }
        }
    }

    #[test]
    fn beaver_schema_shows_enterprise_characteristics() {
        let profile = BenchmarkKind::Beaver.profile();
        let db = generate_database(&profile, 5);
        let stats = profile_database(&db);
        // Sparsity near the configured null rate.
        assert!(stats.sparsity > 0.05, "sparsity = {}", stats.sparsity);
        // Wide tables.
        assert!(stats.avg_columns_per_table >= 10.0);
        // Duplicated near-identical tables exist (the _ALL variants).
        let has_all_variant = db.tables().any(|t| t.schema.name.ends_with("_ALL"));
        assert!(has_all_variant);
        // Shared ambiguous column names appear in several tables.
        let duplicated = db.catalog().tables_with_column("DEPARTMENT_CODE").len()
            + db.catalog().tables_with_column("PERSON_ID").len();
        assert!(duplicated >= 3, "expected shared columns, got {duplicated}");
    }

    #[test]
    fn spider_schema_is_clean() {
        let profile = BenchmarkKind::Spider.profile();
        let db = generate_database(&profile, 5);
        let stats = profile_database(&db);
        assert!(stats.sparsity < 0.01);
        assert!(stats.avg_columns_per_table <= 6.0);
        assert!(stats.uniqueness > BenchmarkKind::Beaver.profile().target_uniqueness);
    }

    #[test]
    fn uniqueness_ordering_matches_paper() {
        // Beaver has the lowest uniqueness (most repeated values).
        let beaver = profile_database(&generate_database(&BenchmarkKind::Beaver.profile(), 9));
        let spider = profile_database(&generate_database(&BenchmarkKind::Spider.profile(), 9));
        let bird = profile_database(&generate_database(&BenchmarkKind::Bird.profile(), 9));
        assert!(beaver.uniqueness < spider.uniqueness);
        assert!(beaver.uniqueness < bird.uniqueness);
    }

    #[test]
    fn generated_databases_are_queryable() {
        let profile = BenchmarkKind::Bird.profile();
        let db = generate_database(&profile, 21);
        let first_table = db.tables().next().unwrap().schema.name.clone();
        let result = db
            .execute_sql(
                &format!("SELECT COUNT(*) FROM {first_table}"),
                ExecOptions::default(),
            )
            .unwrap();
        assert_eq!(
            result.scalar().and_then(|v| v.as_i64()),
            Some(profile.rows_per_table as i64)
        );
    }

    #[test]
    fn lexicon_only_for_enterprise() {
        assert!(!lexicon_for(BenchmarkKind::Beaver).is_empty());
        assert!(lexicon_for(BenchmarkKind::Spider).is_empty());
    }
}
