//! Minimal tab-separated import/export of database instances.
//!
//! One file per relation (`<name>.tsv`), one line per tuple, values separated by tabs.
//! Integers and booleans are written in their natural form and re-parsed on load; every
//! other field is read back as a string. Tabs and newlines inside strings are escaped.
//! This is intentionally small: it exists so generated workloads can be persisted and
//! inspected, not to compete with real formats.

use crate::database::Database;
use bea_core::error::{Error, Result};
use bea_core::schema::Catalog;
use bea_core::value::{Row, Value};
use std::fs;
use std::io::Write;
use std::path::Path;

fn escape(field: &str) -> String {
    field
        .replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

fn unescape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn render(value: &Value) -> String {
    match value {
        Value::Int(i) => format!("i:{i}"),
        Value::Str(s) => format!("s:{}", escape(s.as_str())),
        Value::Bool(b) => format!("b:{b}"),
        Value::Labelled(n) => format!("l:{n}"),
    }
}

fn parse(field: &str) -> Result<Value> {
    let Some((tag, rest)) = field.split_once(':') else {
        return Err(Error::invalid(format!("malformed value field `{field}`")));
    };
    match tag {
        "i" => rest
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| Error::invalid(format!("malformed integer `{rest}`"))),
        "s" => Ok(Value::Str(unescape(rest).into())),
        "b" => rest
            .parse::<bool>()
            .map(Value::Bool)
            .map_err(|_| Error::invalid(format!("malformed boolean `{rest}`"))),
        "l" => rest
            .parse::<u32>()
            .map(Value::Labelled)
            .map_err(|_| Error::invalid(format!("malformed labelled null `{rest}`"))),
        other => Err(Error::invalid(format!("unknown value tag `{other}`"))),
    }
}

/// Write every relation of the database to `<dir>/<relation>.tsv`.
pub fn write_tsv(database: &Database, dir: impl AsRef<Path>) -> Result<()> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir).map_err(|e| Error::invalid(format!("cannot create {dir:?}: {e}")))?;
    for relation in database.relations() {
        let path = dir.join(format!("{}.tsv", relation.name()));
        let mut file = fs::File::create(&path)
            .map_err(|e| Error::invalid(format!("cannot create {path:?}: {e}")))?;
        for row in relation.rows() {
            let line: Vec<String> = row.iter().map(render).collect();
            writeln!(file, "{}", line.join("\t"))
                .map_err(|e| Error::invalid(format!("cannot write {path:?}: {e}")))?;
        }
    }
    Ok(())
}

/// Read a database for `catalog` from `<dir>/<relation>.tsv` files (missing files are
/// treated as empty relations).
pub fn read_tsv(catalog: &Catalog, dir: impl AsRef<Path>) -> Result<Database> {
    let dir = dir.as_ref();
    let mut database = Database::new(catalog.clone());
    for schema in catalog.relations() {
        let path = dir.join(format!("{}.tsv", schema.name()));
        let Ok(contents) = fs::read_to_string(&path) else {
            continue;
        };
        let mut rows: Vec<Row> = Vec::new();
        for (lineno, line) in contents.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let row: Result<Row> = line.split('\t').map(parse).collect();
            let row = row.map_err(|e| Error::invalid(format!("{path:?}:{}: {e}", lineno + 1)))?;
            rows.push(row);
        }
        database.extend(schema.name(), rows)?;
    }
    Ok(database)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Database {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("Empty", ["x"]).unwrap();
        let mut db = Database::new(c);
        db.extend(
            "R",
            [
                vec![Value::int(-3), Value::str("with\ttab and\nnewline")],
                vec![Value::Bool(true), Value::Labelled(7)],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn round_trip() {
        let db = sample();
        let dir = std::env::temp_dir().join(format!("bea_io_test_{}", std::process::id()));
        write_tsv(&db, &dir).unwrap();
        let loaded = read_tsv(db.catalog(), &dir).unwrap();
        assert_eq!(loaded.relation("R").unwrap(), db.relation("R").unwrap());
        assert!(loaded.relation("Empty").unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn value_rendering_round_trips() {
        for v in [
            Value::int(42),
            Value::str("plain"),
            Value::str("tab\tand\\slash"),
            Value::Bool(false),
            Value::Labelled(3),
        ] {
            assert_eq!(parse(&render(&v)).unwrap(), v);
        }
    }

    #[test]
    fn malformed_fields_are_rejected() {
        assert!(parse("notag").is_err());
        assert!(parse("i:abc").is_err());
        assert!(parse("b:maybe").is_err());
        assert!(parse("l:-1").is_err());
        assert!(parse("z:1").is_err());
    }
}
