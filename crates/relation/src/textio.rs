//! Delimited-text I/O with type inference.
//!
//! The metadata engine ingests "a repository of CSV files in the cloud"
//! (§5.1); this module parses and serializes a pragmatic CSV dialect
//! (RFC-4180-style quoting, configurable delimiter) without external
//! dependencies. Type inference promotes columns along
//! `Int → Float → Str`, with `Bool` and empty-as-`Null` handling.

use crate::error::{RelError, RelResult};
use crate::relation::{Relation, Row};
use crate::schema::{DataType, Field, Schema};
use crate::value::Value;

/// Parse options.
#[derive(Debug, Clone)]
pub struct TextOptions {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Whether the first record is a header (default true).
    pub header: bool,
}

impl Default for TextOptions {
    fn default() -> Self {
        TextOptions {
            delimiter: ',',
            header: true,
        }
    }
}

/// Split one line into fields, honoring double-quote quoting with `""`
/// escapes.
fn split_line(line: &str, delim: char) -> RelResult<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else if c == '"' {
            if cur.is_empty() {
                in_quotes = true;
            } else {
                return Err(RelError::Parse(format!("stray quote in: {line}")));
            }
        } else if c == delim {
            fields.push(std::mem::take(&mut cur));
        } else {
            cur.push(c);
        }
    }
    if in_quotes {
        return Err(RelError::Parse(format!("unterminated quote in: {line}")));
    }
    fields.push(cur);
    Ok(fields)
}

/// Infer the narrowest type that parses `raw`.
fn infer_cell(raw: &str) -> DataType {
    let t = raw.trim();
    if t.is_empty() {
        return DataType::Any; // null: no information
    }
    if t.eq_ignore_ascii_case("true") || t.eq_ignore_ascii_case("false") {
        return DataType::Bool;
    }
    if t.parse::<i64>().is_ok() {
        return DataType::Int;
    }
    if t.parse::<f64>().is_ok() {
        return DataType::Float;
    }
    DataType::Str
}

/// Combine two inferred cell types column-wise.
fn widen(a: DataType, b: DataType) -> DataType {
    use DataType::*;
    match (a, b) {
        (Any, x) | (x, Any) => x,
        (x, y) if x == y => x,
        (Int, Float) | (Float, Int) => Float,
        _ => Str,
    }
}

/// Parse a cell under a decided column type.
fn parse_cell(raw: &str, dtype: DataType) -> Value {
    let t = raw.trim();
    if t.is_empty() {
        return Value::Null;
    }
    match dtype {
        DataType::Bool => match t.to_ascii_lowercase().as_str() {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => Value::str(t),
        },
        DataType::Int => t
            .parse::<i64>()
            .map(Value::Int)
            .unwrap_or_else(|_| Value::str(t)),
        DataType::Float | DataType::Timestamp => t
            .parse::<f64>()
            .map(Value::Float)
            .unwrap_or_else(|_| Value::str(t)),
        DataType::Str | DataType::Any => Value::str(t),
    }
}

/// Parse delimited text into a relation with inferred column types.
pub fn parse_text(name: &str, text: &str, opts: &TextOptions) -> RelResult<Relation> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let first = match lines.next() {
        Some(l) => l,
        None => {
            return Ok(Relation::empty(name, Schema::new(vec![])?.shared()));
        }
    };
    let first_fields = split_line(first, opts.delimiter)?;
    let (headers, mut records): (Vec<String>, Vec<Vec<String>>) = if opts.header {
        (first_fields, Vec::new())
    } else {
        (
            (0..first_fields.len()).map(|i| format!("col{i}")).collect(),
            vec![first_fields],
        )
    };
    for line in lines {
        let fields = split_line(line, opts.delimiter)?;
        if fields.len() != headers.len() {
            return Err(RelError::Parse(format!(
                "expected {} fields, got {} in: {line}",
                headers.len(),
                fields.len()
            )));
        }
        records.push(fields);
    }

    // Column-wise type inference.
    let mut types = vec![DataType::Any; headers.len()];
    for rec in &records {
        for (i, cell) in rec.iter().enumerate() {
            types[i] = widen(types[i], infer_cell(cell));
        }
    }
    // A column of only nulls defaults to Str.
    for t in &mut types {
        if *t == DataType::Any {
            *t = DataType::Str;
        }
    }

    let fields: Vec<Field> = headers
        .iter()
        .zip(&types)
        .map(|(h, t)| Field::new(h.trim(), *t))
        .collect();
    let schema = Schema::new(fields)?.shared();

    let rows: Vec<Row> = records
        .iter()
        .map(|rec| {
            Row::bare(
                rec.iter()
                    .zip(&types)
                    .map(|(cell, t)| parse_cell(cell, *t))
                    .collect(),
            )
        })
        .collect();

    Relation::from_rows(name, schema, rows)
}

/// Serialize a relation to delimited text (header + rows). `Multi` cells
/// serialize with their display form.
pub fn to_text(rel: &Relation, opts: &TextOptions) -> String {
    let d = opts.delimiter;
    let needs_quote = |s: &str| s.contains(d) || s.contains('"') || s.contains('\n');
    let quote = |s: String| {
        if needs_quote(&s) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s
        }
    };
    let mut out = String::new();
    if opts.header {
        let header: Vec<String> = rel.schema().names().map(|n| quote(n.to_string())).collect();
        out.push_str(&header.join(&d.to_string()));
        out.push('\n');
    }
    for row in rel.rows() {
        let cells: Vec<String> = row.values().iter().map(|v| quote(v.to_string())).collect();
        out.push_str(&cells.join(&d.to_string()));
        out.push('\n');
    }
    out
}

/// Parse with default options.
pub fn parse_csv(name: &str, text: &str) -> RelResult<Relation> {
    parse_text(name, text, &TextOptions::default())
}

/// Serialize with default options.
pub fn to_csv(rel: &Relation) -> String {
    to_text(rel, &TextOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infers_types_per_column() {
        let r = parse_csv("t", "a,b,c,d\n1,2.5,true,hello\n2,3,false,world\n").unwrap();
        let types: Vec<DataType> = r.schema().fields().iter().map(|f| f.dtype()).collect();
        assert_eq!(
            types,
            vec![
                DataType::Int,
                DataType::Float,
                DataType::Bool,
                DataType::Str
            ]
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows()[0].get(0), &Value::Int(1));
        assert_eq!(r.rows()[1].get(1), &Value::Float(3.0));
    }

    #[test]
    fn empty_cells_become_null() {
        let r = parse_csv("t", "a,b\n1,\n,2\n").unwrap();
        assert!(r.rows()[0].get(1).is_null());
        assert!(r.rows()[1].get(0).is_null());
        // nulls don't break Int inference
        assert_eq!(r.schema().field("a").unwrap().dtype(), DataType::Int);
    }

    #[test]
    fn mixed_column_degrades_to_str() {
        let r = parse_csv("t", "a\n1\nx\n").unwrap();
        assert_eq!(r.schema().field("a").unwrap().dtype(), DataType::Str);
        assert_eq!(r.rows()[0].get(0), &Value::str("1"));
    }

    #[test]
    fn quoted_fields_with_delimiters() {
        let r = parse_csv("t", "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(r.rows()[0].get(0), &Value::str("x,y"));
        assert_eq!(r.rows()[0].get(1), &Value::str("he said \"hi\""));
    }

    #[test]
    fn arity_mismatch_is_parse_error() {
        assert!(parse_csv("t", "a,b\n1\n").is_err());
    }

    #[test]
    fn unterminated_quote_is_parse_error() {
        assert!(parse_csv("t", "a\n\"oops\n").is_err());
    }

    #[test]
    fn headerless_mode_names_columns() {
        let opts = TextOptions {
            header: false,
            ..Default::default()
        };
        let r = parse_text("t", "1,2\n3,4\n", &opts).unwrap();
        assert_eq!(r.schema().names().collect::<Vec<_>>(), vec!["col0", "col1"]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn round_trip_preserves_values() {
        let text = "a,b,s\n1,1.5,hi\n2,2.5,\"x,y\"\n";
        let r = parse_csv("t", text).unwrap();
        let again = parse_csv("t", &to_csv(&r)).unwrap();
        assert_eq!(r.len(), again.len());
        for (x, y) in r.rows().iter().zip(again.rows()) {
            assert_eq!(x.values(), y.values());
        }
    }

    #[test]
    fn custom_delimiter() {
        let opts = TextOptions {
            delimiter: '\t',
            ..Default::default()
        };
        let r = parse_text("t", "a\tb\n1\t2\n", &opts).unwrap();
        assert_eq!(r.rows()[0].get(1), &Value::Int(2));
    }

    #[test]
    fn empty_input_is_empty_relation() {
        let r = parse_csv("t", "").unwrap();
        assert!(r.is_empty());
        assert!(r.schema().is_empty());
    }
}
