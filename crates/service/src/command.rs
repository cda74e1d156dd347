//! Externally-visible market mutations as serializable [`Command`]s.
//!
//! Every mutation the gateway accepts becomes exactly one `Command`,
//! appended to the write-ahead journal *before* it is applied to the
//! sharded market (event sourcing). Because PR 1 made the round
//! pipeline bit-identical under replay, re-applying a journaled command
//! stream to a freshly-deployed market reproduces the exact ledger
//! balances, offer book and allocations — that determinism is what the
//! crash-recovery tests pin down.
//!
//! A `Command` carries the core's own [`TaskKind`], [`PriceCurve`] and
//! [`License`]. The private `enc_*` / `dec_*` functions below are their
//! wire grammar, and a write route's request body is its command's wire
//! form minus `"op"`.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use dmp_core::license::License;
use dmp_mechanism::wtp::{IntrinsicConstraints, PriceCurve, TaskKind, WtpFunction};
use dmp_relation::{DataType, Relation, RelationBuilder, Value};

use crate::wire::{Json, WireError};

/// One externally-visible market mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Enroll a participant under a role.
    Enroll {
        /// Principal name.
        name: String,
        /// Role ("buyer", "seller", ... — matched by CI policies).
        role: String,
    },
    /// Mint funds into an account.
    Deposit {
        /// Account name.
        account: String,
        /// Amount in credits (micro-credit rounded by the ledger).
        amount: f64,
    },
    /// Submit a buyer WTP offer.
    SubmitOffer(OfferSpec),
    /// Submit a seller ask: share a dataset, optionally with a reserve
    /// price and a license.
    SubmitAsk(AskSpec),
    /// Attach a license to an already-shared dataset.
    GrantLicense {
        /// The owning seller.
        seller: String,
        /// Dataset id (shard-local; the seller's shard is derived from
        /// the seller name, the same routing that registered it).
        dataset: u64,
        /// The license to attach.
        license: License,
    },
    /// Run one or more market rounds across every shard.
    RunRound {
        /// Number of rounds (>= 1).
        rounds: u32,
    },
}

/// Wire form of a WTP offer.
#[derive(Debug, Clone, PartialEq)]
pub struct OfferSpec {
    /// Buyer principal.
    pub buyer: String,
    /// Attributes the buyer needs.
    pub attributes: Vec<String>,
    /// Optional discovery keywords.
    pub keywords: Vec<String>,
    /// The data task.
    pub task: TaskKind,
    /// satisfaction → price curve.
    pub curve: PriceCurve,
    /// Minimum rows for a usable mashup.
    pub min_rows: u64,
    /// Declared purpose (contextual integrity).
    pub purpose: String,
}

/// Wire form of a seller ask.
#[derive(Debug, Clone, PartialEq)]
pub struct AskSpec {
    /// Seller principal.
    pub seller: String,
    /// The dataset, inline.
    pub table: TableSpec,
    /// Reserve price floor (optional).
    pub reserve: Option<f64>,
    /// License to attach at share time (optional; Standard otherwise).
    pub license: Option<License>,
}

/// An inline relation: name, typed columns, rows of scalar cells.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// Relation name.
    pub name: String,
    /// `(column, type)` pairs; types are `"int" | "float" | "str" |
    /// "bool" | "timestamp"`.
    pub columns: Vec<(String, ColType)>,
    /// Rows; each cell is decoded against its column type.
    pub rows: Vec<Vec<CellSpec>>,
}

/// Wire-supported column types (the 1NF scalar subset of
/// [`dmp_relation::DataType`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 64-bit integers.
    Int,
    /// 64-bit floats.
    Float,
    /// UTF-8 strings.
    Str,
    /// Booleans.
    Bool,
    /// Unix-epoch timestamps.
    Timestamp,
}

/// A scalar cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellSpec {
    /// Absent value.
    Null,
    /// Integer cell (int / timestamp columns).
    Int(i64),
    /// Float cell.
    Float(f64),
    /// String cell.
    Str(String),
    /// Bool cell.
    Bool(bool),
}

impl Command {
    /// Upper bound on `RunRound::rounds` in one command: a round batch
    /// executes while holding the node's write path and replays in
    /// full on recovery, so a single command must stay bounded.
    pub const MAX_ROUNDS_PER_COMMAND: u64 = 1024;

    /// Encode to the wire JSON form (`{"op": ..., ...}`).
    pub fn encode(&self) -> Json {
        match self {
            Command::Enroll { name, role } => Json::obj([
                ("op", Json::str("enroll")),
                ("name", Json::str(name.clone())),
                ("role", Json::str(role.clone())),
            ]),
            Command::Deposit { account, amount } => Json::obj([
                ("op", Json::str("deposit")),
                ("account", Json::str(account.clone())),
                ("amount", Json::Num(*amount)),
            ]),
            Command::SubmitOffer(o) => Json::obj([
                ("op", Json::str("offer")),
                ("buyer", Json::str(o.buyer.clone())),
                (
                    "attributes",
                    Json::Arr(o.attributes.iter().map(|s| Json::str(s.clone())).collect()),
                ),
                (
                    "keywords",
                    Json::Arr(o.keywords.iter().map(|s| Json::str(s.clone())).collect()),
                ),
                ("task", enc_task(&o.task)),
                ("curve", enc_curve(&o.curve)),
                ("min_rows", Json::Num(o.min_rows as f64)),
                ("purpose", Json::str(o.purpose.clone())),
            ]),
            Command::SubmitAsk(a) => {
                let mut pairs = vec![
                    ("op".to_string(), Json::str("ask")),
                    ("seller".to_string(), Json::str(a.seller.clone())),
                    ("table".to_string(), a.table.encode()),
                ];
                if let Some(r) = a.reserve {
                    pairs.push(("reserve".to_string(), Json::Num(r)));
                }
                if let Some(l) = &a.license {
                    pairs.push(("license".to_string(), enc_license(l)));
                }
                Json::Obj(pairs)
            }
            Command::GrantLicense {
                seller,
                dataset,
                license,
            } => Json::obj([
                ("op", Json::str("grant_license")),
                ("seller", Json::str(seller.clone())),
                ("dataset", Json::Num(*dataset as f64)),
                ("license", enc_license(license)),
            ]),
            Command::RunRound { rounds } => Json::obj([
                ("op", Json::str("run_round")),
                ("rounds", Json::Num(*rounds as f64)),
            ]),
        }
    }

    /// Decode from the wire JSON form. Two fields have defaults, which
    /// [`Command::encode`] always writes out: `role` is
    /// `"participant"` and `rounds` is 1.
    pub fn decode(json: &Json) -> Result<Command, WireError> {
        let op = json.req_str("op")?;
        match op.as_str() {
            "enroll" => Ok(Command::Enroll {
                name: json.req_str("name")?,
                role: opt(json, "role", Json::as_str, "a string")?
                    .unwrap_or("participant")
                    .to_string(),
            }),
            "deposit" => Ok(Command::Deposit {
                account: json.req_str("account")?,
                amount: json.req_f64("amount")?,
            }),
            "offer" => Ok(Command::SubmitOffer(OfferSpec::decode(json)?)),
            "ask" => Ok(Command::SubmitAsk(AskSpec::decode(json)?)),
            "grant_license" => Ok(Command::GrantLicense {
                seller: json.req_str("seller")?,
                dataset: json.req_u64("dataset")?,
                license: dec_license(
                    json.get("license")
                        .ok_or_else(|| WireError::new("missing field 'license'"))?,
                )?,
            }),
            "run_round" => {
                let rounds = opt(json, "rounds", Json::as_u64, "a positive integer")?.unwrap_or(1);
                if rounds == 0 || rounds > Command::MAX_ROUNDS_PER_COMMAND {
                    return Err(WireError::new(format!(
                        "'rounds' must be in 1..={}",
                        Command::MAX_ROUNDS_PER_COMMAND
                    )));
                }
                Ok(Command::RunRound {
                    rounds: rounds as u32,
                })
            }
            other => Err(WireError::new(format!("unknown op '{other}'"))),
        }
    }
}

/// An optional field: `None` when absent, `read` of it when present.
/// Strict: a field `read` refuses is an error naming what it
/// `must_be`, never a silent default (the journaled command must mean
/// what the client said).
fn opt<'a, T>(
    json: &'a Json,
    key: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
    must_be: &str,
) -> Result<Option<T>, WireError> {
    json.get(key)
        .map(|j| read(j).ok_or_else(|| WireError::new(format!("'{key}' must be {must_be}"))))
        .transpose()
}

fn str_list(items: &[Json]) -> Result<Vec<String>, WireError> {
    items
        .iter()
        .map(|j| {
            j.as_str()
                .map(str::to_string)
                .ok_or_else(|| WireError::new("expected string in list"))
        })
        .collect()
}

impl OfferSpec {
    /// A minimal attribute-coverage offer with a constant price.
    pub fn simple(
        buyer: impl Into<String>,
        attributes: impl IntoIterator<Item = impl Into<String>>,
        price: f64,
    ) -> Self {
        OfferSpec {
            buyer: buyer.into(),
            attributes: attributes.into_iter().map(Into::into).collect(),
            keywords: Vec::new(),
            task: TaskKind::AttributeCoverage,
            curve: PriceCurve::Constant(price),
            min_rows: 1,
            purpose: "analytics".to_string(),
        }
    }

    fn decode(json: &Json) -> Result<OfferSpec, WireError> {
        Ok(OfferSpec {
            buyer: json.req_str("buyer")?,
            attributes: str_list(json.req_arr("attributes")?)?,
            keywords: str_list(opt(json, "keywords", Json::as_arr, "an array")?.unwrap_or(&[]))?,
            task: match json.get("task") {
                Some(j) => dec_task(j)?,
                None => TaskKind::AttributeCoverage,
            },
            curve: dec_curve(
                json.get("curve")
                    .ok_or_else(|| WireError::new("missing field 'curve'"))?,
            )?,
            min_rows: opt(json, "min_rows", Json::as_u64, "a non-negative integer")?.unwrap_or(1),
            purpose: opt(json, "purpose", Json::as_str, "a string")?
                .unwrap_or("analytics")
                .to_string(),
        })
    }

    /// Materialize into a core [`WtpFunction`].
    pub fn to_wtp(&self) -> WtpFunction {
        WtpFunction {
            buyer: self.buyer.clone(),
            attributes: self.attributes.clone(),
            keywords: self.keywords.clone(),
            task: self.task.clone(),
            curve: self.curve.clone(),
            constraints: IntrinsicConstraints::default(),
            owned_data: None,
            min_rows: self.min_rows as usize,
        }
    }
}

impl AskSpec {
    fn decode(json: &Json) -> Result<AskSpec, WireError> {
        Ok(AskSpec {
            seller: json.req_str("seller")?,
            table: TableSpec::decode(
                json.get("table")
                    .ok_or_else(|| WireError::new("missing field 'table'"))?,
            )?,
            reserve: opt(
                json,
                "reserve",
                |j| j.as_f64().filter(|r| r.is_finite()),
                "a finite number",
            )?,
            license: json.get("license").map(dec_license).transpose()?,
        })
    }
}

impl ColType {
    fn as_str(self) -> &'static str {
        match self {
            ColType::Int => "int",
            ColType::Float => "float",
            ColType::Str => "str",
            ColType::Bool => "bool",
            ColType::Timestamp => "timestamp",
        }
    }

    fn from_str(s: &str) -> Result<ColType, WireError> {
        match s {
            "int" => Ok(ColType::Int),
            "float" => Ok(ColType::Float),
            "str" => Ok(ColType::Str),
            "bool" => Ok(ColType::Bool),
            "timestamp" => Ok(ColType::Timestamp),
            other => Err(WireError::new(format!("unknown column type '{other}'"))),
        }
    }

    fn to_data_type(self) -> DataType {
        match self {
            ColType::Int => DataType::Int,
            ColType::Float => DataType::Float,
            ColType::Str => DataType::Str,
            ColType::Bool => DataType::Bool,
            ColType::Timestamp => DataType::Timestamp,
        }
    }
}

impl CellSpec {
    fn encode(&self) -> Json {
        match self {
            CellSpec::Null => Json::Null,
            CellSpec::Int(i) => Json::Num(*i as f64),
            CellSpec::Float(f) => Json::Num(*f),
            CellSpec::Str(s) => Json::str(s.clone()),
            CellSpec::Bool(b) => Json::Bool(*b),
        }
    }

    fn decode(json: &Json, col: ColType) -> Result<CellSpec, WireError> {
        match (json, col) {
            (Json::Null, _) => Ok(CellSpec::Null),
            (Json::Num(n), ColType::Int | ColType::Timestamp) => {
                if n.fract() != 0.0 || n.abs() > 2f64.powi(53) {
                    return Err(WireError::new("expected integer cell"));
                }
                Ok(CellSpec::Int(*n as i64))
            }
            (Json::Num(n), ColType::Float) => Ok(CellSpec::Float(*n)),
            (Json::Str(s), ColType::Str) => Ok(CellSpec::Str(s.clone())),
            (Json::Bool(b), ColType::Bool) => Ok(CellSpec::Bool(*b)),
            _ => Err(WireError::new(format!(
                "cell does not match column type '{}'",
                col.as_str()
            ))),
        }
    }

    fn to_value(&self, col: ColType) -> Value {
        match (self, col) {
            (CellSpec::Null, _) => Value::Null,
            (CellSpec::Int(i), ColType::Timestamp) => Value::Timestamp(*i),
            (CellSpec::Int(i), _) => Value::Int(*i),
            (CellSpec::Float(f), _) => Value::Float(*f),
            (CellSpec::Str(s), _) => Value::str(s),
            (CellSpec::Bool(b), _) => Value::Bool(*b),
        }
    }
}

impl TableSpec {
    fn encode(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name.clone())),
            (
                "columns",
                Json::Arr(
                    self.columns
                        .iter()
                        .map(|(name, ty)| {
                            Json::Arr(vec![Json::str(name.clone()), Json::str(ty.as_str())])
                        })
                        .collect(),
                ),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(CellSpec::encode).collect()))
                        .collect(),
                ),
            ),
        ])
    }

    fn decode(json: &Json) -> Result<TableSpec, WireError> {
        let name = json.req_str("name")?;
        let mut columns = Vec::new();
        for col in json.req_arr("columns")? {
            let pair = col
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| WireError::new("column must be a [name, type] pair"))?;
            let cname = pair[0]
                .as_str()
                .ok_or_else(|| WireError::new("column name must be a string"))?;
            let ctype = pair[1]
                .as_str()
                .ok_or_else(|| WireError::new("column type must be a string"))?;
            columns.push((cname.to_string(), ColType::from_str(ctype)?));
        }
        let mut rows = Vec::new();
        for row in json.req_arr("rows")? {
            let cells = row
                .as_arr()
                .ok_or_else(|| WireError::new("row must be an array"))?;
            if cells.len() != columns.len() {
                return Err(WireError::new(format!(
                    "row has {} cells, schema has {} columns",
                    cells.len(),
                    columns.len()
                )));
            }
            rows.push(
                cells
                    .iter()
                    .zip(&columns)
                    .map(|(cell, (_, ty))| CellSpec::decode(cell, *ty))
                    .collect::<Result<Vec<_>, _>>()?,
            );
        }
        Ok(TableSpec {
            name,
            columns,
            rows,
        })
    }

    /// Materialize into a core [`Relation`].
    pub fn to_relation(&self) -> Result<Relation, WireError> {
        let mut b = RelationBuilder::new(self.name.clone());
        for (name, ty) in &self.columns {
            b = b.column(name.clone(), ty.to_data_type());
        }
        for row in &self.rows {
            b = b.row(
                row.iter()
                    .zip(&self.columns)
                    .map(|(cell, (_, ty))| cell.to_value(*ty))
                    .collect(),
            );
        }
        b.build()
            .map_err(|e| WireError::new(format!("invalid table: {e:?}")))
    }
}

fn enc_task(task: &TaskKind) -> Json {
    match task {
        TaskKind::AttributeCoverage => Json::obj([("kind", Json::str("attribute_coverage"))]),
        TaskKind::Classification { label } => Json::obj([
            ("kind", Json::str("classification")),
            ("label", Json::str(label.clone())),
        ]),
        TaskKind::Regression { target } => Json::obj([
            ("kind", Json::str("regression")),
            ("target", Json::str(target.clone())),
        ]),
        TaskKind::AggregateCompleteness {
            group_by,
            expected_groups,
        } => Json::obj([
            ("kind", Json::str("aggregate_completeness")),
            ("group_by", Json::str(group_by.clone())),
            ("expected_groups", Json::Num(*expected_groups as f64)),
        ]),
    }
}

fn dec_task(json: &Json) -> Result<TaskKind, WireError> {
    match json.req_str("kind")?.as_str() {
        "attribute_coverage" => Ok(TaskKind::AttributeCoverage),
        "classification" => Ok(TaskKind::Classification {
            label: json.req_str("label")?,
        }),
        "regression" => Ok(TaskKind::Regression {
            target: json.req_str("target")?,
        }),
        "aggregate_completeness" => Ok(TaskKind::AggregateCompleteness {
            group_by: json.req_str("group_by")?,
            expected_groups: usize::try_from(json.req_u64("expected_groups")?)
                .map_err(|_| WireError::new("'expected_groups' exceeds usize range"))?,
        }),
        other => Err(WireError::new(format!("unknown task kind '{other}'"))),
    }
}

fn enc_curve(curve: &PriceCurve) -> Json {
    match curve {
        PriceCurve::Constant(p) => {
            Json::obj([("kind", Json::str("constant")), ("price", Json::Num(*p))])
        }
        PriceCurve::Linear {
            min_satisfaction,
            max_price,
        } => Json::obj([
            ("kind", Json::str("linear")),
            ("min_satisfaction", Json::Num(*min_satisfaction)),
            ("max_price", Json::Num(*max_price)),
        ]),
        PriceCurve::Step(steps) => Json::obj([
            ("kind", Json::str("step")),
            (
                "steps",
                Json::Arr(
                    steps
                        .iter()
                        .map(|&(t, p)| Json::Arr(vec![Json::Num(t), Json::Num(p)]))
                        .collect(),
                ),
            ),
        ]),
    }
}

fn dec_curve(json: &Json) -> Result<PriceCurve, WireError> {
    match json.req_str("kind")?.as_str() {
        "constant" => Ok(PriceCurve::Constant(json.req_f64("price")?)),
        "linear" => Ok(PriceCurve::Linear {
            min_satisfaction: json.req_f64("min_satisfaction")?,
            max_price: json.req_f64("max_price")?,
        }),
        "step" => {
            let mut steps = Vec::new();
            for step in json.req_arr("steps")? {
                let pair = step
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| WireError::new("step must be a [satisfaction, price] pair"))?;
                let t = pair[0]
                    .as_f64()
                    .ok_or_else(|| WireError::new("step threshold must be a number"))?;
                let p = pair[1]
                    .as_f64()
                    .ok_or_else(|| WireError::new("step price must be a number"))?;
                steps.push((t, p));
            }
            Ok(PriceCurve::Step(steps))
        }
        other => Err(WireError::new(format!("unknown curve kind '{other}'"))),
    }
}

fn enc_license(license: &License) -> Json {
    match license {
        License::Standard => Json::obj([("kind", Json::str("standard"))]),
        License::Exclusive {
            tax_rate,
            hold_rounds,
        } => Json::obj([
            ("kind", Json::str("exclusive")),
            ("tax_rate", Json::Num(*tax_rate)),
            ("hold_rounds", Json::Num(*hold_rounds as f64)),
        ]),
        License::OwnershipTransfer => Json::obj([("kind", Json::str("ownership_transfer"))]),
        License::NonTransferable => Json::obj([("kind", Json::str("non_transferable"))]),
    }
}

fn dec_license(json: &Json) -> Result<License, WireError> {
    match json.req_str("kind")?.as_str() {
        "standard" => Ok(License::Standard),
        "exclusive" => Ok(License::Exclusive {
            tax_rate: json.req_f64("tax_rate")?,
            hold_rounds: u32::try_from(json.req_u64("hold_rounds")?)
                .map_err(|_| WireError::new("'hold_rounds' exceeds u32 range"))?,
        }),
        "ownership_transfer" => Ok(License::OwnershipTransfer),
        "non_transferable" => Ok(License::NonTransferable),
        other => Err(WireError::new(format!("unknown license kind '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(cmd: Command) {
        let encoded = cmd.encode().dump();
        let decoded = Command::decode(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, cmd, "wire round-trip changed the command");
    }

    #[test]
    fn commands_round_trip() {
        round_trip(Command::Enroll {
            name: "alice".into(),
            role: "buyer".into(),
        });
        round_trip(Command::Deposit {
            account: "alice".into(),
            amount: 123.456789,
        });
        round_trip(Command::SubmitOffer(OfferSpec {
            buyer: "alice".into(),
            attributes: vec!["city".into(), "temp".into()],
            keywords: vec!["weather".into()],
            task: TaskKind::AggregateCompleteness {
                group_by: "city".into(),
                expected_groups: 12,
            },
            curve: PriceCurve::Step(vec![(0.8, 100.0), (0.9, 150.0)]),
            min_rows: 3,
            purpose: "research".into(),
        }));
        round_trip(Command::SubmitAsk(AskSpec {
            seller: "weather-co".into(),
            table: TableSpec {
                name: "temps".into(),
                columns: vec![
                    ("city".into(), ColType::Str),
                    ("temp".into(), ColType::Float),
                    ("at".into(), ColType::Timestamp),
                ],
                rows: vec![
                    vec![
                        CellSpec::Str("chicago".into()),
                        CellSpec::Float(3.5),
                        CellSpec::Int(1700000000),
                    ],
                    vec![CellSpec::Null, CellSpec::Null, CellSpec::Null],
                ],
            },
            reserve: Some(5.0),
            license: Some(License::Exclusive {
                tax_rate: 0.5,
                hold_rounds: 3,
            }),
        }));
        round_trip(Command::GrantLicense {
            seller: "weather-co".into(),
            dataset: 0,
            license: License::NonTransferable,
        });
        round_trip(Command::RunRound { rounds: 4 });
    }

    #[test]
    fn table_spec_materializes() {
        let table = TableSpec {
            name: "t".into(),
            columns: vec![("k".into(), ColType::Int), ("v".into(), ColType::Str)],
            rows: vec![
                vec![CellSpec::Int(1), CellSpec::Str("a".into())],
                vec![CellSpec::Int(2), CellSpec::Null],
            ],
        };
        let rel = table.to_relation().unwrap();
        assert_eq!(rel.name(), "t");
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn mistyped_cells_rejected() {
        let json =
            Json::parse(r#"{"name":"t","columns":[["k","int"]],"rows":[["oops"]]}"#).unwrap();
        assert!(TableSpec::decode(&json).is_err());
    }

    #[test]
    fn unknown_op_rejected() {
        let json = Json::parse(r#"{"op":"frobnicate"}"#).unwrap();
        assert!(Command::decode(&json).is_err());
    }

    #[test]
    fn run_round_count_is_bounded() {
        let ok = Json::parse(r#"{"op":"run_round","rounds":1024}"#).unwrap();
        assert!(Command::decode(&ok).is_ok());
        for bad in [
            r#"{"op":"run_round","rounds":0}"#,
            r#"{"op":"run_round","rounds":1025}"#,
            r#"{"op":"run_round","rounds":4000000000}"#,
            r#"{"op":"run_round","rounds":2.5}"#,
        ] {
            let json = Json::parse(bad).unwrap();
            assert!(Command::decode(&json).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn role_and_rounds_have_defaults_but_no_silent_ones() {
        let decode = |text: &str| Command::decode(&Json::parse(text).unwrap());
        assert_eq!(
            decode(r#"{"op":"enroll","name":"a"}"#).unwrap(),
            Command::Enroll {
                name: "a".into(),
                role: "participant".into(),
            }
        );
        assert_eq!(
            decode(r#"{"op":"run_round"}"#).unwrap(),
            Command::RunRound { rounds: 1 }
        );
        // Encoding writes both fields out, so a journal never relies on
        // a default.
        let text = Command::RunRound { rounds: 1 }.encode().dump();
        assert_eq!(text, r#"{"op":"run_round","rounds":1}"#);
        assert!(decode(r#"{"op":"enroll","name":"a","role":5}"#).is_err());
        // The first "op" is the one read.
        assert_eq!(
            decode(r#"{"op":"run_round","op":"enroll","name":"a"}"#).unwrap(),
            Command::RunRound { rounds: 1 }
        );
    }
}
