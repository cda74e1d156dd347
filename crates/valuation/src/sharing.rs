//! Revenue sharing via provenance (§3.2.3, component 5): "the revenue
//! sharing problem determines how the price from each row in `m` is
//! shared among the contributing datasets [...] if `f()` is a relational
//! function, then we can leverage the vast research in provenance."
//!
//! Every mashup row carries why-provenance; a row's allocated revenue is
//! split across the datasets mentioned in its monomial, proportionally to
//! the number of source rows each dataset contributed.

use std::collections::HashMap;

use dmp_relation::{DatasetId, Relation};

use crate::row_alloc::RowAllocation;

/// Revenue attributed to one dataset from one mashup sale.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetShare {
    /// The dataset.
    pub dataset: DatasetId,
    /// Its share of the sale price.
    pub amount: f64,
}

/// How row allocations propagate to datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingRule {
    /// Within each row, split by the dataset's share of provenance atoms
    /// (a dataset that contributed 2 of 3 source rows gets 2/3).
    ProportionalToAtoms,
    /// Within each row, each distinct contributing dataset gets an equal
    /// slice regardless of atom counts.
    EqualPerDataset,
}

/// Share a sold mashup's revenue back to source datasets.
///
/// Rows with empty provenance (synthesized data) contribute their
/// allocation to the arbiter instead; that residual is returned under
/// `DatasetId(u64::MAX)` so the caller can book it explicitly.
pub fn share_revenue(
    mashup: &Relation,
    rows: &RowAllocation,
    rule: SharingRule,
) -> Vec<DatasetShare> {
    /// Sentinel for revenue that has no provenance to flow to.
    const ARBITER: DatasetId = DatasetId(u64::MAX);

    let mut shares: HashMap<DatasetId, f64> = HashMap::new();
    for (row, &amount) in mashup.rows().iter().zip(rows.amounts()) {
        if amount == 0.0 {
            continue;
        }
        let counts = row.provenance().dataset_counts();
        if counts.is_empty() {
            *shares.entry(ARBITER).or_insert(0.0) += amount;
            continue;
        }
        match rule {
            SharingRule::ProportionalToAtoms => {
                let total_atoms: usize = counts.iter().map(|(_, c)| c).sum();
                for (d, c) in counts {
                    *shares.entry(d).or_insert(0.0) += amount * c as f64 / total_atoms as f64;
                }
            }
            SharingRule::EqualPerDataset => {
                let k = counts.len() as f64;
                for (d, _) in counts {
                    *shares.entry(d).or_insert(0.0) += amount / k;
                }
            }
        }
    }
    let mut out: Vec<DatasetShare> = shares
        .into_iter()
        .map(|(dataset, amount)| DatasetShare { dataset, amount })
        .collect();
    out.sort_by_key(|s| s.dataset);
    out
}

/// Sum of all shares (equals the row-allocation total: conservation).
pub fn total_shared(shares: &[DatasetShare]) -> f64 {
    shares.iter().map(|s| s.amount).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_relation::ops::JoinKind;
    use dmp_relation::{DataType, RelationBuilder, Value};

    fn joined_mashup() -> Relation {
        let left = RelationBuilder::new("l")
            .column("k", DataType::Int)
            .column("a", DataType::Str)
            .row(vec![Value::Int(1), Value::str("x")])
            .row(vec![Value::Int(2), Value::str("y")])
            .source(DatasetId(1))
            .build()
            .unwrap();
        let right = RelationBuilder::new("r")
            .column("k", DataType::Int)
            .column("b", DataType::Str)
            .row(vec![Value::Int(1), Value::str("p")])
            .row(vec![Value::Int(2), Value::str("q")])
            .source(DatasetId(2))
            .build()
            .unwrap();
        left.join(&right, &[("k", "k")], JoinKind::Inner).unwrap()
    }

    #[test]
    fn join_splits_evenly_between_two_sources() {
        let m = joined_mashup();
        let rows = RowAllocation::uniform(&m, 100.0);
        let shares = share_revenue(&m, &rows, SharingRule::ProportionalToAtoms);
        assert_eq!(shares.len(), 2);
        assert!((shares[0].amount - 50.0).abs() < 1e-9);
        assert!((shares[1].amount - 50.0).abs() < 1e-9);
        assert!((total_shared(&shares) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn aggregation_weights_by_contributed_rows() {
        // dataset 1 contributes 3 rows, dataset 2 contributes 1; after a
        // union+aggregate the single output row credits them 3:1.
        let a = RelationBuilder::new("a")
            .column("g", DataType::Str)
            .column("x", DataType::Int)
            .row(vec![Value::str("g"), Value::Int(1)])
            .row(vec![Value::str("g"), Value::Int(2)])
            .row(vec![Value::str("g"), Value::Int(3)])
            .source(DatasetId(1))
            .build()
            .unwrap();
        let b = RelationBuilder::new("b")
            .column("g", DataType::Str)
            .column("x", DataType::Int)
            .row(vec![Value::str("g"), Value::Int(4)])
            .source(DatasetId(2))
            .build()
            .unwrap();
        let mut u = a;
        for row in b.rows() {
            u.push(row.clone()).unwrap();
        }
        let m = u
            .aggregate(
                &["g"],
                &[dmp_relation::ops::AggSpec::new(
                    "x",
                    dmp_relation::ops::AggFun::Sum,
                    "total",
                )],
            )
            .unwrap();
        let rows = RowAllocation::uniform(&m, 40.0);
        let shares = share_revenue(&m, &rows, SharingRule::ProportionalToAtoms);
        let d1 = shares.iter().find(|s| s.dataset == DatasetId(1)).unwrap();
        let d2 = shares.iter().find(|s| s.dataset == DatasetId(2)).unwrap();
        assert!((d1.amount - 30.0).abs() < 1e-9);
        assert!((d2.amount - 10.0).abs() < 1e-9);

        // EqualPerDataset ignores the 3:1 atom ratio.
        let eq = share_revenue(&m, &rows, SharingRule::EqualPerDataset);
        assert!((eq[0].amount - 20.0).abs() < 1e-9);
        assert!((eq[1].amount - 20.0).abs() < 1e-9);
    }

    #[test]
    fn provenance_free_rows_go_to_arbiter() {
        let m = RelationBuilder::new("synth")
            .column("x", DataType::Int)
            .row(vec![Value::Int(1)])
            .build()
            .unwrap();
        let rows = RowAllocation::uniform(&m, 10.0);
        let shares = share_revenue(&m, &rows, SharingRule::ProportionalToAtoms);
        assert_eq!(shares.len(), 1);
        assert_eq!(shares[0].dataset, DatasetId(u64::MAX));
        assert!((shares[0].amount - 10.0).abs() < 1e-9);
    }

    #[test]
    fn conservation_under_weighted_rows() {
        let m = joined_mashup();
        let rows = RowAllocation::weighted(&m, 77.0, &[3.0, 1.0]);
        let shares = share_revenue(&m, &rows, SharingRule::ProportionalToAtoms);
        assert!((total_shared(&shares) - 77.0).abs() < 1e-9);
    }

    #[test]
    fn zero_price_zero_shares() {
        let m = joined_mashup();
        let rows = RowAllocation::uniform(&m, 0.0);
        let shares = share_revenue(&m, &rows, SharingRule::ProportionalToAtoms);
        assert!(total_shared(&shares).abs() < 1e-12);
    }
}
