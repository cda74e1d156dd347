//! Willing-to-pay functions (§3.2.2.1). The WTP-function has four
//! components: (1) a package with the data task; (2) a function assigning
//! a price to each degree of satisfaction; (3) packaged data the buyer
//! already owns; (4) a list of intrinsic dataset properties the buyer
//! cares about (expiry, freshness, authorship, provenance, quality, ...).

use dmp_relation::Relation;

/// The data-task package: what the buyer wants to compute, which
/// attributes it needs, and which metric defines satisfaction. The
/// arbiter's WTP-Evaluator (in `dmp-core`) binds each kind to an
/// executable task from `dmp-tasks`.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// Train a classifier on `label` from the other attributes; the
    /// satisfaction metric is held-out accuracy.
    Classification {
        /// Label column name.
        label: String,
    },
    /// Fit a regression on `target`; satisfaction is clamped R².
    Regression {
        /// Target column name.
        target: String,
    },
    /// Run a group-by query; satisfaction is AQP-style completeness
    /// (fraction of expected groups covered).
    AggregateCompleteness {
        /// Group-by column.
        group_by: String,
        /// Number of distinct groups the buyer expects to see.
        expected_groups: usize,
    },
    /// Satisfaction = fraction of requested attributes present with
    /// acceptable null ratios (a pure data-acquisition task).
    AttributeCoverage,
}

/// A buyer's full WTP-function.
#[derive(Debug, Clone)]
pub struct WtpFunction {
    /// The buyer principal submitting this function.
    pub buyer: String,
    /// Attributes the buyer needs (query-by-example schema, e.g.
    /// ⟨a, b, d, e⟩ in the paper's intro example).
    pub attributes: Vec<String>,
    /// Optional topic keywords for discovery.
    pub keywords: Vec<String>,
    /// The task package.
    pub task: TaskKind,
    /// satisfaction → money curve.
    pub curve: PriceCurve,
    /// Intrinsic property constraints.
    pub constraints: IntrinsicConstraints,
    /// Data the buyer already owns and will not pay for; the arbiter may
    /// augment it (the "packaged data" component).
    pub owned_data: Option<Relation>,
    /// Minimum rows for a usable mashup.
    pub min_rows: usize,
}

impl WtpFunction {
    /// A minimal WTP-function: attribute acquisition with a step curve.
    pub fn simple<S: Into<String>>(
        buyer: impl Into<String>,
        attributes: impl IntoIterator<Item = S>,
        curve: PriceCurve,
    ) -> Self {
        WtpFunction {
            buyer: buyer.into(),
            attributes: attributes.into_iter().map(Into::into).collect(),
            keywords: Vec::new(),
            task: TaskKind::AttributeCoverage,
            curve,
            constraints: IntrinsicConstraints::default(),
            owned_data: None,
            min_rows: 1,
        }
    }

    /// The maximum the buyer would ever pay (price at satisfaction 1.0).
    pub fn max_price(&self) -> f64 {
        self.curve.price(1.0)
    }
}

/// A satisfaction→price curve. Satisfaction is always in [0, 1].
#[derive(Debug, Clone, PartialEq)]
pub enum PriceCurve {
    /// Step thresholds: sorted ascending by satisfaction; the price is
    /// the highest step whose threshold is met; 0 below the first. The
    /// paper's example: "$100 for any dataset that permits the model
    /// achieve 80% accuracy, and $150 if the accuracy goes beyond 90%"
    /// is `Step(vec![(0.8, 100.0), (0.9, 150.0)])`.
    Step(Vec<(f64, f64)>),
    /// 0 below `min_satisfaction`, then linear up to `max_price` at 1.0.
    Linear {
        /// Satisfaction below which the buyer pays nothing.
        min_satisfaction: f64,
        /// Price at full satisfaction.
        max_price: f64,
    },
    /// Pay a constant regardless of satisfaction (ex post reporting uses
    /// this as the declared cap).
    Constant(f64),
}

impl PriceCurve {
    /// Price at a satisfaction level (clamped to [0, 1]).
    pub fn price(&self, satisfaction: f64) -> f64 {
        let s = satisfaction.clamp(0.0, 1.0);
        match self {
            PriceCurve::Step(steps) => {
                let mut p = 0.0;
                for &(threshold, price) in steps {
                    if s >= threshold {
                        p = price;
                    } else {
                        break;
                    }
                }
                p
            }
            PriceCurve::Linear {
                min_satisfaction,
                max_price,
            } => {
                if s < *min_satisfaction {
                    0.0
                } else if *min_satisfaction >= 1.0 {
                    *max_price
                } else {
                    max_price * (s - min_satisfaction) / (1.0 - min_satisfaction)
                }
            }
            PriceCurve::Constant(p) => *p,
        }
    }
}

/// Intrinsic-property constraints (§3.2.2.1, fourth WTP component, and
/// §2: "intrinsic properties are important insofar the buyers indicate a
/// preference as part of their data demands").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntrinsicConstraints {
    /// Data registered more than this many logical ticks ago is rejected
    /// ("the buyer may indicate the need for data not older than 2
    /// months, fearing concept drift").
    pub max_age: Option<u64>,
    /// The WTP offer itself expires at this logical time.
    pub expires_at: Option<u64>,
    /// Acceptable authors/owners; empty = anyone.
    pub authors: Vec<String>,
    /// Buyer requires provenance information on every mashup row.
    pub require_provenance: bool,
    /// Maximum tolerated per-column null ratio.
    pub max_missing_ratio: Option<f64>,
}

impl IntrinsicConstraints {
    /// Check dataset-level metadata against the constraints.
    pub fn admits_dataset(&self, registered_at: u64, owner: &str, now: u64) -> bool {
        if let Some(max_age) = self.max_age {
            if now.saturating_sub(registered_at) > max_age {
                return false;
            }
        }
        if !self.authors.is_empty() && !self.authors.iter().any(|a| a == owner) {
            return false;
        }
        true
    }

    /// Check a materialized mashup against the constraints.
    pub fn admits_mashup(&self, mashup: &Relation) -> bool {
        if self.require_provenance && mashup.rows().iter().any(|r| r.provenance().is_empty()) {
            return false;
        }
        if let Some(max_missing) = self.max_missing_ratio {
            for col in mashup.schema().names().collect::<Vec<_>>() {
                if mashup.null_ratio(col).unwrap_or(1.0) > max_missing {
                    return false;
                }
            }
        }
        true
    }

    /// Is the offer still live at `now`?
    pub fn is_live(&self, now: u64) -> bool {
        self.expires_at.is_none_or(|e| now <= e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_relation::{DataType, DatasetId, RelationBuilder, Value};

    #[test]
    fn step_curve_matches_paper_example() {
        let c = PriceCurve::Step(vec![(0.8, 100.0), (0.9, 150.0)]);
        assert_eq!(c.price(0.5), 0.0);
        assert_eq!(c.price(0.8), 100.0);
        assert_eq!(c.price(0.85), 100.0);
        assert_eq!(c.price(0.95), 150.0);
        assert_eq!(c.price(2.0), 150.0); // clamped
    }

    #[test]
    fn linear_curve_interpolates() {
        let c = PriceCurve::Linear {
            min_satisfaction: 0.5,
            max_price: 100.0,
        };
        assert_eq!(c.price(0.4), 0.0);
        assert_eq!(c.price(0.5), 0.0);
        assert!((c.price(0.75) - 50.0).abs() < 1e-9);
        assert!((c.price(1.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_linear_min_one() {
        let c = PriceCurve::Linear {
            min_satisfaction: 1.0,
            max_price: 40.0,
        };
        assert_eq!(c.price(1.0), 40.0);
        assert_eq!(c.price(0.99), 0.0);
    }

    #[test]
    fn constant_curve() {
        let c = PriceCurve::Constant(30.0);
        assert_eq!(c.price(0.0), 30.0);
        assert_eq!(c.price(1.0), 30.0);
    }

    #[test]
    fn max_price_is_full_satisfaction_price() {
        let w = WtpFunction::simple(
            "b1",
            ["a"],
            PriceCurve::Step(vec![(0.8, 100.0), (0.9, 150.0)]),
        );
        assert_eq!(w.max_price(), 150.0);
    }

    #[test]
    fn freshness_constraint() {
        let c = IntrinsicConstraints {
            max_age: Some(10),
            ..Default::default()
        };
        assert!(c.admits_dataset(95, "anyone", 100));
        assert!(!c.admits_dataset(80, "anyone", 100));
    }

    #[test]
    fn authorship_constraint() {
        let c = IntrinsicConstraints {
            authors: vec!["alice".into()],
            ..Default::default()
        };
        assert!(c.admits_dataset(0, "alice", 0));
        assert!(!c.admits_dataset(0, "bob", 0));
    }

    #[test]
    fn expiry_gates_offers() {
        let c = IntrinsicConstraints {
            expires_at: Some(50),
            ..Default::default()
        };
        assert!(c.is_live(50));
        assert!(!c.is_live(51));
        assert!(IntrinsicConstraints::default().is_live(u64::MAX));
    }

    #[test]
    fn missing_ratio_gate() {
        let r = RelationBuilder::new("m")
            .column("x", DataType::Int)
            .row(vec![Value::Int(1)])
            .row(vec![Value::Null])
            .source(DatasetId(1))
            .build()
            .unwrap();
        let tight = IntrinsicConstraints {
            max_missing_ratio: Some(0.1),
            ..Default::default()
        };
        let loose = IntrinsicConstraints {
            max_missing_ratio: Some(0.9),
            ..Default::default()
        };
        assert!(!tight.admits_mashup(&r));
        assert!(loose.admits_mashup(&r));
    }

    #[test]
    fn provenance_requirement() {
        let with_prov = RelationBuilder::new("m")
            .column("x", DataType::Int)
            .row(vec![Value::Int(1)])
            .source(DatasetId(1))
            .build()
            .unwrap();
        let without = RelationBuilder::new("m")
            .column("x", DataType::Int)
            .row(vec![Value::Int(1)])
            .build()
            .unwrap();
        let c = IntrinsicConstraints {
            require_provenance: true,
            ..Default::default()
        };
        assert!(c.admits_mashup(&with_prov));
        assert!(!c.admits_mashup(&without));
    }
}
