//! The Buyer Management Platform (§4.3): helps buyers define
//! WTP-functions, ships them to the arbiter, receives mashups, and (for
//! ex post markets) reports realized value.

use dmp_mechanism::wtp::{IntrinsicConstraints, PriceCurve, TaskKind, WtpFunction};
use dmp_relation::{DatasetId, Relation};

use crate::error::{MarketError, MarketResult};
use crate::market::{DataMarket, Delivery, Settlement};

/// Buyer-facing handle onto a market.
pub struct BuyerHandle<'m> {
    market: &'m DataMarket,
    name: String,
}

impl<'m> BuyerHandle<'m> {
    pub(crate) fn new(market: &'m DataMarket, name: &str) -> Self {
        BuyerHandle {
            market,
            name: name.to_string(),
        }
    }

    /// Current balance.
    pub fn balance(&self) -> f64 {
        self.market.balance(&self.name)
    }

    /// Deposit funds (external/money markets).
    pub fn deposit(&self, amount: f64) {
        self.market.ledger.deposit(&self.name, amount);
    }

    /// Start building a WTP-function (fluent interface; §4.3: "a BMP must
    /// help buyers define it").
    pub fn wtp<S: Into<String>>(
        &self,
        attributes: impl IntoIterator<Item = S>,
    ) -> WtpBuilder<'m, '_> {
        WtpBuilder {
            buyer: self,
            wtp: WtpFunction::simple(self.name.clone(), attributes, PriceCurve::Constant(0.0)),
            purpose: "analytics".to_string(),
        }
    }

    /// Deliveries addressed to this buyer.
    pub fn deliveries(&self) -> Vec<Delivery> {
        self.market
            .book
            .lock()
            .deliveries
            .values()
            .filter(|d| d.buyer == self.name)
            .cloned()
            .collect()
    }

    /// Report the realized value of an ex post delivery (§3.2.2.2).
    pub fn report_value(&self, delivery_id: u64, value: f64) -> MarketResult<Settlement> {
        // Ownership check before delegating.
        let owns = self
            .market
            .book
            .lock()
            .deliveries
            .get(&delivery_id)
            .is_some_and(|d| d.buyer == self.name);
        if !owns {
            return Err(MarketError::UnknownId(delivery_id));
        }
        self.market.report_value(delivery_id, value)
    }

    /// Dataset recommendations for this buyer (§4.1 arbiter services).
    pub fn recommendations(&self, k: usize) -> Vec<DatasetId> {
        self.market.recommendations(&self.name, k)
    }

    /// Open a dispute over a transaction.
    pub fn dispute(&self, tx: u64, reason: impl Into<String>) -> u64 {
        self.market.disputes.open(self.name.clone(), tx, reason)
    }
}

/// Fluent WTP-function builder.
pub struct WtpBuilder<'m, 'b> {
    buyer: &'b BuyerHandle<'m>,
    wtp: WtpFunction,
    purpose: String,
}

impl<'m, 'b> WtpBuilder<'m, 'b> {
    /// Set the task package to classification on a label column.
    pub fn classification(mut self, label: impl Into<String>) -> Self {
        self.wtp.task = TaskKind::Classification {
            label: label.into(),
        };
        self
    }

    /// Set the task to aggregate completeness.
    pub fn aggregate_completeness(
        mut self,
        group_by: impl Into<String>,
        expected_groups: usize,
    ) -> Self {
        self.wtp.task = TaskKind::AggregateCompleteness {
            group_by: group_by.into(),
            expected_groups,
        };
        self
    }

    /// Set the satisfaction→price curve.
    pub fn price_curve(mut self, curve: PriceCurve) -> Self {
        self.wtp.curve = curve;
        self
    }

    /// The paper's step example: `$base` at `threshold`, `$bonus` at
    /// `high_threshold`.
    pub fn pay_steps(mut self, steps: &[(f64, f64)]) -> Self {
        self.wtp.curve = PriceCurve::Step(steps.to_vec());
        self
    }

    /// Package owned data the buyer will not pay for (§3.2.2.1).
    pub fn with_owned_data(mut self, data: Relation) -> Self {
        self.wtp.owned_data = Some(data);
        self
    }

    /// Set intrinsic constraints.
    pub fn constraints(mut self, constraints: IntrinsicConstraints) -> Self {
        self.wtp.constraints = constraints;
        self
    }

    /// Require a minimum mashup size.
    pub fn min_rows(mut self, n: usize) -> Self {
        self.wtp.min_rows = n;
        self
    }

    /// Declare the purpose (checked against contextual integrity).
    pub fn purpose(mut self, purpose: impl Into<String>) -> Self {
        self.purpose = purpose.into();
        self
    }

    /// Submit to the market; returns the offer id.
    pub fn submit(self) -> MarketResult<u64> {
        self.buyer
            .market
            .submit_wtp_for_purpose(self.wtp, self.purpose)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::{MarketConfig, OfferState};
    use dmp_mechanism::design::MarketDesign;
    use dmp_relation::builder::keyed_rel;

    fn market() -> DataMarket {
        DataMarket::new(
            MarketConfig::external(5).with_design(MarketDesign::posted_price_baseline(10.0)),
        )
    }

    #[test]
    fn fluent_builder_produces_wtp() {
        let m = market();
        let b = m.buyer("b1");
        let offer = b
            .wtp(["a", "b", "d"])
            .classification("label")
            .pay_steps(&[(0.8, 100.0), (0.9, 150.0)])
            .min_rows(50)
            .submit()
            .unwrap();
        let wtp = m.offer(offer).unwrap().wtp;
        assert_eq!(wtp.buyer, "b1");
        assert_eq!(wtp.attributes.len(), 3);
        assert_eq!(wtp.curve.price(0.85), 100.0);
        assert_eq!(wtp.min_rows, 50);
        assert!(matches!(wtp.task, TaskKind::Classification { .. }));
    }

    #[test]
    fn end_to_end_delivery_visible_to_buyer() {
        let m = market();
        m.seller("s")
            .share(keyed_rel("t", &[(1, "x"), (2, "y")]))
            .unwrap();
        let b = m.buyer("b1");
        b.deposit(100.0);
        let offer = b
            .wtp(["k", "v"])
            .price_curve(PriceCurve::Constant(20.0))
            .submit()
            .unwrap();
        m.run_round();
        assert!(matches!(
            m.offer(offer).unwrap().state,
            OfferState::Fulfilled { .. }
        ));
        let deliveries = b.deliveries();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].relation.len(), 2);
    }

    #[test]
    fn cannot_take_others_delivery() {
        let m = market();
        m.seller("s").share(keyed_rel("t", &[(1, "x")])).unwrap();
        let b = m.buyer("b1");
        b.deposit(100.0);
        b.wtp(["k"])
            .price_curve(PriceCurve::Constant(20.0))
            .submit()
            .unwrap();
        m.run_round();
        assert_eq!(b.deliveries().len(), 1);
        assert!(m.buyer("eve").deliveries().is_empty());
    }

    #[test]
    fn dispute_opens() {
        let m = market();
        let b = m.buyer("b1");
        let id = b.dispute(0, "data was stale");
        assert_eq!(m.disputes().open_count(), 1);
        assert!(m.disputes().get(id).is_some());
    }
}
