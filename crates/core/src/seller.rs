//! The Seller Management Platform (§4.2): "communicates with the AMS to
//! share datasets and receive profit, to coordinate private data release
//! procedures, as well as to agree on changes to the dataset that may
//! improve the seller's chances of participating in a profitable
//! transaction."

use dmp_discovery::LineageEvent;
use dmp_integration::mapping::{mapping_table, Mapping};
use dmp_privacy::anonymize::k_anonymize;
use dmp_privacy::dp::{perturb_numeric_column, DpParams};
use dmp_privacy::pii::detect_pii;
use dmp_relation::{DatasetId, Relation};
use rand::SeedableRng;

use crate::error::{MarketError, MarketResult};
use crate::license::{ContextualIntegrityPolicy, License};
use crate::market::DataMarket;
use crate::trust::AuditEvent;

/// What the seller sees about one of their datasets (accountability,
/// §4.2: "track how their datasets are being sold in the market").
#[derive(Debug, Clone)]
pub struct AccountabilityReport {
    /// The dataset.
    pub dataset: DatasetId,
    /// Mashups (by offer label) the dataset participated in.
    pub mashups: Vec<String>,
    /// Total revenue earned.
    pub revenue: f64,
    /// Privacy budget spent on releases.
    pub privacy_spent: f64,
    /// Raw lineage events.
    pub events: Vec<LineageEvent>,
}

/// Seller-facing handle onto a market.
pub struct SellerHandle<'m> {
    market: &'m DataMarket,
    name: String,
}

impl<'m> SellerHandle<'m> {
    pub(crate) fn new(market: &'m DataMarket, name: &str) -> Self {
        SellerHandle {
            market,
            name: name.to_string(),
        }
    }

    /// Current balance.
    pub fn balance(&self) -> f64 {
        self.market.balance(&self.name)
    }

    /// Share a dataset with the market. Refused when PII is detected —
    /// use [`SellerHandle::share_private`] or
    /// [`SellerHandle::share_anonymized`] instead (FAQ: "the DMMS offers
    /// tools that help to reduce the risk of leaking data").
    pub fn share(&self, rel: Relation) -> MarketResult<DatasetId> {
        let findings = detect_pii(&rel, 0.5);
        if !findings.is_empty() {
            let cols: Vec<String> = findings
                .iter()
                .map(|f| format!("{} ({:?})", f.column, f.kind))
                .collect();
            return Err(MarketError::RegistrationRefused(format!(
                "PII detected in columns: {}",
                cols.join(", ")
            )));
        }
        Ok(self.register(rel))
    }

    fn register(&self, rel: Relation) -> DatasetId {
        let name = rel.name().to_string();
        // Keep registration timestamps on the market's clock so buyers'
        // freshness constraints compare like with like.
        self.market.metadata.sync_clock(self.market.now());
        let id = self.market.metadata.register(name, &self.name, rel);
        self.market.audit.record(AuditEvent::DatasetRegistered {
            dataset: id,
            seller: self.name.clone(),
        });
        let grant = self.market.config().currency.share_grant();
        if grant > 0.0 {
            self.market.ledger.deposit(&self.name, grant);
        }
        id
    }

    /// Share with differential privacy: numeric columns are Laplace-
    /// perturbed before registration. A release whose ε exceeds
    /// `total_budget` is refused; an accepted one is a fresh dataset,
    /// and its ε is recorded in the lineage as a `PrivateRelease`
    /// (summed by [`AccountabilityReport::privacy_spent`]) and in the
    /// audit chain.
    pub fn share_private(
        &self,
        rel: Relation,
        numeric_cols: &[&str],
        params: DpParams,
        total_budget: f64,
    ) -> MarketResult<DatasetId> {
        if params.epsilon > total_budget {
            return Err(MarketError::PrivacyBudget(format!(
                "release ε={} exceeds declared budget {total_budget}",
                params.epsilon
            )));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.market.config().seed ^ 0x5eed);
        let mut released = rel;
        for col in numeric_cols {
            released = perturb_numeric_column(&released, col, params, &mut rng)?;
        }
        let id = self.register(released);
        self.market.lineage.record(
            id,
            LineageEvent::PrivateRelease {
                epsilon: params.epsilon,
            },
        );
        self.market.audit.record(AuditEvent::PrivacyRelease {
            dataset: id,
            epsilon: params.epsilon,
        });
        Ok(id)
    }

    /// Share a k-anonymized release (quasi-identifiers generalized /
    /// suppressed).
    pub fn share_anonymized(
        &self,
        rel: Relation,
        quasi_identifiers: &[&str],
        k: usize,
    ) -> MarketResult<DatasetId> {
        let report = k_anonymize(&rel, quasi_identifiers, k)?;
        Ok(self.register(report.relation))
    }

    /// Update a dataset's contents (bumps its version + snapshot).
    pub fn update(&self, dataset: DatasetId, rel: Relation) -> MarketResult<u32> {
        self.assert_owner(dataset)?;
        self.market.metadata.sync_clock(self.market.now());
        let v = self
            .market
            .metadata
            .update(dataset, rel)
            .ok_or(MarketError::UnknownDataset(dataset))?;
        self.market
            .lineage
            .record(dataset, LineageEvent::Updated { version: v });
        Ok(v)
    }

    /// Withdraw a dataset from the market.
    pub fn withdraw(&self, dataset: DatasetId) -> MarketResult<()> {
        self.assert_owner(dataset)?;
        if self.market.metadata.remove(dataset) {
            Ok(())
        } else {
            Err(MarketError::UnknownDataset(dataset))
        }
    }

    /// Set a reserve price: no mashup containing this dataset sells below
    /// the sum of its datasets' reserves.
    pub fn set_reserve(&self, dataset: DatasetId, reserve: f64) -> MarketResult<()> {
        self.assert_owner(dataset)?;
        self.market
            .terms
            .lock()
            .reserves
            .insert(dataset, reserve.max(0.0));
        Ok(())
    }

    /// Attach a license (§4.4).
    pub fn set_license(&self, dataset: DatasetId, license: License) -> MarketResult<()> {
        self.assert_owner(dataset)?;
        self.market.terms.lock().licenses.insert(dataset, license);
        Ok(())
    }

    /// Attach a contextual-integrity policy.
    pub fn set_ci_policy(
        &self,
        dataset: DatasetId,
        policy: ContextualIntegrityPolicy,
    ) -> MarketResult<()> {
        self.assert_owner(dataset)?;
        self.market.terms.lock().ci_policies.insert(dataset, policy);
        Ok(())
    }

    /// Respond to a negotiation round with a semantic annotation (§4.1:
    /// "the AMS may ask the seller to explain how to transform an
    /// attribute [...] or semantic annotations").
    pub fn annotate(&self, dataset: DatasetId, tag: impl Into<String>) -> MarketResult<()> {
        self.assert_owner(dataset)?;
        if self.market.metadata.add_tag(dataset, tag) {
            Ok(())
        } else {
            Err(MarketError::UnknownDataset(dataset))
        }
    }

    /// Respond to a negotiation round with a mapping table that links an
    /// obfuscated attribute back to the plain one (the `f(d) → d` case).
    /// The table registers as a regular dataset the DoD engine can join.
    pub fn publish_mapping_table(
        &self,
        name: &str,
        from_col: &str,
        to_col: &str,
        mapping: &Mapping,
    ) -> MarketResult<DatasetId> {
        let table = mapping_table(name, mapping)?
            .rename("from", from_col)?
            .rename("to", to_col)?;
        Ok(self.register(table))
    }

    /// The accountability report for one of the seller's datasets.
    pub fn accountability(&self, dataset: DatasetId) -> MarketResult<AccountabilityReport> {
        self.assert_owner(dataset)?;
        Ok(AccountabilityReport {
            dataset,
            mashups: self.market.lineage.mashups(dataset),
            revenue: self.market.lineage.total_revenue(dataset),
            privacy_spent: self.market.lineage.privacy_spent(dataset),
            events: self
                .market
                .lineage
                .events(dataset)
                .into_iter()
                .map(|(_, e)| e)
                .collect(),
        })
    }

    fn assert_owner(&self, dataset: DatasetId) -> MarketResult<()> {
        match self
            .market
            .metadata
            .with_entry(dataset, |e| e.owner == self.name)
        {
            Some(true) => Ok(()),
            Some(false) => Err(MarketError::LicenseViolation(format!(
                "{} does not own {dataset}",
                self.name
            ))),
            None => Err(MarketError::UnknownDataset(dataset)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketConfig;
    use dmp_relation::builder::keyed_rel;
    use dmp_relation::{DataType, RelationBuilder, Value};

    fn market() -> DataMarket {
        DataMarket::new(MarketConfig::external(5))
    }

    #[test]
    fn share_and_accountability() {
        let m = market();
        let s = m.seller("alice");
        let id = s.share(keyed_rel("t", &[(1, "x")])).unwrap();
        let report = s.accountability(id).unwrap();
        assert_eq!(report.revenue, 0.0);
        assert!(report.mashups.is_empty());
    }

    #[test]
    fn pii_is_refused() {
        let m = market();
        let s = m.seller("alice");
        let mut b = RelationBuilder::new("users").column("email", DataType::Str);
        for i in 0..10 {
            b = b.row(vec![Value::str(format!("u{i}@mail.com"))]);
        }
        let err = s.share(b.build().unwrap()).unwrap_err();
        assert!(matches!(err, MarketError::RegistrationRefused(m) if m.contains("email")));
    }

    #[test]
    fn private_share_perturbs_and_books_budget() {
        let m = market();
        let s = m.seller("alice");
        let mut b = RelationBuilder::new("salaries").column("pay", DataType::Float);
        for i in 0..50 {
            b = b.row(vec![Value::Float(50_000.0 + i as f64)]);
        }
        let original = b.build().unwrap();
        let id = s
            .share_private(original.clone(), &["pay"], DpParams::new(1.0, 100.0), 2.0)
            .unwrap();
        let released = m.metadata().relation(id).unwrap();
        let orig_vals = original.column_f64("pay").unwrap();
        let rel_vals = released.column_f64("pay").unwrap();
        assert!(orig_vals
            .iter()
            .zip(&rel_vals)
            .any(|(a, b)| (a - b).abs() > 1e-6));
        assert_eq!(m.lineage.privacy_spent(id), 1.0);
        assert_eq!(s.accountability(id).unwrap().privacy_spent, 1.0);
    }

    #[test]
    fn private_share_rejects_epsilon_above_budget() {
        let m = market();
        let s = m.seller("alice");
        let rel = keyed_rel("t", &[(1, "x")]);
        let err = s.share_private(rel, &[], DpParams::new(5.0, 1.0), 1.0);
        assert!(matches!(err, Err(MarketError::PrivacyBudget(_))));
    }

    #[test]
    fn anonymized_share_registers() {
        let m = market();
        let s = m.seller("alice");
        let mut b = RelationBuilder::new("patients").column("age", DataType::Int);
        for age in [30, 31, 32, 33, 50, 51, 52, 53] {
            b = b.row(vec![Value::Int(age)]);
        }
        let id = s.share_anonymized(b.build().unwrap(), &["age"], 2).unwrap();
        assert!(m.metadata().get(id).is_some());
    }

    #[test]
    fn ownership_is_enforced() {
        let m = market();
        let alice = m.seller("alice");
        let id = alice.share(keyed_rel("t", &[(1, "x")])).unwrap();
        let mallory = m.seller("mallory");
        assert!(mallory.set_reserve(id, 1.0).is_err());
        assert!(mallory.withdraw(id).is_err());
        assert!(mallory.accountability(id).is_err());
        assert!(alice.set_reserve(id, 1.0).is_ok());
    }

    #[test]
    fn update_bumps_version_and_logs() {
        let m = market();
        let s = m.seller("alice");
        let id = s.share(keyed_rel("t", &[(1, "x")])).unwrap();
        let v = s.update(id, keyed_rel("t", &[(1, "x"), (2, "y")])).unwrap();
        assert_eq!(v, 2);
        let events = m.lineage.events(id);
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, LineageEvent::Updated { version: 2 })));
    }

    #[test]
    fn mapping_table_publication() {
        let m = market();
        let s = m.seller("seller2");
        let mapping = Mapping::Dictionary(
            [
                (Value::Float(32.0), Value::Float(0.0)),
                (Value::Float(212.0), Value::Float(100.0)),
            ]
            .into_iter()
            .collect(),
        );
        let id = s
            .publish_mapping_table("fd_to_d", "fd", "d", &mapping)
            .unwrap();
        let rel = m.metadata().relation(id).unwrap();
        assert!(rel.schema().contains("fd") && rel.schema().contains("d"));
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn barter_market_grants_credits_on_share() {
        let m = DataMarket::new(MarketConfig::barter());
        let s = m.seller("alice");
        assert_eq!(s.balance(), 0.0);
        s.share(keyed_rel("t", &[(1, "x")])).unwrap();
        assert_eq!(s.balance(), 10.0);
    }
}
