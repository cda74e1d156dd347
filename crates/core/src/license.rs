//! Data licensing and contextual integrity (§4.4): "sellers can assign
//! different licenses to the datasets they share that would confer
//! different rights to the beneficiary", including exclusive access whose
//! "artificial scarcity [...] should cost more to buyers, who could be
//! forced to pay a 'tax'", ownership transfers (enabling arbitrageurs,
//! §7.1), and non-transferable grants. Contextual-integrity policies \[71\]
//! restrict *who* may receive data *for what purpose*.

/// A license attached to a dataset by its seller.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum License {
    /// Non-exclusive use; no resale.
    #[default]
    Standard,
    /// Exclusive access while held; buyers pay an uplift ("tax") of
    /// `tax_rate` on top of the market price, and other buyers are
    /// denied mashups containing this dataset for the hold duration.
    Exclusive {
        /// Price uplift fraction (0.5 = +50 %).
        tax_rate: f64,
        /// Rounds the exclusivity lasts after purchase.
        hold_rounds: u32,
    },
    /// Full ownership transfer: the buyer may resell (arbitrageur path).
    OwnershipTransfer,
    /// Use only; the beneficiary may not re-share even derived data.
    NonTransferable,
}

impl License {
    /// Multiplier applied to the market price.
    pub fn price_multiplier(&self) -> f64 {
        match self {
            License::Exclusive { tax_rate, .. } => 1.0 + tax_rate.max(0.0),
            License::OwnershipTransfer => 1.25, // transfers price above use-rights
            _ => 1.0,
        }
    }

    /// May the beneficiary resell data acquired under this license?
    pub fn allows_resale(&self) -> bool {
        matches!(self, License::OwnershipTransfer)
    }

    /// Does a purchase under this license lock other buyers out?
    pub fn is_exclusive(&self) -> bool {
        matches!(self, License::Exclusive { .. })
    }

    /// How long an exclusivity hold lasts (0 for non-exclusive).
    pub fn hold_rounds(&self) -> u32 {
        match self {
            License::Exclusive { hold_rounds, .. } => *hold_rounds,
            _ => 0,
        }
    }
}

/// A contextual-integrity policy: information flows are appropriate only
/// within their originating context, to permitted recipient roles, and
/// never for forbidden purposes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContextualIntegrityPolicy {
    /// The norm's context (e.g. "healthcare").
    pub context: String,
    /// Recipient roles allowed to receive the data; empty = any role.
    pub allowed_roles: Vec<String>,
    /// Purposes for which transmission is forbidden (e.g. "advertising").
    pub forbidden_purposes: Vec<String>,
}

impl ContextualIntegrityPolicy {
    /// An unconstrained policy.
    pub fn open() -> Self {
        Self::default()
    }

    /// A policy restricted to roles within a context.
    pub fn restricted(
        context: impl Into<String>,
        allowed_roles: Vec<String>,
        forbidden_purposes: Vec<String>,
    ) -> Self {
        ContextualIntegrityPolicy {
            context: context.into(),
            allowed_roles,
            forbidden_purposes,
        }
    }

    /// Does this policy permit transmission to `role` for `purpose`?
    pub fn permits(&self, role: &str, purpose: &str) -> bool {
        if self
            .forbidden_purposes
            .iter()
            .any(|p| p.eq_ignore_ascii_case(purpose))
        {
            return false;
        }
        self.allowed_roles.is_empty()
            || self
                .allowed_roles
                .iter()
                .any(|r| r.eq_ignore_ascii_case(role))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_tax_raises_price() {
        let l = License::Exclusive {
            tax_rate: 0.5,
            hold_rounds: 3,
        };
        assert!((l.price_multiplier() - 1.5).abs() < 1e-12);
        assert!(l.is_exclusive());
        assert_eq!(l.hold_rounds(), 3);
    }

    #[test]
    fn standard_license_neutral() {
        let l = License::Standard;
        assert_eq!(l.price_multiplier(), 1.0);
        assert!(!l.allows_resale());
        assert!(!l.is_exclusive());
        assert_eq!(l.hold_rounds(), 0);
    }

    #[test]
    fn ownership_transfer_allows_resale() {
        assert!(License::OwnershipTransfer.allows_resale());
        assert!(License::OwnershipTransfer.price_multiplier() > 1.0);
        assert!(!License::NonTransferable.allows_resale());
    }

    #[test]
    fn negative_tax_clamped() {
        let l = License::Exclusive {
            tax_rate: -0.9,
            hold_rounds: 1,
        };
        assert_eq!(l.price_multiplier(), 1.0);
    }

    #[test]
    fn ci_policy_blocks_forbidden_purpose() {
        let p = ContextualIntegrityPolicy::restricted(
            "healthcare",
            vec!["clinician".into(), "researcher".into()],
            vec!["advertising".into()],
        );
        assert!(p.permits("clinician", "treatment"));
        assert!(p.permits("Researcher", "study")); // case-insensitive role
        assert!(!p.permits("clinician", "Advertising"));
        assert!(!p.permits("broker", "treatment"));
    }

    #[test]
    fn open_policy_permits_everything() {
        let p = ContextualIntegrityPolicy::open();
        assert!(p.permits("anyone", "anything"));
    }
}
