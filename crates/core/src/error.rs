//! Error type for the DMMS.

use std::fmt;

use dmp_relation::{DatasetId, RelError};

/// Result alias for market operations.
pub type MarketResult<T> = Result<T, MarketError>;

/// Errors surfaced by the market platform.
#[derive(Debug, Clone, PartialEq)]
pub enum MarketError {
    /// Underlying relational error.
    Relation(RelError),
    /// Referenced dataset is not registered.
    UnknownDataset(DatasetId),
    /// Referenced participant has no account.
    UnknownParticipant(String),
    /// Referenced offer/transaction/delivery id is unknown.
    UnknownId(u64),
    /// Buyer lacks funds for a payment.
    InsufficientFunds {
        /// Account name.
        account: String,
        /// Required amount.
        needed: f64,
        /// Available amount.
        available: f64,
    },
    /// A credit would overflow the ledger's integer micro-credit
    /// storage. The operation is refused with **no state change** —
    /// silently clamping would break the conservation invariant
    /// (`total_supply == sum of deposits`) without any caller noticing.
    BalanceOverflow {
        /// The account (or escrow) whose balance would overflow.
        account: String,
    },
    /// A license forbids the attempted operation.
    LicenseViolation(String),
    /// The seller platform refused a registration (e.g. PII found).
    RegistrationRefused(String),
    /// A private release's ε exceeds its declared budget.
    PrivacyBudget(String),
    /// No mashup could satisfy the WTP-function.
    NoMashup,
    /// The offer expired before it could be served.
    OfferExpired(u64),
    /// Generic invalid argument.
    Invalid(String),
}

impl fmt::Display for MarketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarketError::Relation(e) => write!(f, "relation error: {e}"),
            MarketError::UnknownDataset(d) => write!(f, "unknown dataset {d}"),
            MarketError::UnknownParticipant(p) => write!(f, "unknown participant {p}"),
            MarketError::UnknownId(i) => write!(f, "unknown id {i}"),
            MarketError::InsufficientFunds {
                account,
                needed,
                available,
            } => write!(
                f,
                "insufficient funds in {account}: need {needed}, have {available}"
            ),
            MarketError::BalanceOverflow { account } => {
                write!(f, "balance overflow in {account}: credit refused")
            }
            MarketError::LicenseViolation(m) => write!(f, "license violation: {m}"),
            MarketError::RegistrationRefused(m) => write!(f, "registration refused: {m}"),
            MarketError::PrivacyBudget(m) => write!(f, "privacy budget: {m}"),
            MarketError::NoMashup => write!(f, "no mashup satisfies the WTP-function"),
            MarketError::OfferExpired(id) => write!(f, "offer {id} expired"),
            MarketError::Invalid(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for MarketError {}

impl From<RelError> for MarketError {
    fn from(e: RelError) -> Self {
        MarketError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_specifics() {
        let e = MarketError::InsufficientFunds {
            account: "b1".into(),
            needed: 10.0,
            available: 2.0,
        };
        let s = e.to_string();
        assert!(s.contains("b1") && s.contains("10") && s.contains('2'));
    }

    #[test]
    fn from_rel_error() {
        let e: MarketError = RelError::UnknownColumn("x".into()).into();
        assert!(matches!(e, MarketError::Relation(_)));
    }
}
