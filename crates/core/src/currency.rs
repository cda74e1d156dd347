//! Incentive currencies (§3.3): "markets can be of many types: i)
//! internal to an organization [...] in which case employee compensation
//! may be bonus points; ii) external across companies where money is an
//! appropriate incentive; iii) across organizations but using the shared
//! data as the incentive".

use std::fmt;

/// The unit in which a market denominates incentives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Currency {
    /// Real money (external markets).
    Money,
    /// Internal bonus points minted by the organization.
    BonusPoints,
    /// Barter credits earned by contributing data.
    DataCredits,
}

impl Currency {
    /// Initial grant given to each participant at enrollment. External
    /// markets grant nothing (bring your own money); internal markets
    /// seed points so trade can start; barter grants nothing — credits
    /// are earned by sharing.
    pub fn enrollment_grant(self) -> f64 {
        match self {
            Currency::Money => 0.0,
            Currency::BonusPoints => 100.0,
            Currency::DataCredits => 0.0,
        }
    }

    /// Credits granted per dataset shared (barter economies reward the
    /// act of contribution itself).
    pub fn share_grant(self) -> f64 {
        match self {
            Currency::DataCredits => 10.0,
            _ => 0.0,
        }
    }
}

impl fmt::Display for Currency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Currency::Money => "money",
            Currency::BonusPoints => "bonus-points",
            Currency::DataCredits => "data-credits",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_match_market_type() {
        assert_eq!(Currency::Money.enrollment_grant(), 0.0);
        assert!(Currency::BonusPoints.enrollment_grant() > 0.0);
        assert_eq!(Currency::DataCredits.share_grant(), 10.0);
        assert_eq!(Currency::Money.share_grant(), 0.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Currency::BonusPoints.to_string(), "bonus-points");
    }
}
