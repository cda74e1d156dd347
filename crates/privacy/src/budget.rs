//! Per-dataset privacy-budget accounting. Sequential composition: the ε
//! of successive releases adds up; once the seller's declared budget is
//! exhausted, further releases are refused — the guardrail that makes
//! "coordinated between SMP and AMS" release protocols (§4.2) safe when
//! the arbiter combines datasets repeatedly.

use std::collections::HashMap;
use std::fmt;

use parking_lot::Mutex;

use dmp_relation::DatasetId;

/// Budget errors.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetError {
    /// The requested ε exceeds what remains.
    Exhausted {
        /// Requested ε.
        requested: f64,
        /// Remaining ε.
        remaining: f64,
    },
    /// No budget was ever registered for the dataset.
    Unregistered(DatasetId),
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::Exhausted {
                requested,
                remaining,
            } => write!(
                f,
                "privacy budget exhausted: requested ε={requested}, remaining ε={remaining}"
            ),
            BudgetError::Unregistered(d) => write!(f, "no privacy budget registered for {d}"),
        }
    }
}

impl std::error::Error for BudgetError {}

/// Thread-safe ε-budget ledger across datasets.
#[derive(Debug, Default)]
pub struct PrivacyBudget {
    ledgers: Mutex<HashMap<DatasetId, Ledger>>,
}

#[derive(Debug, Clone)]
struct Ledger {
    total: f64,
    spent: f64,
}

impl PrivacyBudget {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or reset) a dataset's total budget.
    pub fn register(&self, dataset: DatasetId, total_epsilon: f64) {
        self.ledgers.lock().insert(
            dataset,
            Ledger {
                total: total_epsilon.max(0.0),
                spent: 0.0,
            },
        );
    }

    /// Attempt to spend ε on a release. Atomic check-and-spend.
    pub fn spend(&self, dataset: DatasetId, epsilon: f64) -> Result<(), BudgetError> {
        let mut map = self.ledgers.lock();
        let ledger = map
            .get_mut(&dataset)
            .ok_or(BudgetError::Unregistered(dataset))?;
        let remaining = ledger.total - ledger.spent;
        if epsilon > remaining + 1e-12 {
            return Err(BudgetError::Exhausted {
                requested: epsilon,
                remaining,
            });
        }
        ledger.spent += epsilon;
        Ok(())
    }

    /// Remaining budget (sequential composition), or `None` if
    /// unregistered.
    pub fn remaining(&self, dataset: DatasetId) -> Option<f64> {
        self.ledgers
            .lock()
            .get(&dataset)
            .map(|l| (l.total - l.spent).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spend_within_budget_succeeds() {
        let b = PrivacyBudget::new();
        b.register(DatasetId(1), 1.0);
        assert!(b.spend(DatasetId(1), 0.4).is_ok());
        assert!(b.spend(DatasetId(1), 0.6).is_ok());
        assert!((b.remaining(DatasetId(1)).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn overspend_is_refused_and_does_not_mutate() {
        let b = PrivacyBudget::new();
        b.register(DatasetId(1), 1.0);
        b.spend(DatasetId(1), 0.9).unwrap();
        let err = b.spend(DatasetId(1), 0.2).unwrap_err();
        assert!(matches!(err, BudgetError::Exhausted { .. }));
        assert!((b.remaining(DatasetId(1)).unwrap() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn unregistered_dataset_is_an_error() {
        let b = PrivacyBudget::new();
        assert_eq!(
            b.spend(DatasetId(9), 0.1),
            Err(BudgetError::Unregistered(DatasetId(9)))
        );
        assert!(b.remaining(DatasetId(9)).is_none());
    }

    #[test]
    fn reregistration_resets() {
        let b = PrivacyBudget::new();
        b.register(DatasetId(1), 1.0);
        b.spend(DatasetId(1), 1.0).unwrap();
        b.register(DatasetId(1), 2.0);
        assert_eq!(b.remaining(DatasetId(1)), Some(2.0));
    }

    #[test]
    fn concurrent_spends_never_exceed_budget() {
        use std::sync::Arc;
        let b = Arc::new(PrivacyBudget::new());
        b.register(DatasetId(1), 10.0);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let mut ok = 0;
                for _ in 0..50 {
                    if b.spend(DatasetId(1), 0.1).is_ok() {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        let total_ok: i32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total_ok, 100, "exactly 10.0/0.1 spends must succeed");
        assert!(b.remaining(DatasetId(1)).unwrap() < 1e-9);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = BudgetError::Exhausted {
            requested: 0.5,
            remaining: 0.1,
        };
        assert!(e.to_string().contains("0.5"));
        let e = BudgetError::Unregistered(DatasetId(3));
        assert!(e.to_string().contains("d3"));
    }
}
