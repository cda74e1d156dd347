//! Transaction support (Fig. 2): a double-entry in-memory ledger with
//! escrow — the simulated substitute for real payment rails (DESIGN.md
//! substitutions table). Invariant: transfers conserve total supply;
//! only explicit deposits mint currency.
//!
//! Amounts are stored as **integer micro-credits** (1 credit =
//! 1 000 000 µ): every amount crossing the ledger boundary is rounded
//! to the nearest micro-credit before it is applied, so balances never
//! accumulate binary-float drift and the conservation invariant
//! (`total_supply == sum of deposits`) holds *exactly*, bit for bit,
//! under arbitrary interleavings of transfers, holds and releases. The
//! public API stays in `f64` credits.

#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![deny(clippy::indexing_slicing)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::error::{MarketError, MarketResult};

/// Micro-credits per credit: the fixed granularity of stored amounts.
pub const MICROS_PER_CREDIT: f64 = 1_000_000.0;

/// Largest amount (in credits) a single operation accepts; amounts are
/// clamped here at the boundary so micro-credit arithmetic on one
/// operation can never overflow `i64` (1e12 credits = 1e18 µ,
/// comfortably inside ±9.2e18). Accumulated balances use **checked**
/// arithmetic on every transfer/escrow path: a credit that would
/// overflow is refused with [`MarketError::BalanceOverflow`] and no
/// state change. Only `deposit` — the explicit mint — saturates at the
/// `i64` ceiling, and that clamp is visible in `total_supply`.
pub const MAX_AMOUNT: f64 = 1e12;

/// Round an amount in credits to whole micro-credits.
#[expect(
    clippy::float_arithmetic,
    reason = "write-side boundary: the caller's f64 amount becomes whole micro-credits here, and state never sees a float"
)]
fn to_micros(amount: f64) -> i64 {
    (amount.clamp(-MAX_AMOUNT, MAX_AMOUNT) * MICROS_PER_CREDIT).round() as i64
}

#[expect(
    clippy::float_arithmetic,
    clippy::cast_precision_loss,
    reason = "read-side boundary: balances stay i64, only the report value is f64"
)]
fn from_micros(m: i64) -> f64 {
    m as f64 / MICROS_PER_CREDIT
}

/// Escrow lifecycle.
#[derive(Debug, Clone, PartialEq)]
enum EscrowState {
    Held,
    Closed,
}

#[derive(Debug, Clone)]
struct Escrow {
    from: String,
    remaining: i64,
    state: EscrowState,
}

/// Double-entry ledger with named accounts and escrow holds.
#[derive(Debug, Default)]
pub struct Ledger {
    accounts: Mutex<BTreeMap<String, i64>>,
    escrows: Mutex<BTreeMap<u64, Escrow>>,
    next_escrow: AtomicU64,
}

impl Ledger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mint `amount` into an account (enrollment grants, deposits).
    /// Amounts below half a micro-credit are dropped.
    pub fn deposit(&self, account: &str, amount: f64) {
        let m = to_micros(amount);
        if m <= 0 {
            return;
        }
        let mut accounts = self.accounts.lock();
        let e = accounts.entry(account.to_string()).or_insert(0);
        *e = e.saturating_add(m);
    }

    /// Current balance (0 for unknown accounts).
    pub fn balance(&self, account: &str) -> f64 {
        from_micros(self.accounts.lock().get(account).copied().unwrap_or(0))
    }

    /// Transfer between accounts; fails on insufficient funds, and on a
    /// credit that would overflow the receiver (checked, not saturating:
    /// clamping the credit side while the debit side paid in full would
    /// silently destroy currency).
    pub fn transfer(&self, from: &str, to: &str, amount: f64) -> MarketResult<()> {
        if amount < 0.0 {
            return Err(MarketError::Invalid("negative transfer".into()));
        }
        let m = to_micros(amount);
        if m == 0 {
            return Ok(());
        }
        let mut accounts = self.accounts.lock();
        let available = accounts.get(from).copied().unwrap_or(0);
        if available < m {
            return Err(MarketError::InsufficientFunds {
                account: from.to_string(),
                needed: amount,
                available: from_micros(available),
            });
        }
        *accounts.entry(from.to_string()).or_insert(0) -= m;
        let to_entry = accounts.entry(to.to_string()).or_insert(0);
        match to_entry.checked_add(m) {
            Some(v) => {
                *to_entry = v;
                Ok(())
            }
            None => {
                // Undo the debit under the same lock: a refused
                // transfer leaves no partial state.
                *accounts.entry(from.to_string()).or_insert(0) += m;
                Err(MarketError::BalanceOverflow {
                    account: to.to_string(),
                })
            }
        }
    }

    /// Hold `amount` from an account in escrow; returns the escrow id.
    pub fn hold(&self, from: &str, amount: f64) -> MarketResult<u64> {
        if amount < 0.0 {
            return Err(MarketError::Invalid("negative escrow".into()));
        }
        let m = to_micros(amount);
        {
            let mut accounts = self.accounts.lock();
            let available = accounts.get(from).copied().unwrap_or(0);
            if available < m {
                return Err(MarketError::InsufficientFunds {
                    account: from.to_string(),
                    needed: amount,
                    available: from_micros(available),
                });
            }
            *accounts.entry(from.to_string()).or_insert(0) -= m;
        }
        let id = self.next_escrow.fetch_add(1, Ordering::Relaxed);
        self.escrows.lock().insert(
            id,
            Escrow {
                from: from.to_string(),
                remaining: m,
                state: EscrowState::Held,
            },
        );
        Ok(id)
    }

    /// Micro-credits of payout overshoot `release_up_to` absorbs: each
    /// payout in a revenue split rounds independently (≤ 0.5 µ each),
    /// so the final one can exceed the (also rounded) hold by the
    /// accumulated dust — bounded well below this for any realistic
    /// share count. Larger overshoots are real accounting bugs and
    /// still fail loudly.
    const RELEASE_DUST_MICROS: i64 = 100;

    /// Pay `min(amount, remaining)` out of an escrow to `to`, returning
    /// what was actually paid. This is the payout used by settlement,
    /// where "the rest of the hold" is the intent; the clamp tolerates
    /// only rounding dust (`RELEASE_DUST_MICROS`).
    pub fn release_up_to(&self, escrow: u64, to: &str, amount: f64) -> MarketResult<f64> {
        if amount < 0.0 {
            return Err(MarketError::Invalid("negative release".into()));
        }
        let mut escrows = self.escrows.lock();
        let e = escrows
            .get_mut(&escrow)
            .ok_or(MarketError::UnknownId(escrow))?;
        if e.state != EscrowState::Held {
            return Err(MarketError::Invalid("escrow already closed".into()));
        }
        let requested = to_micros(amount);
        if requested > e.remaining.saturating_add(Self::RELEASE_DUST_MICROS) {
            return Err(MarketError::InsufficientFunds {
                account: format!("escrow#{escrow}"),
                needed: amount,
                available: from_micros(e.remaining),
            });
        }
        let m = requested.min(e.remaining);
        if m <= 0 {
            return Ok(0.0);
        }
        let mut accounts = self.accounts.lock();
        let to_entry = accounts.entry(to.to_string()).or_insert(0);
        let credited = to_entry
            .checked_add(m)
            .ok_or_else(|| MarketError::BalanceOverflow {
                account: to.to_string(),
            })?;
        *to_entry = credited;
        e.remaining -= m;
        Ok(from_micros(m))
    }

    /// Close the escrow, refunding whatever remains to the holder.
    /// Returns the refunded amount.
    pub fn close(&self, escrow: u64) -> MarketResult<f64> {
        let mut escrows = self.escrows.lock();
        let e = escrows
            .get_mut(&escrow)
            .ok_or(MarketError::UnknownId(escrow))?;
        if e.state != EscrowState::Held {
            return Err(MarketError::Invalid("escrow already closed".into()));
        }
        // Checked refund first: on overflow the escrow stays held (and
        // its funds stay counted) instead of silently clamping away.
        let refund = e.remaining;
        let mut accounts = self.accounts.lock();
        let from_entry = accounts.entry(e.from.clone()).or_insert(0);
        let refunded =
            from_entry
                .checked_add(refund)
                .ok_or_else(|| MarketError::BalanceOverflow {
                    account: e.from.clone(),
                })?;
        *from_entry = refunded;
        e.state = EscrowState::Closed;
        e.remaining = 0;
        Ok(from_micros(refund))
    }

    /// Funds still held in an open escrow (`None` for unknown/closed).
    pub fn escrow_remaining(&self, escrow: u64) -> Option<f64> {
        self.escrows
            .lock()
            .get(&escrow)
            .filter(|e| e.state == EscrowState::Held)
            .map(|e| from_micros(e.remaining))
    }

    /// Total currency across accounts and open escrows (conservation
    /// invariant: only `deposit` changes this).
    pub fn total_supply(&self) -> f64 {
        let accounts: i64 = self
            .accounts
            .lock()
            .values()
            .fold(0i64, |acc, &v| acc.saturating_add(v));
        let escrowed: i64 = self
            .escrows
            .lock()
            .values()
            .filter(|e| e.state == EscrowState::Held)
            .fold(0i64, |acc, e| acc.saturating_add(e.remaining));
        from_micros(accounts.saturating_add(escrowed))
    }

    /// All account balances, sorted by name (for reports and snapshots).
    /// `BTreeMap` iteration is already name-ordered.
    pub fn balances(&self) -> Vec<(String, f64)> {
        self.accounts
            .lock()
            .iter()
            .map(|(k, &v)| (k.clone(), from_micros(v)))
            .collect()
    }

    /// All open escrow holds as `(escrow_id, holder, remaining)`, sorted
    /// by id (for snapshots and durability digests). `BTreeMap`
    /// iteration is already id-ordered.
    pub fn escrow_holds(&self) -> Vec<(u64, String, f64)> {
        self.escrows
            .lock()
            .iter()
            .filter(|(_, e)| e.state == EscrowState::Held)
            .map(|(&id, e)| (id, e.from.clone(), from_micros(e.remaining)))
            .collect()
    }

    /// Exact ledger state for materialized snapshots, in integer
    /// micro-credits so the round trip is bit-identical: account
    /// balances, *all* escrows (closed ones keep their ids occupied and
    /// must survive so `next_escrow` stays consistent with the map),
    /// and the next escrow id.
    pub fn export_state(&self) -> LedgerImage {
        let accounts = self
            .accounts
            .lock()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        let escrows = self
            .escrows
            .lock()
            .iter()
            .map(|(&id, e)| EscrowImage {
                id,
                from: e.from.clone(),
                remaining_micros: e.remaining,
                held: e.state == EscrowState::Held,
            })
            .collect();
        LedgerImage {
            accounts,
            escrows,
            next_escrow: self.next_escrow.load(Ordering::SeqCst),
        }
    }

    /// Replace the ledger's contents with a previously exported image
    /// (recovery from a materialized snapshot).
    pub fn restore_state(&self, image: LedgerImage) {
        // Lock order matches the payout paths: escrows before accounts.
        let mut escrows = self.escrows.lock();
        let mut accounts = self.accounts.lock();
        accounts.clear();
        for (name, micros) in image.accounts {
            accounts.insert(name, micros);
        }
        escrows.clear();
        for e in image.escrows {
            escrows.insert(
                e.id,
                Escrow {
                    from: e.from,
                    remaining: e.remaining_micros,
                    state: if e.held {
                        EscrowState::Held
                    } else {
                        EscrowState::Closed
                    },
                },
            );
        }
        self.next_escrow.store(image.next_escrow, Ordering::SeqCst);
    }
}

/// One escrow entry in a [`LedgerImage`].
#[derive(Debug, Clone, PartialEq)]
pub struct EscrowImage {
    /// Escrow id.
    pub id: u64,
    /// Account the hold was taken from.
    pub from: String,
    /// Funds still held, in micro-credits.
    pub remaining_micros: i64,
    /// Whether the escrow is still open.
    pub held: bool,
}

/// Bit-exact ledger state (micro-credits), used by snapshot encode and
/// recovery restore.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerImage {
    /// Account balances in micro-credits, name-sorted.
    pub accounts: Vec<(String, i64)>,
    /// Every escrow, open or closed, id-sorted.
    pub escrows: Vec<EscrowImage>,
    /// The next escrow id to allocate.
    pub next_escrow: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deposit_and_transfer() {
        let l = Ledger::new();
        l.deposit("alice", 100.0);
        l.transfer("alice", "bob", 30.0).unwrap();
        assert_eq!(l.balance("alice"), 70.0);
        assert_eq!(l.balance("bob"), 30.0);
        assert_eq!(l.total_supply(), 100.0);
    }

    #[test]
    fn overdraft_refused() {
        let l = Ledger::new();
        l.deposit("alice", 10.0);
        let err = l.transfer("alice", "bob", 20.0).unwrap_err();
        assert!(matches!(err, MarketError::InsufficientFunds { .. }));
        assert_eq!(l.balance("alice"), 10.0);
        assert_eq!(l.balance("bob"), 0.0);
    }

    #[test]
    fn zero_and_negative_transfers() {
        let l = Ledger::new();
        l.deposit("a", 5.0);
        assert!(l.transfer("a", "b", 0.0).is_ok());
        assert!(l.transfer("a", "b", -1.0).is_err());
    }

    #[test]
    fn amounts_round_to_micro_credits() {
        let l = Ledger::new();
        // Sub-micro residue is rounded away at the boundary: classic
        // float drift like 0.1 + 0.2 stores exactly 0.3.
        l.deposit("a", 0.1);
        l.deposit("a", 0.2);
        assert_eq!(l.balance("a"), 0.3);
        // Below half a micro-credit a deposit is a no-op.
        l.deposit("a", 4e-7);
        assert_eq!(l.balance("a"), 0.3);
        // A transfer computed with float error still conserves exactly.
        l.transfer("a", "b", 0.1 + 0.2 - 0.3 + 0.1).unwrap();
        assert_eq!(l.balance("b"), 0.1);
        assert_eq!(l.total_supply(), 0.3);
    }

    #[test]
    fn escrow_lifecycle_conserves_supply() {
        let l = Ledger::new();
        l.deposit("buyer", 100.0);
        let e = l.hold("buyer", 60.0).unwrap();
        assert_eq!(l.balance("buyer"), 40.0);
        assert_eq!(l.total_supply(), 100.0);

        l.release_up_to(e, "seller", 45.0).unwrap();
        assert_eq!(l.balance("seller"), 45.0);
        assert_eq!(l.total_supply(), 100.0);

        let refund = l.close(e).unwrap();
        assert_eq!(refund, 15.0);
        assert_eq!(l.balance("buyer"), 55.0);
        assert_eq!(l.total_supply(), 100.0);
    }

    #[test]
    fn release_up_to_absorbs_rounding_dust() {
        let l = Ledger::new();
        l.deposit("buyer", 1.0);
        // Hold 10.5 µ; three "equal" shares of 3.5 µ each round to 4 µ,
        // so the third asks for 1 µ more than is left. release_up_to
        // pays out the remainder instead.
        let e = l.hold("buyer", 0.0000105).unwrap();
        assert_eq!(l.release_up_to(e, "s1", 0.0000035).unwrap(), 0.000004);
        assert_eq!(l.release_up_to(e, "s2", 0.0000035).unwrap(), 0.000004);
        let third = l.release_up_to(e, "s3", 0.0000035).unwrap();
        assert_eq!(third, 0.000003, "last share clamps to the remainder");
        assert_eq!(l.escrow_remaining(e), Some(0.0));
        assert_eq!(l.total_supply(), 1.0);
        // Still strict about lifecycle and about non-dust overshoots.
        l.close(e).unwrap();
        assert!(l.release_up_to(e, "s1", 0.1).is_err());
        let e2 = l.hold("buyer", 0.5).unwrap();
        assert!(
            l.release_up_to(e2, "s1", 0.6).is_err(),
            "whole-credit overshoot is an accounting bug, not dust"
        );
    }

    #[test]
    fn oversized_amounts_clamp_instead_of_overflowing() {
        let l = Ledger::new();
        // Far beyond MAX_AMOUNT: clamped at the boundary, and repeated
        // deposits saturate instead of wrapping negative.
        l.deposit("whale", 1e300);
        assert_eq!(l.balance("whale"), MAX_AMOUNT);
        for _ in 0..12 {
            l.deposit("whale", MAX_AMOUNT);
        }
        assert!(l.balance("whale") > 0.0, "no wraparound to negative");
        assert!(l.total_supply() > 0.0);
    }

    /// Saturate an account at the `i64` micro-credit ceiling via the
    /// (documented, clamping) mint path.
    fn max_out(l: &Ledger, account: &str) {
        for _ in 0..12 {
            l.deposit(account, MAX_AMOUNT);
        }
    }

    #[test]
    fn transfer_into_full_account_is_refused_not_clamped() {
        let l = Ledger::new();
        max_out(&l, "whale");
        l.deposit("minnow", 10.0);
        let whale_before = l.balance("whale");
        let err = l.transfer("minnow", "whale", 10.0).unwrap_err();
        assert!(matches!(err, MarketError::BalanceOverflow { ref account } if account == "whale"));
        // No partial state: the debit rolled back, the ceiling held.
        assert_eq!(l.balance("minnow"), 10.0);
        assert_eq!(l.balance("whale"), whale_before);
        // A self-transfer near the ceiling is a no-op, not an inflation.
        l.transfer("whale", "whale", 1.0).unwrap();
        assert_eq!(l.balance("whale"), whale_before);
    }

    #[test]
    fn escrow_release_into_full_account_is_refused() {
        let l = Ledger::new();
        max_out(&l, "whale");
        l.deposit("buyer", 20.0);
        let e = l.hold("buyer", 20.0).unwrap();
        assert!(matches!(
            l.release_up_to(e, "whale", 5.0),
            Err(MarketError::BalanceOverflow { .. })
        ));
        // The hold is untouched and still pays out elsewhere.
        assert_eq!(l.escrow_remaining(e), Some(20.0));
        l.release_up_to(e, "seller", 20.0).unwrap();
    }

    #[test]
    fn escrow_refund_overflow_keeps_the_hold_open() {
        let l = Ledger::new();
        l.deposit("whale", 100.0);
        let e = l.hold("whale", 50.0).unwrap();
        max_out(&l, "whale");
        let err = l.close(e).unwrap_err();
        assert!(matches!(err, MarketError::BalanceOverflow { .. }));
        // Still held (not silently zeroed), so the funds stay counted.
        assert_eq!(l.escrow_remaining(e), Some(50.0));
        // Payouts to a roomy account still drain it; the emptied escrow
        // then closes cleanly.
        l.release_up_to(e, "seller", 50.0).unwrap();
        l.close(e).unwrap();
    }

    #[test]
    fn escrow_cannot_overpay() {
        let l = Ledger::new();
        l.deposit("buyer", 10.0);
        let e = l.hold("buyer", 10.0).unwrap();
        assert!(l.release_up_to(e, "s", 11.0).is_err());
        l.release_up_to(e, "s", 10.0).unwrap();
        assert!(l.release_up_to(e, "s", 0.1).is_err());
    }

    #[test]
    fn closed_escrow_rejects_operations() {
        let l = Ledger::new();
        l.deposit("b", 5.0);
        let e = l.hold("b", 5.0).unwrap();
        l.close(e).unwrap();
        assert!(l.close(e).is_err());
        assert!(l.release_up_to(e, "s", 1.0).is_err());
    }

    #[test]
    fn unknown_escrow_is_error() {
        let l = Ledger::new();
        assert!(matches!(l.close(42), Err(MarketError::UnknownId(42))));
    }

    #[test]
    fn hold_requires_funds() {
        let l = Ledger::new();
        assert!(l.hold("nobody", 1.0).is_err());
    }

    #[test]
    fn balances_sorted() {
        let l = Ledger::new();
        l.deposit("zed", 1.0);
        l.deposit("amy", 2.0);
        let b = l.balances();
        assert_eq!(b[0].0, "amy");
        assert_eq!(b[1].0, "zed");
    }

    #[test]
    fn escrow_holds_enumerates_open_holds() {
        let l = Ledger::new();
        l.deposit("b", 30.0);
        let e1 = l.hold("b", 10.0).unwrap();
        let e2 = l.hold("b", 5.0).unwrap();
        l.close(e1).unwrap();
        let holds = l.escrow_holds();
        assert_eq!(holds, vec![(e2, "b".to_string(), 5.0)]);
    }

    #[test]
    fn concurrent_transfers_conserve() {
        use std::sync::Arc;
        let l = Arc::new(Ledger::new());
        l.deposit("pool", 1000.0);
        let mut handles = Vec::new();
        for t in 0..4 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                let me = format!("w{t}");
                for _ in 0..100 {
                    let _ = l.transfer("pool", &me, 1.0);
                    let _ = l.transfer(&me, "pool", 1.0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Micro-credit storage makes conservation exact, not approximate.
        assert_eq!(l.total_supply(), 1000.0);
    }
}
