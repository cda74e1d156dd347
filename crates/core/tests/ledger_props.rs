//! Property tests for the arbiter ledger: currency conservation under
//! random interleaved deposit / transfer / escrow / release / close
//! sequences. A release is settlement's payout, `release_up_to`,
//! including the rounding dust it absorbs past the end of a hold. With
//! integer micro-credit storage the invariant is exact: the total
//! supply equals the sum of minted deposits bit-for-bit, and no account
//! ever goes negative. Near the `i64` micro-credit ceiling, every
//! transfer/escrow credit is **checked**: an operation either succeeds
//! conserving supply exactly, or fails (`BalanceOverflow` /
//! `InsufficientFunds`) leaving the total untouched — never a silent
//! clamp.

use dmp_core::arbiter::ledger::{Ledger, MAX_AMOUNT};
use dmp_core::error::{MarketError, MarketResult};
use proptest::prelude::*;

const ACCOUNTS: [&str; 4] = ["alice", "bob", "carol", "dave"];

/// One randomly generated ledger operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Deposit { who: usize, amount: f64 },
    Transfer { from: usize, to: usize, amount: f64 },
    Hold { who: usize, amount: f64 },
    Release { slot: usize, to: usize, amount: f64 },
    Close { slot: usize },
}

fn decode(kind: u8, a: usize, b: usize, amount: f64) -> Op {
    match kind % 5 {
        0 => Op::Deposit {
            who: a % ACCOUNTS.len(),
            amount,
        },
        1 => Op::Transfer {
            from: a % ACCOUNTS.len(),
            to: b % ACCOUNTS.len(),
            amount,
        },
        2 => Op::Hold {
            who: a % ACCOUNTS.len(),
            amount,
        },
        3 => Op::Release {
            slot: a,
            to: b % ACCOUNTS.len(),
            amount,
        },
        _ => Op::Close { slot: a },
    }
}

fn micros(x: f64) -> i64 {
    (x * 1e6).round() as i64
}

/// Settlement's payout. Draws in the top fifth of `0..top` ask for the
/// rest of the hold plus 0–200 micro-credits, so both the dust clamp
/// (≤ 100 µ over, pays exactly the rest) and the refusal above it run.
/// A payout moves exactly what it reports out of the hold (checked
/// where f64 still resolves micro-credits, below 2^53 µ).
fn release(ledger: &Ledger, escrow: u64, to: &str, amount: f64, top: f64) -> MarketResult<()> {
    let before = ledger.escrow_remaining(escrow);
    let request = match before {
        Some(rest) if amount >= 0.8 * top => rest + (amount / top - 0.8) * 1e-3,
        _ => amount,
    };
    let result = ledger.release_up_to(escrow, to, request);
    match (&result, before.filter(|&rest| rest < 1e9)) {
        (Ok(paid), Some(rest)) => {
            let after = ledger.escrow_remaining(escrow).unwrap();
            assert_eq!(
                micros(rest) - micros(*paid),
                micros(after),
                "payout != hold change"
            );
            assert!(
                micros(*paid) <= micros(request),
                "paid {paid} > asked {request}"
            );
        }
        (Err(MarketError::InsufficientFunds { .. }), Some(rest)) => {
            assert!(
                micros(request) > micros(rest) + 100,
                "dust refused: {request} vs {rest}"
            );
        }
        _ => {}
    }
    result.map(|_| ())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conservation_under_interleaved_ops(
        raw in proptest::collection::vec(
            (0u8..5, 0usize..8, 0usize..8, 0.0f64..50.0),
            1..120,
        )
    ) {
        let ledger = Ledger::new();
        let mut minted_micros: i64 = 0;
        let mut escrows: Vec<u64> = Vec::new();

        for (kind, a, b, amount) in raw {
            match decode(kind, a, b, amount) {
                Op::Deposit { who, amount } => {
                    ledger.deposit(ACCOUNTS[who], amount);
                    // Mirror the boundary rounding: what the ledger mints
                    // is the micro-credit rounding of the request.
                    let m = (amount * 1e6).round() as i64;
                    if m > 0 {
                        minted_micros += m;
                    }
                }
                Op::Transfer { from, to, amount } => {
                    let _ = ledger.transfer(ACCOUNTS[from], ACCOUNTS[to], amount);
                }
                Op::Hold { who, amount } => {
                    if let Ok(id) = ledger.hold(ACCOUNTS[who], amount) {
                        escrows.push(id);
                    }
                }
                Op::Release { slot, to, amount } => {
                    if !escrows.is_empty() {
                        let id = escrows[slot % escrows.len()];
                        let _ = release(&ledger, id, ACCOUNTS[to], amount, 50.0);
                    }
                }
                Op::Close { slot } => {
                    if !escrows.is_empty() {
                        let id = escrows[slot % escrows.len()];
                        let _ = ledger.close(id);
                    }
                }
            }

            // Exact conservation at every step: deposits are the only
            // mint, and every balance/escrow stays non-negative.
            let expected = minted_micros as f64 / 1e6;
            prop_assert_eq!(ledger.total_supply(), expected);
            for acct in ACCOUNTS {
                prop_assert!(ledger.balance(acct) >= 0.0);
            }
            for (_, _, remaining) in ledger.escrow_holds() {
                prop_assert!(remaining >= 0.0);
            }
        }
    }

    #[test]
    fn balances_and_holds_reconstruct_total_supply(
        raw in proptest::collection::vec(
            (0u8..5, 0usize..8, 0usize..8, 0.0f64..20.0),
            1..60,
        )
    ) {
        let ledger = Ledger::new();
        let mut escrows: Vec<u64> = Vec::new();
        for (kind, a, b, amount) in raw {
            match decode(kind, a, b, amount) {
                Op::Deposit { who, amount } => ledger.deposit(ACCOUNTS[who], amount),
                Op::Transfer { from, to, amount } => {
                    let _ = ledger.transfer(ACCOUNTS[from], ACCOUNTS[to], amount);
                }
                Op::Hold { who, amount } => {
                    if let Ok(id) = ledger.hold(ACCOUNTS[who], amount) {
                        escrows.push(id);
                    }
                }
                Op::Release { slot, to, amount } => {
                    if !escrows.is_empty() {
                        let id = escrows[slot % escrows.len()];
                        let _ = release(&ledger, id, ACCOUNTS[to], amount, 20.0);
                    }
                }
                Op::Close { slot } => {
                    if !escrows.is_empty() {
                        let id = escrows[slot % escrows.len()];
                        let _ = ledger.close(id);
                    }
                }
            }
        }
        // The snapshot enumerators see everything total_supply sees.
        // Summation order in f64 can differ below micro-credit
        // granularity, so compare in whole micro-credits.
        let from_accounts: f64 = ledger.balances().iter().map(|(_, v)| v).sum();
        let from_escrows: f64 = ledger.escrow_holds().iter().map(|(_, _, v)| v).sum();
        prop_assert_eq!(
            micros(ledger.total_supply()),
            micros(from_accounts + from_escrows)
        );
    }

    /// Near the `i64` ceiling, every transfer/escrow op either succeeds
    /// conserving the total exactly, or fails leaving it untouched —
    /// the checked-arithmetic contract. (The old `saturating_add` paths
    /// would "succeed" here while quietly destroying the credited
    /// amount.)
    #[test]
    fn near_cap_ops_conserve_or_fail_cleanly(
        raw in proptest::collection::vec(
            // Amounts up to MAX_AMOUNT so single ops can cross the
            // remaining headroom of a nearly-full account.
            (1u8..5, 0usize..8, 0usize..8, 0.0f64..MAX_AMOUNT),
            1..60,
        )
    ) {
        let ledger = Ledger::new();
        // "whale" sits at the saturation ceiling; the others have room.
        for _ in 0..12 {
            ledger.deposit(ACCOUNTS[0], MAX_AMOUNT);
        }
        ledger.deposit(ACCOUNTS[1], 1000.0);
        let mut escrows: Vec<u64> = Vec::new();

        for (kind, a, b, amount) in raw {
            let before = ledger.total_supply();
            // kind starts at 1: deposits (the only mint) are excluded,
            // so the total must be *invariant* across every op.
            let result = match decode(kind, a, b, amount) {
                Op::Deposit { .. } => unreachable!("kind range starts at 1"),
                Op::Transfer { from, to, amount } => {
                    ledger.transfer(ACCOUNTS[from], ACCOUNTS[to], amount)
                }
                Op::Hold { who, amount } => match ledger.hold(ACCOUNTS[who], amount) {
                    Ok(id) => {
                        escrows.push(id);
                        Ok(())
                    }
                    Err(e) => Err(e),
                },
                Op::Release { slot, to, amount } => {
                    if escrows.is_empty() {
                        Ok(())
                    } else {
                        let id = escrows[slot % escrows.len()];
                        release(&ledger, id, ACCOUNTS[to], amount, MAX_AMOUNT)
                    }
                }
                Op::Close { slot } => {
                    if escrows.is_empty() {
                        Ok(())
                    } else {
                        let id = escrows[slot % escrows.len()];
                        ledger.close(id).map(|_| ())
                    }
                }
            };
            if let Err(e) = &result {
                prop_assert!(
                    matches!(
                        e,
                        MarketError::BalanceOverflow { .. }
                            | MarketError::InsufficientFunds { .. }
                            | MarketError::Invalid(_)
                            | MarketError::UnknownId(_)
                    ),
                    "unexpected near-cap error: {e}"
                );
            }
            prop_assert_eq!(
                ledger.total_supply(),
                before,
                "op changed the total without minting (result: {:?})",
                result.is_ok()
            );
            for acct in ACCOUNTS {
                prop_assert!(ledger.balance(acct) >= 0.0);
            }
        }
    }
}

/// A reader beside a settling writer sees one cut of the ledger. The
/// writer runs settlement's money path, `hold → release_up_to → close`,
/// then pays the seller's proceeds back so the cycle repeats; the
/// reader takes `total_supply()` reads and, every fourth read, an
/// `export_state()` image meanwhile. Every read must show exactly what
/// was minted, and every image's balances plus its held escrows must
/// add up to it too: a hold whose debit is visible before its escrow,
/// or a refund visible before its escrow closes, would not.
///
/// Reads walk every escrow ever taken, so each round starts a fresh
/// ledger and both threads leave a barrier together: the reads stay
/// cheap and overlap the writes for the whole round.
#[test]
fn concurrent_reader_sees_conserved_supply() {
    const ROUNDS: usize = 600;
    const CYCLES: usize = 500;
    const READS: usize = 150;
    let minted = micros(1_000.0);
    for round in 0..ROUNDS {
        let ledger = Ledger::new();
        ledger.deposit("buyer", 1_000.0);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for _ in 0..CYCLES {
                    let escrow = ledger.hold("buyer", 10.0).unwrap();
                    ledger.release_up_to(escrow, "seller", 4.0).unwrap();
                    ledger.close(escrow).unwrap();
                    ledger.transfer("seller", "buyer", 4.0).unwrap();
                }
            });
            start.wait();
            for read in 0..READS {
                let supply = micros(ledger.total_supply());
                assert_eq!(supply, minted, "round {round}, read {read}");
                if read % 4 == 0 {
                    let image = ledger.export_state();
                    let balances: i64 = image.accounts.iter().map(|(_, m)| m).sum();
                    let held: i64 = image
                        .escrows
                        .iter()
                        .filter(|e| e.held)
                        .map(|e| e.remaining_micros)
                        .sum();
                    assert_eq!(balances + held, minted, "round {round}, image {read}");
                }
            }
        });
    }
}
