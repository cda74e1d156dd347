//! Integration: licensing (§4.4), contextual integrity, disputes, and
//! the privacy-coordinated seller pipeline — the trust fabric around the
//! core trade loop.

use data_market_platform::core::license::{ContextualIntegrityPolicy, License};
use data_market_platform::core::market::{DataMarket, MarketConfig, OfferState};
use data_market_platform::mechanism::design::MarketDesign;
use data_market_platform::mechanism::wtp::PriceCurve;
use data_market_platform::privacy::dp::DpParams;
use data_market_platform::relation::builder::keyed_rel;
use data_market_platform::relation::{DataType, RelationBuilder, Value};

fn market() -> DataMarket {
    DataMarket::new(
        MarketConfig::external(31).with_design(MarketDesign::posted_price_baseline(20.0)),
    )
}

#[test]
fn exclusive_license_taxes_and_locks() {
    let m = market();
    let seller = m.seller("s");
    let id = seller
        .share(keyed_rel("sig", &[(1, "a"), (2, "b")]))
        .unwrap();
    seller
        .set_license(
            id,
            License::Exclusive {
                tax_rate: 0.5,
                hold_rounds: 1,
            },
        )
        .unwrap();

    let b1 = m.buyer("b1");
    b1.deposit(100.0);
    b1.wtp(["k", "v"])
        .price_curve(PriceCurve::Constant(60.0))
        .submit()
        .unwrap();
    let r1 = m.run_round();
    // posted 20 × 1.5 exclusivity tax
    assert!((r1.sales[0].price - 30.0).abs() < 1e-9);

    // Another buyer is locked out while the hold lasts.
    let b2 = m.buyer("b2");
    b2.deposit(100.0);
    let offer2 = b2
        .wtp(["k", "v"])
        .price_curve(PriceCurve::Constant(60.0))
        .submit()
        .unwrap();
    let r2 = m.run_round();
    assert!(r2.sales.is_empty(), "exclusive hold must deny b2");

    // After the hold expires, the pending offer clears.
    let r3 = m.run_round();
    let served_later = !r3.sales.is_empty()
        || matches!(m.offer(offer2).unwrap().state, OfferState::Fulfilled { .. });
    assert!(served_later, "hold expired; b2 should be served");
}

#[test]
fn contextual_integrity_blocks_forbidden_purpose() {
    let m = market();
    let seller = m.seller("hospital");
    let id = seller.share(keyed_rel("cohort", &[(1, "x")])).unwrap();
    seller
        .set_ci_policy(
            id,
            ContextualIntegrityPolicy::restricted(
                "healthcare",
                vec!["buyer".into()], // role every market buyer carries
                vec!["advertising".into()],
            ),
        )
        .unwrap();

    // Research purpose: allowed.
    let researcher = m.buyer("researcher");
    researcher.deposit(100.0);
    researcher
        .wtp(["k", "v"])
        .price_curve(PriceCurve::Constant(30.0))
        .purpose("research")
        .submit()
        .unwrap();
    let r = m.run_round();
    assert_eq!(r.sales.len(), 1);

    // Advertising purpose: denied.
    let adtech = m.buyer("adtech");
    adtech.deposit(100.0);
    adtech
        .wtp(["k", "v"])
        .price_curve(PriceCurve::Constant(30.0))
        .purpose("advertising")
        .submit()
        .unwrap();
    let r = m.run_round();
    assert!(r.sales.is_empty(), "CI policy must block advertising use");
}

#[test]
fn disputes_record_and_resolve() {
    let m = market();
    m.seller("s").share(keyed_rel("g", &[(1, "x")])).unwrap();
    let buyer = m.buyer("b");
    buyer.deposit(100.0);
    buyer
        .wtp(["k"])
        .price_curve(PriceCurve::Constant(25.0))
        .submit()
        .unwrap();
    let r = m.run_round();
    assert_eq!(r.sales.len(), 1);

    let dispute = buyer.dispute(0, "rows were stale");
    assert_eq!(m.disputes().open_count(), 1);
    assert!(m.disputes().resolve(dispute, 5.0));
    assert_eq!(m.disputes().open_count(), 0);
}

#[test]
fn privacy_pipeline_end_to_end() {
    let m = market();
    let seller = m.seller("clinic");

    // PII table refused.
    let mut b = RelationBuilder::new("patients")
        .column("email", DataType::Str)
        .column("days", DataType::Int);
    for i in 0..30 {
        b = b.row(vec![
            Value::str(format!("p{i}@x.org")),
            Value::Int((i % 10) as i64),
        ]);
    }
    let raw = b.build().unwrap();
    assert!(seller.share(raw.clone()).is_err());

    // DP release accepted and sellable.
    let safe = raw.project(&["days"]).unwrap().named("patients_safe");
    let id = seller
        .share_private(safe, &["days"], DpParams::new(1.0, 1.0), 2.0)
        .unwrap();

    let buyer = m.buyer("lab");
    buyer.deposit(100.0);
    buyer
        .wtp(["days"])
        .price_curve(PriceCurve::Constant(40.0))
        .submit()
        .unwrap();
    let r = m.run_round();
    assert_eq!(r.sales.len(), 1);

    // Accountability reflects the ε spend and the sale; audit verifies.
    let acct = seller.accountability(id).unwrap();
    assert_eq!(acct.privacy_spent, 1.0);
    assert!(acct.revenue > 0.0);
    assert!(m.audit_log().verify_chain());
}

#[test]
fn freshness_constraint_excludes_stale_data() {
    let m = market();
    let seller = m.seller("s");
    seller.share(keyed_rel("old", &[(1, "x")])).unwrap();
    // Advance logical time far beyond the buyer's freshness window by
    // running many empty rounds.
    for _ in 0..30 {
        m.run_round();
    }
    let buyer = m.buyer("b");
    buyer.deposit(100.0);
    let constraints = data_market_platform::mechanism::wtp::IntrinsicConstraints {
        max_age: Some(2),
        ..Default::default()
    };
    buyer
        .wtp(["k", "v"])
        .price_curve(PriceCurve::Constant(30.0))
        .constraints(constraints)
        .submit()
        .unwrap();
    let r = m.run_round();
    assert!(r.sales.is_empty(), "stale dataset must be filtered");

    // A fresh dataset satisfies the same offer next round.
    seller.share(keyed_rel("fresh", &[(1, "y")])).unwrap();
    let r = m.run_round();
    assert_eq!(r.sales.len(), 1);
}
