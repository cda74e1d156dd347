//! Property tests for the privacy substrate: budgets never overspend,
//! anonymization postconditions hold, and detectors never crash on
//! arbitrary strings.

use proptest::prelude::*;
use rand::SeedableRng;

use dmp_privacy::anonymize::{is_k_anonymous, k_anonymize};
use dmp_privacy::budget::PrivacyBudget;
use dmp_privacy::dp::{laplace_noise, randomized_response};
use dmp_privacy::pii::{is_credit_card, is_email, is_ipv4, is_phone, is_ssn};
use dmp_relation::{DataType, DatasetId, RelationBuilder, Value};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The budget ledger never lets cumulative spend exceed the total,
    /// for any sequence of requests.
    #[test]
    fn budget_never_overspends(total in 0.0f64..10.0, requests in prop::collection::vec(0.0f64..3.0, 1..20)) {
        let b = PrivacyBudget::new();
        b.register(DatasetId(1), total);
        let mut spent = 0.0;
        for r in requests {
            if b.spend(DatasetId(1), r).is_ok() {
                spent += r;
            }
        }
        prop_assert!(spent <= total + 1e-9);
        prop_assert!((total - b.remaining(DatasetId(1)).unwrap() - spent).abs() < 1e-9);
    }

    /// Laplace noise is finite and zero-scale is exact.
    #[test]
    fn laplace_is_finite(b in 0.0f64..100.0, seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        prop_assert!(laplace_noise(b, &mut rng).is_finite());
        prop_assert_eq!(laplace_noise(0.0, &mut rng), 0.0);
    }

    /// Randomized response returns a boolean with the right bias
    /// direction: truth is always at least as likely as the flip.
    #[test]
    fn randomized_response_biased_to_truth(eps in 0.0f64..5.0, seed in 0u64..100) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 2000;
        let truthful = (0..n).filter(|_| randomized_response(true, eps, &mut rng)).count();
        prop_assert!(truthful as f64 >= n as f64 * 0.40, "eps={eps} truthful={truthful}");
    }

    /// k_anonymize postcondition: the output *is* k-anonymous, for any
    /// input table and k.
    #[test]
    fn k_anonymize_postcondition(
        ages in prop::collection::vec(0i64..100, 1..40),
        k in 1usize..6,
    ) {
        let mut b = RelationBuilder::new("t").column("age", DataType::Int);
        for a in &ages {
            b = b.row(vec![Value::Int(*a)]);
        }
        let rel = b.build().unwrap();
        let report = k_anonymize(&rel, &["age"], k).unwrap();
        prop_assert!(is_k_anonymous(&report.relation, &["age"], k).unwrap());
        prop_assert!(report.relation.len() + report.suppressed <= rel.len() + report.suppressed);
    }

    /// PII detectors never panic and are mutually exclusive enough that
    /// a plain alphabetic token matches nothing.
    #[test]
    fn pii_detectors_total(s in "[a-zA-Z]{1,20}") {
        prop_assert!(!is_email(&s) || s.contains('@'));
        prop_assert!(!is_phone(&s));
        prop_assert!(!is_ssn(&s));
        prop_assert!(!is_credit_card(&s));
        prop_assert!(!is_ipv4(&s));
    }

    /// Arbitrary unicode never panics any detector.
    #[test]
    fn pii_detectors_handle_arbitrary_input(s in "\\PC*") {
        let _ = is_email(&s);
        let _ = is_phone(&s);
        let _ = is_ssn(&s);
        let _ = is_credit_card(&s);
        let _ = is_ipv4(&s);
    }
}
