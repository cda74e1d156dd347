//! The Mashup Builder front-end (Fig. 2 top): turns a WTP-function into
//! materialized candidate mashups `[m1, …, mn]` by driving the DoD engine
//! over the metadata engine's current state, then augmenting with the
//! buyer's packaged owned data when present (§3.2.2.1: "when buyers own
//! multiple features relevant to train the ML model but want other
//! datasets to augment their data").

use dmp_discovery::MetadataEngine;
use dmp_integration::{DodEngine, TargetSpec};
use dmp_mechanism::wtp::WtpFunction;
use dmp_relation::ops::JoinKind;
use dmp_relation::{DatasetId, Relation};

/// A materialized candidate mashup.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltMashup {
    /// The relation (already joined with owned data when provided).
    pub relation: Relation,
    /// Market datasets that contributed (excludes the buyer's own data).
    pub datasets: Vec<DatasetId>,
    /// Fraction of requested attributes covered.
    pub coverage: f64,
    /// Join confidence product.
    pub confidence: f64,
    /// Attributes the DoD could not source (negotiation input, §4.1).
    pub missing: Vec<String>,
}

/// Build up to `max` candidate mashups for a WTP-function.
pub fn build_mashups(metadata: &MetadataEngine, wtp: &WtpFunction, max: usize) -> Vec<BuiltMashup> {
    let mut spec =
        TargetSpec::with_attributes(wtp.attributes.iter().cloned()).min_rows(wtp.min_rows.max(1));
    if !wtp.keywords.is_empty() {
        spec = spec.keywords(wtp.keywords.iter().cloned());
    }
    let dod = DodEngine::new(metadata);
    let candidates = match dod.find_mashups(&spec) {
        Ok(c) => c,
        Err(_) => return Vec::new(),
    };

    let mut out = Vec::new();
    for cand in candidates.into_iter().take(max) {
        let missing: Vec<String> = cand
            .missing(&spec)
            .into_iter()
            .map(str::to_string)
            .collect();
        let relation = match &wtp.owned_data {
            Some(owned) => {
                // Natural join on whatever key columns the mashup shares
                // with the buyer's packaged data (e.g. `a` in the intro
                // example). If nothing is shared, the candidate cannot be
                // bound to the buyer's labels — skip it.
                match cand.relation.natural_join(owned, JoinKind::Inner) {
                    Ok(j) if !j.is_empty() => j,
                    _ => continue,
                }
            }
            None => cand.relation,
        };
        if relation.len() < wtp.min_rows.max(1) {
            continue;
        }
        out.push(BuiltMashup {
            relation,
            datasets: cand.datasets,
            coverage: cand.coverage,
            confidence: cand.confidence,
            missing,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_mechanism::wtp::PriceCurve;
    use dmp_tasks::synth::intro_example;

    fn setup() -> (MetadataEngine, WtpFunction) {
        let ex = intro_example(300, 7);
        let metadata = MetadataEngine::new();
        metadata.register("s1", "seller1", ex.s1);
        metadata.register("s2", "seller2", ex.s2);
        let mut wtp =
            WtpFunction::simple("b1", ["a", "b", "fd"], PriceCurve::Step(vec![(0.8, 100.0)]));
        wtp.owned_data = Some(ex.buyer_owned);
        (metadata, wtp)
    }

    #[test]
    fn builds_candidates_with_owned_data_joined() {
        let (metadata, wtp) = setup();
        let mashups = build_mashups(&metadata, &wtp, 4);
        assert!(!mashups.is_empty());
        let best = &mashups[0];
        assert!(
            best.relation.schema().contains("label"),
            "owned labels joined in"
        );
        assert!(best.relation.len() > 100);
    }

    #[test]
    fn full_coverage_candidate_uses_both_sellers() {
        let (metadata, mut wtp) = setup();
        // `c` only exists in s1 and `fd` only in s2, forcing a join.
        wtp.attributes = vec!["a".into(), "c".into(), "fd".into()];
        let mashups = build_mashups(&metadata, &wtp, 4);
        let full = mashups.iter().find(|m| (m.coverage - 1.0).abs() < 1e-9);
        let full = full.expect("a full-coverage mashup should exist");
        assert_eq!(full.datasets.len(), 2);
        assert!(full.missing.is_empty());
    }

    #[test]
    fn without_owned_data_no_label_column() {
        let (metadata, mut wtp) = setup();
        wtp.owned_data = None;
        let mashups = build_mashups(&metadata, &wtp, 4);
        assert!(!mashups.is_empty());
        assert!(!mashups[0].relation.schema().contains("label"));
    }

    #[test]
    fn min_rows_filters() {
        let (metadata, mut wtp) = setup();
        wtp.min_rows = 10_000;
        assert!(build_mashups(&metadata, &wtp, 4).is_empty());
    }

    #[test]
    fn unsourcable_attribute_reported_missing() {
        let (metadata, mut wtp) = setup();
        wtp.attributes.push("e".into()); // the intro example's gap
        let mashups = build_mashups(&metadata, &wtp, 4);
        assert!(!mashups.is_empty());
        assert!(mashups.iter().all(|m| m.missing.contains(&"e".to_string())));
        assert!(mashups.iter().all(|m| m.coverage < 1.0));
    }
}
