//! Arbiter services (§4.1): "because the arbiter knows the supply and
//! demand for datasets, it can use this information to offer additional
//! services" — dataset recommendations via item-based collaborative
//! filtering \[83\], and demand reports that tell opportunistic sellers
//! (§7.1) which attributes buyers want but nobody supplies.

use std::collections::{BTreeMap, BTreeSet};

use dmp_relation::DatasetId;

/// A purchase record for the recommender: which buyer bought which
/// datasets (as parts of mashups).
#[derive(Debug, Clone)]
pub struct Purchase {
    /// Buyer principal.
    pub buyer: String,
    /// Datasets in the purchased mashup.
    pub datasets: Vec<DatasetId>,
}

/// Item-based collaborative filtering (Sarwar et al. \[83\]): cosine
/// similarity between dataset co-purchase vectors, recommendations are
/// the nearest items to what the buyer already bought, excluding those.
pub fn recommend(purchases: &[Purchase], buyer: &str, k: usize) -> Vec<DatasetId> {
    // dataset -> set of buyers.
    let mut buyers_of: BTreeMap<DatasetId, BTreeSet<&str>> = BTreeMap::new();
    let mut bought_by_target: BTreeSet<DatasetId> = BTreeSet::new();
    for p in purchases {
        for &d in &p.datasets {
            buyers_of.entry(d).or_default().insert(p.buyer.as_str());
            if p.buyer == buyer {
                bought_by_target.insert(d);
            }
        }
    }
    if bought_by_target.is_empty() {
        // Cold start: most-purchased datasets.
        let mut pop: Vec<(DatasetId, usize)> =
            buyers_of.iter().map(|(&d, b)| (d, b.len())).collect();
        pop.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        return pop.into_iter().take(k).map(|(d, _)| d).collect();
    }

    let cosine = |a: &BTreeSet<&str>, b: &BTreeSet<&str>| -> f64 {
        let inter = a.intersection(b).count() as f64;
        if a.is_empty() || b.is_empty() {
            0.0
        } else {
            inter / ((a.len() as f64).sqrt() * (b.len() as f64).sqrt())
        }
    };

    let mut scores: BTreeMap<DatasetId, f64> = BTreeMap::new();
    for &owned in &bought_by_target {
        let owned_buyers = &buyers_of[&owned];
        for (&cand, cand_buyers) in &buyers_of {
            if bought_by_target.contains(&cand) {
                continue;
            }
            *scores.entry(cand).or_insert(0.0) += cosine(owned_buyers, cand_buyers);
        }
    }
    let mut ranked: Vec<(DatasetId, f64)> = scores.into_iter().filter(|(_, s)| *s > 0.0).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.into_iter().take(k).map(|(d, _)| d).collect()
}

/// Popularity baseline for E15: most-purchased datasets the buyer does
/// not already own.
pub fn recommend_popular(purchases: &[Purchase], buyer: &str, k: usize) -> Vec<DatasetId> {
    let mut owned: BTreeSet<DatasetId> = BTreeSet::new();
    let mut counts: BTreeMap<DatasetId, usize> = BTreeMap::new();
    for p in purchases {
        for &d in &p.datasets {
            *counts.entry(d).or_insert(0) += 1;
            if p.buyer == buyer {
                owned.insert(d);
            }
        }
    }
    let mut ranked: Vec<(DatasetId, usize)> = counts
        .into_iter()
        .filter(|(d, _)| !owned.contains(d))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.into_iter().take(k).map(|(d, _)| d).collect()
}

/// Unmet demand: attributes requested by pending offers that the mashup
/// builder could not source, with request counts. "Because the arbiter
/// knows that b1 would benefit from attribute ⟨e⟩, [...] the arbiter can
/// ask Seller 3 to obtain a dataset s3 = ⟨e⟩ for money" (§7.1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DemandReport {
    /// `(attribute, number of offers wanting it)`, most demanded first.
    pub missing_attributes: Vec<(String, usize)>,
}

/// Build a demand report from per-offer missing-attribute lists.
pub fn demand_report<'a>(
    missing_per_offer: impl IntoIterator<Item = &'a [String]>,
) -> DemandReport {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for missing in missing_per_offer {
        for attr in missing {
            *counts.entry(attr.as_str()).or_insert(0) += 1;
        }
    }
    let mut v: Vec<(String, usize)> = counts
        .into_iter()
        .map(|(a, c)| (a.to_string(), c))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    DemandReport {
        missing_attributes: v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u64) -> DatasetId {
        DatasetId(i)
    }

    fn history() -> Vec<Purchase> {
        vec![
            Purchase {
                buyer: "a".into(),
                datasets: vec![d(1), d(2)],
            },
            Purchase {
                buyer: "b".into(),
                datasets: vec![d(1), d(2), d(3)],
            },
            Purchase {
                buyer: "c".into(),
                datasets: vec![d(2), d(3)],
            },
            Purchase {
                buyer: "e".into(),
                datasets: vec![d(4)],
            },
        ]
    }

    #[test]
    fn recommends_co_purchased_items() {
        // buyer "a" bought 1,2; buyers of 2 also bought 3 => recommend 3.
        let recs = recommend(&history(), "a", 2);
        assert_eq!(recs.first(), Some(&d(3)), "recs: {recs:?}");
        assert!(!recs.contains(&d(1)) && !recs.contains(&d(2)), "no repeats");
    }

    #[test]
    fn cold_start_falls_back_to_popularity() {
        let recs = recommend(&history(), "newbuyer", 2);
        assert_eq!(recs[0], d(2), "dataset 2 has 3 distinct buyers");
    }

    #[test]
    fn disconnected_items_not_recommended() {
        let recs = recommend(&history(), "a", 10);
        assert!(!recs.contains(&d(4)), "no buyer overlap with 4");
    }

    #[test]
    fn popularity_baseline_excludes_owned() {
        let recs = recommend_popular(&history(), "a", 3);
        assert_eq!(recs[0], d(3));
        assert!(!recs.contains(&d(1)));
    }

    #[test]
    fn demand_report_counts_and_ranks() {
        let offers: Vec<Vec<String>> = vec![vec!["e".into(), "f".into()], vec!["e".into()], vec![]];
        let report = demand_report(offers.iter().map(|v| v.as_slice()));
        assert_eq!(
            report.missing_attributes,
            vec![("e".to_string(), 2), ("f".to_string(), 1)]
        );
    }

    #[test]
    fn empty_history_empty_recs() {
        assert!(recommend(&[], "a", 3).is_empty());
        assert!(recommend_popular(&[], "a", 3).is_empty());
        assert_eq!(demand_report(std::iter::empty()), DemandReport::default());
    }
}
