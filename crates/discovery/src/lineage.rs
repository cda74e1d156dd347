//! Fine-grained lineage for seller accountability (§4.2):
//!
//! "The SMP must allow sellers to track how their datasets are being sold
//! in the market, e.g., as part of what mashups. [...] This permits the
//! SMP to maintain fine-grained lineage information that is made available
//! on demand."

use std::collections::HashMap;

use parking_lot::RwLock;

use dmp_relation::DatasetId;

/// One lineage event: a dataset participated in something.
#[derive(Debug, Clone, PartialEq)]
pub enum LineageEvent {
    /// Dataset was used to build a mashup.
    UsedInMashup {
        /// The mashup's identifier (assigned by the arbiter).
        mashup: String,
        /// How many of the dataset's rows contributed.
        rows_contributed: usize,
    },
    /// A mashup containing the dataset was sold.
    SoldInMashup {
        /// The mashup's identifier.
        mashup: String,
        /// Revenue allocated back to this dataset in that sale.
        revenue: f64,
    },
    /// Dataset contents were updated to a new version.
    Updated {
        /// New version number.
        version: u32,
    },
    /// A privacy-protected release was generated from the dataset.
    PrivateRelease {
        /// Privacy budget spent.
        epsilon: f64,
    },
}

/// Dataset-sorted lineage contents captured by
/// [`LineageLog::export_state`]: per dataset, the `(seq, event)` pairs
/// in record order.
pub type LineageImage = Vec<(DatasetId, Vec<(u64, LineageEvent)>)>;

/// Append-only per-dataset lineage log: "the SMP incrementally updates
/// the information recorded about those datasets".
#[derive(Debug, Default)]
pub struct LineageLog {
    events: RwLock<HashMap<DatasetId, Vec<(u64, LineageEvent)>>>,
    seq: std::sync::atomic::AtomicU64,
}

impl LineageLog {
    /// Empty log.
    pub fn new() -> Self {
        LineageLog::default()
    }

    /// Record an event for a dataset. Returns the event sequence number.
    pub fn record(&self, dataset: DatasetId, event: LineageEvent) -> u64 {
        let seq = self.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.events
            .write()
            .entry(dataset)
            .or_default()
            .push((seq, event));
        seq
    }

    /// All events for a dataset, in order.
    pub fn events(&self, dataset: DatasetId) -> Vec<(u64, LineageEvent)> {
        self.events
            .read()
            .get(&dataset)
            .cloned()
            .unwrap_or_default()
    }

    /// Total revenue attributed to a dataset across all sales.
    pub fn total_revenue(&self, dataset: DatasetId) -> f64 {
        self.events(dataset)
            .iter()
            .map(|(_, e)| match e {
                LineageEvent::SoldInMashup { revenue, .. } => *revenue,
                _ => 0.0,
            })
            .sum()
    }

    /// Distinct mashups the dataset participated in.
    pub fn mashups(&self, dataset: DatasetId) -> Vec<String> {
        let mut out: Vec<String> = self
            .events(dataset)
            .iter()
            .filter_map(|(_, e)| match e {
                LineageEvent::UsedInMashup { mashup, .. }
                | LineageEvent::SoldInMashup { mashup, .. } => Some(mashup.clone()),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Total privacy budget recorded as spent.
    pub fn privacy_spent(&self, dataset: DatasetId) -> f64 {
        self.events(dataset)
            .iter()
            .map(|(_, e)| match e {
                LineageEvent::PrivateRelease { epsilon } => *epsilon,
                _ => 0.0,
            })
            .sum()
    }

    /// All recorded events and the sequence counter, dataset-sorted,
    /// for materialized snapshots.
    pub fn export_state(&self) -> (LineageImage, u64) {
        let mut entries: LineageImage = self
            .events
            .read()
            .iter()
            .map(|(&id, evs)| (id, evs.clone()))
            .collect();
        entries.sort_by_key(|(id, _)| *id);
        let seq = self.seq.load(std::sync::atomic::Ordering::SeqCst);
        (entries, seq)
    }

    /// Replace the log's contents with a previously exported image.
    pub fn restore_state(&self, entries: LineageImage, seq: u64) {
        let mut map = self.events.write();
        map.clear();
        for (id, evs) in entries {
            map.insert(id, evs);
        }
        self.seq.store(seq, std::sync::atomic::Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_in_order() {
        let log = LineageLog::new();
        let d = DatasetId(1);
        log.record(
            d,
            LineageEvent::UsedInMashup {
                mashup: "m1".into(),
                rows_contributed: 10,
            },
        );
        log.record(
            d,
            LineageEvent::SoldInMashup {
                mashup: "m1".into(),
                revenue: 42.0,
            },
        );
        let evs = log.events(d);
        assert_eq!(evs.len(), 2);
        assert!(evs[0].0 < evs[1].0);
    }

    #[test]
    fn revenue_accumulates() {
        let log = LineageLog::new();
        let d = DatasetId(1);
        log.record(
            d,
            LineageEvent::SoldInMashup {
                mashup: "m1".into(),
                revenue: 10.0,
            },
        );
        log.record(
            d,
            LineageEvent::SoldInMashup {
                mashup: "m2".into(),
                revenue: 5.5,
            },
        );
        assert!((log.total_revenue(d) - 15.5).abs() < 1e-12);
        assert_eq!(log.total_revenue(DatasetId(2)), 0.0);
    }

    #[test]
    fn mashups_dedupe() {
        let log = LineageLog::new();
        let d = DatasetId(1);
        log.record(
            d,
            LineageEvent::UsedInMashup {
                mashup: "m1".into(),
                rows_contributed: 1,
            },
        );
        log.record(
            d,
            LineageEvent::SoldInMashup {
                mashup: "m1".into(),
                revenue: 1.0,
            },
        );
        log.record(
            d,
            LineageEvent::UsedInMashup {
                mashup: "m2".into(),
                rows_contributed: 2,
            },
        );
        assert_eq!(log.mashups(d), vec!["m1".to_string(), "m2".to_string()]);
    }

    #[test]
    fn privacy_budget_tracked() {
        let log = LineageLog::new();
        let d = DatasetId(3);
        log.record(d, LineageEvent::PrivateRelease { epsilon: 0.5 });
        log.record(d, LineageEvent::PrivateRelease { epsilon: 0.25 });
        assert!((log.privacy_spent(d) - 0.75).abs() < 1e-12);
    }
}
