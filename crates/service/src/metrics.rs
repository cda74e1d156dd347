//! Cached [`dmp_telemetry`] handles for every instrumented service
//! layer.
//!
//! All handles are resolved once, on first use, into one
//! [`ServiceMetrics`] singleton — after that the hot paths (gateway,
//! journal, round pipeline) touch only relaxed atomics and never the
//! registry mutex. `GET /metrics` renders the global registry; because
//! recording is handle-based, rendering can never contend with the
//! apply or WAL locks.

use std::sync::{Arc, OnceLock};

use dmp_telemetry::{global, Counter, Gauge, Histogram};

use crate::command::Command;

/// The request endpoints latency and counts are broken out by, as
/// their series labels. A label is a path (`/ledger` covers
/// `/ledger/:name` too), and the last, `other`, takes every path not
/// listed (404s, worker RPCs). The label is also the tracer span name
/// of a request.
pub const ENDPOINTS: [&str; 12] = [
    "/health",
    "/metrics",
    "/trace",
    "/ledger",
    "/enroll",
    "/deposits",
    "/offers",
    "/asks",
    "/licenses",
    "/rounds",
    "/snapshot",
    "other",
];

/// The index into [`ENDPOINTS`] of a request path.
pub fn endpoint(path: &str) -> usize {
    let path = if path.starts_with("/ledger/") {
        "/ledger"
    } else {
        path
    };
    ENDPOINTS
        .iter()
        .position(|e| *e == path)
        .unwrap_or(ENDPOINTS.len() - 1)
}

/// The command kinds apply time is broken out by.
pub fn command_kind(cmd: &Command) -> &'static str {
    match cmd {
        Command::Enroll { .. } => "enroll",
        Command::Deposit { .. } => "deposit",
        Command::SubmitOffer(_) => "offer",
        Command::SubmitAsk(_) => "ask",
        Command::GrantLicense { .. } => "license",
        Command::RunRound { .. } => "run_round",
    }
}

const COMMAND_KINDS: [&str; 6] = ["enroll", "deposit", "offer", "ask", "license", "run_round"];

/// The cross-shard round phases (see `ShardRouter::run_round`).
pub(crate) const ROUND_PHASES: [&str; 4] = ["candidates", "exchange", "settlement", "close"];

/// Every metric handle the service records into.
pub struct ServiceMetrics {
    /// `dmp_gateway_accepts_total`.
    pub gateway_accepts: Arc<Counter>,
    /// `dmp_gateway_connections` (currently open).
    pub gateway_connections: Arc<Gauge>,
    requests: Vec<Arc<Counter>>,
    request_us: Vec<Arc<Histogram>>,
    /// `dmp_gateway_refused_total` (`503`s past the connection cap).
    pub gateway_refused: Arc<Counter>,
    /// `dmp_gateway_idle_reaps_total` (read or write timeouts).
    pub idle_reaps: Arc<Counter>,
    /// `dmp_gateway_parse_errors_total`.
    pub parse_errors: Arc<Counter>,
    apply_us: Vec<Arc<Histogram>>,
    /// `dmp_journal_appends_total`.
    pub journal_appends: Arc<Counter>,
    /// `dmp_journal_bytes_total` (framed bytes written).
    pub journal_bytes: Arc<Counter>,
    /// `dmp_journal_append_us` (frame + write + flush + fsync).
    pub journal_append_us: Arc<Histogram>,
    /// `dmp_journal_fsync_us` (the `fdatasync` alone).
    pub journal_fsync_us: Arc<Histogram>,
    /// `dmp_journal_poisoned_total` (failed rollbacks).
    pub journal_poisoned: Arc<Counter>,
    /// `dmp_snapshot_writes_total`.
    pub snapshot_writes: Arc<Counter>,
    /// `dmp_snapshot_failures_total`.
    pub snapshot_failures: Arc<Counter>,
    /// `dmp_snapshot_write_us`.
    pub snapshot_write_us: Arc<Histogram>,
    /// `dmp_snapshot_verify_us` (re-read + decode + restore + digest of
    /// the file just written; bounded retention only).
    pub snapshot_verify_us: Arc<Histogram>,
    /// `dmp_checkpoint_stall_us` (the whole checkpoint, which runs
    /// under the apply lock: how long appliers paused behind it).
    pub checkpoint_stall_us: Arc<Histogram>,
    /// `dmp_snapshot_bytes_total` (encoded snapshot file bytes written).
    pub snapshot_bytes: Arc<Counter>,
    /// `dmp_snapshot_pruned_total` (superseded snapshots removed under
    /// the retention knob).
    pub snapshots_pruned: Arc<Counter>,
    /// `dmp_journal_compactions_total` (prefix truncations after a
    /// verified durable snapshot).
    pub journal_compactions: Arc<Counter>,
    /// `dmp_journal_compacted_bytes_total` (journal bytes dropped by
    /// prefix truncation).
    pub journal_compacted_bytes: Arc<Counter>,
    /// `dmp_recovery_replay_us` (whole `ServiceNode::open` recovery).
    pub recovery_replay_us: Arc<Histogram>,
    /// `dmp_recovery_snapshot_verified_total` (digest matched).
    pub recovery_snapshot_verified: Arc<Counter>,
    /// `dmp_recovery_snapshot_rejected_total` (digest mismatch; fell
    /// back to full journal replay).
    pub recovery_snapshot_rejected: Arc<Counter>,
    /// `dmp_rounds_total` (cross-shard rounds completed).
    pub rounds_total: Arc<Counter>,
    round_phase_us: Vec<Arc<Histogram>>,
    /// `dmp_round_cross_shard_sales_total`.
    pub cross_shard_sales: Arc<Counter>,
    /// `dmp_round_settlement_components` (cleared sales planned per round).
    pub settlement_components: Arc<Histogram>,
    worker_rpc_us: Vec<Arc<Histogram>>,
    /// `dmp_worker_rpc_failures_total` (RPCs that errored; the worker is
    /// marked dead and its shards re-dispatched).
    pub worker_rpc_failures: Arc<Counter>,
    /// `dmp_worker_redispatch_total` (shard candidate computations
    /// re-dispatched to another worker after a failure).
    pub worker_redispatch: Arc<Counter>,
}

/// The internal coordinator→worker RPCs latency is broken out by.
pub(crate) const WORKER_RPCS: [&str; 5] = ["apply", "candidates", "settle", "digest", "restore"];

/// The process-global service metrics (handles resolved on first use).
pub fn metrics() -> &'static ServiceMetrics {
    static M: OnceLock<ServiceMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = global();
        ServiceMetrics {
            gateway_accepts: r.counter(
                "dmp_gateway_accepts_total",
                "Connections accepted by the gateway.",
            ),
            gateway_connections: r.gauge(
                "dmp_gateway_connections",
                "Connections currently served, one thread each.",
            ),
            requests: ENDPOINTS
                .iter()
                .map(|e| {
                    r.counter(
                        &format!("dmp_gateway_requests_total{{endpoint=\"{e}\"}}"),
                        "Requests completed, by endpoint.",
                    )
                })
                .collect(),
            request_us: ENDPOINTS
                .iter()
                .map(|e| {
                    r.histogram(
                        &format!("dmp_gateway_request_us{{endpoint=\"{e}\"}}"),
                        "Request wall latency (parse to response ready), microseconds.",
                    )
                })
                .collect(),
            gateway_refused: r.counter(
                "dmp_gateway_refused_total",
                "Connections answered 503 because the connection cap was reached.",
            ),
            idle_reaps: r.counter(
                "dmp_gateway_idle_reaps_total",
                "Connections closed by a read or write timeout.",
            ),
            parse_errors: r.counter(
                "dmp_gateway_parse_errors_total",
                "Requests rejected by the HTTP parser.",
            ),
            apply_us: COMMAND_KINDS
                .iter()
                .map(|k| {
                    r.histogram(
                        &format!("dmp_apply_us{{kind=\"{k}\"}}"),
                        "Command apply time (journal append + market mutation), microseconds.",
                    )
                })
                .collect(),
            journal_appends: r.counter("dmp_journal_appends_total", "Journal records appended."),
            journal_bytes: r.counter(
                "dmp_journal_bytes_total",
                "Framed journal bytes written (length prefix + CRC + payload).",
            ),
            journal_append_us: r.histogram(
                "dmp_journal_append_us",
                "Full journal append (encode + verify + write + flush + fsync), microseconds.",
            ),
            journal_fsync_us: r.histogram(
                "dmp_journal_fsync_us",
                "The fdatasync portion of a journal append, microseconds.",
            ),
            journal_poisoned: r.counter(
                "dmp_journal_poisoned_total",
                "Failed append rollbacks that poisoned the journal.",
            ),
            snapshot_writes: r.counter("dmp_snapshot_writes_total", "Snapshots written."),
            snapshot_failures: r.counter(
                "dmp_snapshot_failures_total",
                "Snapshot writes that failed (node continues on the journal).",
            ),
            snapshot_write_us: r.histogram(
                "dmp_snapshot_write_us",
                "Snapshot write (serialize + tmp + fsync + rename), microseconds.",
            ),
            snapshot_verify_us: r.histogram(
                "dmp_snapshot_verify_us",
                "Verified-durable gate: re-read, decode, restore and digest the snapshot just written, microseconds.",
            ),
            checkpoint_stall_us: r.histogram(
                "dmp_checkpoint_stall_us",
                "Whole checkpoint under the apply lock (digest, encode, write, verify, prune, compact), microseconds.",
            ),
            snapshot_bytes: r.counter(
                "dmp_snapshot_bytes_total",
                "Encoded snapshot file bytes written.",
            ),
            snapshots_pruned: r.counter(
                "dmp_snapshot_pruned_total",
                "Superseded snapshots removed under the retention knob.",
            ),
            journal_compactions: r.counter(
                "dmp_journal_compactions_total",
                "Journal prefix truncations after a verified durable snapshot.",
            ),
            journal_compacted_bytes: r.counter(
                "dmp_journal_compacted_bytes_total",
                "Journal bytes dropped by prefix truncation.",
            ),
            recovery_replay_us: r.histogram(
                "dmp_recovery_replay_us",
                "Crash recovery (snapshot load + digest verify + journal replay), microseconds.",
            ),
            recovery_snapshot_verified: r.counter(
                "dmp_recovery_snapshot_verified_total",
                "Recoveries whose snapshot digest verified.",
            ),
            recovery_snapshot_rejected: r.counter(
                "dmp_recovery_snapshot_rejected_total",
                "Recoveries that rejected a snapshot (digest mismatch) and replayed the full journal.",
            ),
            rounds_total: r.counter("dmp_rounds_total", "Cross-shard rounds completed."),
            round_phase_us: ROUND_PHASES
                .iter()
                .map(|p| {
                    r.histogram(
                        &format!("dmp_round_phase_us{{phase=\"{p}\"}}"),
                        "Wall time of one cross-shard round phase, microseconds.",
                    )
                })
                .collect(),
            cross_shard_sales: r.counter(
                "dmp_round_cross_shard_sales_total",
                "Settled sales whose mashup crossed a shard boundary.",
            ),
            settlement_components: r.histogram(
                "dmp_round_settlement_components",
                "Settlement components per round: one per cleared sale, each planned as its own task.",
            ),
            worker_rpc_us: WORKER_RPCS
                .iter()
                .map(|rpc| {
                    r.histogram(
                        &format!("dmp_worker_rpc_us{{rpc=\"{rpc}\"}}"),
                        "Coordinator-side wall latency of one worker RPC, microseconds.",
                    )
                })
                .collect(),
            worker_rpc_failures: r.counter(
                "dmp_worker_rpc_failures_total",
                "Worker RPCs that failed (the worker is marked dead).",
            ),
            worker_redispatch: r.counter(
                "dmp_worker_redispatch_total",
                "Shard candidate computations re-dispatched after a worker failure.",
            ),
        }
    })
}

impl ServiceMetrics {
    /// Count one completed request and record its wall latency
    /// (`endpoint` indexes [`ENDPOINTS`]).
    pub fn record_request(&self, endpoint: usize, elapsed: std::time::Duration) {
        self.requests[endpoint].inc();
        self.request_us[endpoint].record_duration_us(elapsed);
    }

    /// The request counter for one endpoint (an index into
    /// [`ENDPOINTS`]).
    pub fn requests_total(&self, endpoint: usize) -> u64 {
        self.requests[endpoint].get()
    }

    /// The apply-time histogram for one command.
    pub fn apply_us(&self, cmd: &Command) -> &Histogram {
        let kind = command_kind(cmd);
        let i = COMMAND_KINDS
            .iter()
            .position(|k| *k == kind)
            .expect("every kind is in COMMAND_KINDS");
        &self.apply_us[i]
    }

    /// The phase-time histogram for one round phase (index into
    /// [`ROUND_PHASES`]).
    pub(crate) fn round_phase_us(&self, phase: usize) -> &Histogram {
        &self.round_phase_us[phase]
    }

    /// The latency histogram for one coordinator→worker RPC (a name
    /// from [`WORKER_RPCS`]; unknown names map to the first entry).
    pub(crate) fn worker_rpc_us(&self, rpc: &str) -> &Histogram {
        let i = WORKER_RPCS.iter().position(|k| *k == rpc).unwrap_or(0);
        &self.worker_rpc_us[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_classification() {
        let label = |path| ENDPOINTS[endpoint(path)];
        assert_eq!(label("/health"), "/health");
        assert_eq!(label("/ledger"), "/ledger");
        assert_eq!(label("/ledger/alice"), "/ledger");
        assert_eq!(label("/metrics"), "/metrics");
        assert_eq!(label("/nope"), "other");
        assert_eq!(label("/internal/apply"), "other");
        for (i, e) in ENDPOINTS.iter().enumerate() {
            assert_eq!(endpoint(e), i);
        }
    }

    #[test]
    fn handles_resolve_and_record() {
        let m = metrics();
        let health = endpoint("/health");
        let before = m.requests_total(health);
        m.record_request(health, std::time::Duration::from_micros(5));
        assert_eq!(m.requests_total(health), before + 1);
        m.apply_us(&Command::RunRound { rounds: 1 }).record(10);
        assert!(
            m.apply_us(&Command::RunRound { rounds: 1 })
                .snapshot()
                .count()
                >= 1
        );
    }
}
