//! Metric definitions, the result documents, and `compare`.
//!
//! The tables here are the benchmark's schema: `BENCHMARK.json` lists
//! the same names with the same units and directions, and `compare`
//! takes its bounds from that file.

use std::collections::BTreeMap;

use dmp_service::wire::Json;

use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Rep, Workload, REFERENCE_SECONDS};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn parse(s: &str) -> Option<Better> {
        [Better::Lower, Better::Higher]
            .into_iter()
            .find(|b| b.name() == s)
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The metric's value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// Side information: `min`/`max` over repetitions and their count;
    /// a tail's percentile and sample count.
    pub detail: Vec<(String, f64)>,
}

impl Value {
    fn new(value: f64, unit: &str) -> Value {
        Value {
            value,
            unit: unit.to_string(),
            detail: Vec::new(),
        }
    }

    /// The median of per-repetition values, with their range alongside.
    fn over_reps(values: &[f64], unit: &str) -> Value {
        let (min, max) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(*v), hi.max(*v))
            });
        Value {
            value: stats::median(values),
            unit: unit.to_string(),
            detail: vec![
                ("min".into(), min),
                ("max".into(), max),
                ("repetitions".into(), values.len() as f64),
            ],
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("value".to_string(), Json::Num(self.value)),
            ("unit".to_string(), Json::str(self.unit.clone())),
        ];
        pairs.extend(self.detail.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
        Json::Obj(pairs)
    }

    fn from_json(json: &Json) -> Result<Value, String> {
        let Json::Obj(pairs) = json else {
            return Err("metric is not an object".into());
        };
        Ok(Value {
            value: json.req_f64("value").map_err(|e| e.to_string())?,
            unit: json.req_str("unit").map_err(|e| e.to_string())?,
            detail: pairs
                .iter()
                .filter(|(k, _)| k != "value" && k != "unit")
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect(),
        })
    }
}

/// What one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics by name, in table order.
    pub metrics: Vec<(String, Value)>,
}

impl WorkloadReport {
    /// The one-line result the benchmark driver reads: exactly
    /// `correct`, `attempted`, `failed`, `metrics{name:{value,unit}}`.
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, v)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("value", Json::Num(v.value)),
                                    ("unit", Json::str(v.unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .dump()
    }

    /// The full document (side information included).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.clone())),
            ("seed", Json::str(self.seed.to_string())),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, v)| (name.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse [`WorkloadReport::to_json`]'s output.
    pub fn from_json(json: &Json) -> Result<WorkloadReport, String> {
        let text = |key: &str| json.req_str(key).map_err(|e| e.to_string());
        let flag = |key: &str| {
            json.get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("missing flag '{key}'"))
        };
        let count = |key: &str| json.req_u64(key).map_err(|e| e.to_string());
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            return Err("missing 'metrics'".into());
        };
        Ok(WorkloadReport {
            workload: text("workload")?,
            seed: text("seed")?
                .parse()
                .map_err(|_| "bad 'seed'".to_string())?,
            traced: flag("traced")?,
            correct: flag("correct")?,
            attempted: count("ops_attempted")?,
            failed: count("ops_failed")?,
            metrics: metrics
                .iter()
                .map(|(name, v)| Value::from_json(v).map(|v| (name.clone(), v)))
                .collect::<Result<_, _>>()?,
        })
    }

    fn metric(&self, name: &str) -> Option<&Value> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// An end-to-end metric: name, unit, direction, and the share by which
/// it may worsen before a change counts as a regression. Every value is
/// the median over the run's repetitions.
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("ops_per_s", "1/s", Better::Higher, 0.25),
    ("op_p50_us", "us", Better::Lower, 0.25),
    ("recovery_s", "s", Better::Lower, 0.25),
    ("disk_bytes_per_cmd", "B", Better::Lower, 0.01),
    ("setup_s", "s", Better::Lower, 0.25),
];

/// The median of one repetition's operation latencies, in µs.
fn rep_p50_us(rep: &Rep) -> f64 {
    let mut ns = rep.measured.op_ns.clone();
    ns.sort_unstable();
    stats::percentile(&ns, 500) as f64 / 1e3
}

/// The end-to-end metrics of an untraced run: its repetitions, and every
/// set-up it timed (the repetitions' own and the set-up-only ones).
pub fn end_to_end(reps: &[Rep], setups: &[f64]) -> Vec<(String, Value)> {
    let per_rep: [Vec<f64>; 5] = [
        reps.iter()
            .map(|r| r.measured.ops as f64 / r.measured.wall_s)
            .collect(),
        reps.iter().map(rep_p50_us).collect(),
        reps.iter().map(|r| r.recovery_s).collect(),
        reps.iter()
            .map(|r| r.disk_bytes as f64 / r.journaled.max(1) as f64)
            .collect(),
        setups.to_vec(),
    ];
    END_TO_END
        .iter()
        .zip(per_rep)
        .map(|((name, unit, ..), values)| (name.to_string(), Value::over_reps(&values, unit)))
        .collect()
}

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// `total time of the span / its units`, in units of `ns` nanoseconds.
    PerUnit { span: &'static str, ns: f64 },
    /// `units of the span / its total time`, per `ns` nanoseconds.
    Rate { span: &'static str, ns: f64 },
    /// `Σvalue / Σoccasions` of a counter.
    Counter(&'static str),
    /// Supplied by the run itself, by name (see [`per_layer`]).
    Extra,
}

const NS: f64 = 1.0;
const US: f64 = 1e3;

/// A per-layer metric: name, unit, direction, source.
pub type PerLayer = (&'static str, &'static str, Better, Source);

/// Time per unit of `span`, in units of `ns` nanoseconds.
const fn time(name: &'static str, unit: &'static str, span: &'static str, ns: f64) -> PerLayer {
    (name, unit, Better::Lower, Source::PerUnit { span, ns })
}

/// Units of `span` per `ns` nanoseconds.
const fn rate(name: &'static str, unit: &'static str, span: &'static str, ns: f64) -> PerLayer {
    (name, unit, Better::Higher, Source::Rate { span, ns })
}

/// The counter recorded under the metric's own name.
const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    (name, unit, better, Source::Counter(name))
}

/// Supplied by the run itself.
const fn extra(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    (name, unit, better, Source::Extra)
}

/// Every per-layer metric, grouped by crate / module.
// One metric per line: rustfmt would spread each call over six.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    // dmp-core
    time("core.candidates.us_per_round", "us", "core.candidates", US),
    time("core.clearing.us_per_round", "us", "core.clearing", US),
    time("core.settlement.us_per_round", "us", "core.settlement", US),
    count("core.candidates.bids_per_offer", "ratio", Better::Higher),
    count("core.settlement.sales_per_round", "count", Better::Higher),
    count("core.settlement.components_per_round", "count", Better::Higher),
    time("core.mashup_builder.us_per_offer", "us", "core.mashup_builder", US),
    time("core.wtp_evaluator.us_per_mashup", "us", "core.wtp_evaluator", US),
    time("core.revenue.us_per_sale", "us", "core.revenue", US),
    time("core.ledger.transfer_ns", "ns", "core.ledger.transfer", NS),
    // dmp-integration, dmp-discovery, dmp-relation, dmp-mechanism, dmp-valuation
    time("integration.dod.us_per_offer", "us", "integration.dod", US),
    count("integration.dod.candidates_per_offer", "count", Better::Higher),
    time("discovery.register.us_per_dataset", "us", "discovery.register", US),
    time("discovery.index.build_us", "us", "discovery.index.build", US),
    time("discovery.index.cached_ns", "ns", "discovery.index.cached", NS),
    time("discovery.search.us_per_attribute", "us", "discovery.search", US),
    time("relation.natural_join.us_per_call", "us", "relation.natural_join", US),
    count("relation.natural_join.rows_out", "count", Better::Higher),
    time("relation.from_spec.us_per_table", "us", "relation.from_spec", US),
    time("mechanism.run_auction.us_per_call", "us", "mechanism.run_auction", US),
    time("valuation.share_revenue.us_per_sale", "us", "valuation.share_revenue", US),
    // dmp-service, storage side
    time("service.wire.parse_small_ns_per_byte", "ns/B", "service.wire.parse_small", NS),
    time("service.wire.parse_large_ns_per_byte", "ns/B", "service.wire.parse_large", NS),
    time("service.wire.dump_ns_per_byte", "ns/B", "service.wire.dump", NS),
    time("service.command.encode_ns", "ns", "service.command.encode", NS),
    time("service.command.decode_ns", "ns", "service.command.decode", NS),
    time("service.journal.append_us", "us", "service.journal.append", US),
    time("service.journal.append_nosync_us", "us", "service.journal.append_nosync", US),
    count("service.journal.bytes_per_cmd", "B", Better::Lower),
    rate("service.journal.scan_mb_per_s", "MB/s", "service.journal.scan", 1e3),
    time("service.journal.truncate_prefix_us", "us", "service.journal.truncate_prefix", US),
    time("service.shard.apply_us.deposit", "us", "service.shard.apply.deposit", US),
    time("service.shard.apply_us.offer", "us", "service.shard.apply.offer", US),
    time("service.shard.apply_us.ask", "us", "service.shard.apply.ask", US),
    time("service.node.apply_us.deposit", "us", "service.node.apply.deposit", US),
    time("service.node.apply_us.offer", "us", "service.node.apply.offer", US),
    time("service.node.apply_us.round", "us", "service.node.apply.round", US),
    extra("service.node.checkpoint_stall_ms", "ms", Better::Lower),
    time("service.state.export_us", "us", "service.state.export", US),
    time("service.state.encode_us", "us", "service.state.encode", US),
    time("service.state.decode_us", "us", "service.state.decode", US),
    time("service.state.restore_us", "us", "service.state.restore", US),
    time("service.state.digest_us", "us", "service.state.digest", US),
    count("service.state.image_bytes", "B", Better::Lower),
    time("service.snapshot.write_us", "us", "service.snapshot.write", US),
    time("service.snapshot.load_us", "us", "service.snapshot.load", US),
    // dmp-service, network side
    time("service.gateway.req_us.health", "us", "service.gateway.req.health", US),
    time("service.gateway.req_us.ledger", "us", "service.gateway.req.ledger", US),
    time("service.gateway.req_us.deposits", "us", "service.gateway.req.deposits", US),
    time("service.gateway.req_us.offers", "us", "service.gateway.req.offers", US),
    rate("service.gateway.pipelined_rps", "1/s", "service.gateway.pipelined", 1e9),
    count("service.gateway.mix_read_p50_us", "us", Better::Lower),
    count("service.gateway.mix_read_tail_us", "us", Better::Lower),
    time("service.http.parse_ns_per_request", "ns", "service.http.parse", NS),
    time("service.codec.encode_export_us", "us", "service.codec.encode_export", US),
    time("service.codec.decode_export_us", "us", "service.codec.decode_export", US),
    count("service.codec.export_bytes_per_round", "B", Better::Lower),
    time("service.coordinator.mirror_us_per_cmd", "us", "service.coordinator.mirror", US),
    time("service.coordinator.candidates_rpc_us", "us", "service.coordinator.candidates_rpc", US),
    time("service.coordinator.round_complete_us", "us", "service.coordinator.round_complete", US),
    time("service.coordinator.provision_us", "us", "service.coordinator.provision", US),
    count("service.worker.live_share", "ratio", Better::Higher),
    // dmp-telemetry, the process, the harness itself
    time("telemetry.hist.record_ns", "ns", "telemetry.hist.record", NS),
    extra("process.peak_rss_mib", "MiB", Better::Lower),
    extra("bench.op_tail_us", "us", Better::Lower),
    extra("bench.unattributed_share", "ratio", Better::Lower),
    extra("bench.trace_overhead_share", "ratio", Better::Lower),
];

/// A value the trace alone cannot supply: metric name, value, detail.
pub type Extra<'a> = (&'a str, f64, &'a [(&'a str, f64)]);

/// Every per-layer metric of a traced run. A metric is read from the
/// stepped phase's trace when that phase recorded its span or counter —
/// then it is the workload's own work — and from the probes' trace
/// otherwise; the two are never blended. `extras` are the values no
/// trace supplies. A metric nobody measured is an error: each workload
/// reports all.
pub fn per_layer(
    stepped: &Tracer,
    probes: &Tracer,
    extras: &[Extra],
) -> Result<Vec<(String, Value)>, String> {
    let traces = [(stepped, stepped.aggregate()), (probes, probes.aggregate())];
    PER_LAYER
        .iter()
        .map(|(name, unit, _, source)| {
            let value = match source {
                Source::PerUnit { span, ns } => traces.iter().find_map(|(_, totals)| {
                    let a = totals.get(span).filter(|a| a.units > 0)?;
                    Some(Value::new(a.total_ns as f64 / a.units as f64 / ns, unit))
                }),
                Source::Rate { span, ns } => traces.iter().find_map(|(_, totals)| {
                    let a = totals.get(span).filter(|a| a.total_ns > 0)?;
                    Some(Value::new(a.units as f64 / a.total_ns as f64 * ns, unit))
                }),
                Source::Counter(counter) => traces
                    .iter()
                    .find_map(|(t, _)| t.ratio(counter))
                    .map(|v| Value::new(v, unit)),
                Source::Extra => extras
                    .iter()
                    .find(|(n, ..)| n == name)
                    .map(|(_, v, detail)| Value {
                        detail: detail.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
                        ..Value::new(*v, unit)
                    }),
            };
            value
                .map(|v| (name.to_string(), v))
                .ok_or_else(|| format!("per-layer metric {name} was never measured"))
        })
        .collect()
}

/// `BENCHMARK.json`, generated from the tables above so that the file
/// and the program cannot drift apart: top-level keys one per line,
/// list entries one per line.
pub fn manifest() -> String {
    let better = |b: &Better| Json::str(b.name());
    let list = |items: Vec<Json>| {
        let lines: Vec<String> = items.iter().map(|j| format!("    {}", j.dump())).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "crates/bench/src/bin/marketbench/Cargo.toml",
        "--",
    ];
    let fields = [
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()).dump(),
        ),
        (
            "paths",
            Json::Arr(vec![Json::str("crates/bench/src/bin/marketbench")]).dump(),
        ),
        ("run_seconds", REFERENCE_SECONDS.to_string()),
        (
            "workloads",
            list(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            list(
                END_TO_END
                    .iter()
                    .map(|(name, unit, b, bound)| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("unit", Json::str(*unit)),
                            ("better", better(b)),
                            ("bound", Json::Num(*bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            list(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, b, _)| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("unit", Json::str(*unit)),
                            ("better", better(b)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// `VmHWM` (peak resident set) of this process in MiB; 0 where
/// `/proc` does not say.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A full pass: every workload's report under one seed.
pub fn pass_to_json(seed: u64, reports: &[WorkloadReport]) -> Json {
    Json::obj([
        ("seed", Json::str(seed.to_string())),
        (
            "workloads",
            Json::Arr(reports.iter().map(WorkloadReport::to_json).collect()),
        ),
    ])
}

fn pass_from_json(json: &Json) -> Result<Vec<WorkloadReport>, String> {
    json.req_arr("workloads")
        .map_err(|e| e.to_string())?
        .iter()
        .map(WorkloadReport::from_json)
        .collect()
}

/// `name -> (direction, bound)` of `BENCHMARK.json`'s end-to-end list.
fn bounds(benchmark: &Json) -> Result<BTreeMap<String, (Better, f64)>, String> {
    benchmark
        .req_arr("end_to_end")
        .map_err(|e| e.to_string())?
        .iter()
        .map(|m| {
            let name = m.req_str("name").map_err(|e| e.to_string())?;
            let better = m
                .req_str("better")
                .ok()
                .and_then(|b| Better::parse(&b))
                .ok_or_else(|| format!("{name}: bad 'better'"))?;
            let bound = m.req_f64("bound").map_err(|e| e.to_string())?;
            Ok((name, (better, bound)))
        })
        .collect()
}

/// Compare two passes of the same code: one row per workload ×
/// end-to-end metric, and `Ok(false)` when any metric differs between
/// them by more than its bound (in either direction, as a share of
/// `a`'s value), or `b`'s failure share is above `a`'s.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark)?;
    let (a, b) = (pass_from_json(a)?, pass_from_json(b)?);
    let mut table = format!(
        "{:<17} {:<19} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    let mut pass = true;
    for ra in &a {
        let rb = b
            .iter()
            .find(|r| r.workload == ra.workload)
            .ok_or_else(|| format!("{} is missing from the second pass", ra.workload))?;
        for (name, (better, bound)) in &bounds {
            let (va, vb) = match (ra.metric(name), rb.metric(name)) {
                (Some(va), Some(vb)) => (va.value, vb.value),
                _ => return Err(format!("{}: {name} is missing from a pass", ra.workload)),
            };
            // Positive = b is worse than a, as a share of a.
            let worse = match better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let verdict = match worse {
                w if w > *bound => "WORSE",
                w if w < -*bound => "BETTER",
                _ => "ok",
            };
            pass &= verdict == "ok";
            table.push_str(&format!(
                "{:<17} {:<19} {:>14.4} {:>14.4} {:>+8.4} {:>6.3}  {verdict}\n",
                ra.workload, name, va, vb, worse, bound,
            ));
        }
        let share = |r: &WorkloadReport| r.failed as f64 / r.attempted.max(1) as f64;
        let ok = share(rb) <= share(ra) && rb.correct;
        pass &= ok;
        table.push_str(&format!(
            "{:<17} {:<19} {:>14} {:>14} {:>8} {:>6}  {}\n",
            ra.workload,
            "ops_failed/attempted",
            format!("{}/{}", ra.failed, ra.attempted),
            format!("{}/{}", rb.failed, rb.attempted),
            "",
            "",
            if ok { "ok" } else { "FAILED" }
        ));
    }
    Ok((table, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &str, ops_per_s: f64, failed: u64) -> WorkloadReport {
        WorkloadReport {
            workload: workload.into(),
            seed: u64::MAX,
            traced: false,
            correct: true,
            attempted: 1000,
            failed,
            metrics: vec![
                (
                    "ops_per_s".into(),
                    Value::over_reps(&[ops_per_s * 1.1, ops_per_s, ops_per_s * 0.9], "1/s"),
                ),
                ("setup_s".into(), Value::new(123.456, "s")),
            ],
        }
    }

    fn benchmark() -> Json {
        Json::parse(
            r#"{"end_to_end":[
                {"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1},
                {"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn report_round_trips_through_wire_json() {
        let r = report("rounds_local", 47.25, 0);
        let text = r.to_json().dump();
        let back = WorkloadReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        // The driver's line carries exactly its four keys.
        let Json::Obj(line) = Json::parse(&r.driver_line()).unwrap() else {
            panic!("driver line is not an object");
        };
        let keys: Vec<&str> = line.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn compare_applies_direction_and_bound() {
        let a = pass_to_json(1, &[report("w", 100.0, 0)]);
        let within = pass_to_json(1, &[report("w", 92.0, 0)]);
        let slower = pass_to_json(1, &[report("w", 88.0, 0)]);
        let faster = pass_to_json(1, &[report("w", 150.0, 0)]);
        let failing = pass_to_json(1, &[report("w", 100.0, 3)]);
        let bm = benchmark();
        assert!(compare(&a, &within, &bm).unwrap().1);
        assert!(!compare(&a, &slower, &bm).unwrap().1);
        assert!(
            !compare(&a, &faster, &bm).unwrap().1,
            "two passes of one code may not differ either way"
        );
        assert!(!compare(&a, &failing, &bm).unwrap().1, "failures rose");
        assert!(compare(&a, &pass_to_json(1, &[]), &bm).is_err());
    }

    #[test]
    fn a_run_reports_the_median_of_its_repetitions_with_their_range() {
        let v = Value::over_reps(&[4.0, 1.0, 9.0], "x");
        assert_eq!(v.value, 4.0);
        assert_eq!(
            v.detail,
            [
                ("min".to_string(), 1.0),
                ("max".to_string(), 9.0),
                ("repetitions".to_string(), 3.0)
            ]
        );
    }

    #[test]
    fn a_layer_metric_comes_from_the_stepped_phase_or_else_the_probes() {
        let (mut stepped, mut probes) = (Tracer::new(), Tracer::new());
        stepped.span("core.clearing", 1, |_| ());
        stepped.count("core.settlement.sales_per_round", 16.0, 1.0);
        for name in PER_LAYER.iter().filter_map(|m| match m.3 {
            Source::PerUnit { span, .. } | Source::Rate { span, .. } => Some(span),
            _ => None,
        }) {
            probes.span(name, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        }
        for name in PER_LAYER.iter().filter_map(|m| match m.3 {
            Source::Counter(c) => Some(c),
            _ => None,
        }) {
            probes.count(name, 1.0, 1.0);
        }
        let extras: Vec<Extra> = PER_LAYER
            .iter()
            .filter(|m| matches!(m.3, Source::Extra))
            .map(|m| (m.0, 1.0, &[("samples", 750.0)][..]))
            .collect();
        let metrics = per_layer(&stepped, &probes, &extras).unwrap();
        let value = |name: &str| &metrics.iter().find(|(n, _)| n == name).unwrap().1;
        // Probed spans slept a millisecond; the stepped one did not.
        assert!(value("core.clearing.us_per_round").value < 500.0);
        assert!(value("core.candidates.us_per_round").value >= 1000.0);
        assert_eq!(value("core.settlement.sales_per_round").value, 16.0);
        assert_eq!(value("core.settlement.components_per_round").value, 1.0);
        assert_eq!(
            value("bench.op_tail_us").detail,
            [("samples".to_string(), 750.0)]
        );
        assert!(per_layer(&stepped, &Tracer::new(), &extras).is_err());
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        // Relative to this file, so it holds both as a bin of dmp-bench
        // and as the package of its own the driver builds.
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `marketbench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_two_manifests_name_the_same_dependencies() {
        // The directory is built as a bin of dmp-bench and as a package
        // of its own: a dependency added to one list and not the other
        // would break one of the two builds.
        let deps = |toml: &str| -> Vec<String> {
            toml.lines()
                .skip_while(|l| l.trim() != "[dependencies]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter_map(|l| l.split(['.', ' ', '=']).next())
                .filter(|name| !name.is_empty() && !name.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let own = deps(include_str!("Cargo.toml"));
        let bench = deps(include_str!("../../../Cargo.toml"));
        assert!(own.contains(&"dmp-service".to_string()));
        for dep in &own {
            assert!(bench.contains(dep), "dmp-bench does not depend on {dep}");
        }
    }

    #[test]
    fn manifest_is_valid_json_within_the_contract_limits() {
        let doc = Json::parse(&manifest()).expect("manifest parses");
        let names = |key: &str| -> Vec<String> {
            doc.req_arr(key)
                .unwrap()
                .iter()
                .map(|m| m.req_str("name").unwrap())
                .collect()
        };
        assert_eq!(names("workloads").len(), Workload::ALL.len());
        assert!(names("end_to_end").contains(&"setup_s".to_string()));
        assert_eq!(names("per_layer").len(), PER_LAYER.len());
        for w in doc.req_arr("workloads").unwrap() {
            let why = w.req_str("why").unwrap();
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        for m in doc.req_arr("end_to_end").unwrap() {
            let bound = m.req_f64("bound").unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for key in ["end_to_end", "per_layer"] {
            for m in doc.req_arr(key).unwrap() {
                assert!(
                    unit_ok(&m.req_str("unit").unwrap()),
                    "bad unit in {}",
                    m.dump()
                );
            }
        }
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(PER_LAYER.len() <= 128);
    }
}
