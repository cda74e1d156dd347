//! The process-global metrics registry and its Prometheus text
//! exposition.
//!
//! Metric names follow the Prometheus data model: a bare base name
//! (`dmp_rounds_total`) or a base name plus a fixed label set
//! (`dmp_apply_us{kind="deposit"}`). The full string is the registry
//! key; the renderer splits it back apart to emit `TYPE`/`HELP` lines
//! once per base name and to splice `le` labels into histogram bucket
//! lines.
//!
//! Handles are `Arc`s: resolve them once at startup, cache them in the
//! instrumented layer, and the record path never touches the registry
//! lock again. Rendering locks the registry map only long enough to
//! clone the handle list — it can never contend with any lock the
//! instrumented layers hold.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::Histogram;

/// A monotonically-increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic gauge (a value that goes up and down).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    metric: Metric,
    help: &'static str,
}

/// A named collection of metrics, renderable as Prometheus text.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

/// The process-global registry every layer registers into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    /// Get or register the counter `name`. The help text is stored on
    /// first registration. Panics if `name` is already registered as a
    /// different metric kind — that is a programming error, not a
    /// runtime condition.
    pub fn counter(&self, name: &str, help: &'static str) -> Arc<Counter> {
        let mut entries = self.entries.lock().unwrap();
        let entry = entries.entry(name.to_string()).or_insert_with(|| Entry {
            metric: Metric::Counter(Arc::new(Counter::default())),
            help,
        });
        match &entry.metric {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str, help: &'static str) -> Arc<Gauge> {
        let mut entries = self.entries.lock().unwrap();
        let entry = entries.entry(name.to_string()).or_insert_with(|| Entry {
            metric: Metric::Gauge(Arc::new(Gauge::default())),
            help,
        });
        match &entry.metric {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Get or register the histogram `name`.
    pub fn histogram(&self, name: &str, help: &'static str) -> Arc<Histogram> {
        let mut entries = self.entries.lock().unwrap();
        let entry = entries.entry(name.to_string()).or_insert_with(|| Entry {
            metric: Metric::Histogram(Arc::new(Histogram::new())),
            help,
        });
        match &entry.metric {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Render every registered metric in the Prometheus text exposition
    /// format (v0.0.4). Histograms emit cumulative `_bucket` lines at
    /// power-of-two `le` boundaries (relative error already bounded by
    /// the sub-bucketing), `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        // Snapshot the handle list under the map lock, render outside
        // it: rendering cost never extends the critical section.
        let snapshot: Vec<(String, &'static str, MetricSnapshot)> = {
            let entries = self.entries.lock().unwrap();
            entries
                .iter()
                .map(|(name, e)| {
                    let snap = match &e.metric {
                        Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                        Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                        Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                    };
                    (name.clone(), e.help, snap)
                })
                .collect()
        };

        let mut out = String::with_capacity(4096);
        let mut last_base = String::new();
        for (name, help, snap) in snapshot {
            let (base, labels) = split_name(&name);
            if base != last_base {
                if !help.is_empty() {
                    out.push_str(&format!("# HELP {base} {help}\n"));
                }
                out.push_str(&format!("# TYPE {base} {}\n", snap.type_name()));
                last_base = base.to_string();
            }
            match snap {
                MetricSnapshot::Counter(v) => out.push_str(&format!("{name} {v}\n")),
                MetricSnapshot::Gauge(v) => out.push_str(&format!("{name} {v}\n")),
                MetricSnapshot::Histogram(h) => {
                    let mut cumulative = 0u64;
                    let mut next_boundary = 1u64;
                    for (i, &c) in h.counts.iter().enumerate() {
                        cumulative += c;
                        let bound = crate::hist::bucket_bound(i);
                        // Emit one cumulative line per power-of-two
                        // boundary crossed, while counts remain.
                        if bound >= next_boundary && bound != u64::MAX {
                            out.push_str(&bucket_line(
                                base,
                                labels,
                                &bound.to_string(),
                                cumulative,
                            ));
                            while next_boundary <= bound {
                                next_boundary = next_boundary.saturating_mul(2);
                            }
                            if bound >= h.max {
                                break; // every later bucket is empty
                            }
                        }
                    }
                    let total = h.count();
                    out.push_str(&bucket_line(base, labels, "+Inf", total));
                    out.push_str(&value_line(base, "_sum", labels, &h.sum.to_string()));
                    out.push_str(&value_line(base, "_count", labels, &total.to_string()));
                }
            }
        }
        out
    }
}

enum MetricSnapshot {
    Counter(u64),
    Gauge(i64),
    Histogram(crate::hist::HistogramSnapshot),
}

impl MetricSnapshot {
    fn type_name(&self) -> &'static str {
        match self {
            MetricSnapshot::Counter(_) => "counter",
            MetricSnapshot::Gauge(_) => "gauge",
            MetricSnapshot::Histogram(_) => "histogram",
        }
    }
}

/// Split `base{labels}` into `(base, labels)` (`labels` without
/// braces, empty for a bare name).
fn split_name(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.trim_end_matches('}')),
        None => (name, ""),
    }
}

fn bucket_line(base: &str, labels: &str, le: &str, cumulative: u64) -> String {
    if labels.is_empty() {
        format!("{base}_bucket{{le=\"{le}\"}} {cumulative}\n")
    } else {
        format!("{base}_bucket{{{labels},le=\"{le}\"}} {cumulative}\n")
    }
}

fn value_line(base: &str, suffix: &str, labels: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{base}{suffix} {value}\n")
    } else {
        format!("{base}{suffix}{{{labels}}} {value}\n")
    }
}

/// A tiny Prometheus text-format linter: every line must be a valid
/// `# HELP`/`# TYPE` comment or a `name[{label="value",...}] <number>`
/// sample. Returns the first offending line. The CI scrape test runs
/// this over a live `/metrics` body.
pub fn lint_exposition(text: &str) -> Result<(), String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    fn valid_labels(s: &str) -> bool {
        // label="value" pairs, comma-separated; values may not contain
        // unescaped quotes (our renderer never emits escapes).
        s.split(',').all(|pair| match pair.split_once('=') {
            Some((k, v)) => valid_name(k) && v.len() >= 2 && v.starts_with('"') && v.ends_with('"'),
            None => false,
        })
    }
    for (lineno, line) in text.lines().enumerate() {
        let err = |why: &str| Err(format!("line {}: {why}: {line:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            match keyword {
                "HELP" if valid_name(name) => continue,
                "TYPE" => {
                    let kind = parts.next().unwrap_or("");
                    if valid_name(name)
                        && matches!(
                            kind,
                            "counter" | "gauge" | "histogram" | "summary" | "untyped"
                        )
                    {
                        continue;
                    }
                    return err("bad TYPE comment");
                }
                _ => return err("bad comment"),
            }
        }
        // Sample line: name or name{labels}, one space, a number.
        let Some((series, value)) = line.rsplit_once(' ') else {
            return err("no value");
        };
        if value.parse::<f64>().is_err() {
            return err("value is not a number");
        }
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => match rest.strip_suffix('}') {
                Some(l) => (n, l),
                None => return err("unterminated label set"),
            },
            None => (series, ""),
        };
        if !valid_name(name) {
            return err("bad metric name");
        }
        if !labels.is_empty() && !valid_labels(labels) {
            return err("bad label set");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared() {
        let r = Registry::default();
        let a = r.counter("x_total", "a counter");
        let b = r.counter("x_total", "a counter");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::default();
        r.counter("x", "");
        r.gauge("x", "");
    }

    #[test]
    fn renders_counters_gauges_histograms() {
        let r = Registry::default();
        r.counter("req_total", "requests").add(7);
        r.gauge("conns", "open connections").add(-2);
        let h = r.histogram("lat_us{endpoint=\"/health\"}", "latency");
        h.record(3);
        h.record(300);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE req_total counter"), "{text}");
        assert!(text.contains("req_total 7"), "{text}");
        assert!(text.contains("conns -2"), "{text}");
        assert!(
            text.contains("lat_us_bucket{endpoint=\"/health\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("lat_us_sum{endpoint=\"/health\"} 303"),
            "{text}"
        );
        assert!(
            text.contains("lat_us_count{endpoint=\"/health\"} 2"),
            "{text}"
        );
        lint_exposition(&text).expect("rendered exposition must lint clean");
    }

    #[test]
    fn histogram_bucket_lines_are_cumulative_and_monotone() {
        let r = Registry::default();
        let h = r.histogram("h_us", "");
        for v in [1u64, 2, 4, 100, 10_000, 1_000_000] {
            h.record(v);
        }
        let text = r.render_prometheus();
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines() {
            if line.starts_with("h_us_bucket") {
                let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(count >= last, "cumulative counts must not decrease: {text}");
                last = count;
                bucket_lines += 1;
            }
        }
        assert!(bucket_lines > 3, "expected several le boundaries: {text}");
        assert_eq!(last, 6, "+Inf bucket holds everything");
    }

    #[test]
    fn linter_rejects_malformed_lines() {
        assert!(lint_exposition("ok_metric 1\n").is_ok());
        assert!(lint_exposition("bad metric name 1\n").is_err());
        assert!(lint_exposition("no_value\n").is_err());
        assert!(lint_exposition("x{unterminated=\"v\" 1\n").is_err());
        assert!(lint_exposition("x{k=noquotes} 1\n").is_err());
        assert!(lint_exposition("x NaNope\n").is_err());
        assert!(lint_exposition("# BOGUS comment\n").is_err());
        assert!(lint_exposition("# TYPE x flavor\n").is_err());
    }
}
