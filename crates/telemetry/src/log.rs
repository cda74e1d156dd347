//! Structured, level-filtered logging behind the [`log!`](crate::log!)
//! macro.
//!
//! The level comes from the `DMP_LOG` environment variable
//! (`error`/`warn`/`info`/`debug`/`trace`), resolved once on first
//! use; unset or unrecognized means **off** — benches and tests pay
//! one atomic load per call site and produce no output. Lines are
//! `key=value` structured text on stderr:
//!
//! ```text
//! ts_ms=1754650000123 level=warn target=dmp_service::node snapshot failed seq=42 err=...
//! ```

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or state-threatening conditions.
    Error = 1,
    /// Degraded-but-running conditions (failed snapshot, poisoned WAL).
    Warn = 2,
    /// Lifecycle events (recovery completed, gateway bound).
    Info = 3,
    /// Per-operation detail.
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// 0 = off, 1..=5 = max enabled level, 255 = not yet resolved.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(255);

fn resolve_level() -> u8 {
    let level = match std::env::var("DMP_LOG").as_deref() {
        Ok("error") | Ok("ERROR") => 1,
        Ok("warn") | Ok("WARN") => 2,
        Ok("info") | Ok("INFO") => 3,
        Ok("debug") | Ok("DEBUG") => 4,
        Ok("trace") | Ok("TRACE") => 5,
        // Unset, empty, "off", or anything unrecognized: silent.
        _ => 0,
    };
    MAX_LEVEL.store(level, Ordering::Relaxed);
    level
}

/// Whether `level` is currently enabled (one relaxed load after the
/// first call).
pub fn enabled(level: Level) -> bool {
    let max = MAX_LEVEL.load(Ordering::Relaxed);
    let max = if max == 255 { resolve_level() } else { max };
    level as u8 <= max
}

/// Emit one structured line to stderr (called by the macro after the
/// level check; not meant to be called directly).
#[doc(hidden)]
pub fn write(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    eprintln!(
        "ts_ms={ts_ms} level={} target={target} {args}",
        level.as_str()
    );
}

/// Structured, level-filtered logging:
///
/// ```
/// dmp_telemetry::log!(Warn, "snapshot failed seq={} err={}", 42, "disk full");
/// ```
///
/// The first argument is a [`Level`](crate::log::Level) variant name; the
/// rest is a `format!` body — by convention `key=value` pairs after a
/// short message. Disabled levels cost one atomic load and never
/// evaluate the format arguments.
#[macro_export]
macro_rules! log {
    ($level:ident, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::$level) {
            $crate::log::write(
                $crate::log::Level::$level,
                module_path!(),
                format_args!($($arg)*),
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_most_severe_first() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Trace);
    }

    /// Stand-in for `DMP_LOG`, which is read once per process.
    fn set_level(level: Option<Level>) {
        MAX_LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
    }

    #[test]
    fn set_level_gates_enabled() {
        set_level(Some(Level::Warn));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_level(None);
        assert!(!enabled(Level::Error), "off silences everything");
        // Macro compiles and is silent when off.
        crate::log!(Error, "should not print x={}", 1);
    }
}
