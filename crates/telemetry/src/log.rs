//! A tiny leveled logger.
//!
//! Off by default so benchmarks stay clean; enabled via the `CLARENS_LOG`
//! environment variable (`error|warn|info|debug|trace|off`) or
//! programmatically with [`set_level`]. Level checks are a single relaxed
//! atomic load, so disabled log statements cost one branch.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity. Larger = more verbose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Logging disabled.
    Off = 0,
    /// Unrecoverable or operator-visible failures.
    Error = 1,
    /// Suspicious but non-fatal conditions.
    Warn = 2,
    /// Lifecycle events (startup, shutdown, binds).
    Info = 3,
    /// Per-connection diagnostics (resets, handshake failures).
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    fn parse(text: &str) -> Option<Level> {
        match text.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Level::Off => "OFF",
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

/// Global level. Off by default: libraries and benches emit nothing unless
/// the operator opts in.
static LEVEL: AtomicU8 = AtomicU8::new(Level::Off as u8);

/// Set the global level.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current global level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        1 => Level::Error,
        2 => Level::Warn,
        3 => Level::Info,
        4 => Level::Debug,
        5 => Level::Trace,
        _ => Level::Off,
    }
}

/// Would a statement at `l` be emitted?
#[inline]
pub fn enabled(l: Level) -> bool {
    l as u8 <= LEVEL.load(Ordering::Relaxed)
}

/// Initialize from `CLARENS_LOG`, falling back to `default` when the
/// variable is unset or unparseable. Long-running daemons pass
/// `Level::Info`; libraries never call this.
pub fn init_from_env_or(default: Level) {
    let level = std::env::var("CLARENS_LOG")
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(default);
    set_level(level);
}

/// Emit one record (used by the macros; call through them).
pub fn log(l: Level, target: &str, args: fmt::Arguments<'_>) {
    if !enabled(l) {
        return;
    }
    eprintln!("[{:5}] {target}: {args}", l.label());
}

/// Log at error level.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Error, module_path!(), format_args!($($arg)*))
    };
}

/// Log at warn level.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Warn, module_path!(), format_args!($($arg)*))
    };
}

/// Log at info level.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Info, module_path!(), format_args!($($arg)*))
    };
}

/// Log at debug level.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Debug, module_path!(), format_args!($($arg)*))
    };
}

/// Log at trace level.
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Trace, module_path!(), format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_and_gating() {
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("nonsense"), None);

        // The global level is process-wide; restore it afterwards.
        let before = level();
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(Level::Off);
        assert!(!enabled(Level::Error));
        set_level(before);
    }
}
