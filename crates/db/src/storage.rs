//! Tuning knobs and counters of the persistent store (the engine itself is
//! [`crate::wal_engine::WalEngine`]).

/// Tuning knobs for opening a persistent store.
#[derive(Debug, Clone, Copy)]
pub struct StorageOptions {
    /// Make every append durable before acknowledging it, concurrent
    /// appenders sharing each fsync.
    pub sync: bool,
    /// Background-compact once the fraction of dead bytes in the log
    /// exceeds this ratio (`0.0` disables the janitor; manual
    /// [`crate::Store::compact`] always works).
    pub compact_ratio: f64,
    /// Don't compact logs smaller than this many bytes, however garbage-
    /// heavy — rewriting tiny files buys nothing and thrashes.
    pub compact_min_bytes: u64,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            sync: false,
            compact_ratio: 0.5,
            compact_min_bytes: 256 * 1024,
        }
    }
}

/// Monotonic counters the engine maintains.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StorageCounters {
    /// fsync/fdatasync calls issued (group commits, explicit syncs,
    /// compaction rewrites, recovery repairs).
    pub fsyncs: u64,
    /// Group-commit batches led (each one fsync covering ≥ 1 append).
    pub group_commits: u64,
    /// Compactions completed.
    pub compactions: u64,
    /// Total bytes handed to the filesystem (appends + rewrite copies);
    /// divided by live bytes this is the engine's write amplification.
    pub bytes_written: u64,
}
