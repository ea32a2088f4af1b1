//! Counters of the persistent store (the engine itself is
//! [`crate::wal_engine::WalEngine`]).

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
