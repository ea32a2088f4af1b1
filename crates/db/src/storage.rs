//! The storage-engine seam behind [`crate::Store`].
//!
//! The store separates *what* it keeps (sharded in-memory bucket maps,
//! generation counters, degraded-mode policy) from *how* that state is
//! made durable. A [`StorageEngine`] owns the persistent image of the
//! database and is chosen per deployment:
//!
//! * [`crate::wal_engine::WalEngine`] — the default append-only
//!   write-ahead log with group commit and background compaction; the
//!   only engine that can ship its log to replication followers.
//! * [`crate::mmap_engine::MmapEngine`] — a checkpointing snapshot engine
//!   that memory-maps the file on open, for follower/read-mostly nodes
//!   where durability-at-checkpoint is acceptable and bounded cold
//!   restart matters more than per-write persistence.
//!
//! Both persist the same CRC-framed record format ([`crate::log`]), so a
//! store can be reopened under either backend.

use std::io;

use crate::log::LogOp;
use crate::store::WalChunk;

/// Which engine backs a persistent store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageBackend {
    /// Append-only WAL with group commit + background compaction.
    #[default]
    Wal,
    /// Mmap-recovered snapshot file, persisted at checkpoint granularity.
    Mmap,
}

impl std::str::FromStr for StorageBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "wal" => Ok(StorageBackend::Wal),
            "mmap" => Ok(StorageBackend::Mmap),
            other => Err(format!("bad storage_backend {other:?} (wal|mmap)")),
        }
    }
}

/// Tuning knobs for opening a persistent store.
#[derive(Debug, Clone, Copy)]
pub struct StorageOptions {
    /// Engine choice.
    pub backend: StorageBackend,
    /// Make every append durable before acknowledging it, concurrent
    /// appenders sharing each fsync (WAL engine only; the mmap engine is
    /// durable at checkpoints by design).
    pub sync: bool,
    /// Background-compact once the fraction of dead bytes in the log
    /// exceeds this ratio (`0.0` disables the janitor; manual
    /// [`crate::Store::compact`] always works).
    pub compact_ratio: f64,
    /// Don't compact logs smaller than this many bytes, however garbage-
    /// heavy — rewriting tiny files buys nothing and thrashes.
    pub compact_min_bytes: u64,
    /// Number of lock-striped bucket shards (rounded up to at least 1).
    pub shards: usize,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            backend: StorageBackend::Wal,
            sync: false,
            compact_ratio: 0.5,
            compact_min_bytes: 256 * 1024,
            shards: 16,
        }
    }
}

/// Monotonic counters every engine maintains.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StorageCounters {
    /// fsync/fdatasync calls issued (group commits, explicit syncs,
    /// compaction/checkpoint rewrites, recovery repairs).
    pub fsyncs: u64,
    /// Group-commit batches led (each one fsync covering ≥ 1 append).
    pub group_commits: u64,
    /// Compactions (WAL) or checkpoints (mmap) completed.
    pub compactions: u64,
    /// Total bytes handed to the filesystem (appends + rewrite copies);
    /// divided by live bytes this is the engine's write amplification.
    pub bytes_written: u64,
}

/// A consistent view of the store's live state, supplied by the store to
/// engines that persist at snapshot granularity (checkpoint or compact).
/// Implementations must emit every live `(bucket, key, value)` exactly
/// once, holding whatever locks make the cut atomic.
pub trait SnapshotSource: Send + Sync {
    /// Stream every live record to `emit`, stopping at the first error.
    fn emit_ops(&self, emit: &mut EmitOp<'_>) -> io::Result<()>;
}

/// Sink for [`SnapshotSource::emit_ops`]: called once per live
/// `(bucket, key, value)`.
pub type EmitOp<'a> = dyn FnMut(&str, &str, &[u8]) -> io::Result<()> + 'a;

/// A persistence engine: the durable half of a [`crate::Store`].
///
/// Engines are internally synchronized (the store calls them from many
/// threads at once) and must keep their on-disk image recoverable after a
/// crash at any instant — a torn final record is repairable, a
/// frame-shifted middle is not.
pub trait StorageEngine: Send + Sync {
    /// Short backend name, as exposed via stats ("wal", "mmap").
    fn name(&self) -> &'static str;

    /// Record one operation per the engine's durability contract. An
    /// error means the operation must not be applied to memory (the
    /// store degrades to read-only).
    fn append(&self, op: &LogOp) -> io::Result<()>;

    /// Force pending state to disk. `state` supplies a consistent
    /// snapshot for engines that persist whole images; the WAL engine
    /// ignores it and fsyncs its log.
    fn sync(&self, state: &dyn SnapshotSource) -> io::Result<()>;

    /// Rewrite the persistent image as a minimal snapshot of live state.
    /// Safe to call concurrently with appends; concurrent calls coalesce.
    fn compact(&self, state: &dyn SnapshotSource) -> io::Result<()>;

    /// Should the janitor compact now? `live_bytes` is the store's
    /// estimate of the on-disk size of a minimal snapshot.
    fn wants_compaction(&self, live_bytes: u64, ratio: f64) -> bool;

    /// Committed length in bytes of the persistent image (the
    /// replication high-water mark for log-shipping engines).
    fn committed_len(&self) -> u64;

    /// Incarnation of the persistent file; bumps whenever a rewrite
    /// invalidates previously handed-out offsets.
    fn epoch(&self) -> u64;

    /// Can this engine serve its log to replication followers?
    fn ships_log(&self) -> bool {
        false
    }

    /// Read a replication chunk (see [`crate::Store::wal_read`]). Errors
    /// for engines that do not ship a log.
    fn read_log(&self, epoch: u64, offset: u64, max_bytes: usize) -> io::Result<WalChunk>;

    /// Snapshot of the engine's counters.
    fn counters(&self) -> StorageCounters;
}
