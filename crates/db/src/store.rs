//! The namespaced key-value store.
//!
//! [`Store`] is the "database" the paper refers to throughout: "The list of
//! group members is cached in a database, as is all VO information" (§2.1),
//! and each Figure-4 request "incurs a database lookup for all registered
//! methods in the server" (§4). It offers:
//!
//! * named buckets, each an ordered map of `String → Vec<u8>` behind its
//!   own lock, so writes to different buckets (sessions vs. VO vs. ACL)
//!   never contend,
//! * optional durability through a group-commit write-ahead log
//!   ([`WalEngine`]),
//! * crash recovery with torn-tail truncation, and log compaction that
//!   the write pushing the WAL's garbage past its threshold starts on a
//!   short-lived thread,
//! * prefix scans (hierarchical ACL/VO keys are path-like),
//! * lookup counters, so the benchmark harness can report DB activity per
//!   request like the paper describes,
//! * per-bucket generation counters, so read-through caches layered above
//!   the store can validate an entry with a single atomic load instead of a
//!   lookup plus deserialization,
//! * node-local buckets, named with [`NODE_LOCAL`]: kept in memory only,
//!   whatever the store, so they never enter the log.

use std::collections::BTreeMap;
use std::io;
use std::ops::Bound;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Mutex, RwLock};

use crate::disk::{Disk, FaultyDisk, Files};
use crate::log::{put_record_size, LogOp};
use crate::storage::StorageCounters;
use crate::wal_engine::{WalEngine, COMPACT_MIN_BYTES};

/// A bucket key behind its first 8 bytes, zero-padded, read big-endian: monotone
/// in string order, so the derived order is `text`'s and `Borrow<str>` is sound.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    head: u64,
    text: String,
}

impl Key {
    fn new(text: String) -> Key {
        let mut head = [0u8; 8];
        head.iter_mut().zip(text.bytes()).for_each(|(h, b)| *h = b);
        let head = u64::from_be_bytes(head);
        Key { head, text }
    }
}

impl std::borrow::Borrow<str> for Key {
    fn borrow(&self) -> &str {
        &self.text
    }
}

/// The entries of one bucket whose keys start with `prefix`, in key order.
fn prefixed<'a>(
    map: &'a BTreeMap<Key, Vec<u8>>,
    prefix: &'a str,
) -> impl Iterator<Item = (&'a Key, &'a Vec<u8>)> {
    map.range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
        .take_while(move |(k, _)| k.text.starts_with(prefix))
}

/// The mark of a node-local bucket's name. Such a bucket describes this
/// process, not the state a federation shares, so every store writes it the
/// way an in-memory store writes: it is never logged, and so never shipped,
/// compacted or recovered, and it is not counted in `live_bytes`.
pub const NODE_LOCAL: &str = "local.";

/// Is `bucket` node-local (named with [`NODE_LOCAL`])?
pub fn is_node_local(bucket: &str) -> bool {
    bucket.starts_with(NODE_LOCAL)
}

/// Store statistics (monotonic counters).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of point lookups served.
    pub lookups: u64,
    /// Number of scans served.
    pub scans: u64,
    /// Number of writes (put + delete).
    pub writes: u64,
    /// Number of WAL fsyncs issued (per-append syncs, group commits,
    /// explicit syncs, compaction rewrites, recovery repairs).
    pub syncs: u64,
    /// Group-commit batches (each one fsync covering ≥ 1 append).
    pub group_commits: u64,
    /// Compactions completed.
    pub compactions: u64,
}

/// One bucket: its ordered map, and the generation every write to it
/// bumps inside the map's write lock, so a reader that loads the
/// generation *before* reading data can never cache stale data under a
/// current tag (spurious invalidation is the only possible race).
#[derive(Default)]
struct Bucket {
    map: RwLock<BTreeMap<Key, Vec<u8>>>,
    generation: Arc<AtomicU64>,
}

/// The automatic compaction, as the write path sees it.
#[derive(Default)]
struct Compactor {
    /// The last one started.
    thread: Option<JoinHandle<()>>,
    /// The log's epoch when it started, and the length the log must reach
    /// in that epoch before another starts: a failed compaction leaves the
    /// epoch as it was, so it is retried only after the log has grown by
    /// another `COMPACT_MIN_BYTES`.
    retry: (u64, u64),
}

/// A concurrent, optionally-persistent KV store.
pub struct Store {
    /// Every bucket by name. A bucket is made by its first write (or
    /// generation handle) and lives as long as the store. Every access
    /// takes this table's read lock, then the bucket's own lock.
    buckets: RwLock<BTreeMap<String, Bucket>>,
    /// `None` for purely in-memory stores.
    engine: Option<Arc<WalEngine>>,
    lookups: AtomicU64,
    scans: AtomicU64,
    writes: AtomicU64,
    /// Estimated on-disk bytes of a minimal snapshot of current state.
    /// `committed_len - live_bytes` is the log's garbage, which is what
    /// starts a compaction.
    live_bytes: AtomicU64,
    /// Highest leader-epoch fence seen, either appended locally (a node
    /// claiming leadership) or replayed from the log at open. Distinct
    /// from [`Store::wal_epoch`], which counts log-file incarnations.
    fence_epoch: AtomicU64,
    compactor: Mutex<Compactor>,
}

/// One cursor-addressed slice of the write-ahead log, served to
/// replication followers. `data` is always a whole number of CRC-framed
/// records starting at `offset` within WAL incarnation `epoch`; `len` is
/// the leader's committed WAL length at read time, so a follower can
/// compute its replication lag as `len - (offset + data.len())`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalChunk {
    /// WAL incarnation the chunk was read from.
    pub epoch: u64,
    /// Byte offset of the first record in `data`.
    pub offset: u64,
    /// Framed records (`[len][payload][crc]`, repeated).
    pub data: Vec<u8>,
    /// Committed WAL length when the chunk was cut.
    pub len: u64,
}

impl WalChunk {
    /// Cursor for the next fetch.
    pub fn next_offset(&self) -> u64 {
        self.offset + self.data.len() as u64
    }
}

/// Message prefix of errors served by a degraded (read-only) store.
pub const DEGRADED_MSG: &str = "store degraded (read-only)";

/// Was this error produced by a degraded store refusing a write?
pub fn is_degraded_error(err: &io::Error) -> bool {
    err.to_string().starts_with(DEGRADED_MSG)
}

impl Store {
    /// A purely in-memory store (no durability).
    pub fn in_memory() -> Self {
        Self::assemble(None, Vec::new())
    }

    /// Open a persistent store at `path` with no per-append fsync. The
    /// log is compacted in the background once half of it is garbage.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with_sync(path, false)
    }

    /// Like [`Store::open`], but when `sync` is true every append is
    /// durable before it is acknowledged, concurrent appenders sharing
    /// each fsync.
    pub fn open_with_sync(path: impl Into<PathBuf>, sync: bool) -> io::Result<Self> {
        Self::open_disk(Arc::new(Files), path.into(), sync)
    }

    /// Like [`Store::open_with_sync`], on `disk`: the file system, but
    /// with the faults a test arms on it.
    pub fn open_on(disk: &FaultyDisk, path: impl Into<PathBuf>, sync: bool) -> io::Result<Self> {
        Self::open_disk(Arc::new(disk.clone()), path.into(), sync)
    }

    fn open_disk(disk: Arc<dyn Disk>, path: PathBuf, sync: bool) -> io::Result<Self> {
        let (engine, ops) = WalEngine::open(disk, path, sync)?;
        Ok(Self::assemble(Some(Arc::new(engine)), ops))
    }

    /// A store holding the state `ops` leave, replayed through the same
    /// `insert` and `remove` as every later write.
    fn assemble(engine: Option<Arc<WalEngine>>, ops: Vec<LogOp>) -> Store {
        let store = Store {
            buckets: RwLock::new(BTreeMap::new()),
            engine,
            lookups: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
            fence_epoch: AtomicU64::new(0),
            compactor: Mutex::new(Compactor::default()),
        };
        for op in ops {
            match op {
                LogOp::Put { bucket, key, value } => store.insert(&bucket, key, value),
                LogOp::Delete { bucket, key } => {
                    store.remove(&bucket, &key);
                }
                LogOp::EpochFence { epoch } => {
                    store.fence_epoch.fetch_max(epoch, Ordering::SeqCst);
                }
            }
        }
        store
    }

    /// Is the store poisoned into read-only degraded mode? A persistent
    /// store is, once a WAL write, an fsync or the directory sync of a
    /// compaction has failed (see [`WalEngine::is_poisoned`]).
    pub fn is_degraded(&self) -> bool {
        self.engine.as_ref().is_some_and(|e| e.is_poisoned())
    }

    fn degraded_error() -> io::Error {
        io::Error::other(format!("{DEGRADED_MSG}: WAL write or fsync failed"))
    }

    /// Log `op`. A failure poisons the engine: reads keep working, and
    /// writes get [`DEGRADED_MSG`] errors without touching the (possibly
    /// frame-shifted) log again.
    fn wal_append(&self, op: &LogOp) -> io::Result<()> {
        match &self.engine {
            None => Ok(()),
            Some(engine) if engine.is_poisoned() => Err(Self::degraded_error()),
            Some(engine) => engine.append(op),
        }
    }

    /// `f` over `name`'s bucket, made empty if the store has none yet.
    fn bucket<T>(&self, name: &str, f: impl FnOnce(&Bucket) -> T) -> T {
        if let Some(bucket) = self.buckets.read().get(name) {
            return f(bucket);
        }
        f(self.buckets.write().entry(name.to_owned()).or_default())
    }

    /// `f` over `bucket`'s map under its read lock; `None` if the store
    /// has no such bucket. No reference count moves.
    fn read<T>(&self, bucket: &str, f: impl FnOnce(&BTreeMap<Key, Vec<u8>>) -> T) -> Option<T> {
        let buckets = self.buckets.read();
        let map = buckets.get(bucket)?.map.read();
        Some(f(&map))
    }

    /// `f` over `bucket`'s map under its write lock, then the generation
    /// bump, inside that lock.
    fn write<T>(&self, bucket: &str, f: impl FnOnce(&mut BTreeMap<Key, Vec<u8>>) -> T) -> T {
        self.bucket(bucket, |b| {
            let mut map = b.map.write();
            let out = f(&mut map);
            b.generation.fetch_add(1, Ordering::SeqCst);
            out
        })
    }

    /// Insert or overwrite in memory, keeping the live-byte count: the one
    /// insert of `put` and of the replay at open.
    fn insert(&self, bucket: &str, key: String, value: Vec<u8>) {
        let added = put_record_size(bucket, &key, value.len());
        let removed = put_record_size(bucket, &key, 0);
        let old = self.write(bucket, |map| map.insert(Key::new(key), value));
        if is_node_local(bucket) {
            return;
        }
        self.live_bytes.fetch_add(added, Ordering::Relaxed);
        if let Some(old) = old {
            self.live_sub(removed + old.len() as u64);
        }
    }

    /// Remove from memory, keeping the live-byte count: the one removal of
    /// `delete` and of the replay at open. Returns whether the key existed.
    fn remove(&self, bucket: &str, key: &str) -> bool {
        let old = self.write(bucket, |map| map.remove(key));
        if let Some(old) = old.as_ref().filter(|_| !is_node_local(bucket)) {
            self.live_sub(put_record_size(bucket, key, old.len()));
        }
        old.is_some()
    }

    fn live_sub(&self, n: u64) {
        let _ = self
            .live_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Start a compaction on a short-lived thread if this write pushed the
    /// log's garbage past [`WalEngine::wants_compaction`]'s threshold,
    /// unless one is running or the retry rule of [`Compactor`] holds it
    /// back. Writers racing here skip rather than wait.
    fn compact_if_due(&self) {
        let Some(engine) = &self.engine else {
            return;
        };
        if engine.is_poisoned() || !engine.wants_compaction(self.live_bytes()) {
            return;
        }
        let Some(mut compactor) = self.compactor.try_lock() else {
            return;
        };
        let (epoch, len) = (engine.epoch(), engine.committed_len());
        let running = compactor.thread.as_ref().is_some_and(|t| !t.is_finished());
        if running || (epoch == compactor.retry.0 && len < compactor.retry.1) {
            return;
        }
        if let Some(done) = compactor.thread.take() {
            let _ = done.join();
        }
        compactor.retry = (epoch, len + COMPACT_MIN_BYTES);
        let engine = Arc::clone(engine);
        // Best-effort: a failed compaction leaves the old log intact.
        compactor.thread = std::thread::Builder::new()
            .name("clarens-db-compact".into())
            .spawn(move || _ = engine.compact())
            .ok();
    }

    /// Insert or overwrite a value.
    pub fn put(&self, bucket: &str, key: &str, value: impl Into<Vec<u8>>) -> io::Result<()> {
        let value = value.into();
        self.writes.fetch_add(1, Ordering::Relaxed);
        // Without an engine, or for a node-local bucket, there is nothing to
        // append to (and nothing that could have degraded), so no `LogOp` is
        // built just to be dropped. Otherwise the key is still allocated
        // once: the logged copy moves into the map.
        if self.engine.is_none() || is_node_local(bucket) {
            self.insert(bucket, key.to_owned(), value);
            return Ok(());
        }
        let op = LogOp::Put {
            bucket: bucket.to_owned(),
            key: key.to_owned(),
            value,
        };
        self.wal_append(&op)?;
        let LogOp::Put { key, value, .. } = op else {
            unreachable!()
        };
        self.insert(bucket, key, value);
        self.compact_if_due();
        Ok(())
    }

    /// Point lookup.
    pub fn get(&self, bucket: &str, key: &str) -> Option<Vec<u8>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.read(bucket, |map| map.get(key).cloned()).flatten()
    }

    /// Does the key exist?
    pub fn contains(&self, bucket: &str, key: &str) -> bool {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.read(bucket, |map| map.contains_key(key))
            .unwrap_or(false)
    }

    /// Delete a key. Returns whether it existed.
    pub fn delete(&self, bucket: &str, key: &str) -> io::Result<bool> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        if self.engine.is_some() && !is_node_local(bucket) {
            self.wal_append(&LogOp::Delete {
                bucket: bucket.to_owned(),
                key: key.to_owned(),
            })?;
        }
        let existed = self.remove(bucket, key);
        self.compact_if_due();
        Ok(existed)
    }

    /// All `(key, value)` pairs in a bucket whose keys start with `prefix`
    /// (ordered by key).
    pub fn scan_prefix(&self, bucket: &str, prefix: &str) -> Vec<(String, Vec<u8>)> {
        self.scan_prefix_limit(bucket, prefix, usize::MAX)
    }

    /// The first `limit` pairs of [`Store::scan_prefix`], in the same
    /// order; pairs past the limit are never copied.
    pub fn scan_prefix_limit(
        &self,
        bucket: &str,
        prefix: &str,
        limit: usize,
    ) -> Vec<(String, Vec<u8>)> {
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.read(bucket, |map| {
            prefixed(map, prefix)
                .take(limit)
                .map(|(k, v)| (k.text.clone(), v.clone()))
                .collect()
        })
        .unwrap_or_default()
    }

    /// Number of keys in a bucket that start with `prefix`, without copying
    /// any of them.
    pub fn count_prefix(&self, bucket: &str, prefix: &str) -> usize {
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.read(bucket, |map| prefixed(map, prefix).count())
            .unwrap_or(0)
    }

    /// All keys in a bucket (ordered).
    pub fn keys(&self, bucket: &str) -> Vec<String> {
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.read(bucket, |map| map.keys().map(|k| k.text.clone()).collect())
            .unwrap_or_default()
    }

    /// Number of keys in a bucket.
    pub fn len(&self, bucket: &str) -> usize {
        self.read(bucket, BTreeMap::len).unwrap_or(0)
    }

    /// Is the bucket empty or absent?
    pub fn is_empty(&self, bucket: &str) -> bool {
        self.len(bucket) == 0
    }

    /// Names of the buckets that hold at least one key (sorted).
    pub fn bucket_names(&self) -> Vec<String> {
        let buckets = self.buckets.read();
        let held = buckets.iter().filter(|(_, b)| !b.map.read().is_empty());
        held.map(|(name, _)| name.clone()).collect()
    }

    /// Rewrite the persistent image as a minimal snapshot of current state
    /// (drops superseded records). Runs concurrently with appends — only
    /// the final file swap briefly blocks writers. No-op for in-memory
    /// stores; concurrent calls (manual and automatic) coalesce.
    pub fn compact(&self) -> io::Result<()> {
        match &self.engine {
            None => Ok(()),
            Some(engine) => engine.compact(),
        }
    }

    /// Committed WAL length in bytes (0 for in-memory stores). Exported as
    /// the `db.wal_offset` gauge; replication followers compare it against
    /// their applied cursor to compute lag.
    pub fn wal_offset(&self) -> u64 {
        self.engine.as_ref().map_or(0, |e| e.committed_len())
    }

    /// Current WAL incarnation. Starts at 0 and bumps on every compaction
    /// (each compaction rewrites the file, so prior offsets die with it).
    pub fn wal_epoch(&self) -> u64 {
        self.engine.as_ref().map_or(0, |e| e.epoch())
    }

    /// The WAL's `(epoch, committed length)`, read as one (`(0, 0)` for
    /// in-memory stores). Two separate reads can pair an old epoch with
    /// the length a compaction just gave the new one.
    pub fn wal_position(&self) -> (u64, u64) {
        self.engine.as_ref().map_or((0, 0), |e| e.position())
    }

    /// Have `hook` told the WAL's `(epoch, committed length)` after every
    /// append the log commits and every compaction it swaps in (never, in
    /// an in-memory store). The first hook stays.
    pub fn on_commit(&self, hook: impl Fn((u64, u64)) + Send + Sync + 'static) {
        if let Some(engine) = &self.engine {
            engine.on_commit(Box::new(hook));
        }
    }

    /// Append a leader-epoch fence record to the log. The fence carries no
    /// data; it seals every record before it under the previous leadership
    /// and ships through replication so followers observe the epoch change
    /// in exact log order. Monotonic: a fence at or below the current
    /// epoch is ignored.
    pub fn append_fence(&self, epoch: u64) -> io::Result<()> {
        if epoch <= self.fence_epoch.load(Ordering::SeqCst) {
            return Ok(());
        }
        self.wal_append(&LogOp::EpochFence { epoch })?;
        self.fence_epoch.fetch_max(epoch, Ordering::SeqCst);
        Ok(())
    }

    /// Highest leader-epoch fence in the log (0 before any election).
    pub fn fence_epoch(&self) -> u64 {
        self.fence_epoch.load(Ordering::SeqCst)
    }

    /// Read a replication chunk: up to `max_bytes` of whole WAL records
    /// starting at `offset` within WAL incarnation `epoch`.
    ///
    /// If the caller's cursor is stale — the epoch no longer matches, or
    /// the offset runs past the committed length — the read restarts from
    /// offset 0 of the current incarnation; the follower detects the jump
    /// by comparing the returned `offset`/`epoch` against what it asked
    /// for. Only fully-framed, CRC-valid records are ever returned, and
    /// the read is excluded from the compaction file swap, so a chunk's
    /// bytes always belong to the epoch it reports. A chunk is empty only
    /// when the cursor is caught up: a record longer than `max_bytes` is
    /// returned whole, on its own. Errors for in-memory stores.
    pub fn wal_read(&self, epoch: u64, offset: u64, max_bytes: usize) -> io::Result<WalChunk> {
        match &self.engine {
            None => Err(io::Error::other(
                "wal_read requires a persistent store (no WAL to ship)",
            )),
            Some(engine) => engine.read_log(epoch, offset, max_bytes),
        }
    }

    /// Force pending appends to disk (one fsync of the log). A failure
    /// degrades the store.
    pub fn sync(&self) -> io::Result<()> {
        match &self.engine {
            None => Ok(()),
            Some(engine) if engine.is_poisoned() => Err(Self::degraded_error()),
            Some(engine) => engine.sync(),
        }
    }

    /// Current generation of a bucket. Starts at 0 and increases on every
    /// `put`/`delete` touching the bucket (including no-op deletes — the
    /// counter may over-invalidate, never under-invalidate).
    ///
    /// Reader protocol for epoch-validated caches: load the generation
    /// *first*, then read the data, then store both; a cached entry is
    /// valid only while the bucket generation still equals its tag. Writers
    /// bump the counter inside the write-lock scope after mutating, so a
    /// tag can never be newer than the data it guards.
    pub fn generation(&self, bucket: &str) -> u64 {
        let buckets = self.buckets.read();
        buckets
            .get(bucket)
            .map_or(0, |b| b.generation.load(Ordering::SeqCst))
    }

    /// Shared handle to a bucket's generation counter, for callers that
    /// validate on every request and want a single atomic load with no
    /// map lookup.
    pub fn generation_handle(&self, bucket: &str) -> Arc<AtomicU64> {
        self.bucket(bucket, |b| Arc::clone(&b.generation))
    }

    /// Estimated on-disk bytes of a minimal snapshot of live state (the
    /// numerator of the garbage-ratio calculation).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// Raw engine counters (all zero for in-memory stores).
    pub fn storage_counters(&self) -> StorageCounters {
        self.engine
            .as_ref()
            .map(|e| e.counters())
            .unwrap_or_default()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        let engine = self.storage_counters();
        StoreStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            syncs: engine.fsyncs,
            group_commits: engine.group_commits,
            compactions: engine.compactions,
        }
    }
}

impl Drop for Store {
    /// Waits out a compaction still in flight.
    fn drop(&mut self) {
        if let Some(thread) = self.compactor.get_mut().thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;
    use crate::disk::{Call, Fault};

    fn temp_path(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "clarens-db-store-{}-{name}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Pairs whose heads tie ("a" and "a\0" pad to the same 8 bytes) or
    /// whose order is decided past the head or by a multi-byte lead byte.
    #[test]
    fn key_order_is_str_order() {
        for (x, y) in [
            ("a", "a\0"),
            ("abcdefgh", "abcdefgh\0"),
            ("abcdefghX", "abcdefghY"),
            ("é", "f"),
        ] {
            let (kx, ky) = (Key::new(x.into()), Key::new(y.into()));
            assert_eq!(kx.cmp(&ky), x.cmp(y), "{x:?} vs {y:?}");
            assert_eq!(ky.cmp(&kx), y.cmp(x), "{y:?} vs {x:?}");
            assert_ne!(kx.head.cmp(&ky.head), x.cmp(y).reverse(), "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn basic_crud_in_memory() {
        let store = Store::in_memory();
        assert_eq!(store.get("b", "k"), None);
        store.put("b", "k", b"v1".to_vec()).unwrap();
        assert_eq!(store.get("b", "k").unwrap(), b"v1");
        store.put("b", "k", b"v2".to_vec()).unwrap();
        assert_eq!(store.get("b", "k").unwrap(), b"v2");
        assert!(store.contains("b", "k"));
        assert!(store.delete("b", "k").unwrap());
        assert!(!store.delete("b", "k").unwrap());
        assert!(!store.contains("b", "k"));
    }

    #[test]
    fn fence_epoch_persists_and_survives_compaction() {
        let path = temp_path("fence");
        {
            let store = Store::open(&path).unwrap();
            assert_eq!(store.fence_epoch(), 0);
            store.put("b", "k", b"v".to_vec()).unwrap();
            store.append_fence(3).unwrap();
            // Stale/duplicate fences are no-ops.
            store.append_fence(3).unwrap();
            store.append_fence(1).unwrap();
            assert_eq!(store.fence_epoch(), 3);
            store.put("b", "k2", b"v2".to_vec()).unwrap();
            store.sync().unwrap();
        }
        {
            let store = Store::open(&path).unwrap();
            assert_eq!(store.fence_epoch(), 3);
            // Compaction rewrites the log but keeps the newest fence, after
            // the state it seals.
            store.compact().unwrap();
            assert_eq!(store.fence_epoch(), 3);
            let snapshot = store.wal_read(1, 0, 1 << 20).unwrap();
            let ops = crate::log::decode_stream(&snapshot.data).unwrap();
            assert_eq!(ops.len(), 3);
            assert_eq!(ops.last(), Some(&LogOp::EpochFence { epoch: 3 }));
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.fence_epoch(), 3);
        assert_eq!(store.get("b", "k2").unwrap(), b"v2");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn buckets_are_isolated() {
        let store = Store::in_memory();
        store.put("sessions", "id", b"alice".to_vec()).unwrap();
        store.put("acl", "id", b"deny".to_vec()).unwrap();
        assert_eq!(store.get("sessions", "id").unwrap(), b"alice");
        assert_eq!(store.get("acl", "id").unwrap(), b"deny");
        assert_eq!(store.len("sessions"), 1);
        assert_eq!(
            store.bucket_names(),
            vec!["acl".to_string(), "sessions".to_string()]
        );
    }

    #[test]
    fn prefix_scan_ordered() {
        let store = Store::in_memory();
        for key in ["file.read", "file.ls", "file.stat", "system.auth", "file"] {
            store.put("methods", key, b"1".to_vec()).unwrap();
        }
        let hits = store.scan_prefix("methods", "file.");
        let keys: Vec<&str> = hits.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["file.ls", "file.read", "file.stat"]);
        assert!(store.scan_prefix("methods", "zzz").is_empty());
        assert!(store.scan_prefix("nobucket", "x").is_empty());
        assert_eq!(store.scan_prefix("methods", "").len(), 5);
    }

    #[test]
    fn bounded_scan_and_count_agree_with_the_full_scan() {
        let store = Store::in_memory();
        for key in ["a|1", "a|2", "a|3", "a}", "b|1", "a"] {
            store.put("box", key, key.as_bytes().to_vec()).unwrap();
        }
        let full = store.scan_prefix("box", "a|");
        assert_eq!(full.len(), 3);
        for limit in 0..5 {
            let scans = store.stats().scans;
            let head = store.scan_prefix_limit("box", "a|", limit);
            assert_eq!(head, full[..limit.min(3)]);
            assert_eq!(store.stats().scans, scans + 1);
        }
        let scans = store.stats().scans;
        assert_eq!(store.count_prefix("box", "a|"), 3);
        assert_eq!(store.count_prefix("box", ""), 6);
        assert_eq!(store.count_prefix("box", "c"), 0);
        assert_eq!(store.count_prefix("nobucket", ""), 0);
        assert_eq!(store.stats().scans, scans + 4);
    }

    #[test]
    fn persistence_across_reopen() {
        let path = temp_path("reopen");
        {
            let store = Store::open(&path).unwrap();
            store.put("sessions", "s1", b"alice".to_vec()).unwrap();
            store.put("sessions", "s2", b"bob".to_vec()).unwrap();
            store.delete("sessions", "s1").unwrap();
            store.sync().unwrap();
        }
        {
            // This is the paper's restart-survival property.
            let store = Store::open(&path).unwrap();
            assert_eq!(store.get("sessions", "s1"), None);
            assert_eq!(store.get("sessions", "s2").unwrap(), b"bob");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_recovers_prefix_and_truncates() {
        let path = temp_path("torn");
        {
            let store = Store::open(&path).unwrap();
            store.put("b", "k1", b"v1".to_vec()).unwrap();
            store.put("b", "k2", b"v2".to_vec()).unwrap();
            store.sync().unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);
        {
            let store = Store::open(&path).unwrap();
            assert_eq!(store.get("b", "k1").unwrap(), b"v1");
            assert_eq!(store.get("b", "k2"), None); // lost in the tear
                                                    // The repair must leave a clean log.
            store.put("b", "k3", b"v3".to_vec()).unwrap();
            store.sync().unwrap();
        }
        {
            let store = Store::open(&path).unwrap();
            assert_eq!(store.get("b", "k1").unwrap(), b"v1");
            assert_eq!(store.get("b", "k3").unwrap(), b"v3");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_repair_honors_sync_flag() {
        let path = temp_path("torn-sync-flag");
        let tear = |path: &PathBuf| {
            let len = std::fs::metadata(path).unwrap().len();
            let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
            f.set_len(len - 2).unwrap();
        };
        {
            let store = Store::open(&path).unwrap();
            store.put("b", "k1", b"v1".to_vec()).unwrap();
            store.put("b", "k2", b"v2".to_vec()).unwrap();
            store.sync().unwrap();
        }
        tear(&path);
        {
            // sync=false: the torn tail is truncated in place with no
            // fsync on the startup path (the old behavior compacted —
            // and fsynced — unconditionally).
            let store = Store::open_with_sync(&path, false).unwrap();
            assert_eq!(store.stats().syncs, 0, "repair must honor sync=false");
            assert_eq!(store.get("b", "k1").unwrap(), b"v1");
            store.put("b", "k2", b"v2".to_vec()).unwrap();
            store.sync().unwrap();
        }
        tear(&path);
        {
            // sync=true: the truncation is made durable, and the fsync is
            // accounted for.
            let store = Store::open_with_sync(&path, true).unwrap();
            assert_eq!(store.stats().syncs, 1, "repair fsync must be counted");
            assert_eq!(store.get("b", "k1").unwrap(), b"v1");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_shrinks_log() {
        let path = temp_path("compact");
        {
            let store = Store::open(&path).unwrap();
            for i in 0..100 {
                store
                    .put("b", "hot-key", format!("value-{i}").into_bytes())
                    .unwrap();
            }
            store.sync().unwrap();
            // The log's length: an open file runs past it (extension steps).
            let before = store.wal_offset();
            store.compact().unwrap();
            let after = store.wal_offset();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), after);
            assert!(after < before / 10, "before={before} after={after}");
            assert_eq!(store.get("b", "hot-key").unwrap(), b"value-99");
            assert_eq!(store.stats().compactions, 1);
        }
        {
            let store = Store::open(&path).unwrap();
            assert_eq!(store.get("b", "hot-key").unwrap(), b"value-99");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_write_past_the_garbage_threshold_compacts_in_background() {
        let path = temp_path("threshold");
        {
            let store = Store::open(&path).unwrap();
            // Churn one hot key past the 256 KiB floor (and so far past the
            // garbage ratio), then wait for the compaction it starts.
            let value = vec![7u8; 512];
            for _ in 0..600 {
                store.put("b", "hot", value.clone()).unwrap();
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while store.stats().compactions == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
            assert!(
                store.stats().compactions >= 1,
                "no compaction started (wal={}, live={})",
                store.wal_offset(),
                store.live_bytes()
            );
            assert!(store.wal_epoch() >= 1);
            assert_eq!(store.get("b", "hot").unwrap(), value);
            // Writes keep landing after the swap.
            store.put("b", "post", b"x".to_vec()).unwrap();
        }
        {
            let store = Store::open(&path).unwrap();
            assert_eq!(store.get("b", "post").unwrap(), b"x");
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Dropping a durable store returns at once: no thread of its own
    /// sleeps beside it.
    #[test]
    fn dropping_a_durable_store_returns_at_once() {
        let path = temp_path("drop-wake");
        for _ in 0..5 {
            let store = Store::open_with_sync(&path, true).unwrap();
            store.put("b", "k", b"v".to_vec()).unwrap();
            std::thread::sleep(Duration::from_millis(7));
            let started = Instant::now();
            drop(store);
            assert!(
                started.elapsed() < Duration::from_millis(5),
                "drop took {:?}",
                started.elapsed()
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stats_counters() {
        let store = Store::in_memory();
        store.put("b", "k", b"v".to_vec()).unwrap();
        let _ = store.get("b", "k");
        let _ = store.get("b", "missing");
        let _ = store.scan_prefix("b", "");
        store.delete("b", "k").unwrap();
        let stats = store.stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.scans, 1);
        assert_eq!(stats.writes, 2);
    }

    /// A node-local bucket is written as an in-memory store writes: its
    /// puts and deletes leave the log's length and the live-byte count
    /// alone, so no replication read, compaction or reopen ever sees it.
    #[test]
    fn a_node_local_bucket_never_enters_the_log() {
        let path = temp_path("node-local");
        let local = format!("{NODE_LOCAL}methods");
        let logged = |store: &Store| {
            let chunk = store.wal_read(store.wal_epoch(), 0, 1 << 20).unwrap();
            let ops = crate::log::decode_stream(&chunk.data).unwrap();
            let bucket = |op: &LogOp| match op {
                LogOp::Put { bucket, .. } | LogOp::Delete { bucket, .. } => bucket.clone(),
                LogOp::EpochFence { .. } => String::new(),
            };
            ops.iter().map(bucket).collect::<Vec<_>>()
        };
        {
            let store = Store::open(&path).unwrap();
            store.put("shared", "k", b"v".to_vec()).unwrap();
            let before = (store.wal_offset(), store.live_bytes());
            store.put(&local, "a", b"1".to_vec()).unwrap();
            store.put(&local, "b", b"2".to_vec()).unwrap();
            store.put(&local, "b", b"3".to_vec()).unwrap();
            assert!(store.delete(&local, "a").unwrap());
            assert_eq!((store.wal_offset(), store.live_bytes()), before);
            assert_eq!(store.get(&local, "b").unwrap(), b"3");
            assert_eq!(logged(&store), ["shared"]);
            store.compact().unwrap();
            assert_eq!(store.wal_epoch(), 1);
            assert_eq!(logged(&store), ["shared"]);
            assert_eq!(store.get(&local, "b").unwrap(), b"3");
        }
        let store = Store::open(&path).unwrap();
        assert!(store.is_empty(&local));
        assert_eq!(store.get("shared", "k").unwrap(), b"v");
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn live_bytes_tracks_overwrites_and_deletes() {
        let store = Store::in_memory();
        assert_eq!(store.live_bytes(), 0);
        store.put("b", "k", vec![0u8; 100]).unwrap();
        let one = store.live_bytes();
        assert!(one > 100);
        // Overwriting replaces, not accumulates.
        store.put("b", "k", vec![0u8; 100]).unwrap();
        assert_eq!(store.live_bytes(), one);
        // "k2" is one byte of key longer than "k".
        store.put("b", "k2", vec![0u8; 100]).unwrap();
        assert_eq!(store.live_bytes(), 2 * one + 1);
        store.delete("b", "k").unwrap();
        store.delete("b", "k2").unwrap();
        assert_eq!(store.live_bytes(), 0);
    }

    #[test]
    fn generations_bump_on_writes_only() {
        let store = Store::in_memory();
        assert_eq!(store.generation("b"), 0);
        store.put("b", "k", b"v".to_vec()).unwrap();
        assert_eq!(store.generation("b"), 1);
        // Reads never move the counter.
        let _ = store.get("b", "k");
        let _ = store.scan_prefix("b", "");
        let _ = store.keys("b");
        assert_eq!(store.generation("b"), 1);
        store.delete("b", "k").unwrap();
        assert_eq!(store.generation("b"), 2);
        // A no-op delete still bumps (over-invalidation is allowed).
        store.delete("b", "ghost").unwrap();
        assert_eq!(store.generation("b"), 3);
    }

    #[test]
    fn generations_are_per_bucket() {
        let store = Store::in_memory();
        store.put("a", "k", b"v".to_vec()).unwrap();
        store.put("a", "k2", b"v".to_vec()).unwrap();
        store.put("b", "k", b"v".to_vec()).unwrap();
        assert_eq!(store.generation("a"), 2);
        assert_eq!(store.generation("b"), 1);
        assert_eq!(store.generation("untouched"), 0);
    }

    #[test]
    fn generation_handle_tracks_bucket() {
        let store = Store::in_memory();
        let handle = store.generation_handle("b");
        assert_eq!(handle.load(Ordering::SeqCst), 0);
        store.put("b", "k", b"v".to_vec()).unwrap();
        assert_eq!(handle.load(Ordering::SeqCst), 1);
        // The handle is shared, not a snapshot.
        assert!(Arc::ptr_eq(&handle, &store.generation_handle("b")));
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc;
        let store = Arc::new(Store::in_memory());
        let mut handles = Vec::new();
        for t in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let key = format!("t{t}-k{i}");
                    store.put("b", &key, key.as_bytes().to_vec()).unwrap();
                    assert_eq!(store.get("b", &key).unwrap(), key.as_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len("b"), 8 * 200);
    }

    #[test]
    fn concurrent_cross_bucket_writes_converge() {
        // Eight writers on eight distinct buckets, each behind its own
        // lock, interleave freely; the assertion is pure correctness
        // (each bucket converges to its own writer's state).
        let store = Arc::new(Store::in_memory());
        let mut handles = Vec::new();
        for t in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let bucket = format!("bucket-{t}");
                for i in 0..200 {
                    store.put(&bucket, &format!("k{i}"), vec![t as u8]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8 {
            let bucket = format!("bucket-{t}");
            assert_eq!(store.len(&bucket), 200);
            assert_eq!(store.get(&bucket, "k0").unwrap(), vec![t as u8]);
        }
        assert_eq!(store.bucket_names().len(), 8);
    }

    /// The buckets of a Clarens core: the `*_BUCKET` constants of the
    /// `clarens` crate.
    const CORE_BUCKETS: [&str; 8] = [
        "sessions",
        "vo.groups",
        "acl.methods",
        "acl.files",
        "methods",
        "proxies",
        "im.messages",
        "srm.requests",
    ];

    /// Each bucket has its own lock: while one core bucket's write lock is
    /// held, another thread reads and writes the other seven within 1 s.
    #[test]
    fn a_held_bucket_holds_up_no_other_bucket() {
        let store = Arc::new(Store::in_memory());
        for name in CORE_BUCKETS {
            store.put(name, "k", b"v".to_vec()).unwrap();
        }
        for held in CORE_BUCKETS {
            let buckets = store.buckets.read();
            let lock = buckets[held].map.write();
            let (done, finished) = std::sync::mpsc::channel();
            let other = Arc::clone(&store);
            let worker = std::thread::spawn(move || {
                for name in CORE_BUCKETS.into_iter().filter(|&name| name != held) {
                    other.put(name, "k2", b"w".to_vec()).unwrap();
                    assert_eq!(other.get(name, "k").unwrap(), b"v");
                    assert_eq!(other.scan_prefix(name, "k").len(), 2);
                    assert!(other.delete(name, "k2").unwrap());
                }
                done.send(()).unwrap();
            });
            let answered = finished.recv_timeout(Duration::from_secs(1));
            drop(lock);
            drop(buckets);
            worker.join().unwrap();
            assert!(answered.is_ok(), "holding {held:?} held up another bucket");
        }
    }

    #[test]
    fn fsync_failure_degrades_to_read_only() {
        let path = temp_path("degraded");
        let disk = FaultyDisk::new();
        let store = Store::open_on(&disk, &path, true).unwrap();
        store.put("sessions", "s1", b"alice".to_vec()).unwrap();
        assert!(!store.is_degraded());

        // One fsync failure poisons the writer...
        disk.arm(Call::Sync, Fault::Fail, 1);
        let err = store.put("sessions", "s2", b"bob".to_vec()).unwrap_err();
        assert!(FaultyDisk::is_fault(&err), "{err}");
        assert!(store.is_degraded());

        // ...writes now fail fast with the documented degraded error,
        // even though the transient fault itself has cleared...
        let err = store.put("sessions", "s3", b"carol".to_vec()).unwrap_err();
        assert!(is_degraded_error(&err), "{err}");
        let err = store.delete("sessions", "s1").unwrap_err();
        assert!(is_degraded_error(&err), "{err}");
        assert!(store.sync().is_err());

        // ...and reads keep serving the pre-fault state.
        assert_eq!(store.get("sessions", "s1").unwrap(), b"alice");
        assert_eq!(store.get("sessions", "s2"), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_failure_degrades_without_mutating_memory() {
        let path = temp_path("degraded-append");
        let disk = FaultyDisk::new();
        let store = Store::open_on(&disk, &path, false).unwrap();
        store.put("b", "before", b"v".to_vec()).unwrap();
        disk.arm(Call::Write, Fault::Fail, 1);
        let err = store.put("b", "k", b"v".to_vec()).unwrap_err();
        assert!(FaultyDisk::is_fault(&err), "{err}");
        assert!(store.is_degraded());
        // WAL-first ordering: the failed write never reached memory...
        assert_eq!(store.get("b", "k"), None);
        // ...nor the log: reopened, it holds what was acknowledged.
        drop(store);
        let store = Store::open(&path).unwrap();
        assert_eq!(store.get("b", "before").unwrap(), b"v");
        assert_eq!(store.get("b", "k"), None);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn in_memory_store_never_degrades() {
        let store = Store::in_memory();
        store.put("b", "k", b"v".to_vec()).unwrap();
        assert!(!store.is_degraded());
        assert!(store.sync().is_ok());
    }

    /// A write the disk takes a few bytes at a time is still one whole
    /// frame: every later record recovers.
    #[test]
    fn short_writes_loop_to_completion() {
        let path = temp_path("short-write");
        let disk = FaultyDisk::new();
        let store = Store::open_on(&disk, &path, false).unwrap();
        disk.arm(Call::Write, Fault::Short(3), u64::MAX);
        store
            .put("sessions", "key", b"value-that-needs-many-writes".to_vec())
            .unwrap();
        store.put("sessions", "key2", b"second".to_vec()).unwrap();
        drop(store);
        let store = Store::open(&path).unwrap();
        assert_eq!(
            store.get("sessions", "key").unwrap(),
            b"value-that-needs-many-writes"
        );
        assert_eq!(store.get("sessions", "key2").unwrap(), b"second");
        assert!(
            disk.hits(Call::Write) > 20,
            "the disk wrote no short writes"
        );
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_cursor_streams_and_resumes() {
        use crate::log::decode_stream;
        let path = temp_path("cursor");
        let store = Store::open(&path).unwrap();
        assert_eq!(store.wal_offset(), 0);
        assert_eq!(store.wal_epoch(), 0);
        store.put("sessions", "s1", b"alice".to_vec()).unwrap();
        store.put("sessions", "s2", b"bob".to_vec()).unwrap();

        // A fresh cursor drains the whole log in CRC-framed records.
        let chunk = store.wal_read(0, 0, 1 << 20).unwrap();
        assert_eq!(chunk.epoch, 0);
        assert_eq!(chunk.offset, 0);
        assert_eq!(chunk.len, store.wal_offset());
        assert_eq!(chunk.next_offset(), chunk.len);
        let ops = decode_stream(&chunk.data).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(
            ops[0],
            LogOp::Put {
                bucket: "sessions".into(),
                key: "s1".into(),
                value: b"alice".to_vec()
            }
        );

        // Caught up: the next read is empty until new writes land.
        let cursor = chunk.next_offset();
        let empty = store.wal_read(0, cursor, 1 << 20).unwrap();
        assert!(empty.data.is_empty());
        assert_eq!(empty.offset, cursor);
        store.delete("sessions", "s1").unwrap();
        let tail = store.wal_read(0, cursor, 1 << 20).unwrap();
        let ops = decode_stream(&tail.data).unwrap();
        assert_eq!(
            ops,
            vec![LogOp::Delete {
                bucket: "sessions".into(),
                key: "s1".into()
            }]
        );

        // A byte budget that cuts a record short yields whole records
        // only — and never fewer than one, however small the budget.
        for budget in [3, chunk.data.len() - 1] {
            let one = store.wal_read(0, 0, budget).unwrap();
            assert_eq!(decode_stream(&one.data).unwrap().len(), 1);
            assert!(one.next_offset() < chunk.len);
        }

        std::fs::remove_file(&path).unwrap();
    }

    /// A record larger than the fetch budget (one big VO group, say) must
    /// not wedge a follower: an empty chunk means "caught up", so the
    /// oversized record is shipped whole.
    #[test]
    fn wal_cursor_passes_a_record_larger_than_the_budget() {
        use crate::log::decode_stream;
        let path = temp_path("cursor-oversized");
        let store = Store::open(&path).unwrap();
        store.put("vo", "small", b"x".to_vec()).unwrap();
        store.put("vo", "big", vec![7u8; 3 << 20]).unwrap();
        store.put("vo", "after", b"y".to_vec()).unwrap();

        let committed = store.wal_offset();
        let mut cursor = 0;
        let mut ops = Vec::new();
        for _ in 0..8 {
            let chunk = store.wal_read(0, cursor, 1 << 20).unwrap();
            assert_eq!(chunk.offset, cursor);
            ops.extend(decode_stream(&chunk.data).expect("whole frames only"));
            cursor = chunk.next_offset();
        }
        assert_eq!(
            cursor, committed,
            "the cursor never got past the big record"
        );
        assert_eq!(ops.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_bumps_epoch_and_forces_resync() {
        let path = temp_path("cursor-epoch");
        let store = Store::open(&path).unwrap();
        for i in 0..50 {
            store.put("b", "hot", format!("v{i}").into_bytes()).unwrap();
        }
        let pre = store.wal_read(0, 0, 1 << 20).unwrap();
        let cursor = pre.next_offset();
        store.compact().unwrap();
        assert_eq!(store.wal_epoch(), 1);
        assert!(store.wal_offset() < cursor);

        // The stale cursor (old epoch, now-out-of-range offset) restarts
        // from 0 of the new incarnation, which replays the full snapshot.
        let resync = store.wal_read(0, cursor, 1 << 20).unwrap();
        assert_eq!(resync.epoch, 1);
        assert_eq!(resync.offset, 0);
        let ops = crate::log::decode_stream(&resync.data).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(
            ops[0],
            LogOp::Put {
                bucket: "b".into(),
                key: "hot".into(),
                value: b"v49".to_vec()
            }
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_read_refused_for_in_memory_store() {
        let store = Store::in_memory();
        assert_eq!(store.wal_offset(), 0);
        assert!(store.wal_read(0, 0, 1024).is_err());
    }

    #[test]
    fn empty_values_and_keys() {
        let store = Store::in_memory();
        store.put("b", "", b"".to_vec()).unwrap();
        assert_eq!(store.get("b", "").unwrap(), b"");
        assert!(store.contains("b", ""));
    }
}
