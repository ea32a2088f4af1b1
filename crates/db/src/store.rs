//! The namespaced key-value store.
//!
//! [`Store`] is the "database" the paper refers to throughout: "The list of
//! group members is cached in a database, as is all VO information" (§2.1),
//! and each Figure-4 request "incurs a database lookup for all registered
//! methods in the server" (§4). It offers:
//!
//! * named buckets, each an ordered map of `String → Vec<u8>`, lock-striped
//!   across `SHARDS` shards by bucket hash so writes to different buckets
//!   (sessions vs. VO vs. ACL) never contend,
//! * optional durability through a group-commit write-ahead log
//!   ([`WalEngine`]),
//! * crash recovery with torn-tail truncation and background log compaction
//!   (a janitor thread triggered by the WAL garbage ratio),
//! * prefix scans (hierarchical ACL/VO keys are path-like),
//! * lookup counters, so the benchmark harness can report DB activity per
//!   request like the paper describes,
//! * per-bucket generation counters, so read-through caches layered above
//!   the store can validate an entry with a single atomic load instead of a
//!   lookup plus deserialization.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::ops::Bound;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use crate::log::{put_record_size, LogOp};
use crate::storage::StorageCounters;
use crate::wal_engine::WalEngine;

/// Inner map type: bucket name → ordered key/value map.
type Buckets = BTreeMap<String, BTreeMap<String, Vec<u8>>>;

/// How often the janitor re-evaluates the garbage ratio.
const JANITOR_TICK: Duration = Duration::from_millis(200);

/// Number of lock-striped bucket shards (`repro storage` swept 1/4/16 at
/// PR 8; see EXPERIMENTS.md).
const SHARDS: usize = 16;

/// The entries of one bucket whose keys start with `prefix`, in key order.
fn prefixed<'a>(
    map: &'a BTreeMap<String, Vec<u8>>,
    prefix: &'a str,
) -> impl Iterator<Item = (&'a String, &'a Vec<u8>)> {
    map.range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
        .take_while(move |(k, _)| k.starts_with(prefix))
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

/// The lock-striped bucket maps.
struct ShardSet {
    shards: [RwLock<Buckets>; SHARDS],
}

impl ShardSet {
    fn new() -> ShardSet {
        ShardSet {
            shards: std::array::from_fn(|_| RwLock::new(BTreeMap::new())),
        }
    }

    /// FNV-1a over the bucket name selects the shard; every key of one
    /// bucket lives in one shard, so single-bucket operations take one
    /// lock and cross-bucket writes stripe.
    fn shard(&self, bucket: &str) -> &RwLock<Buckets> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in bucket.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }
}

/// A concurrent, optionally-persistent KV store.
pub struct Store {
    shards: ShardSet,
    /// `None` for purely in-memory stores.
    engine: Option<Arc<WalEngine>>,
    lookups: AtomicU64,
    scans: AtomicU64,
    writes: AtomicU64,
    /// Per-bucket generation counters. Bumped inside the shard write-lock
    /// scope after every mutation, so a reader that loads a generation
    /// *before* reading data can never cache stale data under a current
    /// tag (the bump invalidates it; spurious invalidation is the only
    /// possible race, never staleness).
    generations: RwLock<HashMap<String, Arc<AtomicU64>>>,
    /// Set once a WAL write or fsync fails. A failed append may have left
    /// a partial record in the log, and after a failed fsync the kernel
    /// may have dropped dirty pages — either way further appends could
    /// frame-shift or silently lose durability, so the store degrades to
    /// explicit read-only instead (paper's "sessions survive restarts"
    /// promise requires the log to stay trustworthy).
    degraded: Arc<AtomicBool>,
    /// Estimated on-disk bytes of a minimal snapshot of current state.
    /// `committed_len - live_bytes` is the log's garbage, which is what
    /// triggers the janitor.
    live_bytes: Arc<AtomicU64>,
    /// Highest leader-epoch fence seen, either appended locally (a node
    /// claiming leadership) or replayed from the log at open. Distinct
    /// from [`Store::wal_epoch`], which counts log-file incarnations.
    fence_epoch: AtomicU64,
    janitor_stop: Option<Arc<AtomicBool>>,
    janitor: Option<std::thread::JoinHandle<()>>,
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

    /// Open a persistent store at `path` with no per-append fsync. A
    /// janitor thread compacts the log in the background.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with_sync(path, false)
    }

    /// Like [`Store::open`], but when `sync` is true every append is
    /// durable before it is acknowledged, concurrent appenders sharing
    /// each fsync.
    pub fn open_with_sync(path: impl Into<PathBuf>, sync: bool) -> io::Result<Self> {
        let (engine, ops) = WalEngine::open(path.into(), sync)?;
        Ok(Self::assemble(Some(Arc::new(engine)), ops))
    }

    fn assemble(engine: Option<Arc<WalEngine>>, ops: Vec<LogOp>) -> Store {
        let shards = ShardSet::new();
        let mut live = 0u64;
        let mut fence = 0u64;
        for op in ops {
            match op {
                LogOp::Put { bucket, key, value } => {
                    let shard = shards.shard(&bucket);
                    live += put_record_size(&bucket, &key, value.len());
                    let removed = put_record_size(&bucket, &key, 0);
                    if let Some(old) = shard.write().entry(bucket).or_default().insert(key, value) {
                        live -= removed + old.len() as u64;
                    }
                }
                LogOp::Delete { bucket, key } => {
                    let removed = put_record_size(&bucket, &key, 0);
                    if let Some(old) = shards
                        .shard(&bucket)
                        .write()
                        .get_mut(&bucket)
                        .and_then(|b| b.remove(&key))
                    {
                        live -= removed + old.len() as u64;
                    }
                }
                LogOp::EpochFence { epoch } => fence = fence.max(epoch),
            }
        }
        let degraded = Arc::new(AtomicBool::new(false));
        let live_bytes = Arc::new(AtomicU64::new(live));
        let (janitor_stop, janitor) = engine
            .as_ref()
            .map(|engine| {
                let stop = Arc::new(AtomicBool::new(false));
                let thread = spawn_janitor(
                    Arc::clone(engine),
                    Arc::clone(&degraded),
                    Arc::clone(&live_bytes),
                    Arc::clone(&stop),
                );
                (stop, thread)
            })
            .unzip();
        Store {
            shards,
            engine,
            lookups: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            generations: RwLock::new(HashMap::new()),
            degraded,
            live_bytes,
            fence_epoch: AtomicU64::new(fence),
            janitor_stop,
            janitor,
        }
    }

    /// Is the store poisoned into read-only degraded mode?
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    fn degraded_error() -> io::Error {
        io::Error::other(format!("{DEGRADED_MSG}: WAL write or fsync failed"))
    }

    /// Log `op`, poisoning the store on failure. Reads keep working after
    /// poisoning; writes get [`DEGRADED_MSG`] errors without touching the
    /// (possibly frame-shifted) log again.
    fn wal_append(&self, op: &LogOp) -> io::Result<()> {
        if self.is_degraded() {
            return Err(Self::degraded_error());
        }
        let Some(engine) = &self.engine else {
            return Ok(());
        };
        match engine.append(op) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.degraded.store(true, Ordering::SeqCst);
                Err(e)
            }
        }
    }

    fn live_add(&self, n: u64) {
        self.live_bytes.fetch_add(n, Ordering::Relaxed);
    }

    fn live_sub(&self, n: u64) {
        let _ = self
            .live_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Insert or overwrite a value.
    pub fn put(&self, bucket: &str, key: &str, value: impl Into<Vec<u8>>) -> io::Result<()> {
        let value = value.into();
        self.writes.fetch_add(1, Ordering::Relaxed);
        // Without an engine there is nothing to append to (and nothing that
        // could have degraded), so no `LogOp` is built just to be dropped.
        // With one, the key is still allocated once: the logged copy moves
        // into the map.
        let (owned_key, value) = if self.engine.is_some() {
            let op = LogOp::Put {
                bucket: bucket.to_owned(),
                key: key.to_owned(),
                value,
            };
            self.wal_append(&op)?;
            let LogOp::Put { key, value, .. } = op else {
                unreachable!()
            };
            (key, value)
        } else {
            (key.to_owned(), value)
        };
        let added = put_record_size(bucket, key, value.len());
        let generation = self.generation_handle(bucket);
        let old_len = {
            let mut shard = self.shards.shard(bucket).write();
            // Look the bucket up by `&str` first: only the first write to a
            // bucket pays for an owned name.
            let map = match shard.get_mut(bucket) {
                Some(map) => map,
                None => shard.entry(bucket.to_owned()).or_default(),
            };
            let old = map.insert(owned_key, value);
            generation.fetch_add(1, Ordering::SeqCst);
            old.map(|o| o.len())
        };
        self.live_add(added);
        if let Some(old_len) = old_len {
            self.live_sub(put_record_size(bucket, key, old_len));
        }
        Ok(())
    }

    /// Point lookup.
    pub fn get(&self, bucket: &str, key: &str) -> Option<Vec<u8>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.shards
            .shard(bucket)
            .read()
            .get(bucket)?
            .get(key)
            .cloned()
    }

    /// Does the key exist?
    pub fn contains(&self, bucket: &str, key: &str) -> bool {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.shards
            .shard(bucket)
            .read()
            .get(bucket)
            .is_some_and(|b| b.contains_key(key))
    }

    /// Delete a key. Returns whether it existed.
    pub fn delete(&self, bucket: &str, key: &str) -> io::Result<bool> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        if self.engine.is_some() {
            self.wal_append(&LogOp::Delete {
                bucket: bucket.to_owned(),
                key: key.to_owned(),
            })?;
        }
        let generation = self.generation_handle(bucket);
        let old_len = {
            let mut shard = self.shards.shard(bucket).write();
            let old = shard.get_mut(bucket).and_then(|b| b.remove(key));
            generation.fetch_add(1, Ordering::SeqCst);
            old.map(|o| o.len())
        };
        if let Some(old_len) = old_len {
            self.live_sub(put_record_size(bucket, key, old_len));
        }
        Ok(old_len.is_some())
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
        let shard = self.shards.shard(bucket).read();
        match shard.get(bucket) {
            None => Vec::new(),
            Some(map) => prefixed(map, prefix)
                .take(limit)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Number of keys in a bucket that start with `prefix`, without copying
    /// any of them.
    pub fn count_prefix(&self, bucket: &str, prefix: &str) -> usize {
        self.scans.fetch_add(1, Ordering::Relaxed);
        let shard = self.shards.shard(bucket).read();
        shard
            .get(bucket)
            .map_or(0, |map| prefixed(map, prefix).count())
    }

    /// All keys in a bucket (ordered).
    pub fn keys(&self, bucket: &str) -> Vec<String> {
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.shards
            .shard(bucket)
            .read()
            .get(bucket)
            .map(|b| b.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of keys in a bucket.
    pub fn len(&self, bucket: &str) -> usize {
        self.shards
            .shard(bucket)
            .read()
            .get(bucket)
            .map_or(0, |b| b.len())
    }

    /// Is the bucket empty or absent?
    pub fn is_empty(&self, bucket: &str) -> bool {
        self.len(bucket) == 0
    }

    /// Names of all buckets (sorted).
    pub fn bucket_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .shards
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort();
        names
    }

    /// Remove every key in a bucket.
    pub fn clear_bucket(&self, bucket: &str) -> io::Result<()> {
        let keys = self.keys(bucket);
        for key in keys {
            self.delete(bucket, &key)?;
        }
        Ok(())
    }

    /// Rewrite the persistent image as a minimal snapshot of current state
    /// (drops superseded records). Runs concurrently with appends — only
    /// the final file swap briefly blocks writers. No-op for in-memory
    /// stores; concurrent calls (manual + janitor) coalesce.
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

    /// Force pending appends to disk (one fsync of the log).
    pub fn sync(&self) -> io::Result<()> {
        let Some(engine) = &self.engine else {
            return Ok(());
        };
        if self.is_degraded() {
            return Err(Self::degraded_error());
        }
        match engine.sync() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.degraded.store(true, Ordering::SeqCst);
                Err(e)
            }
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
        self.generation_handle(bucket).load(Ordering::SeqCst)
    }

    /// Shared handle to a bucket's generation counter, for callers that
    /// validate on every request and want a single atomic load with no
    /// map lookup.
    pub fn generation_handle(&self, bucket: &str) -> Arc<AtomicU64> {
        if let Some(handle) = self.generations.read().get(bucket) {
            return Arc::clone(handle);
        }
        let mut generations = self.generations.write();
        Arc::clone(generations.entry(bucket.to_owned()).or_default())
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
    fn drop(&mut self) {
        if let Some(stop) = self.janitor_stop.take() {
            stop.store(true, Ordering::SeqCst);
        }
        if let Some(thread) = self.janitor.take() {
            let _ = thread.join();
        }
    }
}

/// The background compaction loop: wake every [`JANITOR_TICK`], compare
/// the engine's committed length against the store's live-byte estimate,
/// and compact when [`WalEngine::wants_compaction`] says so.
/// Compaction errors are swallowed (the old file stays intact; the next
/// tick retries) and a degraded store is left alone entirely.
fn spawn_janitor(
    engine: Arc<WalEngine>,
    degraded: Arc<AtomicBool>,
    live_bytes: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("clarens-db-janitor".into())
        .spawn(move || {
            let slice = Duration::from_millis(25);
            let slices = (JANITOR_TICK.as_millis() / slice.as_millis()).max(1) as u32;
            loop {
                for _ in 0..slices {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(slice);
                }
                if degraded.load(Ordering::SeqCst) {
                    continue;
                }
                if engine.wants_compaction(live_bytes.load(Ordering::Relaxed)) {
                    let _ = engine.compact();
                }
            }
        })
        .expect("spawn janitor thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "clarens-db-store-{}-{name}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
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
            // Compaction rewrites the log but keeps the newest fence.
            store.compact().unwrap();
            assert_eq!(store.fence_epoch(), 3);
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
            let before = std::fs::metadata(&path).unwrap().len();
            store.compact().unwrap();
            let after = std::fs::metadata(&path).unwrap().len();
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
    fn janitor_compacts_in_background() {
        let path = temp_path("janitor");
        {
            let store = Store::open(&path).unwrap();
            // Churn one hot key past the janitor's 256 KiB floor (and so
            // far past its garbage ratio), then wait for it to notice.
            let value = vec![7u8; 512];
            for _ in 0..600 {
                store.put("b", "hot", value.clone()).unwrap();
            }
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while store.stats().compactions == 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
            assert!(
                store.stats().compactions >= 1,
                "janitor never compacted (wal={}, live={})",
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

    #[test]
    fn clear_bucket() {
        let store = Store::in_memory();
        store.put("b", "k1", b"1".to_vec()).unwrap();
        store.put("b", "k2", b"2".to_vec()).unwrap();
        store.put("other", "k", b"3".to_vec()).unwrap();
        store.clear_bucket("b").unwrap();
        assert!(store.is_empty("b"));
        assert_eq!(store.len("other"), 1);
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
    fn clear_bucket_moves_generation() {
        let store = Store::in_memory();
        store.put("b", "k1", b"1".to_vec()).unwrap();
        store.put("b", "k2", b"2".to_vec()).unwrap();
        let before = store.generation("b");
        store.clear_bucket("b").unwrap();
        assert!(store.generation("b") > before);
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
    fn concurrent_cross_bucket_writes_stripe() {
        // Eight writers on eight distinct buckets: with lock-striped
        // shards they interleave freely; the assertion is pure
        // correctness (each bucket converges to its own writer's state).
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

    #[test]
    fn fsync_failure_degrades_to_read_only() {
        let path = temp_path("degraded");
        let store = Store::open_with_sync(&path, true).unwrap();
        store.put("sessions", "s1", b"alice".to_vec()).unwrap();
        assert!(!store.is_degraded());

        // One fsync failure poisons the writer...
        {
            let _g =
                clarens_faults::with_thread(clarens_faults::sites::DB_WAL_FSYNC, "err|times=1");
            let err = store.put("sessions", "s2", b"bob".to_vec()).unwrap_err();
            assert!(clarens_faults::is_injected(&err), "{err}");
        }
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
        let store = Store::open(&path).unwrap();
        let _g = clarens_faults::with_thread(clarens_faults::sites::DB_WAL_APPEND, "err|times=1");
        assert!(store.put("b", "k", b"v".to_vec()).is_err());
        assert!(store.is_degraded());
        // WAL-first ordering: the failed write never reached memory.
        assert_eq!(store.get("b", "k"), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn in_memory_store_never_degrades() {
        let store = Store::in_memory();
        let _g = clarens_faults::with_thread(clarens_faults::sites::DB_WAL_FSYNC, "err");
        store.put("b", "k", b"v".to_vec()).unwrap();
        assert!(!store.is_degraded());
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
