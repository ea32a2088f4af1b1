//! The storage engine behind a persistent [`crate::Store`]: an append-only
//! write-ahead log with group commit and background compaction. The record
//! format itself lives in [`crate::log`].
//!
//! **Group commit.** In durable mode every acknowledged append must be
//! fsynced, but fsync latency is the whole cost — so concurrent appenders
//! share it. An appender writes its record under the log mutex (capturing
//! a logical LSN), then enters `WalEngine::commit`: the first arrival
//! becomes the batch leader, issues one `fdatasync` covering everything
//! written so far, and publishes the new durable watermark; everyone else
//! parks on a condvar and returns as soon as the watermark passes their
//! LSN. While the leader's fsync is in flight the log mutex is free, so
//! the next batch accumulates behind it — N writers converge on ~1 fsync
//! per batch instead of N. A leader fsync failure poisons the group:
//! every member whose LSN the failed sync would have covered gets the
//! error (and the store degrades to read-only), because the kernel may
//! have dropped their dirty pages on the floor.
//!
//! **Background compaction.** The log grows with every overwrite; the
//! store's write that makes [`WalEngine::wants_compaction`] true starts a
//! rewrite as a minimal snapshot on a short-lived thread, *off the hot
//! path*. The rewrite replays the immutable committed prefix of the log itself
//! (never the in-memory maps: the store appends to the log *before*
//! inserting into memory, so a memory snapshot can miss an op that is
//! already on disk), then loops copying the freshly appended tail without
//! any lock until the remainder is small, and only then blocks appenders
//! for one final tail copy + atomic rename. The append stall is bounded
//! by `FINAL_TAIL_MAX` bytes, not by the log size. The rename bumps the
//! file epoch so replication cursors resync; the swap (rename + handle
//! swap + epoch bump) happens under a writer lock that
//! [`WalEngine::read_log`] read-locks, so a concurrent reader can never
//! observe the new file under the old epoch (or vice versa). A rename is
//! durable only once its directory is fsynced, so the swap syncs the
//! directory before any append to the new file is acknowledged; `open`
//! does the same for a log it creates with `sync` on.
//!
//! **Growth in steps; one writer per file.** Frames are written in place
//! at `file_len`, into space extended `EXTEND_STEP` bytes ahead, so a
//! durable ack's `fdatasync` commits no size change. Readers stop at
//! `file_len`; `Drop` truncates to it; a file lock keeps other engines out.
//!
//! **One seam.** Every call the engine makes on its files and their
//! directory goes through a `Disk` (`crate::disk`): the file system, or
//! the test double [`crate::FaultyDisk`].

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

// The vendored parking_lot guard is a std guard alias, so std's Condvar
// composes with it directly.
use std::sync::Condvar;

use parking_lot::{Mutex, RwLock};

use crate::disk::{At, Disk, DiskFile, Handle};
use crate::log::{
    decode_op, encode_record, frame_payload, frame_prefix, read_frame, recover, Frame, LogOp,
};
use crate::storage::StorageCounters;
use crate::store::WalChunk;

/// Once the uncopied tail is at most this many bytes, compaction takes
/// the append lock and finishes; this bounds the append stall.
const FINAL_TAIL_MAX: u64 = 64 * 1024;

/// A log is compacted once this fraction of it is dead bytes (overwritten
/// or deleted records).
const COMPACT_RATIO: f64 = 0.5;

/// Logs smaller than this are never compacted, however garbage-heavy:
/// rewriting tiny files buys nothing and thrashes. A failed automatic
/// compaction is retried once the log has grown by this much again.
pub(crate) const COMPACT_MIN_BYTES: u64 = 256 * 1024;

/// The log file grows ahead of its end in steps of this many bytes, so a
/// synced append writes into space the file already has.
const EXTEND_STEP: u64 = 1024 * 1024;

struct WalInner {
    /// Shared handle so fsync (and compaction) can run on a clone of the
    /// `Arc` without holding the append lock.
    file: Handle,
    /// Length of the log: the bytes of whole records in the current file.
    file_len: u64,
    /// Size of the file: `file_len` rounded up to an `EXTEND_STEP`.
    file_size: u64,
    /// Logical append counter. Monotone across compactions (which reset
    /// `file_len`), so group-commit watermarks survive a file swap.
    lsn: u64,
}

#[derive(Default)]
struct GroupState {
    /// A leader's fsync is in flight.
    leader: bool,
}

/// Append-only WAL engine (see module docs).
pub struct WalEngine {
    disk: Arc<dyn Disk>,
    path: PathBuf,
    inner: Mutex<WalInner>,
    group: Mutex<GroupState>,
    group_cond: Condvar,
    /// Highest LSN known durable. Advanced while holding `group` (so
    /// condvar waiters never miss a wakeup) but read lock-free by the
    /// commit fast path.
    synced: AtomicU64,
    sync_on_append: bool,
    /// Published committed length (bytes of whole flushed records), so
    /// gauges and replication reads never take the append lock.
    committed: AtomicU64,
    epoch: AtomicU64,
    /// Excludes `read_log` from the rename→handle-swap→epoch-bump window.
    swap: RwLock<()>,
    /// Coalesces concurrent compactions (automatic and manual).
    compacting: AtomicBool,
    /// Set once an append, an fsync or a compaction's directory sync
    /// fails: every later commit fails, and the store refuses writes.
    /// Set while holding `group`, so parked committers never miss it.
    poisoned: AtomicBool,
    fsyncs: AtomicU64,
    group_commits: AtomicU64,
    compactions: AtomicU64,
    bytes_written: AtomicU64,
    extends: AtomicU64,
    /// Told the log's position after every append it commits and every
    /// compaction it swaps in ([`WalEngine::on_commit`]).
    on_commit: OnceLock<CommitHook>,
}

/// What a log tells of each commit: its new `(epoch, committed length)`.
pub type CommitHook = Box<dyn Fn((u64, u64)) + Send + Sync>;

impl WalEngine {
    /// Open (creating if needed) the log at `path` on `disk`, repairing a
    /// torn tail in place, and return the engine plus the recovered
    /// operations in append order. With `sync`, every append is durable
    /// before it is acknowledged, concurrent appenders sharing each fsync.
    /// Fails if another engine holds the file.
    pub(crate) fn open(
        disk: Arc<dyn Disk>,
        path: PathBuf,
        sync: bool,
    ) -> io::Result<(WalEngine, Vec<LogOp>)> {
        let (file, created) = disk.open(&path, false)?;
        if created && sync {
            // Without it a power cut may take the new log's name, and
            // with it every append acknowledged as durable. Not counted in
            // `fsyncs`, which counts the log's own syncs per append.
            disk.sync_dir(&path)?;
        }
        let recovery = recover(BufReader::new(At(&*file, 0)))?;
        let mut startup_fsyncs = 0;
        if recovery.torn_tail {
            // A crash tore the last record or left an extension's zeros
            // (an empty frame, no operation): truncate to the valid prefix
            // so the next append starts on a frame boundary. An O(1)
            // repair, paying an fsync only when appends are durable.
            file.set_len(recovery.valid_len)?;
            if sync {
                file.sync_data()?;
                startup_fsyncs = 1;
            }
        }
        let file_len = recovery.valid_len;
        let engine = WalEngine {
            disk,
            path,
            inner: Mutex::new(WalInner {
                file,
                file_len,
                file_size: file_len,
                lsn: 0,
            }),
            group: Mutex::new(GroupState::default()),
            group_cond: Condvar::new(),
            synced: AtomicU64::new(0),
            sync_on_append: sync,
            committed: AtomicU64::new(file_len),
            epoch: AtomicU64::new(0),
            swap: RwLock::new(()),
            compacting: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            fsyncs: AtomicU64::new(startup_fsyncs),
            group_commits: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            extends: AtomicU64::new(0),
            on_commit: OnceLock::new(),
        };
        Ok((engine, recovery.ops))
    }

    /// Group-commit rendezvous: return once LSN `lsn` is durable, leading
    /// a batch fsync if nobody else is.
    fn commit(&self, lsn: u64) -> io::Result<()> {
        // Lock-free fast path: a leader that captured its batch after our
        // append already made us durable.
        if self.synced.load(Ordering::Acquire) >= lsn {
            return Ok(());
        }
        let mut state = self.group.lock();
        loop {
            if self.synced.load(Ordering::Acquire) >= lsn {
                return Ok(());
            }
            if self.is_poisoned() {
                return Err(io::Error::other(
                    "group commit poisoned by an earlier fsync failure",
                ));
            }
            if state.leader {
                state = self
                    .group_cond
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
                continue;
            }
            state.leader = true;
            drop(state);
            // Commit window: writers released by the previous batch are
            // right now re-appending their next records. One scheduler
            // yield lets them reach the log before the batch target is
            // captured, roughly doubling the batch — worth microseconds
            // against the fsync below.
            std::thread::yield_now();
            // Capture the batch: every LSN appended so far is fully
            // written (appends advance `lsn` only after the record is in
            // the file), so one fdatasync covers them all. The append
            // lock is released before the sync, letting the next batch
            // pile up behind this one.
            let (target, file) = {
                let inner = self.inner.lock();
                (inner.lsn, Arc::clone(&inner.file))
            };
            let result = file.sync_data();
            state = self.group.lock();
            state.leader = false;
            match result {
                // A compaction may have poisoned the log meanwhile: then
                // this sync vouches for nothing (the loop reports it).
                Ok(()) if self.is_poisoned() => {}
                Ok(()) => {
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                    self.group_commits.fetch_add(1, Ordering::Relaxed);
                    // fetch_max: a compaction may have published a higher
                    // watermark while we were syncing.
                    self.synced.fetch_max(target, Ordering::AcqRel);
                    self.group_cond.notify_all();
                }
                Err(e) => {
                    self.poisoned.store(true, Ordering::SeqCst);
                    self.group_cond.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Replay the committed prefix `[0, mark)` of the log into a minimal
    /// state map. Every frame below the committed length must be intact;
    /// a torn one here means the file is corrupt, and compaction aborts
    /// leaving the original untouched.
    fn replay_prefix(file: &dyn DiskFile, mark: u64) -> io::Result<Vec<LogOp>> {
        let mut reader = BufReader::new(At(file, 0)).take(mark);
        let mut live: std::collections::BTreeMap<(String, String), Vec<u8>> =
            std::collections::BTreeMap::new();
        let mut fence: Option<u64> = None;
        let corrupt = || io::Error::other("WAL corrupt inside committed prefix");
        let mut payload = Vec::new();
        loop {
            match read_frame(&mut reader, &mut payload)? {
                Frame::Payload => {}
                Frame::End => break,
                Frame::Torn => return Err(corrupt()),
            }
            match decode_op(&payload).ok_or_else(corrupt)? {
                LogOp::Put { bucket, key, value } => {
                    live.insert((bucket, key), value);
                }
                LogOp::Delete { bucket, key } => {
                    live.remove(&(bucket, key));
                }
                LogOp::EpochFence { epoch } => {
                    fence = Some(fence.map_or(epoch, |f| f.max(epoch)));
                }
            }
        }
        // The snapshot keeps only the newest leader fence, last: a follower
        // that has read past it holds all the state it seals.
        let puts = live.into_iter();
        Ok(puts
            .map(|((bucket, key), value)| LogOp::Put { bucket, key, value })
            .chain(fence.map(|epoch| LogOp::EpochFence { epoch }))
            .collect())
    }

    /// Copy `[*mark, end)` of `src` into `dst`, advancing `*mark`.
    fn copy_tail(
        &self,
        src: &dyn DiskFile,
        dst: &mut BufWriter<At>,
        mark: &mut u64,
        end: u64,
    ) -> io::Result<()> {
        let copied = io::copy(&mut At(src, *mark).take(end - *mark), dst)?;
        self.bytes_written.fetch_add(copied, Ordering::Relaxed);
        if copied < end - *mark {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        *mark = end;
        Ok(())
    }

    fn compact_inner(&self) -> io::Result<()> {
        let tmp = self.path.with_extension("compact");
        // The log's handle is this compaction's to replace: it cannot
        // change until the swap below.
        let (src, mut mark) = {
            let inner = self.inner.lock();
            (Arc::clone(&inner.file), inner.file_len)
        };

        // Phase 1: snapshot the committed prefix (no locks held — the
        // bytes below `mark` are immutable while the file lives).
        let live = Self::replay_prefix(&*src, mark)?;
        // Locked before the rename makes it the log: never seen unlocked.
        let (snapshot, _) = self.disk.open(&tmp, true)?;
        let mut writer = BufWriter::new(At(&*snapshot, 0));
        for op in &live {
            let record = encode_record(op);
            writer.write_all(&record)?;
            self.bytes_written
                .fetch_add(record.len() as u64, Ordering::Relaxed);
        }

        // Phase 2: chase the tail without blocking appenders until the
        // gap is small; then pay the one big fsync off the append path.
        loop {
            let end = self.inner.lock().file_len;
            if end - mark <= FINAL_TAIL_MAX {
                break;
            }
            self.copy_tail(&*src, &mut writer, &mut mark, end)?;
        }
        writer.flush()?;
        snapshot.sync_data()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);

        // Phase 3: the only stop-the-world window — copy the final tail
        // (≤ FINAL_TAIL_MAX bytes), rename, swap handles, bump the epoch.
        // The swap write-lock keeps `read_log` from straddling the rename.
        let _swap = self.swap.write();
        let mut inner = self.inner.lock();
        let end = inner.file_len;
        self.copy_tail(&*src, &mut writer, &mut mark, end)?;
        writer.flush()?;
        snapshot.sync_data()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        let len = writer.get_ref().1;
        drop(writer);
        self.disk.rename(&tmp, &self.path)?;
        // The snapshot's handle is the log's now, at its exact length.
        (inner.file_len, inner.file_size) = (len, len);
        inner.file = snapshot;
        self.committed.store(inner.file_len, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        // Until the directory is synced a power cut may bring the old log
        // back, without whatever is acknowledged from the new one; so
        // appenders stay blocked, and a failure releases no waiter.
        let lsn = inner.lsn;
        let dir_synced = self.disk.sync_dir(&self.path);
        drop(inner);
        if let Err(e) = dir_synced {
            self.poison();
            return Err(e);
        }
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if self.sync_on_append {
            // Everything appended before the swap is in the new, fsynced
            // file: release any parked group members up to that LSN.
            let _state = self.group.lock();
            self.synced.fetch_max(lsn, Ordering::AcqRel);
            self.group_cond.notify_all();
        }
        Ok(())
    }

    /// Append one record; in durable mode, return only once it is fsynced
    /// (sharing the fsync with concurrent appenders). An error — a failed
    /// extension included — means the operation must not be applied to
    /// memory (the store degrades to read-only).
    pub fn append(&self, op: &LogOp) -> io::Result<()> {
        let record = encode_record(op);
        let lsn = {
            let mut inner = self.inner.lock();
            let end = inner.file_len + record.len() as u64;
            if end > inner.file_size {
                let size = end.next_multiple_of(EXTEND_STEP);
                inner.file.set_len(size).inspect_err(|_| self.poison())?;
                inner.file_size = size;
                self.extends.fetch_add(1, Ordering::Relaxed);
            }
            // `write_all` takes a short write as progress, never as the
            // record: a frame written in part would shift every later one.
            At(&*inner.file, inner.file_len)
                .write_all(&record)
                .inspect_err(|_| self.poison())?;
            inner.file_len = end;
            inner.lsn += 1;
            self.committed.store(inner.file_len, Ordering::Release);
            self.bytes_written
                .fetch_add(record.len() as u64, Ordering::Relaxed);
            inner.lsn
        };
        if self.sync_on_append {
            self.commit(lsn)?;
        }
        self.announce();
        Ok(())
    }

    /// Have `hook` told the log's position after every append it commits
    /// (durable, in durable mode) and every compaction it swaps in: one
    /// place that sees every write a replica must ship. The first hook
    /// stays.
    pub fn on_commit(&self, hook: CommitHook) {
        let _ = self.on_commit.set(hook);
    }

    /// Tell the commit hook, if any, where the log is.
    fn announce(&self) {
        if let Some(hook) = self.on_commit.get() {
            hook(self.position());
        }
    }

    /// Fsync the log.
    pub fn sync(&self) -> io::Result<()> {
        let (lsn, file) = {
            let inner = self.inner.lock();
            (inner.lsn, Arc::clone(&inner.file))
        };
        file.sync_data().inspect_err(|_| self.poison())?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if self.sync_on_append {
            let _state = self.group.lock();
            self.synced.fetch_max(lsn, Ordering::AcqRel);
            self.group_cond.notify_all();
        }
        Ok(())
    }

    /// Rewrite the log as a minimal snapshot of live state. Safe to call
    /// concurrently with appends; concurrent calls coalesce.
    pub fn compact(&self) -> io::Result<()> {
        if self.compacting.swap(true, Ordering::SeqCst) {
            return Ok(()); // a compaction is already in flight
        }
        let result = self.compact_inner();
        self.compacting.store(false, Ordering::SeqCst);
        match result {
            Ok(()) => self.announce(),
            Err(_) => _ = self.disk.remove(&self.path.with_extension("compact")),
        }
        result
    }

    /// Is the log worth compacting now? `live_bytes` is the store's
    /// estimate of the on-disk size of a minimal snapshot.
    pub fn wants_compaction(&self, live_bytes: u64) -> bool {
        let len = self.committed.load(Ordering::Acquire);
        if len < COMPACT_MIN_BYTES || live_bytes >= len {
            return false;
        }
        (len - live_bytes) as f64 / len as f64 >= COMPACT_RATIO
    }

    /// Has an append, an fsync or a compaction's directory sync failed?
    /// A poisoned log takes no more writes (the store is degraded).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Poison the log, failing every parked and later commit.
    fn poison(&self) {
        let _state = self.group.lock();
        self.poisoned.store(true, Ordering::SeqCst);
        self.group_cond.notify_all();
    }

    /// Committed length of the log in bytes (the replication high-water
    /// mark).
    pub fn committed_len(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Incarnation of the log file; bumps whenever a compaction
    /// invalidates previously handed-out offsets.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The log's `(epoch, committed length)`, read as one: a compaction
    /// publishes both under the swap lock.
    pub fn position(&self) -> (u64, u64) {
        let _swap = self.swap.read();
        (self.epoch(), self.committed_len())
    }

    /// Read a replication chunk (see [`crate::Store::wal_read`]).
    pub fn read_log(&self, epoch: u64, offset: u64, max_bytes: usize) -> io::Result<WalChunk> {
        // The read lock pins the (file, epoch) pairing: a compaction swap
        // takes the write side, so we can never read the new file's bytes
        // and label them with the old epoch.
        let _swap = self.swap.read();
        let cur_epoch = self.epoch.load(Ordering::SeqCst);
        let committed = self.committed.load(Ordering::Acquire);
        let file = Arc::clone(&self.inner.lock().file);
        let start = if epoch != cur_epoch || offset > committed {
            0
        } else {
            offset
        };
        let mut data = Vec::new();
        if start < committed {
            let budget = (committed - start).min(max_bytes as u64);
            data.reserve_exact(budget as usize);
            At(&*file, start).take(budget).read_to_end(&mut data)?;
            data.truncate(frame_prefix(&data));
            if data.is_empty() {
                // The frame at `start` is longer than the budget. A
                // follower reads an empty chunk as "caught up" and would
                // ask for this offset forever, so ship that one frame
                // whole instead.
                let mut payload = Vec::new();
                let mut rest = At(&*file, start).take(committed - start);
                if read_frame(&mut rest, &mut payload)? == Frame::Payload {
                    data = frame_payload(&payload);
                }
            }
        }
        Ok(WalChunk {
            epoch: cur_epoch,
            offset: start,
            data,
            len: committed,
        })
    }

    /// Snapshot of the engine's counters.
    pub fn counters(&self) -> StorageCounters {
        StorageCounters {
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            group_commits: self.group_commits.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            extends: self.extends.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WalEngine {
    /// A closed log is exactly its frames (after a crash, recovery cuts).
    fn drop(&mut self) {
        let inner = self.inner.get_mut();
        let _ = inner.file.set_len(inner.file_len);
    }
}
