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
//! janitor rewrites it as a minimal snapshot *off the hot path*. The
//! rewrite replays the immutable committed prefix of the log itself
//! (never the in-memory maps: the store appends to the log *before*
//! inserting into memory, so a memory snapshot can miss an op that is
//! already on disk), then loops copying the freshly appended tail without
//! any lock until the remainder is small, and only then blocks appenders
//! for one final tail copy + atomic rename. The append stall is bounded
//! by `FINAL_TAIL_MAX` bytes, not by the log size. The rename bumps the
//! file epoch so replication cursors resync; the swap (rename + handle
//! reopen + epoch bump) happens under a writer lock that
//! [`WalEngine::read_log`] read-locks, so a concurrent reader can never
//! observe the new file under the old epoch (or vice versa).

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

// The vendored parking_lot guard is a std guard alias, so std's Condvar
// composes with it directly.
use std::sync::Condvar;

use parking_lot::{Mutex, RwLock};

use crate::log::{
    decode_op, encode_record, frame_payload, frame_prefix, read_frame, recover, write_framed,
    Frame, LogOp,
};
use crate::storage::StorageCounters;
use crate::store::WalChunk;

/// Once the uncopied tail is at most this many bytes, compaction takes
/// the append lock and finishes; this bounds the append stall.
const FINAL_TAIL_MAX: u64 = 64 * 1024;

/// Chunk size for tail copies during compaction.
const COPY_CHUNK: usize = 64 * 1024;

/// The janitor compacts once this fraction of the log is dead bytes
/// (overwritten or deleted records).
const COMPACT_RATIO: f64 = 0.5;

/// Logs smaller than this are never compacted, however garbage-heavy:
/// rewriting tiny files buys nothing and thrashes.
const COMPACT_MIN_BYTES: u64 = 256 * 1024;

struct WalInner {
    /// Shared handle so fsync (and compaction) can run on a clone of the
    /// `Arc` without holding the append lock.
    file: Arc<File>,
    /// Physical length of the current log file.
    file_len: u64,
    /// Logical append counter. Monotone across compactions (which reset
    /// `file_len`), so group-commit watermarks survive a file swap.
    lsn: u64,
}

#[derive(Default)]
struct GroupState {
    /// A leader's fsync is in flight.
    leader: bool,
    /// A group fsync failed: every later commit fails fast.
    poisoned: bool,
}

/// Append-only WAL engine (see module docs).
pub struct WalEngine {
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
    /// Excludes `read_log` from the rename→reopen→epoch-bump window.
    swap: RwLock<()>,
    /// Coalesces concurrent compactions (janitor + manual).
    compacting: AtomicBool,
    fsyncs: AtomicU64,
    group_commits: AtomicU64,
    compactions: AtomicU64,
    bytes_written: AtomicU64,
}

impl WalEngine {
    /// Open (creating if needed) the log at `path`, repairing a torn tail
    /// in place, and return the engine plus the recovered operations in
    /// append order. With `sync`, every append is durable before it is
    /// acknowledged, concurrent appenders sharing each fsync.
    pub fn open(path: PathBuf, sync: bool) -> io::Result<(WalEngine, Vec<LogOp>)> {
        let recovery = recover(&path)?;
        let mut startup_fsyncs = 0;
        if recovery.torn_tail {
            // A crash tore the last record: truncate to the valid prefix
            // so the next append starts on a frame boundary. This is an
            // O(1) repair — no rewrite — and it only pays for an fsync
            // when the store is configured for durable appends.
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(recovery.valid_len)?;
            if sync {
                file.sync_data()?;
                startup_fsyncs = 1;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let file_len = file.metadata()?.len();
        let engine = WalEngine {
            path,
            inner: Mutex::new(WalInner {
                file: Arc::new(file),
                file_len,
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
            fsyncs: AtomicU64::new(startup_fsyncs),
            group_commits: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
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
            if state.poisoned {
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
            let result = clarens_faults::check_io(clarens_faults::sites::DB_WAL_FSYNC)
                .and_then(|()| file.sync_data());
            state = self.group.lock();
            state.leader = false;
            match result {
                Ok(()) => {
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                    self.group_commits.fetch_add(1, Ordering::Relaxed);
                    // fetch_max: a compaction may have published a higher
                    // watermark while we were syncing.
                    self.synced.fetch_max(target, Ordering::AcqRel);
                    self.group_cond.notify_all();
                }
                Err(e) => {
                    state.poisoned = true;
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
    fn replay_prefix(path: &Path, mark: u64) -> io::Result<Vec<LogOp>> {
        let mut reader = BufReader::new(File::open(path)?).take(mark);
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
        // The snapshot keeps only the newest leader fence, first, so a
        // follower replaying a compacted log still learns the epoch
        // in-band before any data record.
        Ok(fence
            .map(|epoch| LogOp::EpochFence { epoch })
            .into_iter()
            .chain(
                live.into_iter()
                    .map(|((bucket, key), value)| LogOp::Put { bucket, key, value }),
            )
            .collect())
    }

    /// Copy `[*mark, end)` of `src` into `dst`, advancing `*mark`.
    fn copy_tail(
        &self,
        src: &mut File,
        dst: &mut BufWriter<File>,
        mark: &mut u64,
        end: u64,
    ) -> io::Result<()> {
        src.seek(SeekFrom::Start(*mark))?;
        let mut remaining = end - *mark;
        let mut buf = vec![0u8; COPY_CHUNK.min(remaining as usize).max(1)];
        while remaining > 0 {
            let want = buf.len().min(remaining as usize);
            let n = match src.read(&mut buf[..want]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            dst.write_all(&buf[..n])?;
            self.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
            remaining -= n as u64;
        }
        *mark = end;
        Ok(())
    }

    fn compact_inner(&self) -> io::Result<()> {
        let tmp = self.path.with_extension("compact");
        let mut mark = self.inner.lock().file_len;

        // Phase 1: snapshot the committed prefix (no locks held — the
        // bytes below `mark` are immutable while the file lives).
        let live = Self::replay_prefix(&self.path, mark)?;
        let mut writer = BufWriter::new(File::create(&tmp)?);
        for op in &live {
            let record = encode_record(op);
            writer.write_all(&record)?;
            self.bytes_written
                .fetch_add(record.len() as u64, Ordering::Relaxed);
        }

        // Phase 2: chase the tail without blocking appenders until the
        // gap is small; then pay the one big fsync off the append path.
        let mut src = File::open(&self.path)?;
        loop {
            let end = self.inner.lock().file_len;
            if end - mark <= FINAL_TAIL_MAX {
                break;
            }
            self.copy_tail(&mut src, &mut writer, &mut mark, end)?;
        }
        writer.flush()?;
        writer.get_ref().sync_data()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);

        // Phase 3: the only stop-the-world window — copy the final tail
        // (≤ FINAL_TAIL_MAX bytes), rename, reopen, bump the epoch. The
        // swap write-lock keeps `read_log` from straddling the rename.
        let _swap = self.swap.write();
        let mut inner = self.inner.lock();
        let end = inner.file_len;
        self.copy_tail(&mut src, &mut writer, &mut mark, end)?;
        writer.flush()?;
        writer.get_ref().sync_data()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        // Failpoint: hold the swap window open (or fail it) on demand.
        clarens_faults::check_io(clarens_faults::sites::DB_COMPACT_SWAP)?;
        std::fs::rename(&tmp, &self.path)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        inner.file_len = file.metadata()?.len();
        inner.file = Arc::new(file);
        self.committed.store(inner.file_len, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        if self.sync_on_append {
            // Everything appended before the swap is in the new, fsynced
            // file: release any parked group members up to that LSN.
            let lsn = inner.lsn;
            drop(inner);
            let _state = self.group.lock();
            self.synced.fetch_max(lsn, Ordering::AcqRel);
            self.group_cond.notify_all();
        }
        Ok(())
    }

    /// Append one record; in durable mode, return only once it is fsynced
    /// (sharing the fsync with concurrent appenders). An error means the
    /// operation must not be applied to memory (the store degrades to
    /// read-only).
    pub fn append(&self, op: &LogOp) -> io::Result<()> {
        let record = encode_record(op);
        let lsn = {
            let mut inner = self.inner.lock();
            {
                let mut sink: &File = &inner.file;
                write_framed(&mut sink, &record)?;
            }
            inner.file_len += record.len() as u64;
            inner.lsn += 1;
            self.committed.store(inner.file_len, Ordering::Release);
            self.bytes_written
                .fetch_add(record.len() as u64, Ordering::Relaxed);
            inner.lsn
        };
        if !self.sync_on_append {
            return Ok(());
        }
        self.commit(lsn)
    }

    /// Fsync the log.
    pub fn sync(&self) -> io::Result<()> {
        let (lsn, file) = {
            let inner = self.inner.lock();
            (inner.lsn, Arc::clone(&inner.file))
        };
        clarens_faults::check_io(clarens_faults::sites::DB_WAL_FSYNC)?;
        file.sync_data()?;
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
        if result.is_err() {
            let _ = std::fs::remove_file(self.path.with_extension("compact"));
        }
        result
    }

    /// Should the janitor compact now? `live_bytes` is the store's estimate
    /// of the on-disk size of a minimal snapshot.
    pub fn wants_compaction(&self, live_bytes: u64) -> bool {
        let len = self.committed.load(Ordering::Acquire);
        if len < COMPACT_MIN_BYTES || live_bytes >= len {
            return false;
        }
        (len - live_bytes) as f64 / len as f64 >= COMPACT_RATIO
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

    /// Read a replication chunk (see [`crate::Store::wal_read`]).
    pub fn read_log(&self, epoch: u64, offset: u64, max_bytes: usize) -> io::Result<WalChunk> {
        // The read lock pins the (file, epoch) pairing: a compaction swap
        // takes the write side, so we can never read the new file's bytes
        // and label them with the old epoch.
        let _swap = self.swap.read();
        let cur_epoch = self.epoch.load(Ordering::SeqCst);
        let committed = self.committed.load(Ordering::Acquire);
        let start = if epoch != cur_epoch || offset > committed {
            0
        } else {
            offset
        };
        let mut data = Vec::new();
        if start < committed {
            let mut file = File::open(&self.path)?;
            file.seek(SeekFrom::Start(start))?;
            let budget = (committed - start).min(max_bytes as u64);
            data.reserve_exact(budget as usize);
            (&file).take(budget).read_to_end(&mut data)?;
            data.truncate(frame_prefix(&data));
            if data.is_empty() {
                // The frame at `start` is longer than the budget. A
                // follower reads an empty chunk as "caught up" and would
                // ask for this offset forever, so ship that one frame
                // whole instead.
                file.seek(SeekFrom::Start(start))?;
                let mut payload = Vec::new();
                let mut rest = (&file).take(committed - start);
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
        }
    }
}
