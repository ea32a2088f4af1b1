//! Failure-mode regressions for the storage engine, each on a store of
//! its own over a [`FaultyDisk`] (so they run in parallel):
//!
//! * a leader's fsync failure must poison every member of its group-commit
//!   batch — no follower may report success for an append the failed sync
//!   was supposed to cover, and the store must degrade to read-only;
//! * a replication read racing a background compaction must never observe
//!   the rename window (new file bytes labeled with the old epoch, or a
//!   torn view of either file);
//! * a failed compaction swap leaves the log as it was, and a failing
//!   automatic compaction is retried only after the log has grown.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use clarens_db::log::decode_stream;
use clarens_db::{is_degraded_error, Call, Fault, FaultyDisk, LogOp, Store};

fn temp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "clarens-db-faults-{}-{name}.db",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Satellite regression: with group commit on, a failed leader fsync must
/// fail the *whole batch*. Every concurrent writer gets an error (the
/// injected fsync failure, the poisoned-group error, or the degraded-store
/// error once the store poisons itself) — no writer may be told its append
/// is durable, and none of the failed appends may be visible in memory.
#[test]
fn group_commit_fsync_failure_poisons_whole_batch() {
    let path = temp_path("poison");
    let disk = FaultyDisk::new();
    let store = Arc::new(Store::open_on(&disk, &path, true).unwrap());
    // Prove the store works before the fault.
    store.put("b", "pre", b"ok".to_vec()).unwrap();
    assert_eq!(store.stats().syncs, 1);

    // Every fsync from here on fails, whichever thread leads the batch.
    disk.arm(Call::Sync, Fault::Fail, u64::MAX);

    let writers = 8;
    let barrier = Arc::new(Barrier::new(writers));
    let failures = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..writers {
        let store = Arc::clone(&store);
        let barrier = Arc::clone(&barrier);
        let failures = Arc::clone(&failures);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            match store.put("b", &format!("batch-{t}"), b"v".to_vec()) {
                Ok(()) => panic!("writer {t} reported success after a failed group fsync"),
                Err(e) => {
                    let msg = e.to_string();
                    assert!(
                        FaultyDisk::is_fault(&e)
                            || msg.contains("poisoned")
                            || is_degraded_error(&e),
                        "writer {t}: unexpected error {msg}"
                    );
                    failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    disk.clear();

    assert_eq!(failures.load(Ordering::Relaxed), writers as u64);
    assert!(store.is_degraded());
    // WAL-first ordering: none of the failed appends reached memory.
    for t in 0..writers {
        assert_eq!(store.get("b", &format!("batch-{t}")), None);
    }
    assert_eq!(store.get("b", "pre").unwrap(), b"ok");
    // The fault has cleared but the store stays read-only.
    assert!(is_degraded_error(
        &store.put("b", "late", b"v".to_vec()).unwrap_err()
    ));
    drop(store);
    std::fs::remove_file(&path).unwrap();
}

/// Satellite regression: `wal_read` racing an in-flight background
/// compaction. A delayed rename holds the rename→handle-swap→epoch-bump
/// window open while a follower-style reader
/// hammers the log. Every chunk must decode cleanly (whole CRC-valid
/// frames only) and carry a self-consistent epoch, so the shadow replica
/// resyncs exactly once and converges on the store's state.
#[test]
fn wal_read_never_straddles_compaction_swap() {
    let path = temp_path("swap-race");
    let disk = FaultyDisk::new();
    let store = Arc::new(Store::open_on(&disk, &path, false).unwrap());
    for i in 0..300 {
        store.put("b", "hot", format!("v{i}").into_bytes()).unwrap();
    }
    store.put("b", "stable", b"s".to_vec()).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut shadow: HashMap<(String, String), Vec<u8>> = HashMap::new();
            let mut epoch = 0u64;
            let mut offset = 0u64;
            let mut resyncs = 0u64;
            loop {
                // Small chunks maximize reads landing inside the window.
                let chunk = store.wal_read(epoch, offset, 512).unwrap();
                if chunk.epoch != epoch || chunk.offset != offset {
                    // Stale cursor: the log was rewritten under us. Start
                    // over from the snapshot the server now serves (the
                    // served offset is folded in via next_offset below).
                    shadow.clear();
                    epoch = chunk.epoch;
                    resyncs += 1;
                }
                let ops = decode_stream(&chunk.data)
                    .expect("replication chunk with torn or corrupt frames");
                // An empty chunk reads as "caught up": below the committed
                // length one must carry at least one frame.
                assert!(
                    !chunk.data.is_empty() || chunk.offset >= chunk.len,
                    "empty chunk at {} of {} (epoch {})",
                    chunk.offset,
                    chunk.len,
                    chunk.epoch
                );
                for op in ops {
                    match op {
                        LogOp::Put { bucket, key, value } => {
                            shadow.insert((bucket, key), value);
                        }
                        LogOp::Delete { bucket, key } => {
                            shadow.remove(&(bucket, key));
                        }
                        LogOp::EpochFence { .. } => {}
                    }
                }
                offset = chunk.next_offset();
                let drained = offset >= chunk.len && chunk.epoch == store.wal_epoch();
                if stop.load(Ordering::SeqCst) && drained {
                    return (shadow, resyncs);
                }
                if offset >= chunk.len {
                    // Caught up: read the log again from the top, as a new
                    // follower would, so reads keep landing in the window.
                    shadow.clear();
                    offset = 0;
                }
            }
        })
    };

    // Hold the swap window open (50ms) while the reader hammers it, then
    // compact in the background-janitor's position.
    disk.arm(Call::Rename, Fault::Delay(Duration::from_millis(50)), 1);
    store.compact().unwrap();
    assert_eq!(disk.hits(Call::Rename), 1);
    assert_eq!(store.wal_epoch(), 1);
    stop.store(true, Ordering::SeqCst);

    let (shadow, resyncs) = reader.join().unwrap();
    assert!(resyncs >= 1, "the epoch bump must force a cursor resync");
    assert_eq!(
        shadow.len(),
        2,
        "shadow replica diverged: {:?}",
        shadow.keys().collect::<Vec<_>>()
    );
    assert_eq!(
        shadow.get(&("b".to_string(), "hot".to_string())).unwrap(),
        b"v299"
    );
    assert_eq!(
        shadow
            .get(&("b".to_string(), "stable".to_string()))
            .unwrap(),
        b"s"
    );
    drop(store);
    std::fs::remove_file(&path).unwrap();
}

/// The delayed rename above keeps the swap alive; a failed one aborts
/// it. An aborted swap must leave the original log intact, the epoch
/// unbumped, and the store fully writable (compaction is best-effort).
#[test]
fn failed_swap_leaves_log_intact() {
    let path = temp_path("swap-abort");
    let disk = FaultyDisk::new();
    let store = Store::open_on(&disk, &path, false).unwrap();
    for i in 0..100 {
        store.put("b", "hot", format!("v{i}").into_bytes()).unwrap();
    }
    let before = store.wal_offset();
    disk.arm(Call::Rename, Fault::Fail, 1);
    let err = store.compact().unwrap_err();
    assert!(FaultyDisk::is_fault(&err), "{err}");
    assert_eq!(store.wal_epoch(), 0);
    assert_eq!(store.wal_offset(), before);
    assert!(!store.is_degraded());
    assert!(
        !path.with_extension("compact").exists(),
        "aborted compaction must clean up its temp file"
    );
    // Still writable, still compactable once the fault clears.
    store.put("b", "post", b"x".to_vec()).unwrap();
    store.compact().unwrap();
    assert_eq!(store.wal_epoch(), 1);
    assert_eq!(store.get("b", "post").unwrap(), b"x");
    assert_eq!(store.get("b", "hot").unwrap(), b"v99");
    drop(store);
    std::fs::remove_file(&path).unwrap();
}

/// `wal_engine.rs`'s floor below which no log is compacted.
const COMPACT_MIN_BYTES: usize = 256 * 1024;

/// A failing automatic compaction backs off: with every swap failing,
/// 2 MiB of overwrites start at most one compaction per
/// `COMPACT_MIN_BYTES` of log growth (plus the first), never one per
/// write; every write still lands, and once the disk renames again the
/// store compacts.
#[test]
fn a_failing_compaction_is_retried_only_after_the_log_grows() {
    let path = temp_path("retry");
    // Synced writes: slow enough that attempts retried back to back, as
    // soon as each fails, would outnumber the bound.
    let disk = FaultyDisk::new();
    let store = Store::open_on(&disk, &path, true).unwrap();
    let value = vec![7u8; 1024];
    let overwrite = |bytes: usize| {
        for _ in 0..bytes / value.len() {
            store.put("b", "hot", value.clone()).unwrap();
        }
    };

    disk.arm(Call::Rename, Fault::Fail, u64::MAX);
    overwrite(2 << 20);
    disk.clear();
    let attempts = disk.hits(Call::Rename);
    let bound = (2usize << 20).div_ceil(COMPACT_MIN_BYTES) as u64 + 1;
    assert!(
        (1..=bound).contains(&attempts),
        "{attempts} compaction attempts over 2 MiB of overwrites (bound {bound})"
    );
    assert!(!store.is_degraded());
    assert_eq!(store.wal_epoch(), 0, "no attempt may have swapped the log");

    // Disarmed, the next compaction the log's growth allows succeeds.
    overwrite(2 * COMPACT_MIN_BYTES);
    let deadline = Instant::now() + Duration::from_secs(10);
    while store.stats().compactions == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        store.stats().compactions >= 1,
        "no compaction after the disk recovered (wal={}, live={})",
        store.wal_offset(),
        store.live_bytes()
    );
    assert_eq!(store.get("b", "hot").unwrap(), value);
    drop(store);
    let store = Store::open(&path).unwrap();
    assert_eq!(store.get("b", "hot").unwrap(), value);
    drop(store);
    std::fs::remove_file(&path).unwrap();
}
