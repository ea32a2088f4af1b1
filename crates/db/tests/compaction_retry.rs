//! A failing automatic compaction backs off: with `db.compact.swap` armed
//! to fail, 2 MiB of overwrites start at most one compaction per
//! `COMPACT_MIN_BYTES` of log growth (plus the first), never one per
//! write; every write still lands, and once the failpoint is disarmed the
//! store compacts.
//!
//! This file is its own test binary: the failpoint is armed process-wide
//! (the compaction runs on a thread of its own) for the whole 2 MiB, and
//! the swap tests of `storage_faults.rs` arm and clear the same site.

use std::time::{Duration, Instant};

use clarens_db::Store;
use clarens_faults::sites::DB_COMPACT_SWAP;

/// `wal_engine.rs`'s floor below which no log is compacted.
const COMPACT_MIN_BYTES: usize = 256 * 1024;

#[test]
fn a_failing_compaction_is_retried_only_after_the_log_grows() {
    let path = std::env::temp_dir().join(format!("clarens-db-retry-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // Synced writes: slow enough that attempts retried back to back, as
    // soon as each fails, would outnumber the bound.
    let store = Store::open_with_sync(&path, true).unwrap();
    let value = vec![7u8; 1024];
    let overwrite = |bytes: usize| {
        for _ in 0..bytes / value.len() {
            store.put("b", "hot", value.clone()).unwrap();
        }
    };

    let guard = clarens_faults::with(DB_COMPACT_SWAP, "err");
    overwrite(2 << 20);
    let attempts = clarens_faults::hits(DB_COMPACT_SWAP);
    drop(guard);
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
        "no compaction after the failpoint cleared (wal={}, live={})",
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
