//! The store's functional contract, exercised identically through every
//! storage backend behind the [`clarens_db::StorageEngine`] trait, plus
//! the cross-backend compatibility guarantee (both engines persist the
//! same CRC-framed record format, so a database can be reopened under
//! either).

use std::path::PathBuf;

use clarens_db::{StorageBackend, StorageOptions, Store};

fn temp_path(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("clarens-db-suite-{}-{name}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn options(backend: StorageBackend) -> StorageOptions {
    StorageOptions {
        backend,
        ..StorageOptions::default()
    }
}

const BACKENDS: [StorageBackend; 2] = [StorageBackend::Wal, StorageBackend::Mmap];

fn backend_name(backend: StorageBackend) -> &'static str {
    match backend {
        StorageBackend::Wal => "wal",
        StorageBackend::Mmap => "mmap",
    }
}

#[test]
fn crud_round_trip_every_backend() {
    for backend in BACKENDS {
        let path = temp_path(&format!("crud-{}", backend_name(backend)));
        let store = Store::open_with(&path, options(backend)).unwrap();
        assert_eq!(store.backend(), backend_name(backend));
        store.put("b", "k", b"v1".to_vec()).unwrap();
        store.put("b", "k", b"v2".to_vec()).unwrap();
        assert_eq!(store.get("b", "k").unwrap(), b"v2");
        assert!(store.delete("b", "k").unwrap());
        assert!(!store.contains("b", "k"));
        store.put("acl", "path/a", b"1".to_vec()).unwrap();
        store.put("acl", "path/b", b"2".to_vec()).unwrap();
        assert_eq!(store.scan_prefix("acl", "path/").len(), 2);
        drop(store);
        // The mmap backend writes no file until its first checkpoint.
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn persistence_across_reopen_every_backend() {
    for backend in BACKENDS {
        let path = temp_path(&format!("reopen-{}", backend_name(backend)));
        {
            let store = Store::open_with(&path, options(backend)).unwrap();
            store.put("sessions", "s1", b"alice".to_vec()).unwrap();
            store.put("sessions", "s2", b"bob".to_vec()).unwrap();
            store.delete("sessions", "s1").unwrap();
            // For the WAL engine sync() fsyncs the log; for the mmap
            // engine it cuts a checkpoint — either way state must
            // survive the process.
            store.sync().unwrap();
        }
        {
            let store = Store::open_with(&path, options(backend)).unwrap();
            assert_eq!(store.get("sessions", "s1"), None);
            assert_eq!(store.get("sessions", "s2").unwrap(), b"bob");
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn compaction_preserves_state_every_backend() {
    for backend in BACKENDS {
        let path = temp_path(&format!("compact-{}", backend_name(backend)));
        let store = Store::open_with(&path, options(backend)).unwrap();
        for i in 0..50 {
            store.put("b", "hot", format!("v{i}").into_bytes()).unwrap();
            store.put("b", &format!("cold-{i}"), vec![i as u8]).unwrap();
        }
        let epoch_before = store.wal_epoch();
        store.compact().unwrap();
        assert_eq!(store.wal_epoch(), epoch_before + 1);
        assert_eq!(store.stats().compactions, 1);
        assert_eq!(store.get("b", "hot").unwrap(), b"v49");
        assert_eq!(store.len("b"), 51);
        // Appends keep landing after the rewrite.
        store.put("b", "post", b"x".to_vec()).unwrap();
        store.sync().unwrap();
        drop(store);
        let store = Store::open_with(&path, options(backend)).unwrap();
        assert_eq!(store.get("b", "post").unwrap(), b"x");
        assert_eq!(store.len("b"), 52);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn concurrent_writers_every_backend() {
    use std::sync::Arc;
    for backend in BACKENDS {
        let path = temp_path(&format!("threads-{}", backend_name(backend)));
        let store = Arc::new(Store::open_with(&path, options(backend)).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    store
                        .put(&format!("bucket-{t}"), &format!("k{i}"), vec![t as u8])
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4 {
            assert_eq!(store.len(&format!("bucket-{t}")), 100);
        }
        store.sync().unwrap();
        drop(store);
        let store = Store::open_with(&path, options(backend)).unwrap();
        assert_eq!(store.bucket_names().len(), 4);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }
}

/// The snapshot format is a compacted WAL, so a database written by one
/// backend opens under the other — in both directions.
#[test]
fn backend_switch_round_trip() {
    let path = temp_path("switch");
    {
        let store = Store::open_with(&path, options(StorageBackend::Wal)).unwrap();
        for i in 0..20 {
            store.put("b", &format!("k{i}"), vec![i as u8]).unwrap();
        }
        store.delete("b", "k0").unwrap();
        store.sync().unwrap();
    }
    {
        // wal → mmap: the mmap engine tolerates the un-compacted log's
        // superseded records (it replays frames in order).
        let store = Store::open_with(&path, options(StorageBackend::Mmap)).unwrap();
        assert_eq!(store.get("b", "k0"), None);
        assert_eq!(store.get("b", "k19").unwrap(), vec![19u8]);
        assert_eq!(store.len("b"), 19);
        store.put("b", "from-mmap", b"x".to_vec()).unwrap();
        store.sync().unwrap(); // checkpoint: rewrites as a pure snapshot
    }
    {
        // mmap → wal: the checkpoint is a valid (compacted) WAL.
        let store = Store::open_with(&path, options(StorageBackend::Wal)).unwrap();
        assert_eq!(store.get("b", "from-mmap").unwrap(), b"x");
        assert_eq!(store.len("b"), 20);
        store.put("b", "from-wal", b"y".to_vec()).unwrap();
        store.sync().unwrap();
    }
    {
        let store = Store::open_with(&path, options(StorageBackend::Mmap)).unwrap();
        assert_eq!(store.get("b", "from-wal").unwrap(), b"y");
    }
    std::fs::remove_file(&path).unwrap();
}

/// Durability contracts that differ by design: the mmap engine refuses to
/// ship a replication log, the WAL engine serves one.
#[test]
fn log_shipping_is_wal_only() {
    let wal_path = temp_path("ship-wal");
    let mmap_path = temp_path("ship-mmap");
    let wal = Store::open_with(&wal_path, options(StorageBackend::Wal)).unwrap();
    let mmap = Store::open_with(&mmap_path, options(StorageBackend::Mmap)).unwrap();
    wal.put("b", "k", b"v".to_vec()).unwrap();
    mmap.put("b", "k", b"v".to_vec()).unwrap();
    assert!(!wal.wal_read(0, 0, 1 << 20).unwrap().data.is_empty());
    let err = mmap.wal_read(0, 0, 1 << 20).unwrap_err();
    assert!(err.to_string().contains("does not ship"), "{err}");
    drop(wal);
    drop(mmap);
    std::fs::remove_file(&wal_path).unwrap();
    // The mmap store never checkpointed, so it has no file on disk.
    let _ = std::fs::remove_file(&mmap_path);
}

/// Group commit in durable mode: N concurrent writers must converge on
/// far fewer than N fsyncs (one per batch), and everything acknowledged
/// must actually be on disk after reopen.
#[test]
fn group_commit_batches_fsyncs() {
    use std::sync::Arc;
    let path = temp_path("group");
    let store = Arc::new(
        Store::open_with(
            &path,
            StorageOptions {
                sync: true,
                ..StorageOptions::default()
            },
        )
        .unwrap(),
    );
    let writers = 8;
    let per_writer = 25;
    let mut handles = Vec::new();
    for t in 0..writers {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            for i in 0..per_writer {
                store
                    .put("b", &format!("t{t}-k{i}"), b"v".to_vec())
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = store.stats();
    let total = (writers * per_writer) as u64;
    assert!(stats.syncs >= 1);
    assert!(
        stats.syncs < total,
        "group commit issued {} fsyncs for {} appends (no batching?)",
        stats.syncs,
        total
    );
    assert!(stats.group_commits >= 1);
    drop(store);
    let store = Store::open(&path).unwrap();
    assert_eq!(store.len("b"), (writers * per_writer) as usize);
    drop(store);
    std::fs::remove_file(&path).unwrap();
}
