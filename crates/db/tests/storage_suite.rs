//! The persistent store's functional contract: CRUD, restart survival,
//! compaction, concurrent writers, group commit, and recovery from a crash
//! at every byte of the log's tail.

use std::collections::BTreeMap;
use std::path::PathBuf;

use clarens_db::log::{encode_record, frame_prefix};
use clarens_db::{LogOp, Store};

fn temp_path(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("clarens-db-suite-{}-{name}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn crud_round_trip() {
    let path = temp_path("crud");
    let store = Store::open(&path).unwrap();
    store.put("b", "k", b"v1".to_vec()).unwrap();
    store.put("b", "k", b"v2".to_vec()).unwrap();
    assert_eq!(store.get("b", "k").unwrap(), b"v2");
    assert!(store.delete("b", "k").unwrap());
    assert!(!store.contains("b", "k"));
    store.put("acl", "path/a", b"1".to_vec()).unwrap();
    store.put("acl", "path/b", b"2".to_vec()).unwrap();
    assert_eq!(store.scan_prefix("acl", "path/").len(), 2);
    drop(store);
    std::fs::remove_file(&path).unwrap();
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
        let store = Store::open(&path).unwrap();
        assert_eq!(store.get("sessions", "s1"), None);
        assert_eq!(store.get("sessions", "s2").unwrap(), b"bob");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn compaction_preserves_state() {
    let path = temp_path("compact");
    let store = Store::open(&path).unwrap();
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
    let store = Store::open(&path).unwrap();
    assert_eq!(store.get("b", "post").unwrap(), b"x");
    assert_eq!(store.len("b"), 52);
    drop(store);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn concurrent_writers() {
    use std::sync::Arc;
    let path = temp_path("threads");
    let store = Arc::new(Store::open(&path).unwrap());
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
    let store = Store::open(&path).unwrap();
    assert_eq!(store.bucket_names().len(), 4);
    drop(store);
    std::fs::remove_file(&path).unwrap();
}

/// Group commit in durable mode: N concurrent writers must converge on
/// far fewer than N fsyncs (one per batch), and everything acknowledged
/// must actually be on disk after reopen.
#[test]
fn group_commit_batches_fsyncs() {
    use std::sync::Arc;
    let path = temp_path("group");
    let store = Arc::new(Store::open_with_sync(&path, true).unwrap());
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

/// Crash at every byte (ROADMAP aim 3, storage side): whatever a crash
/// leaves of the log's tail — any truncation inside the last three frames,
/// any one damaged byte in the last, each also followed by the zeros of a
/// crash inside an extension step — the store reopens to exactly the
/// state of the whole-frame prefix, repairs the file to that prefix, and
/// appends cleanly on top of it.
#[test]
fn crash_at_every_byte_recovers_the_whole_frame_prefix() {
    let put = |bucket: &str, key: &str, value: &[u8]| LogOp::Put {
        bucket: bucket.into(),
        key: key.into(),
        value: value.to_vec(),
    };
    let delete = |bucket: &str, key: &str| LogOp::Delete {
        bucket: bucket.into(),
        key: key.into(),
    };
    let ops = [
        put("sessions", "s1", b"alice"),
        put("sessions", "s2", b"bob"),
        put("vo", "cms", b"members"),
        LogOp::EpochFence { epoch: 1 },
        delete("sessions", "s1"),
        put("acl", "file.read", b"allow"),
        put("sessions", "s2", b"bob-renewed"),
        delete("vo", "absent"),
        put("sessions", "s3", b""),
        delete("acl", "file.read"),
        LogOp::EpochFence { epoch: 2 },
        put("sessions", "s4", b"dave"),
    ];
    let log: Vec<u8> = ops.iter().flat_map(encode_record).collect();
    // ends[n] = byte length of the first n frames.
    let ends: Vec<usize> = std::iter::once(0)
        .chain(ops.iter().scan(0, |end, op| {
            *end += encode_record(op).len();
            Some(*end)
        }))
        .collect();
    type State = (BTreeMap<(String, String), Vec<u8>>, u64);
    let model = |frames: usize| -> State {
        let mut state = State::default();
        for op in &ops[..frames] {
            match op.clone() {
                LogOp::Put { bucket, key, value } => {
                    state.0.insert((bucket, key), value);
                }
                LogOp::Delete { bucket, key } => {
                    state.0.remove(&(bucket, key));
                }
                LogOp::EpochFence { epoch } => state.1 = state.1.max(epoch),
            }
        }
        state
    };
    let observed = |store: &Store| -> State {
        let mut state = State::default();
        for bucket in store.bucket_names() {
            for (key, value) in store.scan_prefix(&bucket, "") {
                state.0.insert((bucket.clone(), key), value);
            }
        }
        state.1 = store.fence_epoch();
        state
    };
    let path = temp_path("crash-every-byte");
    let post = encode_record(&put("post", "crash", b"ok")).len();
    let check = |bytes: &[u8], frames: usize| {
        assert_eq!(frame_prefix(bytes), ends[frames]);
        for zeros in [0, 8, 4096] {
            let image = [bytes, &vec![0; zeros]].concat();
            let at = format!("{} bytes + {zeros} zeros", bytes.len());
            std::fs::write(&path, &image).unwrap();
            let store = Store::open(&path).unwrap();
            assert_eq!(observed(&store), model(frames), "{at}");
            let len = || std::fs::metadata(&path).unwrap().len() as usize;
            assert_eq!(len(), ends[frames], "{at}");
            store.put("post", "crash", b"ok".to_vec()).unwrap();
            drop(store);
            assert_eq!(len(), ends[frames] + post, "{at}: closed log is its frames");
            let store = Store::open(&path).unwrap();
            let mut expected = model(frames);
            expected
                .0
                .insert(("post".into(), "crash".into()), b"ok".to_vec());
            assert_eq!(observed(&store), expected, "{at}");
        }
    };
    let n = ops.len();
    for cut in ends[n - 3]..=log.len() {
        check(
            &log[..cut],
            ends.iter().rposition(|&end| end <= cut).unwrap(),
        );
    }
    for at in ends[n - 1]..log.len() {
        for mask in [0x01, 0x80, 0xff] {
            let mut damaged = log.clone();
            damaged[at] ^= mask;
            check(&damaged, n - 1);
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// Synced appends write into space the file already has: 2 000 puts of
/// ~600 bytes (≈ 1.3 MB of log) extend the file at most twice, each put
/// still pays exactly one fsync, and a closed log is exactly its frames.
#[test]
fn synced_appends_extend_the_file_in_steps() {
    let path = temp_path("extend");
    let store = Store::open_with_sync(&path, true).unwrap();
    let value = vec![7u8; 600];
    for i in 0..2_000 {
        store.put("b", &format!("k{i:04}"), value.clone()).unwrap();
    }
    let counters = store.storage_counters();
    assert!(counters.extends <= 2, "{counters:?}");
    assert_eq!(counters.fsyncs, 2_000, "{counters:?}");
    let offset = store.wal_offset();
    assert!(std::fs::metadata(&path).unwrap().len() > offset);
    drop(store);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), offset);
    let store = Store::open(&path).unwrap();
    assert_eq!(store.len("b"), 2_000);
    drop(store);
    std::fs::remove_file(&path).unwrap();
}

/// One writer per log: positional appends and the close-time truncation
/// would destroy a second engine's frames, so a second open of a held WAL
/// fails at once and succeeds once the first store is gone.
#[test]
fn a_held_wal_refuses_a_second_store() {
    let path = temp_path("one-writer");
    let store = Store::open(&path).unwrap();
    store.put("b", "k", b"v".to_vec()).unwrap();
    assert!(Store::open(&path).is_err());
    assert!(Store::open_with_sync(&path, true).is_err());
    // The refused opens touched nothing.
    store.put("b", "k2", b"v2".to_vec()).unwrap();
    drop(store);
    let store = Store::open(&path).unwrap();
    assert_eq!(store.get("b", "k").unwrap(), b"v");
    assert_eq!(store.get("b", "k2").unwrap(), b"v2");
    // The lock follows the log through a compaction swap.
    store.compact().unwrap();
    assert!(Store::open(&path).is_err());
    drop(store);
    std::fs::remove_file(&path).unwrap();
}

/// A compaction's rename is durable only once the log's directory is
/// synced: one compaction costs three syncs (the snapshot before and
/// after its final tail, then the directory).
#[test]
fn a_compaction_syncs_its_snapshot_and_the_directory() {
    let path = temp_path("dir-sync");
    let store = Store::open(&path).unwrap();
    for i in 0..50 {
        store.put("b", "hot", format!("v{i}").into_bytes()).unwrap();
    }
    assert_eq!(store.stats().syncs, 0);
    store.compact().unwrap();
    assert_eq!(store.stats().syncs, 3);
    assert_eq!(store.stats().compactions, 1);
    drop(store);
    std::fs::remove_file(&path).unwrap();
}
