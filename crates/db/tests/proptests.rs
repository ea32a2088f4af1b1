//! Property tests for the store: an arbitrary op sequence applied to a
//! persistent store and replayed through WAL recovery must equal the same
//! sequence applied to a plain in-memory model.

use proptest::prelude::*;

use clarens_db::log::{decode_op, encode_op, LogOp};
use clarens_db::Store;

#[derive(Debug, Clone)]
enum Op {
    Put(String, String, Vec<u8>),
    Delete(String, String),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let bucket = prop_oneof![Just("a".to_string()), Just("b".to_string())];
    let key = "[a-z]{1,4}";
    prop_oneof![
        (
            bucket.clone(),
            key,
            proptest::collection::vec(any::<u8>(), 0..16)
        )
            .prop_map(|(b, k, v)| Op::Put(b, k, v)),
        (bucket, "[a-z]{1,4}").prop_map(|(b, k)| Op::Delete(b, k)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wal_replay_equals_model(ops in proptest::collection::vec(op_strategy(), 0..40)) {
        // Distinct per case to avoid collisions across parallel runs.
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "clarens-db-prop-{}-{case}.wal",
            std::process::id(),
        ));
        let _ = std::fs::remove_file(&path);

        let mut model: std::collections::BTreeMap<(String, String), Vec<u8>> =
            Default::default();
        {
            let store = Store::open(&path).unwrap();
            for op in &ops {
                match op {
                    Op::Put(b, k, v) => {
                        store.put(b, k, v.clone()).unwrap();
                        model.insert((b.clone(), k.clone()), v.clone());
                    }
                    Op::Delete(b, k) => {
                        store.delete(b, k).unwrap();
                        model.remove(&(b.clone(), k.clone()));
                    }
                }
            }
            store.sync().unwrap();
        }
        // Reopen: recovered state must equal the model.
        let store = Store::open(&path).unwrap();
        for ((b, k), v) in &model {
            let got = store.get(b, k);
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        for bucket in ["a", "b"] {
            let live: usize =
                model.keys().filter(|(b, _)| b == bucket).count();
            prop_assert_eq!(store.len(bucket), live);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn logop_roundtrip(
        bucket in "[a-z]{1,8}",
        key in "[a-z0-9./]{0,16}",
        value in proptest::collection::vec(any::<u8>(), 0..64),
        is_put in any::<bool>(),
    ) {
        let op = if is_put {
            LogOp::Put { bucket, key, value }
        } else {
            LogOp::Delete { bucket, key }
        };
        prop_assert_eq!(decode_op(&encode_op(&op)).unwrap(), op);
    }

    #[test]
    fn decoder_never_panics(payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_op(&payload);
    }

    /// The store orders keys by an 8-byte head before the text, so the
    /// keys here share heads ("abcdefgh…", "/O=grid/…"), run past 8 bytes,
    /// are prefixes of one another, and hold `\0` and multi-byte chars; the
    /// model is the `BTreeSet<String>` they were drawn into.
    #[test]
    fn scan_prefix_equals_filter(
        keys in proptest::collection::btree_set(
            "(abcdefgh|abcdefg|/O=grid/|é)?[ab\u{0}é.]{0,10}",
            0..24,
        ),
        prefix in "(abcdefgh|/O=grid/|abc|é)?[ab\u{0}é.]{0,3}",
    ) {
        let store = Store::in_memory();
        for k in keys.iter().rev() {
            store.put("b", k, k.as_bytes().to_vec()).unwrap();
        }
        let scanned: Vec<String> =
            store.scan_prefix("b", &prefix).into_iter().map(|(k, _)| k).collect();
        let expected: Vec<String> =
            keys.iter().filter(|k| k.starts_with(&prefix)).cloned().collect();
        prop_assert_eq!(store.count_prefix("b", &prefix), expected.len());
        prop_assert_eq!(scanned, expected);
        prop_assert_eq!(store.keys("b"), keys.iter().cloned().collect::<Vec<_>>());
        for k in &keys {
            prop_assert_eq!(store.get("b", k), Some(k.as_bytes().to_vec()));
        }
        prop_assert_eq!(
            store.get("b", &prefix),
            keys.contains(&prefix).then(|| prefix.as_bytes().to_vec())
        );
    }
}
