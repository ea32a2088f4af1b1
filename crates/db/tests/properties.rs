//! Property tests for the store: an arbitrary op sequence applied to a
//! persistent store and replayed through WAL recovery must equal the same
//! sequence applied to a plain in-memory model. Each property is a search
//! on the shared runner: seed `n` is its case `n`, replayed alone by
//! `SEARCH_SEED=<n>`.

use clarens_search::{search, Rng};

use clarens_db::log::{decode_op, encode_op, LogOp};
use clarens_db::Store;

/// Check property `test` of this file on seeds `0..48`.
fn property(test: &str, check: impl Fn(&mut Rng) + Sync) {
    let name = format!("clarens-db --test properties -- --exact {test}");
    search(&name, 0..48, |seed| {
        check(&mut Rng::new(seed));
        Ok(())
    });
}

#[derive(Debug, Clone)]
enum Op {
    Put(String, String, Vec<u8>),
    Delete(String, String),
}

/// A put of up to 15 bytes or a delete, in bucket `a` or `b`, of a key of
/// one to four lower-case letters.
fn op(rng: &mut Rng) -> Op {
    let put = rng.chance(50);
    let bucket = rng.choose(&["a", "b"]).to_string();
    let key = rng.string(&['a'..='z'], 1..5);
    if put {
        Op::Put(bucket, key, rng.bytes(0..16))
    } else {
        Op::Delete(bucket, key)
    }
}

/// `head?` then up to `max` chars of `[ab\0é.]`: keys that share heads,
/// run past 8 bytes, are prefixes of one another, and hold `\0` and
/// multi-byte chars.
fn key(rng: &mut Rng, heads: &[&str], max: usize) -> String {
    let head = if rng.chance(50) {
        *rng.choose(heads)
    } else {
        ""
    };
    let tail = ['a'..='b', '\u{0}'..='\u{0}', 'é'..='é', '.'..='.'];
    head.to_owned() + &rng.string(&tail, 0..max + 1)
}

#[test]
fn wal_replay_equals_model() {
    property("wal_replay_equals_model", |rng| {
        let ops: Vec<Op> = (0..rng.below(40)).map(|_| op(rng)).collect();
        // Distinct per case to avoid collisions across parallel runs.
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir()
            .join(format!("clarens-db-prop-{}-{case}.wal", std::process::id(),));
        let _ = std::fs::remove_file(&path);

        let mut model: std::collections::BTreeMap<(String, String), Vec<u8>> = Default::default();
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
            assert_eq!(got.as_ref(), Some(v));
        }
        for bucket in ["a", "b"] {
            let live: usize = model.keys().filter(|(b, _)| b == bucket).count();
            assert_eq!(store.len(bucket), live);
        }
        std::fs::remove_file(&path).ok();
    });
}

#[test]
fn logop_roundtrip() {
    property("logop_roundtrip", |rng| {
        let bucket = rng.string(&['a'..='z'], 1..9);
        let key = rng.string(&['a'..='z', '0'..='9', '.'..='.', '/'..='/'], 0..17);
        let (value, is_put) = (rng.bytes(0..64), rng.chance(50));
        let op = if is_put {
            LogOp::Put { bucket, key, value }
        } else {
            LogOp::Delete { bucket, key }
        };
        assert_eq!(decode_op(&encode_op(&op)).unwrap(), op);
    });
}

#[test]
fn decoder_never_panics() {
    property("decoder_never_panics", |rng| {
        let _ = decode_op(&rng.bytes(0..64));
    });
}

/// The store orders keys by an 8-byte head before the text, so the
/// keys here share heads ("abcdefgh…", "/O=grid/…"), run past 8 bytes,
/// are prefixes of one another, and hold `\0` and multi-byte chars; the
/// model is the `BTreeSet<String>` they were drawn into.
#[test]
fn scan_prefix_equals_filter() {
    property("scan_prefix_equals_filter", |rng| {
        let heads = ["abcdefgh", "abcdefg", "/O=grid/", "é"];
        let keys: std::collections::BTreeSet<String> =
            (0..rng.below(24)).map(|_| key(rng, &heads, 10)).collect();
        let prefix = key(rng, &["abcdefgh", "/O=grid/", "abc", "é"], 3);
        let store = Store::in_memory();
        for k in keys.iter().rev() {
            store.put("b", k, k.as_bytes().to_vec()).unwrap();
        }
        let scanned: Vec<String> = store
            .scan_prefix("b", &prefix)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let expected: Vec<String> = keys
            .iter()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        assert_eq!(store.count_prefix("b", &prefix), expected.len());
        assert_eq!(scanned, expected);
        assert_eq!(store.keys("b"), keys.iter().cloned().collect::<Vec<_>>());
        for k in &keys {
            assert_eq!(store.get("b", k), Some(k.as_bytes().to_vec()));
        }
        assert_eq!(
            store.get("b", &prefix),
            keys.contains(&prefix).then(|| prefix.as_bytes().to_vec())
        );
    });
}
