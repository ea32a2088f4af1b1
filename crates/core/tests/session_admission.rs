//! Session admission keeps its contracts: the stored record is the bytes
//! the `Value`-tree writer used to produce, ids keep their shape and never
//! repeat, and a caching manager answers exactly like an uncached one.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use clarens::session::{Session, SessionManager, SESSIONS_BUCKET};
use clarens_db::Store;
use clarens_pki::dn::{Attribute, AttributeType, DistinguishedName};
use clarens_wire::{json, Value};

/// The record as every writer outside `SessionManager` builds it (a
/// follower's replicator ships the leader's bytes; `cache_invalidation.rs`
/// and the parent commit went through this `Value` tree).
fn reference_record(dn: &str, created: i64, expires: i64, proxy: Option<&str>) -> Vec<u8> {
    json::to_string(&Value::structure([
        ("dn", Value::from(dn)),
        ("created", Value::Int(created)),
        ("expires", Value::Int(expires)),
        ("proxy", proxy.map(Value::from).unwrap_or(Value::Nil)),
    ]))
    .into_bytes()
}

/// Strings that exercise every branch of the JSON string writer: quotes,
/// backslashes, control characters, DEL, multi-byte and astral characters,
/// and the empty string.
fn awkward_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('\u{0}', '\u{7f}'),
            proptest::char::range('\u{80}', '\u{2fff}'),
            proptest::char::range('\u{10000}', '\u{10fff}'),
            Just('"'),
            Just('\\'),
            Just('/'),
        ],
        0..24,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn dn_of(values: Vec<String>) -> DistinguishedName {
    DistinguishedName {
        attributes: values
            .into_iter()
            .map(|value| Attribute {
                kind: AttributeType::CommonName,
                value,
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// What `create` and `attach_proxy` store is byte for byte the
    /// reference record of the session they return, and loads back.
    #[test]
    fn stored_record_is_the_reference_bytes(
        values in proptest::collection::vec(awkward_string(), 0..4),
        proxy in awkward_string(),
        now in -4_000_000_000i64..4_000_000_000i64,
        ttl in 1i64..100_000,
    ) {
        let store = Arc::new(Store::in_memory());
        let mgr = SessionManager::new(Arc::clone(&store), ttl);
        let dn = dn_of(values);

        let created = mgr.create(&dn, now);
        prop_assert_eq!(&created.dn, &dn.to_string());
        prop_assert_eq!(
            store.get(SESSIONS_BUCKET, &created.id).unwrap(),
            reference_record(&created.dn, now, now + ttl, None)
        );

        let attached = mgr.attach_proxy(&created.id, &proxy, now).unwrap();
        prop_assert_eq!(
            store.get(SESSIONS_BUCKET, &created.id).unwrap(),
            reference_record(&created.dn, now, now + ttl, Some(&proxy))
        );

        // A second manager has an empty cache: this is the store read path.
        let reader = SessionManager::new(store, ttl);
        prop_assert_eq!(reader.validate(&created.id, now), Some(attached));
    }
}

#[test]
fn a_record_written_by_the_parent_commit_loads() {
    let store = Arc::new(Store::in_memory());
    let id = "5f".repeat(32);
    let literal = r#"{"created":1790000000,"dn":"/O=grid/OU=People/CN=J\"ane\\ D\u0007oe é","expires":1790003600,"proxy":null}"#;
    assert_eq!(
        literal.as_bytes(),
        reference_record(
            "/O=grid/OU=People/CN=J\"ane\\ D\u{7}oe \u{e9}",
            1_790_000_000,
            1_790_003_600,
            None
        )
    );
    store.put(SESSIONS_BUCKET, &id, literal).unwrap();
    let with_proxy = "a0".repeat(32);
    let literal = r#"{"created":-5,"dn":"","expires":9,"proxy":"-----BEGIN\nX\t"}"#;
    store.put(SESSIONS_BUCKET, &with_proxy, literal).unwrap();

    let mgr = SessionManager::new(store, 3600);
    assert_eq!(
        mgr.validate(&id, 1_790_000_001),
        Some(Session {
            id: id.clone(),
            dn: "/O=grid/OU=People/CN=J\"ane\\ D\u{7}oe \u{e9}".into(),
            created: 1_790_000_000,
            expires: 1_790_003_600,
            proxy: None,
        })
    );
    assert_eq!(
        mgr.validate(&with_proxy, 0),
        Some(Session {
            id: with_proxy.clone(),
            dn: String::new(),
            created: -5,
            expires: 9,
            proxy: Some("-----BEGIN\nX\t".into()),
        })
    );
}

fn is_session_id(id: &str) -> bool {
    id.len() == 64 && id.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

#[test]
fn ids_are_64_lowercase_hex_and_never_repeat() {
    let dn = DistinguishedName::parse("/O=org/CN=minter").unwrap();
    let mint = move |n: usize| {
        let mgr = SessionManager::with_caching(Arc::new(Store::in_memory()), 60, false);
        (0..n).map(|_| mgr.create(&dn, 0).id).collect::<Vec<_>>()
    };
    let other_thread = std::thread::spawn({
        let mint = mint.clone();
        move || mint(20_000)
    });
    let here = mint(100_000);
    let there = other_thread.join().expect("minting thread");

    assert!(here.iter().chain(&there).all(|id| is_session_id(id)));
    let mut seen: HashSet<&str> = here.iter().map(String::as_str).collect();
    assert_eq!(seen.len(), here.len(), "an id repeated within one stream");
    for id in &there {
        assert!(seen.insert(id), "two threads minted the same id");
    }
    // Half the nibbles of a keystream are >= 8; a stuck or zeroed
    // generator is nowhere near that.
    let high = here
        .iter()
        .flat_map(|id| id.bytes())
        .filter(|b| matches!(b, b'8' | b'9' | b'a'..=b'f'))
        .count() as f64;
    let share = high / (here.len() * 64) as f64;
    assert!((0.49..0.51).contains(&share), "high-nibble share {share}");
}

/// One logical session: the same history applied to both managers, under
/// the id each of them minted for it.
struct Twin {
    cached: String,
    plain: String,
}

/// Two sessions agree when everything but the (independently minted) id
/// does.
fn same_session(a: &Session, b: &Session) -> bool {
    (&a.dn, a.created, a.expires, &a.proxy) == (&b.dn, b.created, b.expires, &b.proxy)
}

fn same_answer(a: Option<&Session>, b: Option<&Session>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => same_session(a, b),
        (None, None) => true,
        _ => false,
    }
}

struct Model {
    rng: StdRng,
    cached_store: Arc<Store>,
    plain_store: Arc<Store>,
    cached: SessionManager,
    plain: SessionManager,
    dns: Vec<DistinguishedName>,
    twins: Vec<Twin>,
    now: i64,
    steps: usize,
}

const TTL: i64 = 1000;

impl Model {
    fn new(seed: u64) -> Model {
        let cached_store = Arc::new(Store::in_memory());
        let plain_store = Arc::new(Store::in_memory());
        Model {
            rng: StdRng::seed_from_u64(seed),
            cached: SessionManager::new(Arc::clone(&cached_store), TTL),
            plain: SessionManager::with_caching(Arc::clone(&plain_store), TTL, false),
            cached_store,
            plain_store,
            dns: (0..7)
                .map(|i| DistinguishedName::parse(&format!("/O=grid/OU=site{}/CN=u{i}", i % 3)))
                .collect::<Result<_, _>>()
                .unwrap(),
            twins: Vec::new(),
            now: 10_000,
            steps: 0,
        }
    }

    fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    fn create(&mut self) {
        let which = self.below(self.dns.len());
        let dn = self.dns[which].clone();
        let a = self.cached.create(&dn, self.now);
        let b = self.plain.create(&dn, self.now);
        assert!(same_session(&a, &b), "step {}: create", self.steps);
        self.twins.push(Twin {
            cached: a.id,
            plain: b.id,
        });
    }

    fn resolve(&self, pick: usize) {
        let step = self.steps;
        let a = self.cached.resolve(&self.twins[pick].cached, self.now);
        let b = self.plain.resolve(&self.twins[pick].plain, self.now);
        assert!(
            same_answer(
                a.as_ref().map(|r| &*r.session),
                b.as_ref().map(|r| &*r.session)
            ),
            "step {step}: resolve {a:?} vs {b:?}"
        );
        assert_eq!(
            a.and_then(|r| r.identity),
            b.and_then(|r| r.identity),
            "step {step}: resolved identity"
        );
    }

    /// One random operation on one random logical session (live or not).
    fn step(&mut self) {
        self.steps += 1;
        let step = self.steps;
        if self.twins.is_empty() {
            return self.create();
        }
        // Bias towards recent sessions so cache hits happen at all.
        let pick = if self.below(2) == 0 {
            self.twins.len() - 1 - self.below(self.twins.len().min(8))
        } else {
            self.below(self.twins.len())
        };
        let (cached_id, plain_id) = {
            let twin = &self.twins[pick];
            (twin.cached.clone(), twin.plain.clone())
        };
        let now = self.now;
        match self.below(100) {
            0..=14 => self.create(),
            15..=49 => self.resolve(pick),
            50..=59 => {
                let a = self.cached.validate(&cached_id, now);
                let b = self.plain.validate(&plain_id, now);
                assert!(
                    same_answer(a.as_ref(), b.as_ref()),
                    "step {step}: validate {a:?} vs {b:?}"
                );
            }
            60..=67 => {
                let proxy = format!("proxy-{step}");
                let a = self.cached.attach_proxy(&cached_id, &proxy, now);
                let b = self.plain.attach_proxy(&plain_id, &proxy, now);
                assert!(
                    same_answer(a.as_ref(), b.as_ref()),
                    "step {step}: attach_proxy {a:?} vs {b:?}"
                );
            }
            68..=73 => {
                let a = self.cached.logout(&cached_id);
                let b = self.plain.logout(&plain_id);
                assert_eq!(a, b, "step {step}: logout");
            }
            74..=79 => {
                // The replication path: another node's write lands in the
                // bucket behind the manager's back, re-binding the id.
                let which = self.below(self.dns.len());
                let dn = self.dns[which].to_string();
                let expires = now + self.below(2 * TTL as usize) as i64 - TTL / 2;
                let record = reference_record(&dn, now, expires, None);
                self.cached_store
                    .put(SESSIONS_BUCKET, &cached_id, record.clone())
                    .unwrap();
                self.plain_store
                    .put(SESSIONS_BUCKET, &plain_id, record)
                    .unwrap();
            }
            80..=83 => {
                let a = self
                    .cached_store
                    .delete(SESSIONS_BUCKET, &cached_id)
                    .unwrap();
                let b = self.plain_store.delete(SESSIONS_BUCKET, &plain_id).unwrap();
                assert_eq!(a, b, "step {step}: replicated delete");
            }
            84..=85 => {
                assert_eq!(
                    self.cached.resolve("no-such-session", now).map(|_| ()),
                    None
                );
                assert_eq!(self.plain.resolve("no-such-session", now).map(|_| ()), None);
            }
            86..=97 => self.now += self.below(TTL as usize / 4) as i64,
            _ => self.now += TTL + 1,
        }
        assert_eq!(
            self.cached.count(),
            self.plain.count(),
            "step {step}: count"
        );
    }

    fn sweep(&mut self) {
        let a = self.cached.sweep(self.now);
        let b = self.plain.sweep(self.now);
        assert_eq!(a, b, "step {}: sweep", self.steps);
        assert_eq!(self.cached.count(), self.plain.count());
    }
}

#[test]
fn cached_manager_answers_exactly_like_the_uncached_one() {
    for seed in [1, 2, 3] {
        let mut model = Model::new(seed);
        for _ in 0..4000 {
            model.step();
            if model.steps.is_multiple_of(500) {
                model.sweep();
            }
        }
        // One more resolved session than the cache has slots: by pigeonhole
        // at least one of its 16 shards is offered more than its 4096
        // entries, so a resolve meets a full shard and has to evict.
        for _ in 0..16 * 4096 + 1 {
            model.create();
            model.resolve(model.twins.len() - 1);
        }
        assert_eq!(model.cached.count(), model.plain.count());
        for _ in 0..4000 {
            model.step();
        }
        model.sweep();
        // Past every expiry both refuse everything, cached entry or not,
        // and one sweep empties both stores.
        model.now += 3 * TTL;
        for _ in 0..200 {
            let pick = model.below(model.twins.len());
            model.resolve(pick);
        }
        model.sweep();
        assert_eq!(model.cached.count(), 0);
        assert!(model.cached.cache_stats().hits > 0);
    }
}
