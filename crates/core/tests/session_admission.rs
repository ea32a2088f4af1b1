//! Session admission keeps its contracts: the stored record is the bytes
//! the `Value`-tree writer used to produce, ids keep their shape and never
//! repeat, and the manager, cache and all, answers exactly as the naive
//! session model of `authz_oracle/model.rs` does.

#[path = "authz_oracle/model.rs"]
#[allow(dead_code)]
mod model;

use std::collections::HashSet;
use std::sync::Arc;

use clarens::session::{Session, SessionManager, SESSIONS_BUCKET};
use clarens_db::Store;
use clarens_pki::dn::{Attribute, AttributeType, DistinguishedName};
use clarens_search::Rng;
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
/// and the empty string. Each char is from one of six blocks, drawn evenly.
fn awkward_string(rng: &mut Rng) -> String {
    let blocks = [
        '\u{0}'..='\u{7f}',
        '\u{80}'..='\u{2fff}',
        '\u{10000}'..='\u{10fff}',
        '"'..='"',
        '\\'..='\\',
        '/'..='/',
    ];
    (0..rng.below(24))
        .map(|_| {
            let block = rng.choose(&blocks).clone();
            rng.char(&[block])
        })
        .collect()
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

/// What `create` and `attach_proxy` store is byte for byte the
/// reference record of the session they return, and loads back.
#[test]
fn stored_record_is_the_reference_bytes() {
    let name = "clarens --test session_admission -- --exact stored_record_is_the_reference_bytes";
    clarens_search::search(name, 0..256, |seed| {
        let rng = &mut Rng::new(seed);
        let values = (0..rng.below(4)).map(|_| awkward_string(rng)).collect();
        let proxy = awkward_string(rng);
        let now = rng.below(8_000_000_000) as i64 - 4_000_000_000;
        let ttl = rng.pick(1, 99_999) as i64;
        let store = Arc::new(Store::in_memory());
        let mgr = SessionManager::new(Arc::clone(&store), ttl);
        let dn = dn_of(values);

        let created = mgr.create(&dn, now);
        assert_eq!(&created.dn, &dn.to_string());
        assert_eq!(
            store.get(SESSIONS_BUCKET, &created.id).unwrap(),
            reference_record(&created.dn, now, now + ttl, None)
        );

        let attached = mgr.attach_proxy(&created.id, &proxy, now).unwrap();
        assert_eq!(
            store.get(SESSIONS_BUCKET, &created.id).unwrap(),
            reference_record(&created.dn, now, now + ttl, Some(&proxy))
        );

        // A second manager has an empty cache: this is the store read path.
        let reader = SessionManager::new(store, ttl);
        assert_eq!(reader.validate(&created.id, now), Some(attached));
        Ok(())
    });
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
        let mgr = SessionManager::new(Arc::new(Store::in_memory()), 60);
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

/// One seeded walk: the manager and the model see the same history, and
/// every answer the manager gives is the model's.
struct Walk {
    rng: Rng,
    store: Arc<Store>,
    manager: SessionManager,
    model: model::Sessions,
    dns: Vec<model::Dn>,
    /// Every id minted or replicated, live or not; newest last.
    ids: Vec<String>,
    now: i64,
    steps: usize,
}

const TTL: i64 = 1000;

/// The fields a session answer carries, id aside.
type Fields = (String, i64, i64, Option<String>);

impl Walk {
    fn new(seed: u64) -> Walk {
        let rdn = |tag: &str, value: String| model::Rdn {
            tag: tag.to_owned(),
            value,
        };
        let store = Arc::new(Store::in_memory());
        Walk {
            rng: Rng::new(seed),
            manager: SessionManager::new(Arc::clone(&store), TTL),
            store,
            model: model::Sessions::default(),
            dns: (0..7)
                .map(|i| {
                    vec![
                        rdn("O", "grid".into()),
                        rdn("OU", format!("site{}", i % 3)),
                        rdn("CN", format!("u{i}")),
                    ]
                })
                .collect(),
            ids: Vec::new(),
            now: 10_000,
            steps: 0,
        }
    }

    fn create(&mut self) {
        let which = self.rng.below(self.dns.len());
        let dn = &self.dns[which];
        let created = self.manager.create(&model::to_real(dn), self.now);
        assert!(is_session_id(&created.id), "step {}: id", self.steps);
        let expected = model::Session {
            dn: model::render_dn(dn),
            identity: Some(dn.clone()),
            created: self.now,
            expires: self.now + TTL,
            proxy: None,
        };
        assert_eq!(
            fields(&created),
            model_fields(expected.clone()),
            "step {}: create",
            self.steps
        );
        self.model
            .records
            .insert(created.id.clone(), model::Record::Valid(expected));
        self.ids.push(created.id);
    }

    fn resolve(&mut self, pick: usize) {
        let (step, id) = (self.steps, self.ids[pick].clone());
        let real = self.manager.resolve(&id, self.now);
        let expected = self.model.resolve(&id, self.now);
        assert_eq!(
            real.as_ref().map(|r| fields(&r.session)),
            expected.clone().map(model_fields),
            "step {step}: resolve {id}"
        );
        assert_eq!(
            real.and_then(|r| r.identity).as_deref(),
            expected
                .and_then(|s| s.identity)
                .map(|dn| model::to_real(&dn))
                .as_ref(),
            "step {step}: resolved identity"
        );
    }

    /// One random operation on one random session (live or not).
    fn step(&mut self) {
        self.steps += 1;
        let step = self.steps;
        if self.ids.is_empty() {
            return self.create();
        }
        // Bias towards recent sessions so cache hits happen at all.
        let pick = if self.rng.below(2) == 0 {
            self.ids.len() - 1 - self.rng.below(self.ids.len().min(8))
        } else {
            self.rng.below(self.ids.len())
        };
        let id = self.ids[pick].clone();
        let now = self.now;
        match self.rng.below(100) {
            0..=14 => self.create(),
            15..=49 => self.resolve(pick),
            50..=59 => {
                let real = self.manager.validate(&id, now);
                let expected = self.model.resolve(&id, now);
                assert_eq!(
                    real.as_ref().map(fields),
                    expected.map(model_fields),
                    "step {step}: validate"
                );
            }
            60..=67 => {
                let proxy = format!("proxy-{step}");
                let real = self.manager.attach_proxy(&id, &proxy, now);
                let expected = self.model.attach(&id, &proxy, now, TTL);
                assert_eq!(
                    real.as_ref().map(fields),
                    expected.map(model_fields),
                    "step {step}: attach_proxy"
                );
            }
            68..=73 => {
                let real = self.manager.logout(&id);
                assert_eq!(real, self.model.logout(&id), "step {step}: logout");
            }
            74..=79 => {
                // The replication path: another node's write lands in the
                // bucket behind the manager's back, re-binding the id.
                let which = self.rng.below(self.dns.len());
                let dn = self.dns[which].clone();
                let expires = now + self.rng.below(2 * TTL as usize) as i64 - TTL / 2;
                let text = model::render_dn(&dn);
                let record = reference_record(&text, now, expires, None);
                self.store.put(SESSIONS_BUCKET, &id, record).unwrap();
                let session = model::Session {
                    dn: text,
                    identity: Some(dn),
                    created: now,
                    expires,
                    proxy: None,
                };
                self.model.records.insert(id, model::Record::Valid(session));
            }
            80..=83 => {
                let real = self.store.delete(SESSIONS_BUCKET, &id).unwrap();
                assert_eq!(
                    real,
                    self.model.logout(&id),
                    "step {step}: replicated delete"
                );
            }
            84..=85 => {
                assert_eq!(
                    self.manager.resolve("no-such-session", now).map(|_| ()),
                    None
                );
            }
            86..=93 => self.now += self.rng.below(TTL as usize / 4) as i64,
            94..=97 => {
                // Onto exactly the expiry of a recent session.
                let recent = self.ids.iter().rev().take(8);
                let live: Vec<i64> = recent
                    .filter_map(|id| self.model.records.get(id)?.valid())
                    .map(|s| s.expires)
                    .filter(|&expires| expires > now)
                    .collect();
                if !live.is_empty() {
                    self.now = *self.rng.choose(&live);
                }
            }
            _ => self.now += TTL + 1,
        }
        assert_eq!(
            self.manager.count(),
            self.model.records.len(),
            "step {step}: count"
        );
    }

    fn sweep(&mut self) {
        let real = self.manager.sweep(self.now);
        assert_eq!(
            real,
            self.model.sweep(self.now),
            "step {}: sweep",
            self.steps
        );
        assert_eq!(self.manager.count(), self.model.records.len());
    }
}

fn fields(session: &Session) -> Fields {
    let s = session.clone();
    (s.dn, s.created, s.expires, s.proxy)
}

fn model_fields(session: model::Session) -> Fields {
    (session.dn, session.created, session.expires, session.proxy)
}

/// One seeded walk: 8 000 random steps beside the model, then 200
/// resolves past every expiry. With `overflow` the walk also resolves one
/// more session than the cache has slots: by pigeonhole at least one of
/// its 16 shards is offered more than its 4096 entries, so a resolve meets
/// a full shard and has to evict. One seed does that; it is the slow part.
fn walk_against_the_model(seed: u64, overflow: bool) {
    let mut walk = Walk::new(seed);
    for _ in 0..4000 {
        walk.step();
        if walk.steps.is_multiple_of(500) {
            walk.sweep();
        }
    }
    if overflow {
        for _ in 0..16 * 4096 + 1 {
            walk.create();
            walk.resolve(walk.ids.len() - 1);
        }
        assert_eq!(walk.manager.count(), walk.model.records.len());
    }
    for _ in 0..4000 {
        walk.step();
    }
    walk.sweep();
    // Past every expiry both refuse everything, cached entry or not,
    // and one sweep empties the store.
    walk.now += 3 * TTL;
    for _ in 0..200 {
        let pick = walk.rng.below(walk.ids.len());
        walk.resolve(pick);
    }
    walk.sweep();
    assert_eq!(walk.manager.count(), 0);
    assert!(walk.manager.cache_stats().hits > 0);
}

#[test]
fn the_manager_answers_exactly_as_the_session_model_does() {
    clarens_search::search("clarens --test session_admission", 1..=3, |seed| {
        walk_against_the_model(seed, seed == 1);
        Ok(())
    });
}
