//! Persistent server-side sessions.
//!
//! "Since the HTTP protocol does not require persistent connections, it is
//! important that session information is stored persistently on the server
//! side. This has the positive side-effect of allowing clients to survive
//! server failures or restarts transparently without having to
//! re-authenticate themselves" (paper §2). Sessions live in the
//! [`clarens_db::Store`] (bucket `sessions`), keyed by a random 256-bit id,
//! and carry the authenticated identity plus expiry.
//!
//! The store stays the source of truth — a freshly constructed manager
//! starts with an empty cache and reloads sessions from the DB, which is
//! exactly the restart-survival property above. On top of that sits a
//! cache of [`ResolvedSession`] records (the session plus its DN parsed
//! once), filled by [`SessionManager::resolve`] on a miss and tagged with
//! the `sessions` bucket generation: any write to the bucket (create,
//! logout, proxy attach, sweep, expiry delete) makes every cached entry
//! stale, so a revoked session can never be served from cache — at worst a
//! concurrent write causes a spurious reload.
//!
//! Admission ([`SessionManager::create`]) does only what a new session
//! needs: the id is 32 bytes of the thread's ChaCha20 keystream
//! ([`clarens_pki::keystream`]) in hex, the DN is formatted once into a
//! buffer sized for it, and the record goes through the one direct writer
//! (`Session::write_record`) into the store. It writes nothing to the
//! cache — the next login would make that entry stale unread — unless the
//! store refused the record, in which case the cache holds the only copy.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clarens_db::Store;
use clarens_pki::dn::{Attribute, DistinguishedName};
use clarens_pki::{keystream, sha256};
use clarens_wire::{json, Value};

use crate::cache::{CacheStats, Sharded};

/// DB bucket for sessions.
pub const SESSIONS_BUCKET: &str = "sessions";

/// An authenticated session.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// The session id (hex, 64 chars).
    pub id: String,
    /// Authenticated identity (end-entity DN).
    pub dn: String,
    /// Creation time (Unix seconds).
    pub created: i64,
    /// Expiry time (Unix seconds).
    pub expires: i64,
    /// Serialized proxy credential attached to the session, if any
    /// (paper §2.6: a stored proxy can be "attached" to an existing
    /// session).
    pub proxy: Option<String>,
}

impl Session {
    /// A fresh id: 32 keystream bytes, hex. Never raw PRNG output — the
    /// process generator's state can be solved from what it emits.
    fn mint_id() -> String {
        let mut raw = [0u8; 32];
        keystream::fill(&mut raw);
        sha256::to_hex(&raw)
    }

    /// The stored record, `{"created":N,"dn":"…","expires":N,"proxy":null|"…"}`:
    /// byte for byte what `json::to_string` makes of the same four fields as
    /// a `Value::structure` (keys in `BTreeMap` order), which is what older
    /// records and replicated ones look like and what [`Session::from_value`]
    /// reads back.
    fn write_record(&self, out: &mut Vec<u8>) {
        let _ = write!(out, "{{\"created\":{},\"dn\":", self.created);
        json::write_string_into(out, &self.dn);
        let _ = write!(out, ",\"expires\":{},\"proxy\":", self.expires);
        match &self.proxy {
            Some(proxy) => json::write_string_into(out, proxy),
            None => out.extend_from_slice(b"null"),
        }
        out.push(b'}');
    }

    fn from_value(id: &str, value: &Value) -> Option<Session> {
        Some(Session {
            id: id.to_owned(),
            dn: value.get("dn")?.as_str()?.to_owned(),
            created: value.get("created")?.as_int()?,
            expires: value.get("expires")?.as_int()?,
            proxy: value
                .get("proxy")
                .and_then(|p| p.as_str())
                .map(str::to_owned),
        })
    }
}

/// A session together with its identity parsed once — what the request
/// path actually needs per call. Both fields are shared pointers so a
/// cache hit hands them out without copying any strings; `Clone` is two
/// reference-count bumps.
#[derive(Debug, Clone)]
pub struct ResolvedSession {
    /// The validated session record.
    pub session: Arc<Session>,
    /// The session DN, parsed; `None` if the stored DN is malformed.
    pub identity: Option<Arc<DistinguishedName>>,
}

impl ResolvedSession {
    fn parse(session: Session) -> ResolvedSession {
        ResolvedSession {
            identity: DistinguishedName::parse(&session.dn).ok().map(Arc::new),
            session: Arc::new(session),
        }
    }
}

/// The session manager.
pub struct SessionManager {
    store: Arc<Store>,
    ttl: i64,
    /// Generation handle of [`SESSIONS_BUCKET`].
    generation: Arc<AtomicU64>,
    /// Resolved sessions, cached on use and tagged with the bucket
    /// generation so any session write invalidates every entry.
    cache: Sharded<String, ResolvedSession>,
}

impl SessionManager {
    /// Create a manager over the shared store.
    pub fn new(store: Arc<Store>, ttl: i64) -> Self {
        let generation = store.generation_handle(SESSIONS_BUCKET);
        SessionManager {
            store,
            ttl,
            generation,
            cache: Sharded::new(),
        }
    }

    /// Hit/miss counters of the resolved-session cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Create a new session for `dn`, returning it.
    pub fn create(&self, dn: &DistinguishedName, now: i64) -> Session {
        let len = |a: &Attribute| 2 + a.kind.tag().len() + a.value.len();
        let mut text = String::with_capacity(dn.attributes.iter().map(len).sum());
        let _ = std::fmt::write(&mut text, format_args!("{dn}"));
        let session = Session {
            id: Session::mint_id(),
            dn: text,
            created: now,
            expires: now + self.ttl,
            proxy: None,
        };
        self.persist(&session);
        session
    }

    /// Write `session` to the store. The cache is not touched: the next
    /// write to the bucket (the next login) makes an entry built here
    /// stale, usually before anyone reads it, so `resolve` caches the
    /// session on first use instead. When the store refused the record the
    /// cache holds the only copy, so then it goes in.
    fn persist(&self, session: &Session) {
        let mut record = Vec::with_capacity(
            64 + session.dn.len() + session.proxy.as_ref().map_or(0, String::len),
        );
        session.write_record(&mut record);
        if self.store.put(SESSIONS_BUCKET, &session.id, record).is_ok() {
            return;
        }
        // The session stays valid in memory (the cache entry below serves
        // it); it just won't survive a restart. The refusal is not silent:
        // a logged bucket's write fails only on a poisoned log or by
        // poisoning it, and `db.degraded` reports exactly that.
        let generation = self.generation.load(Ordering::SeqCst);
        let entry = ResolvedSession::parse(session.clone());
        self.cache.insert(session.id.clone(), generation, entry);
    }

    /// Load a session from the store, enforcing expiry.
    fn load(&self, id: &str, now: i64) -> Option<Session> {
        let bytes = self.store.get(SESSIONS_BUCKET, id)?;
        let text = String::from_utf8(bytes).ok()?;
        let value = json::parse(&text).ok()?;
        let session = Session::from_value(id, &value)?;
        if session.expires <= now {
            let _ = self.store.delete(SESSIONS_BUCKET, id);
            return None;
        }
        Some(session)
    }

    /// Validate a session id and resolve its identity, through the cache.
    /// This is the first of the two per-request access-control checks in
    /// the paper's Figure-4 workload ("whether the client credentials are
    /// associated with a current session").
    pub fn resolve(&self, id: &str, now: i64) -> Option<ResolvedSession> {
        // Load the generation before consulting the cache: a write racing
        // with us can only make the entry look stale.
        let generation = self.generation.load(Ordering::SeqCst);
        if let Some(entry) = self.cache.get(id, generation) {
            if entry.session.expires <= now {
                self.cache.remove(id);
                let _ = self.store.delete(SESSIONS_BUCKET, id);
                return None;
            }
            return Some(entry);
        }
        let entry = ResolvedSession::parse(self.load(id, now)?);
        self.cache.insert(id.to_owned(), generation, entry.clone());
        Some(entry)
    }

    /// Validate a session id: returns the session if it exists and has not
    /// expired.
    pub fn validate(&self, id: &str, now: i64) -> Option<Session> {
        Some(self.resolve(id, now)?.session.as_ref().clone())
    }

    /// Attach (or replace) a proxy credential on an existing session,
    /// extending its lifetime (proxy renewal semantics of §2.6).
    pub fn attach_proxy(&self, id: &str, proxy_text: &str, now: i64) -> Option<Session> {
        let mut session = self.validate(id, now)?;
        session.proxy = Some(proxy_text.to_owned());
        session.expires = now + self.ttl;
        self.persist(&session);
        Some(session)
    }

    /// Destroy a session. Returns whether it existed.
    pub fn logout(&self, id: &str) -> bool {
        // The delete bumps the bucket generation, so even an entry a racing
        // `resolve` re-inserts afterwards is already stale; the explicit
        // remove just frees the slot promptly.
        let existed = self.store.delete(SESSIONS_BUCKET, id).unwrap_or(false);
        self.cache.remove(id);
        existed
    }

    /// Remove expired sessions; returns how many were dropped.
    pub fn sweep(&self, now: i64) -> usize {
        let mut dropped = 0;
        for (id, bytes) in self.store.scan_prefix(SESSIONS_BUCKET, "") {
            let expired = String::from_utf8(bytes)
                .ok()
                .and_then(|t| json::parse(&t).ok())
                .and_then(|v| v.get("expires").and_then(Value::as_int))
                .map(|e| e <= now)
                .unwrap_or(true);
            if expired {
                let _ = self.store.delete(SESSIONS_BUCKET, &id);
                self.cache.remove(&id);
                dropped += 1;
            }
        }
        dropped
    }

    /// Number of live sessions (including not-yet-swept expired ones).
    pub fn count(&self) -> usize {
        self.store.len(SESSIONS_BUCKET)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn() -> DistinguishedName {
        DistinguishedName::parse("/O=org/OU=People/CN=alice").unwrap()
    }

    fn manager() -> SessionManager {
        SessionManager::new(Arc::new(Store::in_memory()), 3600)
    }

    #[test]
    fn create_and_validate() {
        let mgr = manager();
        let session = mgr.create(&dn(), 1000);
        assert_eq!(session.id.len(), 64);
        assert_eq!(session.expires, 4600);
        let validated = mgr.validate(&session.id, 2000).unwrap();
        assert_eq!(validated.dn, "/O=org/OU=People/CN=alice");
        assert!(mgr.validate("bogus", 2000).is_none());
    }

    #[test]
    fn expiry_enforced() {
        let mgr = manager();
        let session = mgr.create(&dn(), 1000);
        assert!(mgr.validate(&session.id, 4600).is_none());
        // Expired validation also removes the record.
        assert_eq!(mgr.count(), 0);
    }

    #[test]
    fn ids_unique() {
        let mgr = manager();
        let a = mgr.create(&dn(), 0);
        let b = mgr.create(&dn(), 0);
        assert_ne!(a.id, b.id);
        assert_eq!(mgr.count(), 2);
    }

    #[test]
    fn logout() {
        let mgr = manager();
        let session = mgr.create(&dn(), 0);
        assert!(mgr.logout(&session.id));
        assert!(!mgr.logout(&session.id));
        assert!(mgr.validate(&session.id, 1).is_none());
    }

    #[test]
    fn proxy_attachment_extends_session() {
        let mgr = manager();
        let session = mgr.create(&dn(), 1000);
        let updated = mgr
            .attach_proxy(&session.id, "PROXY-CREDENTIAL", 2000)
            .unwrap();
        assert_eq!(updated.proxy.as_deref(), Some("PROXY-CREDENTIAL"));
        assert_eq!(updated.expires, 5600); // renewed from t=2000
        let validated = mgr.validate(&session.id, 5000).unwrap();
        assert_eq!(validated.proxy.as_deref(), Some("PROXY-CREDENTIAL"));
    }

    #[test]
    fn sweep_removes_only_expired() {
        let mgr = manager();
        let old = mgr.create(&dn(), 0);
        let fresh = mgr.create(&dn(), 5000);
        assert_eq!(mgr.sweep(4000), 1);
        assert!(mgr.validate(&old.id, 4000).is_none());
        assert!(mgr.validate(&fresh.id, 4000).is_some());
    }

    #[test]
    fn creates_fill_the_store_and_leave_the_cache_empty() {
        let mgr = manager();
        for _ in 0..10_000 {
            mgr.create(&dn(), 1000);
        }
        assert_eq!(mgr.count(), 10_000);
        assert_eq!(mgr.cache.len(), 0);
    }

    #[test]
    fn first_resolve_reads_the_store_once_and_the_second_is_a_hit() {
        let store = Arc::new(Store::in_memory());
        let mgr = SessionManager::new(Arc::clone(&store), 3600);
        let session = mgr.create(&dn(), 1000);
        let lookups = store.stats().lookups;
        let entry = mgr.resolve(&session.id, 2000).unwrap();
        assert_eq!(entry.identity.as_ref().unwrap().to_string(), session.dn);
        assert_eq!(store.stats().lookups, lookups + 1);
        assert!(mgr.validate(&session.id, 2500).is_some());
        assert_eq!(store.stats().lookups, lookups + 1);
        assert_eq!(mgr.cache_stats(), CacheStats { hits: 1, misses: 1 });
    }

    /// A session stores its DN as text, so the text must read back as the
    /// same identity: `a\b` is not `ab`, and a value ending in `\` parses.
    #[test]
    fn a_dn_with_backslashes_resolves_to_itself() {
        let mgr = manager();
        let escaped = DistinguishedName::parse("/O=org/CN=a\\\\b").unwrap();
        assert_eq!(escaped.common_name(), Some("a\\b"));
        let trailing = DistinguishedName::builder().common_name("dir\\").build();
        for dn in [escaped, trailing] {
            let session = mgr.create(&dn, 1000);
            let entry = mgr.resolve(&session.id, 2000).unwrap();
            assert_eq!(entry.identity.as_deref(), Some(&dn), "{}", session.dn);
        }
    }

    #[test]
    fn logout_invalidates_cached_session() {
        let mgr = manager();
        let session = mgr.create(&dn(), 0);
        assert!(mgr.validate(&session.id, 1).is_some());
        assert!(mgr.logout(&session.id));
        assert!(mgr.validate(&session.id, 1).is_none());
    }

    #[test]
    fn expiry_enforced_on_cached_entries() {
        let mgr = manager();
        let session = mgr.create(&dn(), 1000);
        assert!(mgr.validate(&session.id, 2000).is_some());
        // The cached entry must not outlive its expiry, and the expired
        // record is removed from the store as before.
        assert!(mgr.validate(&session.id, 4600).is_none());
        assert_eq!(mgr.count(), 0);
        assert!(mgr.validate(&session.id, 2000).is_none());
    }

    #[test]
    fn proxy_attachment_visible_through_cache() {
        let mgr = manager();
        let session = mgr.create(&dn(), 1000);
        assert!(mgr.validate(&session.id, 1500).is_some());
        mgr.attach_proxy(&session.id, "PROXY", 2000).unwrap();
        let entry = mgr.resolve(&session.id, 2500).unwrap();
        assert_eq!(entry.session.proxy.as_deref(), Some("PROXY"));
        assert_eq!(entry.session.expires, 5600);
    }

    #[test]
    fn a_refused_persist_is_served_from_the_cache() {
        let path = std::env::temp_dir().join(format!(
            "clarens-session-refused-{}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let disk = clarens_db::FaultyDisk::new();
        let store = Arc::new(Store::open_on(&disk, &path, false).unwrap());
        let mgr = SessionManager::new(Arc::clone(&store), 3600);

        // The disk fails the record's write, and the store refuses every
        // write after it: the cache holds the only copy.
        disk.arm(clarens_db::Call::Write, clarens_db::Fault::Fail, 1);
        let orphan = mgr.create(&dn(), 1000);
        assert!(store.is_degraded());
        assert_eq!(mgr.count(), 0);
        let lookups = store.stats().lookups;
        let entry = mgr
            .resolve(&orphan.id, 2000)
            .expect("served from the cache");
        assert_eq!(*entry.session, orphan);
        assert_eq!(entry.identity.as_deref(), Some(&dn()));
        let attached = mgr.attach_proxy(&orphan.id, "PROXY", 2000).unwrap();
        assert_eq!(attached.proxy.as_deref(), Some("PROXY"));
        assert_eq!(mgr.validate(&orphan.id, 2500), Some(attached));
        assert_eq!(store.stats().lookups, lookups);
        drop((mgr, store));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sessions_survive_restart() {
        // The paper's restart-survival property, end to end through the DB.
        let path = std::env::temp_dir().join(format!(
            "clarens-session-restart-{}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let id;
        {
            let store = Arc::new(Store::open(&path).unwrap());
            let mgr = SessionManager::new(store, 3600);
            id = mgr.create(&dn(), 1000).id;
        }
        {
            // "Restart": a fresh manager over a reopened store.
            let store = Arc::new(Store::open(&path).unwrap());
            let mgr = SessionManager::new(store, 3600);
            let session = mgr.validate(&id, 2000).unwrap();
            assert_eq!(session.dn, "/O=org/OU=People/CN=alice");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
