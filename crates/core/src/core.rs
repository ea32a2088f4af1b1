//! The composed server core: everything a service needs at call time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use clarens_db::Store;
use clarens_pki::cert::{unix_now, Certificate, Credential};
use clarens_telemetry::Telemetry;

use crate::acl::AclEngine;
use crate::config::ClarensConfig;
use crate::federation::{FederationRole, FederationState, Position};
use crate::registry::{Registry, Service};
use crate::session::SessionManager;
use crate::vo::VoManager;

/// The assembled Clarens core — configuration, persistent store, session
/// manager, VO manager, ACL engine, trust anchors, server credential, and
/// the service registry. One `ClarensCore` backs one server instance; it is
/// shared (via `Arc`) between the HTTP handler and any in-process tooling.
pub struct ClarensCore {
    /// Server configuration.
    pub config: ClarensConfig,
    /// The persistent store (sessions, VO, ACLs, methods, discovery cache).
    pub store: Arc<Store>,
    /// Session manager.
    pub sessions: SessionManager,
    /// Virtual-organization manager.
    pub vo: VoManager,
    /// ACL engine.
    pub acl: AclEngine,
    /// Trust roots for validating client certificate chains.
    pub roots: Vec<Certificate>,
    /// This server's credential (certificate + key).
    pub credential: Credential,
    /// Registered services.
    pub registry: RwLock<Registry>,
    /// The observability plane: request counters, phase/method latency
    /// histograms, slow traces, and gauges over the DB and auth caches.
    pub telemetry: Arc<Telemetry>,
    /// Clock (overridable for deterministic tests).
    pub now_fn: Arc<dyn Fn() -> i64 + Send + Sync>,
    /// Replication lag in WAL bytes (leader committed length minus this
    /// node's applied cursor), maintained by the federation follower loop;
    /// stays 0 on non-followers. Shared so the `db.replication_lag` gauge
    /// and the replicator read/write the same cell.
    pub replication_lag: Arc<AtomicU64>,
    /// Leader-failover state: live role, leader epoch, believed leader
    /// address, lease, and the replicated-ack follower cursor
    /// (DESIGN.md §14). Standalone when `leader_lease_ms` is 0, else a
    /// follower until the election manager promotes it.
    pub federation: FederationState,
}

impl ClarensCore {
    /// Assemble a core over the store the config names: opened (or
    /// created) at `db_path`, or in memory (see [`ClarensCore::with_store`]).
    pub fn new(
        config: ClarensConfig,
        roots: Vec<Certificate>,
        credential: Credential,
    ) -> std::io::Result<Arc<ClarensCore>> {
        let store = match &config.db_path {
            Some(path) => Store::open_with_sync(path, config.db_sync)?,
            None => Store::in_memory(),
        };
        Ok(ClarensCore::with_store(config, store, roots, credential))
    }

    /// Assemble a core over `store` (`config.db_path` and `db_sync` are
    /// not read). Its node-local methods bucket starts empty (registering
    /// services fills it); the `admins` VO group is repopulated, and
    /// nothing else is installed — services are registered separately.
    pub fn with_store(
        config: ClarensConfig,
        store: Store,
        roots: Vec<Certificate>,
        credential: Credential,
    ) -> Arc<ClarensCore> {
        let store = Arc::new(store);
        let sessions = SessionManager::new(Arc::clone(&store), config.session_ttl);
        let vo = VoManager::new(Arc::clone(&store), &config.admin_dns);
        let acl = AclEngine::new(Arc::clone(&store));
        let telemetry = Telemetry::enabled();
        let federation = FederationState::new(match config.leader_lease_ms {
            0 => FederationRole::Standalone,
            _ => FederationRole::Follower,
        });
        let committed = Arc::clone(&federation.committed);
        store.on_commit(move |at| committed.raise(at));
        let core = Arc::new(ClarensCore {
            config,
            store,
            sessions,
            vo,
            acl,
            roots,
            credential,
            registry: RwLock::new(Registry::default()),
            telemetry,
            now_fn: Arc::new(unix_now),
            replication_lag: Arc::new(AtomicU64::new(0)),
            federation,
        });
        core.register_gauges();
        core
    }

    /// Expose DB and auth-cache counters as named telemetry gauges, so
    /// `system.stats`, `system.metrics`, and `GET /metrics` all read the
    /// same numbers through one registry.
    fn register_gauges(self: &Arc<Self>) {
        let store = Arc::clone(&self.store);
        self.telemetry
            .register_gauge("db.lookups", move || store.stats().lookups);
        let store = Arc::clone(&self.store);
        self.telemetry
            .register_gauge("db.scans", move || store.stats().scans);
        let store = Arc::clone(&self.store);
        self.telemetry
            .register_gauge("db.writes", move || store.stats().writes);
        let store = Arc::clone(&self.store);
        self.telemetry
            .register_gauge("db.wal_syncs", move || store.stats().syncs);
        let store = Arc::clone(&self.store);
        self.telemetry
            .register_gauge("db.wal_extends", move || store.storage_counters().extends);
        let store = Arc::clone(&self.store);
        self.telemetry
            .register_gauge("db.group_commits", move || store.stats().group_commits);
        let store = Arc::clone(&self.store);
        self.telemetry
            .register_gauge("db.compactions", move || store.stats().compactions);
        let store = Arc::clone(&self.store);
        self.telemetry
            .register_gauge("db.live_bytes", move || store.live_bytes());
        let store = Arc::clone(&self.store);
        self.telemetry
            .register_gauge("db.degraded", move || store.is_degraded() as u64);
        let store = Arc::clone(&self.store);
        self.telemetry
            .register_gauge("db.wal_offset", move || store.wal_offset());
        let lag = Arc::clone(&self.replication_lag);
        self.telemetry
            .register_gauge("db.replication_lag", move || lag.load(Ordering::Relaxed));
        let weak = Arc::downgrade(self);
        self.telemetry
            .register_gauge("federation.leader_epoch", move || {
                weak.upgrade().map(|c| c.federation.epoch()).unwrap_or(0)
            });
        let weak = Arc::downgrade(self);
        self.telemetry
            .register_gauge("federation.is_leader", move || {
                weak.upgrade()
                    .map(|c| (c.federation.role() == FederationRole::Leader) as u64)
                    .unwrap_or(0)
            });
        // Cache gauges capture a weak handle: the telemetry plane lives
        // inside the core, so a strong Arc here would leak it.
        type CacheReader = fn(&ClarensCore) -> (u64, u64);
        let cache_gauges: [(&str, CacheReader); 4] = [
            ("cache.sessions", |core| {
                let s = core.sessions.cache_stats();
                (s.hits, s.misses)
            }),
            ("cache.vo_groups", |core| {
                let s = core.vo.cache_stats();
                (s.hits, s.misses)
            }),
            ("cache.acl_nodes", |core| {
                let s = core.acl.node_cache_stats();
                (s.hits, s.misses)
            }),
            ("cache.acl_decisions", |core| {
                let s = core.acl.decision_cache_stats();
                (s.hits, s.misses)
            }),
        ];
        for (name, read) in cache_gauges {
            let weak = Arc::downgrade(self);
            self.telemetry
                .register_gauge(format!("{name}.hits"), move || {
                    weak.upgrade().map(|core| read(&core).0).unwrap_or(0)
                });
            let weak = Arc::downgrade(self);
            self.telemetry
                .register_gauge(format!("{name}.misses"), move || {
                    weak.upgrade().map(|core| read(&core).1).unwrap_or(0)
                });
        }
    }

    /// The position of the data this node holds (DESIGN.md §14): a
    /// leader's is its own log's end, any other node's what it recorded.
    pub fn position(&self) -> Position {
        match self.federation.role() {
            FederationRole::Leader => (self.store.fence_epoch(), self.store.wal_position()),
            _ => self.federation.applied(),
        }
    }

    /// Current time per the configured clock.
    pub fn now(&self) -> i64 {
        (self.now_fn)()
    }

    /// Register a service module: every row of its table.
    pub fn register<S: Service>(&self, service: Arc<S>) {
        self.registry.write().register(service, &self.store);
    }
}
