//! The `system` service: introspection, authentication, session control.
//!
//! `system.list_methods` is the method the paper's performance study calls
//! "as rapidly as possible" (§4); like the original, it performs "a
//! database lookup for all registered methods in the server" on every
//! invocation and serializes the result as an array of strings.

use clarens_pki::cert::{verify_chain, Certificate};
use clarens_wire::fault::codes;
use clarens_wire::{Fault, Value};

use crate::federation::FederationRole;
use crate::registry::param::{array, base64, int, string};
use crate::registry::{Args, CallContext, Method, Service, METHODS_BUCKET};

/// The `system` service.
pub struct SystemService;

/// Version string reported by `system.version`.
pub const VERSION: &str = concat!("clarens-rs/", env!("CARGO_PKG_VERSION"));

impl Service for SystemService {
    const METHODS: &'static [Method<Self>] = &[
        Method::new(
            "system.list_methods",
            "List all registered method names",
            &[],
            // Deliberately uncached: a fresh DB scan per request, as the
            // paper stresses ("No caching was performed on the server").
            |_, ctx, _| {
                let names = ctx.core.store.keys(METHODS_BUCKET);
                Ok(Value::Array(names.into_iter().map(Value::from).collect()))
            },
        )
        .idempotent(),
        Method::new(
            "system.get_method_info",
            "Signature and documentation for one method",
            &[string("name")],
            |_, ctx, args| {
                let name = args.str(0)?;
                let bytes = ctx.core.store.get(METHODS_BUCKET, name).ok_or_else(|| {
                    Fault::new(codes::NO_SUCH_METHOD, format!("no method {name}"))
                })?;
                let corrupt = || Fault::new(codes::INTERNAL, "corrupt method record");
                let text = std::str::from_utf8(&bytes).map_err(|_| corrupt())?;
                clarens_wire::json::parse(text).map_err(|_| corrupt())
            },
        )
        .idempotent(),
        Method::new(
            "system.auth",
            "Authenticate with a certificate chain and challenge signature; returns a session",
            &[array("chain"), int("timestamp"), base64("signature")],
            Self::auth,
        )
        .public()
        .replicated(),
        Method::new(
            "system.whoami",
            "The caller's identity DN",
            &[],
            |_, ctx, _| Ok(Value::from(ctx.require_identity()?.to_string())),
        )
        .idempotent(),
        Method::new(
            "system.logout",
            "Destroy the current session",
            &[],
            |_, ctx, _| {
                let session = ctx.session.as_ref();
                Ok(Value::Bool(
                    session.is_some_and(|s| ctx.core.sessions.logout(&s.id)),
                ))
            },
        )
        .replicated(),
        Method::new("system.version", "Server version string", &[], |_, _, _| {
            Ok(Value::from(VERSION))
        })
        .public()
        .idempotent(),
        Method::new("system.ping", "Liveness probe", &[], |_, _, _| {
            Ok(Value::from("pong"))
        })
        .public()
        .idempotent(),
        Method::new(
            "system.health",
            "Readiness: role, leader epoch, replication cursor/lag, degraded flag",
            &[],
            Self::health,
        )
        .public()
        .idempotent(),
        Method::new(
            "system.session_count",
            "Number of live sessions (admin)",
            &[],
            |_, ctx, _| Ok(Value::Int(ctx.core.sessions.count() as i64)),
        )
        .admin()
        .idempotent(),
        Method::new(
            "system.stats",
            "DB and authorization-cache counters (admin)",
            &[],
            Self::stats,
        )
        .admin()
        .idempotent(),
        Method::new(
            "system.metrics",
            "Full telemetry snapshot: HTTP counters, per-phase and per-method latency (admin)",
            &[],
            |_, ctx, _| Ok(metrics_snapshot(&ctx.core.telemetry)),
        )
        .admin()
        .idempotent(),
        Method::new(
            "system.trace_tail",
            "Most recent slow-request traces, newest first (admin)",
            &[int("limit").optional()],
            |_, ctx, args| {
                let limit = usize::try_from(args.int(0).unwrap_or(16))
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| Fault::bad_params("limit must be positive"))?;
                let tail = ctx.core.telemetry.trace_tail(limit);
                Ok(Value::Array(tail.iter().map(slow_trace_value).collect()))
            },
        )
        .admin()
        .idempotent(),
    ];
}

impl SystemService {
    /// `system.auth(chain: [string], timestamp: int, signature: bytes)`.
    ///
    /// The challenge is self-dated: the client signs
    /// `clarens-auth:<timestamp>` with its leaf key; the server accepts it
    /// within the configured clock-skew window. The chain is validated
    /// against the server's trust roots; proxy chains authenticate as the
    /// underlying user (paper §2.6 delegation semantics).
    fn auth(&self, ctx: &CallContext<'_>, args: &Args<'_>) -> Result<Value, Fault> {
        let timestamp = args.int(1)?;
        let mut chain = Vec::new();
        for value in args.array(0)? {
            let text = value
                .as_str()
                .ok_or_else(|| Fault::bad_params("chain entries must be certificate text"))?;
            chain.push(
                Certificate::from_text(text)
                    .map_err(|e| Fault::bad_params(format!("bad certificate: {e}")))?,
            );
        }
        let Some(leaf) = chain.first() else {
            return Err(Fault::bad_params("empty certificate chain"));
        };

        let skew = ctx.core.config.auth_skew;
        if (ctx.now - timestamp).abs() > skew {
            return Err(Fault::not_authenticated(format!(
                "challenge timestamp outside ±{skew}s window"
            )));
        }

        let identity = verify_chain(&chain, &ctx.core.roots, ctx.now)
            .map_err(|e| Fault::not_authenticated(format!("certificate chain invalid: {e}")))?;

        let message = auth_challenge(timestamp);
        leaf.public_key
            .verify(message.as_bytes(), args.bytes(2)?)
            .map_err(|_| Fault::not_authenticated("challenge signature invalid"))?;

        let session = ctx.core.sessions.create(&identity, ctx.now);
        Ok(Value::structure([
            ("session", Value::from(session.id)),
            ("dn", Value::from(identity.to_string())),
            ("expires", Value::Int(session.expires)),
        ]))
    }

    /// Public (like ping): the election manager on peer nodes queries this
    /// to rank promotion candidates by exact WAL cursor, and operators
    /// point probes at it. Reports only coarse cluster-role facts, no user
    /// or store data.
    fn health(&self, ctx: &CallContext<'_>, _: &Args<'_>) -> Result<Value, Fault> {
        let fed = &ctx.core.federation;
        let role = match fed.role() {
            FederationRole::Leader => "leader",
            FederationRole::Follower => "follower",
            FederationRole::Standalone => "standalone",
        };
        let store = &ctx.core.store;
        let degraded = store.is_degraded();
        let lag = ctx
            .core
            .replication_lag
            .load(std::sync::atomic::Ordering::Relaxed);
        let ready = !degraded && (fed.role() != FederationRole::Leader || fed.is_writable());
        let (fence, (epoch, offset)) = ctx.core.position();
        // `[fence epoch, leader WAL epoch, offset]`: elections rank by it.
        let applied = Value::array([fence, epoch, offset].map(|n| Value::Int(n as i64)));
        Ok(Value::structure([
            ("ready", Value::Bool(ready)),
            ("role", Value::from(role)),
            ("leader_epoch", Value::Int(fed.epoch() as i64)),
            ("leader", Value::from(fed.leader())),
            ("wal_offset", Value::Int(store.wal_offset() as i64)),
            ("fence_epoch", Value::Int(store.fence_epoch() as i64)),
            ("applied", applied),
            ("replication_lag", Value::Int(lag as i64)),
            ("degraded", Value::Bool(degraded)),
        ]))
    }

    /// Served from the telemetry gauge registry: the same numbers
    /// `system.metrics` and `GET /metrics` export.
    fn stats(&self, ctx: &CallContext<'_>, _: &Args<'_>) -> Result<Value, Fault> {
        let gauge = |name: &str| Value::Int(ctx.core.telemetry.gauge(name).unwrap_or(0) as i64);
        let cache_value = |name: &str| {
            Value::structure([
                ("hits", gauge(&format!("{name}.hits"))),
                ("misses", gauge(&format!("{name}.misses"))),
            ])
        };
        Ok(Value::structure([
            (
                "db",
                Value::structure([
                    ("lookups", gauge("db.lookups")),
                    ("scans", gauge("db.scans")),
                    ("writes", gauge("db.writes")),
                    ("wal_syncs", gauge("db.wal_syncs")),
                    ("wal_extends", gauge("db.wal_extends")),
                    ("group_commits", gauge("db.group_commits")),
                    ("compactions", gauge("db.compactions")),
                    ("live_bytes", gauge("db.live_bytes")),
                    ("wal_offset", gauge("db.wal_offset")),
                    ("replication_lag", gauge("db.replication_lag")),
                ]),
            ),
            (
                "cache",
                Value::structure([
                    ("sessions", cache_value("cache.sessions")),
                    ("vo_groups", cache_value("cache.vo_groups")),
                    ("acl_nodes", cache_value("cache.acl_nodes")),
                    ("acl_decisions", cache_value("cache.acl_decisions")),
                ]),
            ),
        ]))
    }
}

/// The challenge message a client signs for `system.auth`.
pub fn auth_challenge(timestamp: i64) -> String {
    format!("clarens-auth:{timestamp}")
}

/// Render a latency histogram snapshot as an RPC structure.
fn histogram_value(snap: &clarens_telemetry::HistogramSnapshot) -> Value {
    Value::structure([
        ("count", Value::Int(snap.count as i64)),
        ("sum_us", Value::Int(snap.sum as i64)),
        ("p50_us", Value::Int(snap.p50() as i64)),
        ("p95_us", Value::Int(snap.p95() as i64)),
        ("p99_us", Value::Int(snap.p99() as i64)),
        ("max_us", Value::Int(snap.max as i64)),
    ])
}

/// The full `system.metrics` response body.
fn metrics_snapshot(telemetry: &clarens_telemetry::Telemetry) -> Value {
    let http = Value::structure(
        telemetry
            .http
            .rows()
            .map(|(_, key, value)| (key, Value::Int(value as i64))),
    );
    let protocols = Value::structure(telemetry.protocols_snapshot().into_iter().map(
        |(name, requests, faults)| {
            (
                name,
                Value::structure([
                    ("requests", Value::Int(requests as i64)),
                    ("faults", Value::Int(faults as i64)),
                ]),
            )
        },
    ));
    let phases = Value::structure(
        telemetry
            .phase_snapshots()
            .into_iter()
            .map(|(name, snap)| (name, histogram_value(&snap))),
    );
    let methods = Value::structure(telemetry.methods_snapshot().into_iter().map(
        |(name, stats)| {
            let latency = stats.latency.snapshot();
            (
                name,
                Value::structure([
                    ("calls", Value::Int(stats.calls.get() as i64)),
                    ("faults", Value::Int(stats.faults.get() as i64)),
                    ("latency", histogram_value(&latency)),
                ]),
            )
        },
    ));
    let gauges = Value::structure(
        telemetry
            .gauges_snapshot()
            .into_iter()
            .map(|(name, value)| (name, Value::Int(value as i64))),
    );
    Value::structure([
        ("http", http),
        ("protocols", protocols),
        ("phases", phases),
        ("methods", methods),
        ("gauges", gauges),
        (
            "slow_traces",
            Value::Int(telemetry.slow_trace_count() as i64),
        ),
    ])
}

/// Render one slow-request trace for `system.trace_tail`.
fn slow_trace_value(trace: &clarens_telemetry::SlowTrace) -> Value {
    use clarens_telemetry::PHASE_NAMES;
    Value::structure([
        ("seq", Value::Int(trace.seq as i64)),
        ("time", Value::Int(trace.unix_time)),
        (
            "method",
            Value::from(trace.method.clone().unwrap_or_default()),
        ),
        ("protocol", Value::from(trace.protocol.unwrap_or(""))),
        ("status", Value::Int(trace.status as i64)),
        ("fault", Value::Bool(trace.fault)),
        ("total_us", Value::Int(trace.total_us as i64)),
        (
            "phases",
            Value::structure(
                PHASE_NAMES
                    .iter()
                    .zip(trace.phase_us.iter())
                    .map(|(name, us)| (*name, Value::Int(*us as i64))),
            ),
        ),
    ])
}
