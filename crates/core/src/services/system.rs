//! The `system` service: introspection, authentication, session control.
//!
//! `system.list_methods` is the method the paper's performance study calls
//! "as rapidly as possible" (§4); like the original, it performs "a
//! database lookup for all registered methods in the server" on every
//! invocation and serializes the result as an array of strings.

use clarens_pki::cert::{verify_chain, Certificate};
use clarens_wire::fault::codes;
use clarens_wire::{Fault, Value};

use crate::registry::{params, unhandled, CallContext, MethodInfo, Service, METHODS_BUCKET};

/// The `system` service.
pub struct SystemService;

/// Version string reported by `system.version`.
pub const VERSION: &str = concat!("clarens-rs/", env!("CARGO_PKG_VERSION"));

/// The `system` methods.
pub static METHODS: &[MethodInfo] = &[
    MethodInfo::new(
        "system.list_methods",
        "system.list_methods()",
        "List all registered method names",
        0,
    )
    .idempotent(),
    MethodInfo::new(
        "system.get_method_info",
        "system.get_method_info(name)",
        "Signature and documentation for one method",
        1,
    )
    .idempotent(),
    MethodInfo::new(
        "system.auth",
        "system.auth(chain, timestamp, signature)",
        "Authenticate with a certificate chain and challenge signature; returns a session",
        3,
    )
    .public()
    .replicated(),
    MethodInfo::new(
        "system.whoami",
        "system.whoami()",
        "The caller's identity DN",
        0,
    )
    .idempotent(),
    MethodInfo::new(
        "system.logout",
        "system.logout()",
        "Destroy the current session",
        0,
    )
    .replicated(),
    MethodInfo::new(
        "system.version",
        "system.version()",
        "Server version string",
        0,
    )
    .public()
    .idempotent(),
    MethodInfo::new("system.ping", "system.ping()", "Liveness probe", 0)
        .public()
        .idempotent(),
    MethodInfo::new(
        "system.health",
        "system.health()",
        "Readiness: role, leader epoch, replication cursor/lag, degraded flag",
        0,
    )
    .public()
    .idempotent(),
    MethodInfo::new(
        "system.session_count",
        "system.session_count()",
        "Number of live sessions (admin)",
        0,
    )
    .idempotent(),
    MethodInfo::new(
        "system.stats",
        "system.stats()",
        "DB and authorization-cache counters (admin)",
        0,
    )
    .idempotent(),
    MethodInfo::new(
        "system.metrics",
        "system.metrics()",
        "Full telemetry snapshot: HTTP counters, per-phase and per-method latency (admin)",
        0,
    )
    .idempotent(),
    MethodInfo::new(
        "system.trace_tail",
        "system.trace_tail([limit])",
        "Most recent slow-request traces, newest first (admin)",
        0,
    )
    .up_to(1)
    .idempotent(),
];

impl Service for SystemService {
    fn methods(&self) -> &'static [MethodInfo] {
        METHODS
    }

    fn call(
        &self,
        ctx: &CallContext<'_>,
        method: &str,
        params_in: &[Value],
    ) -> Result<Value, Fault> {
        match method {
            "system.list_methods" => {
                // Deliberately uncached: a fresh DB scan per request, as
                // the paper stresses ("No caching was performed on the
                // server").
                let names = ctx.core.store.keys(METHODS_BUCKET);
                Ok(Value::Array(names.into_iter().map(Value::from).collect()))
            }
            "system.get_method_info" => {
                let name = params::string(params_in, 0, "name")?;
                let bytes = ctx.core.store.get(METHODS_BUCKET, &name).ok_or_else(|| {
                    Fault::new(codes::NO_SUCH_METHOD, format!("no method {name}"))
                })?;
                let text = String::from_utf8(bytes)
                    .map_err(|_| Fault::new(codes::INTERNAL, "corrupt method record"))?;
                clarens_wire::json::parse(&text)
                    .map_err(|_| Fault::new(codes::INTERNAL, "corrupt method record"))
            }
            "system.auth" => self.auth(ctx, params_in),
            "system.whoami" => Ok(Value::from(ctx.require_identity()?.to_string())),
            "system.logout" => match &ctx.session {
                Some(session) => Ok(Value::Bool(ctx.core.sessions.logout(&session.id))),
                None => Ok(Value::Bool(false)),
            },
            "system.version" => Ok(Value::from(VERSION)),
            "system.ping" => Ok(Value::from("pong")),
            "system.health" => {
                // Public (like ping): the election manager on peer nodes
                // queries this to rank promotion candidates by exact WAL
                // cursor, and operators point probes at it. Reports only
                // coarse cluster-role facts, no user or store data.
                let fed = &ctx.core.federation;
                let role = match fed.role() {
                    crate::config::FederationRole::Leader => "leader",
                    crate::config::FederationRole::Follower => "follower",
                    crate::config::FederationRole::Standalone => "standalone",
                };
                let degraded = ctx.core.store.is_degraded();
                let lag = ctx
                    .core
                    .replication_lag
                    .load(std::sync::atomic::Ordering::Relaxed);
                let ready = !degraded
                    && (fed.role() != crate::config::FederationRole::Leader || fed.is_writable());
                Ok(Value::structure([
                    ("ready", Value::Bool(ready)),
                    ("role", Value::from(role)),
                    ("leader_epoch", Value::Int(fed.epoch() as i64)),
                    ("leader", Value::from(fed.leader())),
                    ("wal_offset", Value::Int(ctx.core.store.wal_offset() as i64)),
                    (
                        "fence_epoch",
                        Value::Int(ctx.core.store.fence_epoch() as i64),
                    ),
                    // Leader-log offset a follower has applied; elections
                    // rank promotion candidates by this, not wal_offset.
                    ("applied", Value::Int(fed.applied() as i64)),
                    ("replication_lag", Value::Int(lag as i64)),
                    ("degraded", Value::Bool(degraded)),
                ]))
            }
            "system.session_count" => {
                let dn = ctx.require_identity()?;
                if !ctx.core.vo.is_site_admin(dn) {
                    return Err(Fault::access_denied("session_count requires site admin"));
                }
                Ok(Value::Int(ctx.core.sessions.count() as i64))
            }
            "system.stats" => {
                let dn = ctx.require_identity()?;
                if !ctx.core.vo.is_site_admin(dn) {
                    return Err(Fault::access_denied("stats requires site admin"));
                }
                // Served from the telemetry gauge registry: the same
                // numbers `system.metrics` and `GET /metrics` export.
                let gauge =
                    |name: &str| Value::Int(ctx.core.telemetry.gauge(name).unwrap_or(0) as i64);
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
            "system.metrics" => {
                let dn = ctx.require_identity()?;
                if !ctx.core.vo.is_site_admin(dn) {
                    return Err(Fault::access_denied("metrics requires site admin"));
                }
                Ok(metrics_snapshot(&ctx.core.telemetry))
            }
            "system.trace_tail" => {
                let dn = ctx.require_identity()?;
                if !ctx.core.vo.is_site_admin(dn) {
                    return Err(Fault::access_denied("trace_tail requires site admin"));
                }
                let limit = match params_in.first() {
                    None => 16,
                    Some(v) => v
                        .as_int()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| Fault::bad_params("limit must be a positive int"))?
                        as usize,
                };
                let tail = ctx.core.telemetry.trace_tail(limit);
                Ok(Value::Array(tail.iter().map(slow_trace_value).collect()))
            }
            other => Err(unhandled(other)),
        }
    }
}

impl SystemService {
    /// `system.auth(chain: [string], timestamp: int, signature: bytes)`.
    ///
    /// The challenge is self-dated: the client signs
    /// `clarens-auth:<timestamp>` with its leaf key; the server accepts it
    /// within the configured clock-skew window. The chain is validated
    /// against the server's trust roots; proxy chains authenticate as the
    /// underlying user (paper §2.6 delegation semantics).
    fn auth(&self, ctx: &CallContext<'_>, params_in: &[Value]) -> Result<Value, Fault> {
        let chain_values = params_in[0]
            .as_array()
            .ok_or_else(|| Fault::bad_params("parameter 0 (chain) must be an array"))?;
        let timestamp = params::int(params_in, 1, "timestamp")?;
        let signature = params::bytes(params_in, 2, "signature")?;

        let mut chain = Vec::with_capacity(chain_values.len());
        for value in chain_values {
            let text = value
                .as_str()
                .ok_or_else(|| Fault::bad_params("chain entries must be certificate text"))?;
            chain.push(
                Certificate::from_text(text)
                    .map_err(|e| Fault::bad_params(format!("bad certificate: {e}")))?,
            );
        }
        if chain.is_empty() {
            return Err(Fault::bad_params("empty certificate chain"));
        }

        let skew = ctx.core.config.auth_skew;
        if (ctx.now - timestamp).abs() > skew {
            return Err(Fault::not_authenticated(format!(
                "challenge timestamp outside ±{skew}s window"
            )));
        }

        let identity = verify_chain(&chain, &ctx.core.roots, ctx.now)
            .map_err(|e| Fault::not_authenticated(format!("certificate chain invalid: {e}")))?;

        let message = auth_challenge(timestamp);
        chain[0]
            .public_key
            .verify(message.as_bytes(), &signature)
            .map_err(|_| Fault::not_authenticated("challenge signature invalid"))?;

        let session = ctx.core.sessions.create(&identity, ctx.now);
        Ok(Value::structure([
            ("session", Value::from(session.id)),
            ("dn", Value::from(identity.to_string())),
            ("expires", Value::Int(session.expires)),
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
    let http = &telemetry.http;
    let http_value = Value::structure([
        ("connections", Value::Int(http.connections.get() as i64)),
        ("requests", Value::Int(http.requests.get() as i64)),
        (
            "keepalive_reuse",
            Value::Int(http.keepalive_reuse.get() as i64),
        ),
        ("idle_timeouts", Value::Int(http.idle_timeouts.get() as i64)),
        ("peer_resets", Value::Int(http.peer_resets.get() as i64)),
        (
            "handshake_failures",
            Value::Int(http.handshake_failures.get() as i64),
        ),
        ("responses_5xx", Value::Int(http.responses_5xx.get() as i64)),
    ]);
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
        ("http", http_value),
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
