//! Service registry and the call gate.
//!
//! Clarens services are modules exporting hierarchically-named methods
//! (`module.method`, paper §2.2). A method is declared once, as a
//! [`MethodInfo`] row in its service's table: the row is what the
//! registry indexes, what `system.list_methods` lists (every descriptor is
//! mirrored into the database — which is what makes that call "incur a
//! database lookup for all registered methods in the server" exactly as
//! the paper's Figure-4 workload describes), and what [`invoke`] — the one
//! path every invocation takes, direct or through `proxy.call` — reads its
//! guards from.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens_db::Store;
use clarens_pki::dn::DistinguishedName;
use clarens_telemetry::{Phase, RequestTrace};
use clarens_wire::fault::codes;
use clarens_wire::{Fault, Value};

use crate::session::Session;

/// DB bucket mirroring registered method descriptors.
pub const METHODS_BUCKET: &str = "methods";

/// The one declaration of an exported method: what introspection
/// publishes (name, signature, doc) and what the gate enforces (arity and
/// the three class flags). Built with [`MethodInfo::new`] and the flag
/// setters, in a service's `static` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodInfo {
    /// Full dotted name, e.g. `file.read`.
    pub name: &'static str,
    /// Human-readable signature, e.g. `file.read(name, offset, nbytes)`.
    pub signature: &'static str,
    /// One-line description.
    pub doc: &'static str,
    /// Fewest positional parameters a call may carry.
    pub min_params: usize,
    /// Most positional parameters a call may carry.
    pub max_params: usize,
    /// Callable without an authenticated identity (the methods that
    /// establish or bootstrap one). Everything else requires a session or
    /// TLS identity plus an ACL grant.
    pub public: bool,
    /// Mutates the *replicated* store (sessions, VO groups, ACLs, stored
    /// proxies, IM mailboxes). On a federated node only the current leader
    /// runs it — anyone else answers `NOT_LEADER` with a routing hint — and
    /// an election-managed leader acknowledges it only once a follower has
    /// fetched past it (DESIGN.md §14).
    pub replicated: bool,
    /// A client may send it again after a transport failure that leaves
    /// the first attempt's fate unknown: running it twice duplicates no
    /// side effect.
    pub idempotent: bool,
}

impl MethodInfo {
    /// A method taking exactly `params` positional parameters; no flag set.
    pub const fn new(
        name: &'static str,
        signature: &'static str,
        doc: &'static str,
        params: usize,
    ) -> Self {
        MethodInfo {
            name,
            signature,
            doc,
            min_params: params,
            max_params: params,
            public: false,
            replicated: false,
            idempotent: false,
        }
    }

    /// Accept up to `max` parameters (the trailing ones are optional).
    pub const fn up_to(mut self, max: usize) -> Self {
        self.max_params = max;
        self
    }

    /// Set [`public`](Self::public).
    pub const fn public(mut self) -> Self {
        self.public = true;
        self
    }

    /// Set [`replicated`](Self::replicated).
    pub const fn replicated(mut self) -> Self {
        self.replicated = true;
        self
    }

    /// Set [`idempotent`](Self::idempotent).
    pub const fn idempotent(mut self) -> Self {
        self.idempotent = true;
        self
    }

    /// The module: the first component of the name.
    pub fn module(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Per-call context handed to services. Identity and session are shared
/// pointers into the resolved-session cache, so building a context does
/// not copy any per-request strings.
pub struct CallContext<'a> {
    /// The server core (config, DB, sessions, VO, ACL, ...).
    pub core: &'a crate::core::ClarensCore,
    /// Authenticated caller identity, if any.
    pub identity: Option<Arc<DistinguishedName>>,
    /// The validated session, if the call carried one.
    pub session: Option<Arc<Session>>,
    /// Request time (Unix seconds).
    pub now: i64,
    /// When the request's budget expires (`None` = no deadline), set where
    /// the request enters. Long handlers check it cooperatively via
    /// [`CallContext::check_deadline`] so a stuck disk or an oversized scan
    /// turns into a clean 504-style fault instead of an unbounded stall,
    /// and the gate refuses to report success past it.
    pub deadline: Option<Instant>,
    /// How many `proxy.call` forwards this request has already taken,
    /// parsed from the `x-clarens-hops` header (0 for a direct call). The
    /// proxy service refuses to forward once it reaches the configured
    /// `proxy_max_hops`, so two nodes that each believe the other owns a
    /// module bounce a request a bounded number of times instead of
    /// forever.
    pub hops: u32,
}

impl<'a> CallContext<'a> {
    /// The caller DN, or a NOT_AUTHENTICATED fault.
    pub fn require_identity(&self) -> Result<&DistinguishedName, Fault> {
        self.identity
            .as_deref()
            .ok_or_else(|| Fault::not_authenticated("this method requires authentication"))
    }

    /// Budget left before the request deadline (`None` = unlimited).
    pub fn remaining_budget(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// `Ok` while budget remains; a [`Fault::deadline`] once it expired.
    pub fn check_deadline(&self) -> Result<(), Fault> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(Fault::deadline("request deadline exceeded")),
            _ => Ok(()),
        }
    }
}

/// A Clarens service module.
pub trait Service: Send + Sync {
    /// The methods this module exports, one row each. All rows share the
    /// module prefix.
    fn methods(&self) -> &'static [MethodInfo];

    /// Run `method` (the full dotted name of one of [`methods`](Self::methods))
    /// with `params`. Only [`invoke`] calls this, after the row's guards
    /// passed — in particular `params` already has a legal length.
    fn call(&self, ctx: &CallContext<'_>, method: &str, params: &[Value]) -> Result<Value, Fault>;
}

/// What a service's `match` answers for a name it has no arm for. The
/// gate only passes names from the service's own table, so this marks a
/// row added without its arm.
pub fn unhandled(method: &str) -> Fault {
    Fault::new(
        codes::INTERNAL,
        format!("{method} is declared but not implemented"),
    )
}

/// The registry: every exported method, by full name.
#[derive(Default)]
pub struct Registry {
    methods: BTreeMap<&'static str, (&'static MethodInfo, Arc<dyn Service>)>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a service, mirroring its methods into the store.
    pub fn register(&mut self, service: Arc<dyn Service>, store: &Store) {
        for info in service.methods() {
            let value = Value::structure([
                ("signature", Value::from(info.signature)),
                ("doc", Value::from(info.doc)),
            ]);
            let _ = store.put(
                METHODS_BUCKET,
                info.name,
                clarens_wire::json::to_string(&value).into_bytes(),
            );
            self.methods.insert(info.name, (info, Arc::clone(&service)));
        }
    }

    /// The record of `method` and the service that runs it.
    pub fn lookup(&self, method: &str) -> Option<(&'static MethodInfo, Arc<dyn Service>)> {
        self.methods.get(method).cloned()
    }

    /// Registered module names, sorted.
    pub fn modules(&self) -> Vec<&'static str> {
        let mut modules: Vec<_> = self
            .methods
            .values()
            .map(|(info, _)| info.module())
            .collect();
        modules.dedup();
        modules
    }
}

/// The gate: the one path from a method name to its handler. A direct RPC
/// (`ClarensHandler::dispatch`) and the local leg of `proxy.call` both end
/// here, so every guard below holds for every invocation:
///
/// 1. the name must be exported (`NO_SUCH_METHOD`);
/// 2. unless the method is public, the caller must be authenticated — the
///    paper's first access check — and
/// 3. the method ACL must admit them — its second, "whether the client
///    has access to the particular method being called";
/// 4. epoch fence (DESIGN.md §14): a replicated write runs only on the
///    current leader. A follower, a deposed leader, or a leader whose
///    lease lapsed (split-brain partition) answers `NOT_LEADER` with a
///    routing hint instead of mutating state the rest of the cluster will
///    never see;
/// 5. the parameter count must fit the record;
/// 6. the handler runs, with no registry lock held (it may come back here
///    through `proxy.call`);
/// 7. a handler that overran `ctx.deadline` gets the 504-style fault even
///    if it eventually produced a value: the caller's own deadline has
///    long passed, and reporting success would hide the stall;
/// 8. a replicated write is acknowledged only past the replicated-ack
///    barrier (`replicated_ack_barrier`).
///
/// `trace` times the ACL check and the handler; a nested call passes a
/// disabled one, its time being inside the outer handler's span already.
pub fn invoke(
    ctx: &CallContext<'_>,
    method: &str,
    params: &[Value],
    trace: &mut RequestTrace,
) -> Result<Value, Fault> {
    let core = ctx.core;
    let Some((info, service)) = core.registry.read().lookup(method) else {
        return Err(Fault::new(
            codes::NO_SUCH_METHOD,
            format!("no service exports {method}"),
        ));
    };
    if !info.public {
        let Some(identity) = &ctx.identity else {
            return Err(Fault::not_authenticated(format!(
                "{method} requires an authenticated session"
            )));
        };
        // A session already carries the rendered DN string, which the
        // decision cache can key on without re-rendering the identity.
        let allowed = trace.span(Phase::Acl, || match &ctx.session {
            Some(session) => core
                .acl
                .check_method_keyed(method, identity, &session.dn, &core.vo),
            None => core.acl.check_method(method, identity, &core.vo),
        });
        if !allowed {
            return Err(Fault::access_denied(format!(
                "{identity} may not call {method}"
            )));
        }
    }
    let fed = &core.federation;
    if info.replicated && fed.is_federated() && !fed.is_writable() {
        core.telemetry.federation.fenced_writes.inc();
        return Err(Fault::not_leader(&fed.leader(), fed.epoch()));
    }
    if !(info.min_params..=info.max_params).contains(&params.len()) {
        let expected = if info.min_params == info.max_params {
            format!("{} parameter(s)", info.min_params)
        } else {
            format!("{}..{} parameters", info.min_params, info.max_params)
        };
        return Err(Fault::bad_params(format!(
            "{method} expects {expected}, got {}",
            params.len()
        )));
    }
    let result = trace.span(Phase::Dispatch, || service.call(ctx, method, params));
    if ctx.check_deadline().is_err() {
        return Err(Fault::deadline(format!(
            "{method} exceeded the {} ms request deadline",
            core.config.request_deadline_ms
        )));
    }
    let value = result?;
    if info.replicated {
        replicated_ack_barrier(ctx, method)?;
    }
    Ok(value)
}

/// Replicated-ack write barrier (DESIGN.md §14). On an election-managed
/// leader, a replicated write is only acknowledged once a follower's
/// fetch cursor has passed this node's committed WAL length — a fetch at
/// offset X proves the follower applied every record below X, so an
/// acknowledged write survives this node's death. Statically-configured
/// leaders (elections off) and clusters with no actively polling follower
/// skip the wait: there is nobody to hand leadership to, so leader-local
/// durability is the best available guarantee.
fn replicated_ack_barrier(ctx: &CallContext<'_>, method: &str) -> Result<(), Fault> {
    let core = ctx.core;
    let fed = &core.federation;
    if !fed.lease_managed() || !fed.is_writable() {
        // The handler already ran — the pre-dispatch fence passed and
        // the lease lapsed during execution. `executed=maybe` keeps
        // clients from blindly replaying the mutation at the new
        // leader: the write may survive via replication, and a replay
        // would double-execute it.
        if fed.lease_managed() && fed.is_federated() {
            core.telemetry.federation.fenced_writes.inc();
            return Err(Fault::not_leader_executed(&fed.leader(), fed.epoch()));
        }
        return Ok(());
    }
    if !fed.follower_active_within(Duration::from_secs(2)) {
        return Ok(());
    }
    let target = core.store.wal_offset();
    let hard_cap = Instant::now() + Duration::from_millis(core.config.leader_lease_ms.max(100));
    loop {
        if fed.follower_cursor() >= target {
            return Ok(());
        }
        if !fed.is_writable() {
            // Lease lapsed mid-wait: a rival may already be leader and
            // this write may not survive — refuse the ack, marked as
            // post-execution so clients don't replay the mutation.
            core.telemetry.federation.fenced_writes.inc();
            return Err(Fault::not_leader_executed(&fed.leader(), fed.epoch()));
        }
        let now = Instant::now();
        if now >= hard_cap || ctx.deadline.is_some_and(|d| now >= d) {
            return Err(Fault::service(format!(
                "{method} applied locally but no follower confirmed replication in time"
            )));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Helpers for decoding positional parameters with good fault messages.
/// (How many there are is the gate's check, against the method's record.)
pub mod params {
    use super::*;

    /// Decode a string parameter.
    pub fn string(params: &[Value], index: usize, name: &str) -> Result<String, Fault> {
        params
            .get(index)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| {
                Fault::bad_params(format!("parameter {index} ({name}) must be a string"))
            })
    }

    /// Decode an integer parameter.
    pub fn int(params: &[Value], index: usize, name: &str) -> Result<i64, Fault> {
        params
            .get(index)
            .and_then(Value::as_int)
            .ok_or_else(|| Fault::bad_params(format!("parameter {index} ({name}) must be an int")))
    }

    /// Decode a bytes parameter (base64 string accepted for JSON clients).
    pub fn bytes(params: &[Value], index: usize, name: &str) -> Result<Vec<u8>, Fault> {
        params
            .get(index)
            .and_then(Value::coerce_bytes)
            .ok_or_else(|| {
                Fault::bad_params(format!("parameter {index} ({name}) must be base64/bytes"))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct EchoService;

    static ECHO_METHODS: [MethodInfo; 2] = [
        MethodInfo::new("echo.echo", "echo.echo(value)", "returns its argument", 0).up_to(1),
        MethodInfo::new("echo.reverse", "echo.reverse(s)", "reverses a string", 1),
    ];

    impl Service for EchoService {
        fn methods(&self) -> &'static [MethodInfo] {
            &ECHO_METHODS
        }

        fn call(
            &self,
            _ctx: &CallContext<'_>,
            method: &str,
            params: &[Value],
        ) -> Result<Value, Fault> {
            match method {
                "echo.echo" => Ok(params.first().cloned().unwrap_or(Value::Nil)),
                "echo.reverse" => {
                    let s = params::string(params, 0, "s")?;
                    Ok(Value::from(s.chars().rev().collect::<String>()))
                }
                other => Err(unhandled(other)),
            }
        }
    }

    #[test]
    fn register_and_lookup() {
        let store = Store::in_memory();
        let mut registry = Registry::new();
        registry.register(Arc::new(EchoService), &store);

        let (info, _) = registry.lookup("echo.reverse").unwrap();
        assert_eq!((info.min_params, info.max_params), (1, 1));
        assert_eq!(info.module(), "echo");
        assert!(registry.lookup("echo.echo").is_some());
        // Lookup is by full name: a module is not an export.
        assert!(registry.lookup("echo.missing").is_none());
        assert!(registry.lookup("missing.method").is_none());
        assert_eq!(registry.modules(), vec!["echo"]);

        // Methods mirrored into the DB (the Figure-4 lookup source).
        assert_eq!(store.len(METHODS_BUCKET), 2);
        assert!(store.contains(METHODS_BUCKET, "echo.echo"));
    }

    #[test]
    fn param_helpers() {
        use params::*;
        let p = vec![Value::from("abc"), Value::Int(7), Value::Bytes(vec![1, 2])];
        assert_eq!(string(&p, 0, "s").unwrap(), "abc");
        assert!(string(&p, 1, "s").is_err());
        assert_eq!(int(&p, 1, "i").unwrap(), 7);
        assert!(int(&p, 0, "i").is_err());
        assert_eq!(bytes(&p, 2, "b").unwrap(), vec![1, 2]);
        // base64 string coerces to bytes for JSON clients.
        let jp = vec![Value::from(clarens_wire::base64::encode(b"hi"))];
        assert_eq!(bytes(&jp, 0, "b").unwrap(), b"hi");
        assert!(string(&p, 9, "missing").is_err());
    }
}
