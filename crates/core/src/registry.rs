//! Service registry and the call gate.
//!
//! Clarens services are modules exporting hierarchically-named methods
//! (`module.method`, paper §2.2). A method is declared once, as a
//! [`Method`] row in its service's table: name, doc, typed parameters,
//! class flags and the handler. The row is what the registry indexes, what
//! `system.list_methods` lists (every descriptor is mirrored into the
//! database — which is what makes that call "incur a database lookup for
//! all registered methods in the server" exactly as the paper's Figure-4
//! workload describes), and what [`invoke`] — the one path every
//! invocation takes, direct or through `proxy.call` — reads its guards
//! from before it runs the handler.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable)]

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens_db::Store;
use clarens_pki::dn::DistinguishedName;
use clarens_telemetry::{Phase, RequestTrace};
use clarens_wire::fault::codes;
use clarens_wire::{Fault, Value};

use crate::core::ClarensCore;
use crate::federation::confirms;
use crate::session::Session;

/// DB bucket mirroring registered method descriptors. It lists what this
/// process exports, so it is node-local ([`clarens_db::NODE_LOCAL`]): a
/// persistent store neither logs nor recovers it, every start begins with
/// it empty, and no follower ever receives its leader's table.
pub const METHODS_BUCKET: &str = "local.methods";

/// Most parameters a row may declare: a handler cannot read past them.
const MAX_PARAMS: usize = 3;

/// A parameter type, in the XML-RPC introspection vocabulary, plus `any`
/// for an argument that is genuinely a union.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Type {
    /// A string.
    String,
    /// An integer; an integral double is accepted (JSON cannot tell `2`
    /// from `2.0`).
    Int,
    /// A boolean.
    Boolean,
    /// Bytes; a base64 string is accepted (JSON has no binary type).
    Base64,
    /// An array of anything.
    Array,
    /// A struct of anything.
    Struct,
    /// Any value; the handler decides.
    Any,
}

impl Type {
    /// The introspection name.
    fn name(self) -> &'static str {
        match self {
            Type::String => "string",
            Type::Int => "int",
            Type::Boolean => "boolean",
            Type::Base64 => "base64",
            Type::Array => "array",
            Type::Struct => "struct",
            Type::Any => "any",
        }
    }

    /// `value` read as this type, with the two coercions above; `None` if
    /// it is not one.
    fn check(self, value: &Value) -> Option<Arg<'_>> {
        Some(match (self, value) {
            (Type::String, Value::Str(s)) => Arg::Str(s),
            (Type::Int, v) => Arg::Int(v.as_int()?),
            (Type::Boolean, Value::Bool(b)) => Arg::Bool(*b),
            (Type::Base64, Value::Bytes(b)) => Arg::Bytes(Cow::Borrowed(b)),
            (Type::Base64, Value::Str(s)) => {
                Arg::Bytes(Cow::Owned(clarens_wire::base64::decode(s).ok()?))
            }
            (Type::Array, Value::Array(items)) => Arg::Array(items),
            (Type::Struct, Value::Struct(map)) => Arg::Struct(map),
            (Type::Any, v) => Arg::Any(v),
            _ => return None,
        })
    }
}

/// One declared positional parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Param {
    /// Its name, as the signature and the `BAD_PARAMS` message show it.
    pub name: &'static str,
    /// Its type.
    pub ty: Type,
    /// May be left off. Only a tail of the list may be.
    pub optional: bool,
}

impl Param {
    /// Make the parameter optional.
    pub const fn optional(mut self) -> Self {
        self.optional = true;
        self
    }
}

/// Parameter constructors, one per [`Type`].
pub mod param {
    use super::{Param, Type};

    const fn param(name: &'static str, ty: Type) -> Param {
        Param {
            name,
            ty,
            optional: false,
        }
    }

    /// A `string` parameter.
    pub const fn string(name: &'static str) -> Param {
        param(name, Type::String)
    }

    /// An `int` parameter.
    pub const fn int(name: &'static str) -> Param {
        param(name, Type::Int)
    }

    /// A `boolean` parameter.
    pub const fn boolean(name: &'static str) -> Param {
        param(name, Type::Boolean)
    }

    /// A `base64` parameter.
    pub const fn base64(name: &'static str) -> Param {
        param(name, Type::Base64)
    }

    /// An `array` parameter.
    pub const fn array(name: &'static str) -> Param {
        param(name, Type::Array)
    }

    /// A `struct` parameter.
    pub const fn structure(name: &'static str) -> Param {
        param(name, Type::Struct)
    }

    /// An `any` parameter.
    pub const fn any(name: &'static str) -> Param {
        param(name, Type::Any)
    }
}

/// What a row declares, without its handler: what introspection publishes
/// and what the gate enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodInfo {
    /// Full dotted name, e.g. `file.read`.
    pub name: &'static str,
    /// One-line description.
    pub doc: &'static str,
    /// The positional parameters.
    pub params: &'static [Param],
    /// Callable without an authenticated identity (the methods that
    /// establish or bootstrap one). Everything else requires a session or
    /// TLS identity plus an ACL grant.
    pub public: bool,
    /// Mutates the *replicated* store (sessions, VO groups, ACLs, stored
    /// proxies, IM mailboxes). On a federated node only the current leader
    /// runs it, inside a lease it has renewed — anyone else answers
    /// `NOT_LEADER` with a routing hint — and, while followers fetch, it
    /// acknowledges it only once a follower has fetched past it
    /// (DESIGN.md §14).
    pub replicated: bool,
    /// A client may send it again after a transport failure that leaves
    /// the first attempt's fate unknown: running it twice duplicates no
    /// side effect.
    pub idempotent: bool,
    /// Site administrators only (members of the root `admins` group).
    pub admin: bool,
}

impl MethodInfo {
    /// The module: the first component of the name.
    pub fn module(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Fewest parameters a call may carry: those before the optional tail.
    pub fn min_params(&self) -> usize {
        self.params.iter().take_while(|p| !p.optional).count()
    }

    /// Most parameters a call may carry.
    pub fn max_params(&self) -> usize {
        self.params.len()
    }

    /// The published signature, e.g. `proxy.call(method, [params])`.
    pub fn signature(&self) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|p| {
                if p.optional {
                    format!("[{}]", p.name)
                } else {
                    p.name.to_owned()
                }
            })
            .collect();
        format!("{}({})", self.name, params.join(", "))
    }
}

/// A handler: the service's own state, the call context, the checked
/// arguments.
pub type Handler<S> = fn(&S, &CallContext<'_>, &Args<'_>) -> Result<Value, Fault>;

/// A method: one row of a service's table.
pub struct Method<S> {
    /// Everything but the handler.
    pub info: MethodInfo,
    /// Runs the call, once the gate's guards passed.
    pub run: Handler<S>,
}

impl<S> Method<S> {
    /// A method with no class flag set.
    pub const fn new(
        name: &'static str,
        doc: &'static str,
        params: &'static [Param],
        run: Handler<S>,
    ) -> Self {
        let info = MethodInfo {
            name,
            doc,
            params,
            public: false,
            replicated: false,
            idempotent: false,
            admin: false,
        };
        Method { info, run }
    }

    /// Set [`public`](MethodInfo::public).
    pub const fn public(mut self) -> Self {
        self.info.public = true;
        self
    }

    /// Set [`replicated`](MethodInfo::replicated).
    pub const fn replicated(mut self) -> Self {
        self.info.replicated = true;
        self
    }

    /// Set [`idempotent`](MethodInfo::idempotent).
    pub const fn idempotent(mut self) -> Self {
        self.info.idempotent = true;
        self
    }

    /// Set [`admin`](MethodInfo::admin).
    pub const fn admin(mut self) -> Self {
        self.info.admin = true;
        self
    }
}

/// A Clarens service module: its state is `Self`, its methods one table.
pub trait Service: Send + Sync + Sized + 'static {
    /// The methods this module exports, one row each. All rows share the
    /// module prefix.
    const METHODS: &'static [Method<Self>];
}

/// One argument, read as its declared type.
#[derive(Debug, Default)]
enum Arg<'a> {
    #[default]
    Absent,
    Str(&'a str),
    Int(i64),
    Bool(bool),
    Bytes(Cow<'a, [u8]>),
    Array(&'a [Value]),
    Struct(&'a BTreeMap<String, Value>),
    Any(&'a Value),
}

/// The arguments of one call, checked against the row's parameter list and
/// decoded once. A handler reads them by position; an accessor errs only
/// if that position was not declared with its type or was left off, so on
/// an optional parameter `.ok()` / `.unwrap_or(default)` reads "absent".
#[derive(Debug, Default)]
pub struct Args<'a> {
    slots: [Arg<'a>; MAX_PARAMS],
}

impl<'a> Args<'a> {
    /// Check `values` against `info`: arity, then each type in order.
    pub fn check(info: &MethodInfo, values: &'a [Value]) -> Result<Args<'a>, Fault> {
        let (min, max) = (info.min_params(), info.max_params());
        if !(min..=max).contains(&values.len()) {
            let expected = if min == max {
                format!("{min} parameter(s)")
            } else {
                format!("{min}..{max} parameters")
            };
            return Err(Fault::bad_params(format!(
                "{} expects {expected}, got {}",
                info.name,
                values.len()
            )));
        }
        let mut args = Args::default();
        let slots = info.params.iter().zip(values).zip(&mut args.slots);
        for (i, ((param, value), slot)) in slots.enumerate() {
            *slot = param.ty.check(value).ok_or_else(|| {
                Fault::bad_params(format!(
                    "{} parameter {i} ({}) must be {}, got {}",
                    info.name,
                    param.name,
                    param.ty.name(),
                    value.type_name()
                ))
            })?;
        }
        Ok(args)
    }

    /// A `string` argument.
    pub fn str(&self, i: usize) -> Result<&'a str, Fault> {
        match self.slots.get(i) {
            Some(Arg::Str(s)) => Ok(s),
            _ => Err(unchecked(i, Type::String)),
        }
    }

    /// An `int` argument.
    pub fn int(&self, i: usize) -> Result<i64, Fault> {
        match self.slots.get(i) {
            Some(Arg::Int(n)) => Ok(*n),
            _ => Err(unchecked(i, Type::Int)),
        }
    }

    /// A `boolean` argument.
    pub fn boolean(&self, i: usize) -> Result<bool, Fault> {
        match self.slots.get(i) {
            Some(Arg::Bool(b)) => Ok(*b),
            _ => Err(unchecked(i, Type::Boolean)),
        }
    }

    /// A `base64` argument.
    pub fn bytes(&self, i: usize) -> Result<&[u8], Fault> {
        match self.slots.get(i) {
            Some(Arg::Bytes(b)) => Ok(b),
            _ => Err(unchecked(i, Type::Base64)),
        }
    }

    /// An `array` argument.
    pub fn array(&self, i: usize) -> Result<&'a [Value], Fault> {
        match self.slots.get(i) {
            Some(Arg::Array(items)) => Ok(items),
            _ => Err(unchecked(i, Type::Array)),
        }
    }

    /// A `struct` argument.
    pub fn structure(&self, i: usize) -> Result<&'a BTreeMap<String, Value>, Fault> {
        match self.slots.get(i) {
            Some(Arg::Struct(map)) => Ok(map),
            _ => Err(unchecked(i, Type::Struct)),
        }
    }

    /// An `any` argument.
    pub fn value(&self, i: usize) -> Result<&'a Value, Fault> {
        match self.slots.get(i) {
            Some(Arg::Any(v)) => Ok(v),
            _ => Err(unchecked(i, Type::Any)),
        }
    }
}

/// A handler asked for an argument its row does not declare that way.
fn unchecked(i: usize, ty: Type) -> Fault {
    Fault::new(
        codes::INTERNAL,
        format!("parameter {i} was not checked as {}", ty.name()),
    )
}

/// Per-call context handed to services. Identity and session are shared
/// pointers into the resolved-session cache, so building a context does
/// not copy any per-request strings.
pub struct CallContext<'a> {
    /// The server core (config, DB, sessions, VO, ACL, ...).
    pub core: &'a Arc<ClarensCore>,
    /// Authenticated caller identity, if any. The gate runs a non-public
    /// method only with one.
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
    /// What the reply must wait for, if anything: recorded by the gate
    /// (a replicated write's ack) or a handler (a caught-up
    /// `replication.fetch`, `job.wait`), and held by the server. `None`
    /// to start with.
    pub hold: Cell<Option<Hold>>,
}

/// A reply that waits off the worker, as [`clarens_httpd::Held`] does
/// (DESIGN.md §4): once `ready` says so or `deadline` passes, `answer`
/// turns the value the call returned into the reply.
pub struct Hold {
    /// When the reply is answered, ready or not.
    pub deadline: Instant,
    /// Is the reply ready? Registers the waker with the watermark it reads.
    pub ready: clarens_httpd::Ready,
    /// The reply, given the value the call returned.
    pub answer: Box<dyn FnOnce(Value) -> Result<Value, Fault> + Send>,
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

/// A row's handler bound to its service's state.
type Bound = Arc<dyn Fn(&CallContext<'_>, &Args<'_>) -> Result<Value, Fault> + Send + Sync>;

/// The registry: every exported method, by full name.
#[derive(Default)]
pub struct Registry {
    methods: BTreeMap<&'static str, (&'static MethodInfo, Bound)>,
}

impl Registry {
    /// Register a service, mirroring its methods into the store.
    pub fn register<S: Service>(&mut self, service: Arc<S>, store: &Store) {
        for row in S::METHODS {
            let info = &row.info;
            let value = Value::structure([
                ("signature", Value::from(info.signature())),
                ("doc", Value::from(info.doc)),
            ]);
            let _ = store.put(
                METHODS_BUCKET,
                info.name,
                clarens_wire::json::to_string(&value).into_bytes(),
            );
            let (state, run) = (Arc::clone(&service), row.run);
            let bound: Bound =
                Arc::new(move |ctx: &CallContext<'_>, args: &Args<'_>| run(&state, ctx, args));
            self.methods.insert(info.name, (info, bound));
        }
    }

    /// The record of `method`.
    pub fn lookup(&self, method: &str) -> Option<&'static MethodInfo> {
        self.methods.get(method).map(|(info, _)| *info)
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
/// 4. an `admin` method admits site administrators only (`ACCESS_DENIED`);
/// 5. epoch fence (DESIGN.md §14): a replicated write runs only on the
///    current leader. A follower, a deposed leader, or a leader whose
///    lease lapsed (split-brain partition) answers `NOT_LEADER` with a
///    routing hint instead of mutating state the rest of the cluster will
///    never see;
/// 6. the parameter count must fit the row, then each argument its
///    declared type ([`Args::check`], `BAD_PARAMS`);
/// 7. the handler runs, with no registry lock held (it may come back here
///    through `proxy.call`);
/// 8. a handler that overran `ctx.deadline` gets the 504-style fault even
///    if it eventually produced a value: the caller's own deadline has
///    long passed, and reporting success would hide the stall;
/// 9. a replicated write is acknowledged only past the replicated-ack
///    barrier (`replicated_ack_barrier`), which holds the reply
///    ([`CallContext::hold`]) rather than waiting here.
///
/// `trace` names the method and times the ACL check and the handler; a
/// nested call passes a disabled one, its time being inside the outer
/// handler's span already.
pub fn invoke(
    ctx: &CallContext<'_>,
    method: &str,
    params: &[Value],
    trace: &mut RequestTrace,
) -> Result<Value, Fault> {
    let core = ctx.core;
    let Some((info, run)) = core.registry.read().methods.get(method).cloned() else {
        return Err(Fault::new(
            codes::NO_SUCH_METHOD,
            format!("no service exports {method}"),
        ));
    };
    // Named only once the row is found: per-method statistics are kept for
    // the methods this node exports, never for a name a caller made up.
    trace.method = Some(info.name.to_owned());
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
    if info.admin
        && !ctx
            .identity
            .as_deref()
            .is_some_and(|dn| core.vo.is_site_admin(dn))
    {
        return Err(Fault::access_denied(format!(
            "{method} requires site admin"
        )));
    }
    let fed = &core.federation;
    if info.replicated && fed.is_federated() && !fed.is_writable() {
        core.telemetry.federation.fenced_writes.inc();
        return Err(Fault::not_leader(&fed.leader(), fed.epoch()));
    }
    let args = Args::check(info, params)?;
    let result = trace.span(Phase::Dispatch, || run(ctx, &args));
    if ctx.check_deadline().is_err() {
        return Err(Fault::deadline(format!(
            "{method} exceeded the {} ms request deadline",
            core.config.request_deadline_ms
        )));
    }
    let value = result?;
    if info.replicated && fed.is_federated() {
        replicated_ack_barrier(ctx, method)?;
    }
    Ok(value)
}

/// Replicated-ack write barrier (DESIGN.md §14). A federated node acks a
/// replicated write only while it leads inside a renewed lease, and, while
/// some follower has fetched within the last 2 s, only once a follower's
/// fetch cursor has passed the write's WAL position in the same WAL epoch
/// — a fetch at `(epoch, X)` proves the follower applied every record of
/// that epoch below X, so the write survives this node's death. With no
/// follower fetching there is nobody to hand leadership to, and
/// leader-local durability is the best available guarantee. The wait is a
/// [`Hold`] on the follower cursor: answered once a follower confirms the
/// write, the node stops leading (a role or epoch change wakes it), or one
/// lease (at least 100 ms, and within the request deadline) passes.
fn replicated_ack_barrier(ctx: &CallContext<'_>, method: &str) -> Result<(), Fault> {
    let (core, fed) = (Arc::clone(ctx.core), &ctx.core.federation);
    let target = core.store.wal_position();
    if !fed.follower_active_within(Duration::from_secs(2)) {
        return still_leads(&core);
    }
    let cap = Instant::now() + Duration::from_millis(core.config.leader_lease_ms.max(100));
    let (waiting, method) = (Arc::clone(&core), method.to_owned());
    ctx.hold.set(Some(Hold {
        deadline: ctx.deadline.map_or(cap, |d| d.min(cap)),
        ready: Box::new(move |waker| {
            let fed = &waiting.federation;
            !fed.is_writable() || (fed.follower_cursor).check(waker, |c| confirms(c, target))
        }),
        answer: Box::new(move |value| {
            still_leads(&core)?;
            match confirms(core.federation.follower_cursor.get(), target) {
                true => Ok(value),
                false => Err(Fault::service(format!(
                    "{method} applied locally but no follower confirmed replication in time"
                ))),
            }
        }),
    }));
    Ok(())
}

/// `Ok` while this node may ack replicated writes. Otherwise the handler
/// already ran: the pre-dispatch fence passed and the lease lapsed during
/// execution or the wait. A rival may already lead and this write may not
/// survive. `executed=maybe` keeps clients from blindly replaying the
/// mutation at the new leader: the write may survive via replication, and
/// a replay would double-execute it.
fn still_leads(core: &ClarensCore) -> Result<(), Fault> {
    let fed = &core.federation;
    if fed.is_writable() {
        return Ok(());
    }
    core.telemetry.federation.fenced_writes.inc();
    Err(Fault::not_leader_executed(&fed.leader(), fed.epoch()))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::param::{any, base64, int, string};
    use super::*;

    /// A third-party module is one table.
    struct Echo;

    impl Service for Echo {
        const METHODS: &'static [Method<Self>] = &[
            Method::new(
                "echo.echo",
                "returns its argument",
                &[any("value").optional()],
                |_, _, args| Ok(args.value(0).cloned().unwrap_or(Value::Nil)),
            ),
            Method::new(
                "echo.reverse",
                "reverses a string",
                &[string("s")],
                |_, _, args| Ok(Value::from(args.str(0)?.chars().rev().collect::<String>())),
            ),
        ];
    }

    #[test]
    fn register_and_lookup() {
        let store = Store::in_memory();
        let mut registry = Registry::default();
        registry.register(Arc::new(Echo), &store);

        let info = registry.lookup("echo.reverse").unwrap();
        assert_eq!((info.min_params(), info.max_params()), (1, 1));
        assert_eq!(info.module(), "echo");
        assert_eq!(info.signature(), "echo.reverse(s)");
        let echo = registry.lookup("echo.echo").unwrap();
        assert_eq!((echo.min_params(), echo.max_params()), (0, 1));
        assert_eq!(echo.signature(), "echo.echo([value])");
        // Lookup is by full name: a module is not an export.
        assert!(registry.lookup("echo.missing").is_none());
        assert!(registry.lookup("missing.method").is_none());
        assert_eq!(registry.modules(), vec!["echo"]);

        // Methods mirrored into the DB (the Figure-4 lookup source).
        assert_eq!(store.len(METHODS_BUCKET), 2);
        assert!(store.contains(METHODS_BUCKET, "echo.echo"));
    }

    #[test]
    fn args_are_checked_and_decoded_once() {
        static PARAMS: [Param; 3] = [string("s"), int("i"), base64("b")];
        let info = MethodInfo {
            params: &PARAMS,
            ..Echo::METHODS[1].info
        };
        let good = [
            Value::from("abc"),
            Value::Double(7.0),
            Value::Bytes(vec![1, 2]),
        ];
        let args = Args::check(&info, &good).unwrap();
        assert_eq!(args.str(0).unwrap(), "abc");
        assert_eq!(args.int(1).unwrap(), 7);
        assert_eq!(args.bytes(2).unwrap(), [1, 2]);
        // Asking a slot for a type it was not checked as is a fault.
        assert_eq!(args.int(0).unwrap_err().code, codes::INTERNAL);
        assert_eq!(args.str(9).unwrap_err().code, codes::INTERNAL);

        // base64 string coerces to bytes for JSON clients.
        let json = [
            Value::from("abc"),
            Value::Int(1),
            Value::from(clarens_wire::base64::encode(b"hi")),
        ];
        assert_eq!(Args::check(&info, &json).unwrap().bytes(2).unwrap(), b"hi");

        let bad = [Value::from("abc"), Value::Double(7.5), Value::Bytes(vec![])];
        let fault = Args::check(&info, &bad).unwrap_err();
        assert_eq!(fault.code, codes::BAD_PARAMS);
        assert_eq!(
            fault.message,
            "echo.reverse parameter 1 (i) must be int, got double"
        );
        let fault = Args::check(&info, &good[..2]).unwrap_err();
        assert_eq!(fault.message, "echo.reverse expects 3 parameter(s), got 2");
    }
}
