//! The Clarens server: HTTP routing, protocol negotiation, the two
//! per-request access-control checks, and dispatch into the service
//! registry.
//!
//! This is the "Clarens" box of the paper's Figure 1: POSTs carry RPC
//! calls (XML-RPC, SOAP, or JSON-RPC — answered in kind); GETs serve
//! files ("GET requests return a file or an XML-encoded error message")
//! and the portal pages of §3.

use std::borrow::Cow;
use std::io;
use std::sync::Arc;

use clarens_httpd::{
    http_date, resolve_range, Body, Handler, HttpServer, Method, PeerInfo, RangeOutcome, Request,
    RequestContext, Response, Scratch, ServerConfig, TlsConfig,
};
use clarens_pki::dn::DistinguishedName;
use clarens_telemetry::{Phase, RequestTrace};
use clarens_wire::fault::codes;
use clarens_wire::{Fault, Protocol, RpcCall, RpcResponse, Value};

use crate::acl::{Acl, FileAccess};
use crate::core::ClarensCore;
use crate::paths;
use crate::portal;
use crate::registry::{self, CallContext};
use crate::services;
use crate::session::Session;

/// A running Clarens server.
pub struct ClarensServer {
    /// The shared core (also usable for in-process administration).
    pub core: Arc<ClarensCore>,
    http: HttpServer,
}

impl ClarensServer {
    /// Start serving on `addr`. `tls` enables the secure channel.
    pub fn start(
        core: Arc<ClarensCore>,
        addr: &str,
        tls: Option<TlsConfig>,
    ) -> io::Result<ClarensServer> {
        let handler = Arc::new(ClarensHandler {
            core: Arc::clone(&core),
        });
        // The read timeout tracks the configured request deadline (it used
        // to be a lone hard-coded 5 s): a client that stalls mid-request is
        // cut off on the same budget a stalled handler is.
        let read_timeout = match core.config.request_deadline_ms {
            0 => std::time::Duration::from_secs(3600),
            ms => std::time::Duration::from_millis(ms),
        };
        let config = ServerConfig {
            workers: core.config.workers,
            tls,
            now_fn: Arc::clone(&core.now_fn),
            read_timeout,
            telemetry: Some(Arc::clone(&core.telemetry)),
            max_connections: core.config.max_connections,
            ..Default::default()
        };
        let http = HttpServer::bind(addr, config, handler)?;
        Ok(ClarensServer { core, http })
    }

    /// Bound socket address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.http.local_addr()
    }

    /// HTTP-layer statistics.
    pub fn stats(&self) -> &clarens_httpd::ServerStats {
        self.http.stats()
    }

    /// Stop the server.
    pub fn shutdown(self) {
        self.http.shutdown();
    }
}

/// Install a permissive default ACL set: every authenticated identity may
/// call the non-administrative modules (service-level checks still guard
/// admin operations), and read anywhere under `/` in the file tree. Used
/// by examples, tests, and benchmarks; production deployments configure
/// ACLs explicitly via the `acl` service.
pub fn install_permissive_acls(core: &ClarensCore) {
    // Every built-in module, whether or not this core registered it (and
    // whether it did so before or after this call).
    for info in services::BUILTIN.iter().filter_map(|table| table.first()) {
        core.acl.set_method_acl(info.module(), &Acl::allow_dn("*"));
    }
    core.acl.set_file_acl(
        "/",
        &crate::acl::FileAcl {
            read: Acl::allow_dn("*"),
            write: Acl::allow_dn("*"),
        },
    );
}

/// Register the full built-in service suite on a core. File and shell
/// services are only registered when the config provides their roots.
pub fn register_builtin_services(
    core: &Arc<ClarensCore>,
    discovery: Option<services::DiscoveryService>,
) {
    core.register(Arc::new(services::SystemService));
    core.register(Arc::new(services::EchoService));
    core.register(Arc::new(services::VoAdminService));
    core.register(Arc::new(services::AclAdminService));
    // The proxy router shares the discovery aggregator, so `proxy.call`
    // resolves module owners from the same view `discovery.find` serves.
    core.register(Arc::new(match &discovery {
        Some(d) => services::ProxyService::with_router(d.aggregator()),
        None => services::ProxyService::new(),
    }));
    // Every federated node registers the replication service: only the
    // current leader *serves* fetches (the role check moved inside the
    // service), but a promoted follower must already export the method.
    if core.config.federation_role != crate::config::FederationRole::Standalone {
        core.register(Arc::new(services::ReplicationService));
    }
    core.register(Arc::new(services::ImService::new()));
    if let Some(root) = core.config.file_root.clone() {
        core.register(Arc::new(services::FileService::new(root.clone())));
        core.register(Arc::new(services::SrmService::new(root, 2)));
    }
    if let Some(root) = core.config.shell_root.clone() {
        let user_map =
            services::shell::UserMap::parse(&core.config.shell_user_map).unwrap_or_default();
        core.register(Arc::new(services::ShellService::new(
            root.clone(),
            user_map.clone(),
        )));
        core.register(Arc::new(services::JobService::new(root, user_map)));
    }
    if let Some(service) = discovery {
        core.register(Arc::new(service));
    }
}

struct ClarensHandler {
    core: Arc<ClarensCore>,
}

/// The caller identity resolved for one request. Shared pointers out of
/// the resolved-session cache — moving these into a [`CallContext`] costs
/// no string copies.
struct ResolvedIdentity {
    identity: Option<Arc<DistinguishedName>>,
    session: Option<Arc<Session>>,
}

/// "GET requests return a file or an XML-encoded error message to the
/// client" (paper §2.3) — every GET-side error honours that format.
fn xml_error(status: u16, message: &str) -> Response {
    let xml = clarens_wire::xml::Element::new("error")
        .attr("code", status.to_string())
        .text(message);
    Response::new(status, "text/xml", xml.to_document())
}

impl ClarensHandler {
    /// Identity resolution: a session id (header `x-clarens-session`, or
    /// `session` query parameter for GETs) takes precedence; otherwise the
    /// TLS peer identity is used directly. This is the paper's first
    /// access check ("whether the client credentials are associated with a
    /// current session") — answered from the resolved-session cache, with
    /// the DN already parsed.
    fn resolve_identity(
        &self,
        request: &Request,
        peer: Option<&PeerInfo>,
        now: i64,
    ) -> ResolvedIdentity {
        // Borrow the header value when present (the hot path); only the
        // GET query fallback needs an owned copy.
        let session_id: Option<Cow<'_, str>> = match request.headers.get("x-clarens-session") {
            Some(id) => Some(Cow::Borrowed(id)),
            None => clarens_wire::percent::parse_query(request.query())
                .into_iter()
                .find(|(k, _)| k == "session")
                .map(|(_, v)| Cow::Owned(v)),
        };
        if let Some(id) = session_id {
            if let Some(entry) = self.core.sessions.resolve(&id, now) {
                return ResolvedIdentity {
                    identity: entry.identity,
                    session: Some(entry.session),
                };
            }
            // An invalid session falls through to the TLS identity (if
            // any) rather than silently authenticating as nobody.
        }
        ResolvedIdentity {
            identity: peer.map(|p| Arc::new(p.identity.clone())),
            session: None,
        }
    }

    fn handle_rpc(
        &self,
        mut request: Request,
        peer: Option<&PeerInfo>,
        trace: &mut RequestTrace,
        scratch: &mut Scratch,
    ) -> Response {
        // Protocol negotiation: Content-Type first, body sniffing as the
        // tie-breaker (XML-RPC and SOAP share text/xml).
        let content_type = request
            .headers
            .get("content-type")
            .unwrap_or("")
            .split(';')
            .next()
            .unwrap_or("")
            .trim()
            .to_ascii_lowercase();
        let protocol = match content_type.as_str() {
            "application/json" | "application/json-rpc" => Some(Protocol::JsonRpc),
            clarens_wire::binary::CONTENT_TYPE => Some(Protocol::Binary),
            "text/xml" | "application/xml" => Protocol::sniff(&request.body),
            _ => Protocol::sniff(&request.body),
        };
        let Some(protocol) = protocol else {
            return Response::error(400, "cannot determine RPC protocol");
        };
        // The binary protocol is negotiated, never assumed: a deployment
        // that disables it answers 415 and the client falls back to XML-RPC
        // (see `ClarensClient`; DESIGN.md §13 has the negotiation rules).
        if protocol == Protocol::Binary && !self.core.config.binary_protocol {
            return Response::error(415, "binary protocol disabled; use XML-RPC");
        }
        trace.protocol = Some(match protocol {
            Protocol::XmlRpc => "xmlrpc",
            Protocol::Soap => "soap",
            Protocol::JsonRpc => "jsonrpc",
            Protocol::Binary => "binary",
        });

        let (response, id) = if protocol == Protocol::Binary {
            // Zero-copy hot path: the decoded view borrows the method name
            // straight out of `request.body` — no owned call, no DOM. The
            // borrow ends before the body buffer is recycled below.
            match trace.span(Phase::Parse, || {
                clarens_wire::binary::decode_call_view(&request.body)
            }) {
                Err(e) => (
                    RpcResponse::Fault(Fault::new(codes::PARSE, e.to_string())),
                    None,
                ),
                Ok(view) => {
                    let clarens_wire::binary::CallView { method, params, id } = view;
                    trace.method = Some(method.to_owned());
                    (self.dispatch(&request, peer, method, params, trace), id)
                }
            }
        } else {
            let decoded = trace.span(Phase::Parse, || {
                clarens_wire::decode_call(protocol, &request.body)
            });
            match decoded {
                Err(e) => (
                    RpcResponse::Fault(Fault::new(codes::PARSE, e.to_string())),
                    None,
                ),
                Ok(call) => {
                    let RpcCall { method, params, id } = call;
                    trace.method = Some(method.clone());
                    (self.dispatch(&request, peer, &method, params, trace), id)
                }
            }
        };
        trace.fault = matches!(response, RpcResponse::Fault(_));
        // The request body is fully decoded; hand its capacity back to the
        // worker's arena so the response (or the next request) can reuse it.
        scratch.recycle(std::mem::take(&mut request.body));
        let body: Vec<u8> = trace.span(Phase::Serialize, || {
            // Stream straight into a recycled buffer, no intermediate DOM
            // tree or String copies. The HTTP layer recycles the buffer
            // after the vectored write.
            let mut out = scratch.take();
            clarens_wire::encode_response_into(protocol, &response, id.as_ref(), &mut out);
            out
        });
        Response::ok(protocol.content_type(), body)
    }

    /// One RPC: resolve who is calling from the request (the paper's first
    /// access check), then hand the call to the gate, [`registry::invoke`],
    /// which owns every guard from there on.
    fn dispatch(
        &self,
        request: &Request,
        peer: Option<&PeerInfo>,
        method: &str,
        params: Vec<Value>,
        trace: &mut RequestTrace,
    ) -> RpcResponse {
        let now = self.core.now();
        let resolved = trace.span(Phase::Auth, || self.resolve_identity(request, peer, now));
        let deadline_ms = self.core.config.request_deadline_ms;
        let ctx = CallContext {
            core: &self.core,
            identity: resolved.identity,
            session: resolved.session,
            now,
            deadline: (deadline_ms > 0)
                .then(|| std::time::Instant::now() + std::time::Duration::from_millis(deadline_ms)),
            // Forwarding depth travels as a header so the hop budget
            // survives node boundaries; an absent or unparsable header
            // means a direct call.
            hops: request
                .headers
                .get("x-clarens-hops")
                .and_then(|h| h.trim().parse().ok())
                .unwrap_or(0),
        };
        match registry::invoke(&ctx, method, &params, trace) {
            Ok(value) => RpcResponse::Success(value),
            Err(fault) => {
                // Counted here, once per request: a proxied call passes
                // the gate twice and would be counted twice there.
                if fault.code == codes::DEADLINE {
                    self.core.telemetry.resilience.deadline_exceeded.inc();
                } else if fault.code == codes::DEGRADED {
                    self.core.telemetry.resilience.degraded_rejects.inc();
                }
                RpcResponse::Fault(fault)
            }
        }
    }

    fn handle_get(
        &self,
        request: Request,
        peer: Option<&PeerInfo>,
        trace: &mut RequestTrace,
    ) -> Response {
        let now = self.core.now();
        let resolved = trace.span(Phase::Auth, || self.resolve_identity(&request, peer, now));
        let path = request.path().to_owned();

        if path == "/healthz" {
            // Readiness probe: deliberately unauthenticated so load
            // balancers and the bench harness can poll it without a
            // session. Mirrors the `system.health` RPC.
            return self.serve_healthz();
        }
        if path == "/metrics" {
            return self.serve_metrics(resolved.identity.as_deref());
        }
        if path == "/" || path == "/index.html" {
            return portal::index(&self.core, resolved.identity.as_deref());
        }
        if let Some(rest) = path.strip_prefix("/file/") {
            return self.serve_file(&request, rest, resolved.identity.as_deref());
        }
        if path.starts_with("/portal") {
            return portal::route(&self.core, &request, resolved.identity.as_deref());
        }
        xml_error(404, &format!("no such resource: {path}"))
    }

    /// `GET /healthz`: the readiness surface (DESIGN.md §14). 200 when
    /// this node can do its job (a writable leader, a standalone node, or
    /// a follower that is replicating), 503 when it cannot (degraded
    /// store, or a fenced/deposed leader mid-election). The body is a
    /// small JSON object so orchestration can also read role/epoch/lag.
    fn serve_healthz(&self) -> Response {
        let fed = &self.core.federation;
        let role = match fed.role() {
            crate::config::FederationRole::Leader => "leader",
            crate::config::FederationRole::Follower => "follower",
            crate::config::FederationRole::Standalone => "standalone",
        };
        let degraded = self.core.store.is_degraded();
        let lag = self
            .core
            .replication_lag
            .load(std::sync::atomic::Ordering::Relaxed);
        // A federated leader that cannot currently ack writes (lease
        // lapsed, or deposed but not yet demoted) is not ready; followers
        // are ready as long as the store is healthy — reads still work.
        let ready =
            !degraded && (fed.role() != crate::config::FederationRole::Leader || fed.is_writable());
        let body = format!(
            "{{\"ready\":{ready},\"role\":\"{role}\",\"leader_epoch\":{epoch},\"leader\":\"{leader}\",\"wal_offset\":{offset},\"replication_lag\":{lag},\"degraded\":{degraded}}}\n",
            epoch = fed.epoch(),
            leader = fed.leader(),
            offset = self.core.store.wal_offset(),
        );
        Response::new(if ready { 200 } else { 503 }, "application/json", body)
    }

    /// `GET /metrics`: the whole telemetry plane in Prometheus-style
    /// plaintext, gated like `system.stats` — site admins only.
    fn serve_metrics(&self, identity: Option<&DistinguishedName>) -> Response {
        let Some(identity) = identity else {
            return xml_error(401, "metrics require a session or TLS identity");
        };
        if !self.core.vo.is_site_admin(identity) {
            return xml_error(403, "metrics require site admin");
        }
        Response::ok(
            "text/plain; version=0.0.4",
            self.core.telemetry.render_prometheus(),
        )
    }

    /// HTTP GET/HEAD file downloads (paper §2.3): whole files and single
    /// `Range: bytes=` slices served straight from the open file handle, so
    /// the transport can hand the copy to `sendfile(2)` on plaintext
    /// connections. Gated by the read ACL; HEAD answers from `stat` alone.
    fn serve_file(
        &self,
        request: &Request,
        raw_path: &str,
        identity: Option<&DistinguishedName>,
    ) -> Response {
        let Some(root) = self.core.config.file_root.as_deref() else {
            return xml_error(404, "file service not configured");
        };
        let decoded = clarens_wire::percent::decode_str(raw_path);
        let Some(identity) = identity else {
            return xml_error(401, "file downloads require a session or TLS identity");
        };
        let Some(canonical) = paths::canonical(&decoded) else {
            return xml_error(400, "illegal path");
        };
        if !self
            .core
            .acl
            .check_file(&canonical, FileAccess::Read, identity, &self.core.vo)
        {
            return xml_error(403, &format!("no read access to {canonical}"));
        }
        let Some(real) = paths::resolve(root, &decoded) else {
            return xml_error(400, "illegal path");
        };

        if request.method == Method::Head {
            // Metadata is all a HEAD needs: no read stream is ever opened.
            return match std::fs::metadata(&real) {
                Ok(meta) if meta.is_dir() => xml_error(400, "is a directory; use file.ls"),
                Ok(meta) => {
                    let mut response = Response {
                        status: 200,
                        headers: clarens_httpd::Headers::new(),
                        body: Body::Sized(meta.len()),
                    };
                    response
                        .headers
                        .set("content-type", "application/octet-stream");
                    Self::decorate_file_headers(&mut response, &meta);
                    response
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    xml_error(404, &format!("not found: {canonical}"))
                }
                Err(e) => xml_error(500, &e.to_string()),
            };
        }

        match std::fs::File::open(&real) {
            Ok(file) => {
                let meta = match file.metadata() {
                    Ok(meta) if meta.is_dir() => {
                        return xml_error(400, "is a directory; use file.ls")
                    }
                    Ok(meta) => meta,
                    Err(e) => return xml_error(500, &e.to_string()),
                };
                let len = meta.len();
                let mut response = match resolve_range(request.headers.get("range"), len) {
                    RangeOutcome::Whole => {
                        Response::file(200, "application/octet-stream", file, 0, len)
                    }
                    RangeOutcome::Partial { start, end } => {
                        let mut r = Response::file(
                            206,
                            "application/octet-stream",
                            file,
                            start,
                            end - start + 1,
                        );
                        r.headers
                            .set("content-range", format!("bytes {start}-{end}/{len}"));
                        r
                    }
                    RangeOutcome::Unsatisfiable => {
                        let mut r =
                            xml_error(416, &format!("range addresses no byte of {canonical}"));
                        r.headers.set("content-range", format!("bytes */{len}"));
                        r.headers.set("accept-ranges", "bytes");
                        return r;
                    }
                };
                Self::decorate_file_headers(&mut response, &meta);
                response
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                xml_error(404, &format!("not found: {canonical}"))
            }
            Err(e) => xml_error(500, &e.to_string()),
        }
    }

    /// Headers every file entity response carries: range-capability
    /// advertisement and the cache-validation timestamp.
    fn decorate_file_headers(response: &mut Response, meta: &std::fs::Metadata) {
        response.headers.set("accept-ranges", "bytes");
        if let Ok(modified) = meta.modified() {
            if let Ok(unix) = modified.duration_since(std::time::UNIX_EPOCH) {
                response
                    .headers
                    .set("last-modified", http_date(unix.as_secs()));
            }
        }
    }
}

impl Handler for ClarensHandler {
    fn handle(&self, request: Request, ctx: RequestContext<'_>) -> Response {
        let RequestContext {
            peer,
            trace,
            scratch,
        } = ctx;
        match request.method {
            Method::Post => self.handle_rpc(request, peer, trace, scratch),
            Method::Get | Method::Head => {
                trace.method = Some("http.get".into());
                self.handle_get(request, peer, trace)
            }
            _ => Response::error(405, "use GET for files/portal, POST for RPC"),
        }
    }
}
