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
    http_date, resolve_range, serve_pipe, Body, Handler, Held, HttpServer, Method, PeerInfo, Pipe,
    RangeOutcome, Request, RequestContext, Response, Scratch, ServerConfig, TlsConfig,
};
use clarens_telemetry::{Phase, RequestTrace};
use clarens_wire::fault::codes;
use clarens_wire::{Fault, Protocol, RpcResponse, Value};

use crate::acl::{Acl, FileAccess};
use crate::core::ClarensCore;
use crate::portal;
use crate::registry::{self, CallContext, Hold};
use crate::services;

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
        let (config, handler) = serving(&core, tls);
        let http = HttpServer::bind(addr, config, handler)?;
        Ok(ClarensServer { core, http })
    }

    /// Serve `core` over a [`Pipe`] instead of a port
    /// ([`clarens_httpd::serve_pipe`]): the same handler, gate and channel,
    /// driven on whichever thread uses a client end, with no listener and
    /// no thread.
    pub fn pipe(core: Arc<ClarensCore>, tls: Option<TlsConfig>) -> Pipe {
        let (config, handler) = serving(&core, tls);
        serve_pipe(config, handler)
    }

    /// Bound socket address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.http.local_addr()
    }

    /// Stop the server.
    pub fn shutdown(self) {
        self.http.shutdown();
    }
}

/// The HTTP configuration and handler that serve `core`.
fn serving(core: &Arc<ClarensCore>, tls: Option<TlsConfig>) -> (ServerConfig, Arc<ClarensHandler>) {
    let handler = Arc::new(ClarensHandler {
        core: Arc::clone(core),
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
        telemetry: Arc::clone(&core.telemetry),
        max_connections: core.config.max_connections,
    };
    (config, handler)
}

/// Install a permissive default ACL set: every authenticated identity may
/// call the non-administrative modules (service-level checks still guard
/// admin operations), and read anywhere under `/` in the file tree. Used
/// by examples, tests, and benchmarks; production deployments configure
/// ACLs explicitly via the `acl` service. A write the store refuses (it is
/// degraded, and says so on `db.degraded`) leaves that node without its
/// grant, which denies.
pub fn install_permissive_acls(core: &ClarensCore) {
    // Every built-in module, whether or not this core registered it (and
    // whether it did so before or after this call).
    for info in services::BUILTIN.iter().filter_map(|table| table(0)) {
        let _ = core.acl.set_method_acl(info.module(), &Acl::allow_dn("*"));
    }
    let _ = core.acl.set_file_acl(
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
    if core.config.leader_lease_ms > 0 {
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

/// "GET requests return a file or an XML-encoded error message to the
/// client" (paper §2.3) — every GET-side error honours that format.
fn xml_error(status: u16, message: &str) -> Response {
    let message = clarens_wire::xml::escape(message);
    let document = format!(
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<error code=\"{status}\">{message}</error>"
    );
    Response::new(status, "text/xml", document)
}

impl ClarensHandler {
    /// The context every call of one request runs under, an RPC's or a
    /// page's. Its identity is the paper's first access check: a session id
    /// (header `x-clarens-session`, or `session` query parameter for GETs)
    /// takes precedence, answered from the resolved-session cache with the
    /// DN already parsed (shared pointers: no string is copied); otherwise
    /// the TLS peer identity is used directly.
    fn context(
        &self,
        request: &Request,
        peer: Option<&PeerInfo>,
        trace: &mut RequestTrace,
    ) -> CallContext<'_> {
        let now = self.core.now();
        let (identity, session) = trace.span(Phase::Auth, || {
            // Borrow the header value when present (the hot path); only the
            // GET query fallback needs an owned copy.
            let session_id: Option<Cow<'_, str>> = match request.headers.get("x-clarens-session") {
                Some(id) => Some(Cow::Borrowed(id)),
                None => clarens_wire::percent::parse_query(request.query())
                    .into_iter()
                    .find(|(k, _)| k == "session")
                    .map(|(_, v)| Cow::Owned(v)),
            };
            // An invalid session falls through to the TLS identity (if
            // any) rather than silently authenticating as nobody.
            match session_id.and_then(|id| self.core.sessions.resolve(&id, now)) {
                Some(entry) => (entry.identity, Some(entry.session)),
                None => (peer.map(|p| Arc::new(p.identity.clone())), None),
            }
        });
        let deadline_ms = self.core.config.request_deadline_ms;
        CallContext {
            core: &self.core,
            identity,
            session,
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
            hold: Default::default(),
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
        trace.protocol = Some(match protocol {
            Protocol::XmlRpc => "xmlrpc",
            Protocol::Soap => "soap",
            Protocol::JsonRpc => "jsonrpc",
            Protocol::Binary => "binary",
        });

        let decoded = trace.span(Phase::Parse, || match protocol {
            // Zero-copy hot path: the decoded view borrows the method name
            // straight out of `request.body` — no owned call, no DOM. The
            // borrow ends before the body buffer is recycled below.
            Protocol::Binary => clarens_wire::binary::decode_call_view(&request.body)
                .map(|view| (Cow::Borrowed(view.method), view.params, view.id)),
            _ => clarens_wire::decode_call(protocol, &request.body)
                .map(|call| (Cow::Owned(call.method), call.params, call.id)),
        });
        let ((result, hold), id) = match decoded {
            Err(e) => ((Err(Fault::new(codes::PARSE, e.to_string())), None), None),
            Ok((method, params, id)) => (self.dispatch(&request, peer, &method, params, trace), id),
        };
        // The request body is fully decoded; hand its capacity back to the
        // worker's arena so the response (or the next request) can reuse it.
        scratch.recycle(std::mem::take(&mut request.body));
        match (result, hold) {
            // The reply waits off the worker; the server answers it once ready.
            (Ok(value), Some(hold)) => {
                let core = Arc::clone(&self.core);
                let answer = move |trace: &mut _, scratch: &mut _| {
                    respond(&core, protocol, id, (hold.answer)(value), trace, scratch)
                };
                let (deadline, ready) = (hold.deadline, hold.ready);
                Response::held(Held {
                    deadline,
                    ready,
                    answer: Box::new(answer),
                })
            }
            (result, _) => respond(&self.core, protocol, id, result, trace, scratch),
        }
    }

    /// One RPC: resolve who is calling from the request (the paper's first
    /// access check), then hand the call to the gate, [`registry::invoke`],
    /// which owns every guard from there on. Its result, and what the
    /// reply must wait for if anything.
    fn dispatch(
        &self,
        request: &Request,
        peer: Option<&PeerInfo>,
        method: &str,
        params: Vec<Value>,
        trace: &mut RequestTrace,
    ) -> (Result<Value, Fault>, Option<Hold>) {
        let ctx = self.context(request, peer, trace);
        let result = registry::invoke(&ctx, method, &params, trace);
        (result, ctx.hold.take())
    }

    fn handle_get(
        &self,
        request: Request,
        peer: Option<&PeerInfo>,
        trace: &mut RequestTrace,
    ) -> Response {
        let ctx = self.context(&request, peer, trace);
        let path = request.path();

        if path == "/healthz" {
            // Readiness probe: `system.health` is public, so load
            // balancers and the bench harness poll it without a session.
            return self.serve_healthz(&ctx);
        }
        if path == "/metrics" {
            return self.serve_metrics(&ctx);
        }
        if path == "/" || path == "/index.html" {
            return portal::index(&ctx);
        }
        if let Some(rest) = path.strip_prefix("/file/") {
            return self.serve_file(&ctx, &request, rest);
        }
        if path.starts_with("/portal") {
            return portal::route(&ctx, &request);
        }
        xml_error(404, &format!("no such resource: {path}"))
    }

    /// `GET /healthz`: the readiness surface (DESIGN.md §14), the answer of
    /// `system.health` as JSON: 200 when it reports the node ready, 503
    /// when not.
    fn serve_healthz(&self, ctx: &CallContext<'_>) -> Response {
        let health =
            match registry::invoke(ctx, "system.health", &[], &mut RequestTrace::disabled()) {
                Ok(health) => health,
                Err(fault) => return Response::error(503, &fault.message),
            };
        let ready = health.get("ready").and_then(Value::as_bool) == Some(true);
        let mut body = Vec::new();
        clarens_wire::json::write_into(&mut body, &health);
        body.push(b'\n');
        Response::new(if ready { 200 } else { 503 }, "application/json", body)
    }

    /// `GET /metrics`: the whole telemetry plane in Prometheus-style
    /// plaintext, gated like `system.stats` — site admins only.
    fn serve_metrics(&self, ctx: &CallContext<'_>) -> Response {
        let Some(identity) = ctx.identity.as_deref() else {
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
    /// connections. Gated by the read ACL, through the one function the
    /// `file.*` methods use; HEAD answers from `stat` alone.
    fn serve_file(&self, ctx: &CallContext<'_>, request: &Request, raw_path: &str) -> Response {
        let Some(root) = self.core.config.file_root.as_deref() else {
            return xml_error(404, "file service not configured");
        };
        let decoded = clarens_wire::percent::decode_str(raw_path);
        let (canonical, real) =
            match services::file::authorize(ctx, root, &decoded, FileAccess::Read) {
                Ok(paths) => paths,
                Err(fault) => {
                    let status = match fault.code {
                        codes::NOT_AUTHENTICATED => 401,
                        codes::BAD_PARAMS => 400,
                        _ => 403,
                    };
                    return xml_error(status, &fault.message);
                }
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

/// The HTTP answer of one RPC: its result encoded in `protocol`, in a
/// recycled buffer, with no intermediate DOM tree or String copies (the
/// HTTP layer recycles the buffer after the vectored write). A fault is
/// counted here, once per request: a proxied call passes the gate twice
/// and would be counted twice there.
fn respond(
    core: &ClarensCore,
    protocol: Protocol,
    id: Option<Value>,
    result: Result<Value, Fault>,
    trace: &mut RequestTrace,
    scratch: &mut Scratch,
) -> Response {
    let response = match result {
        Ok(value) => RpcResponse::Success(value),
        Err(fault) => {
            if fault.code == codes::DEADLINE {
                core.telemetry.resilience.deadline_exceeded.inc();
            } else if fault.code == codes::DEGRADED {
                core.telemetry.resilience.degraded_rejects.inc();
            }
            RpcResponse::Fault(fault)
        }
    };
    trace.fault = matches!(response, RpcResponse::Fault(_));
    let body: Vec<u8> = trace.span(Phase::Serialize, || {
        let mut out = scratch.take();
        clarens_wire::encode_response_into(protocol, &response, id.as_ref(), &mut out);
        out
    });
    Response::ok(protocol.content_type(), body)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The error document is byte-for-byte the one the element tree wrote
    /// for `<error code="…">message</error>`: the message is escaped as
    /// element text (a `"` stays, a control character becomes a numeric
    /// reference), and an empty one still gets an end tag.
    #[test]
    fn xml_error_document_matches_the_tree_writer() {
        for (status, message, element) in [
            (
                400,
                "a<b & \"c\"\u{1}d>",
                "<error code=\"400\">a&lt;b &amp; \"c\"&#1;d&gt;</error>",
            ),
            (404, "", "<error code=\"404\"></error>"),
        ] {
            let response = xml_error(status, message);
            assert_eq!(response.status, status);
            let clarens_httpd::Body::Bytes(body) = response.body else {
                panic!("an error document is a byte body");
            };
            let prolog = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
            assert_eq!(
                String::from_utf8(body).unwrap(),
                format!("{prolog}{element}")
            );
        }
    }
}
