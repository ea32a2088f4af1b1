//! The GT3-like RPC stack: server and client.
//!
//! The paper (§4 footnote 4, §5) reports that Globus Toolkit 3 served "a
//! trivial method" at roughly 1–5 calls/second over a 100 Mb/s LAN while
//! Clarens served ~1450/s. This module models the *reasons* GT3 was slow,
//! so the comparison benchmark reproduces the gap for the right reasons
//! rather than with a sleep:
//!
//! 1. **No session cache** — GSI authenticated every call: the client
//!    signs each message, the server validates the full certificate chain
//!    and signature per request (vs Clarens' one DB session lookup).
//! 2. **Per-call service instantiation** — the OGSI container activated
//!    transient service instances, re-reading deployment metadata: each
//!    call parses + validates the WSDD document ([`crate::wsdd`]).
//! 3. **Multi-pass message processing** — Axis deserialized the envelope
//!    through handler chains; each call DOM-parses the SOAP message once
//!    per configured handler.
//! 4. **Connection per call** — no HTTP keep-alive between invocations.
//!
//! All four knobs live in [`Gt3Config`] so the ablation benchmark can turn
//! them off one at a time and attribute the slowdown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use clarens_httpd::{
    Handler, HttpClient, HttpServer, Method, Request, RequestContext, Response, ServerConfig,
};
use clarens_pki::cert::{verify_chain, Certificate, Credential};
use clarens_wire::{soap, Fault, RpcCall, RpcResponse, Value};

use crate::wsdd;

/// Tunable overheads (all enabled = faithful GT3 model).
#[derive(Clone)]
pub struct Gt3Config {
    /// Validate the client's per-message signature and chain on every call.
    pub per_call_auth: bool,
    /// Re-parse + validate the deployment descriptor on every call.
    pub per_call_container_boot: bool,
    /// Number of services in the deployment descriptor (GT3 shipped
    /// hundreds).
    pub deployed_services: usize,
    /// Axis-style handler chain length; the envelope is re-parsed once per
    /// handler.
    pub handler_passes: usize,
    /// Close the connection after every response.
    pub connection_per_call: bool,
}

impl Default for Gt3Config {
    fn default() -> Self {
        Gt3Config {
            per_call_auth: true,
            per_call_container_boot: true,
            deployed_services: 800,
            handler_passes: 4,
            connection_per_call: true,
        }
    }
}

/// A running GT3-like server.
pub struct Gt3Server {
    http: HttpServer,
    calls: Arc<AtomicU64>,
}

struct Gt3Handler {
    config: Gt3Config,
    roots: Vec<Certificate>,
    wsdd_document: String,
    calls: Arc<AtomicU64>,
    now_fn: Arc<dyn Fn() -> i64 + Send + Sync>,
}

impl Gt3Server {
    /// Start on `addr`, trusting client chains rooted in `roots`.
    pub fn start(
        addr: &str,
        config: Gt3Config,
        roots: Vec<Certificate>,
    ) -> std::io::Result<Gt3Server> {
        let calls = Arc::new(AtomicU64::new(0));
        let handler = Arc::new(Gt3Handler {
            wsdd_document: wsdd::generate(config.deployed_services),
            config,
            roots,
            calls: Arc::clone(&calls),
            now_fn: Arc::new(|| {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs() as i64)
                    .unwrap_or(0)
            }),
        });
        let http = HttpServer::bind(
            addr,
            ServerConfig {
                workers: 16,
                read_timeout: std::time::Duration::from_secs(5),
                ..Default::default()
            },
            handler,
        )?;
        Ok(Gt3Server { http, calls })
    }

    /// Bound address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.http.local_addr()
    }

    /// Calls served.
    pub fn call_count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Stop the server.
    pub fn shutdown(self) {
        self.http.shutdown();
    }
}

impl Handler for Gt3Handler {
    fn handle(&self, request: Request, _ctx: RequestContext<'_>) -> Response {
        if request.method != Method::Post {
            return Response::error(405, "POST SOAP messages");
        }
        let body = match std::str::from_utf8(&request.body) {
            Ok(b) => b,
            Err(_) => return Response::error(400, "body is not UTF-8"),
        };

        // (2) Container boot: parse + validate the deployment descriptor,
        // as the OGSI container did when activating a transient instance.
        if self.config.per_call_container_boot {
            if let Err(e) = wsdd::parse_and_validate(&self.wsdd_document) {
                return Response::error(500, &format!("container boot failed: {e}"));
            }
        }

        // (3) Handler-chain passes: Axis re-walked the DOM per handler.
        for _ in 0..self.config.handler_passes.saturating_sub(1) {
            if clarens_wire::xml::parse(body).is_err() {
                return Response::error(400, "unparseable envelope");
            }
        }

        // Final decode of the call itself.
        let call = match soap::decode_call(body) {
            Ok(c) => c,
            Err(e) => {
                let fault = RpcResponse::Fault(Fault::new(1, e.to_string()));
                return Response::ok("text/xml", soap::encode_response(&fault));
            }
        };

        // (1) Per-message GSI-style security: the first parameter carries
        // the certificate chain, the second a signature over the payload.
        let mut params = call.params.clone();
        if self.config.per_call_auth {
            if params.len() < 2 {
                let fault = RpcResponse::Fault(Fault::new(3, "missing security header"));
                return Response::ok("text/xml", soap::encode_response(&fault));
            }
            let sig = params.pop().and_then(|v| v.coerce_bytes());
            let chain_param = params.remove(0);
            let chain: Option<Vec<Certificate>> = chain_param.as_array().map(|items| {
                items
                    .iter()
                    .filter_map(|v| v.as_str().and_then(|t| Certificate::from_text(t).ok()))
                    .collect()
            });
            let (Some(chain), Some(sig)) = (chain, sig) else {
                let fault = RpcResponse::Fault(Fault::new(3, "bad security header"));
                return Response::ok("text/xml", soap::encode_response(&fault));
            };
            let now = (self.now_fn)();
            let payload = clarens_wire::json::to_string(&Value::Array(params.clone()));
            let verified = verify_chain(&chain, &self.roots, now).is_ok()
                && !chain.is_empty()
                && chain[0]
                    .public_key
                    .verify(format!("gt3:{}:{payload}", call.method).as_bytes(), &sig)
                    .is_ok();
            if !verified {
                let fault = RpcResponse::Fault(Fault::new(3, "authentication failed"));
                return Response::ok("text/xml", soap::encode_response(&fault));
            }
        }

        // Dispatch the trivial service.
        let response = match call.method.as_str() {
            "echo.echo" => match params.first() {
                Some(v) => RpcResponse::Success(v.clone()),
                None => RpcResponse::Fault(Fault::bad_params("echo expects a value")),
            },
            other => RpcResponse::Fault(Fault::new(2, format!("no such operation {other}"))),
        };
        self.calls.fetch_add(1, Ordering::Relaxed);

        let mut http_response = Response::ok("text/xml", soap::encode_response(&response));
        if self.config.connection_per_call {
            // (4) The container tears the connection down after each call.
            http_response.headers.set("connection", "close");
        }
        http_response
    }
}

/// The matching client: reconnects and re-authenticates per call when the
/// config says so.
pub struct Gt3Client {
    addr: String,
    config: Gt3Config,
    credential: Credential,
    http: HttpClient,
}

impl Gt3Client {
    /// Create a client for `addr` using `credential` for per-message
    /// signatures.
    pub fn new(addr: impl Into<String>, config: Gt3Config, credential: Credential) -> Self {
        let addr = addr.into();
        Gt3Client {
            http: HttpClient::new(addr.clone()),
            addr,
            config,
            credential,
        }
    }

    /// Invoke `echo.echo(value)` the GT3 way.
    pub fn echo(&mut self, value: Value) -> Result<Value, String> {
        if self.config.connection_per_call {
            self.http.close();
        }
        let mut params = vec![value];
        if self.config.per_call_auth {
            // Security header: chain first, signature last.
            let payload = clarens_wire::json::to_string(&Value::Array(params.clone()));
            let signature = self
                .credential
                .key
                .sign(format!("gt3:echo.echo:{payload}").as_bytes());
            let mut chain_texts = vec![Value::from(self.credential.certificate.to_text())];
            for link in &self.credential.chain {
                chain_texts.push(Value::from(link.to_text()));
            }
            params.insert(0, Value::Array(chain_texts));
            params.push(Value::Bytes(signature));
        }
        let call = RpcCall::new("echo.echo", params);
        let body = soap::encode_call(&call);
        let response = self
            .http
            .post("/ogsa/services/echo", "text/xml", body)
            .map_err(|e| e.to_string())?;
        if response.status != 200 {
            return Err(format!("HTTP {}", response.status));
        }
        let text = std::str::from_utf8(&response.body).map_err(|e| e.to_string())?;
        match soap::decode_response(text).map_err(|e| e.to_string())? {
            RpcResponse::Success(v) => Ok(v),
            RpcResponse::Fault(f) => Err(f.to_string()),
        }
    }

    /// The server address.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

/// Build a deterministic test credential set (CA + one user) for the
/// baseline benchmarks.
pub fn test_credentials(seed: u64) -> (Certificate, Credential) {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(seed);
    let ca = clarens_pki::CertificateAuthority::new(
        &mut rng,
        clarens_pki::DistinguishedName::parse("/O=globus-sim/CN=CA").unwrap(),
        now - 3600,
        3650,
    );
    let kp = clarens_pki::rsa::generate(&mut rng, clarens_pki::rsa::DEFAULT_KEY_BITS);
    let credential = Credential {
        certificate: ca.issue(
            clarens_pki::DistinguishedName::parse("/O=globus-sim/CN=user").unwrap(),
            &kp.public,
            now - 3600,
            365,
        ),
        key: kp.private,
        chain: vec![],
    };
    (ca.certificate.clone(), credential)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_stack_roundtrip() {
        let (root, credential) = test_credentials(1);
        let server = Gt3Server::start("127.0.0.1:0", Gt3Config::default(), vec![root]).unwrap();
        let mut client = Gt3Client::new(
            server.local_addr().to_string(),
            Gt3Config::default(),
            credential,
        );
        for i in 0..3 {
            let out = client.echo(Value::Int(i)).unwrap();
            assert_eq!(out, Value::Int(i));
        }
        assert_eq!(server.call_count(), 3);
        server.shutdown();
    }

    #[test]
    fn missing_security_header_rejected() {
        let (root, credential) = test_credentials(2);
        let server = Gt3Server::start("127.0.0.1:0", Gt3Config::default(), vec![root]).unwrap();
        // Client configured WITHOUT auth against a server that demands it.
        let mut client = Gt3Client::new(
            server.local_addr().to_string(),
            Gt3Config {
                per_call_auth: false,
                ..Default::default()
            },
            credential,
        );
        let err = client.echo(Value::Int(1)).unwrap_err();
        assert!(
            err.contains("security") || err.contains("authentication"),
            "{err}"
        );
        server.shutdown();
    }

    #[test]
    fn untrusted_client_rejected() {
        let (root, _) = test_credentials(3);
        let (_, rogue_credential) = test_credentials(4); // different CA
        let server = Gt3Server::start("127.0.0.1:0", Gt3Config::default(), vec![root]).unwrap();
        let mut client = Gt3Client::new(
            server.local_addr().to_string(),
            Gt3Config::default(),
            rogue_credential,
        );
        let err = client.echo(Value::Int(1)).unwrap_err();
        assert!(err.contains("authentication"), "{err}");
        server.shutdown();
    }

    #[test]
    fn lightweight_config_still_works() {
        // All overheads off: a sanity check for the ablation bench.
        let (root, credential) = test_credentials(5);
        let config = Gt3Config {
            per_call_auth: false,
            per_call_container_boot: false,
            handler_passes: 1,
            connection_per_call: false,
            deployed_services: 1,
        };
        let server = Gt3Server::start("127.0.0.1:0", config.clone(), vec![root]).unwrap();
        let mut client = Gt3Client::new(server.local_addr().to_string(), config, credential);
        assert_eq!(client.echo(Value::from("x")).unwrap(), Value::from("x"));
        server.shutdown();
    }
}
