//! The proxy service (paper §2.6): store and retrieve proxy certificates.
//!
//! "The proxy service provides a secure way to store and retrieve
//! so-called 'proxy' certificates on a Clarens server. ... This service
//! also allows the user to use a previously stored proxy as a way of
//! logging into the server by only knowing the certificate distinguished
//! name and password that was used to store it. Additionally, a stored
//! proxy can also be 'attached' to an existing session."
//!
//! Stored payloads (certificate + unencrypted private key, serialized by
//! the client) are sealed with a password-derived ChaCha20 key and an
//! HMAC-SHA256 tag, so the server operator cannot read them and tampering
//! is detected.
//!
//! The service also hosts `proxy.call`, the federation routing hop: a
//! target this node exports runs here through the same gate as a direct
//! call; one it does not is forwarded to the discovery-resolved node that
//! does, with a hop-limit header bounding pathological bouncing between
//! misconfigured nodes.

use std::sync::Arc;
use std::time::Instant;

use monalisa_sim::{DiscoveryAggregator, ServiceDescriptor, ServiceQuery};

use clarens_pki::cert::{verify_chain, Certificate};
use clarens_pki::dn::DistinguishedName;
use clarens_pki::hmac::{derive_key, hmac_sha256, verify_mac};
use clarens_pki::{chacha20, keystream};
use clarens_telemetry::RequestTrace;
use clarens_wire::{Fault, Value};

use crate::client::{ClarensClient, ClientError};
use crate::registry::param::{array, string};
use crate::registry::{self, Args, CallContext, Method, Service};

/// DB bucket for stored proxies (key: owner DN string).
pub const PROXIES_BUCKET: &str = "proxies";

/// The `proxy` service.
#[derive(Default)]
pub struct ProxyService {
    /// Discovery view used by `proxy.call` to locate the node owning a
    /// module this node does not export. `None` on servers without a
    /// discovery plane: local dispatch still works, forwarding faults.
    aggregator: Option<Arc<DiscoveryAggregator>>,
}

impl ProxyService {
    /// A proxy service without a router (standalone servers).
    pub fn new() -> Self {
        ProxyService::default()
    }

    /// A proxy service that can forward `proxy.call` requests through the
    /// given discovery view.
    pub fn with_router(aggregator: Arc<DiscoveryAggregator>) -> Self {
        ProxyService {
            aggregator: Some(aggregator),
        }
    }
}

/// The cipher key and the MAC key `password` derives for `dn`.
fn keys(password: &str, dn: &str) -> ([u8; 32], Vec<u8>) {
    let derive = |label| derive_key(password.as_bytes(), label, dn.as_bytes(), 32);
    let mut key = [0u8; 32];
    key.copy_from_slice(&derive("clarens-proxy-store"));
    (key, derive("clarens-proxy-mac"))
}

/// Seal `payload` under `password`, bound to `dn`.
/// Layout: `nonce(12) || ciphertext || mac(32)`.
pub fn seal(password: &str, dn: &str, payload: &[u8]) -> Vec<u8> {
    let (key, mac_key) = keys(password, dn);
    let mut nonce = [0u8; 12];
    keystream::fill(&mut nonce);
    let mut ciphertext = payload.to_vec();
    chacha20::xor_stream(&key, &nonce, 0, &mut ciphertext);
    let mut out = nonce.to_vec();
    out.extend_from_slice(&ciphertext);
    let mac = hmac_sha256(&mac_key, &out);
    out.extend_from_slice(&mac);
    out
}

/// Open a sealed payload; `None` on wrong password or tampering.
pub fn open(password: &str, dn: &str, sealed: &[u8]) -> Option<Vec<u8>> {
    let (body, tag) = sealed.split_last_chunk::<32>()?;
    let (nonce, ciphertext) = body.split_first_chunk::<12>()?;
    let (key, mac_key) = keys(password, dn);
    if !verify_mac(&hmac_sha256(&mac_key, body), tag) {
        return None;
    }
    let mut plaintext = ciphertext.to_vec();
    chacha20::xor_stream(&key, nonce, 0, &mut plaintext);
    Some(plaintext)
}

/// The stored-proxy payload: one or more certificate texts (leaf first,
/// the delegation chain) separated by blank lines, then a serialized key.
/// The service treats it opaquely except for `proxy.login`, which parses
/// the certificate part to validate the chain.
fn parse_chain_from_payload(payload: &str) -> Result<Vec<Certificate>, Fault> {
    let mut chain = Vec::new();
    for block in payload.split("\n\n") {
        let block = block.trim();
        if block.is_empty() || !block.starts_with("version:") {
            continue;
        }
        chain.push(
            Certificate::from_text(block)
                .map_err(|e| Fault::service(format!("stored proxy corrupt: {e}")))?,
        );
    }
    if chain.is_empty() {
        return Err(Fault::service("stored proxy contains no certificates"));
    }
    Ok(chain)
}

impl Service for ProxyService {
    const METHODS: &'static [Method<Self>] = &[
        Method::new(
            "proxy.store",
            "Store a proxy credential sealed under a password",
            &[string("password"), string("payload")],
            |_, ctx, args| {
                let (password, payload) = (args.str(0)?, args.str(1)?);
                let dn = ctx.require_identity()?.to_string();
                // Sanity-check the payload parses before sealing.
                parse_chain_from_payload(payload)?;
                let sealed = seal(password, &dn, payload.as_bytes());
                ctx.core
                    .store
                    .put(PROXIES_BUCKET, &dn, sealed)
                    .map_err(|e| crate::store_fault("proxy store", &e))?;
                Ok(Value::Bool(true))
            },
        )
        .replicated(),
        Method::new(
            "proxy.retrieve",
            "Retrieve the caller's stored proxy credential",
            &[string("password")],
            |_, ctx, args| {
                let dn = ctx.require_identity()?.to_string();
                Ok(Value::from(open_stored(ctx, &dn, args.str(0)?)?))
            },
        ),
        Method::new(
            "proxy.login",
            "Create a session from a stored proxy, knowing only DN and password",
            &[string("dn"), string("password")],
            |_, ctx, args| {
                let dn_text = args.str(0)?;
                let dn = DistinguishedName::parse(dn_text)
                    .map_err(|e| Fault::bad_params(e.to_string()))?;
                let payload = open_stored(ctx, dn_text, args.str(1)?)?;
                // Validate the stored chain before minting a session.
                let chain = parse_chain_from_payload(&payload)?;
                let identity = verify_chain(&chain, &ctx.core.roots, ctx.now)
                    .map_err(|e| Fault::not_authenticated(format!("stored proxy invalid: {e}")))?;
                if identity != dn && !chain.first().is_some_and(|leaf| leaf.subject == dn) {
                    return Err(Fault::not_authenticated(
                        "stored proxy does not belong to that DN",
                    ));
                }
                let session = ctx.core.sessions.create(&identity, ctx.now);
                Ok(Value::structure([
                    ("session", Value::from(session.id)),
                    ("dn", Value::from(identity.to_string())),
                    ("expires", Value::Int(session.expires)),
                ]))
            },
        )
        .public()
        .replicated(),
        Method::new(
            "proxy.attach",
            "Attach the stored proxy to the current session (renewal/delegation)",
            &[string("password")],
            |_, ctx, args| {
                let session = ctx
                    .session
                    .as_ref()
                    .ok_or_else(|| Fault::not_authenticated("no session to attach to"))?;
                let dn = ctx.require_identity()?.to_string();
                let payload = open_stored(ctx, &dn, args.str(0)?)?;
                ctx.core
                    .sessions
                    .attach_proxy(&session.id, &payload, ctx.now)
                    .ok_or_else(|| Fault::service("session vanished"))?;
                Ok(Value::Bool(true))
            },
        )
        .replicated(),
        Method::new(
            "proxy.remove",
            "Delete the caller's stored proxy",
            &[],
            |_, ctx, _| {
                let dn = ctx.require_identity()?.to_string();
                let existed = ctx
                    .core
                    .store
                    .delete(PROXIES_BUCKET, &dn)
                    .map_err(|e| crate::store_fault("proxy delete", &e))?;
                Ok(Value::Bool(existed))
            },
        )
        .replicated(),
        Method::new(
            "proxy.call",
            "Invoke a method on whichever federation node exports it",
            &[string("method"), array("params").optional()],
            Self::route_call,
        ),
    ];
}

impl ProxyService {
    /// `proxy.call(method, [params])`: run the target here when this node
    /// exports it, otherwise forward one hop to the lowest-latency node
    /// discovery says does.
    ///
    /// Run here means through [`registry::invoke`], the same gate a direct
    /// call passes — so a proxied call meets the target's own ACL, fence,
    /// arity, types, deadline and ack barrier, and answers exactly what the
    /// direct call would. The gate looks the target up and drops the
    /// registry guard before the handler runs, so this nested pass cannot
    /// deadlock against the outer one. A forwarded call is gated by the
    /// node that runs it; the caller's session id rides along, and once
    /// session records replicate across the federation the remote node
    /// resolves it like its own.
    fn route_call(&self, ctx: &CallContext<'_>, args: &Args<'_>) -> Result<Value, Fault> {
        let (target, params) = (args.str(0)?, args.array(1).unwrap_or_default());
        if target.starts_with("proxy.call") || target.is_empty() {
            return Err(Fault::bad_params("proxy.call cannot route itself"));
        }
        if ctx.core.registry.read().lookup(target).is_some() {
            // Timed inside the outer handler's span already.
            return registry::invoke(ctx, target, params, &mut RequestTrace::disabled());
        }

        // This node will carry the call to another: refuse what its own
        // ACLs deny — routing must not become an ACL bypass.
        let dn = ctx.require_identity()?;
        if !ctx.core.acl.check_method(target, dn, &ctx.core.vo) {
            return Err(Fault::access_denied(format!(
                "access denied to {target} for {dn}"
            )));
        }
        let federation = &ctx.core.telemetry.federation;
        if ctx.hops >= ctx.core.config.proxy_max_hops {
            federation.hop_limit_rejects.inc();
            return Err(Fault::service(format!(
                "hop limit reached ({}) routing {target}: no node on the path exports it",
                ctx.core.config.proxy_max_hops
            )));
        }
        let aggregator = self
            .aggregator
            .as_ref()
            .ok_or_else(|| Fault::service(format!("{target} is not served here (no router)")))?;

        // Resolve the owner via discovery; never bounce back to ourselves.
        // Among candidates, prefer the lowest published p95 latency — the
        // same load attribute balanced clients steer by.
        let mut hits = aggregator.query_local(&ServiceQuery::by_method(target), ctx.now);
        hits.retain(|d| d.url != ctx.core.config.server_url);
        let best = hits
            .into_iter()
            .min_by_key(ServiceDescriptor::p95_us)
            .ok_or_else(|| Fault::service(format!("no federation node exports {target}")))?;
        let addr = best
            .host_port()
            .ok_or_else(|| Fault::service(format!("unroutable descriptor url {}", best.url)))?;

        let mut client =
            ClarensClient::peer(addr).with_header("x-clarens-hops", (ctx.hops + 1).to_string());
        if let Some(budget) = ctx.remaining_budget() {
            client = client.with_call_deadline(budget);
        }
        if let Some(session) = &ctx.session {
            client.set_session(session.id.clone());
        }
        let started = Instant::now();
        let answer = match client.call(target, params.to_vec()) {
            Ok(value) => Ok(value),
            // A remote fault is a completed exchange — the answer is the
            // fault, passed through verbatim so the caller sees exactly
            // what a direct call would have.
            Err(ClientError::Fault(fault)) => Err(fault),
            Err(other) => {
                federation.forward_failures.inc();
                return Err(Fault::service(format!(
                    "forward of {target} to {} failed: {other}",
                    best.url
                )));
            }
        };
        federation.forwarded.inc();
        federation
            .forward_us
            .record(started.elapsed().as_micros() as u64);
        answer
    }
}

/// The caller's stored proxy payload, opened with `password`.
fn open_stored(ctx: &CallContext<'_>, dn: &str, password: &str) -> Result<String, Fault> {
    let sealed = ctx
        .core
        .store
        .get(PROXIES_BUCKET, dn)
        .ok_or_else(|| Fault::service(format!("no stored proxy for {dn}")))?;
    let payload = open(password, dn, &sealed)
        .ok_or_else(|| Fault::not_authenticated("wrong password or corrupted proxy"))?;
    String::from_utf8(payload).map_err(|_| Fault::service("stored proxy payload is not UTF-8"))
}

/// Serialize a delegation chain into the stored-proxy payload format
/// (client-side helper; the private key is appended by the caller since
/// the server never needs to parse it).
pub fn chain_payload(chain: &[Certificate], key_note: &str) -> String {
    let mut out = String::new();
    for cert in chain {
        out.push_str(&cert.to_text());
        out.push('\n');
    }
    out.push_str("key:\n");
    out.push_str(key_note);
    out.push('\n');
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let sealed = seal("hunter2", "/O=g/CN=a", b"secret payload");
        assert_eq!(
            open("hunter2", "/O=g/CN=a", &sealed).unwrap(),
            b"secret payload"
        );
        // Wrong password / wrong DN / tampering all fail.
        assert!(open("wrong", "/O=g/CN=a", &sealed).is_none());
        assert!(open("hunter2", "/O=g/CN=b", &sealed).is_none());
        let mut tampered = sealed.clone();
        tampered[14] ^= 1;
        assert!(open("hunter2", "/O=g/CN=a", &tampered).is_none());
        assert!(open("hunter2", "/O=g/CN=a", &sealed[..10]).is_none());
    }

    #[test]
    fn sealing_randomized() {
        let a = seal("pw", "/O=g/CN=a", b"same");
        let b = seal("pw", "/O=g/CN=a", b"same");
        assert_ne!(a, b, "fresh nonce per store");
    }
}
