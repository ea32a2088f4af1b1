//! The Clarens client API: typed access to a Clarens server over any of
//! the three protocols, with certificate login, session management, proxy
//! login, and convenience wrappers for the core services.
//!
//! Plays the role of the paper's Python client library ("a set of useful
//! client implementations for physics analysis", §7).

use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens_httpd::{ClientTls, HttpClient, Method, Request};
use clarens_pki::cert::{Certificate, Credential};
use clarens_wire::{Fault, Protocol, RpcCall, Value};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::services::system::auth_challenge;

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Transport(String),
    /// HTTP-level failure (non-200 status).
    Http(u16, String),
    /// The server returned an RPC fault.
    Fault(Fault),
    /// Malformed response payload.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(m) => write!(f, "transport error: {m}"),
            ClientError::Http(status, m) => write!(f, "HTTP {status}: {m}"),
            ClientError::Fault(fault) => write!(f, "{fault}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<Fault> for ClientError {
    fn from(f: Fault) -> Self {
        ClientError::Fault(f)
    }
}

/// Base pause before the first retry; doubles per attempt, with jitter.
const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// How many `NOT_LEADER` routing hints a single call will chase before
/// surfacing the fault. Hints can go stale mid-election (node A says B,
/// B says C), but a healthy cluster converges in one hop; a cycle longer
/// than this means the cluster has no settled leader yet.
const MAX_LEADER_HOPS: u32 = 3;

/// Transport-retry whitelist: only methods whose re-execution cannot
/// duplicate a side effect are retried after an I/O failure, because a
/// transport error leaves the first attempt's fate unknown (the request
/// may have been applied before the connection died).
fn is_idempotent(method: &str) -> bool {
    if let Some(rest) = method.strip_prefix("file.") {
        // Read-only file operations; excludes put/mkdir/rm.
        return matches!(rest, "read" | "ls" | "stat" | "find" | "size" | "md5");
    }
    if let Some(rest) = method.strip_prefix("system.") {
        // auth mints a session and logout destroys one — both side effects.
        return !matches!(rest, "auth" | "logout");
    }
    // Pure echoes; discovery queries; publish overwrites the same
    // descriptor, so replaying it is harmless. Replication fetches are
    // cursor-addressed reads of an append-only log — replaying one
    // re-serves the same bytes.
    method.starts_with("echo.")
        || matches!(
            method,
            "discovery.find"
                | "discovery.find_remote"
                | "discovery.status"
                | "discovery.publish"
                | "replication.fetch"
                | "replication.status"
        )
}

/// A Clarens client bound to one server.
pub struct ClarensClient {
    http: HttpClient,
    protocol: Protocol,
    endpoint: String,
    session: Option<String>,
    credential: Option<Credential>,
    now_fn: Arc<dyn Fn() -> i64 + Send + Sync>,
    /// Transport-error retries per call (idempotent methods only).
    retries: u32,
    /// Overall per-call budget covering every attempt and backoff pause.
    call_deadline: Option<Duration>,
    /// Jitter source; seedable so tests get a deterministic schedule.
    rng: StdRng,
    /// Total retry attempts performed over the client's lifetime.
    retries_performed: u64,
    protocol_fallbacks: u64,
    /// Extra headers attached to every RPC POST (e.g. `x-clarens-hops`
    /// when a proxy node forwards a call on a caller's behalf).
    extra_headers: Vec<(String, String)>,
    /// Trust roots kept from `new_tls`, so a `NOT_LEADER` redirect can
    /// rebuild an equivalent secure client for the hinted leader. `None`
    /// on plaintext clients.
    tls_roots: Option<Vec<Certificate>>,
    /// Calls re-routed to a hinted leader after a `NOT_LEADER` fault.
    leader_redirects: u64,
    /// The last leader hint successfully followed: `(host:port, epoch)`.
    /// Lets a routing layer (e.g. `BalancedClient`) learn where the
    /// leader is without a discovery round trip.
    last_leader: Option<(String, u64)>,
}

fn system_now() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0)
}

impl ClarensClient {
    /// Plaintext client speaking XML-RPC (the paper's default protocol).
    pub fn new(addr: impl Into<String>) -> Self {
        ClarensClient {
            http: HttpClient::new(addr),
            protocol: Protocol::XmlRpc,
            endpoint: "/clarens".into(),
            session: None,
            credential: None,
            now_fn: Arc::new(system_now),
            retries: 2,
            call_deadline: None,
            rng: StdRng::seed_from_u64(rand::rng().next_u64()),
            retries_performed: 0,
            protocol_fallbacks: 0,
            extra_headers: Vec::new(),
            tls_roots: None,
            leader_redirects: 0,
            last_leader: None,
        }
    }

    /// Secure-channel client: the TLS identity doubles as the login, so no
    /// explicit `login()` is required.
    pub fn new_tls(
        addr: impl Into<String>,
        credential: Credential,
        roots: Vec<Certificate>,
    ) -> Self {
        let cred_clone = credential.clone();
        let roots_clone = roots.clone();
        ClarensClient {
            http: HttpClient::new_tls(
                addr,
                ClientTls {
                    credential,
                    roots,
                    now_fn: Box::new(system_now),
                },
            ),
            credential: Some(cred_clone),
            tls_roots: Some(roots_clone),
            ..ClarensClient::new(String::new())
        }
    }

    /// Select the wire protocol (XML-RPC, SOAP, JSON-RPC, or clarens-binary).
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Attach a credential for `login()` over plaintext connections.
    pub fn with_credential(mut self, credential: Credential) -> Self {
        self.credential = Some(credential);
        self
    }

    /// Override the clock (deterministic tests).
    pub fn with_now_fn(mut self, now_fn: Arc<dyn Fn() -> i64 + Send + Sync>) -> Self {
        self.now_fn = now_fn;
        self
    }

    /// Number of transport-error retries per call (idempotent methods
    /// only; default 2, matching the `client_retries` config knob).
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Overall per-call deadline covering all attempts and backoff
    /// pauses. Also bounds how long a single read may stall, so a hung
    /// server cannot block the caller indefinitely.
    pub fn with_call_deadline(mut self, deadline: Duration) -> Self {
        self.call_deadline = Some(deadline);
        self
    }

    /// Seed the backoff-jitter RNG for a deterministic retry schedule.
    pub fn with_retry_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// Attach an extra header to every RPC POST this client sends. The
    /// proxy service uses this to carry the `x-clarens-hops` forwarding
    /// depth across node boundaries.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// Total retry attempts this client has performed.
    pub fn retries_performed(&self) -> u64 {
        self.retries_performed
    }

    /// How many times the client downgraded binary -> XML-RPC after a 415.
    pub fn protocol_fallbacks(&self) -> u64 {
        self.protocol_fallbacks
    }

    /// How many calls were re-routed to a hinted leader after `NOT_LEADER`.
    pub fn leader_redirects(&self) -> u64 {
        self.leader_redirects
    }

    /// The last leader hint successfully followed (`host:port`, epoch).
    pub fn last_leader(&self) -> Option<(&str, u64)> {
        self.last_leader
            .as_ref()
            .map(|(addr, epoch)| (addr.as_str(), *epoch))
    }

    /// The protocol currently spoken (may differ from the constructor's
    /// choice after a 415 downgrade).
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The current session id, if logged in.
    pub fn session_id(&self) -> Option<&str> {
        self.session.as_deref()
    }

    /// Adopt an existing session id (e.g. persisted from a previous run —
    /// the restart-survival workflow).
    pub fn set_session(&mut self, id: impl Into<String>) {
        self.session = Some(id.into());
    }

    /// Invoke `method` with `params`.
    ///
    /// Transport failures on idempotent methods are retried up to the
    /// configured count with jittered exponential backoff; the per-call
    /// deadline (if set) caps the total time across all attempts.
    ///
    /// A client speaking the binary protocol against a server that has it
    /// disabled gets `415 Unsupported Media Type` back; the client then
    /// downgrades itself to XML-RPC and replays the call, so callers never
    /// see the negotiation (DESIGN.md §13).
    /// A `NOT_LEADER` fault (a replicated write sent to a follower or a
    /// fenced leader) is chased transparently: the fault carries a
    /// `leader=HOST:PORT` hint, and the call is replayed against that
    /// node with the same session, up to [`MAX_LEADER_HOPS`] hops. A
    /// hint-less fault (mid-election, no leader known yet) is retried in
    /// place with backoff. The pre-dispatch fence fires *before* the
    /// handler runs, so an ordinary `NOT_LEADER` means nothing was
    /// executed and the replay is safe even for mutations — but a fault
    /// carrying `executed=maybe` (the leader lost its lease *after*
    /// applying the write, while waiting for the replicated ack) means
    /// the operation's fate is unknown; such faults are only replayed for
    /// idempotent methods and otherwise surface to the caller, which
    /// alone can decide whether re-issuing the mutation is safe.
    pub fn call(&mut self, method: &str, params: Vec<Value>) -> Result<Value, ClientError> {
        let call = RpcCall {
            method: method.to_owned(),
            params,
            id: Some(Value::Int(1)),
        };
        let idempotent = is_idempotent(method);
        let started = Instant::now();
        let mut result = match self.call_rpc(&call, idempotent) {
            Err(ClientError::Http(415, _)) if self.protocol == Protocol::Binary => {
                self.protocol = Protocol::XmlRpc;
                self.protocol_fallbacks += 1;
                self.call_rpc(&call, idempotent)
            }
            other => other,
        };
        let mut hops = 0u32;
        let mut blind_retries = 0u32;
        loop {
            let hint = match &result {
                // A post-execution rejection of a non-idempotent call must
                // not be replayed: the write may already have taken effect
                // (and may yet survive via replication).
                Err(ClientError::Fault(fault)) if idempotent || !fault.executed_maybe() => {
                    fault.leader_hint()
                }
                _ => None,
            };
            let Some((leader, _epoch)) = hint else { break };
            let remaining = self
                .call_deadline
                .map(|budget| budget.saturating_sub(started.elapsed()));
            if remaining.is_some_and(|r| r.is_zero()) {
                break;
            }
            if !leader.is_empty() && hops < MAX_LEADER_HOPS {
                hops += 1;
                self.leader_redirects += 1;
                let mut redirect = self.redirect_client(&leader, remaining);
                result = redirect.call_rpc(&call, idempotent);
                if result.is_ok() {
                    self.last_leader = Some((leader, _epoch));
                }
            } else if leader.is_empty() && blind_retries < self.retries {
                // Nobody claims the lease yet (election in flight): pause
                // and replay against the same node, on the retry budget.
                blind_retries += 1;
                self.retries_performed += 1;
                let pause = self.backoff(blind_retries);
                std::thread::sleep(match remaining {
                    Some(r) => pause.min(r),
                    None => pause,
                });
                result = self.call_rpc(&call, idempotent);
            } else {
                break;
            }
        }
        result
    }

    /// Build a client equivalent to this one (protocol, session, headers,
    /// transport flavour) but bound to `leader`, for one redirect hop.
    fn redirect_client(&self, leader: &str, remaining: Option<Duration>) -> ClarensClient {
        let mut client = match (&self.credential, &self.tls_roots) {
            (Some(credential), Some(roots)) => {
                ClarensClient::new_tls(leader.to_owned(), credential.clone(), roots.clone())
            }
            _ => ClarensClient::new(leader.to_owned()),
        };
        client.protocol = self.protocol;
        client.session = self.session.clone();
        client.credential = self.credential.clone();
        client.now_fn = Arc::clone(&self.now_fn);
        client.retries = self.retries;
        client.call_deadline = remaining.or(self.call_deadline);
        client.extra_headers = self.extra_headers.clone();
        client
    }

    /// One encode → transport → decode exchange in the current protocol.
    fn call_rpc(&mut self, call: &RpcCall, idempotent: bool) -> Result<Value, ClientError> {
        let body = clarens_wire::encode_call(self.protocol, call);
        let mut request = Request::new(Method::Post, self.endpoint.clone());
        request
            .headers
            .set("content-type", self.protocol.content_type());
        if let Some(session) = &self.session {
            request.headers.set("x-clarens-session", session.clone());
        }
        for (name, value) in &self.extra_headers {
            request.headers.set(name, value.clone());
        }
        request.body = body;

        let response = self.transport_with_retries(&request, idempotent)?;
        if response.status != 200 {
            return Err(ClientError::Http(
                response.status,
                String::from_utf8_lossy(&response.body).into_owned(),
            ));
        }
        clarens_wire::decode_response(self.protocol, &response.body)
            .map_err(|e| ClientError::Protocol(e.to_string()))?
            .into_result()
            .map_err(|e| match e {
                clarens_wire::WireError::Fault(f) => ClientError::Fault(f),
                other => ClientError::Protocol(other.to_string()),
            })
    }

    /// Issue one HTTP exchange, retrying transport failures when the
    /// operation is safe to replay, under the per-call deadline.
    fn transport_with_retries(
        &mut self,
        request: &Request,
        retryable: bool,
    ) -> Result<clarens_httpd::ClientResponse, ClientError> {
        let deadline = self.call_deadline.map(|budget| Instant::now() + budget);
        let mut attempt = 0u32;
        loop {
            if let Some(d) = deadline {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(ClientError::Transport("call deadline exceeded".into()));
                }
                // Bound each socket read by the remaining budget so a
                // stalled server surfaces as a timeout, not a hang.
                self.http.set_read_timeout(remaining);
            }
            match self.http.request(request) {
                Ok(response) => return Ok(response),
                Err(e) => {
                    if !retryable || attempt >= self.retries {
                        return Err(ClientError::Transport(e.to_string()));
                    }
                    attempt += 1;
                    self.retries_performed += 1;
                    self.http.close();
                    let pause = self.backoff(attempt);
                    match deadline {
                        Some(d) => {
                            let remaining = d.saturating_duration_since(Instant::now());
                            if remaining.is_zero() {
                                return Err(ClientError::Transport(e.to_string()));
                            }
                            std::thread::sleep(pause.min(remaining));
                        }
                        None => std::thread::sleep(pause),
                    }
                }
            }
        }
    }

    /// Exponential backoff with full jitter: attempt `n` waits a random
    /// duration in `[base·2ⁿ⁻¹ / 2, base·2ⁿ⁻¹]`, decorrelating clients
    /// that fail simultaneously (a retry-storm guard).
    fn backoff(&mut self, attempt: u32) -> Duration {
        let ceiling = BACKOFF_BASE
            .saturating_mul(1 << (attempt - 1).min(10))
            .as_millis() as u64;
        let jitter = self.rng.next_u64() % (ceiling / 2 + 1);
        Duration::from_millis(ceiling - jitter)
    }

    /// Authenticate with the attached credential via `system.auth`,
    /// storing the returned session.
    pub fn login(&mut self) -> Result<String, ClientError> {
        let credential = self
            .credential
            .clone()
            .ok_or_else(|| ClientError::Protocol("no credential attached".into()))?;
        let now = (self.now_fn)();
        let signature = credential.key.sign(auth_challenge(now).as_bytes());
        let mut chain_texts = vec![Value::from(credential.certificate.to_text())];
        for link in &credential.chain {
            chain_texts.push(Value::from(link.to_text()));
        }
        let result = self.call(
            "system.auth",
            vec![
                Value::Array(chain_texts),
                Value::Int(now),
                Value::Bytes(signature),
            ],
        )?;
        let session = result
            .get("session")
            .and_then(Value::as_str)
            .ok_or_else(|| ClientError::Protocol("auth response missing session".into()))?
            .to_owned();
        self.session = Some(session.clone());
        Ok(session)
    }

    /// Log in using a previously stored proxy (paper §2.6): only the DN and
    /// password are needed.
    pub fn login_proxy(&mut self, dn: &str, password: &str) -> Result<String, ClientError> {
        let result = self.call("proxy.login", vec![Value::from(dn), Value::from(password)])?;
        let session = result
            .get("session")
            .and_then(Value::as_str)
            .ok_or_else(|| ClientError::Protocol("login response missing session".into()))?
            .to_owned();
        self.session = Some(session.clone());
        Ok(session)
    }

    /// Destroy the current session.
    pub fn logout(&mut self) -> Result<bool, ClientError> {
        let result = self.call("system.logout", vec![])?;
        self.session = None;
        Ok(result.as_bool().unwrap_or(false))
    }

    /// `system.list_methods` as a string vector.
    pub fn list_methods(&mut self) -> Result<Vec<String>, ClientError> {
        let value = self.call("system.list_methods", vec![])?;
        value
            .as_array()
            .map(|items| {
                items
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_owned))
                    .collect()
            })
            .ok_or_else(|| ClientError::Protocol("list_methods did not return an array".into()))
    }

    /// `file.read` as raw bytes.
    pub fn file_read(
        &mut self,
        name: &str,
        offset: i64,
        nbytes: i64,
    ) -> Result<Vec<u8>, ClientError> {
        let value = self.call(
            "file.read",
            vec![Value::from(name), Value::Int(offset), Value::Int(nbytes)],
        )?;
        value
            .coerce_bytes()
            .ok_or_else(|| ClientError::Protocol("file.read did not return bytes".into()))
    }

    /// Download a whole file by looping `file.read` (the chunked-pull
    /// pattern of the original clients).
    pub fn file_download(&mut self, name: &str, chunk: i64) -> Result<Vec<u8>, ClientError> {
        let mut out = Vec::new();
        let mut offset = 0i64;
        loop {
            let piece = self.file_read(name, offset, chunk)?;
            let n = piece.len();
            out.extend_from_slice(&piece);
            if (n as i64) < chunk {
                return Ok(out);
            }
            offset += n as i64;
        }
    }

    /// HTTP GET download (the streaming path), returning the body.
    pub fn http_get_file(&mut self, virtual_path: &str) -> Result<Vec<u8>, ClientError> {
        let mut target = format!("/file{}", clarens_wire::percent::encode_path(virtual_path));
        if let Some(session) = &self.session {
            target.push_str(&format!("?session={session}"));
        }
        let mut request = Request::new(Method::Get, target);
        request.headers.set("host", "clarens");
        // GET of an immutable file is always safe to replay.
        let response = self.transport_with_retries(&request, true)?;
        if response.status != 200 {
            return Err(ClientError::Http(
                response.status,
                String::from_utf8_lossy(&response.body).into_owned(),
            ));
        }
        Ok(response.body)
    }

    /// Fetch a portal page (HTML) for inspection.
    pub fn get_page(&mut self, path: &str) -> Result<(u16, String), ClientError> {
        let mut target = path.to_owned();
        if let Some(session) = &self.session {
            let sep = if target.contains('?') { '&' } else { '?' };
            target.push_str(&format!("{sep}session={session}"));
        }
        let mut request = Request::new(Method::Get, target);
        request.headers.set("host", "clarens");
        let response = self.transport_with_retries(&request, true)?;
        Ok((
            response.status,
            String::from_utf8_lossy(&response.body).into_owned(),
        ))
    }

    /// Drop the underlying connection (next call reconnects).
    pub fn close_connection(&mut self) {
        self.http.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitelist_admits_reads_and_rejects_mutations() {
        for safe in [
            "echo.echo",
            "echo.payload",
            "system.ping",
            "system.list_methods",
            "system.stats",
            "file.read",
            "file.ls",
            "file.stat",
            "discovery.find",
            "discovery.publish",
        ] {
            assert!(is_idempotent(safe), "{safe} should be retryable");
        }
        for unsafe_method in [
            "file.put",
            "file.rm",
            "file.mkdir",
            "system.auth",
            "system.logout",
            "proxy.store",
            "proxy.login",
            "im.send",
            "shell.run",
        ] {
            assert!(
                !is_idempotent(unsafe_method),
                "{unsafe_method} must not be retried"
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_for_a_seed_and_exponentially_bounded() {
        let mut a = ClarensClient::new("127.0.0.1:1").with_retry_seed(7);
        let mut b = ClarensClient::new("127.0.0.1:1").with_retry_seed(7);
        for attempt in 1..=6 {
            let pa = a.backoff(attempt);
            let pb = b.backoff(attempt);
            assert_eq!(pa, pb, "same seed must give the same schedule");
            let ceiling = BACKOFF_BASE * (1 << (attempt - 1));
            assert!(pa <= ceiling, "attempt {attempt}: {pa:?} > {ceiling:?}");
            assert!(
                pa >= ceiling / 2,
                "attempt {attempt}: {pa:?} below half-ceiling floor"
            );
        }
        // Different seeds should decorrelate (not a hard guarantee per
        // draw, but across six draws a collision on all is ~impossible).
        let mut c = ClarensClient::new("127.0.0.1:1").with_retry_seed(8);
        let diverged = (1..=6).any(|n| a.backoff(n) != c.backoff(n));
        assert!(diverged, "different seeds produced identical schedules");
    }

    #[test]
    fn retries_recover_from_transient_connect_failures() {
        // No listener on this port: every attempt fails, and the retry
        // counter should reflect the configured budget for an idempotent
        // method, and stay at zero for a mutating one.
        let mut client = ClarensClient::new("127.0.0.1:9")
            .with_retries(2)
            .with_retry_seed(1)
            .with_call_deadline(Duration::from_secs(5));
        let err = client.call("echo.echo", vec![Value::from("x")]);
        assert!(matches!(err, Err(ClientError::Transport(_))));
        assert_eq!(client.retries_performed(), 2);

        let err = client.call("file.put", vec![]);
        assert!(matches!(err, Err(ClientError::Transport(_))));
        assert_eq!(client.retries_performed(), 2, "mutation must not retry");
    }
}
