//! The Clarens client API: typed access to a Clarens server over any of
//! the three protocols, with certificate login, session management, proxy
//! login, and convenience wrappers for the core services.
//!
//! Plays the role of the paper's Python client library ("a set of useful
//! client implementations for physics analysis", §7).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use clarens_httpd::{ClientError as HttpError, ClientTls, HttpClient, Method, Pipe, Request};
use clarens_pki::cert::{unix_now, Certificate, Credential};
use clarens_pki::keystream::SecretRng;
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

/// Ceiling of a single retry pause.
const BACKOFF_CAP: Duration = Duration::from_secs(10);

/// How many `NOT_LEADER` routing hints a single call will chase before
/// surfacing the fault. Hints can go stale mid-election (node A says B,
/// B says C), but a healthy cluster converges in one hop; a cycle longer
/// than this means the cluster has no settled leader yet.
const MAX_LEADER_HOPS: u32 = 3;

/// May `method` be sent again after an I/O failure? A transport error
/// leaves the first attempt's fate unknown (the request may have been
/// applied before the connection died), so only a method whose record
/// says re-execution cannot duplicate a side effect is. A name no built-in
/// table declares is not.
fn is_idempotent(method: &str) -> bool {
    crate::services::builtin(method).is_some_and(|m| m.idempotent)
}

/// Jittered exponential backoff: the pause policy of everything that
/// retries over the network, and the client stack's one sleep site.
/// Attempt `n` waits a random duration in `[c / 2, c]` with
/// `c = min(base·2ⁿ⁻¹, cap)`, decorrelating clients that fail
/// simultaneously (a retry-storm guard). Seeded, so a schedule replays.
pub struct Backoff {
    base: Duration,
    cap: Duration,
    rng: StdRng,
}

impl Backoff {
    /// A schedule starting at `base`, never pausing longer than `cap`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            base,
            cap,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The pause before retry number `attempt` (counted from 1).
    pub fn delay(&mut self, attempt: u32) -> Duration {
        let ceiling = self
            .base
            .saturating_mul(1 << attempt.saturating_sub(1).min(16))
            .min(self.cap)
            .as_millis() as u64;
        let jitter = self.rng.next_u64() % (ceiling / 2 + 1);
        Duration::from_millis(ceiling - jitter)
    }

    /// Sleep for [`delay`](Self::delay)`(attempt)`, cut short at `limit`
    /// (what is left of the caller's deadline). Returns the time slept.
    pub fn pause(&mut self, attempt: u32, limit: Option<Duration>) -> Duration {
        let delay = self.delay(attempt);
        let pause = limit.map_or(delay, |limit| delay.min(limit));
        std::thread::sleep(pause);
        pause
    }
}

/// What is left of `budget`, counted from the first time this is asked:
/// the call loop's one clock read.
fn budget_left(started: &mut Option<Instant>, budget: Option<Duration>) -> Option<Duration> {
    let budget = budget?;
    let now = Instant::now();
    Some(budget.saturating_sub(now.duration_since(*started.get_or_insert(now))))
}

/// What one exchange carries.
enum Payload<'a> {
    /// An RPC call, POSTed in the protocol the peer speaks.
    Rpc(&'a RpcCall),
    /// A plain GET of this target; a 200 body comes back as `Value::Bytes`.
    Get(&'a str),
}

/// What one exchange produced: the peer's answer (a value, or its fault /
/// HTTP status / undecodable payload), or — when none came — how far the
/// transport says the request got.
type Outcome = Result<Result<Value, ClientError>, HttpError>;

fn settle(outcome: Outcome) -> Result<Value, ClientError> {
    outcome.unwrap_or_else(|lost| Err(ClientError::Transport(lost.to_string())))
}

/// Everything [`classify`] weighs besides the outcome itself.
struct Attempt<'a> {
    /// The address the exchange went to.
    at: &'a str,
    idempotent: bool,
    /// The exchange rode a kept connection, not a fresh one.
    reused: bool,
    hops_left: u32,
    retries_left: u32,
    budget_left: bool,
}

/// What the call loop does after one exchange.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// The value is the answer.
    Done,
    /// Send again at once on a fresh connection: nothing was sent.
    Resend,
    /// Send to the leader the fault named, and remember it.
    Follow(String, u64),
    /// Back off, then send again on the retry budget.
    Pause,
    /// Hand the outcome to the caller. The leader hint of a `NOT_LEADER`
    /// fault is taken in all the same.
    Surface(Option<(String, u64)>),
}

/// The replay policy (DESIGN.md §10.1), and the only client-side code that
/// reads leader hints, `executed=maybe` or how a transport failed. A
/// request is sent again only when the method is idempotent or the peer
/// provably never received it.
fn classify(outcome: &Outcome, attempt: &Attempt<'_>) -> Verdict {
    use Verdict::*;
    let retry = |safe: bool| (safe && attempt.retries_left > 0).then_some(Pause);
    let hint = match outcome {
        Ok(Err(ClientError::Fault(fault))) => fault.leader_hint(),
        _ => None,
    };
    // What to do to send the request again; `None`: it must not be.
    let again = match (outcome, &hint) {
        (Ok(Ok(_)), _) => return Done,
        (Ok(Err(ClientError::Fault(fault))), Some((leader, epoch))) => {
            // The pre-dispatch fence rejects a write *before* the handler
            // runs, so an ordinary `NOT_LEADER` is safe to replay even for
            // a mutation. `executed=maybe` is the leader losing its lease
            // *after* applying the write: its fate is unknown, and only
            // the caller can decide whether issuing it again is safe.
            if fault.executed_maybe() && !attempt.idempotent {
                None
            } else if leader.is_empty() || leader == attempt.at {
                // Nobody else claims the lease (election in flight).
                retry(true)
            } else {
                (attempt.hops_left > 0).then(|| Follow(leader.clone(), *epoch))
            }
        }
        // Any other fault or status is a completed exchange: the answer.
        (Ok(Err(_)), _) => None,
        (Err(HttpError::Stale), _) if attempt.reused => Some(Resend),
        (Err(HttpError::NotSent(_) | HttpError::Stale), _) => retry(true),
        (Err(HttpError::TimedOut | HttpError::BadResponse(_)), _) => retry(attempt.idempotent),
    };
    match again {
        // Past the deadline nothing is sent again.
        Some(verdict) if attempt.budget_left => verdict,
        _ => Surface(hint),
    }
}

/// A Clarens client bound to one server.
pub struct ClarensClient {
    addr: String,
    /// Where connections to `addr` come from, for a pipe server.
    pipe: Option<Pipe>,
    /// Every server this client has talked to, by `host:port` — the bound
    /// address, each leader a hint named, each address a router supplied —
    /// so all of them keep their keep-alive (and TLS) connections across
    /// calls.
    peers: HashMap<String, HttpClient>,
    protocol: Protocol,
    endpoint: String,
    session: Option<String>,
    credential: Option<Credential>,
    /// Resends per call on the retry budget.
    retries: u32,
    /// Overall per-call budget: every attempt, hop and pause of one call.
    call_deadline: Option<Duration>,
    backoff: Backoff,
    /// Total resends performed over the client's lifetime.
    retries_performed: u64,
    /// Extra headers attached to every RPC POST (e.g. `x-clarens-hops`
    /// when a proxy node forwards a call on a caller's behalf).
    extra_headers: Vec<(String, String)>,
    /// Trust roots of a secure-channel client; `None` on plaintext ones.
    tls_roots: Option<Vec<Certificate>>,
    /// Calls re-routed to a hinted leader after a `NOT_LEADER` fault.
    leader_redirects: u64,
    /// The leader the last hint named, `(host:port, epoch)`. Replicated
    /// writes aim at it first instead of bouncing off a follower; it is
    /// forgotten when it stops answering.
    leader: Option<(String, u64)>,
}

impl ClarensClient {
    /// Plaintext client speaking XML-RPC (the paper's default protocol).
    pub fn new(addr: impl Into<String>) -> Self {
        ClarensClient {
            addr: addr.into(),
            pipe: None,
            peers: HashMap::new(),
            protocol: Protocol::XmlRpc,
            endpoint: "/clarens".into(),
            session: None,
            credential: None,
            retries: 2,
            call_deadline: None,
            backoff: Backoff::new(BACKOFF_BASE, BACKOFF_CAP, SecretRng.next_u64()),
            retries_performed: 0,
            extra_headers: Vec::new(),
            tls_roots: None,
            leader_redirects: 0,
            leader: None,
        }
    }

    /// A node's client of another node — replication fetches, election
    /// probes, forwarded calls: it speaks clarens-binary, so a
    /// WAL chunk crosses as raw bytes, with no XML to write or to parse.
    /// This is the one place the node-to-node protocol is chosen.
    pub fn peer(addr: impl Into<String>) -> Self {
        ClarensClient::new(addr).with_protocol(Protocol::Binary)
    }

    /// Secure-channel client: the TLS identity doubles as the login, so no
    /// explicit `login()` is required.
    pub fn new_tls(
        addr: impl Into<String>,
        credential: Credential,
        roots: Vec<Certificate>,
    ) -> Self {
        ClarensClient {
            credential: Some(credential),
            tls_roots: Some(roots),
            ..ClarensClient::new(addr)
        }
    }

    /// A client of a pipe server (`clarens::server::ClarensServer::pipe`):
    /// plaintext, or with `secure`'s credential and trust roots as
    /// [`ClarensClient::new_tls`] does.
    pub fn over_pipe(pipe: Pipe, secure: Option<(Credential, Vec<Certificate>)>) -> Self {
        let client = match secure {
            Some((credential, roots)) => ClarensClient::new_tls("pipe", credential, roots),
            None => ClarensClient::new("pipe"),
        };
        ClarensClient {
            pipe: Some(pipe),
            ..client
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

    /// Resends per call on the retry budget (default 2). The budget is
    /// shared by everything one call may retry: transport failures and
    /// hint-less `NOT_LEADER`.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Overall per-call deadline. It is started once per call and what is
    /// left of it bounds the connect, every socket read and write, and
    /// every backoff pause of every attempt and leader hop, so one call
    /// returns within the deadline plus a scheduling quantum whatever the
    /// retry count.
    pub fn with_call_deadline(mut self, deadline: Duration) -> Self {
        self.call_deadline = Some(deadline);
        self
    }

    /// Seed the backoff-jitter RNG for a deterministic retry schedule.
    pub fn with_retry_seed(mut self, seed: u64) -> Self {
        self.backoff = Backoff::new(BACKOFF_BASE, BACKOFF_CAP, seed);
        self
    }

    /// Attach an extra header to every RPC POST this client sends. The
    /// proxy service uses this to carry the `x-clarens-hops` forwarding
    /// depth across node boundaries.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// Total resends this client has performed: every request that went
    /// out again after a failed exchange or a hint-less `NOT_LEADER`.
    pub fn retries_performed(&self) -> u64 {
        self.retries_performed
    }

    /// How many calls were re-routed to a hinted leader after `NOT_LEADER`.
    pub fn leader_redirects(&self) -> u64 {
        self.leader_redirects
    }

    /// The leader the last hint named (`host:port`, epoch), unless it has
    /// stopped answering since.
    pub fn last_leader(&self) -> Option<(&str, u64)> {
        self.leader
            .as_ref()
            .map(|(addr, epoch)| (addr.as_str(), *epoch))
    }

    /// The protocol this client speaks, as chosen at construction.
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

    /// Invoke `method` with `params` on the bound server.
    ///
    /// What happens after a failed exchange — resend, retry with backoff,
    /// chase a `NOT_LEADER` hint, or surface the error — is decided by one
    /// loop under one deadline; the replay table is in DESIGN.md §10.1. A
    /// mutation whose fate is unknown (timed out, or rejected with
    /// `executed=maybe`) is never sent twice.
    pub fn call(&mut self, method: &str, params: Vec<Value>) -> Result<Value, ClientError> {
        self.call_via(self.addr.clone(), method, params, &mut || None)
    }

    /// [`call`](Self::call) for a routing layer: the call starts at `home`
    /// instead of the bound address, and when `home` fails at the
    /// transport level and the call may be sent again, `reroute` may name
    /// the address to carry on at (`None`: stay). Hops, retries and the
    /// deadline stay those of the one call.
    pub fn call_via(
        &mut self,
        home: String,
        method: &str,
        params: Vec<Value>,
        reroute: &mut dyn FnMut() -> Option<String>,
    ) -> Result<Value, ClientError> {
        let call = RpcCall {
            method: method.to_owned(),
            params,
            id: Some(Value::Int(1)),
        };
        self.run(home, Payload::Rpc(&call), reroute)
    }

    /// The call loop: exchange, classify, act — until a verdict ends it.
    fn run(
        &mut self,
        mut home: String,
        payload: Payload<'_>,
        reroute: &mut dyn FnMut() -> Option<String>,
    ) -> Result<Value, ClientError> {
        // A GET is always safe to replay, and served by every node.
        let (idempotent, leader_first) = match payload {
            Payload::Rpc(call) => (
                is_idempotent(&call.method),
                crate::services::builtin(&call.method).is_some_and(|m| m.replicated),
            ),
            Payload::Get(_) => (true, false),
        };
        let mut at = match &self.leader {
            Some((leader, _)) if leader_first => leader.clone(),
            _ => home.clone(),
        };
        let (mut hops, mut retried) = (0u32, 0u32);
        let mut started = None;
        let mut left = budget_left(&mut started, self.call_deadline);
        loop {
            let (outcome, reused) = self.exchange(&at, &payload, left);
            left = budget_left(&mut started, self.call_deadline);
            let verdict = classify(
                &outcome,
                &Attempt {
                    at: &at,
                    idempotent,
                    reused,
                    hops_left: MAX_LEADER_HOPS - hops,
                    retries_left: self.retries.saturating_sub(retried),
                    budget_left: left.is_none_or(|left| !left.is_zero()),
                },
            );
            match verdict {
                Verdict::Done => return settle(outcome),
                Verdict::Surface(hint) => {
                    if let Some((leader, epoch)) = hint {
                        self.learn(leader, epoch);
                    } else if outcome.is_err() && at != home {
                        self.leader = None;
                    }
                    return settle(outcome);
                }
                Verdict::Resend => self.retries_performed += 1,
                Verdict::Follow(leader, epoch) => {
                    hops += 1;
                    self.leader_redirects += 1;
                    self.learn(leader.clone(), epoch);
                    at = leader;
                }
                Verdict::Pause => {
                    retried += 1;
                    self.retries_performed += 1;
                    if at != home {
                        // The leader we aimed at is gone or deposed: stop
                        // aiming at it and ask the home node again.
                        self.leader = None;
                    } else if outcome.is_err() {
                        home = reroute().unwrap_or(home);
                    }
                    at.clone_from(&home);
                    let slept = self.backoff.pause(retried, left);
                    left = left.map(|left| left.saturating_sub(slept));
                }
            }
        }
    }

    /// Take in a leader hint: remember the leader it names, or — when it
    /// names none — that there is none to aim at. A hint older than what
    /// is known loses.
    fn learn(&mut self, leader: String, epoch: u64) {
        let stale = matches!(&self.leader, Some((_, known)) if *known > epoch);
        if !stale {
            self.leader = (!leader.is_empty()).then_some((leader, epoch));
        }
    }

    /// One encode → transport → decode exchange with the server at `at`,
    /// every socket wait bounded by `bound`. Also reports whether it rode
    /// a kept connection.
    fn exchange(
        &mut self,
        at: &str,
        payload: &Payload<'_>,
        bound: Option<Duration>,
    ) -> (Outcome, bool) {
        if !self.peers.contains_key(at) {
            let tls = match (&self.credential, &self.tls_roots) {
                (Some(credential), Some(roots)) => Some(ClientTls {
                    credential: credential.clone(),
                    roots: roots.clone(),
                    now_fn: Box::new(unix_now),
                }),
                _ => None,
            };
            let http = match (&self.pipe, tls) {
                (Some(pipe), tls) if at == self.addr => HttpClient::over_pipe(pipe.clone(), tls),
                (_, Some(tls)) => HttpClient::new_tls(at, tls),
                (_, None) => HttpClient::new(at),
            };
            self.peers.insert(at.to_owned(), http);
        }
        let http = self.peers.get_mut(at).expect("inserted above");
        let protocol = self.protocol;
        let request = match payload {
            Payload::Rpc(call) => {
                let mut request = Request::new(Method::Post, self.endpoint.clone());
                request.headers.set("content-type", protocol.content_type());
                if let Some(session) = &self.session {
                    request.headers.set("x-clarens-session", session.clone());
                }
                for (name, value) in &self.extra_headers {
                    request.headers.set(name, value.clone());
                }
                request.body = clarens_wire::encode_call(protocol, call);
                request
            }
            Payload::Get(target) => {
                let mut request = Request::new(Method::Get, *target);
                request.headers.set("host", "clarens");
                request
            }
        };
        if let Some(bound) = bound {
            http.set_read_timeout(bound);
        }
        let reused = http.is_connected();
        let outcome = http.request(&request).map(|response| match payload {
            _ if response.status != 200 => Err(ClientError::Http(
                response.status,
                String::from_utf8_lossy(&response.body).into_owned(),
            )),
            Payload::Get(_) => Ok(Value::Bytes(response.body)),
            Payload::Rpc(_) => clarens_wire::decode_response(protocol, &response.body)
                .and_then(|decoded| decoded.into_result())
                .map_err(|e| match e {
                    clarens_wire::WireError::Fault(f) => ClientError::Fault(f),
                    other => ClientError::Protocol(other.to_string()),
                }),
        });
        (outcome, reused)
    }

    /// Authenticate with the attached credential via `system.auth`,
    /// storing the returned session.
    pub fn login(&mut self) -> Result<String, ClientError> {
        let credential = self
            .credential
            .clone()
            .ok_or_else(|| ClientError::Protocol("no credential attached".into()))?;
        let now = unix_now();
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

    /// GET `target` from the bound server through the call loop.
    pub(crate) fn get(&mut self, target: &str) -> Result<Vec<u8>, ClientError> {
        match self.run(self.addr.clone(), Payload::Get(target), &mut || None)? {
            Value::Bytes(body) => Ok(body),
            other => unreachable!("a GET settles as bytes, not {other:?}"),
        }
    }

    /// HTTP GET download (the streaming path), returning the body.
    pub fn http_get_file(&mut self, virtual_path: &str) -> Result<Vec<u8>, ClientError> {
        let mut target = format!("/file{}", clarens_wire::percent::encode_path(virtual_path));
        if let Some(session) = &self.session {
            target.push_str(&format!("?session={session}"));
        }
        self.get(&target)
    }

    /// Fetch a portal page (HTML) for inspection.
    pub fn get_page(&mut self, path: &str) -> Result<(u16, String), ClientError> {
        let mut target = path.to_owned();
        if let Some(session) = &self.session {
            let sep = if target.contains('?') { '&' } else { '?' };
            target.push_str(&format!("{sep}session={session}"));
        }
        match self.get(&target) {
            Ok(body) => Ok((200, String::from_utf8_lossy(&body).into_owned())),
            Err(ClientError::Http(status, body)) => Ok((status, body)),
            Err(other) => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    use clarens_wire::RpcResponse;

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
        let schedule = |seed| Backoff::new(BACKOFF_BASE, BACKOFF_CAP, seed);
        let (mut a, mut b) = (schedule(7), schedule(7));
        for attempt in 1..=6 {
            let pa = a.delay(attempt);
            let pb = b.delay(attempt);
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
        let mut c = schedule(8);
        let diverged = (1..=6).any(|n| a.delay(n) != c.delay(n));
        assert!(diverged, "different seeds produced identical schedules");
        // The cap holds however long the failure streak.
        assert!(schedule(9).delay(40) <= BACKOFF_CAP);
    }

    const LEADER: &str = "10.0.0.2:8080";

    fn outcomes() -> Vec<(&'static str, Outcome)> {
        let fault = |f: Fault| Ok(Err(ClientError::Fault(f)));
        vec![
            ("ok", Ok(Ok(Value::Int(1)))),
            ("fault", fault(Fault::service("boom"))),
            ("hint", fault(Fault::not_leader(LEADER, 7))),
            ("empty hint", fault(Fault::not_leader("", 7))),
            ("maybe", fault(Fault::not_leader_executed(LEADER, 7))),
            ("415", Ok(Err(ClientError::Http(415, String::new())))),
            ("not sent", Err(HttpError::NotSent("refused".into()))),
            ("stale", Err(HttpError::Stale)),
            ("timeout", Err(HttpError::TimedOut)),
            ("malformed", Err(HttpError::BadResponse("eof".into()))),
        ]
    }

    /// The replay table of DESIGN.md §10.1, row by row, over every
    /// combination of method kind, connection age and remaining budgets.
    #[test]
    fn classifier_replay_table() {
        use Verdict::*;
        let hint = || Some((LEADER.to_owned(), 7));
        for (name, outcome) in outcomes() {
            for bits in 0..32u32 {
                let flag = |bit: u32| bits & (1 << bit) != 0;
                let (idempotent, reused) = (flag(0), flag(1));
                let (hops, retries, budget) = (flag(2), flag(3), flag(4));
                let verdict = classify(
                    &outcome,
                    &Attempt {
                        at: "10.0.0.1:8080",
                        idempotent,
                        reused,
                        hops_left: if hops { 3 } else { 0 },
                        retries_left: if retries { 2 } else { 0 },
                        budget_left: budget,
                    },
                );
                let surface = || match name {
                    "hint" | "maybe" => Surface(hint()),
                    "empty hint" => Surface(Some((String::new(), 7))),
                    _ => Surface(None),
                };
                let pause = |safe: bool| {
                    if safe && retries && budget {
                        Pause
                    } else {
                        surface()
                    }
                };
                let follow = || {
                    if hops && budget {
                        Follow(LEADER.to_owned(), 7)
                    } else {
                        surface()
                    }
                };
                let expected = match name {
                    "ok" => Done,
                    // Any other fault or status is the answer.
                    "fault" | "415" => surface(),
                    "hint" => follow(),
                    "empty hint" => pause(true),
                    // A mutation the old leader may have applied always
                    // surfaces, and the hint is still learned.
                    "maybe" if !idempotent => Surface(hint()),
                    "maybe" => follow(),
                    // Never received: any method may go again, once per
                    // stale connection for free, else on the retry budget.
                    "stale" if reused && budget => Resend,
                    "stale" if reused => surface(),
                    "stale" | "not sent" => pause(true),
                    // Fate unknown: a mutation always surfaces.
                    "timeout" | "malformed" => pause(idempotent),
                    other => unreachable!("{other}"),
                };
                assert_eq!(verdict, expected, "{name}, flags {bits:05b}");
            }
        }
        // A node that names itself leader while fencing writes has no
        // settled leader to offer: retried in place, never followed.
        let own = Ok(Err(ClientError::Fault(Fault::not_leader(LEADER, 7))));
        let at_leader = Attempt {
            at: LEADER,
            idempotent: false,
            reused: true,
            hops_left: 3,
            retries_left: 2,
            budget_left: true,
        };
        assert_eq!(classify(&own, &at_leader), Pause);
    }

    /// What a scripted peer does with a request it has read.
    enum Reply {
        /// Answer 200 with this value or fault, in the request's protocol.
        Rpc(Result<Value, Fault>),
        /// Answer 200 with this value, then close the connection without
        /// announcing it.
        RpcThenClose(Value),
        /// Leave it unanswered and hold the connection open.
        Stall,
        /// Leave it unanswered and close the connection.
        HangUp,
    }

    /// A loopback peer that reads every request whole, counts it, and
    /// answers as scripted. One connection at a time.
    struct ScriptedPeer {
        addr: String,
        seen: Arc<AtomicUsize>,
        /// Connections served to their end and closed.
        closed: Arc<AtomicUsize>,
        stop: Arc<AtomicBool>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl ScriptedPeer {
        fn start(script: impl Fn(Protocol) -> Reply + Send + 'static) -> ScriptedPeer {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let seen = Arc::new(AtomicUsize::new(0));
            let closed = Arc::new(AtomicUsize::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let thread = {
                let (seen, closed, stop) = (seen.clone(), closed.clone(), stop.clone());
                std::thread::spawn(move || {
                    for sock in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        serve(sock.unwrap(), &script, &seen);
                        closed.fetch_add(1, Ordering::SeqCst);
                    }
                })
            };
            ScriptedPeer {
                addr,
                seen,
                closed,
                stop,
                thread: Some(thread),
            }
        }

        fn seen(&self) -> usize {
            self.seen.load(Ordering::SeqCst)
        }
    }

    impl Drop for ScriptedPeer {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so it sees the flag.
            let _ = TcpStream::connect(&self.addr);
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }

    /// Serve one connection until the client closes it.
    fn serve(sock: TcpStream, script: &impl Fn(Protocol) -> Reply, seen: &AtomicUsize) {
        let mut reader = std::io::BufReader::new(sock);
        while let Ok(request) = clarens_httpd::parse::read_request(&mut reader, 1 << 20) {
            let binary =
                request.headers.get("content-type") == Some(Protocol::Binary.content_type());
            let protocol = if binary {
                Protocol::Binary
            } else {
                Protocol::XmlRpc
            };
            seen.fetch_add(1, Ordering::SeqCst);
            let (response, close) = match script(protocol) {
                Reply::Rpc(Ok(value)) => (RpcResponse::Success(value), false),
                Reply::Rpc(Err(fault)) => (RpcResponse::Fault(fault), false),
                Reply::RpcThenClose(value) => (RpcResponse::Success(value), true),
                Reply::Stall => continue,
                Reply::HangUp => return,
            };
            let body = clarens_wire::encode_response(protocol, &response, None);
            let response = clarens_httpd::Response::ok(protocol.content_type(), body);
            let sent =
                clarens_httpd::parse::write_response(reader.get_mut(), response, true, false);
            if sent.is_err() || close {
                return;
            }
        }
    }

    fn client(peer: &ScriptedPeer, retries: u32) -> ClarensClient {
        ClarensClient::new(peer.addr.clone())
            .with_retries(retries)
            .with_retry_seed(1)
    }

    #[test]
    fn unsent_requests_are_retried_for_any_method() {
        // No listener on this port: nothing is ever written, so even a
        // mutation may go again, and every resend is counted.
        let mut client = ClarensClient::new("127.0.0.1:9")
            .with_retries(2)
            .with_retry_seed(1)
            .with_call_deadline(Duration::from_secs(5));
        let err = client.call("echo.echo", vec![Value::from("x")]);
        assert!(matches!(err, Err(ClientError::Transport(_))));
        assert_eq!(client.retries_performed(), 2);
        let err = client.call("file.put", vec![]);
        assert!(matches!(err, Err(ClientError::Transport(_))));
        assert_eq!(client.retries_performed(), 4);
    }

    #[test]
    fn a_written_mutation_is_sent_once_and_a_read_once_per_retry() {
        let peer = ScriptedPeer::start(|_| Reply::HangUp);
        let mut client = client(&peer, 2);
        let err = client.call("im.send", vec![Value::from("dn"), Value::from("hi")]);
        assert!(matches!(err, Err(ClientError::Transport(_))), "{err:?}");
        assert_eq!(peer.seen(), 1, "a mutation of unknown fate went out again");
        assert_eq!(client.retries_performed(), 0);

        let err = client.call("echo.echo", vec![Value::Int(1)]);
        assert!(matches!(err, Err(ClientError::Transport(_))), "{err:?}");
        assert_eq!(
            peer.seen(),
            1 + 3,
            "an idempotent call goes 1 + retries times"
        );
        assert_eq!(client.retries_performed(), 2, "every resend is counted");
    }

    #[test]
    fn call_deadline_bounds_the_whole_call_whatever_the_retry_count() {
        let peer = ScriptedPeer::start(|_| Reply::Stall);
        for (retries, method) in [(0, "echo.echo"), (4, "echo.echo"), (4, "im.send")] {
            let before = peer.seen();
            let mut client = client(&peer, retries).with_call_deadline(Duration::from_millis(300));
            let started = Instant::now();
            let err = client.call(method, vec![Value::Int(1)]);
            let took = started.elapsed();
            assert!(matches!(err, Err(ClientError::Transport(_))), "{err:?}");
            assert!(
                took >= Duration::from_millis(290) && took < Duration::from_millis(450),
                "{method} with {retries} retries took {took:?} under a 300 ms deadline"
            );
            assert_eq!(peer.seen() - before, 1, "the stall ate the whole budget");
        }
    }

    /// A loopback address that swallows connection attempts: a listener
    /// nobody accepts from, its accept queue filled until a connect goes
    /// unanswered. `None` where the queue cannot be filled (fd limit).
    fn black_hole() -> Option<(TcpListener, Vec<TcpStream>)> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut queued = Vec::new();
        loop {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
                Ok(sock) => queued.push(sock),
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                    return Some((listener, queued))
                }
                Err(_) => return None,
            }
        }
    }

    #[test]
    fn connect_is_bounded_by_the_call_deadline() {
        let Some((listener, _queued)) = black_hole() else {
            eprintln!("skipped: could not fill a listen queue here");
            return;
        };
        let mut client = ClarensClient::new(listener.local_addr().unwrap().to_string())
            .with_retries(2)
            .with_call_deadline(Duration::from_millis(200));
        let started = Instant::now();
        let err = client.call("echo.echo", vec![Value::Int(1)]);
        let took = started.elapsed();
        assert!(matches!(err, Err(ClientError::Transport(_))), "{err:?}");
        assert!(
            took >= Duration::from_millis(190) && took < Duration::from_millis(400),
            "an unanswered connect took {took:?} under a 200 ms deadline"
        );
    }

    #[test]
    fn stale_keep_alive_connection_is_replaced_for_any_method_and_counted() {
        // The peer answers, then closes the connection the client keeps.
        let peer = ScriptedPeer::start(|_| Reply::RpcThenClose(Value::Int(1)));
        let mut client = client(&peer, 0);
        client.call("im.send", vec![]).unwrap();
        while peer.closed.load(Ordering::SeqCst) < 1 {
            std::thread::yield_now();
        }
        // Nothing of the second call is written to the dead connection, so
        // it goes out on a fresh one — with no retry budget at all.
        client.call("im.send", vec![]).unwrap();
        assert_eq!(peer.seen(), 2);
        assert_eq!(client.retries_performed(), 1);
    }

    #[test]
    fn hops_and_retries_are_one_budget_per_call() {
        // The follower names a leader that is itself mid-election: every
        // round trip costs one hop and one retry, and the call ends when
        // either runs out — 1 + retries + hops exchanges at most.
        let leader = ScriptedPeer::start(|_| Reply::Rpc(Err(Fault::not_leader("", 3))));
        let hint = leader.addr.clone();
        let follower = ScriptedPeer::start(move |_| Reply::Rpc(Err(Fault::not_leader(&hint, 3))));
        let mut client = client(&follower, 2);
        let err = client.call("im.send", vec![]);
        assert!(matches!(err, Err(ClientError::Fault(_))), "{err:?}");
        assert_eq!(
            follower.seen() + leader.seen(),
            1 + 2 + MAX_LEADER_HOPS as usize
        );
        assert_eq!(client.retries_performed(), 2);
        assert_eq!(client.leader_redirects(), MAX_LEADER_HOPS as u64);
        assert_eq!(client.last_leader(), None, "a deposed leader is forgotten");
    }

    #[test]
    fn executed_maybe_surfaces_a_mutation_and_still_teaches_the_leader() {
        let peer = ScriptedPeer::start(|_| Reply::Rpc(Err(Fault::not_leader_executed(LEADER, 9))));
        let mut client = client(&peer, 2);
        match client.call("im.send", vec![]) {
            Err(ClientError::Fault(fault)) => assert!(fault.executed_maybe()),
            other => panic!("expected the fault to surface, got {other:?}"),
        }
        assert_eq!(peer.seen(), 1);
        assert_eq!(client.leader_redirects(), 0);
        assert_eq!(client.last_leader(), Some((LEADER, 9)));
    }

    #[test]
    fn binary_client_hinted_to_a_leader_finishes_there_in_binary() {
        let leader = crate::testkit::TestGrid::start();
        let hint = leader.addr();
        let follower = ScriptedPeer::start(move |_| Reply::Rpc(Err(Fault::not_leader(&hint, 1))));
        let mut client = client(&follower, 0)
            .with_protocol(Protocol::Binary)
            .with_credential(leader.user.clone());
        // `system.auth` is a replicated write: fenced by the follower,
        // accepted by the leader the hint names.
        client.login().expect("login via hint");
        assert_eq!(client.leader_redirects(), 1);
        assert_eq!(client.last_leader(), Some((leader.addr().as_str(), 1)));
        // The next write aims at the remembered leader, over the
        // connection the hop left there.
        client.call("system.logout", vec![]).unwrap();
        assert_eq!(follower.seen(), 1);
        assert_eq!(client.leader_redirects(), 1);
        assert_eq!(client.protocol(), Protocol::Binary);
        leader.cleanup();
    }
}
