//! Discovery-aware client-side load balancing.
//!
//! A [`BalancedClient`] never holds a fixed server address. It resolves
//! the method it is about to call through the station network (the same
//! TCP query path `discovery.find_remote` uses — deliberately independent
//! of any single Clarens node, so resolution survives node death), steers
//! by the live load attributes servers publish with their heartbeats, and
//! fails over by blacklisting a dead endpoint and re-resolving.
//!
//! Selection is power-of-two-choices on the published `p95_us` latency
//! attribute: pick two random candidates, use the less-loaded one. That
//! spreads a fleet of clients across the federation without the herding
//! a strict pick-the-minimum rule causes when attributes refresh only on
//! heartbeat.
//!
//! [`with_session_affinity`](BalancedClient::with_session_affinity) swaps
//! the placement policy for rendezvous (highest-random-weight) hashing of
//! the session id over the live endpoint set: every client carrying the
//! same session lands on the same node, so its auth/ACL/resolved-session
//! cache entries stay warm instead of being re-derived on every node the
//! fleet happens to spray. Replication makes every node *able* to serve
//! every session (PR 7), so affinity is purely a cache optimization: when
//! the preferred node dies it is blacklisted and the hash re-ranks over
//! the survivors — deterministic failover, and only the dead node's
//! sessions move (the rendezvous property; no global reshuffle).
//!
//! The balancer also carries a preferred wire protocol. A fleet speaking
//! clarens-binary against a mixed federation remembers, per endpoint,
//! which nodes answered `415 Unsupported Media Type` and speaks XML-RPC
//! to those from the start on later re-pins (the inner client keeps that
//! next to each node's connection).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use clarens::client::{Backoff, ClarensClient, ClientError};
use clarens_wire::{Protocol, Value};
use monalisa_sim::station::query_station;
use monalisa_sim::{ServiceDescriptor, ServiceQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How long a failed endpoint stays blacklisted before it may be retried.
const BLACKLIST_COOLDOWN: Duration = Duration::from_secs(2);

/// Endpoints one call may try: the pinned one plus this many minus one
/// re-resolved after transport failures. Also how often an empty
/// resolution is repeated before the call gives up.
const MAX_ATTEMPTS: u32 = 4;

/// Pause after an empty resolution; doubles up to 8x.
const RESOLVE_BACKOFF: Duration = Duration::from_millis(25);

/// A federation client that routes every call via discovery.
///
/// What happens after a failed exchange is not decided here: the one
/// [`ClarensClient`] inside runs every call through its call loop
/// (DESIGN.md §10.1) — hint chase, leader-first writes, 415 downgrade,
/// retries, deadline — and keeps a connection per node. The balancer only
/// answers *which address next*.
pub struct BalancedClient {
    client: ClarensClient,
    router: Router,
}

/// The balancer's own state: discovery resolution, endpoint choice,
/// blacklist and re-pin schedule.
struct Router {
    stations: Vec<SocketAddr>,
    session: String,
    rng: StdRng,
    backoff: Backoff,
    /// The endpoint currently pinned.
    current: Option<ServiceDescriptor>,
    /// Endpoints that recently failed, with the time of the failure.
    blacklist: HashMap<String, Instant>,
    /// Drop the pin and re-resolve after this many successful calls, so a
    /// fleet of long-lived clients keeps tracking the published load
    /// attributes instead of freezing its initial placement.
    repin_every: Option<u64>,
    calls_since_pin: u64,
    resolutions: u64,
    failovers: u64,
    /// Route by rendezvous-hashing the session over live endpoints
    /// instead of p2c (cache-warm session affinity).
    affinity: bool,
}

impl BalancedClient {
    /// A client resolving through `stations`, calling with the given
    /// (already minted, replication-propagated) session. `seed` makes the
    /// candidate-choice jitter deterministic for reproducible runs.
    pub fn new(stations: Vec<SocketAddr>, session: impl Into<String>, seed: u64) -> Self {
        let session = session.into();
        // The client is bound to no address of its own: every call is
        // routed. Its retry budget is the re-resolutions of one call.
        let mut client = ClarensClient::new(String::new())
            .with_retries(MAX_ATTEMPTS - 1)
            .with_retry_seed(seed)
            .with_call_deadline(Duration::from_secs(2));
        client.set_session(session.clone());
        BalancedClient {
            client,
            router: Router {
                stations,
                session,
                rng: StdRng::seed_from_u64(seed),
                backoff: Backoff::new(RESOLVE_BACKOFF, RESOLVE_BACKOFF * 8, seed),
                current: None,
                blacklist: HashMap::new(),
                repin_every: None,
                calls_since_pin: 0,
                resolutions: 0,
                failovers: 0,
                affinity: false,
            },
        }
    }

    /// Prefer `protocol` when talking to endpoints. Binary-speaking
    /// clients downgrade per endpoint on 415 (see the module docs).
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.client = self.client.with_protocol(protocol);
        self
    }

    /// Route calls by rendezvous-hashing the session id over the live
    /// endpoint set, so repeat calls for one session hit the same node's
    /// warm caches. Falls back to the surviving nodes' hash order (and
    /// ultimately p2c among equals — there are none with distinct urls)
    /// when the preferred node is blacklisted.
    pub fn with_session_affinity(mut self) -> Self {
        self.router.affinity = true;
        self
    }

    /// Override the per-call deadline (default 2 s). It covers the whole
    /// call — every endpoint tried, leader hop and pause — not each
    /// attempt; only the discovery queries of a resolution run outside it.
    pub fn with_call_deadline(mut self, deadline: Duration) -> Self {
        self.client = self.client.with_call_deadline(deadline);
        self
    }

    /// Re-resolve (and possibly move) after every `calls` successful
    /// calls. Off by default: a lone client gains nothing from moving,
    /// but a fleet re-pinning periodically converges on an even spread as
    /// the servers' published latency attributes catch up with the load.
    pub fn with_repin_every(mut self, calls: u64) -> Self {
        self.router.repin_every = Some(calls.max(1));
        self
    }

    /// Times this client resolved an endpoint via discovery.
    pub fn resolutions(&self) -> u64 {
        self.router.resolutions
    }

    /// Times a failed endpoint was abandoned for a re-resolved one.
    pub fn failovers(&self) -> u64 {
        self.router.failovers
    }

    /// Binary -> XML-RPC protocol downgrades observed (415 negotiation),
    /// one per endpoint that has the binary protocol off.
    pub fn protocol_fallbacks(&self) -> u64 {
        self.client.protocol_fallbacks()
    }

    /// The url currently pinned, if any (tests/bench introspection).
    pub fn current_url(&self) -> Option<&str> {
        self.router.current.as_ref().map(|d| d.url.as_str())
    }

    /// The leader this client currently believes in, if any.
    pub fn believed_leader(&self) -> Option<&str> {
        self.client.last_leader().map(|(addr, _)| addr)
    }

    /// Invoke `method` on the pinned endpoint, resolving one through
    /// discovery first if none is pinned. A server-side fault is a
    /// completed exchange and is returned as-is; a transport failure
    /// blacklists the endpoint and, when the call may be sent again
    /// (idempotent, or provably never received), carries on at a
    /// re-resolved one within the same call.
    ///
    /// Replicated writes (session/VO/ACL/proxy/IM mutations) are
    /// leader-aware: once a NOT_LEADER hint teaches the client where the
    /// leader is, writes go straight there; when leadership moves, the
    /// next hint re-aims them.
    pub fn call(&mut self, method: &str, params: Vec<Value>) -> Result<Value, ClientError> {
        let BalancedClient { client, router } = self;
        let home = router.pinned(method)?;
        let result = client.call_via(home, method, params, &mut || router.fail_over(method));
        match &result {
            Ok(_) => router.calls_since_pin += 1,
            Err(ClientError::Fault(_)) => {}
            // Whatever surfaced a transport failure is suspect.
            Err(_) => router.abandon(),
        }
        result
    }
}

impl Router {
    /// The address of the pinned endpoint, pinning one first if there is
    /// none or its rotation is due.
    fn pinned(&mut self, method: &str) -> Result<String, ClientError> {
        let voluntary = self.current.is_some()
            && self
                .repin_every
                .is_some_and(|limit| self.calls_since_pin >= limit);
        if voluntary {
            self.current = None;
        }
        let mut attempt = 0;
        loop {
            if let Some(addr) = self.current.as_ref().and_then(|d| d.host_port()) {
                return Ok(addr.to_owned());
            }
            attempt += 1;
            match self.resolve(method, voluntary) {
                Ok(endpoint) => self.current = Some(endpoint),
                Err(e) if attempt == MAX_ATTEMPTS => return Err(e),
                // Candidates may reappear as blacklist cooldowns lapse.
                Err(_) => {
                    self.backoff.pause(attempt, None);
                }
            }
        }
    }

    /// Blacklist the pinned endpoint and drop the pin.
    fn abandon(&mut self) {
        if let Some(endpoint) = self.current.take() {
            self.blacklist.insert(endpoint.url, Instant::now());
            self.failovers += 1;
        }
    }

    /// The pinned endpoint failed mid-call: abandon it and name another.
    fn fail_over(&mut self, method: &str) -> Option<String> {
        self.abandon();
        self.current = self.resolve(method, false).ok();
        self.current.as_ref()?.host_port().map(str::to_owned)
    }

    /// Resolve `method` to a routable endpoint via the station network.
    ///
    /// A `voluntary` re-pin (periodic rotation, nothing failed) picks
    /// uniformly at random: the published latency attributes are
    /// cumulative and therefore stale under shifting load, and steering a
    /// whole fleet by a stale signal herds it onto whichever node looked
    /// best at the last heartbeat. Random rotation keeps the time-averaged
    /// spread even no matter how stale the attributes are, while the p2c
    /// steering below still handles initial placement and failover, where
    /// a persistently slow or dying node is exactly what the attributes
    /// do capture.
    fn resolve(&mut self, method: &str, voluntary: bool) -> Result<ServiceDescriptor, ClientError> {
        let query = ServiceQuery::by_method(method);
        let mut candidates: Vec<ServiceDescriptor> = Vec::new();
        for station in &self.stations {
            if let Ok(hits) = query_station(*station, &query) {
                for hit in hits {
                    if hit.host_port().is_some() && !candidates.iter().any(|d| d.url == hit.url) {
                        candidates.push(hit);
                    }
                }
            }
        }
        let now = Instant::now();
        self.blacklist
            .retain(|_, failed_at| now.duration_since(*failed_at) < BLACKLIST_COOLDOWN);
        candidates.retain(|d| !self.blacklist.contains_key(&d.url));
        if candidates.is_empty() {
            return Err(ClientError::Transport(format!(
                "discovery found no live endpoint for {method}"
            )));
        }
        let pick = if self.affinity {
            // Rendezvous hashing: the candidate with the highest
            // hash(session, url) wins. Stable while the node lives; when
            // it is blacklisted the next-ranked survivor takes over, and
            // only this session's traffic moves.
            (0..candidates.len())
                .max_by_key(|&i| rendezvous_score(&self.session, &candidates[i].url))
                .expect("candidates non-empty")
        } else {
            // Power-of-two-choices on published p95 latency.
            let first = (self.rng.next_u64() % candidates.len() as u64) as usize;
            let second = (self.rng.next_u64() % candidates.len() as u64) as usize;
            if voluntary || candidates[first].p95_us() <= candidates[second].p95_us() {
                first
            } else {
                second
            }
        };
        self.resolutions += 1;
        self.calls_since_pin = 0;
        Ok(candidates.swap_remove(pick))
    }
}

/// FNV-1a rendezvous score for (session, endpoint): each session ranks
/// every endpoint by an independent-looking hash, and the top-ranked live
/// endpoint is the session's home node.
fn rendezvous_score(session: &str, url: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in session
        .bytes()
        .chain(std::iter::once(0xff))
        .chain(url.bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_is_stable_and_minimally_disruptive() {
        let urls: Vec<String> = (0..6)
            .map(|i| format!("http://10.0.0.{i}:8080/clarens"))
            .collect();
        let sessions: Vec<String> = (0..200).map(|i| format!("session-{i}")).collect();
        let home = |session: &str, pool: &[String]| -> String {
            pool.iter()
                .max_by_key(|u| rendezvous_score(session, u))
                .unwrap()
                .clone()
        };
        // Stable: same inputs, same placement.
        for s in &sessions {
            assert_eq!(home(s, &urls), home(s, &urls));
        }
        // Spread: no node owns everything (probabilistic but deterministic
        // for this fixed session set).
        let mut per_node: HashMap<String, usize> = HashMap::new();
        for s in &sessions {
            *per_node.entry(home(s, &urls)).or_default() += 1;
        }
        assert!(
            per_node.len() >= 4,
            "placement too concentrated: {per_node:?}"
        );
        // Minimal disruption: removing one node only moves the sessions
        // that lived there.
        let dead = urls[2].clone();
        let survivors: Vec<String> = urls.iter().filter(|u| **u != dead).cloned().collect();
        for s in &sessions {
            let before = home(s, &urls);
            let after = home(s, &survivors);
            if before != dead {
                assert_eq!(before, after, "unaffected session {s} moved");
            } else {
                assert_ne!(after, dead);
            }
        }
    }
}
