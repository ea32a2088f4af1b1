//! Lease-based leader election through the discovery network
//! (DESIGN.md §14).
//!
//! The policy is the [`Election`] step machine — no clock, socket or
//! thread in it; the [`ElectionManager`] thread is its driver. Each tick
//! (lease/4) a node publishes its `cluster` member advert and, while it
//! leads, its `cluster-leader` lease, then reads the leases back; the
//! driver sends the node's module descriptors with every tick. A leader
//! renews only after its publish lands and no rival lease moved within a
//! lapse (1.5 leases); a higher epoch, or an equal one at a lower address,
//! demotes it. A member advert carries its node's epoch, and a leader that
//! reads one above its own (a claim no lease ever showed) claims above it,
//! since that node can follow no lower epoch. A lease lapsed, or none seen for a lapse from a reachable
//! station, starts an election: pause, recheck, rank the live members by
//! the position of the data each holds, read from `system.health`. Stamps
//! are aged on the observer's clock from when they changed, never
//! subtracted from it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use clarens::core::ClarensCore;
use clarens::federation::FederationRole::{self, Follower, Leader};
use clarens::federation::Position;
use clarens::services::discovery::module_descriptors;
use clarens::ClarensClient;
use clarens_wire::Value;
use monalisa_sim::station::query_stations;
use monalisa_sim::{Publication, ServiceDescriptor, ServiceQuery, UdpPublisher};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::Worker;

/// Service name of the per-node liveness descriptor.
pub const MEMBER_SERVICE: &str = "cluster";
/// Service name of the leader lease descriptor.
pub const LEASE_SERVICE: &str = "cluster-leader";

/// What the machine reads of its node at every tick.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Node {
    /// Current role.
    pub role: FederationRole,
    /// Leader epoch the node believes in.
    pub epoch: u64,
    /// The position of the data the node holds: the election rank.
    pub applied: Position,
    /// Highest `EpochFence` in the node's log.
    pub fence: u64,
}

/// What the driver feeds the machine.
#[derive(Clone, Debug)]
pub enum Input {
    /// A wake fell due; carries the node's current state.
    Tick(Node),
    /// Whether an [`Effect::Publish`] reached the stations.
    Published(bool),
    /// Answer to [`Effect::Query`]: the freshest descriptor per url, and
    /// whether any station answered at all.
    Found(Vec<ServiceDescriptor>, bool),
    /// Answer to [`Effect::Probe`]: per peer that answered, `(addr,
    /// is_leader, applied)`.
    Health(Vec<(String, bool, Position)>),
}

/// What the machine asks the driver to do.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// Publish a descriptor; answered by [`Input::Published`].
    Publish(ServiceDescriptor),
    /// Query the stations for a service; answered by [`Input::Found`].
    Query(&'static str),
    /// Ask each peer for `system.health`; answered by [`Input::Health`].
    Probe(Vec<String>),
    /// Tick again at this time.
    Wake(u64),
    /// Seal the log with this epoch's fence and become the leader.
    Promote(u64),
    /// Stop leading; follow this leader ("" if unknown) at this epoch.
    Demote(String, u64),
    /// Follow this leader at this epoch.
    Follow(String, u64),
    /// Keep the lease for this many more milliseconds.
    Renew(u64),
}

/// Where the machine is between steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Idle,
    /// Awaiting the lease query; the time of the lease publish before it.
    Observe(Option<u64>),
    Pause(u64),
    Recheck,
    Members,
    Ranking,
    /// A leader, awaiting the member adverts.
    Outranked,
}

/// The election policy of one node (see the module docs).
pub struct Election {
    addr: String,
    lease_ms: u64,
    /// A lease (or the absence of any lease) older than this has lapsed.
    lapse: u64,
    jitter_ms: u64,
    rng: StdRng,
    node: Node,
    phase: Phase,
    /// The current step's time, and the effects it has asked for.
    now: u64,
    out: Vec<Effect>,
    /// Did every publish since the last tick succeed?
    published: bool,
    /// While leading: when this node's lease last reached the stations.
    landed: Option<u64>,
    /// Per descriptor key: the last `renewed_ms` seen and when it changed.
    seen: HashMap<String, (u64, u64)>,
    /// Since when a reachable station network has shown no lease at all.
    leaderless_since: Option<u64>,
}

impl Election {
    /// The machine of the node serving RPC on `addr`; `jitter_seed` seeds
    /// the pre-claim pause, drawn below `jitter_ms`.
    pub fn new(addr: &str, lease_ms: u64, jitter_ms: u64, jitter_seed: u64) -> Election {
        Election {
            addr: addr.to_owned(),
            lease_ms,
            lapse: lease_ms + lease_ms / 2,
            jitter_ms: jitter_ms.max(1),
            rng: StdRng::seed_from_u64(jitter_seed),
            node: Node::default(),
            phase: Phase::Idle,
            now: 0,
            out: Vec::new(),
            published: false,
            landed: None,
            seen: HashMap::new(),
            leaderless_since: None,
        }
    }

    /// Advance the machine by one input at local time `now` (ms).
    pub fn step(&mut self, now: u64, input: Input) -> Vec<Effect> {
        self.now = now;
        match (input, self.phase) {
            (Input::Tick(node), phase) => {
                self.node = node;
                match phase {
                    Phase::Pause(until) if now < until => self.out.push(Effect::Wake(until)),
                    Phase::Pause(_) => self.query(Phase::Recheck, LEASE_SERVICE),
                    _ => self.tick(),
                }
            }
            (Input::Published(ok), _) => self.published &= ok,
            (Input::Found(leases, up), Phase::Observe(at)) => self.observe(&leases, up, at),
            (Input::Found(leases, _), Phase::Recheck) => {
                // A rival won this round, or the leader renewed meanwhile.
                match best_lease(&leases) {
                    Some(d) if attr(d, "leader_epoch") > self.epoch() => self.idle(),
                    Some(d) if self.age(d) <= self.lapse => self.idle(),
                    _ => self.query(Phase::Members, MEMBER_SERVICE),
                }
            }
            (Input::Found(members, up), Phase::Members) => self.members(&members, up),
            (Input::Found(members, _), Phase::Outranked) => {
                // A member holds an epoch above this leader's: a claim of
                // its that no one saw. It can follow no lower epoch, so
                // claim above it.
                let me = self.addr.clone();
                let others = members.iter().filter(|d| addr_of(d) != me);
                match others.map(|d| attr(d, "epoch")).max() {
                    Some(top) if top > self.epoch() => {
                        self.node.epoch = top;
                        self.win();
                    }
                    _ => self.idle(),
                }
            }
            (Input::Health(replies), Phase::Ranking) => {
                // Defer to a leader, a higher position, or an equal one at
                // a lower address.
                let mine = (self.node.applied, Reverse(self.addr.as_str()));
                let ahead = |(peer, leads, theirs): &(String, bool, Position)| {
                    *leads || (*theirs, Reverse(peer.as_str())) > mine
                };
                match replies.iter().any(ahead) {
                    true => self.idle(),
                    false => self.win(),
                }
            }
            _ => {}
        }
        std::mem::take(&mut self.out)
    }

    fn tick(&mut self) {
        // A node named leader at start-up claims the first epoch.
        if self.node.role == Leader && self.node.epoch == 0 {
            self.promote();
        }
        // A lease the stations have not seen renewed for a lapse may have a
        // successor already: step down rather than come back writable.
        let landed = *self.landed.get_or_insert(self.now);
        if self.node.role == Leader && self.now.saturating_sub(landed) > self.lapse {
            self.follow("", self.node.epoch);
        }
        self.published = true;
        self.publish(MEMBER_SERVICE, Some(("epoch", self.epoch())));
        self.publish_lease();
    }

    /// A leader publishes its lease; every tick ends in a lease query.
    fn publish_lease(&mut self) {
        let at = (self.node.role == Leader).then_some(self.now);
        if at.is_some() {
            self.publish(LEASE_SERVICE, Some(("leader_epoch", self.node.epoch)));
        }
        self.query(Phase::Observe(at), LEASE_SERVICE);
    }

    fn observe(&mut self, leases: &[ServiceDescriptor], up: bool, at: Option<u64>) {
        let (mine, me, now) = (self.epoch(), self.addr.clone(), self.now);
        let best = best_lease(leases).map(|d| (attr(d, "leader_epoch"), addr_of(d), d));
        if best.is_some() || !up {
            self.leaderless_since = None;
        }
        if self.node.role == Leader {
            // Deposed by a higher epoch, or by an equal epoch held by a
            // lower address (two candidates slipped through one window).
            let equal = leases.iter().map(|d| (attr(d, "leader_epoch"), addr_of(d)));
            let lower = |&(e, a): &(u64, &str)| e == mine && !a.is_empty() && a < me.as_str();
            let rival = match best {
                Some((epoch, leader, _)) if epoch > mine && leader != me => Some((epoch, leader)),
                _ => equal.filter(lower).min(),
            };
            match (rival, at) {
                (Some((epoch, leader)), _) => self.follow(leader, epoch),
                (None, Some(at)) => {
                    self.renew(leases, up, at);
                    return self.query(Phase::Outranked, MEMBER_SERVICE);
                }
                (None, None) => {}
            }
            return self.idle();
        }
        let Some((epoch, leader, best)) = best else {
            // No lease at all from a reachable station network: nobody has
            // led, or the stations lost their state. Blind: no basis.
            let since = up.then(|| *self.leaderless_since.get_or_insert(now));
            return self.stand(since.is_some_and(|t| now.saturating_sub(t) > self.lapse));
        };
        // Never adopt this node's own retained lease: a follower that
        // believes itself leader hints clients into a redirect loop.
        if epoch >= mine && !leader.is_empty() && leader != me {
            self.follow(leader, epoch);
        }
        let lapsed = self.age(best) > self.lapse;
        self.stand(lapsed);
    }

    /// Renew the lease published at `at` if it reached the stations and
    /// no other lease was seen to change within a lapse — even one a
    /// restarted station has since lost.
    fn renew(&mut self, leases: &[ServiceDescriptor], up: bool, at: u64) {
        if self.published {
            self.landed = Some(at);
        }
        leases.iter().for_each(|d| _ = self.age(d));
        let own = format!("http://{}/clarens|{LEASE_SERVICE}", self.addr);
        let since = self.now.saturating_sub(self.lapse);
        let moved = |(key, (_, changed)): (&String, &(u64, u64))| {
            key.ends_with(LEASE_SERVICE) && *key != own && *changed >= since
        };
        if self.published && up && !self.seen.iter().any(moved) {
            let left = (at + self.lease_ms).saturating_sub(self.now);
            self.out.push(Effect::Renew(left));
        }
    }

    fn members(&mut self, members: &[ServiceDescriptor], up: bool) {
        // Blind — no station answered, or one that lost its state (this
        // node's own advert is missing): a promotion could claim over a
        // better-placed peer it cannot see. Mute — its own publications
        // fail: no peer would see its lease, and its epoch would strand it.
        if !up || !self.published || !members.iter().any(|d| addr_of(d) == self.addr) {
            return self.idle();
        }
        // A member advert unrenewed for two leases is presumed dead.
        let (fresh, me) = (2 * self.lease_ms, self.addr.clone());
        let live = members.iter().filter(|d| self.age(d) <= fresh);
        let mut peers: Vec<_> = live.map(|d| addr_of(d).to_owned()).collect();
        peers.retain(|peer| !peer.is_empty() && *peer != me);
        if peers.is_empty() {
            return self.win();
        }
        self.phase = Phase::Ranking;
        self.out.push(Effect::Probe(peers));
    }

    fn win(&mut self) {
        self.promote();
        self.published = true;
        self.publish_lease();
    }

    fn promote(&mut self) {
        // A new lease has yet to land: it gets a whole lapse to.
        (self.node.epoch, self.node.role, self.landed) = (self.epoch() + 1, Leader, None);
        self.out.push(Effect::Promote(self.node.epoch));
    }

    fn follow(&mut self, leader: &str, epoch: u64) {
        (self.node.epoch, self.landed) = (self.node.epoch.max(epoch), None);
        self.out.push(match self.node.role {
            Leader => Effect::Demote(leader.to_owned(), epoch),
            _ => Effect::Follow(leader.to_owned(), epoch),
        });
        self.node.role = Follower;
    }

    /// Stand for election if the lease `lapsed`, else wait for the next
    /// tick. A candidacy that stands down must watch a whole lapse of seeing
    /// no lease again before it may stand anew.
    fn stand(&mut self, lapsed: bool) {
        if !lapsed {
            return self.idle();
        }
        self.leaderless_since = None;
        let until = self.now + self.rng.next_u64() % self.jitter_ms;
        self.phase = Phase::Pause(until);
        self.out.push(Effect::Wake(until));
    }

    fn idle(&mut self) {
        let tick = (self.lease_ms / 4).max(5);
        self.phase = Phase::Idle;
        self.out.push(Effect::Wake(self.now + tick));
    }

    fn query(&mut self, phase: Phase, service: &'static str) {
        self.phase = phase;
        self.out.push(Effect::Query(service));
    }

    /// Publish this node's `service` descriptor, stamped now, with one
    /// more attribute if given.
    fn publish(&mut self, service: &str, extra: Option<(&str, u64)>) {
        let stamps = std::iter::once(("renewed_ms", self.now)).chain(extra);
        let mut attributes: BTreeMap<_, _> =
            stamps.map(|(k, v)| (k.into(), v.to_string())).collect();
        attributes.insert("addr".into(), self.addr.clone());
        self.out.push(Effect::Publish(ServiceDescriptor {
            url: format!("http://{}/clarens", self.addr),
            server_dn: String::new(),
            service: service.to_owned(),
            methods: Vec::new(),
            attributes,
            timestamp: (self.now / 1000) as i64,
        }));
    }

    /// Local time since this node saw the descriptor's stamp change. A
    /// descriptor seen for the first time has age zero: a node that just
    /// started gives a possibly-dead leader a full lapse interval first.
    fn age(&mut self, d: &ServiceDescriptor) -> u64 {
        let stamp = attr(d, "renewed_ms");
        let entry = self.seen.entry(d.key()).or_insert((stamp, self.now));
        if entry.0 != stamp {
            *entry = (stamp, self.now);
        }
        self.now.saturating_sub(entry.1)
    }

    /// The newest epoch this node knows of: a restarted node has
    /// forgotten the epoch it believed in, but its log keeps the fence.
    fn epoch(&self) -> u64 {
        self.node.epoch.max(self.node.fence)
    }
}

/// Highest epoch wins; among equal epochs the freshest renewal.
fn best_lease(leases: &[ServiceDescriptor]) -> Option<&ServiceDescriptor> {
    leases
        .iter()
        .max_by_key(|d| (attr(d, "leader_epoch"), attr(d, "renewed_ms")))
}

fn attr(d: &ServiceDescriptor, key: &str) -> u64 {
    d.attributes.get(key).map_or(0, |v| v.parse().unwrap_or(0))
}

fn addr_of(d: &ServiceDescriptor) -> &str {
    d.attributes.get("addr").map_or("", String::as_str)
}

/// A running election-manager thread.
pub struct ElectionManager {
    cut: Arc<AtomicBool>,
    _worker: Worker,
}

impl ElectionManager {
    /// Start managing elections for `core`, which serves RPC on `addr`.
    /// `udp_stations` receive lease/member publications and the node's
    /// module descriptors; `query_stations` are the TCP query addresses of
    /// the same stations. The lease is `core.config.leader_lease_ms` (must
    /// be > 0); the random pre-claim pause is bounded by a fifth of it and
    /// seeded by `jitter_seed` (deterministic drills).
    pub fn start(
        core: Arc<ClarensCore>,
        addr: String,
        udp_stations: Vec<SocketAddr>,
        query_stations: Vec<SocketAddr>,
        jitter_seed: u64,
    ) -> std::io::Result<ElectionManager> {
        let lease_ms = core.config.leader_lease_ms;
        assert!(lease_ms > 0, "elections need a non-zero lease");
        let publisher = UdpPublisher::new(udp_stations)?;
        let io = (publisher, query_stations, Arc::default());
        let cut = Arc::clone(&io.2);
        let machine = Election::new(&addr, lease_ms, lease_ms / 5, jitter_seed);
        let name = format!("election-{addr}");
        let _worker = Worker::spawn(name, move |stop| run(&core, &addr, machine, &io, stop));
        Ok(ElectionManager { cut, _worker })
    }

    /// Simulate a network partition of this node's election traffic: no
    /// publications go out and no station state comes in. The RPC plane
    /// stays up — the split-brain drill shows the lease fence rejecting
    /// writes the partitioned leader still receives.
    pub fn set_partitioned(&self, on: bool) {
        self.cut.store(on, Ordering::SeqCst);
    }
}

/// The election I/O: the publisher, the stations' query addresses, and
/// the switch that cuts this node off from them.
type Io = (UdpPublisher, Vec<SocketAddr>, Arc<AtomicBool>);

/// The driver: the clock, the sleep and the election I/O. The clock is the
/// wall clock read once plus monotonic time since, so stamps track wall
/// time and never jump.
fn run(core: &ClarensCore, addr: &str, mut machine: Election, io: &Io, stop: &AtomicBool) {
    let (publisher, stations, cut) = io;
    let unix = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    let wall = unix.map_or(0, |d| d.as_millis() as u64);
    let started = std::time::Instant::now();
    let (mut inputs, mut wake) = (VecDeque::new(), 0);
    while !stop.load(Ordering::SeqCst) {
        let now = wall + started.elapsed().as_millis() as u64;
        if inputs.is_empty() && now < wake {
            std::thread::sleep(Duration::from_millis(wake - now));
            continue;
        }
        let (input, cut) = (inputs.pop_front(), cut.load(Ordering::SeqCst));
        let input = input.unwrap_or_else(|| tick(core, publisher, now));
        for effect in machine.step(now, input) {
            match effect {
                Effect::Publish(d) => {
                    let sent = !cut && publisher.publish(&Publication::Service(d)).is_ok();
                    inputs.push_back(Input::Published(sent));
                }
                Effect::Query(service) => {
                    let reached = if cut { &[][..] } else { &stations[..] };
                    let (hits, up) =
                        query_stations(reached.iter().copied(), &ServiceQuery::by_service(service));
                    inputs.push_back(Input::Found(hits, up));
                }
                Effect::Probe(peers) => inputs.push_back(Input::Health(
                    peers.into_iter().filter_map(health).collect(),
                )),
                Effect::Wake(at) => wake = at,
                effect => apply(core, addr, effect),
            }
        }
    }
}

/// A tick: advertise the node's modules (a lost datagram is made good by
/// the next tick), then read its state for the machine. The modules go out
/// while the election traffic is cut: the RPC plane stays up.
fn tick(core: &ClarensCore, publisher: &UdpPublisher, now: u64) -> Input {
    for descriptor in module_descriptors(core, (now / 1000) as i64) {
        let _ = publisher.publish(&Publication::Service(descriptor));
    }
    let fed = &core.federation;
    Input::Tick(Node {
        role: fed.role(),
        epoch: fed.epoch(),
        applied: core.position(),
        fence: core.store.fence_epoch(),
    })
}

/// The one applier of each state-changing effect.
fn apply(core: &ClarensCore, addr: &str, effect: Effect) {
    let fed = &core.federation;
    match effect {
        Effect::Promote(epoch) => {
            // The fence is durable before the node is writable, so a
            // restart can never reuse the epoch. The new role holds no
            // lease: the node writes once its first `Renew` lands.
            let _ = core.store.append_fence(epoch);
            let _ = core.store.sync();
            fed.observe_epoch(epoch);
            fed.set_role(Leader);
            fed.set_leader(addr);
            fed.reset_follower_cursor();
            core.telemetry.federation.elections.inc();
        }
        Effect::Demote(leader, epoch) => {
            // It holds its own log until the next leader's stream moves it.
            fed.set_applied(core.position());
            fed.set_role(Follower);
            core.telemetry.federation.demotions.inc();
            apply(core, addr, Effect::Follow(leader, epoch));
        }
        Effect::Follow(leader, epoch) => {
            fed.observe_epoch(epoch);
            fed.set_leader(&leader);
        }
        Effect::Renew(ms) => fed.renew_lease(ms),
        _ => {}
    }
}

/// `system.health` of a peer: `(addr, is_leader, applied)`, or None if
/// the peer is unreachable (a dead node cannot be more caught-up). A
/// position that does not read as three integers (a peer of another
/// version) is unknown, and ranks above every other: defer to that peer.
fn health(peer: String) -> Option<(String, bool, Position)> {
    let client = ClarensClient::peer(&peer).with_retries(0);
    let mut client = client.with_call_deadline(Duration::from_millis(250));
    let h = client.call("system.health", vec![]).ok()?;
    let leads = h.get("role").and_then(Value::as_str) == Some("leader");
    let int = |v: &Value| v.as_int().map(|n| n as u64);
    let applied = match h.get("applied").and_then(Value::as_array) {
        Some([f, e, o]) => int(f).zip(int(e)).zip(int(o)),
        _ => None,
    };
    let applied = applied.map_or((u64::MAX, (u64::MAX, u64::MAX)), |((f, e), o)| (f, (e, o)));
    Some((peer, leads, applied))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A leader renews its lease only once the lease itself reached the
    /// stations: its member advert landing is not enough.
    #[test]
    fn a_lease_publish_that_failed_renews_nothing() {
        let mut machine = Election::new("127.0.0.1:1", 400, 80, 1);
        let node = Node {
            role: Leader,
            epoch: 1,
            fence: 1,
            ..Node::default()
        };
        let renews = |effects: &[Effect]| effects.iter().any(|e| matches!(e, Effect::Renew(_)));
        // A round whose publishes both land renews.
        let effects = machine.step(1_000, Input::Tick(node));
        let lease = effects.iter().find_map(|e| match e {
            Effect::Publish(d) if d.service == LEASE_SERVICE => Some(d.clone()),
            _ => None,
        });
        let lease = lease.expect("a leader publishes its lease");
        assert_eq!(effects.last(), Some(&Effect::Query(LEASE_SERVICE)));
        machine.step(1_000, Input::Published(true));
        machine.step(1_000, Input::Published(true));
        let effects = machine.step(1_000, Input::Found(vec![lease.clone()], true));
        assert!(renews(&effects), "{effects:?}");
        machine.step(1_000, Input::Found(Vec::new(), true));
        // The next round's member advert lands and its lease does not.
        machine.step(1_100, Input::Tick(node));
        machine.step(1_100, Input::Published(true));
        machine.step(1_100, Input::Published(false));
        let effects = machine.step(1_100, Input::Found(vec![lease], true));
        assert!(!renews(&effects), "{effects:?}");
    }
}
