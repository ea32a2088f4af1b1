//! Seeded schedule search over the election machine (DESIGN.md §14).
//!
//! One single-threaded scheduler drives 3–5 [`Election`] machines by
//! calling `step` directly — no socket, no thread, no clock. The station
//! is the discovery `Table` itself, with the newest-wins and supersede
//! rules `StationServer` applies; health replies are read from the machines' own nodes; each
//! node's applied cursor is advanced by a modelled replicator, and a write
//! counts as acked only once a follower's cursor covers it (the ack
//! barrier). The schedule — per-node clock offset and rate drift, message
//! latency, dropped publishes and queries, partitions, crashes and
//! restarts, a station that loses its state — is drawn from the seed. The
//! checker asserts three properties:
//!
//! 1. never two writable leaders at one instant of global time;
//! 2. a newly promoted leader holds every acked write;
//! 3. liveness: after the faults stop, some node is writable.
//!
//! A violation fails its seed with the timeline that led to it; the
//! search reports the lowest failing seed of 10 000, and
//! `SEARCH_SEED=<n>` replays one (DESIGN.md §7).

use std::collections::HashSet;

use clarens::federation::FederationRole;
use clarens_federation::election::{Effect, Election, Input, Node, LEASE_SERVICE};
use clarens_search::{Agenda, Rng};
use monalisa_sim::{Publication, ServiceQuery, Table};

const LEASE: u64 = 400;
const JITTER: u64 = 100;
/// Replication poll interval, and the cap of its failure backoff.
const POLL: u64 = 100;
const BACKOFF_CAP: u64 = 1000;
/// A log entry at or above this is an `EpochFence(entry - FENCE)` record.
const FENCE: u64 = 1 << 62;
/// Faults are drawn in the first `CHAOS` ms; the last `CALM` ms have none.
const CHAOS: u64 = 12 * LEASE;
const CALM: u64 = 8 * LEASE;

/// A reply in flight to one node.
#[derive(Debug)]
enum Reply {
    Published(bool),
    /// A query for this service; `false` if it never reached the station.
    Found(&'static str, bool),
    Health(Vec<String>),
}

#[derive(Debug)]
enum Event {
    Tick(usize, u64),
    Deliver(usize, u64, Reply),
    Replicate(usize, u64),
    Write,
    Crash(usize),
    Restart(usize),
    Cut(usize, Cut),
    Wipe,
}

/// How much of a node's election traffic is cut: none, its publications
/// only (outbound datagrams blocked, queries still answered), or all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cut {
    No,
    Mute,
    Full,
}

/// One simulated node: its machine, its clock, the slice of
/// `FederationState` and of its store the properties read.
struct Member {
    addr: String,
    machine: Election,
    alive: bool,
    /// Incarnation: replies and polls of an earlier life are dropped.
    life: u64,
    /// Tick generation: only the newest scheduled tick fires.
    tick: u64,
    /// Replies in flight; the node ticks only when none are.
    busy: usize,
    wake: u64,
    /// Replies to one node arrive in order.
    last_reply: u64,
    offset: u64,
    ppm: u64,
    cut: Cut,
    role: FederationRole,
    epoch: u64,
    leader: String,
    applied: u64,
    lease_until: Option<u64>,
    /// Distinct entries in log order: write ids and fences. Survives a crash.
    log: Vec<u64>,
    /// The entries of `log`, and the epoch of its newest fence.
    held: HashSet<u64>,
    fence: u64,
    /// The replicator's leader, failure count, and (serving) the highest
    /// cursor a follower has confirmed.
    source: String,
    failures: u32,
    confirmed: u64,
    /// Since when the node has been up, and uncut, without a restart.
    steady_since: u64,
}

impl Member {
    fn node(&self) -> Node {
        Node {
            role: self.role,
            epoch: self.epoch,
            applied: self.applied,
            fence: self.fence,
        }
    }

    fn follow(&mut self, leader: &str, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
        self.leader = leader.to_owned();
    }

    fn append(&mut self, entry: u64) {
        if self.held.insert(entry) {
            self.log.push(entry);
            self.fence = self.fence.max(entry.saturating_sub(FENCE));
        }
    }
}

/// What the schedule may do before the calm tail.
#[derive(Clone, Copy)]
struct Faults {
    latency: u64,
    drop_pct: u64,
    crashes: u64,
    cuts: u64,
    wipes: u64,
}

/// A pending write: leader, its life, the log length that acks it, id.
type Pending = (usize, u64, usize, u64, u64);

struct Sim {
    rng: Rng,
    t: u64,
    events: Agenda<Event>,
    nodes: Vec<Member>,
    station: Table,
    faults: Faults,
    pending: Vec<Pending>,
    /// Acked writes: id, the leader that acked it, when.
    acked: Vec<(u64, usize, u64)>,
    next_write: u64,
    timeline: Vec<String>,
    /// A restarting station answers nothing, then comes back empty.
    station_down_until: u64,
}

impl Sim {
    /// `n` nodes, `leader` the one configured to lead at startup.
    fn new(seed: u64, n: usize, leader: Option<usize>, faults: Faults, skew: bool) -> Sim {
        let mut rng = Rng::new(seed);
        let nodes = (0..n)
            .map(|i| {
                let addr = format!("10.0.0.{}:8080", i + 1);
                let (offset, ppm) = if skew {
                    (rng.pick(0, 19_999), rng.pick(950_000, 1_050_000))
                } else {
                    (0, 1_000_000)
                };
                Member {
                    machine: Election::new(&addr, LEASE, JITTER, rng.next_u64()),
                    addr,
                    alive: true,
                    life: 0,
                    tick: 0,
                    busy: 0,
                    wake: 0,
                    last_reply: 0,
                    offset: 1_700_000_000_000 + offset,
                    ppm,
                    cut: Cut::No,
                    role: if leader == Some(i) {
                        FederationRole::Leader
                    } else {
                        FederationRole::Follower
                    },
                    epoch: 0,
                    leader: String::new(),
                    applied: 0,
                    lease_until: None,
                    log: Vec::new(),
                    held: HashSet::new(),
                    fence: 0,
                    source: String::new(),
                    failures: 0,
                    confirmed: 0,
                    steady_since: 0,
                }
            })
            .collect();
        let mut sim = Sim {
            rng,
            t: 0,
            events: Agenda::default(),
            nodes,
            station: Table::default(),
            faults,
            pending: Vec::new(),
            acked: Vec::new(),
            next_write: 1,
            timeline: Vec::new(),
            station_down_until: 0,
        };
        for i in 0..n {
            let at = sim.rng.pick(0, 49);
            sim.schedule_tick(i, at);
            sim.at(at, Event::Replicate(i, 0));
        }
        sim.at(0, Event::Write);
        sim
    }

    /// A schedule drawn from `seed`: 3–5 nodes, skewed clocks, and a
    /// random mix of latency, drops, partitions, crashes and wipes.
    fn random(seed: u64) -> Sim {
        let mut rng = Rng::new(seed ^ 0x5EED);
        let faults = Faults {
            latency: rng.pick(0, 30),
            drop_pct: [0, 5, 20][rng.pick(0, 2) as usize],
            crashes: rng.pick(0, 2),
            cuts: rng.pick(0, 3),
            wipes: rng.pick(0, 1),
        };
        let n = rng.pick(3, 5) as usize;
        let mut sim = Sim::new(seed, n, (rng.pick(0, 1) == 1).then_some(0), faults, true);
        for _ in 0..faults.crashes {
            let (i, at) = (
                rng.pick(0, n as u64 - 1) as usize,
                rng.pick(LEASE, CHAOS - 1),
            );
            sim.at(at, Event::Crash(i));
            sim.at(at + rng.pick(0, 3 * LEASE - 1), Event::Restart(i));
        }
        for _ in 0..faults.cuts {
            let (i, at) = (rng.pick(0, n as u64 - 1) as usize, rng.pick(0, CHAOS - 1));
            let cut = [Cut::Mute, Cut::Full][rng.pick(0, 1) as usize];
            sim.at(at, Event::Cut(i, cut));
            sim.at(at + rng.pick(0, 4 * LEASE - 1), Event::Cut(i, Cut::No));
        }
        for _ in 0..faults.wipes {
            sim.at(rng.pick(0, CHAOS - 1), Event::Wipe);
        }
        // The calm tail: everyone up, nothing cut.
        for i in 0..n {
            sim.at(CHAOS, Event::Restart(i));
            sim.at(CHAOS, Event::Cut(i, Cut::No));
        }
        sim
    }

    fn at(&mut self, t: u64, event: Event) {
        self.events.push(t, event);
    }

    /// Node `i`'s clock at global time `t`.
    fn local(&self, i: usize, t: u64) -> u64 {
        let m = &self.nodes[i];
        m.offset + t * m.ppm / 1_000_000
    }

    /// The global time at which node `i`'s clock reads `local`.
    fn global(&self, i: usize, local: u64) -> u64 {
        let m = &self.nodes[i];
        (local.saturating_sub(m.offset) * 1_000_000).div_ceil(m.ppm)
    }

    fn writable(&self, i: usize, t: u64) -> bool {
        let m = &self.nodes[i];
        m.alive
            && m.role == FederationRole::Leader
            && m.lease_until.is_some_and(|u| self.local(i, t) < u)
    }

    fn note(&mut self, i: usize, what: String) {
        let line = format!("t={:>5} {} {what}", self.t, self.nodes[i].addr);
        self.timeline.push(line);
    }

    fn schedule_tick(&mut self, i: usize, at: u64) {
        self.nodes[i].tick += 1;
        let tick = self.nodes[i].tick;
        self.at(at.max(self.t), Event::Tick(i, tick));
    }

    fn faulty(&mut self) -> bool {
        self.t < self.station_down_until || self.t < CHAOS && self.rng.chance(self.faults.drop_pct)
    }

    fn reply(&mut self, i: usize, reply: Reply) {
        let latency = self.rng.pick(0, self.faults.latency);
        let at = (self.t + latency).max(self.nodes[i].last_reply);
        self.nodes[i].last_reply = at;
        self.nodes[i].busy += 1;
        let life = self.nodes[i].life;
        self.at(at, Event::Deliver(i, life, reply));
    }

    /// Run until global time `until`, checking the properties as it goes.
    fn run_until(&mut self, until: u64) -> Result<(), String> {
        while let Some((t, event)) = self.events.pop_until(until) {
            self.t = t;
            self.handle(event)?;
        }
        self.t = until;
        Ok(())
    }

    fn handle(&mut self, event: Event) -> Result<(), String> {
        match event {
            Event::Tick(i, tick) => {
                let m = &self.nodes[i];
                if m.alive && m.tick == tick && m.busy == 0 {
                    let node = m.node();
                    self.step(i, Input::Tick(node))?;
                }
            }
            Event::Deliver(i, life, reply) if self.nodes[i].life == life => {
                self.nodes[i].busy -= 1;
                let input = match reply {
                    Reply::Published(ok) => Input::Published(ok),
                    Reply::Found(service, reached) => {
                        let query = ServiceQuery::by_service(service);
                        let hits = self.station.query(&query).filter(|_| reached);
                        Input::Found(hits.cloned().collect(), reached)
                    }
                    // Only live peers answer.
                    Reply::Health(peers) => Input::Health(
                        peers
                            .into_iter()
                            .filter_map(|p| {
                                let m = self.nodes.iter().find(|m| m.addr == p && m.alive)?;
                                Some((p, m.role == FederationRole::Leader, m.applied))
                            })
                            .collect(),
                    ),
                };
                self.step(i, input)?;
            }
            Event::Deliver(..) => {}
            Event::Replicate(i, life) if self.nodes[i].alive && self.nodes[i].life == life => {
                let next = self.replicate(i);
                self.at(self.t + next, Event::Replicate(i, life));
                self.settle();
            }
            Event::Replicate(..) => {}
            Event::Write => {
                if let Some(i) = (0..self.nodes.len()).find(|&i| self.writable(i, self.t)) {
                    let id = self.next_write;
                    self.next_write += 1;
                    self.nodes[i].append(id);
                    let entry = (
                        i,
                        self.nodes[i].life,
                        self.nodes[i].log.len(),
                        id,
                        self.t + LEASE,
                    );
                    self.pending.push(entry);
                }
                let gap = self.rng.pick(10, 59);
                self.at(self.t + gap, Event::Write);
            }
            Event::Crash(i) if self.nodes[i].alive => {
                self.note(i, "crash".into());
                let m = &mut self.nodes[i];
                m.alive = false;
                m.life += 1;
                m.steady_since = self.t;
                m.busy = 0;
            }
            Event::Restart(i) if !self.nodes[i].alive => {
                self.note(i, "restart".into());
                let seed = self.rng.next_u64();
                let m = &mut self.nodes[i];
                m.machine = Election::new(&m.addr, LEASE, JITTER, seed);
                m.alive = true;
                m.steady_since = self.t;
                (m.role, m.epoch, m.applied, m.lease_until) =
                    (FederationRole::Follower, 0, 0, None);
                m.leader.clear();
                m.source.clear();
                (m.failures, m.confirmed) = (0, 0);
                let life = m.life;
                self.schedule_tick(i, self.t);
                self.at(self.t, Event::Replicate(i, life));
            }
            Event::Crash(_) | Event::Restart(_) => {}
            Event::Cut(i, cut) => {
                if self.nodes[i].cut != cut {
                    self.note(i, format!("cut {cut:?}"));
                }
                self.nodes[i].cut = cut;
                self.nodes[i].steady_since = self.t;
            }
            Event::Wipe => {
                self.timeline
                    .push(format!("t={:>5} station restarts", self.t));
                self.station = Table::default();
                self.station_down_until = self.t + self.rng.pick(LEASE / 4, LEASE);
            }
        }
        Ok(())
    }

    fn step(&mut self, i: usize, input: Input) -> Result<(), String> {
        let now = self.local(i, self.t);
        for effect in self.nodes[i].machine.step(now, input) {
            self.effect(i, effect)?;
        }
        if self.nodes[i].busy == 0 {
            let at = self.global(i, self.nodes[i].wake);
            self.schedule_tick(i, at);
        }
        Ok(())
    }

    /// What the driver and its applier do with each effect.
    fn effect(&mut self, i: usize, effect: Effect) -> Result<(), String> {
        let now = self.local(i, self.t);
        match effect {
            Effect::Publish(d) => {
                let ok = self.nodes[i].cut == Cut::No && !self.faulty();
                if ok {
                    self.station.offer(&Publication::Service(d));
                }
                self.reply(i, Reply::Published(ok));
            }
            Effect::Query(service) => {
                let reached = self.nodes[i].cut != Cut::Full && !self.faulty();
                self.reply(i, Reply::Found(service, reached));
            }
            Effect::Probe(peers) => self.reply(i, Reply::Health(peers)),
            Effect::Wake(at) => self.nodes[i].wake = at,
            Effect::Promote(epoch) => {
                let m = &mut self.nodes[i];
                m.append(FENCE + epoch);
                m.role = FederationRole::Leader;
                let addr = m.addr.clone();
                m.follow(&addr, epoch);
                (m.confirmed, m.lease_until) = (0, Some(now));
                let applied = m.applied;
                self.note(i, format!("promote epoch={epoch} applied={applied}"));
                // The barrier promises one follower copy: an acked write
                // must survive while a follower holding it has stayed up,
                // uncut and unrestarted since the ack.
                let vouched = |&(id, writer, at): &(u64, usize, u64)| {
                    self.nodes.iter().enumerate().any(|(h, m)| {
                        h != writer
                            && m.alive
                            && m.cut == Cut::No
                            && m.steady_since <= at
                            && m.log.contains(&id)
                    })
                };
                let log = &self.nodes[i].log;
                let lost = self
                    .acked
                    .iter()
                    .find(|w| !log.contains(&w.0) && vouched(w));
                if let Some((id, ..)) = lost {
                    return Err(format!(
                        "property 2: {} promoted without acked write {id}",
                        self.nodes[i].addr
                    ));
                }
            }
            Effect::Demote(leader, epoch) => {
                self.note(i, format!("demote to {leader} epoch={epoch}"));
                let m = &mut self.nodes[i];
                (m.role, m.lease_until) = (FederationRole::Follower, None);
                m.applied = if leader.is_empty() {
                    m.log.len() as u64
                } else {
                    0
                };
                m.follow(&leader, epoch);
            }
            Effect::Follow(leader, epoch) => {
                if self.nodes[i].leader != leader {
                    self.note(i, format!("follow {leader} epoch={epoch}"));
                }
                self.nodes[i].follow(&leader, epoch);
            }
            Effect::Renew(ms) => {
                self.nodes[i].lease_until = Some(now + ms);
                let both = (0..self.nodes.len())
                    .find(|&j| j != i && self.writable(j, self.t) && self.writable(i, self.t));
                if let Some(j) = both {
                    let (a, b) = (&self.nodes[i].addr, &self.nodes[j].addr);
                    return Err(format!("property 1: {a} and {b} both writable"));
                }
            }
        }
        Ok(())
    }

    /// One replicator cycle of node `i` (the follower loop's rules);
    /// returns the delay to the next.
    fn replicate(&mut self, i: usize) -> u64 {
        if self.nodes[i].role == FederationRole::Leader {
            self.nodes[i].source.clear();
            return POLL;
        }
        let believed = self.nodes[i].leader.clone();
        if !believed.is_empty() && believed != self.nodes[i].source {
            let m = &mut self.nodes[i];
            (m.source, m.applied, m.failures) = (believed, 0, 0);
        }
        if self.nodes[i].source.is_empty() {
            return POLL;
        }
        let source = self
            .nodes
            .iter()
            .position(|m| m.addr == self.nodes[i].source);
        let Some(l) = source.filter(|&l| self.nodes[l].alive) else {
            let m = &mut self.nodes[i];
            m.failures += 1;
            let cap = (POLL << m.failures.min(8)).min(BACKOFF_CAP);
            return cap - self.rng.pick(0, cap / 2);
        };
        self.nodes[i].failures = 0;
        let (role, epoch, hint) = (
            self.nodes[l].role,
            self.nodes[l].epoch,
            self.nodes[l].leader.clone(),
        );
        if role != FederationRole::Leader {
            // NOT_LEADER: adopt the hint.
            let m = &mut self.nodes[i];
            m.epoch = m.epoch.max(epoch);
            if !hint.is_empty() {
                m.leader = hint;
            }
            return POLL;
        }
        if epoch < self.nodes[i].epoch {
            return POLL; // a deposed leader's chunk: fenced
        }
        let mut applied = self.nodes[i].applied as usize;
        if applied > self.nodes[l].log.len() {
            applied = 0;
        }
        let upto = (applied + self.rng.pick(0, 4) as usize).min(self.nodes[l].log.len());
        let chunk = self.nodes[l].log[applied..upto].to_vec();
        let m = &mut self.nodes[i];
        m.epoch = m.epoch.max(epoch);
        chunk.into_iter().for_each(|e| m.append(e));
        m.applied = upto as u64;
        let confirmed = &mut self.nodes[l].confirmed;
        *confirmed = (*confirmed).max(upto as u64);
        if upto < self.nodes[l].log.len() {
            5
        } else {
            POLL
        }
    }

    /// The ack barrier: a pending write is acked once a follower confirms
    /// it while its leader is still writable, and refused after a lease.
    fn settle(&mut self) {
        let t = self.t;
        let mut acked = Vec::new();
        self.pending.retain(|&(l, life, len, id, deadline)| {
            let m = &self.nodes[l];
            if m.life != life || t > deadline {
                return false;
            }
            let writable = m.alive
                && m.role == FederationRole::Leader
                && m.lease_until
                    .is_some_and(|u| m.offset + t * m.ppm / 1_000_000 < u);
            let done = writable && m.confirmed >= len as u64;
            if done {
                acked.push((id, l, t));
            }
            !done
        });
        self.acked.extend(acked);
    }

    /// Run the whole schedule; a failure carries the timeline.
    fn check(mut self) -> Result<(), String> {
        let end = CHAOS + CALM;
        let outcome = self.run_until(end).and_then(|()| {
            let live = (0..self.nodes.len()).any(|i| self.writable(i, end));
            live.then_some(())
                .ok_or_else(|| "property 3: no writable leader after the calm tail".into())
        });
        outcome.map_err(|why| format!("{why}\n{}", self.timeline.join("\n")))
    }
}

const NAME: &str = "clarens-federation --test election_sim";

#[test]
fn schedules() {
    clarens_search::search(NAME, 0..10_000, |seed| Sim::random(seed).check());
}

const CALM_FAULTS: Faults = Faults {
    latency: 2,
    drop_pct: 0,
    crashes: 0,
    cuts: 0,
    wipes: 0,
};

/// Two leaders at one epoch — the state two candidates reach when both
/// pass the recheck — resolve to the lower address, and the loser demotes
/// to it. Either node may be the one forced into the rival leadership.
#[test]
fn equal_epoch_rivals_resolve_to_the_lowest_address() {
    for forced in [0, 1] {
        let mut sim = Sim::new(7, 2, Some(1 - forced), CALM_FAULTS, false);
        sim.run_until(2 * LEASE).unwrap();
        let leader = 1 - forced;
        assert!(sim.writable(leader, sim.t), "no startup leader");
        let epoch = sim.nodes[leader].epoch;
        let now = sim.local(forced, sim.t);
        let rival = &mut sim.nodes[forced];
        (rival.role, rival.epoch, rival.lease_until) = (FederationRole::Leader, epoch, Some(now));
        rival.leader = rival.addr.clone();
        sim.run_until(10 * LEASE)
            .unwrap_or_else(|e| panic!("{e}\n{}", sim.timeline.join("\n")));
        let survivor = &sim.nodes[0].addr;
        assert!(sim.writable(0, sim.t) && sim.nodes[1].role == FederationRole::Follower);
        assert_eq!(
            sim.nodes[1].leader, *survivor,
            "the loser follows the survivor"
        );
        let demoted = format!("demote to {survivor} epoch={epoch}");
        assert!(
            sim.timeline
                .iter()
                .any(|l| l.contains(&sim.nodes[1].addr) && l.ends_with(&demoted)),
            "the loser never demoted to the survivor:\n{}",
            sim.timeline.join("\n")
        );
    }
}

/// An empty but reachable station network elects: with no lease
/// descriptor anywhere, a lapse interval of seeing none is a lapsed lease.
#[test]
fn leaderless_station_network_still_elects() {
    for n in [1, 3] {
        let mut sim = Sim::new(11, n, None, CALM_FAULTS, false);
        sim.run_until(8 * LEASE).unwrap();
        let leaders: Vec<_> = (0..n).filter(|&i| sim.writable(i, sim.t)).collect();
        assert_eq!(leaders.len(), 1, "{}", sim.timeline.join("\n"));
        assert!(sim.nodes[leaders[0]].epoch >= 1);
        let leases = ServiceQuery::by_service(LEASE_SERVICE);
        assert!(sim.station.query(&leases).next().is_some());
    }
}

/// Open schedule (ROADMAP item 8): a second leader loss inside a resync
/// window. A follower that re-points resets its cursor to 0 while its
/// store still holds an acked write that its half-resynced peers lack;
/// they outrank it, and the write is lost. A ranking by cursor cannot see
/// this; one by (log epoch, offset) could.
#[test]
#[ignore = "open schedule: an acked write lost to a failover inside a resync"]
fn failover_inside_a_resync_window() {
    clarens_search::replay(NAME, 15_497, |seed| Sim::random(seed).check());
}
