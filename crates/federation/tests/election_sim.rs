//! Seeded schedule search over the election machine (DESIGN.md §14).
//!
//! One single-threaded scheduler drives 3–5 [`Election`] machines by
//! calling `step` directly — no socket, no thread, no clock. The station
//! is the discovery `Table` itself, with the newest-wins and supersede
//! rules `StationServer` applies; health replies are read from the machines' own nodes. Each
//! node's replicator is the production [`Follower`] machine, answered from
//! its leader's modelled log (real WAL records, by byte offset, in WAL
//! epochs that a compaction bumps), and a write counts as acked only once
//! a follower's fetch confirms it (the ack barrier). The schedule —
//! per-node clock offset and rate drift, message latency, dropped
//! publishes and queries, partitions, crashes and restarts, a station that
//! loses its state, compactions — is drawn from the seed. The checker
//! asserts four properties:
//!
//! 1. never two writable leaders at one instant of global time;
//! 2. a newly promoted leader holds every acked write;
//! 3. liveness: after the faults stop, some node is writable;
//! 4. convergence: once writes stop after that, every node's logged state
//!    is the leader's.
//!
//! A violation fails its seed with the timeline that led to it; the
//! search reports the lowest failing seed of 10 000, and
//! `SEARCH_SEED=<n>` replays one (DESIGN.md §7).

use std::collections::{BTreeSet, HashSet, VecDeque};

use clarens::federation::{confirms, Cursor, FederationRole, Position};
use clarens_db::log::encode_record;
use clarens_db::LogOp;
use clarens_federation::election::{Effect, Election, Input, Node, LEASE_SERVICE};
use clarens_federation::replicator::{self as repl, Follower};
use clarens_search::{Agenda, Rng};
use clarens_wire::Value;
use monalisa_sim::{Publication, ServiceQuery, Table};

const LEASE: u64 = 400;
const JITTER: u64 = 100;
/// How long a leader holds a caught-up fetch, and a fetch's round trip.
const HOLD: u64 = 100;
const ROUND_TRIP: u64 = 5;
/// A log entry at or above this is an `EpochFence(entry - FENCE)` record;
/// one at or above `DELETE` (and below `FENCE`) deletes write
/// `entry - DELETE`; any other puts the write it names. The writes live in
/// one bucket, keyed by their ids.
const FENCE: u64 = 1 << 62;
const DELETE: u64 = 1 << 61;
const BUCKET: &str = "writes";
/// Faults are drawn in the first `CHAOS` ms; the last `CALM` ms have none.
const CHAOS: u64 = 12 * LEASE;
const CALM: u64 = 8 * LEASE;
/// After the calm tail, writes stop for this long before property 4.
const DRAIN: u64 = 2 * LEASE;

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
    Compact(usize),
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
    /// Off the lead, the position of the data held.
    applied: Position,
    lease_until: Option<u64>,
    /// The entries that changed the state, in order, each one's end in
    /// bytes, and the WAL epoch. Survives a crash.
    log: Vec<u64>,
    ends: Vec<u64>,
    wal: u64,
    /// The writes the log leaves, and the epoch of its newest fence.
    held: HashSet<u64>,
    fence: u64,
    /// The replicator, whether its last fetch was held (caught up), and
    /// (serving) the highest cursor a follower has confirmed.
    follower: Follower,
    caught_up: bool,
    confirmed: Cursor,
    /// Since when the node has been up, and uncut, without a restart.
    steady_since: u64,
}

impl Member {
    fn node(&self) -> Node {
        Node {
            role: self.role,
            epoch: self.epoch,
            applied: self.position(),
            fence: self.fence,
        }
    }

    /// `ClarensCore::position`: a leader's is its own log's end.
    fn position(&self) -> Position {
        match self.role {
            FederationRole::Leader => (self.fence, (self.wal, self.len())),
            _ => self.applied,
        }
    }

    /// The log's length in bytes.
    fn len(&self) -> u64 {
        self.ends.last().copied().unwrap_or(0)
    }

    fn push(&mut self, entry: u64) {
        let end = self.len() + encode_record(&op(entry)).len() as u64;
        self.log.push(entry);
        self.ends.push(end);
    }

    /// Rewrite the log as the store's compaction does: the state, then
    /// its newest fence, in a new WAL epoch.
    fn compact(&mut self) {
        let mut snapshot: Vec<u64> = self.held.iter().copied().collect();
        snapshot.sort_unstable();
        snapshot.extend((self.fence > 0).then_some(FENCE + self.fence));
        (self.log, self.ends, self.wal) = (Vec::new(), Vec::new(), self.wal + 1);
        snapshot.into_iter().for_each(|entry| self.push(entry));
    }

    fn follow(&mut self, leader: &str, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
        self.leader = leader.to_owned();
    }

    /// Apply one entry as the store does; the log keeps it if it changed
    /// the state (a stale fence never does).
    fn apply(&mut self, entry: u64) {
        let changed = match entry {
            e if e >= FENCE => {
                let newer = e - FENCE > self.fence;
                self.fence = self.fence.max(e - FENCE);
                newer
            }
            e if e >= DELETE => self.held.remove(&(e - DELETE)),
            e => self.held.insert(e),
        };
        if changed {
            self.push(entry);
        }
    }
}

/// The WAL record of a log entry.
fn op(entry: u64) -> LogOp {
    let bucket = BUCKET.to_owned();
    match entry {
        e if e >= FENCE => LogOp::EpochFence { epoch: e - FENCE },
        e if e >= DELETE => LogOp::Delete {
            bucket,
            key: (e - DELETE).to_string(),
        },
        e => LogOp::Put {
            bucket,
            key: e.to_string(),
            value: Vec::new(),
        },
    }
}

/// The log entry of a WAL record `op` encodes.
fn entry(op: &LogOp) -> u64 {
    let id = |key: &str| key.parse::<u64>().expect("a write id");
    match op {
        LogOp::EpochFence { epoch } => FENCE + epoch,
        LogOp::Delete { key, .. } => DELETE + id(key),
        LogOp::Put { key, .. } => id(key),
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

/// A pending write: leader, its life, the cursor that acks it, id, and
/// its deadline.
type Pending = (usize, u64, Cursor, u64, u64);

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
    /// Writes have stopped (the drain before property 4).
    quiet: bool,
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
                    applied: (0, (0, 0)),
                    lease_until: None,
                    log: Vec::new(),
                    ends: Vec::new(),
                    wal: 0,
                    held: HashSet::new(),
                    fence: 0,
                    follower: Follower::new(""),
                    caught_up: false,
                    confirmed: (0, 0),
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
            quiet: false,
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
        // Compactions come from a stream of their own, so the draws above
        // are those of a schedule without them.
        let mut rng = Rng::new(seed ^ 0xC0_4AC7);
        for _ in 0..rng.pick(0, 2) {
            let (i, at) = (
                rng.pick(0, n as u64 - 1) as usize,
                rng.pick(0, CHAOS + CALM),
            );
            sim.at(at, Event::Compact(i));
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
                                Some((p, m.role == FederationRole::Leader, m.position()))
                            })
                            .collect(),
                    ),
                };
                self.step(i, input)?;
            }
            Event::Deliver(..) => {}
            Event::Replicate(i, life) if self.nodes[i].alive && self.nodes[i].life == life => {
                let next = self.replicate(i);
                self.at(next, Event::Replicate(i, life));
                self.settle();
            }
            Event::Replicate(..) => {}
            Event::Write if self.quiet => {}
            Event::Write => {
                if let Some(i) = (0..self.nodes.len()).find(|&i| self.writable(i, self.t)) {
                    let id = self.next_write;
                    self.next_write += 1;
                    let m = &mut self.nodes[i];
                    m.apply(id);
                    let entry = (i, m.life, (m.wal, m.len()), id, self.t + LEASE);
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
                    (FederationRole::Follower, 0, (0, (0, 0)), None);
                m.leader.clear();
                (m.follower, m.confirmed) = (Follower::new(""), (0, 0));
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
            Event::Compact(i) if self.nodes[i].alive => {
                self.note(i, "compacts".into());
                self.nodes[i].compact();
            }
            Event::Compact(_) => {}
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
                let applied = m.position();
                m.apply(FENCE + epoch);
                m.role = FederationRole::Leader;
                let addr = m.addr.clone();
                m.follow(&addr, epoch);
                (m.confirmed, m.lease_until) = ((0, 0), Some(now));
                self.note(i, format!("promote epoch={epoch} applied={applied:?}"));
                // The barrier promises one follower copy: an acked write
                // must survive while a follower holding it has stayed up,
                // uncut and unrestarted since the ack.
                let vouched = |&(id, writer, at): &(u64, usize, u64)| {
                    self.nodes.iter().enumerate().any(|(h, m)| {
                        h != writer
                            && m.alive
                            && m.cut == Cut::No
                            && m.steady_since <= at
                            && m.held.contains(&id)
                    })
                };
                let held = &self.nodes[i].held;
                let lost = self
                    .acked
                    .iter()
                    .find(|w| !held.contains(&w.0) && vouched(w));
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
                m.applied = m.position();
                (m.role, m.lease_until) = (FederationRole::Follower, None);
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

    /// One wake of node `i`'s replicator: the machine steps, its logins
    /// and fetches answered at once from the modelled nodes, and its
    /// effects applied as the driver applies them. Returns when it wakes
    /// next: after a fetch's round trip if it asked to fetch again at once,
    /// or a hold if its last fetch was caught up.
    fn replicate(&mut self, i: usize) -> u64 {
        let m = &self.nodes[i];
        let mut inputs = VecDeque::from([repl::Input::Tick(m.role, m.leader.clone())]);
        let (now, mut next) = (self.local(i, self.t), self.t);
        while let Some(input) = inputs.pop_front() {
            for effect in self.nodes[i].follower.step(now, input) {
                let m = &mut self.nodes[i];
                match effect {
                    repl::Effect::Login(leader) => {
                        let up = self.nodes.iter().any(|m| m.addr == leader && m.alive);
                        inputs.push_back(repl::Input::LoggedIn(up));
                    }
                    repl::Effect::Fetch(epoch, offset) => {
                        inputs.push_back(self.fetch(i, (epoch, offset)))
                    }
                    repl::Effect::Apply(ops) => ops.iter().for_each(|op| m.apply(entry(op))),
                    repl::Effect::Prune(written) => {
                        let kept = |id: &u64| written.contains(&(BUCKET.into(), id.to_string()));
                        let gone: Vec<u64> =
                            m.held.iter().copied().filter(|id| !kept(id)).collect();
                        gone.into_iter().for_each(|id| m.apply(DELETE + id));
                    }
                    repl::Effect::Adopt(leader, epoch) => {
                        m.epoch = m.epoch.max(epoch);
                        if !leader.is_empty() {
                            m.leader = leader;
                        }
                    }
                    repl::Effect::Reached(position) => m.applied = position,
                    repl::Effect::Wake(at) if at <= now => {
                        next = self.t + if m.caught_up { HOLD } else { ROUND_TRIP };
                    }
                    repl::Effect::Wake(at) => next = self.global(i, at),
                    repl::Effect::Lag(_) | repl::Effect::FetchError | repl::Effect::Fenced => {}
                }
            }
        }
        next.max(self.t + 1)
    }

    /// `replication.fetch` of node `i` at `cursor`, served by the node it
    /// follows as `ReplicationService` serves it: a cursor the log honors
    /// confirms what lies below it, any other restarts the stream at the
    /// top of the current WAL epoch.
    fn fetch(&mut self, i: usize, cursor: Cursor) -> repl::Input {
        let leader = &self.nodes[i].leader;
        let Some(l) = (self.nodes.iter()).position(|m| m.addr == *leader && m.alive) else {
            return repl::Input::Failed;
        };
        let m = &self.nodes[l];
        if m.role != FederationRole::Leader {
            return repl::Input::Hint((m.leader.clone(), m.epoch));
        }
        let honored = cursor.0 == m.wal && cursor.1 <= m.len();
        let (wal, offset) = if honored { cursor } else { (m.wal, 0) };
        let from = m.ends.partition_point(|&end| end <= offset);
        let upto = (from + self.rng.pick(0, 4) as usize).min(m.log.len());
        let data: Vec<u8> = m.log[from..upto]
            .iter()
            .flat_map(|&e| encode_record(&op(e)))
            .collect();
        let int = |n: u64| Value::Int(n as i64);
        let chunk = Value::structure([
            ("leader_epoch", int(m.epoch)),
            ("epoch", int(wal)),
            ("offset", int(offset)),
            ("len", int(m.len())),
            ("data", Value::Bytes(data)),
        ]);
        let caught_up = from == upto && upto == m.log.len();
        if honored {
            let confirmed = &mut self.nodes[l].confirmed;
            *confirmed = (*confirmed).max(cursor);
        }
        self.nodes[i].caught_up = caught_up;
        repl::Input::Chunk(self.nodes[i].epoch, chunk)
    }

    /// The ack barrier: a pending write is acked once a follower confirms
    /// it while its leader is still writable, and refused after a lease.
    fn settle(&mut self) {
        let t = self.t;
        let mut acked = Vec::new();
        self.pending.retain(|&(l, life, target, id, deadline)| {
            let m = &self.nodes[l];
            if m.life != life || t > deadline {
                return false;
            }
            let writable = m.alive
                && m.role == FederationRole::Leader
                && m.lease_until
                    .is_some_and(|u| m.offset + t * m.ppm / 1_000_000 < u);
            let done = writable && confirms(m.confirmed, target);
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
        let outcome = outcome.and_then(|()| {
            self.quiet = true;
            self.run_until(end + DRAIN)?;
            self.converged()
        });
        outcome.map_err(|why| format!("{why}\n{}", self.timeline.join("\n")))
    }

    /// Property 4: every node holds the writable leader's writes, no more.
    fn converged(&self) -> Result<(), String> {
        let leader = (0..self.nodes.len()).find(|&i| self.writable(i, self.t));
        let leader = &self.nodes[leader.ok_or("property 4: no writable leader after the drain")?];
        for m in &self.nodes {
            let extra: BTreeSet<_> = m.held.difference(&leader.held).collect();
            let missing: BTreeSet<_> = leader.held.difference(&m.held).collect();
            if !extra.is_empty() || !missing.is_empty() {
                return Err(format!(
                    "property 4: {} holds {extra:?} beyond {} and lacks {missing:?}",
                    m.addr, leader.addr
                ));
            }
        }
        Ok(())
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

/// A failover inside a resync window. The leader compacts and then
/// crashes while its followers re-read its log from the snapshot; one
/// holds acked write 74, the other lacks it and has read part of the
/// snapshot. Ranked by
/// the leader-log offset alone, or with the snapshot's fence ahead of the
/// state it seals, the one without the write was promoted. Ranked by the
/// position of the data each holds, with the fence last, it is not.
#[test]
fn failover_inside_a_resync_window() {
    clarens_search::replay(NAME, 1_655, |seed| Sim::random(seed).check());
}

/// A failover inside the first chunk after a re-point. Node 1 is down
/// while node 0 leads and acks writes, so it lacks them. Node 0 crashes;
/// of nodes 2 and 3, the one elected leads and the other re-points to it
/// and reads its log anew. The new leader crashes as that follower asks
/// for its second chunk, short of the new leader's fence, and node 1
/// comes back. The follower keeps the position of the data it holds, so
/// it outranks node 1 and is elected. Had the re-point reset its
/// position, node 1 would win the tie on its lower address and be
/// promoted without the acked writes.
#[test]
fn failover_inside_the_first_chunk_after_a_re_point() {
    let mut sim = Sim::new(5, 4, Some(0), CALM_FAULTS, false);
    sim.at(LEASE, Event::Crash(1));
    sim.at(4 * LEASE, Event::Crash(0));
    let step = |sim: &mut Sim| {
        if let Err(why) = sim.run_until(sim.t + 1) {
            panic!("{why}\n{}", sim.timeline.join("\n"));
        }
    };
    let asked_twice = |sim: &Sim, l: usize| {
        sim.nodes[l].role == FederationRole::Leader && sim.nodes[l].confirmed > (0, 0)
    };
    while !(asked_twice(&sim, 2) || asked_twice(&sim, 3)) {
        step(&mut sim);
    }
    let leader = if asked_twice(&sim, 2) { 2 } else { 3 };
    let m = &sim.nodes[leader];
    let fence = m.log.iter().position(|&e| e == FENCE + m.fence).unwrap();
    assert!(
        m.confirmed.1 < m.ends[fence],
        "the stream has passed the fence"
    );
    sim.at(sim.t, Event::Crash(leader));
    sim.at(sim.t, Event::Restart(1));
    for i in [0, leader] {
        sim.at(CHAOS, Event::Restart(i));
    }
    let follower = 5 - leader;
    while !sim.writable(follower, sim.t) {
        assert!(sim.t < CHAOS, "{}", sim.timeline.join("\n"));
        step(&mut sim);
    }
    sim.check().unwrap_or_else(|failure| panic!("{failure}"));
}

/// A claim that never landed strands no one. A node cut off from the
/// stations claims epoch 2 and steps down without a lease; a peer that saw
/// neither of its claims is then elected at epoch 1, below the fence the
/// first node sealed, which can follow no lower epoch. The leader reads
/// the higher epoch from that node's member advert and claims above it, so
/// the node follows it and converges.
#[test]
fn a_claim_that_never_landed_strands_no_one() {
    clarens_search::replay(NAME, 93_307, |seed| Sim::random(seed).check());
}
