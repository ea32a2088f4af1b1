//! The server's event loop as a step machine (DESIGN.md §4): every
//! decision it makes, with no descriptor, clock, channel, thread or
//! connection in it. `server::run_loop` owns those and only translates:
//! readiness, new connections, parks and wakes become [`Input`]s, and each
//! [`Effect`] a system call, a readiness check or a counter. A connection
//! parks waiting to read, to write, or for a held reply
//! (`crate::types::Held`) to be ready; a held reply is checked when it is
//! parked and on every wake, and its deadline dispatches it to be answered
//! rather than closing it. One ordered set holds every deadline: each
//! parked connection's, the listener's back-off, a retry after a failed
//! `wait` and, once stopping, the drain's. A loop with nothing ready waits
//! exactly until the first of them.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use crate::server::DRAIN_TIMEOUT;

/// The listener's poller token and back-off entry: connection tokens count
/// up from 0 and the wake pipe holds `u64::MAX`. Then the drain's entry and
/// a `wait` retry's.
pub(crate) const LISTENER: u64 = u64::MAX - 1;
const DRAINED: u64 = LISTENER - 1;
const RETRY: u64 = DRAINED - 1;

/// How long the listener stays out of the epoll set after taking a
/// connection failed with it still pending: level-triggered, it would
/// otherwise report the same connection at once.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);
const WAIT_RETRY: Duration = Duration::from_millis(1);

/// The listener: in the epoll set, out of it until its back-off is due, or
/// closed for good.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Listener {
    Open,
    Backoff,
    Closed,
}

/// What taking one connection off the listener gave, by `errno` class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Accept {
    /// A socket, and how many connections are live.
    Socket(usize),
    WouldBlock,
    /// Out of descriptors or memory, the connection still pending.
    Exhausted,
    /// An error that took its connection with it (`ECONNABORTED`).
    Other,
}

/// What a parked connection waits for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Its next request's bytes.
    Read,
    /// Room to write the rest of a response.
    Write,
    /// Its held reply to be ready.
    Held,
}

/// What the driver feeds the machine; each wake-up's inputs end in a tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Input {
    /// The stop flag is set.
    Stop,
    ListenerReady,
    /// A parked connection's socket is ready (or hung up), or its held
    /// reply passed [`Effect::Check`].
    Ready(u64),
    /// The answer to [`Effect::Accept`].
    Accepted(Accept),
    /// A worker parked connection `.0`, waiting for `.1` until `.2`.
    Parked(u64, Wait, Instant),
    /// What a held reply waits on moved.
    Woken(u64),
    WaitFailed,
    /// The wake-up's other inputs are in; how many requests are in flight.
    Tick(usize),
}

/// Why a parked connection closes: counted as `idle_timeouts` or
/// `write_stalls`, or not counted (stopping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Why {
    Idle,
    Stalled,
    Stopping,
}

/// What the machine asks the driver to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Effect {
    /// Accept one connection; answered by [`Input::Accepted`].
    Accept,
    /// Admit the socket just taken as this connection, or turn it away.
    Admit(u64),
    Shed,
    /// Put the listener in the epoll set, take it out, or close it.
    Listener(Listener),
    /// Hand a parked connection to the worker queue.
    Dispatch(u64),
    /// Run a held reply's readiness check, registering its waker;
    /// answered by [`Input::Ready`] if it is ready.
    Check(u64),
    Close(u64, Why),
    /// Wait for readiness or a wake, until the instant if there is one.
    Wait(Option<Instant>),
    Exit,
}

/// The loop's state between steps (see the module docs).
pub(crate) struct Loop {
    /// Cap on live connections.
    budget: usize,
    listener: Listener,
    next_token: u64,
    /// Each parked connection's deadline, and what it waits for.
    parked: BTreeMap<u64, (Instant, Wait)>,
    deadlines: BTreeSet<(Instant, u64)>,
}

impl Loop {
    pub(crate) fn new(budget: usize) -> Loop {
        Loop {
            budget,
            listener: Listener::Open,
            next_token: 0,
            parked: BTreeMap::new(),
            deadlines: BTreeSet::new(),
        }
    }

    /// Take one input at `now`, appending the effects to `out`.
    pub(crate) fn step(&mut self, now: Instant, input: Input, out: &mut Vec<Effect>) {
        let stopping = self.listener == Listener::Closed;
        match input {
            Input::Stop if !stopping => self.stop(now, out),
            Input::ListenerReady if self.listener == Listener::Open => out.push(Effect::Accept),
            Input::Accepted(Accept::Socket(live)) if live < self.budget => {
                out.extend([Effect::Admit(self.next_token), Effect::Accept]);
                self.next_token += 1;
            }
            Input::Accepted(Accept::Socket(_)) => out.extend([Effect::Shed, Effect::Accept]),
            Input::Accepted(Accept::Exhausted) if self.listener == Listener::Open => {
                self.listener = Listener::Backoff;
                self.deadlines.insert((now + ACCEPT_BACKOFF, LISTENER));
                out.push(Effect::Listener(Listener::Backoff));
            }
            Input::Ready(token) => {
                if let Some((at, _)) = self.parked.remove(&token) {
                    self.deadlines.remove(&(at, token));
                    out.push(Effect::Dispatch(token));
                }
            }
            Input::Parked(token, Wait::Read, _) if stopping => {
                out.push(Effect::Close(token, Why::Stopping))
            }
            Input::Parked(token, wait, at) => {
                self.parked.insert(token, (at, wait));
                self.deadlines.insert((at, token));
                // It may have become ready before this park was taken.
                if wait == Wait::Held {
                    out.push(Effect::Check(token));
                }
            }
            Input::Woken(token) if self.parked.get(&token).is_some_and(|p| p.1 == Wait::Held) => {
                out.push(Effect::Check(token));
            }
            Input::WaitFailed => {
                self.deadlines.insert((now + WAIT_RETRY, RETRY));
            }
            Input::Tick(in_flight) => self.tick(now, in_flight, out),
            _ => {}
        }
    }

    /// Expire what is due, then exit if drained, else wait.
    fn tick(&mut self, now: Instant, in_flight: usize, out: &mut Vec<Effect>) {
        while let Some(&(at, token)) = self.deadlines.first().filter(|&&(at, _)| at <= now) {
            self.deadlines.remove(&(at, token));
            match (token, self.parked.remove(&token)) {
                (LISTENER, _) => {
                    self.listener = Listener::Open;
                    out.push(Effect::Listener(Listener::Open));
                }
                // Peers still not reading what is parked for them.
                (DRAINED, _) => return self.exit(Why::Stalled, out),
                // A held reply is answered at its deadline.
                (_, Some((_, Wait::Held))) => out.push(Effect::Dispatch(token)),
                (_, Some((_, Wait::Write))) => out.push(Effect::Close(token, Why::Stalled)),
                (_, Some((_, Wait::Read))) => out.push(Effect::Close(token, Why::Idle)),
                (_, None) => {} // a retry
            }
        }
        match self.listener == Listener::Closed && in_flight == 0 {
            true => self.exit(Why::Stopping, out),
            false => out.push(Effect::Wait(self.deadlines.first().map(|&(at, _)| at))),
        }
    }

    /// Refuse new connections and close idle ones; parked writers and held
    /// replies, requests in flight, drain until [`DRAIN_TIMEOUT`].
    fn stop(&mut self, now: Instant, out: &mut Vec<Effect>) {
        self.listener = Listener::Closed;
        out.push(Effect::Listener(Listener::Closed));
        let deadlines = &mut self.deadlines;
        deadlines.retain(|&(_, token)| token != LISTENER);
        self.parked.retain(|&token, &mut (at, wait)| {
            if wait == Wait::Read {
                deadlines.remove(&(at, token));
                out.push(Effect::Close(token, Why::Stopping));
            }
            wait != Wait::Read
        });
        deadlines.insert((now + DRAIN_TIMEOUT, DRAINED));
    }

    /// Close what is still parked, for `why`, and exit.
    fn exit(&mut self, why: Why, out: &mut Vec<Effect>) {
        let parked = std::mem::take(&mut self.parked);
        out.extend(parked.into_keys().map(|token| Effect::Close(token, why)));
        self.deadlines.clear();
        out.push(Effect::Exit);
    }
}

#[cfg(test)]
impl Loop {
    /// The machine's own bookkeeping: each parked token has exactly one
    /// deadline entry, every connection entry is a parked token's, and the
    /// listener has an entry exactly while it backs off.
    fn invariants(&self) -> Result<(), String> {
        let entries = self.deadlines.iter().filter(|&&(_, token)| token < RETRY);
        if entries.count() != self.parked.len()
            || (self.parked.iter()).any(|(&token, &(at, _))| !self.deadlines.contains(&(at, token)))
        {
            return Err(format!(
                "deadlines {:?} parked {:?}",
                self.deadlines, self.parked
            ));
        }
        let backoff = self.deadlines.iter().any(|&(_, token)| token == LISTENER);
        if backoff != (self.listener == Listener::Backoff) {
            return Err(format!(
                "listener {:?}, back-off entry {backoff}",
                self.listener
            ));
        }
        Ok(())
    }
}

/// A seeded search over [`Loop`]: one single-threaded scheduler drives the
/// machine by calling `step` directly, with no socket, thread or clock.
/// It plays the driver (a modelled epoll set, listen backlog, park and
/// waker channels, and the readiness check of a held reply) and 1–4
/// workers, the sink of every dispatch. Connections are scripted from a
/// small alphabet: requests that arrive after a pause, each answered by a
/// response that may first be held (what it waits on moves k µs later,
/// before its park reaches the loop, or never), then parks as a writer k
/// times (or its peer never reads), then a hang-up or silence. Schedules add
/// descriptor-exhaustion bursts, runs of failed waits, workers that keep
/// an idle connection and hand it back late, and a stop at a random time.
/// Every step is checked against the properties in `Sim::apply`; a
/// violation fails its seed with the plan and the timeline, and
/// `SEARCH_SEED=<n>` replays one (DESIGN.md §7).
#[cfg(test)]
mod tests {
    use super::Listener::{Backoff, Closed, Open};
    use super::*;
    use clarens_search::{Agenda, Rng};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Microseconds per millisecond: the simulated clock counts µs.
    const MS: u64 = 1_000;
    /// A response whose peer never reads it.
    const NEVER: u32 = u32::MAX;
    /// Waits in a row that may return at once with nothing done.
    const SPIN: u32 = 3;

    fn micros(d: Duration) -> u64 {
        d.as_micros() as u64
    }

    /// One scripted request: its bytes arrive `after` µs past the previous
    /// response (or the connect); its response may be held until `.1` µs
    /// after its handler returned, then parks as a writer `parks` times,
    /// the peer draining each after `drain` µs.
    #[derive(Clone, Copy, Debug)]
    struct Request {
        after: u64,
        hold: Option<(Hold, u64)>,
        parks: u32,
        drain: u64,
    }

    /// When what a held reply waits on moves.
    #[derive(Clone, Copy, Debug)]
    enum Hold {
        /// This long after its handler held it.
        After(u64),
        /// At once: before its park reaches the loop, so before any check
        /// registered a waker.
        Early,
        /// Never: it is answered at its deadline.
        Never,
    }

    /// One client: when it connects, what it asks, and whether it hangs up
    /// (that long after its last response) or goes silent.
    #[derive(Clone, Debug)]
    struct Script {
        connect: u64,
        requests: Vec<Request>,
        hang_up: Option<u64>,
    }

    /// A whole schedule, drawn from a seed or written out by a named test.
    #[derive(Clone, Debug)]
    struct Plan {
        workers: usize,
        budget: usize,
        read_timeout: u64,
        /// Percent of idle connections their worker keeps, then hands back.
        keep: u64,
        scripts: Vec<Script>,
        /// `accept` fails with the connection still pending until this.
        bursts: Vec<(u64, u64)>,
        /// From this time on, this many waits in a row fail.
        errors: Vec<(u64, u32)>,
        stop: u64,
    }

    impl Plan {
        fn random(seed: u64) -> Plan {
            let rng = &mut Rng::new(seed);
            // Some outlast the drain, as the 30 s default does.
            let read_timeout = match rng.chance(20) {
                true => rng.pick(5_000, 60_000) * MS,
                false => rng.pick(20, 2_000) * MS,
            };
            let horizon = 3_000 * MS;
            let request = |rng: &mut Rng| Request {
                after: match rng.chance(20) {
                    true => rng.pick(read_timeout, 2 * read_timeout),
                    false => rng.pick(0, read_timeout / 2),
                },
                hold: rng.chance(30).then(|| {
                    let until = rng.pick(1, 1_000) * MS;
                    let hold = match rng.pick(0, 2) {
                        0 => Hold::After(rng.pick(0, until * 3 / 2)),
                        1 => Hold::Early,
                        _ => Hold::Never,
                    };
                    (hold, until)
                }),
                parks: match rng.pick(0, 9) {
                    0 => NEVER,
                    n @ 1..=3 => n as u32,
                    _ => 0,
                },
                drain: match rng.chance(10) {
                    true => rng.pick(read_timeout, 2 * read_timeout),
                    false => rng.pick(0, read_timeout / 4),
                },
            };
            let scripts = (0..rng.pick(1, 10))
                .map(|_| Script {
                    connect: rng.pick(0, horizon),
                    requests: (0..rng.pick(0, 3)).map(|_| request(rng)).collect(),
                    hang_up: rng.chance(60).then(|| rng.pick(0, read_timeout * 3 / 2)),
                })
                .collect();
            let bursts = (0..rng.pick(0, 2))
                .map(|_| {
                    let from = rng.pick(0, horizon);
                    (from, from + rng.pick(10, 400) * MS)
                })
                .collect();
            let errors = (0..rng.pick(0, 2))
                .map(|_| {
                    let count = match rng.chance(20) {
                        true => rng.pick(100, 8_000),
                        false => rng.pick(1, 20),
                    };
                    (rng.pick(0, horizon), count as u32)
                })
                .collect();
            Plan {
                workers: rng.pick(1, 4) as usize,
                budget: rng.pick(1, 8) as usize,
                read_timeout,
                keep: [0, 50, 100][rng.pick(0, 2) as usize],
                scripts,
                bursts,
                errors,
                stop: rng.pick(0, horizon + 1_000 * MS),
            }
        }

        /// A plan with one client and no faults, for the named schedules.
        fn one(script: Script, stop: u64) -> Plan {
            Plan {
                workers: 1,
                budget: 4,
                read_timeout: 30_000 * MS,
                keep: 0,
                scripts: vec![script],
                bursts: Vec::new(),
                errors: Vec::new(),
                stop,
            }
        }
    }

    /// Where a scripted connection is.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum At {
        Backlog,
        /// Queued for a worker, or on one.
        Worker,
        /// Kept by the worker that served it (this keep's number).
        Kept(u64),
        /// Sent on the park channel, not yet taken.
        Channel,
        Parked,
        Gone,
    }

    struct Peer {
        script: Script,
        at: At,
        token: Option<u64>,
        /// Requests answered in full.
        served: usize,
        /// The next request's bytes, or the hang-up, have arrived.
        bytes: bool,
        /// A response is on its way (a request in flight), with this many
        /// writer parks still to come.
        responding: bool,
        parks_left: u32,
        /// The response is still to be held, or held and not yet answered;
        /// and the loop dispatched it to be answered.
        holding: bool,
        due: bool,
        /// When what the held reply waits on moved, and whether a check
        /// registered a waker since.
        ready_at: Option<u64>,
        registered: bool,
        /// The peer drained what the last writer park left.
        writable: bool,
        wait: Wait,
        deadline: u64,
        keeps: u64,
    }

    enum Event {
        Connect(usize),
        Bytes(usize),
        Drained(usize),
        /// Worker `.0` is done driving peer `.1`.
        Done(usize, usize),
        /// What peer `.0`'s held reply to request `.1` waits on moves.
        Moved(usize, usize),
        HandBack(usize, u64),
        Stop,
        Burst(u64),
        Errors(u32),
    }

    /// A timeline entry: an input at a time, or an effect of it.
    #[derive(Clone, Copy, Debug)]
    enum Line {
        In(u64, Input),
        Out(u64, Effect),
    }

    struct Sim {
        plan: Plan,
        rng: Rng,
        base: Instant,
        now: u64,
        machine: Loop,
        inputs: VecDeque<Input>,
        events: Agenda<Event>,
        peers: Vec<Peer>,
        tokens: BTreeMap<u64, usize>,
        backlog: VecDeque<usize>,
        accepted: Option<usize>,
        listener: Listener,
        backoff_until: Option<u64>,
        exhausted_until: u64,
        failing: u32,
        retries: BTreeSet<u64>,
        workers: Vec<bool>,
        queue: VecDeque<usize>,
        channel: VecDeque<usize>,
        /// The waker channel: tokens of held replies woken.
        wakes: VecDeque<u64>,
        woken: bool,
        in_flight: usize,
        live: usize,
        stop_flag: bool,
        /// When the machine took the stop, and when it exited.
        stopped: Option<u64>,
        exited: Option<u64>,
        /// Waits in a row that returned at once with nothing done.
        stuck: u32,
        last_wait: Option<u64>,
        progress: bool,
        timeline: Vec<Line>,
    }

    impl Sim {
        fn new(seed: u64, plan: Plan) -> Sim {
            let mut sim = Sim {
                rng: Rng::new(seed ^ 0x5eed),
                base: Instant::now(),
                now: 0,
                machine: Loop::new(plan.budget),
                inputs: VecDeque::new(),
                events: Agenda::default(),
                peers: Vec::new(),
                tokens: BTreeMap::new(),
                backlog: VecDeque::new(),
                accepted: None,
                listener: Listener::Open,
                backoff_until: None,
                exhausted_until: 0,
                failing: 0,
                retries: BTreeSet::new(),
                workers: vec![false; plan.workers],
                queue: VecDeque::new(),
                channel: VecDeque::new(),
                wakes: VecDeque::new(),
                woken: false,
                in_flight: 0,
                live: 0,
                stop_flag: false,
                stopped: None,
                exited: None,
                stuck: 0,
                last_wait: None,
                progress: false,
                timeline: Vec::new(),
                plan,
            };
            for (from, until) in sim.plan.bursts.clone() {
                sim.at(from, Event::Burst(until));
            }
            for (from, count) in sim.plan.errors.clone() {
                sim.at(from, Event::Errors(count));
            }
            for (i, script) in sim.plan.scripts.clone().into_iter().enumerate() {
                sim.at(script.connect, Event::Connect(i));
                sim.peers.push(Peer {
                    script,
                    at: At::Backlog,
                    token: None,
                    served: 0,
                    bytes: false,
                    responding: false,
                    parks_left: 0,
                    holding: false,
                    due: false,
                    ready_at: None,
                    registered: false,
                    writable: false,
                    wait: Wait::Read,
                    deadline: 0,
                    keeps: 0,
                });
            }
            sim.at(sim.plan.stop, Event::Stop);
            sim
        }

        fn at(&mut self, t: u64, event: Event) {
            self.events.push(t, event);
        }

        fn instant(&self, t: u64) -> Instant {
            self.base + Duration::from_micros(t)
        }

        fn time(&self, at: Instant) -> u64 {
            micros(at - self.base)
        }

        /// Run the schedule to the machine's exit; a failure carries the
        /// plan and the timeline.
        fn check(mut self) -> Result<Sim, String> {
            let Err(why) = self.run() else {
                return Ok(self);
            };
            let lines: String = (self.timeline.iter())
                .map(|line| match line {
                    Line::In(t, input) => format!("\n{:>12.3} ms  {input:?}", *t as f64 / 1e3),
                    Line::Out(_, effect) => format!("\n{:>12}  -> {effect:?}", ""),
                })
                .collect();
            Err(format!("{why}; {:?}{lines}", self.plan))
        }

        fn run(&mut self) -> Result<(), String> {
            let mut out = Vec::new();
            self.inputs.push_back(Input::Tick(0));
            for _ in 0..1_000_000 {
                let Some(input) = self.inputs.pop_front() else {
                    return Err("the driver ran out of inputs".into());
                };
                self.timeline.push(Line::In(self.now, input));
                match input {
                    Input::Parked(token, ..) => {
                        self.progress = true;
                        self.peers[self.tokens[&token]].at = At::Parked;
                    }
                    Input::Stop if self.stopped.is_none() => self.stopped = Some(self.now),
                    Input::WaitFailed => {
                        self.retries.insert(self.now + micros(WAIT_RETRY));
                    }
                    Input::Tick(_) => self.retries.retain(|&t| t > self.now),
                    _ => {}
                }
                self.machine.step(self.instant(self.now), input, &mut out);
                self.machine.invariants()?;
                let ends = out
                    .iter()
                    .filter(|e| matches!(e, Effect::Wait(_) | Effect::Exit));
                match (input, ends.count(), out.last()) {
                    (Input::Tick(_), 1, Some(Effect::Wait(_) | Effect::Exit)) => {}
                    (Input::Tick(_), ..) => {
                        return Err("a tick did not end in one wait or exit".into())
                    }
                    (_, 0, _) => {}
                    _ => return Err("only a tick waits or exits".into()),
                }
                for effect in out.drain(..) {
                    self.timeline.push(Line::Out(self.now, effect));
                    self.apply(input, effect)?;
                }
                if self.stopped.is_some() {
                    let idle = |p: &&Peer| p.at == At::Parked && p.wait == Wait::Read;
                    if let Some(p) = self.peers.iter().find(idle) {
                        return Err(format!("idle {:?} still parked after stop", p.token));
                    }
                }
                let parked = self.peers.iter().filter(|p| p.at == At::Parked);
                let parked: BTreeSet<u64> = parked.map(|p| p.token.unwrap()).collect();
                if !parked.iter().eq(self.machine.parked.keys()) {
                    return Err("the machine's parked set is not the driver's".into());
                }
                if self.exited.is_some() {
                    // Every park ended dispatched, closed with a reason, or
                    // closed at the exit; none is left in the channel.
                    let left = self.peers.iter().any(|p| p.at == At::Channel);
                    return match self.inputs.is_empty() && !left {
                        true => Ok(()),
                        false => Err("inputs or parks left after exit".into()),
                    };
                }
            }
            Err("no exit within a million steps".into())
        }

        /// Carry out one effect, checking it against the properties.
        fn apply(&mut self, input: Input, effect: Effect) -> Result<(), String> {
            let stopped = self.stopped.is_some();
            if !matches!(effect, Effect::Accept | Effect::Wait(_)) {
                self.progress = true;
            }
            match effect {
                Effect::Accept => {
                    if self.listener != Listener::Open || stopped {
                        return Err("accept with the listener not open".into());
                    }
                    let answer = match self.backlog.front() {
                        None => Accept::WouldBlock,
                        Some(_) if self.now < self.exhausted_until => Accept::Exhausted,
                        Some(_) if self.rng.chance(2) => {
                            let p = self.backlog.pop_front().unwrap();
                            self.peers[p].at = At::Gone;
                            self.progress = true;
                            Accept::Other
                        }
                        Some(_) => {
                            self.accepted = self.backlog.pop_front();
                            Accept::Socket(self.live)
                        }
                    };
                    self.inputs.push_front(Input::Accepted(answer));
                }
                Effect::Admit(token) => {
                    let p = self.accepted.take().ok_or("admit with no socket")?;
                    if stopped {
                        return Err("admitted after stop".into());
                    }
                    self.live += 1;
                    if self.live > self.plan.budget {
                        return Err(format!(
                            "{} live over a budget of {}",
                            self.live, self.plan.budget
                        ));
                    }
                    if self.tokens.insert(token, p).is_some() {
                        return Err(format!("token {token} admitted twice"));
                    }
                    self.peers[p].token = Some(token);
                    self.enqueue(p);
                }
                Effect::Shed => {
                    let p = self.accepted.take().ok_or("shed with no socket")?;
                    if self.live < self.plan.budget {
                        return Err("shed under budget".into());
                    }
                    self.peers[p].at = At::Gone;
                }
                Effect::Listener(state) => {
                    let due = self.backoff_until.is_some_and(|t| t <= self.now);
                    let legal = match (self.listener, state) {
                        (Listener::Open, Listener::Backoff) => {
                            input == Input::Accepted(Accept::Exhausted)
                        }
                        (Listener::Backoff, Listener::Open) => due,
                        (Listener::Open | Listener::Backoff, Listener::Closed) => {
                            input == Input::Stop
                        }
                        _ => false,
                    };
                    if !legal {
                        return Err(format!("listener {:?} -> {state:?}", self.listener));
                    }
                    self.listener = state;
                    self.backoff_until =
                        (state == Listener::Backoff).then_some(self.now + micros(ACCEPT_BACKOFF));
                }
                Effect::Dispatch(token) => {
                    let p = self.parked(token)?;
                    let peer = &mut self.peers[p];
                    let (held, due) = (peer.wait == Wait::Held, peer.deadline <= self.now);
                    match input {
                        Input::Ready(t) if t == token => {}
                        // A held reply is answered at its deadline, but
                        // one whose wait ended earlier lost its wake.
                        Input::Tick(_) if held && due => {
                            if let Some(t) = peer.ready_at.filter(|&t| t < peer.deadline) {
                                return Err(format!("lost wake: {token} ready at {t}"));
                            }
                        }
                        _ => return Err(format!("dispatched {token} on {input:?}")),
                    }
                    peer.due = held;
                    self.enqueue(p);
                }
                Effect::Check(token) => {
                    let p = self.parked(token)?;
                    let peer = &mut self.peers[p];
                    if peer.wait != Wait::Held {
                        return Err(format!("checked {token}, which holds no reply"));
                    }
                    match peer.ready_at {
                        Some(_) => self.inputs.push_front(Input::Ready(token)),
                        None => peer.registered = true,
                    }
                }
                Effect::Close(token, why) => {
                    let p = self.parked(token)?;
                    let (wait, due) = (self.peers[p].wait, self.peers[p].deadline <= self.now);
                    let drained = self
                        .stopped
                        .is_some_and(|t| self.now >= t + micros(DRAIN_TIMEOUT));
                    // A held reply closes only when the drain gives up.
                    let legal = match why {
                        Why::Idle => wait == Wait::Read && due,
                        Why::Stalled => {
                            wait != Wait::Read && (drained || (due && wait == Wait::Write))
                        }
                        // A parked writer or held reply always holds a
                        // request in flight, so only idle connections may
                        // close for the stop.
                        Why::Stopping => wait == Wait::Read && stopped,
                    };
                    if !legal {
                        return Err(format!("closed {token} ({why:?}), waiting {wait:?}"));
                    }
                    self.gone(p);
                }
                Effect::Wait(until) => {
                    let until = until.map(|at| self.time(at));
                    let first = self.first_deadline();
                    if until != first {
                        return Err(format!("waits until {until:?}, first deadline {first:?}"));
                    }
                    if until.is_some_and(|t| t <= self.now) {
                        return Err("waits until a deadline already due".into());
                    }
                    match self.last_wait == Some(self.now) && !self.progress {
                        true => self.stuck += 1,
                        false => self.stuck = 0,
                    }
                    if self.stuck > SPIN {
                        return Err(format!("spins: {} waits at one instant", self.stuck));
                    }
                    (self.last_wait, self.progress) = (Some(self.now), false);
                    self.wait(until)?;
                }
                Effect::Exit => {
                    let stop = self.stopped.ok_or("exit without a stop")?;
                    if self.in_flight > 0 && self.now < stop + micros(DRAIN_TIMEOUT) {
                        return Err(format!("exit with {} in flight", self.in_flight));
                    }
                    if self.now > stop + micros(DRAIN_TIMEOUT) {
                        return Err("exit after the drain timeout".into());
                    }
                    if self.peers.iter().any(|p| p.at == At::Parked) {
                        return Err("exit with connections parked".into());
                    }
                    self.exited = Some(self.now);
                }
            }
            Ok(())
        }

        /// The peer parked under `token`, or a violation.
        fn parked(&self, token: u64) -> Result<usize, String> {
            match self.tokens.get(&token) {
                Some(&p) if self.peers[p].at == At::Parked => Ok(p),
                _ => Err(format!("{token} is not parked")),
            }
        }

        /// The first deadline as the driver knows them.
        fn first_deadline(&self) -> Option<u64> {
            let parked = self.peers.iter().filter(|p| p.at == At::Parked);
            let drain = self.stopped.map(|t| t + micros(DRAIN_TIMEOUT));
            parked
                .map(|p| p.deadline)
                .chain(self.backoff_until)
                .chain(drain)
                .chain(self.retries.first().copied())
                .min()
        }

        /// The modelled epoll set: is anything in it ready?
        fn ready(&self) -> bool {
            let listener = self.listener == Listener::Open && !self.backlog.is_empty();
            listener || self.peers.iter().any(|p| self.ready_peer(p))
        }

        fn ready_peer(&self, p: &Peer) -> bool {
            p.at == At::Parked
                && match p.wait {
                    Wait::Read => p.bytes,
                    Wait::Write => p.writable,
                    Wait::Held => false,
                }
        }

        /// Wait as the driver does, running the world until something is
        /// ready, a wake, or `until`; then queue the wake-up's inputs.
        fn wait(&mut self, until: Option<u64>) -> Result<(), String> {
            let failed = self.failing > 0;
            loop {
                if self.woken || (!failed && self.ready()) {
                    break;
                }
                // A failed wait lasts its timeout on the wake pipe alone,
                // and with none it returns at once.
                let limit = until.unwrap_or(if failed { self.now } else { u64::MAX });
                match self.events.pop_until(limit) {
                    Some((t, event)) => {
                        self.now = self.now.max(t);
                        self.handle(event);
                    }
                    None if limit == u64::MAX => return Err("waits forever".into()),
                    None => {
                        self.now = self.now.max(limit);
                        break;
                    }
                }
            }
            self.woken = false;
            if failed {
                self.failing -= 1;
                self.inputs.push_back(Input::WaitFailed);
            }
            if self.stop_flag {
                self.inputs.push_back(Input::Stop);
            }
            if !failed {
                if self.listener == Listener::Open && !self.backlog.is_empty() {
                    self.inputs.push_back(Input::ListenerReady);
                }
                let ready = self.peers.iter().filter(|p| self.ready_peer(p));
                let tokens: Vec<u64> = ready.map(|p| p.token.unwrap()).collect();
                self.inputs.extend(tokens.into_iter().map(Input::Ready));
            }
            while let Some(p) = self.channel.pop_front() {
                let peer = &self.peers[p];
                let deadline = self.instant(peer.deadline);
                self.inputs
                    .push_back(Input::Parked(peer.token.unwrap(), peer.wait, deadline));
            }
            self.inputs.extend(self.wakes.drain(..).map(Input::Woken));
            self.inputs.push_back(Input::Tick(self.in_flight));
            Ok(())
        }

        fn handle(&mut self, event: Event) {
            match event {
                Event::Connect(p) => {
                    self.backlog.push_back(p);
                    let script = &self.peers[p].script;
                    let first = script.requests.first().map(|r| r.after).or(script.hang_up);
                    if let Some(after) = first {
                        self.at(self.now + after, Event::Bytes(p));
                    }
                }
                Event::Bytes(p) => {
                    self.peers[p].bytes = true;
                    if let At::Kept(_) = self.peers[p].at {
                        self.enqueue(p);
                    }
                }
                Event::Drained(p) => self.peers[p].writable = true,
                Event::Done(w, p) => self.done(w, p),
                Event::Moved(p, request) => {
                    let peer = &mut self.peers[p];
                    if peer.holding && peer.served == request && peer.ready_at.is_none() {
                        peer.ready_at = Some(self.now);
                        // Only a check that found it not ready left a waker.
                        if std::mem::take(&mut peer.registered) {
                            self.wakes.push_back(peer.token.unwrap());
                            self.woken = true;
                        }
                    }
                }
                Event::HandBack(p, keep) if self.peers[p].at == At::Kept(keep) => {
                    match self.now >= self.peers[p].deadline {
                        true => self.gone(p), // the keeper's own idle timeout
                        false => self.park(p, Wait::Read, self.peers[p].deadline),
                    }
                }
                Event::HandBack(..) => {}
                Event::Stop => (self.stop_flag, self.woken) = (true, true),
                Event::Burst(until) => self.exhausted_until = until,
                Event::Errors(count) => self.failing = count,
            }
        }

        /// Queue `p` for a worker, starting it on an idle one.
        fn enqueue(&mut self, p: usize) {
            self.peers[p].at = At::Worker;
            match self.workers.iter().position(|busy| !busy) {
                Some(w) => self.start(w, p),
                None => self.queue.push_back(p),
            }
        }

        /// Worker `w` drives `p`: a request whose bytes are in starts (and
        /// is in flight) unless the server is stopping.
        fn start(&mut self, w: usize, p: usize) {
            self.workers[w] = true;
            let peer = &mut self.peers[p];
            let asks = peer.served < peer.script.requests.len();
            if !peer.responding && !self.stop_flag && peer.bytes && asks {
                peer.bytes = false;
                peer.responding = true;
                let request = peer.script.requests[peer.served];
                peer.parks_left = request.parks;
                (peer.holding, peer.due) = (request.hold.is_some(), false);
                (peer.ready_at, peer.registered) = (None, false);
                self.in_flight += 1;
            }
            let took = self.rng.pick(10, 2 * MS);
            self.at(self.now + took, Event::Done(w, p));
        }

        fn done(&mut self, w: usize, p: usize) {
            self.workers[w] = false;
            let now = self.now;
            let peer = &mut self.peers[p];
            let request = peer.script.requests.get(peer.served).copied();
            if peer.responding && peer.holding && !peer.due {
                // The handler held its reply.
                let (hold, until) = request.unwrap().hold.unwrap();
                let served = peer.served;
                match hold {
                    Hold::After(after) => self.at(now + after, Event::Moved(p, served)),
                    Hold::Early => self.peers[p].ready_at = Some(now),
                    Hold::Never => {}
                }
                self.park(p, Wait::Held, now + until);
            } else if peer.responding && peer.parks_left > 0 {
                peer.holding = false; // answered, if it was held
                if peer.parks_left != NEVER {
                    peer.parks_left -= 1;
                    self.at(now + request.unwrap().drain, Event::Drained(p));
                }
                self.peers[p].writable = false;
                self.park(p, Wait::Write, now + self.plan.read_timeout);
            } else if peer.responding {
                (peer.responding, peer.holding) = (false, false);
                peer.served += 1;
                let next = match peer.script.requests.get(peer.served) {
                    Some(r) => Some(r.after),
                    None => peer.script.hang_up,
                };
                self.request_done();
                if let Some(after) = next {
                    self.at(now + after, Event::Bytes(p));
                }
                match self.stop_flag {
                    true => self.gone(p),
                    false => self.idle(p),
                }
            } else if self.stop_flag || (peer.bytes && peer.served == peer.script.requests.len()) {
                self.gone(p); // closed unserved, or the peer hung up
            } else {
                self.idle(p);
            }
            if let Some(next) = self.queue.pop_front() {
                self.start(w, next);
            }
        }

        /// `p` has nothing to do: its worker keeps it (and hands it back
        /// later, or expires it) or parks it on the loop.
        fn idle(&mut self, p: usize) {
            let deadline = self.now + self.plan.read_timeout;
            if !self.queue.is_empty() || !self.rng.chance(self.plan.keep) {
                return self.park(p, Wait::Read, deadline);
            }
            let peer = &mut self.peers[p];
            peer.keeps += 1;
            (peer.at, peer.deadline) = (At::Kept(peer.keeps), deadline);
            if peer.bytes {
                return self.enqueue(p);
            }
            let back = self.now + self.rng.pick(0, self.plan.read_timeout * 3 / 2);
            self.at(back.min(deadline), Event::HandBack(p, self.peers[p].keeps));
        }

        fn park(&mut self, p: usize, wait: Wait, deadline: u64) {
            let peer = &mut self.peers[p];
            (peer.at, peer.wait, peer.deadline) = (At::Channel, wait, deadline);
            self.channel.push_back(p);
            self.woken = true;
        }

        /// `p` closes; a response it carried leaves the in-flight count.
        fn gone(&mut self, p: usize) {
            let peer = &mut self.peers[p];
            peer.at = At::Gone;
            let responding = std::mem::take(&mut peer.responding);
            if peer.token.is_some() {
                self.live -= 1;
            }
            if responding {
                self.request_done();
            }
        }

        /// A request leaves flight; the last one while stopping wakes the
        /// loop.
        fn request_done(&mut self) {
            self.in_flight -= 1;
            if self.in_flight == 0 && self.stop_flag {
                self.woken = true;
            }
        }

        /// The effects, with the time of each.
        fn effects(&self) -> impl Iterator<Item = (u64, Effect)> + '_ {
            self.timeline.iter().filter_map(|line| match *line {
                Line::Out(t, effect) => Some((t, effect)),
                Line::In(..) => None,
            })
        }
    }

    #[test]
    fn schedules() {
        // A failed accept has no test but this search: it must draw both.
        let failures = [Accept::Exhausted, Accept::Other];
        let drawn = failures.map(|_| AtomicUsize::new(0));
        clarens_search::search("clarens-httpd --lib event_loop", 0..10_000, |seed| {
            let sim = Sim::new(seed, Plan::random(seed)).check()?;
            for (answer, count) in failures.iter().zip(&drawn) {
                let fed =
                    |line: &Line| matches!(line, Line::In(_, Input::Accepted(a)) if a == answer);
                if sim.timeline.iter().any(fed) {
                    count.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(())
        });
        if std::env::var_os("SEARCH_SEED").is_none() {
            let drawn = drawn.map(|count| count.into_inner());
            assert!(
                drawn.iter().all(|&n| n > 0),
                "schedules fed {failures:?}: {drawn:?}"
            );
        }
    }

    /// An `EMFILE` burst takes the listener out of the set for
    /// `ACCEPT_BACKOFF` at a time and puts it back; the connection is
    /// admitted at the first back-off after the burst.
    #[test]
    fn an_emfile_burst_backs_the_listener_off_and_puts_it_back() {
        let client = Script {
            connect: 0,
            requests: Vec::new(),
            hang_up: Some(10 * MS),
        };
        let mut plan = Plan::one(client, 1_000 * MS);
        plan.bursts.push((0, 250 * MS));
        let sim = Sim::new(1, plan).check().unwrap_or_else(|e| panic!("{e}"));
        let moves: Vec<(u64, Effect)> = sim
            .effects()
            .filter(|(_, e)| matches!(e, Effect::Listener(_) | Effect::Admit(_)))
            .map(|(t, e)| (t / MS, e))
            .collect();
        let (out, back) = (Effect::Listener(Backoff), Effect::Listener(Open));
        let expected = [
            (0, out),
            (100, back),
            (100, out),
            (200, back),
            (200, out),
            (300, back),
            (300, Effect::Admit(0)),
            (1_000, Effect::Listener(Closed)),
        ];
        assert_eq!(moves, expected);
    }

    /// An idle loop with one parked reader waits once, until that
    /// reader's deadline, and closes it there as an idle timeout.
    #[test]
    fn an_idle_loop_waits_once_until_its_only_deadline() {
        let silent = Script {
            connect: 0,
            requests: Vec::new(),
            hang_up: None,
        };
        let sim = Sim::new(2, Plan::one(silent, 60_000 * MS))
            .check()
            .unwrap_or_else(|e| panic!("{e}"));
        let parked = sim
            .timeline
            .iter()
            .position(|l| matches!(l, Line::In(_, Input::Parked(..))));
        let i = parked.expect("never parked");
        let Line::In(at, Input::Parked(_, _, deadline)) = sim.timeline[i] else {
            unreachable!()
        };
        let after: Vec<Effect> = (sim.timeline[i..].iter())
            .filter_map(|line| match *line {
                Line::Out(_, effect) => Some(effect),
                Line::In(..) => None,
            })
            .collect();
        assert_eq!(
            &after[..3],
            [
                Effect::Wait(Some(deadline)),
                Effect::Close(0, Why::Idle),
                Effect::Wait(None)
            ],
            "{after:?}"
        );
        assert_eq!(sim.time(deadline), at + 30_000 * MS);
    }

    /// A held reply whose wait ended before its park reached the loop (no
    /// waker was registered yet) is dispatched at the park's own check,
    /// not at its deadline; one never woken is dispatched, not closed, at
    /// its deadline. Both are answered.
    #[test]
    fn a_held_reply_is_answered_at_its_park_check_or_its_deadline() {
        let held = |hold| Script {
            connect: 0,
            requests: vec![Request {
                after: 0,
                hold: Some((hold, 500 * MS)),
                parks: 0,
                drain: 0,
            }],
            hang_up: Some(10 * MS),
        };
        for (hold, at_deadline) in [(Hold::Early, false), (Hold::Never, true)] {
            let sim = Sim::new(4, Plan::one(held(hold), 60_000 * MS))
                .check()
                .unwrap_or_else(|e| panic!("{e}"));
            let (parked, deadline) = (sim.timeline.iter())
                .find_map(|line| match *line {
                    Line::In(t, Input::Parked(0, Wait::Held, at)) => Some((t, sim.time(at))),
                    _ => None,
                })
                .expect("never held");
            let dispatched = sim
                .effects()
                .find(|&(t, e)| t >= parked && e == Effect::Dispatch(0))
                .expect("never dispatched");
            assert_eq!(dispatched.0, if at_deadline { deadline } else { parked });
            assert_eq!(sim.peers[0].served, 1, "{hold:?}: not answered");
        }
    }

    /// A stop while an 8 MiB response is parked mid-write keeps
    /// dispatching it as the peer drains, until nothing is in flight, and
    /// exits long before `DRAIN_TIMEOUT`.
    #[test]
    fn a_stop_drains_a_parked_8_mib_writer() {
        let reader = Script {
            connect: 0,
            requests: vec![Request {
                after: 0,
                hold: None,
                parks: 32,
                drain: 10 * MS,
            }],
            hang_up: None,
        };
        let sim = Sim::new(3, Plan::one(reader, 50 * MS))
            .check()
            .unwrap_or_else(|e| panic!("{e}"));
        let stop = sim.stopped.unwrap();
        let writes = sim
            .effects()
            .filter(|&(t, e)| t >= stop && e == Effect::Dispatch(0));
        assert!(
            writes.count() >= 25,
            "{:?}",
            sim.effects().collect::<Vec<_>>()
        );
        assert_eq!(sim.peers[0].served, 1, "the response was written whole");
        let closes = sim
            .effects()
            .filter(|(_, e)| matches!(e, Effect::Close(..)));
        assert_eq!(closes.count(), 0);
        assert!(sim.exited.unwrap() < stop + micros(DRAIN_TIMEOUT) / 10);
    }
}
