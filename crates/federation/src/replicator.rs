//! The follower side of WAL-shipping replication (DESIGN.md §11, §14).
//!
//! The policy is the [`Follower`] step machine — no clock, socket or
//! thread in it; the [`Replicator`] thread is its driver. The machine asks
//! for the leader's log at an `(epoch, offset)` cursor and adopts the
//! cursor each chunk is served at (a compaction restarts the stream); the
//! driver applies the operations through the ordinary `put`/`delete` path,
//! so the epoch-invalidated caches see replicated state as local writes.
//! After every chunk, empty or not, the machine fetches again at once: the
//! leader holds a caught-up fetch until its log moves (or for
//! `clarens::services::replication::FETCH_HOLD`), so a write reaches a
//! follower in one round trip and no follower polls. An undecodable chunk
//! backs off like a fetch error, a chunk from an older leader epoch is
//! dropped, a new believed leader resyncs at `(0, 0)`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use clarens::client::{Backoff, ClarensClient, ClientError};
use clarens::core::ClarensCore;
use clarens::federation::FederationRole;
use clarens::registry::NODE_LOCAL_BUCKETS;
use clarens_db::{decode_stream, LogOp};
use clarens_pki::cert::Credential;
use clarens_wire::Value;

use crate::Worker;

/// The base of the fetch-error backoff, and the tick of a node with no
/// leader to fetch from (it leads, waits for an election, or was refused
/// a chunk), in milliseconds.
pub const POLL_MS: u64 = 25;
/// Fetch budget per call (matches the leader-side `MAX_FETCH_BYTES` cap).
const FETCH_BYTES: i64 = 1 << 20;
/// Fetch-error backoff ceiling: no retry storm, a prompt failover.
const BACKOFF_CAP: Duration = Duration::from_millis(1000);

/// What the driver feeds the machine.
#[derive(Clone, Debug)]
pub enum Input {
    /// A wake fell due: the node's role and believed leader.
    Tick(FederationRole, String),
    /// Whether [`Effect::Login`] succeeded.
    LoggedIn(bool),
    /// [`Effect::Fetch`] got a `replication.fetch` answer; the node's
    /// epoch when it arrived.
    Chunk(u64, Value),
    /// [`Effect::Fetch`] met `NOT_LEADER`: the leader it names (maybe "")
    /// and its epoch.
    Hint((String, u64)),
    /// [`Effect::Fetch`] failed (a fault, or the transport): log in anew.
    Failed,
}

/// What the machine asks the driver to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Open a session at this leader; answered by [`Input::LoggedIn`].
    Login(String),
    /// Fetch at this cursor; answered by a chunk, a hint or a failure.
    Fetch(u64, u64),
    /// Apply these operations to the store, in order.
    Apply(Vec<LogOp>),
    /// Adopt this epoch, and this leader unless it is empty.
    Adopt(String, u64),
    /// The applied offset in the leader's log, and the lag when known.
    Progress(u64, Option<u64>),
    /// A login or fetch failed (`replication_fetch_errors`).
    FetchError,
    /// A deposed leader's chunk was dropped (`fenced_writes`).
    Fenced,
    /// Tick again at this time.
    Wake(u64),
}

/// The follower policy of one node (see the module docs).
pub struct Follower {
    backoff: Backoff,
    failures: u32,
    leader: String,
    logged_in: bool,
    cursor: (u64, u64),
    /// The newest leader epoch seen: older chunks are fenced.
    fence: u64,
}

impl Follower {
    /// A follower of `leader` ("" to wait for one).
    pub fn new(leader: &str) -> Follower {
        let base = Duration::from_millis(POLL_MS);
        Follower {
            backoff: Backoff::new(base, BACKOFF_CAP, POLL_MS ^ 0x5EED_F0110),
            failures: 0,
            leader: leader.to_owned(),
            logged_in: false,
            cursor: (0, 0),
            fence: 0,
        }
    }

    /// Advance the machine by one input at local time `now` (ms).
    pub fn step(&mut self, now: u64, input: Input) -> Vec<Effect> {
        let fetch = Effect::Fetch(self.cursor.0, self.cursor.1);
        match input {
            // A leader replicates from nobody; once demoted it resyncs.
            Input::Tick(FederationRole::Leader, _) => {
                self.leader.clear();
                vec![self.poll(now)]
            }
            Input::Tick(_, leader) if !leader.is_empty() && leader != self.leader => {
                (self.logged_in, self.cursor, self.failures) = (false, (0, 0), 0);
                self.leader = leader;
                vec![
                    Effect::Progress(0, None),
                    Effect::Login(self.leader.clone()),
                ]
            }
            Input::Tick(..) if self.leader.is_empty() => vec![self.poll(now)],
            Input::Tick(..) if self.logged_in => vec![fetch],
            Input::Tick(..) => vec![Effect::Login(self.leader.clone())],
            Input::LoggedIn(true) => {
                self.logged_in = true;
                vec![fetch]
            }
            Input::Chunk(epoch, chunk) => {
                self.fence = self.fence.max(epoch);
                self.chunk(now, &chunk)
            }
            Input::Hint((leader, epoch)) => vec![Effect::Adopt(leader, epoch), self.poll(now)],
            Input::LoggedIn(false) | Input::Failed => {
                self.logged_in = false;
                self.fail(now)
            }
        }
    }

    fn chunk(&mut self, now: u64, chunk: &Value) -> Vec<Effect> {
        let int = |key| chunk.get(key).and_then(Value::as_int).unwrap_or(0) as u64;
        if int("leader_epoch") < self.fence {
            return vec![Effect::Fenced, self.poll(now)];
        }
        let data = chunk.get("data").and_then(Value::coerce_bytes);
        let data = data.unwrap_or_default();
        let Some(ops) = decode_stream(&data) else {
            self.cursor = (int("epoch"), 0);
            return self.fail(now);
        };
        (self.fence, self.failures) = (int("leader_epoch"), 0);
        self.cursor = (int("epoch"), int("offset") + data.len() as u64);
        let lag = int("len").saturating_sub(self.cursor.1);
        let adopt = Effect::Adopt(String::new(), self.fence);
        let progress = Effect::Progress(self.cursor.1, Some(lag));
        // Fetch again at once: the leader holds the fetch until there is
        // more, and the fetch confirms what this chunk applied.
        let next = Effect::Wake(now);
        if ops.is_empty() {
            return vec![adopt, progress, next];
        }
        vec![adopt, Effect::Apply(ops), progress, next]
    }

    fn fail(&mut self, now: u64) -> Vec<Effect> {
        self.failures += 1;
        let pause = self.backoff.delay(self.failures).as_millis() as u64;
        vec![Effect::FetchError, Effect::Wake(now + pause)]
    }

    fn poll(&self, now: u64) -> Effect {
        Effect::Wake(now + POLL_MS)
    }
}

/// A running replication follower loop: its counts of operations applied
/// and of non-empty chunks received, and its thread.
pub struct Replicator(Arc<[AtomicU64; 2]>, Worker);

impl Replicator {
    /// Start replicating into `core`'s store, authenticating as `admin`
    /// (replication is site-admin gated: the WAL carries session
    /// secrets). `leader` seeds the leader address; thereafter the loop
    /// follows `core.federation` — pass an empty string to wait for the
    /// election to name one. A caught-up follower's fetch waits on the
    /// leader, which answers it when its log moves.
    pub fn start(core: Arc<ClarensCore>, leader: String, admin: Credential) -> Replicator {
        let counts = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let tally = Arc::clone(&counts);
        let machine = Follower::new(&leader);
        let body = move |stop: &AtomicBool| run(&core, machine, &admin, stop, &tally);
        Replicator(counts, Worker::spawn(format!("replicator-{leader}"), body))
    }

    /// Operations applied so far.
    pub fn applied(&self) -> u64 {
        self.0[0].load(Ordering::Relaxed)
    }

    /// Non-empty chunks received so far.
    pub fn chunks(&self) -> u64 {
        self.0[1].load(Ordering::Relaxed)
    }

    /// Stop the loop and join the thread.
    pub fn stop(self) {
        drop(self.1)
    }
}

/// The driver: the clock, the sleep, the client and the store.
fn run(
    core: &ClarensCore,
    mut machine: Follower,
    admin: &Credential,
    stop: &AtomicBool,
    counts: &[AtomicU64; 2],
) {
    let started = std::time::Instant::now();
    let mut client = None;
    let (mut inputs, mut wake) = (VecDeque::new(), 0);
    while !stop.load(Ordering::SeqCst) {
        let now = started.elapsed().as_millis() as u64;
        if inputs.is_empty() && now < wake {
            std::thread::sleep(Duration::from_millis(wake - now));
            continue;
        }
        let tick = Input::Tick(core.federation.role(), core.federation.leader());
        let input = inputs.pop_front().unwrap_or(tick);
        for effect in machine.step(now, input) {
            match effect {
                Effect::Login(leader) => {
                    let c = ClarensClient::peer(&leader).with_credential(admin.clone());
                    let c = c.with_retries(1).with_call_deadline(Duration::from_secs(5));
                    inputs.push_back(Input::LoggedIn(client.insert(c).login().is_ok()));
                }
                Effect::Fetch(epoch, offset) => {
                    inputs.push_back(fetch(core, client.as_mut(), epoch, offset))
                }
                Effect::Wake(at) => wake = at,
                effect => apply(core, effect, counts),
            }
        }
    }
}

/// The one applier of each state-changing effect.
fn apply(core: &ClarensCore, effect: Effect, counts: &[AtomicU64; 2]) {
    let (fed, telemetry) = (&core.federation, &core.telemetry.federation);
    match effect {
        Effect::Apply(ops) => {
            counts[1].fetch_add(1, Ordering::Relaxed);
            for op in ops {
                let result = match op {
                    // The leader's method table and stage requests are
                    // not this node's.
                    LogOp::Put { bucket, .. } | LogOp::Delete { bucket, .. }
                        if NODE_LOCAL_BUCKETS.contains(&bucket.as_str()) =>
                    {
                        continue
                    }
                    LogOp::Put { bucket, key, value } => core.store.put(&bucket, &key, value),
                    LogOp::Delete { bucket, key } => core.store.delete(&bucket, &key).map(drop),
                    // Persisted: a later promotion of this node continues the
                    // epoch sequence.
                    LogOp::EpochFence { epoch } => {
                        fed.observe_epoch(epoch);
                        core.store.append_fence(epoch)
                    }
                };
                counts[0].fetch_add(result.is_ok() as u64, Ordering::Relaxed);
            }
        }
        Effect::Adopt(leader, epoch) => {
            fed.observe_epoch(epoch);
            if !leader.is_empty() {
                fed.set_leader(&leader);
            }
        }
        Effect::Progress(applied, lag) => {
            fed.set_applied(applied);
            if let Some(lag) = lag {
                core.replication_lag.store(lag, Ordering::Relaxed);
            }
        }
        Effect::FetchError => telemetry.replication_fetch_errors.inc(),
        Effect::Fenced => telemetry.fenced_writes.inc(),
        Effect::Login(_) | Effect::Fetch(..) | Effect::Wake(_) => {}
    }
}

/// One `replication.fetch` at the cursor, as the input its outcome makes.
fn fetch(core: &ClarensCore, client: Option<&mut ClarensClient>, epoch: u64, offset: u64) -> Input {
    let cursor = [epoch as i64, offset as i64, FETCH_BYTES].map(Value::Int);
    match client.map(|c| c.call("replication.fetch", cursor.into())) {
        Some(Ok(chunk)) => Input::Chunk(core.federation.epoch(), chunk),
        Some(Err(ClientError::Fault(f))) => f.leader_hint().map_or(Input::Failed, Input::Hint),
        _ => Input::Failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clarens_db::log::encode_record;

    const FOLLOWER: FederationRole = FederationRole::Follower;

    fn put(key: &str) -> LogOp {
        LogOp::Put {
            bucket: "b".into(),
            key: key.into(),
            value: key.as_bytes().to_vec(),
        }
    }

    /// The scripted leader's answer: `ops` framed at `(epoch, offset)`,
    /// stamped `leader_epoch`, with nothing committed beyond them.
    fn served(leader_epoch: u64, epoch: u64, offset: u64, ops: &[LogOp]) -> Value {
        let data: Vec<u8> = ops.iter().flat_map(encode_record).collect();
        let len = offset + data.len() as u64;
        let int = |n: u64| Value::Int(n as i64);
        Value::structure([
            ("leader_epoch", int(leader_epoch)),
            ("epoch", int(epoch)),
            ("offset", int(offset)),
            ("len", int(len)),
            ("data", Value::Bytes(data)),
        ])
    }

    /// A follower of `leader`, logged in and about to fetch at `(0, 0)`.
    fn following(leader: &str) -> Follower {
        let mut f = Follower::new("");
        let tick = f.step(0, Input::Tick(FOLLOWER, leader.into()));
        assert_eq!(
            tick,
            [Effect::Progress(0, None), Effect::Login(leader.into())]
        );
        assert_eq!(f.step(0, Input::LoggedIn(true)), [Effect::Fetch(0, 0)]);
        f
    }

    /// The next fetch a tick at `now` asks for.
    fn next_fetch(f: &mut Follower, now: u64, leader: &str) -> Vec<Effect> {
        f.step(now, Input::Tick(FOLLOWER, leader.into()))
    }

    #[test]
    fn corrupt_chunks_back_off_and_count_instead_of_spinning() {
        let mut f = following("L");
        let mut frames = encode_record(&put("k"));
        *frames.last_mut().unwrap() ^= 0xFF; // CRC mismatch
        let torn = Value::structure([
            ("leader_epoch", Value::Int(1)),
            ("data", Value::Bytes(frames)),
        ]);
        let mut wakes = Vec::new();
        for now in [100, 200] {
            let effects = f.step(now, Input::Chunk(1, torn.clone()));
            assert!(effects.contains(&Effect::FetchError), "{effects:?}");
            assert!(!effects.iter().any(|e| matches!(e, Effect::Apply(_))));
            let Some(Effect::Wake(at)) = effects.last() else {
                panic!("no wake: {effects:?}")
            };
            wakes.push(at - now);
            // The stream restarts from the top of the served epoch.
            assert_eq!(next_fetch(&mut f, *at, "L"), [Effect::Fetch(0, 0)]);
        }
        assert!(
            wakes[0] >= POLL_MS / 2,
            "first corrupt chunk re-fetched after {wakes:?}"
        );
        assert!(
            wakes[1] >= POLL_MS,
            "second corrupt chunk re-fetched after {wakes:?}"
        );
    }

    #[test]
    fn compaction_epoch_bump_adopts_the_served_cursor() {
        let mut f = following("L");
        let effects = f.step(10, Input::Chunk(1, served(1, 0, 0, &[put("a")])));
        assert!(effects.contains(&Effect::Apply(vec![put("a")])));
        let Effect::Fetch(0, offset) = next_fetch(&mut f, 50, "L")[0] else {
            panic!("cursor moved epochs");
        };
        // The leader compacted: it answers the stale cursor from (3, 0).
        let effects = f.step(60, Input::Chunk(1, served(1, 3, 0, &[put("a"), put("b")])));
        assert!(effects.contains(&Effect::Apply(vec![put("a"), put("b")])));
        let resumed = next_fetch(&mut f, 100, "L");
        assert!(offset > 0);
        assert!(
            matches!(resumed[..], [Effect::Fetch(3, o)] if o > 0),
            "{resumed:?}"
        );
    }

    #[test]
    fn a_chunk_from_an_older_leader_epoch_is_dropped_and_counted() {
        let mut f = following("L");
        let effects = f.step(10, Input::Chunk(4, served(3, 0, 0, &[put("tail")])));
        assert_eq!(effects, [Effect::Fenced, Effect::Wake(10 + POLL_MS)]);
        assert_eq!(next_fetch(&mut f, 40, "L"), [Effect::Fetch(0, 0)]);
    }

    #[test]
    fn a_not_leader_hint_repoints_the_node() {
        let mut f = following("old");
        let effects = f.step(10, Input::Hint(("new".into(), 2)));
        assert_eq!(
            effects,
            [Effect::Adopt("new".into(), 2), Effect::Wake(10 + POLL_MS)]
        );
        // The applier records the hint as the believed leader; the next
        // tick follows it with a fresh session.
        let tick = next_fetch(&mut f, 40, "new");
        assert_eq!(
            tick,
            [Effect::Progress(0, None), Effect::Login("new".into())]
        );
    }

    #[test]
    fn a_repoint_resets_the_cursor_and_applied_to_zero() {
        let mut f = following("A");
        let effects = f.step(10, Input::Chunk(1, served(1, 5, 0, &[put("a")])));
        assert!(matches!(effects[2], Effect::Progress(applied, Some(0)) if applied > 0));
        let tick = next_fetch(&mut f, 40, "B");
        assert_eq!(tick, [Effect::Progress(0, None), Effect::Login("B".into())]);
        assert_eq!(f.step(41, Input::LoggedIn(true)), [Effect::Fetch(0, 0)]);
    }

    #[test]
    fn an_in_band_epoch_fence_is_adopted_and_persisted() {
        let mut f = following("L");
        let ops = [LogOp::EpochFence { epoch: 3 }, put("a")];
        let effects = f.step(10, Input::Chunk(0, served(3, 0, 0, &ops)));
        // The applier appends the fence record to this node's own log and
        // observes its epoch, which the next fetch reports.
        assert!(
            effects.contains(&Effect::Apply(ops.to_vec())),
            "{effects:?}"
        );
        assert!(effects.contains(&Effect::Adopt(String::new(), 3)));
        next_fetch(&mut f, 40, "L");
        let stale = f.step(41, Input::Chunk(3, served(2, 0, 99, &[put("b")])));
        assert_eq!(stale[0], Effect::Fenced);
    }

    /// A leader's chunk puts into its method table and its stage requests
    /// beside shared state: the follower applies only the shared state.
    #[test]
    fn a_follower_skips_its_leaders_node_local_buckets() {
        use clarens::registry::METHODS_BUCKET;
        use clarens::services::srm::SRM_BUCKET;
        let pki = clarens::testkit::grid_pki();
        let roots = vec![pki.ca.certificate.clone()];
        let core = ClarensCore::new(Default::default(), roots, pki.server.clone()).unwrap();
        let op = |bucket: &str| LogOp::Put {
            bucket: bucket.into(),
            key: "k".into(),
            value: b"leader".to_vec(),
        };
        let ops = [op(SRM_BUCKET), op(METHODS_BUCKET), op("shared")];
        let mut f = following("L");
        let counts = Default::default();
        for effect in f.step(10, Input::Chunk(1, served(1, 0, 0, &ops))) {
            if matches!(effect, Effect::Apply(_)) {
                apply(&core, effect, &counts);
            }
        }
        assert!(core.store.get(SRM_BUCKET, "k").is_none());
        assert!(core.store.get(METHODS_BUCKET, "k").is_none());
        assert!(core.store.get("shared", "k").is_some());
    }

    /// Open schedule (ROADMAP item 8): a resync from `(0, 0)` replays the
    /// new leader's puts but deletes nothing, so a key a deposed leader's
    /// tail left on this follower outlives the resync although the new
    /// leader's log never had it. Not reachable for an *acked* write, but
    /// the follower's store no longer converges to the leader's.
    #[test]
    fn a_deposed_leaders_tail_survives_a_resync() {
        let mut store = std::collections::BTreeSet::new();
        let mut record = |effects: Vec<Effect>| {
            for effect in effects {
                if let Effect::Apply(ops) = effect {
                    for op in ops {
                        match op {
                            LogOp::Put { key, .. } => drop(store.insert(key)),
                            LogOp::Delete { key, .. } => drop(store.remove(&key)),
                            LogOp::EpochFence { .. } => {}
                        }
                    }
                }
            }
        };
        let mut f = following("deposed");
        record(f.step(
            10,
            Input::Chunk(1, served(1, 0, 0, &[put("k"), put("tail")])),
        ));
        record(next_fetch(&mut f, 40, "winner"));
        record(f.step(41, Input::LoggedIn(true)));
        record(f.step(42, Input::Chunk(2, served(2, 0, 0, &[put("k")]))));
        assert!(
            store.contains("tail"),
            "the resync deleted the tail after all"
        );
    }
}
