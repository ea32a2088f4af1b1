//! The follower side of WAL-shipping replication (DESIGN.md §11, §14).
//!
//! The policy is the [`Follower`] step machine — no clock, socket or
//! thread in it; the [`Replicator`] thread is its driver. The machine asks
//! for the leader's log at an `(epoch, offset)` cursor and adopts the
//! cursor each chunk is served at; the driver applies the operations
//! through the ordinary `put`/`delete` path, so the epoch-invalidated
//! caches see replicated state as local writes. After every chunk, empty
//! or not, the machine fetches again at once: the leader holds a caught-up
//! fetch until its log moves (or for
//! `clarens::services::replication::FETCH_HOLD`), so a write reaches a
//! follower in one round trip and no follower polls. An undecodable chunk
//! backs off like a fetch error, a chunk from an older leader epoch is
//! dropped. A stream read anew (a new leader, or one the leader restarts)
//! installs the leader's state: once the cursor reaches the first chunk's
//! `len`, every logged key it did not write goes (DESIGN.md §11).

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use clarens::client::{Backoff, ClarensClient, ClientError};
use clarens::core::ClarensCore;
use clarens::federation::{Cursor, FederationRole, Position};
use clarens_db::{decode_stream, is_node_local, LogOp};
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
    /// An install is complete: delete every logged key but these, the
    /// `(bucket, key)`s it wrote.
    Prune(BTreeSet<(String, String)>),
    /// Adopt this epoch, and this leader unless it is empty.
    Adopt(String, u64),
    /// The lag behind the leader's log, in bytes.
    Lag(u64),
    /// The node now holds this position (see [`Follower`]).
    Reached(Position),
    /// A login or fetch failed (`replication_fetch_errors`).
    FetchError,
    /// A deposed leader's chunk was dropped (`fenced_writes`).
    Fenced,
    /// Tick again at this time.
    Wake(u64),
}

/// The follower policy of one node (see the module docs). Its position
/// follows the stream once the stream has carried its leader's own fence,
/// which a compacted log holds after the state it seals.
pub struct Follower {
    backoff: Backoff,
    failures: u32,
    leader: String,
    logged_in: bool,
    cursor: Cursor,
    /// The newest leader epoch seen: older chunks are fenced.
    fence: u64,
    /// The newest fence the stream has carried since it was last read anew.
    stream_fence: u64,
    /// While the stream installs the leader's state (a node starts so):
    /// the `(bucket, key)`s it has put, and the first chunk's `len`.
    written: Option<BTreeSet<(String, String)>>,
    mark: Option<u64>,
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
            stream_fence: 0,
            written: Some(BTreeSet::new()),
            mark: None,
        }
    }

    /// Read the stream anew from `cursor`, installing what it serves.
    fn restart(&mut self, cursor: Cursor) {
        (self.cursor, self.stream_fence, self.mark) = (cursor, 0, None);
        self.written = Some(BTreeSet::new());
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
                (self.logged_in, self.leader, self.failures) = (false, leader, 0);
                self.restart((0, 0));
                vec![Effect::Login(self.leader.clone())]
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
        let served = (int("epoch"), int("offset"));
        let Some(ops) = decode_stream(&data) else {
            self.restart((served.0, 0));
            return self.fail(now);
        };
        // A stream served from elsewhere than asked restarted: install it.
        if served != self.cursor {
            self.restart(served);
        }
        (self.fence, self.failures) = (int("leader_epoch"), 0);
        self.cursor.1 += data.len() as u64;
        for op in &ops {
            if let (LogOp::Put { bucket, key, .. }, Some(written)) = (op, &mut self.written) {
                written.insert((bucket.clone(), key.clone()));
            } else if let LogOp::EpochFence { epoch } = op {
                self.stream_fence = self.stream_fence.max(*epoch);
            }
        }
        let mut effects = vec![Effect::Adopt(String::new(), self.fence)];
        if !ops.is_empty() {
            effects.push(Effect::Apply(ops));
        }
        let len = int("len");
        let mark = *self.mark.get_or_insert(len);
        if let Some(written) = self.written.take_if(|_| self.cursor.1 >= mark) {
            effects.push(Effect::Prune(written));
        }
        effects.push(Effect::Lag(len.saturating_sub(self.cursor.1)));
        // Past its leader's own fence, the cursor is a position in that
        // leader's epoch.
        if self.stream_fence == self.fence {
            effects.push(Effect::Reached((self.fence, self.cursor)));
        }
        // Fetch again at once: the leader holds the fetch until there is
        // more, and the fetch confirms what this chunk applied.
        effects.push(Effect::Wake(now));
        effects
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

/// A running replication follower loop: its count of operations applied,
/// and its thread.
pub struct Replicator(Arc<AtomicU64>, Worker);

impl Replicator {
    /// Start replicating into `core`'s store, authenticating as `admin`
    /// (replication is site-admin gated: the WAL carries session
    /// secrets). `leader` seeds the leader address; thereafter the loop
    /// follows `core.federation` — pass an empty string to wait for the
    /// election to name one. A caught-up follower's fetch waits on the
    /// leader, which answers it when its log moves. The thread is named
    /// after the `host:port` of `core`'s own url.
    pub fn start(core: Arc<ClarensCore>, leader: String, admin: Credential) -> Replicator {
        let url = &core.config.server_url;
        let name = format!("replicator-{}", url.split('/').nth(2).unwrap_or(url));
        let applied = Arc::new(AtomicU64::new(0));
        let tally = Arc::clone(&applied);
        let machine = Follower::new(&leader);
        let body = move |stop: &AtomicBool| run(&core, machine, &admin, stop, &tally);
        Replicator(applied, Worker::spawn(name, body))
    }

    /// Operations applied so far.
    pub fn applied(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
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
    applied: &AtomicU64,
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
                effect => apply(core, effect, applied),
            }
        }
    }
}

/// The one applier of each state-changing effect.
fn apply(core: &ClarensCore, effect: Effect, applied: &AtomicU64) {
    let (fed, telemetry) = (&core.federation, &core.telemetry.federation);
    match effect {
        Effect::Apply(ops) => {
            for op in ops {
                let result = match op {
                    LogOp::Put { bucket, key, value } => core.store.put(&bucket, &key, value),
                    LogOp::Delete { bucket, key } => core.store.delete(&bucket, &key).map(drop),
                    // Persisted: a later promotion of this node continues the
                    // epoch sequence.
                    LogOp::EpochFence { epoch } => {
                        fed.observe_epoch(epoch);
                        core.store.append_fence(epoch)
                    }
                };
                applied.fetch_add(result.is_ok() as u64, Ordering::Relaxed);
            }
        }
        Effect::Adopt(leader, epoch) => {
            fed.observe_epoch(epoch);
            if !leader.is_empty() {
                fed.set_leader(&leader);
            }
        }
        Effect::Prune(written) => {
            for bucket in core
                .store
                .bucket_names()
                .into_iter()
                .filter(|b| !is_node_local(b))
            {
                for key in core.store.keys(&bucket) {
                    if !written.contains(&(bucket.clone(), key.clone())) {
                        let _ = core.store.delete(&bucket, &key);
                    }
                }
            }
        }
        Effect::Reached(position) => fed.set_applied(position),
        Effect::Lag(lag) => core.replication_lag.store(lag, Ordering::Relaxed),
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

    /// `chunk` as if cut when the leader's log was `len` bytes long.
    fn cut_at(mut chunk: Value, len: u64) -> Value {
        if let Value::Struct(fields) = &mut chunk {
            fields.insert("len".into(), Value::Int(len as i64));
        }
        chunk
    }

    /// A follower of `leader`, logged in and about to fetch at `(0, 0)`.
    fn following(leader: &str) -> Follower {
        let mut f = Follower::new("");
        let tick = f.step(0, Input::Tick(FOLLOWER, leader.into()));
        assert_eq!(tick, [Effect::Login(leader.into())]);
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
        assert_eq!(tick, [Effect::Login("new".into())]);
    }

    /// A re-point restarts the cursor and reports no progress: the node
    /// holds what it held until the new leader's stream moves it.
    #[test]
    fn a_repoint_restarts_the_cursor_and_keeps_the_position() {
        let mut f = following("A");
        let ops = [LogOp::EpochFence { epoch: 1 }, put("a")];
        let effects = f.step(10, Input::Chunk(1, served(1, 5, 0, &ops)));
        assert_eq!(reached(effects), Some((1, (5, offset(&ops)))));
        let tick = next_fetch(&mut f, 40, "B");
        assert_eq!(tick, [Effect::Login("B".into())]);
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

    /// The position a step's effects report the stream reached, if any.
    fn reached(effects: Vec<Effect>) -> Option<Position> {
        effects.into_iter().find_map(|effect| match effect {
            Effect::Reached(position) => Some(position),
            _ => None,
        })
    }

    /// The length of `ops` framed.
    fn offset(ops: &[LogOp]) -> u64 {
        ops.iter().map(|op| encode_record(op).len() as u64).sum()
    }

    /// A stream's cursor is a position once the stream has carried its
    /// leader's own fence; an older fence from the leader's history is not
    /// that fence.
    #[test]
    fn the_position_starts_at_the_leaders_own_fence() {
        let mut f = following("L");
        let history = [LogOp::EpochFence { epoch: 2 }, put("a")];
        let effects = f.step(10, Input::Chunk(3, served(3, 0, 0, &history)));
        assert_eq!(reached(effects), None);
        let own = [LogOp::EpochFence { epoch: 3 }];
        let next = served(3, 0, offset(&history), &own);
        let end = offset(&history) + offset(&own);
        assert_eq!(
            reached(f.step(20, Input::Chunk(3, next))),
            Some((3, (0, end)))
        );
    }

    /// A compaction restarts the stream at the snapshot, whose fence comes
    /// after the state it seals: the position holds until the stream has
    /// carried the whole snapshot.
    #[test]
    fn a_compaction_holds_the_position_until_the_snapshot_is_whole() {
        let mut f = following("L");
        let log = [LogOp::EpochFence { epoch: 1 }, put("a")];
        let effects = f.step(10, Input::Chunk(1, served(1, 0, 0, &log)));
        assert_eq!(reached(effects), Some((1, (0, offset(&log)))));
        next_fetch(&mut f, 20, "L");
        let snapshot = [put("a"), put("b"), LogOp::EpochFence { epoch: 1 }];
        let (head, tail) = snapshot.split_at(2);
        let part = cut_at(served(1, 1, 0, head), offset(&snapshot));
        assert_eq!(reached(f.step(30, Input::Chunk(1, part))), None);
        let rest = served(1, 1, offset(head), tail);
        let effects = f.step(40, Input::Chunk(1, rest));
        assert_eq!(reached(effects), Some((1, (1, offset(&snapshot)))));
    }

    /// A re-point to a leader that has compacted reads its snapshot from
    /// its current WAL epoch: the position moves to the new leader's epoch
    /// at the chunk that carries its fence, before the install completes.
    #[test]
    fn a_repoint_to_a_compacted_leader_moves_the_position_at_its_fence() {
        let mut f = following("A");
        let log = [LogOp::EpochFence { epoch: 1 }, put("a")];
        let effects = f.step(10, Input::Chunk(1, served(1, 0, 0, &log)));
        assert_eq!(reached(effects), Some((1, (0, offset(&log)))));
        assert_eq!(next_fetch(&mut f, 20, "B"), [Effect::Login("B".into())]);
        assert_eq!(f.step(21, Input::LoggedIn(true)), [Effect::Fetch(0, 0)]);
        // B's WAL epoch is 3; its log is the snapshot, then a write the
        // first chunk was cut after.
        let snapshot = [put("a"), put("b"), LogOp::EpochFence { epoch: 2 }];
        let whole = offset(&snapshot) + offset(&[put("c")]);
        let (head, fence) = snapshot.split_at(2);
        let first = cut_at(served(2, 3, 0, head), whole);
        assert_eq!(reached(f.step(30, Input::Chunk(2, first))), None);
        let second = cut_at(served(2, 3, offset(head), fence), whole);
        let effects = f.step(40, Input::Chunk(2, second));
        assert!(!effects.iter().any(|e| matches!(e, Effect::Prune(_))));
        assert_eq!(reached(effects), Some((2, (3, offset(&snapshot)))));
    }

    /// Applies the effects' operations and prunes to a model store of
    /// keys (one bucket), as the driver applies them to the real one.
    fn record(store: &mut BTreeSet<String>, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Apply(ops) => ops.into_iter().for_each(|op| match op {
                    LogOp::Put { key, .. } => drop(store.insert(key)),
                    LogOp::Delete { key, .. } => drop(store.remove(&key)),
                    LogOp::EpochFence { .. } => {}
                }),
                Effect::Prune(written) => {
                    store.retain(|key| written.contains(&("b".to_owned(), key.clone())));
                }
                _ => {}
            }
        }
    }

    /// A leader's method table and stage requests never enter its log, so
    /// its follower receives only the shared state.
    #[test]
    fn a_leaders_node_local_buckets_never_reach_its_follower() {
        use clarens::registry::METHODS_BUCKET;
        use clarens::services::srm::SRM_BUCKET;
        let path = std::env::temp_dir().join(format!("clarens-repl-local-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let leader = clarens_db::Store::open(&path).unwrap();
        for bucket in [SRM_BUCKET, METHODS_BUCKET, "b"] {
            leader.put(bucket, "k", b"leader".to_vec()).unwrap();
        }
        let chunk = leader.wal_read(0, 0, 1 << 20).unwrap();
        let ops = decode_stream(&chunk.data).unwrap();
        let mut f = following("L");
        let mut store = BTreeSet::new();
        record(
            &mut store,
            f.step(10, Input::Chunk(1, served(1, 0, 0, &ops))),
        );
        let shared = LogOp::Put {
            bucket: "b".into(),
            key: "k".into(),
            value: b"leader".to_vec(),
        };
        assert_eq!(ops, [shared]);
        assert_eq!(store, BTreeSet::from(["k".to_owned()]));
        drop(leader);
        let _ = std::fs::remove_file(&path);
    }

    /// A resync installs: a key a deposed leader's tail left on this
    /// follower, which the new leader's log never had, is gone once the
    /// follower's cursor reaches the new leader's length at the first
    /// chunk, and not before.
    #[test]
    fn a_deposed_leaders_tail_is_gone_once_the_install_completes() {
        let mut store = BTreeSet::new();
        let mut f = following("deposed");
        let ops = [put("k"), put("tail")];
        record(
            &mut store,
            f.step(10, Input::Chunk(1, served(1, 0, 0, &ops))),
        );
        record(&mut store, next_fetch(&mut f, 40, "winner"));
        record(&mut store, f.step(41, Input::LoggedIn(true)));
        // The winner's log holds `k` and then `j`; the first chunk carries
        // `k` alone, cut when the log was both records long.
        let k = encode_record(&put("k")).len() as u64;
        let whole = k + encode_record(&put("j")).len() as u64;
        let first = cut_at(served(2, 0, 0, &[put("k")]), whole);
        let effects = f.step(42, Input::Chunk(2, first));
        assert!(effects.contains(&Effect::Lag(whole - k)));
        record(&mut store, effects);
        assert!(store.contains("tail"), "pruned before the mark");
        let rest = served(2, 0, k, &[put("j")]);
        record(&mut store, f.step(43, Input::Chunk(2, rest)));
        let held: Vec<_> = store.iter().map(String::as_str).collect();
        assert_eq!(held, ["j", "k"]);
    }
}
