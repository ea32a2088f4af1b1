//! The follower side of WAL-shipping replication.
//!
//! A [`Replicator`] thread polls the leader's `replication.fetch` RPC with
//! an `(epoch, offset)` cursor and applies the decoded operations to the
//! local store through the ordinary `put`/`delete` path — so every applied
//! record bumps the target bucket's generation and the epoch-invalidated
//! caches (sessions, VO, ACL) see replicated state exactly as they see
//! local writes.
//!
//! Resync rules mirror the leader's `Store::wal_read` contract:
//! * the leader answers a stale or unknown cursor by restarting the
//!   stream at `(current_epoch, 0)` — the follower adopts whatever cursor
//!   the chunk actually carries;
//! * a chunk that fails `decode_stream` (torn frame, CRC mismatch —
//!   should be impossible given the leader trims to whole frames, but the
//!   network is the network) forces a restart from offset 0;
//! * `len` in every response is the leader's committed high-water mark;
//!   the published `db.replication_lag` gauge is `len - applied_offset`.
//!
//! Failover behaviour (DESIGN.md §14): the loop re-reads the believed
//! leader from [`clarens::FederationState`] every cycle. When the election manager
//! re-points it, the replicator reconnects and resyncs from `(0, 0)` —
//! the new leader's log is a different byte stream, and its compacted
//! form is a full-state snapshot, so replay from the top converges
//! (counted by `clarens_replication_resyncs_total` on the serving side).
//! While this node *is* the leader the loop idles; chunks stamped with a
//! `leader_epoch` older than the epoch this node has already observed
//! are dropped unapplied (a deposed leader's divergent tail must never
//! be merged). Fetch failures back off exponentially with jitter instead
//! of hot-retrying a dead address (`clarens_replication_fetch_errors_total`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use clarens::client::{Backoff, ClarensClient, ClientError};
use clarens::config::FederationRole;
use clarens::core::ClarensCore;
use clarens_db::{decode_stream, LogOp};
use clarens_pki::cert::Credential;
use clarens_wire::Value;

/// Fetch budget per poll (matches the leader-side `MAX_FETCH_BYTES` cap).
const FETCH_BYTES: i64 = 1 << 20;

/// Ceiling for the fetch-error backoff (the leader being down for a
/// while must not turn into a tight retry storm, but recovery after a
/// failover should still be prompt).
const BACKOFF_CAP: Duration = Duration::from_millis(1000);

/// A running replication follower loop.
pub struct Replicator {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    applied: Arc<AtomicU64>,
    chunks: Arc<AtomicU64>,
}

impl Replicator {
    /// Start replicating into `core`'s store, authenticating as `admin`
    /// (replication is site-admin gated: the WAL carries session
    /// secrets). `leader` seeds the leader address; thereafter the loop
    /// follows `core.federation` — pass an empty string to resolve purely
    /// dynamically (election-managed nodes). Polls every
    /// `core.config.replication_poll_ms` when idle.
    pub fn start(core: Arc<ClarensCore>, leader: String, admin: Credential) -> Replicator {
        let stop = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(AtomicU64::new(0));
        let chunks = Arc::new(AtomicU64::new(0));
        let thread = {
            let stop = Arc::clone(&stop);
            let applied = Arc::clone(&applied);
            let chunks = Arc::clone(&chunks);
            std::thread::Builder::new()
                .name(format!("replicator-{leader}"))
                .spawn(move || run(&core, leader, admin, &stop, &applied, &chunks))
                .expect("spawn replicator thread")
        };
        Replicator {
            stop,
            thread: Some(thread),
            applied,
            chunks,
        }
    }

    /// Operations applied so far.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// Non-empty chunks received so far.
    pub fn chunks(&self) -> u64 {
        self.chunks.load(Ordering::Relaxed)
    }

    /// Stop the loop and join the thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.halt();
    }
}

fn run(
    core: &Arc<ClarensCore>,
    initial_leader: String,
    admin: Credential,
    stop: &AtomicBool,
    applied: &AtomicU64,
    chunks: &AtomicU64,
) {
    let poll_ms = core.config.replication_poll_ms;
    let pause = Duration::from_millis(poll_ms.max(1));
    // Fetch and login failures pause on the shared jittered schedule,
    // from one poll interval up to the cap.
    let mut backoff = Backoff::new(pause, BACKOFF_CAP.max(pause), poll_ms ^ 0x5EED_F0110);
    let mut leader = initial_leader;
    if leader.is_empty() {
        leader = core.federation.leader();
    }
    let mut client = make_client(&leader, &admin);
    let mut logged_in = false;
    let mut epoch = 0u64;
    let mut offset = 0u64;
    let mut failures = 0u32;

    while !stop.load(Ordering::SeqCst) {
        // A leader does not replicate from anyone; idle until demoted.
        if core.federation.role() == FederationRole::Leader {
            std::thread::sleep(pause);
            continue;
        }
        // Follow the believed leader. A change (election, demotion, or a
        // NOT_LEADER hint adopted below) reconnects and resyncs from the
        // top: the new leader's log is a different byte stream.
        let current = core.federation.leader();
        if !current.is_empty() && current != leader {
            leader = current;
            client = make_client(&leader, &admin);
            logged_in = false;
            epoch = 0;
            offset = 0;
            failures = 0;
            core.federation.set_applied(0);
        }
        if leader.is_empty() {
            leader = core.federation.leader();
            std::thread::sleep(pause);
            continue;
        }
        if !logged_in {
            logged_in = client.login().is_ok();
            if !logged_in {
                // Leader not up yet (or mid-restart): back off, and
                // re-resolve the address in case leadership moved.
                core.telemetry.federation.replication_fetch_errors.inc();
                failures += 1;
                backoff.pause(failures, None);
                continue;
            }
        }
        let chunk = client.call(
            "replication.fetch",
            vec![
                Value::Int(epoch as i64),
                Value::Int(offset as i64),
                Value::Int(FETCH_BYTES),
            ],
        );
        let chunk = match chunk {
            Ok(value) => value,
            Err(ClientError::Fault(fault)) => {
                if let Some((hint, hint_epoch)) = fault.leader_hint() {
                    // The node we poll is not (or no longer) the leader.
                    // Adopt its hint so the next cycle re-points.
                    core.federation.observe_epoch(hint_epoch);
                    if !hint.is_empty() {
                        core.federation.set_leader(&hint);
                    }
                    std::thread::sleep(pause);
                    continue;
                }
                // Session expired, ACL change, degraded leader — re-login
                // and retry; a persistent fault just keeps the loop warm.
                logged_in = false;
                core.telemetry.federation.replication_fetch_errors.inc();
                failures += 1;
                backoff.pause(failures, None);
                continue;
            }
            Err(_) => {
                // Transport failure: the leader address is likely dead.
                // Jittered exponential backoff instead of a hot retry;
                // each cycle still re-reads the believed leader above, so
                // a failover re-points us without waiting out the cap.
                core.telemetry.federation.replication_fetch_errors.inc();
                failures += 1;
                backoff.pause(failures, None);
                continue;
            }
        };
        failures = 0;
        // Epoch fence: a chunk stamped by a leader older than one we have
        // already observed comes from a deposed node still serving its
        // divergent tail — never apply it.
        let leader_epoch = chunk
            .get("leader_epoch")
            .and_then(Value::as_int)
            .unwrap_or(0) as u64;
        if leader_epoch < core.federation.epoch() {
            core.telemetry.federation.fenced_writes.inc();
            std::thread::sleep(pause);
            continue;
        }
        core.federation.observe_epoch(leader_epoch);
        let served_epoch = chunk.get("epoch").and_then(Value::as_int).unwrap_or(0) as u64;
        let served_offset = chunk.get("offset").and_then(Value::as_int).unwrap_or(0) as u64;
        let committed = chunk.get("len").and_then(Value::as_int).unwrap_or(0) as u64;
        let data = chunk
            .get("data")
            .and_then(Value::coerce_bytes)
            .unwrap_or_default();
        if served_epoch != epoch || served_offset != offset {
            // The leader restarted the stream (compaction bumped the
            // epoch, or our cursor outran a rewritten log). The compacted
            // log is a full-state snapshot, so replaying it from 0
            // converges — adopt the served cursor.
            epoch = served_epoch;
            offset = served_offset;
        }
        if data.is_empty() {
            core.replication_lag
                .store(committed.saturating_sub(offset), Ordering::Relaxed);
            core.federation.set_applied(offset);
            std::thread::sleep(pause);
            continue;
        }
        let Some(ops) = decode_stream(&data) else {
            // Torn or corrupt run: restart the stream from the top.
            offset = 0;
            continue;
        };
        chunks.fetch_add(1, Ordering::Relaxed);
        for op in &ops {
            let result = match op {
                LogOp::Put { bucket, key, value } => {
                    core.store.put(bucket, key, value.clone()).map(|_| ())
                }
                LogOp::Delete { bucket, key } => core.store.delete(bucket, key).map(|_| ()),
                LogOp::EpochFence { epoch } => {
                    // The leader's in-band fence record: persist it so a
                    // later promotion of *this* node continues the epoch
                    // sequence, and adopt the epoch for fencing.
                    core.federation.observe_epoch(*epoch);
                    core.store.append_fence(*epoch)
                }
            };
            if result.is_ok() {
                applied.fetch_add(1, Ordering::Relaxed);
            }
        }
        offset = served_offset + data.len() as u64;
        core.replication_lag
            .store(committed.saturating_sub(offset), Ordering::Relaxed);
        core.federation.set_applied(offset);
        // More may be waiting: loop immediately while we are behind.
        if committed <= offset {
            std::thread::sleep(pause);
        }
    }
}

fn make_client(leader: &str, admin: &Credential) -> ClarensClient {
    ClarensClient::new(leader)
        .with_credential(admin.clone())
        .with_retries(1)
        .with_call_deadline(Duration::from_secs(5))
}
