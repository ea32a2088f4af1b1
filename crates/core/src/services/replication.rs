//! The replication service: WAL shipping over the ordinary RPC plane.
//!
//! A federation leader exports its write-ahead log as a cursor-addressed
//! byte stream. Followers call `replication.fetch(epoch, offset, max)`
//! back to back (a caught-up fetch is held until a commit — the store
//! announces each one — moves the log past its cursor, the node stops
//! leading, or `FETCH_HOLD` passes, and then answered with what is there)
//! and apply the decoded operations to their own store, so VO membership,
//! ACLs, sessions, and stored proxies converge across the grid — any node
//! can then authenticate any user (paper §2.1's "session state" made
//! location independent).
//!
//! Protocol invariants (enforced by `Store::wal_read`):
//! - only whole, CRC-valid frames are ever shipped;
//! - a chunk is empty only when the cursor is caught up (a record longer
//!   than the byte budget ships whole, on its own);
//! - the epoch bumps when compaction rewrites the log, and a stale cursor
//!   restarts from offset 0 (the compacted log doubles as a full-state
//!   snapshot, so replay converges);
//! - `len` in every response is the leader's committed high-water mark,
//!   letting the follower compute its lag without a second round trip.
//!
//! The WAL carries session secrets and sealed proxies, so both methods are
//! `admin` rows — the follower authenticates with the federation's shared
//! admin credential.

use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens_wire::{Fault, Value};

use crate::core::ClarensCore;
use crate::federation::FederationRole;
use crate::registry::param::int;
use crate::registry::{Args, CallContext, Hold, Method, Service};

/// Byte budget of a single fetch (1 MiB) — bounds response allocation
/// regardless of what the follower asks for. One record longer than the
/// budget still ships, whole and alone, so a follower always advances.
pub const MAX_FETCH_BYTES: i64 = 1 << 20;

/// How long a caught-up fetch is held for the log to move: well inside the
/// 2 s in which the ack barrier counts a follower as fetching, and the
/// replicator's 5 s call deadline. An idle follower fetches this often.
pub const FETCH_HOLD: Duration = Duration::from_millis(250);

/// The `replication` service (registered on federation leaders).
pub struct ReplicationService;

impl Service for ReplicationService {
    const METHODS: &'static [Method<Self>] = &[
        Method::new(
            "replication.fetch",
            "Read framed WAL bytes from the given cursor (site admin)",
            &[int("epoch"), int("offset"), int("max_bytes")],
            Self::fetch,
        )
        .admin()
        .idempotent(),
        Method::new(
            "replication.status",
            "Leader WAL epoch and committed length (site admin)",
            &[],
            |_, ctx, _| {
                let (store, fed) = (&ctx.core.store, &ctx.core.federation);
                let role = match fed.role() {
                    FederationRole::Leader => "Leader",
                    FederationRole::Follower => "Follower",
                    FederationRole::Standalone => "Standalone",
                };
                Ok(Value::structure([
                    ("epoch", Value::Int(store.wal_epoch() as i64)),
                    ("len", Value::Int(store.wal_offset() as i64)),
                    ("leader_epoch", Value::Int(fed.epoch() as i64)),
                    ("role", Value::from(role)),
                ]))
            },
        )
        .admin()
        .idempotent(),
    ];
}

impl ReplicationService {
    fn fetch(&self, ctx: &CallContext<'_>, args: &Args<'_>) -> Result<Value, Fault> {
        let cursor = (args.int(0)?, args.int(1)?, args.int(2)?);
        let (value, caught_up) = serve(ctx.core, cursor)?;
        let served = |core: &ClarensCore| core.telemetry.federation.replication_chunks.inc();
        if !caught_up {
            served(ctx.core);
            return Ok(value);
        }
        // Nothing to ship: held until the log moves past the cursor or this
        // node stops leading, then answered with what is there.
        let (core, waiting) = (Arc::clone(ctx.core), Arc::clone(ctx.core));
        let at = (cursor.0 as u64, cursor.1 as u64);
        ctx.hold.set(Some(Hold {
            deadline: Instant::now() + FETCH_HOLD,
            ready: Box::new(move |waker| {
                let fed = &waiting.federation;
                fed.role() != FederationRole::Leader || fed.committed.check(waker, |c| c > at)
            }),
            answer: Box::new(move |_| {
                served(&core);
                serve(&core, cursor).map(|(value, _)| value)
            }),
        }));
        Ok(value)
    }
}

/// The chunk at `(epoch, offset, max_bytes)`, and whether it is empty and
/// served at that cursor: the follower is caught up.
fn serve(
    core: &ClarensCore,
    (epoch, offset, max_bytes): (i64, i64, i64),
) -> Result<(Value, bool), Fault> {
    let (store, fed) = (&core.store, &core.federation);
    // Epoch fence: only the current leader may serve the log. A deposed
    // leader answering fetches would feed followers a byte stream that
    // diverges from the new leader's — refuse with a hint so the
    // replicator re-points itself.
    if fed.is_federated() && fed.role() != FederationRole::Leader {
        return Err(Fault::not_leader(&fed.leader(), fed.epoch()));
    }
    if epoch < 0 || offset < 0 || max_bytes < 0 {
        return Err(Fault::bad_params("cursor fields must be non-negative"));
    }
    let budget = max_bytes.min(MAX_FETCH_BYTES) as usize;
    let chunk = store
        .wal_read(epoch as u64, offset as u64, budget)
        .map_err(|e| Fault::service(format!("wal read: {e}")))?;
    let honored = chunk.epoch == epoch as u64 && chunk.offset == offset as u64;
    if !honored {
        // The served cursor differs from the requested one: the log was
        // rewritten (or the offset overran the committed length) and the
        // follower is being restarted from the current snapshot.
        core.telemetry.federation.replication_resyncs.inc();
    } else {
        // A fetch at a cursor the log *honored* proves the follower
        // applied every record of that epoch below it — feed the
        // replicated-ack barrier. Recorded only after `wal_read` validated
        // the cursor, and clamped to the committed length: a
        // client-supplied offset beyond it must never raise the barrier
        // past bytes a follower actually holds (that would let the leader
        // ack writes nobody replicated).
        fed.observe_follower_fetch((epoch as u64, (offset as u64).min(store.wal_offset())));
    }
    let caught_up = honored && chunk.data.is_empty();
    let value = Value::structure([
        ("epoch", Value::Int(chunk.epoch as i64)),
        ("offset", Value::Int(chunk.offset as i64)),
        ("data", Value::Bytes(chunk.data)),
        ("len", Value::Int(chunk.len as i64)),
        // The leader (fence) epoch, distinct from the WAL compaction epoch
        // above: followers reject chunks from a leader whose epoch is
        // older than one they've seen.
        ("leader_epoch", Value::Int(fed.epoch() as i64)),
    ]);
    Ok((value, caught_up))
}
