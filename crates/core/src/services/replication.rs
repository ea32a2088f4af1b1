//! The replication service: WAL shipping over the ordinary RPC plane.
//!
//! A federation leader exports its write-ahead log as a cursor-addressed
//! byte stream. Followers poll `replication.fetch(epoch, offset, max)` and
//! apply the decoded operations to their own store, so VO membership,
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
//! gated on site admin — the follower authenticates with the federation's
//! shared admin credential.

use clarens_wire::{Fault, Value};

use crate::registry::{params, unhandled, CallContext, MethodInfo, Service};

/// Byte budget of a single fetch (1 MiB) — bounds response allocation
/// regardless of what the follower asks for. One record longer than the
/// budget still ships, whole and alone, so a follower always advances.
pub const MAX_FETCH_BYTES: i64 = 1 << 20;

/// The `replication` service (registered on federation leaders).
pub struct ReplicationService;

fn require_site_admin(ctx: &CallContext<'_>) -> Result<(), Fault> {
    let dn = ctx.require_identity()?;
    if !ctx.core.vo.is_site_admin(dn) {
        return Err(Fault::access_denied(
            "replication streams the raw WAL (session secrets); site admin required",
        ));
    }
    Ok(())
}

/// The `replication` methods.
pub static METHODS: &[MethodInfo] = &[
    MethodInfo::new(
        "replication.fetch",
        "replication.fetch(epoch, offset, max_bytes)",
        "Read framed WAL bytes from the given cursor (site admin)",
        3,
    )
    .idempotent(),
    MethodInfo::new(
        "replication.status",
        "replication.status()",
        "Leader WAL epoch and committed length (site admin)",
        0,
    )
    .idempotent(),
];

impl Service for ReplicationService {
    fn methods(&self) -> &'static [MethodInfo] {
        METHODS
    }

    fn call(
        &self,
        ctx: &CallContext<'_>,
        method: &str,
        params_in: &[Value],
    ) -> Result<Value, Fault> {
        match method {
            "replication.fetch" => {
                require_site_admin(ctx)?;
                // Epoch fence: only the current leader may serve the log.
                // A deposed leader answering fetches would feed followers
                // a byte stream that diverges from the new leader's —
                // refuse with a hint so the replicator re-points itself.
                if ctx.core.federation.is_federated()
                    && ctx.core.federation.role() != crate::config::FederationRole::Leader
                {
                    return Err(Fault::not_leader(
                        &ctx.core.federation.leader(),
                        ctx.core.federation.epoch(),
                    ));
                }
                let epoch = params::int(params_in, 0, "epoch")?;
                let offset = params::int(params_in, 1, "offset")?;
                let max_bytes = params::int(params_in, 2, "max_bytes")?;
                if epoch < 0 || offset < 0 || max_bytes < 0 {
                    return Err(Fault::bad_params("cursor fields must be non-negative"));
                }
                let chunk = ctx
                    .core
                    .store
                    .wal_read(
                        epoch as u64,
                        offset as u64,
                        max_bytes.min(MAX_FETCH_BYTES) as usize,
                    )
                    .map_err(|e| Fault::service(format!("wal read: {e}")))?;
                ctx.core.telemetry.federation.replication_chunks.inc();
                if chunk.epoch != epoch as u64 || chunk.offset != offset as u64 {
                    // The served cursor differs from the requested one:
                    // the log was rewritten (or the offset overran the
                    // committed length) and the follower is being
                    // restarted from the current snapshot.
                    ctx.core.telemetry.federation.replication_resyncs.inc();
                } else {
                    // A fetch at a cursor the log *honored* proves the
                    // follower applied every record below it — feed the
                    // replicated-ack barrier. Recorded only after
                    // `wal_read` validated the cursor, and clamped to the
                    // committed length: a client-supplied offset beyond
                    // it must never raise the barrier past bytes a
                    // follower actually holds (that would let the leader
                    // ack writes nobody replicated).
                    ctx.core
                        .federation
                        .observe_follower_fetch((offset as u64).min(ctx.core.store.wal_offset()));
                }
                Ok(Value::structure([
                    ("epoch", Value::Int(chunk.epoch as i64)),
                    ("offset", Value::Int(chunk.offset as i64)),
                    ("data", Value::Bytes(chunk.data)),
                    ("len", Value::Int(chunk.len as i64)),
                    // The leader (fence) epoch, distinct from the WAL
                    // compaction epoch above: followers reject chunks from
                    // a leader whose epoch is older than one they've seen.
                    (
                        "leader_epoch",
                        Value::Int(ctx.core.federation.epoch() as i64),
                    ),
                ]))
            }
            "replication.status" => {
                require_site_admin(ctx)?;
                Ok(Value::structure([
                    ("epoch", Value::Int(ctx.core.store.wal_epoch() as i64)),
                    ("len", Value::Int(ctx.core.store.wal_offset() as i64)),
                    (
                        "leader_epoch",
                        Value::Int(ctx.core.federation.epoch() as i64),
                    ),
                    (
                        "role",
                        Value::from(match ctx.core.federation.role() {
                            crate::config::FederationRole::Leader => "Leader",
                            crate::config::FederationRole::Follower => "Follower",
                            crate::config::FederationRole::Standalone => "Standalone",
                        }),
                    ),
                ]))
            }
            other => Err(unhandled(other)),
        }
    }
}
