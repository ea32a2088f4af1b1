//! Shared leader-failover state (DESIGN.md §14).
//!
//! One [`FederationState`] lives inside each [`crate::ClarensCore`]. It is
//! the single source of truth for the node's current replication role, the
//! leader epoch it believes in, the address of the node it believes holds
//! the lease, and the lease expiry a leader writes under (split-brain
//! self-fencing). The dispatcher reads it on every replicated write (fence
//! check + replicated-ack barrier), the election manager in
//! `clarens-federation` writes it, and `system.health` / `GET /healthz`
//! report it.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens_httpd::Watermark;
use parking_lot::Mutex;

/// A position in the WAL: `(epoch, offset)`. A compaction starts a new
/// epoch, whose offsets restart at 0.
pub type Cursor = (u64, u64);

/// The position of the data a node holds (DESIGN.md §14): the epoch of
/// the newest leader fence it applied, and how far into the log of that
/// epoch's leader it holds. Ordered as a tuple, it is Raft's up-to-date
/// rule: the node that ranks higher holds every write the other holds.
pub type Position = (u64, Cursor);

/// Does a follower at `cursor` hold everything below `target`? Only within
/// one WAL epoch: a cursor from another epoch confirms nothing.
pub fn confirms(cursor: Cursor, target: Cursor) -> bool {
    cursor.0 == target.0 && cursor.1 >= target.1
}

/// Role a server plays (DESIGN.md §11). A node with `leader_lease_ms: 0`
/// is `Standalone` for life; any other starts as a `Follower`, and its
/// election manager moves it between `Follower` and `Leader`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FederationRole {
    /// Not federated: no replication in either direction (default).
    #[default]
    Standalone,
    /// Serves its WAL to followers via `replication.fetch`.
    Leader,
    /// Ships the leader's WAL into its own store continuously.
    Follower,
}

/// Mutable, atomically-readable failover state.
pub struct FederationState {
    /// Current role, stored as `FederationRole as u8`.
    role: AtomicU8,
    /// Leader epoch this node currently believes in. 0 until the first
    /// election anywhere in the cluster.
    epoch: AtomicU64,
    /// `host:port` of the believed leader (empty when unknown, e.g. a
    /// standalone node or a follower mid-election).
    leader: Mutex<String>,
    /// Lease expiry, as milliseconds since `origin`: a leader is writable
    /// only before it. 0 (expired) until the first renewal, and again
    /// after every role change.
    lease_until_ms: AtomicU64,
    /// Millisecond timebase for `lease_until_ms`.
    origin: Instant,
    /// Highest WAL position any follower has confirmed by fetching: a
    /// fetch at `(epoch, X)` proves the follower applied every record of
    /// that epoch below X. Held replicated writes wait on it.
    pub follower_cursor: Watermark<Cursor>,
    /// The WAL position of the last committed append: raised by the
    /// store itself on every commit ([`clarens_db::Store::on_commit`]),
    /// so every write a follower must see wakes the held fetches.
    pub committed: Arc<Watermark<Cursor>>,
    /// When the last follower fetch arrived (ms since `origin`); the ack
    /// barrier only engages while followers are actually polling.
    follower_seen_ms: AtomicU64,
    /// Off the lead: the position of the data this node holds, kept by
    /// the replicator and set by a demotion. A leader's own is its log's
    /// end ([`crate::core::ClarensCore::position`]).
    applied: Mutex<Position>,
}

impl FederationState {
    /// A node in `role`, with no leader known and no lease.
    pub fn new(role: FederationRole) -> FederationState {
        FederationState {
            role: AtomicU8::new(role as u8),
            epoch: AtomicU64::new(0),
            leader: Mutex::new(String::new()),
            lease_until_ms: AtomicU64::new(0),
            origin: Instant::now(),
            follower_cursor: Watermark::new((0, 0)),
            committed: Arc::new(Watermark::new((0, 0))),
            follower_seen_ms: AtomicU64::new(0),
            applied: Mutex::new((0, (0, 0))),
        }
    }

    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }

    /// The node's current role.
    pub fn role(&self) -> FederationRole {
        match self.role.load(Ordering::SeqCst) {
            x if x == FederationRole::Leader as u8 => FederationRole::Leader,
            x if x == FederationRole::Follower as u8 => FederationRole::Follower,
            _ => FederationRole::Standalone,
        }
    }

    /// Change role (promotion / demotion). A lease ends with the role it
    /// was renewed under: a new leader is writable only once it renews.
    /// Every held reply is woken to answer under the new role.
    pub fn set_role(&self, role: FederationRole) {
        self.lease_until_ms.store(0, Ordering::SeqCst);
        self.role.store(role as u8, Ordering::SeqCst);
        self.wake_held();
    }

    /// Wake the held writes and fetches: what they check besides their
    /// watermark changed.
    fn wake_held(&self) {
        self.follower_cursor.wake();
        self.committed.wake();
    }

    /// The leader epoch this node believes in.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Adopt a (higher) leader epoch; monotonic. A new epoch wakes every
    /// held reply.
    pub fn observe_epoch(&self, epoch: u64) {
        if self.epoch.fetch_max(epoch, Ordering::SeqCst) < epoch {
            self.wake_held();
        }
    }

    /// `host:port` of the believed leader ("" if unknown).
    pub fn leader(&self) -> String {
        self.leader.lock().clone()
    }

    /// Record the believed leader address.
    pub fn set_leader(&self, addr: &str) {
        *self.leader.lock() = addr.to_owned();
    }

    /// Is this node participating in a replicated cluster at all?
    pub fn is_federated(&self) -> bool {
        self.role() != FederationRole::Standalone
    }

    /// Renew this node's leader lease for `lease_ms` from now. Called by
    /// the election manager after each successful lease publication.
    pub fn renew_lease(&self, lease_ms: u64) {
        self.lease_until_ms
            .store(self.now_ms() + lease_ms, Ordering::SeqCst);
    }

    /// May this node acknowledge replicated writes right now? Only a
    /// leader inside a lease it has renewed: a partitioned leader that
    /// cannot renew stops acking before a rival can be elected
    /// (split-brain fence).
    pub fn is_writable(&self) -> bool {
        self.role() == FederationRole::Leader
            && self.now_ms() < self.lease_until_ms.load(Ordering::SeqCst)
    }

    /// Record a follower replication fetch at `cursor` (the position it
    /// has fully applied). Feeds the replicated-ack barrier.
    pub fn observe_follower_fetch(&self, cursor: Cursor) {
        self.follower_cursor.raise(cursor);
        // 0 means "never seen" — clamp so a fetch in the process's first
        // millisecond still registers.
        self.follower_seen_ms
            .store(self.now_ms().max(1), Ordering::SeqCst);
    }

    /// Reset the follower high-water mark (on promotion: the new leader's
    /// log is a different byte stream, so old cursors are meaningless).
    pub fn reset_follower_cursor(&self) {
        self.follower_cursor.reset((0, 0));
        self.follower_seen_ms.store(0, Ordering::SeqCst);
    }

    /// Record the position of the data this node holds.
    pub fn set_applied(&self, position: Position) {
        *self.applied.lock() = position;
    }

    /// The position of the data this node holds, as last recorded.
    pub fn applied(&self) -> Position {
        *self.applied.lock()
    }

    /// Has any follower fetched within `window`? The ack barrier degrades
    /// to leader-only durability when nobody is replicating (bootstrap,
    /// single-node rump) rather than stalling every write.
    pub fn follower_active_within(&self, window: Duration) -> bool {
        let seen = self.follower_seen_ms.load(Ordering::SeqCst);
        seen != 0 && self.now_ms().saturating_sub(seen) <= window.as_millis() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_leader_writes_only_inside_a_renewed_lease() {
        let state = FederationState::new(FederationRole::Leader);
        // The lease starts expired: not writable until the first renewal.
        assert!(!state.is_writable());
        assert_eq!(state.epoch(), 0);
        state.renew_lease(10_000);
        assert!(state.is_writable());
        state.renew_lease(0);
        assert!(!state.is_writable());
    }

    #[test]
    fn a_role_change_ends_the_lease() {
        let state = FederationState::new(FederationRole::Follower);
        state.set_leader("127.0.0.1:1");
        state.renew_lease(10_000);
        assert!(!state.is_writable());
        assert_eq!(state.leader(), "127.0.0.1:1");
        state.set_role(FederationRole::Leader);
        assert!(!state.is_writable());
        state.renew_lease(10_000);
        assert!(state.is_writable());
        state.set_role(FederationRole::Follower);
        state.set_role(FederationRole::Leader);
        assert!(!state.is_writable());
    }

    #[test]
    fn epoch_is_monotonic() {
        let state = FederationState::new(FederationRole::Follower);
        state.observe_epoch(5);
        state.observe_epoch(3);
        assert_eq!(state.epoch(), 5);
    }

    #[test]
    fn follower_cursor_tracks_max_and_recency() {
        let state = FederationState::new(FederationRole::Leader);
        assert!(!state.follower_active_within(Duration::from_secs(60)));
        state.observe_follower_fetch((0, 100));
        state.observe_follower_fetch((0, 40));
        assert_eq!(state.follower_cursor.get(), (0, 100));
        assert!(state.follower_active_within(Duration::from_secs(60)));
        // A later WAL epoch moves it on, and confirms only its own offsets.
        state.observe_follower_fetch((1, 10));
        assert_eq!(state.follower_cursor.get(), (1, 10));
        assert!(confirms((1, 10), (1, 10)));
        assert!(!confirms((1, 10), (0, 50)));
        assert!(!confirms((0, 100), (1, 10)));
        state.reset_follower_cursor();
        assert_eq!(state.follower_cursor.get(), (0, 0));
        assert!(!state.follower_active_within(Duration::from_secs(60)));
    }
}
