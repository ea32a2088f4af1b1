//! Multi-node federation: N Clarens servers as one logical deployment.
//!
//! The paper's grid picture (§1-2) is many Clarens servers at many sites,
//! tied together by the discovery network: "service calls that are
//! location independent". This crate supplies the three pieces that turn
//! independently-started servers into a federation:
//!
//! * **Discovery-aware load balancing** — [`BalancedClient`] resolves a
//!   method to live endpoints through the station network, steers by the
//!   published load/latency attributes (power-of-two-choices on `p95_us`),
//!   and re-resolves with endpoint blacklisting when a node dies mid-call.
//! * **Proxy routing** — every node exports `proxy.call` (see the core
//!   `proxy` service): a request for a method the node does not export is
//!   forwarded one hop to the discovery-resolved owner, with an
//!   `x-clarens-hops` header bounding pathological bouncing.
//! * **WAL-shipping replication** — [`Replicator`] runs on follower nodes,
//!   reading the leader's `replication.fetch` cursor stream and applying
//!   the decoded operations to the local store, so VO membership, ACLs,
//!   sessions, and stored proxies converge and *any* node can authenticate
//!   any user.
//! * **Leader failover** — [`ElectionManager`] runs lease-based elections
//!   over the discovery network: the leader renews an epoch-stamped lease
//!   on every election tick, a lapsed lease promotes the most-caught-up
//!   follower under epoch N+1, and the dispatch-layer fence plus epoch
//!   checks everywhere keep a deposed leader from acknowledging (or
//!   shipping) writes the cluster will never see (DESIGN.md §14). The
//!   same tick advertises the node's modules, with their live load
//!   attributes, to the station network.
//!
//! [`FederationCluster`] assembles an in-process federation (shared PKI,
//! one station network, one leader + N-1 followers) for the integration
//! tests and the `repro federation` benchmark.

#![forbid(unsafe_code)]

pub mod balance;
pub mod cluster;
pub mod election;
pub mod pki;
pub mod replicator;

pub use balance::BalancedClient;
pub use cluster::{FederationCluster, FederationNode, NodeOptions};
pub use election::ElectionManager;
pub use pki::{federation_pki, FederationPki};
pub use replicator::Replicator;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A named background thread, told to stop and joined when dropped.
struct Worker(Arc<AtomicBool>, Option<std::thread::JoinHandle<()>>);

impl Worker {
    /// Run `body` on a new thread until the flag it is handed is set.
    fn spawn(name: String, body: impl FnOnce(&AtomicBool) + Send + 'static) -> Worker {
        let stop = Arc::new(AtomicBool::new(false));
        let halt = Arc::clone(&stop);
        let thread = std::thread::Builder::new().name(name);
        let thread = thread.spawn(move || body(&halt));
        Worker(stop, Some(thread.expect("spawn thread")))
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
        let _ = self.1.take().map(std::thread::JoinHandle::join);
    }
}
