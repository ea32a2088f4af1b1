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
//!   polling the leader's `replication.fetch` cursor stream and applying
//!   the decoded operations to the local store, so VO membership, ACLs,
//!   sessions, and stored proxies converge and *any* node can authenticate
//!   any user.
//! * **Leader failover** — [`ElectionManager`] runs lease-based elections
//!   over the discovery network: the leader renews an epoch-stamped lease
//!   with every heartbeat, a lapsed lease promotes the most-caught-up
//!   follower under epoch N+1, and the dispatch-layer fence plus epoch
//!   checks everywhere keep a deposed leader from acknowledging (or
//!   shipping) writes the cluster will never see (DESIGN.md §14).
//!
//! [`FederationCluster`] assembles an in-process federation (shared PKI,
//! one station network, one leader + N-1 followers) for the integration
//! tests and the `repro federation` benchmark.

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
