//! In-process federation harness: one station network and N lease-elected
//! nodes, node 0 named the first leader — the fixture behind the
//! integration tests and the `repro federation` / `repro failover` drills.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens::client::ClarensClient;
use clarens::config::ClarensConfig;
use clarens::core::ClarensCore;
use clarens::federation::FederationRole;
use clarens::server::{install_permissive_acls, register_builtin_services, ClarensServer};
use clarens::services::DiscoveryService;
use clarens::testkit::grid_pki;
use monalisa_sim::station::wait_until;
use monalisa_sim::{DiscoveryAggregator, ServiceQuery, StationServer, UdpPublisher};

use crate::balance::BalancedClient;
use crate::election::ElectionManager;
use crate::pki::federation_pki;
use crate::replicator::Replicator;

/// Descriptor TTL in each node's aggregated discovery view: a node whose
/// descriptors have not been renewed for this many seconds stops being
/// routable via `proxy.call` (balanced clients go through the stations
/// directly and handle death by blacklisting instead). A node renews them
/// every election tick (lease/4); under a lease above 1.5 s the TTL is two
/// leases instead, so it always spans eight ticks.
const AGGREGATOR_TTL_SECS: i64 = 3;

/// Options for one federation node.
pub struct NodeOptions {
    /// Node index (selects the per-node server credential/DN, and seeds
    /// the election's pre-claim pause).
    pub index: usize,
    /// `host:port` of the initial leader, or `None` to name this node the
    /// initial leader: it claims the first epoch once its election thread
    /// runs, and writes once that thread first renews its lease.
    pub leader: Option<String>,
    /// The node's store. Every node persists: any may be promoted, and a
    /// leader serves its own log to its followers.
    pub db_path: PathBuf,
    /// Serve the file module from this root (only nodes that set it
    /// export `file.*` — which is what makes `proxy.call` forwarding
    /// observable).
    pub file_root: Option<PathBuf>,
    /// HTTP worker threads.
    pub workers: usize,
    /// Leader-lease duration in ms; must be > 0.
    pub leader_lease_ms: u64,
}

/// One running federation node: server + discovery plumbing + the
/// replication loop + the election manager (which also advertises the
/// node's modules).
pub struct FederationNode {
    /// The running server (its core is reachable via `server.core`).
    pub server: ClarensServer,
    /// This node's advertised url (`http://host:port/clarens`).
    pub url: String,
    /// This node's `host:port`.
    pub addr: String,
    /// The node's aggregated discovery view (shared with its proxy router).
    pub aggregator: Arc<DiscoveryAggregator>,
    replicator: Replicator,
    election: ElectionManager,
}

/// Reserve a free localhost port: bind, read, release. The tiny window
/// between release and the server's own bind is why `start` tries up to
/// five ports.
fn reserve_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

impl FederationNode {
    /// Start a node against `stations`.
    pub fn start(
        options: NodeOptions,
        stations: Vec<Arc<StationServer>>,
    ) -> std::io::Result<FederationNode> {
        let pki = federation_pki();
        let mut tries = 0;
        let (server, addr, aggregator) = loop {
            // The server url must be final before services register (the
            // discovery descriptors and the proxy's own-url filter both
            // read it), so reserve a port first and bind to exactly it.
            let port = reserve_port()?;
            let addr = format!("127.0.0.1:{port}");
            let config = ClarensConfig {
                server_url: format!("http://{addr}/clarens"),
                admin_dns: vec![pki.admin.certificate.subject.to_string()],
                workers: options.workers,
                db_path: Some(options.db_path.clone()),
                file_root: options.file_root.clone(),
                leader_lease_ms: options.leader_lease_ms,
                ..Default::default()
            };
            let core = ClarensCore::new(
                config,
                vec![grid_pki().ca.certificate.clone()],
                pki.server_credential(options.index),
            )?;
            match &options.leader {
                None => core.federation.set_role(FederationRole::Leader),
                Some(leader) => core.federation.set_leader(leader),
            }
            let ttl = AGGREGATOR_TTL_SECS.max(options.leader_lease_ms.div_ceil(500) as i64);
            let aggregator = Arc::new(DiscoveryAggregator::new(stations.clone()).with_ttl(ttl));
            let publisher = UdpPublisher::new(stations.iter().map(|s| s.local_addr()).collect())?;
            let discovery = DiscoveryService::new(Arc::clone(&aggregator), Some(publisher));
            register_builtin_services(&core, Some(discovery));
            install_permissive_acls(&core);
            match ClarensServer::start(core, &addr, None) {
                Ok(server) => break (server, addr, aggregator),
                // Lost the port race: reserve a fresh one.
                Err(_) if tries < 4 => tries += 1,
                Err(e) => return Err(e),
            }
        };
        let url = server.core.config.server_url.clone();
        // Every node runs the replication loop: it idles while the node
        // leads and follows `FederationState` when it does not, so
        // promotion/demotion needs no thread surgery.
        let replicator = Replicator::start(
            Arc::clone(&server.core),
            options.leader.clone().unwrap_or_default(),
            pki.admin.clone(),
        );
        let election = ElectionManager::start(
            Arc::clone(&server.core),
            addr.clone(),
            stations.iter().map(|s| s.local_addr()).collect(),
            stations.iter().map(|s| s.query_addr()).collect(),
            options.index as u64 + 1,
        )?;
        Ok(FederationNode {
            server,
            url,
            addr,
            aggregator,
            replicator,
            election,
        })
    }

    /// The node's shared core.
    pub fn core(&self) -> &Arc<ClarensCore> {
        &self.server.core
    }

    /// A client bound directly to this node (bypassing discovery).
    pub fn client(&self) -> ClarensClient {
        ClarensClient::new(self.addr.clone())
    }

    /// Ops the replication follower loop has applied (0 on a node that
    /// has only led).
    pub fn replication_applied(&self) -> u64 {
        self.replicator.applied()
    }

    /// Is this node currently the (writable) leader?
    pub fn is_leader(&self) -> bool {
        self.core().federation.role() == FederationRole::Leader
    }

    /// Cut (or heal) this node's election traffic — the split-brain
    /// injection.
    pub fn set_partitioned(&self, on: bool) {
        self.election.set_partitioned(on);
    }

    /// Kill the node: stop elections (and with them its adverts) and
    /// replication, shut the server down. New connections are refused and
    /// idle ones close at once; requests already in flight are answered
    /// first (within `clarens_httpd::server::DRAIN_TIMEOUT`), as on a
    /// clean stop.
    pub fn kill(self) {
        drop((self.election, self.replicator));
        self.server.shutdown();
    }
}

/// A whole in-process federation: one station and `n` lease-elected
/// nodes, each with a persistent store; node 0 is named the initial
/// leader and serves the file module.
pub struct FederationCluster {
    /// The shared station server (the discovery network).
    pub station: Arc<StationServer>,
    /// Running nodes. Use [`FederationCluster::leader`] to find the
    /// current leader — it moves.
    pub nodes: Vec<FederationNode>,
    scratch: PathBuf,
}

static CLUSTER_COUNTER: AtomicU64 = AtomicU64::new(0);

impl FederationCluster {
    /// Start an `n`-node federation electing leaders under a `lease_ms`
    /// lease, and wait for discovery to converge.
    pub fn start(n: usize, lease_ms: u64) -> FederationCluster {
        assert!(n >= 1, "a federation needs at least one node");
        assert!(lease_ms > 0, "elections need a non-zero lease");
        let station =
            Arc::new(StationServer::spawn("fed-station", "127.0.0.1:0").expect("station"));
        let scratch = std::env::temp_dir().join(format!(
            "clarens-federation-{}-{}",
            std::process::id(),
            CLUSTER_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(scratch.join("files")).expect("scratch dir");

        let node = |index: usize, leader: Option<String>| {
            let options = NodeOptions {
                index,
                file_root: leader.is_none().then(|| scratch.join("files")),
                leader,
                db_path: scratch.join(format!("node{index}.wal")),
                workers: 4,
                leader_lease_ms: lease_ms,
            };
            FederationNode::start(options, vec![Arc::clone(&station)]).expect("federation node")
        };
        let mut nodes = vec![node(0, None)];
        let leader_addr = nodes[0].addr.clone();
        nodes.extend((1..n).map(|index| node(index, Some(leader_addr.clone()))));
        let cluster = FederationCluster {
            station,
            nodes,
            scratch,
        };
        // Convergence: every node's aggregated view lists every node's
        // echo service (i.e., election ticks' adverts flowed station -> all
        // mirrors).
        let want = n;
        assert!(
            wait_until(Duration::from_secs(15), || {
                cluster.nodes.iter().all(|node| {
                    let echo = ServiceQuery::by_method("echo.echo");
                    node.aggregator
                        .query_local(&echo, clarens::testkit::now())
                        .len()
                        == want
                })
            }),
            "discovery did not converge to {want} nodes"
        );
        cluster
    }

    /// The current leader, following the epoch across failovers: after
    /// a [`FederationCluster::kill`] of the old leader this waits for a
    /// follower to win the election. Panics only if no leader emerges
    /// within 15 s.
    pub fn leader(&self) -> &FederationNode {
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            if let Some(index) = self.leader_index() {
                return &self.nodes[index];
            }
            assert!(
                Instant::now() < deadline,
                "no leader emerged within 15 s (election stuck?)"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Mint a user session on the current leader and wait until
    /// replication has propagated it to every node — after this, any node
    /// authenticates the session, which is what makes balanced clients
    /// node-agnostic. Retries across an in-flight election.
    pub fn user_session(&self) -> String {
        let mut session: Option<String> = None;
        assert!(
            wait_until(Duration::from_secs(15), || {
                let mut client = ClarensClient::new(self.leader().addr.clone())
                    .with_credential(federation_pki().user.clone())
                    .with_call_deadline(Duration::from_secs(2));
                client.login().map(|id| session = Some(id)).is_ok()
            }),
            "could not mint a session on the leader"
        );
        let session = session.expect("session minted");
        assert!(
            wait_until(Duration::from_secs(15), || {
                self.nodes.iter().all(|node| {
                    let mut probe = node.client();
                    probe.set_session(session.clone());
                    probe.call("system.whoami", vec![]).is_ok()
                })
            }),
            "session did not replicate to every node"
        );
        session
    }

    /// A discovery-routed client carrying `session`.
    pub fn balanced_client(&self, session: &str, seed: u64) -> BalancedClient {
        BalancedClient::new(vec![self.station.query_addr()], session, seed)
    }

    /// Kill node `index`, returning its url (for blacklist assertions).
    pub fn kill(&mut self, index: usize) -> String {
        let node = self.nodes.remove(index);
        let url = node.url.clone();
        node.kill();
        url
    }

    /// Index of the current leader in `nodes`, if one is leading.
    pub fn leader_index(&self) -> Option<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.core().federation.role() == FederationRole::Leader)
            .max_by_key(|(_, n)| n.core().federation.epoch())
            .map(|(i, _)| i)
    }

    /// Shut everything down and remove scratch state.
    pub fn cleanup(mut self) {
        for node in self.nodes.drain(..) {
            node.kill();
        }
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}
