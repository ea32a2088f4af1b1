//! In-process federation harness: one station network, one leader, N-1
//! followers — the fixture behind the integration tests and the
//! `repro federation` / `repro failover` benchmarks.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens::client::ClarensClient;
use clarens::config::{ClarensConfig, FederationRole};
use clarens::core::ClarensCore;
use clarens::server::{install_permissive_acls, register_builtin_services, ClarensServer};
use clarens::services::DiscoveryService;
use monalisa_sim::station::wait_until;
use monalisa_sim::{DiscoveryAggregator, ServiceQuery, StationServer, UdpPublisher};

use crate::balance::BalancedClient;
use crate::election::ElectionManager;
use crate::pki::federation_pki;
use crate::replicator::Replicator;

/// How often a node re-publishes its descriptors (with fresh load
/// attributes) to the station network.
const HEARTBEAT: Duration = Duration::from_millis(100);

/// Descriptor TTL in each node's aggregated discovery view: a node that
/// misses this many seconds of heartbeats stops being routable via
/// `proxy.call` (balanced clients go through the stations directly and
/// handle death by blacklisting instead).
const AGGREGATOR_TTL_SECS: i64 = 3;

/// Options for one federation node.
pub struct NodeOptions {
    /// Node index (selects the per-node server credential/DN).
    pub index: usize,
    /// Leader or follower (standalone nodes don't need this harness).
    pub role: FederationRole,
    /// `host:port` of the leader (followers only).
    pub leader: Option<String>,
    /// Persist the store here (the leader must persist: WAL shipping
    /// reads the log file; followers usually run in-memory — except
    /// under elections, where any follower may be promoted and must then
    /// serve its own log).
    pub db_path: Option<PathBuf>,
    /// Serve the file module from this root (only nodes that set it
    /// export `file.*` — which is what makes `proxy.call` forwarding
    /// observable).
    pub file_root: Option<PathBuf>,
    /// HTTP worker threads.
    pub workers: usize,
    /// Follower poll interval for `replication.fetch`.
    pub replication_poll_ms: u64,
    /// Leader-lease duration in ms; 0 keeps the pre-failover static
    /// roles (no election thread, leader always writable).
    pub leader_lease_ms: u64,
    /// Upper bound of the random pre-claim election pause.
    pub election_jitter_ms: u64,
}

impl Default for NodeOptions {
    fn default() -> Self {
        NodeOptions {
            index: 0,
            role: FederationRole::Leader,
            leader: None,
            db_path: None,
            file_root: None,
            workers: 4,
            replication_poll_ms: 25,
            leader_lease_ms: 0,
            election_jitter_ms: 100,
        }
    }
}

/// One running federation node: server + discovery plumbing + (on
/// followers) the replication loop + (under elections) the election
/// manager.
pub struct FederationNode {
    /// The running server (its core is reachable via `server.core`).
    pub server: ClarensServer,
    /// This node's advertised url (`http://host:port/clarens`).
    pub url: String,
    /// This node's `host:port`.
    pub addr: String,
    /// The node's aggregated discovery view (shared with its proxy router).
    pub aggregator: Arc<DiscoveryAggregator>,
    heartbeat_stop: Arc<AtomicBool>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
    replicator: Option<Replicator>,
    election: Option<ElectionManager>,
}

/// Reserve a free localhost port: bind, read, release. The tiny window
/// between release and the server's own bind is why `start` retries.
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
        let mut last_err = None;
        for _ in 0..5 {
            // The server url must be final before services register (the
            // discovery descriptors and the proxy's own-url filter both
            // read it), so reserve a port first and bind to exactly it.
            let port = reserve_port()?;
            let addr = format!("127.0.0.1:{port}");
            let config = ClarensConfig {
                server_url: format!("http://{addr}/clarens"),
                admin_dns: vec![pki.admin.certificate.subject.to_string()],
                workers: options.workers,
                db_path: options.db_path.clone(),
                file_root: options.file_root.clone(),
                federation_role: options.role,
                federation_leader: options.leader.clone(),
                replication_poll_ms: options.replication_poll_ms,
                leader_lease_ms: options.leader_lease_ms,
                election_jitter_ms: options.election_jitter_ms,
                ..Default::default()
            };
            let core = ClarensCore::new(
                config,
                vec![pki.ca.certificate.clone()],
                pki.server_credential(options.index),
            )?;
            let aggregator = Arc::new(
                DiscoveryAggregator::new(stations.clone(), Arc::clone(&core.store)).with_ttl(
                    AGGREGATOR_TTL_SECS,
                    Arc::new(|| {
                        std::time::SystemTime::now()
                            .duration_since(std::time::UNIX_EPOCH)
                            .map(|d| d.as_secs() as i64)
                            .unwrap_or(0)
                    }),
                ),
            );
            let publisher = UdpPublisher::new(stations.iter().map(|s| s.local_addr()).collect())?;
            let discovery = DiscoveryService::new(Arc::clone(&aggregator), Some(publisher));
            register_builtin_services(&core, Some(discovery));
            install_permissive_acls(&core);
            let server = match ClarensServer::start(core, &addr, None) {
                Ok(server) => server,
                Err(e) => {
                    // Lost the port race: reserve a fresh one.
                    last_err = Some(e);
                    continue;
                }
            };
            let url = server.core.config.server_url.clone();
            let heartbeat_stop = Arc::new(AtomicBool::new(false));
            let heartbeat = Some(spawn_heartbeat(addr.clone(), Arc::clone(&heartbeat_stop)));
            let elections = options.leader_lease_ms > 0;
            // Static mode: followers replicate from the configured
            // leader. Election mode: every node runs the loop — it idles
            // while the node leads and follows `FederationState` when it
            // does not, so promotion/demotion needs no thread surgery.
            let replicator = if elections || options.role == FederationRole::Follower {
                Some(Replicator::start(
                    Arc::clone(&server.core),
                    options.leader.clone().unwrap_or_default(),
                    pki.admin.clone(),
                ))
            } else {
                None
            };
            let election = if elections {
                Some(
                    ElectionManager::start(
                        Arc::clone(&server.core),
                        addr.clone(),
                        stations.iter().map(|s| s.local_addr()).collect(),
                        stations.iter().map(|s| s.query_addr()).collect(),
                        options.index as u64 + 1,
                    )
                    .expect("start election manager"),
                )
            } else {
                None
            };
            return Ok(FederationNode {
                server,
                url,
                addr,
                aggregator,
                heartbeat_stop,
                heartbeat,
                replicator,
                election,
            });
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::AddrInUse, "no reservable port")
        }))
    }

    /// The node's shared core.
    pub fn core(&self) -> &Arc<ClarensCore> {
        &self.server.core
    }

    /// A client bound directly to this node (bypassing discovery).
    pub fn client(&self) -> ClarensClient {
        ClarensClient::new(self.addr.clone())
    }

    /// Ops the replication follower loop has applied (0 on leaders).
    pub fn replication_applied(&self) -> u64 {
        self.replicator
            .as_ref()
            .map(Replicator::applied)
            .unwrap_or(0)
    }

    /// Is this node currently the (writable) leader?
    pub fn is_leader(&self) -> bool {
        self.core().federation.role() == FederationRole::Leader
    }

    /// Cut (or heal) this node's election traffic — the split-brain
    /// injection. No-op on nodes without an election manager.
    pub fn set_partitioned(&self, on: bool) {
        if let Some(election) = &self.election {
            election.set_partitioned(on);
        }
    }

    /// Kill the node: stop heartbeats, elections, and replication, shut
    /// the server down. Sockets close immediately — in-flight requests
    /// fail like a crashed process's would.
    pub fn kill(mut self) {
        self.heartbeat_stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.heartbeat.take() {
            let _ = t.join();
        }
        drop(self.election.take());
        if let Some(r) = self.replicator.take() {
            r.stop();
        }
        self.server.shutdown();
    }
}

/// Re-publish this node's descriptors (with fresh load attributes) every
/// heartbeat, through the node's own RPC surface — the same
/// `discovery.publish` an operator's cron job would call.
fn spawn_heartbeat(addr: String, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    let admin = federation_pki().admin.clone();
    std::thread::Builder::new()
        .name(format!("heartbeat-{addr}"))
        .spawn(move || {
            let mut client = ClarensClient::new(addr)
                .with_credential(admin)
                .with_retries(0)
                .with_call_deadline(Duration::from_secs(2));
            let mut logged_in = false;
            let mut misses = 0;
            while !stop.load(Ordering::SeqCst) {
                if !logged_in {
                    // On a follower, `system.auth` is fenced and the
                    // client chases the NOT_LEADER hint to the leader;
                    // the minted session replicates back within a poll
                    // or two, after which publish succeeds.
                    logged_in = client.login().is_ok();
                    misses = 0;
                }
                if logged_in && client.call("discovery.publish", vec![]).is_err() {
                    // A fresh session has usually not replicated back yet
                    // on the first beat: minting another one each time
                    // would lose that race forever. Give it a beat.
                    misses += 1;
                    logged_in = misses < 2;
                }
                std::thread::sleep(HEARTBEAT);
            }
        })
        .expect("spawn heartbeat thread")
}

/// A whole in-process federation: one station, node 0 the initial leader
/// (with a persistent store and the file service), the rest followers.
pub struct FederationCluster {
    /// The shared station server (the discovery network).
    pub station: Arc<StationServer>,
    /// Running nodes. Use [`FederationCluster::leader`] to find the
    /// current leader — under elections it moves.
    pub nodes: Vec<FederationNode>,
    scratch: PathBuf,
}

static CLUSTER_COUNTER: AtomicU64 = AtomicU64::new(0);

impl FederationCluster {
    /// Start an `n`-node federation with static roles (node 0 leads
    /// forever) and wait for discovery to converge.
    pub fn start(n: usize) -> FederationCluster {
        FederationCluster::start_with(n, 0, 100)
    }

    /// Start an `n`-node federation with lease-based elections: every
    /// node gets a persistent store (any follower may be promoted and
    /// must then serve its own WAL) and an election manager.
    pub fn start_elections(n: usize, lease_ms: u64, jitter_ms: u64) -> FederationCluster {
        assert!(lease_ms > 0, "elections need a non-zero lease");
        FederationCluster::start_with(n, lease_ms, jitter_ms)
    }

    fn start_with(n: usize, lease_ms: u64, jitter_ms: u64) -> FederationCluster {
        assert!(n >= 1, "a federation needs at least one node");
        let station =
            Arc::new(StationServer::spawn("fed-station", "127.0.0.1:0").expect("station"));
        let scratch = std::env::temp_dir().join(format!(
            "clarens-federation-{}-{}",
            std::process::id(),
            CLUSTER_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(scratch.join("files")).expect("scratch dir");

        let leader = FederationNode::start(
            NodeOptions {
                index: 0,
                role: FederationRole::Leader,
                db_path: Some(scratch.join("leader.wal")),
                file_root: Some(scratch.join("files")),
                leader_lease_ms: lease_ms,
                election_jitter_ms: jitter_ms,
                ..Default::default()
            },
            vec![Arc::clone(&station)],
        )
        .expect("leader");
        let leader_addr = leader.addr.clone();
        let mut nodes = vec![leader];
        for index in 1..n {
            nodes.push(
                FederationNode::start(
                    NodeOptions {
                        index,
                        role: FederationRole::Follower,
                        leader: Some(leader_addr.clone()),
                        db_path: (lease_ms > 0).then(|| scratch.join(format!("node{index}.wal"))),
                        leader_lease_ms: lease_ms,
                        election_jitter_ms: jitter_ms,
                        ..Default::default()
                    },
                    vec![Arc::clone(&station)],
                )
                .expect("follower"),
            );
        }
        let cluster = FederationCluster {
            station,
            nodes,
            scratch,
        };
        // Convergence: every node's aggregated view lists every node's
        // echo service (i.e., heartbeats flowed station -> all mirrors).
        let want = n;
        assert!(
            wait_until(Duration::from_secs(15), || {
                cluster.nodes.iter().all(|node| {
                    node.aggregator
                        .query_local(&ServiceQuery::by_method("echo.echo"))
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
            let best = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.core().federation.role() == FederationRole::Leader)
                .max_by_key(|(_, n)| n.core().federation.epoch())
                .map(|(i, _)| i);
            if let Some(index) = best {
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
                match client.login() {
                    Ok(id) => {
                        session = Some(id);
                        true
                    }
                    Err(_) => false,
                }
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
