//! Lease-based leader election through the discovery network
//! (DESIGN.md §14).
//!
//! No separate consensus service: the station network the federation
//! already runs for service discovery doubles as the election medium.
//! Every node runs one [`ElectionManager`] thread that, each tick
//! (lease/4):
//!
//! * publishes a `cluster` **member descriptor** (its address and a
//!   millisecond-resolution `renewed_ms` liveness stamp), and — while it
//!   holds the leadership — a `cluster-leader` **lease descriptor**
//!   carrying `leader_epoch`, `lease_ms`, and `renewed_ms`;
//! * renews its local lease in [`clarens::FederationState`] **only after the
//!   publish succeeds** — a partitioned leader that cannot reach any
//!   station stops renewing, its lease decays, and the dispatch fence
//!   stops acknowledging writes *before* a rival can be elected
//!   (split-brain self-fencing);
//! * queries the stations for lease descriptors. A higher epoch than its
//!   own demotes a leader on the spot (`clarens_demotions_total`) and
//!   re-points a follower; an **equal** epoch published by a different
//!   address — two candidates slipped through the same election window —
//!   is resolved deterministically: the lower address keeps the lease,
//!   the higher one demotes and resyncs; a lease that has not been seen
//!   to renew for 1.5 leases starts an election, as does observing *no*
//!   lease descriptor at all for that long while at least one station is
//!   answering (fresh deployment, or stations restarted and lost their
//!   retained state).
//!
//! An election is: jittered pause (decorrelates candidates), recheck
//! that nobody renewed or claimed a higher epoch meanwhile, then rank
//! the live members by their **exact** replication cursor via the public
//! `system.health` RPC — stale station adverts are good enough for
//! liveness but not for choosing the most-caught-up log. The candidate
//! defers to any live peer with a higher cursor (ties break on lowest
//! address); otherwise it promotes: seal the local log with an
//! `EpochFence(N+1)` record, flip the role, and publish the new lease
//! immediately so rivals stand down (`clarens_elections_total`).
//!
//! Leases use the descriptors' `renewed_ms` attribute, not the
//! descriptor timestamp: timestamps are whole seconds, far coarser than
//! a lease interval, and stations retain stale descriptors indefinitely.
//! Crucially, `renewed_ms` is stamped with the *publisher's* wall clock,
//! which may be skewed arbitrarily from the observer's — so lease age is
//! never computed by subtracting it from the local clock. Instead each
//! observer tracks, per descriptor, the local monotonic instant at which
//! it last saw the `renewed_ms` value *change* (`Freshness`); a lease
//! has lapsed when that locally-measured age exceeds 1.5 intervals. The
//! leader self-fences on the same monotonic basis (`renew_lease`), so no
//! clock comparison ever crosses hosts and NTP drift cannot open a
//! two-writable-leaders window.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use clarens::config::FederationRole;
use clarens::core::ClarensCore;
use clarens::ClarensClient;
use clarens_wire::Value;
use monalisa_sim::station::query_station;
use monalisa_sim::{Publication, ServiceDescriptor, ServiceQuery, UdpPublisher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Service name of the per-node liveness descriptor.
const MEMBER_SERVICE: &str = "cluster";

/// Service name of the leader lease descriptor.
const LEASE_SERVICE: &str = "cluster-leader";

/// A member whose `renewed_ms` is older than this many lease intervals
/// is treated as dead when ranking election candidates.
const MEMBER_FRESH_LEASES: u64 = 2;

/// A running election-manager thread.
pub struct ElectionManager {
    stop: Arc<AtomicBool>,
    partitioned: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ElectionManager {
    /// Start managing elections for `core`, which serves RPC on `addr`.
    /// `udp_stations` receive lease/member publications; `query_stations`
    /// are the TCP query addresses of the same stations. The lease and the
    /// bound of the random pre-claim pause are `core.config`'s
    /// `leader_lease_ms` (must be > 0) and `election_jitter_ms`;
    /// `jitter_seed` seeds that pause (deterministic drills).
    pub fn start(
        core: Arc<ClarensCore>,
        addr: String,
        udp_stations: Vec<SocketAddr>,
        query_stations: Vec<SocketAddr>,
        jitter_seed: u64,
    ) -> std::io::Result<ElectionManager> {
        assert!(
            core.config.leader_lease_ms > 0,
            "elections need a non-zero lease"
        );
        let publisher = UdpPublisher::new(udp_stations)?;
        let stop = Arc::new(AtomicBool::new(false));
        let partitioned = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            let partitioned = Arc::clone(&partitioned);
            std::thread::Builder::new()
                .name(format!("election-{addr}"))
                .spawn(move || {
                    run(
                        &core,
                        &addr,
                        &publisher,
                        &query_stations,
                        jitter_seed,
                        &stop,
                        &partitioned,
                    )
                })
                .expect("spawn election thread")
        };
        Ok(ElectionManager {
            stop,
            partitioned,
            thread: Some(thread),
        })
    }

    /// Simulate a network partition of this node's election traffic: no
    /// publications go out and no station state comes in, exactly as if
    /// the node's uplink to the discovery network were cut. The RPC
    /// plane stays up — which is the point: the split-brain drill shows
    /// the lease fence rejecting writes the partitioned leader still
    /// receives.
    pub fn set_partitioned(&self, on: bool) {
        self.partitioned.store(on, Ordering::SeqCst);
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ElectionManager {
    fn drop(&mut self) {
        self.halt();
    }
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The freshest view of one descriptor service across all stations,
/// deduplicated by url (each station keeps only the newest per key, but
/// different nodes publish under different urls). The flag is true when
/// at least one station answered the query: an empty result from a
/// reachable station network means "no such descriptor exists", while an
/// empty result with every station unreachable means this node is blind
/// and must not draw conclusions (in particular, must not stand for
/// election on the strength of not seeing a lease).
fn query_all(stations: &[SocketAddr], service: &str) -> (Vec<ServiceDescriptor>, bool) {
    let query = ServiceQuery::by_service(service);
    let mut out: Vec<ServiceDescriptor> = Vec::new();
    let mut reachable = false;
    for station in stations {
        if let Ok(hits) = query_station(*station, &query) {
            reachable = true;
            for hit in hits {
                match out.iter_mut().find(|d| d.url == hit.url) {
                    Some(existing) => {
                        if renewed_ms(&hit) > renewed_ms(existing) {
                            *existing = hit;
                        }
                    }
                    None => out.push(hit),
                }
            }
        }
    }
    (out, reachable)
}

/// Local-clock freshness tracking for published descriptors.
///
/// `renewed_ms` stamps come from the publisher's wall clock and are only
/// compared with each other (is this observation newer than the last?).
/// Age is measured on the observer's own monotonic clock: the elapsed
/// time since this node last saw the stamp advance. A descriptor seen
/// for the first time has age zero — a node that just started gives a
/// possibly-dead leader a full lapse interval of local observation
/// before moving against it, which is the conservative direction.
#[derive(Default)]
struct Freshness {
    seen: std::collections::HashMap<String, (u64, std::time::Instant)>,
}

impl Freshness {
    fn age(&mut self, d: &ServiceDescriptor) -> Duration {
        let stamp = renewed_ms(d);
        let now = std::time::Instant::now();
        let entry = self.seen.entry(d.url.clone()).or_insert((stamp, now));
        if stamp != entry.0 {
            *entry = (stamp, now);
        }
        entry.1.elapsed()
    }
}

/// A lease (or the absence of any lease) older than this is lapsed.
fn lapse_after(lease_ms: u64) -> Duration {
    Duration::from_millis(lease_ms + lease_ms / 2)
}

fn attr_u64(d: &ServiceDescriptor, key: &str) -> u64 {
    d.attributes
        .get(key)
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
}

fn renewed_ms(d: &ServiceDescriptor) -> u64 {
    attr_u64(d, "renewed_ms")
}

/// Build this node's member or lease descriptor.
fn descriptor(service: &str, addr: &str, attrs: Vec<(String, String)>) -> ServiceDescriptor {
    ServiceDescriptor {
        url: format!("http://{addr}/clarens"),
        server_dn: String::new(),
        service: service.to_owned(),
        methods: Vec::new(),
        attributes: attrs.into_iter().collect(),
        timestamp: (unix_ms() / 1000) as i64,
    }
}

fn run(
    core: &Arc<ClarensCore>,
    addr: &str,
    publisher: &UdpPublisher,
    query_stations: &[SocketAddr],
    jitter_seed: u64,
    stop: &AtomicBool,
    partitioned: &AtomicBool,
) {
    let lease_ms = core.config.leader_lease_ms;
    let tick = Duration::from_millis((lease_ms / 4).max(5));
    let mut rng = StdRng::seed_from_u64(jitter_seed);
    let mut freshness = Freshness::default();
    // Local instant since which a reachable station network has shown no
    // lease descriptor at all (cluster never had a leader, or stations
    // restarted and lost their retained state). None while a lease is
    // visible or while the stations are unreachable.
    let mut leaderless_since: Option<std::time::Instant> = None;

    // A configured leader claims the first epoch on startup, continuing
    // from whatever fence its persistent log already carries (so a
    // restarted deployment never reuses an epoch).
    if core.federation.role() == FederationRole::Leader && core.federation.epoch() == 0 {
        let epoch = core.store.fence_epoch() + 1;
        let _ = core.store.append_fence(epoch);
        core.federation.observe_epoch(epoch);
        core.federation.set_leader(addr);
        core.federation.manage_lease();
        core.telemetry.federation.elections.inc();
    }

    while !stop.load(Ordering::SeqCst) {
        let cut_off = partitioned.load(Ordering::SeqCst);
        let now = unix_ms();

        // --- Publish -------------------------------------------------
        if !cut_off {
            let member = descriptor(
                MEMBER_SERVICE,
                addr,
                vec![
                    ("addr".into(), addr.to_owned()),
                    ("renewed_ms".into(), now.to_string()),
                    ("applied".into(), core.federation.applied().to_string()),
                ],
            );
            let _ = publisher.publish(&Publication::Service(member));
        }
        if core.federation.role() == FederationRole::Leader {
            let lease = descriptor(
                LEASE_SERVICE,
                addr,
                vec![
                    ("addr".into(), addr.to_owned()),
                    ("leader_epoch".into(), core.federation.epoch().to_string()),
                    ("lease_ms".into(), lease_ms.to_string()),
                    ("renewed_ms".into(), now.to_string()),
                ],
            );
            // Renew only after the lease actually reached a station: a
            // leader that cannot publish must not keep acking writes.
            if !cut_off && publisher.publish(&Publication::Service(lease)).is_ok() {
                core.federation.renew_lease(lease_ms);
            }
        }

        // --- Observe -------------------------------------------------
        if !cut_off {
            let (leases, stations_reachable) = query_all(query_stations, LEASE_SERVICE);
            if let Some(best) = leases.iter().max_by_key(|d| {
                // Highest epoch wins; among equal epochs the freshest
                // renewal is authoritative.
                (attr_u64(d, "leader_epoch"), renewed_ms(d))
            }) {
                leaderless_since = None;
                let best_epoch = attr_u64(best, "leader_epoch");
                let best_addr = best.attributes.get("addr").cloned().unwrap_or_default();
                let my_epoch = core.federation.epoch();
                if best_epoch > my_epoch && best_addr != addr {
                    // A rival claimed a newer epoch: a (possibly revived)
                    // leader demotes itself and resyncs as a follower;
                    // a follower just re-points.
                    core.federation.observe_epoch(best_epoch);
                    if core.federation.role() == FederationRole::Leader {
                        core.federation.set_role(FederationRole::Follower);
                        core.federation.unmanage_lease();
                        core.telemetry.federation.demotions.inc();
                    }
                    core.federation.set_leader(&best_addr);
                } else if core.federation.role() == FederationRole::Leader {
                    // Equal-epoch conflict: a rival published a lease for
                    // the epoch this node holds — two candidates slipped
                    // through the same election window (e.g. each skipped
                    // the other as unreachable while ranking). Equal
                    // epochs never fence each other, so without a
                    // deterministic tie-break both would stay writable
                    // forever and the logs would diverge. Resolution
                    // mirrors the election's deference rule: the lowest
                    // address keeps the lease, everyone else demotes and
                    // resyncs from it.
                    let rival = leases.iter().find_map(|d| {
                        let a = d.attributes.get("addr")?;
                        (attr_u64(d, "leader_epoch") == my_epoch
                            && !a.is_empty()
                            && a.as_str() != addr
                            && a.as_str() < addr)
                            .then(|| a.clone())
                    });
                    if let Some(rival_addr) = rival {
                        core.federation.set_role(FederationRole::Follower);
                        core.federation.unmanage_lease();
                        core.federation.set_leader(&rival_addr);
                        core.telemetry.federation.demotions.inc();
                    }
                } else if core.federation.role() == FederationRole::Follower {
                    // Never adopt this node's own retained lease (a relic
                    // of a leadership it has since lost): a follower that
                    // believes *itself* leader would hint clients into a
                    // redirect loop.
                    if best_epoch >= my_epoch && !best_addr.is_empty() && best_addr != addr {
                        core.federation.observe_epoch(best_epoch);
                        core.federation.set_leader(&best_addr);
                    }
                    // Lease lapse: this node has watched the best-known
                    // lease go unrenewed for 1.5 intervals of *local*
                    // time — its holder is dead or cut off. Stand for
                    // election. (Local observation, not a comparison with
                    // the leader's clock: see the module docs.)
                    if freshness.age(best) > lapse_after(lease_ms) {
                        try_promote(
                            core,
                            addr,
                            publisher,
                            query_stations,
                            &mut rng,
                            &mut freshness,
                            stop,
                        );
                    }
                }
            } else if stations_reachable && core.federation.role() == FederationRole::Follower {
                // The stations answer but hold no lease descriptor at
                // all: nobody has ever led (or the stations lost their
                // retained state in a restart). Treat a full lapse
                // interval of observing that as a lapsed lease, or the
                // cluster stays leaderless forever.
                let since = *leaderless_since.get_or_insert_with(std::time::Instant::now);
                if since.elapsed() > lapse_after(lease_ms) {
                    try_promote(
                        core,
                        addr,
                        publisher,
                        query_stations,
                        &mut rng,
                        &mut freshness,
                        stop,
                    );
                }
            } else {
                // Blind (no station reachable): no basis for any action.
                leaderless_since = None;
            }
        }

        std::thread::sleep(tick);
    }
}

/// `system.health` of a peer: `(is_leader, applied_cursor)`, or None if
/// the peer is unreachable (it is then ignored for ranking — a dead node
/// cannot be more caught-up).
fn peer_health(addr: &str) -> Option<(bool, u64)> {
    let mut client = ClarensClient::new(addr)
        .with_retries(0)
        .with_call_deadline(Duration::from_millis(250));
    let health = client.call("system.health", vec![]).ok()?;
    let role = health.get("role").and_then(Value::as_str).unwrap_or("");
    let applied = health.get("applied").and_then(Value::as_int).unwrap_or(0) as u64;
    Some((role == "leader", applied))
}

fn try_promote(
    core: &Arc<ClarensCore>,
    addr: &str,
    publisher: &UdpPublisher,
    query_stations: &[SocketAddr],
    rng: &mut StdRng,
    freshness: &mut Freshness,
    stop: &AtomicBool,
) {
    let lease_ms = core.config.leader_lease_ms;
    // Decorrelate candidates so the common case is one claimant.
    let jitter = rng.next_u64() % core.config.election_jitter_ms.max(1);
    std::thread::sleep(Duration::from_millis(jitter));
    if stop.load(Ordering::SeqCst) {
        return;
    }

    // Recheck: did the leader renew, or a rival claim, during the pause?
    let (leases, _) = query_all(query_stations, LEASE_SERVICE);
    if let Some(best) = leases
        .iter()
        .max_by_key(|d| (attr_u64(d, "leader_epoch"), renewed_ms(d)))
    {
        if attr_u64(best, "leader_epoch") > core.federation.epoch() {
            return; // a rival already won this round
        }
        if freshness.age(best) <= lapse_after(lease_ms) {
            return; // the leader came back (locally-observed renewal)
        }
    }

    // Rank against every live member by exact replication cursor. The
    // member adverts supply the candidate set; the ranking itself uses a
    // live `system.health` call, because adverts are a tick stale and
    // the whole point is promoting the most-caught-up log.
    let mine = core.federation.applied();
    let (members, stations_reachable) = query_all(query_stations, MEMBER_SERVICE);
    if !stations_reachable {
        // Blind: with no station answering, the candidate set is unknown
        // and a promotion here could claim over a better-placed (or
        // already-leading) peer it simply cannot see.
        return;
    }
    for member in members {
        let peer = member.attributes.get("addr").cloned().unwrap_or_default();
        if peer.is_empty() || peer == addr {
            continue;
        }
        if freshness.age(&member) > Duration::from_millis(lease_ms * MEMBER_FRESH_LEASES) {
            continue; // advert never renewed under local observation: presumed dead
        }
        let Some((is_leader, theirs)) = peer_health(&peer) else {
            continue; // unreachable: cannot be a better candidate
        };
        if is_leader {
            return; // someone already promoted
        }
        if theirs > mine || (theirs == mine && peer.as_str() < addr) {
            return; // defer to the better-placed candidate
        }
    }

    // Promote: seal the local log under the new epoch, become writable,
    // and publish the claim immediately so rivals stand down.
    let epoch = core.federation.epoch() + 1;
    let _ = core.store.append_fence(epoch);
    let _ = core.store.sync();
    core.federation.observe_epoch(epoch);
    core.federation.set_role(FederationRole::Leader);
    core.federation.set_leader(addr);
    core.federation.reset_follower_cursor();
    core.federation.manage_lease();
    core.telemetry.federation.elections.inc();
    let lease = descriptor(
        LEASE_SERVICE,
        addr,
        vec![
            ("addr".into(), addr.to_owned()),
            ("leader_epoch".into(), epoch.to_string()),
            ("lease_ms".into(), lease_ms.to_string()),
            ("renewed_ms".into(), unix_ms().to_string()),
        ],
    );
    if publisher.publish(&Publication::Service(lease)).is_ok() {
        core.federation.renew_lease(lease_ms);
    }
}
