//! Federation integration tests: WAL-shipping replication convergence,
//! proxy routing to the module owner, discovery-driven failover, and
//! lease-based leader elections (promotion, split-brain fencing).

use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens::client::ClientError;
use clarens::config::FederationRole;
use clarens_federation::{federation_pki, FederationCluster, FederationNode, NodeOptions};
use clarens_httpd::{HttpClient, Method, Request};
use clarens_wire::fault::codes;
use clarens_wire::{Fault, Protocol, RpcCall, Value};
use monalisa_sim::station::wait_until;
use monalisa_sim::StationServer;

/// One XML-RPC exchange with no client policy on top: what *this node*
/// answers, not where a hint-chasing `ClarensClient` ends up.
fn raw_call(addr: &str, session: &str, method: &str, params: Vec<Value>) -> Result<Value, Fault> {
    let call = RpcCall {
        method: method.to_owned(),
        params,
        id: None,
    };
    let mut request = Request::new(Method::Post, "/clarens");
    request
        .headers
        .set("content-type", Protocol::XmlRpc.content_type());
    request.headers.set("x-clarens-session", session);
    request.body = clarens_wire::encode_call(Protocol::XmlRpc, &call);
    let response = HttpClient::new(addr).request(&request).expect("exchange");
    assert_eq!(response.status, 200);
    match clarens_wire::decode_response(Protocol::XmlRpc, &response.body)
        .expect("decodable response")
        .into_result()
    {
        Ok(value) => Ok(value),
        Err(clarens_wire::WireError::Fault(fault)) => Err(fault),
        Err(other) => panic!("not an RPC answer: {other}"),
    }
}

/// `proxy.call(method, params)` as its parameter list.
fn proxied(method: &str, params: Vec<Value>) -> Vec<Value> {
    vec![Value::Str(method.into()), Value::Array(params)]
}

#[test]
fn two_node_replication_converges() {
    let cluster = FederationCluster::start(2);
    // `user_session` already proves the session record crossed the wire:
    // it waits until the follower authenticates a session minted on the
    // leader.
    let session = cluster.user_session();
    assert_eq!(session.len(), 64);

    // An arbitrary leader-side write lands on the follower via the WAL
    // stream, not via any shared storage.
    let leader_store = std::sync::Arc::clone(&cluster.leader().core().store);
    leader_store
        .put("fedtest", "k1", b"replicate-me".to_vec())
        .expect("leader write");
    let follower_store = std::sync::Arc::clone(&cluster.nodes[1].core().store);
    assert!(
        wait_until(Duration::from_secs(10), || {
            follower_store.get("fedtest", "k1").as_deref() == Some(b"replicate-me".as_ref())
        }),
        "leader write never reached the follower"
    );
    assert!(cluster.nodes[1].replication_applied() > 0);

    // The follower's lag gauge drains to zero once it has caught up, and
    // the leader's WAL offset gauge reflects a non-empty log.
    let follower_telemetry = std::sync::Arc::clone(&cluster.nodes[1].core().telemetry);
    assert!(
        wait_until(Duration::from_secs(10), || {
            follower_telemetry.gauge("db.replication_lag") == Some(0)
        }),
        "replication lag never drained"
    );
    assert!(cluster.leader().core().telemetry.gauge("db.wal_offset") > Some(0));

    // A replicated write proxied through the follower is a replicated
    // write on the follower: fenced like the direct call, run nowhere.
    // (A site admin asks, so only the fence stands between the call and
    // the group.)
    let mut admin = cluster
        .leader()
        .client()
        .with_credential(federation_pki().admin.clone());
    let admin_session = admin.login().expect("admin login");
    let follower = &cluster.nodes[1];
    assert!(
        wait_until(Duration::from_secs(10), || {
            raw_call(&follower.addr, &admin_session, "system.whoami", vec![]).is_ok()
        }),
        "admin session never reached the follower"
    );
    let fenced_before = follower.core().telemetry.federation.fenced_writes.get();
    let group = || vec![Value::Str("proxied".into())];
    let direct = raw_call(&follower.addr, &admin_session, "vo.create_group", group())
        .expect_err("a follower ran a direct replicated write");
    let via_proxy = raw_call(
        &follower.addr,
        &admin_session,
        "proxy.call",
        proxied("vo.create_group", group()),
    )
    .expect_err("a follower ran a proxied replicated write");
    assert_eq!(via_proxy.code, codes::NOT_LEADER, "{via_proxy:?}");
    assert_eq!(via_proxy.leader_hint(), direct.leader_hint());
    assert_eq!(
        follower.core().telemetry.federation.fenced_writes.get(),
        fenced_before + 2
    );
    for node in &cluster.nodes {
        assert!(node.core().vo.group("proxied").is_none());
    }
    cluster.cleanup();
}

#[test]
fn proxy_call_routes_to_module_owner() {
    let cluster = FederationCluster::start(2);
    let session = cluster.user_session();

    // Only the leader exports the file module; the follower must forward.
    let mut client = cluster.nodes[1].client();
    client.set_session(session.clone());
    let listing = client
        .call(
            "proxy.call",
            vec![
                Value::Str("file.ls".into()),
                Value::Array(vec![Value::Str("/".into())]),
            ],
        )
        .expect("proxied file.ls");
    assert!(matches!(listing, Value::Array(_)));
    let follower_core = cluster.nodes[1].core();
    assert!(follower_core.telemetry.federation.forwarded.get() >= 1);
    assert_eq!(follower_core.telemetry.federation.forward_failures.get(), 0);

    // A method no node in the federation exports is a fault, not a hang.
    let err = client
        .call("proxy.call", vec![Value::Str("nosuch.method".into())])
        .expect_err("unroutable method");
    assert!(matches!(err, ClientError::Fault(_)));
    cluster.cleanup();
}

#[test]
fn balanced_client_fails_over_when_its_node_dies() {
    let mut cluster = FederationCluster::start(3);
    let session = cluster.user_session();
    let mut client = cluster
        .balanced_client(&session, 0x5EED)
        .with_call_deadline(Duration::from_secs(2));

    let mut wrong = 0u64;
    let echo = |client: &mut clarens_federation::BalancedClient, i: u64, wrong: &mut u64| {
        let payload = format!("fed-{i}");
        match client.call("echo.echo", vec![Value::Str(payload.clone())]) {
            Ok(Value::Str(s)) if s == payload => {}
            _ => *wrong += 1,
        }
    };
    for i in 0..10 {
        echo(&mut client, i, &mut wrong);
    }
    assert_eq!(wrong, 0, "healthy cluster returned wrong answers");

    // Kill the node the client is pinned to: the next calls must fail
    // over to a surviving node via discovery re-resolution.
    let pinned = client
        .current_url()
        .expect("pinned after calls")
        .to_string();
    let index = cluster
        .nodes
        .iter()
        .position(|n| n.url == pinned)
        .expect("pinned node in cluster");
    let killed = cluster.kill(index);
    for i in 10..30 {
        echo(&mut client, i, &mut wrong);
    }
    assert_eq!(wrong, 0, "failover produced wrong answers");
    assert!(client.failovers() >= 1, "client never failed over");
    assert!(client.resolutions() >= 2, "client never re-resolved");
    assert_ne!(client.current_url(), Some(killed.as_str()));
    cluster.cleanup();
}

#[test]
fn leader_failover_promotes_follower_without_losing_acked_writes() {
    let mut cluster = FederationCluster::start_elections(3, 500, 100);
    // The session is an acked replicated write: `user_session` returns
    // only after every node authenticates it.
    let session = cluster.user_session();
    let old_index = cluster.leader_index().expect("initial leader");
    let old_addr = cluster.nodes[old_index].addr.clone();
    let old_epoch = cluster.nodes[old_index].core().federation.epoch();
    assert!(old_epoch >= 1, "startup leader should claim an epoch");

    let killed_at = Instant::now();
    cluster.kill(old_index);
    // A follower must detect the lease lapse and promote itself. The
    // `repro failover` drill enforces the tight ~3-lease bound; here we
    // stay clear of CI-scheduler noise but still catch a stuck election.
    let (new_addr, new_epoch) = {
        let new_leader = cluster.leader();
        (
            new_leader.addr.clone(),
            new_leader.core().federation.epoch(),
        )
    };
    let elapsed = killed_at.elapsed();
    assert_ne!(new_addr, old_addr, "a follower must take over");
    assert!(
        new_epoch > old_epoch,
        "promotion must claim a newer epoch ({new_epoch} vs {old_epoch})"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "promotion took {elapsed:?}"
    );

    // Zero acked-then-lost: the pre-kill session authenticates on the
    // new leader immediately — its log already contained the record when
    // it promoted (that is what "most caught-up" buys).
    let user_dn = federation_pki().user.certificate.subject.to_string();
    let mut probe = cluster.leader().client();
    probe.set_session(session.clone());
    assert_eq!(
        probe
            .call("system.whoami", vec![])
            .expect("acked session lost across failover")
            .as_str(),
        Some(user_dn.as_str())
    );

    // The surviving follower noticed the dead leader (jittered-backoff
    // fetch errors), re-pointed at the new one, and resyncs — after which
    // a fresh replicated write propagates everywhere: `user_session`
    // mints on the new leader and waits for full convergence.
    let survivor = cluster
        .nodes
        .iter()
        .position(|n| n.addr != new_addr)
        .expect("one follower survives");
    assert!(
        wait_until(Duration::from_secs(10), || {
            let core = cluster.nodes[survivor].core();
            core.telemetry.federation.replication_fetch_errors.get() >= 1
                && core.federation.leader() == new_addr
        }),
        "survivor never re-pointed at the new leader"
    );
    let session2 = cluster.user_session();
    assert_ne!(session2, session);

    // Write-aware routing: a balanced client's replicated writes end up
    // aimed at the new leader (learned from NOT_LEADER redirect hints
    // whenever resolution lands it on a follower).
    let mut balanced = cluster
        .balanced_client(&session, 0xFA11)
        .with_repin_every(1)
        .with_call_deadline(Duration::from_secs(2));
    assert!(
        wait_until(Duration::from_secs(15), || {
            // Reads re-pin uniformly; the write path reuses the pin, so
            // within a few rounds a write goes through a follower and the
            // redirect hint teaches the client where the leader is.
            let _ = balanced.call("echo.echo", vec![Value::Str("spin".into())]);
            balanced
                .call(
                    "im.send",
                    vec![
                        Value::Str(user_dn.clone()),
                        Value::Str("post-failover".into()),
                    ],
                )
                .is_ok()
                && balanced.believed_leader() == Some(new_addr.as_str())
        }),
        "balanced writes never learned the new leader"
    );
    cluster.cleanup();
}

#[test]
fn equal_epoch_rivals_resolve_to_a_single_leader() {
    let cluster = FederationCluster::start_elections(2, 300, 60);
    let leader_index = cluster.leader_index().expect("startup leader");
    let epoch = cluster.nodes[leader_index].core().federation.epoch();
    assert!(epoch >= 1, "startup leader should claim an epoch");

    // Force the other node into a rival leadership at the SAME epoch —
    // the state two concurrent candidates reach when both pass the
    // pre-claim recheck (e.g. each skipped the other as unreachable
    // while ranking). Equal epochs never fence each other, so without a
    // deterministic tie-break both would stay writable forever.
    let rival = 1 - leader_index;
    {
        let fed = &cluster.nodes[rival].core().federation;
        fed.observe_epoch(epoch);
        fed.set_leader(&cluster.nodes[rival].addr);
        fed.set_role(FederationRole::Leader);
        fed.manage_lease();
    }

    // The conflict resolves by address: the lower address keeps the
    // lease, the higher one demotes and re-points at the survivor.
    let survivor = if cluster.nodes[0].addr < cluster.nodes[1].addr {
        0
    } else {
        1
    };
    let loser = 1 - survivor;
    assert!(
        wait_until(Duration::from_secs(10), || {
            cluster.nodes[survivor].is_leader() && !cluster.nodes[loser].is_leader()
        }),
        "equal-epoch rivals never resolved to a single leader"
    );
    let loser_core = cluster.nodes[loser].core();
    assert!(
        loser_core.telemetry.federation.demotions.get() >= 1,
        "the losing rival never counted its demotion"
    );
    assert_eq!(
        loser_core.federation.leader(),
        cluster.nodes[survivor].addr,
        "the demoted rival must re-point at the surviving leader"
    );
    cluster.cleanup();
}

#[test]
fn leaderless_station_network_still_elects() {
    // The configured leader never comes up (dead address) and the
    // station network holds no cluster-leader descriptor at all — the
    // "stations restarted and lost their retained state" shape. The
    // follower must treat a sustained leaderless view as a lapsed lease
    // and stand for election, not wait forever for a lease to appear.
    let station = Arc::new(StationServer::spawn("boot-station", "127.0.0.1:0").expect("station"));
    let scratch = std::env::temp_dir().join(format!(
        "clarens-bootstrap-{}-{}",
        std::process::id(),
        line!()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let node = FederationNode::start(
        NodeOptions {
            index: 1,
            role: FederationRole::Follower,
            leader: Some("127.0.0.1:1".into()),
            db_path: Some(scratch.join("node.wal")),
            leader_lease_ms: 300,
            election_jitter_ms: 60,
            ..Default::default()
        },
        vec![Arc::clone(&station)],
    )
    .expect("follower node");
    assert!(
        wait_until(Duration::from_secs(10), || {
            node.is_leader() && node.core().federation.epoch() >= 1
        }),
        "a leaderless cluster never elected a leader"
    );
    node.kill();
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn split_brain_fences_stale_leader_and_demotes_on_heal() {
    let cluster = FederationCluster::start_elections(3, 400, 80);
    let session = cluster.user_session();
    let stale_index = cluster.leader_index().expect("initial leader");
    let old_epoch = cluster.nodes[stale_index].core().federation.epoch();
    let user_dn = federation_pki().user.certificate.subject.to_string();

    // Cut the leader's election traffic (its RPC plane stays up — the
    // whole point). Its lease decays unrenewed; the survivors see the
    // lapse and elect a rival under epoch N+1.
    cluster.nodes[stale_index].set_partitioned(true);
    assert!(
        wait_until(Duration::from_secs(10), || {
            cluster.nodes.iter().enumerate().any(|(i, n)| {
                i != stale_index && n.is_leader() && n.core().federation.epoch() > old_epoch
            })
        }),
        "no rival leader emerged behind the partition"
    );

    // The deposed leader still believes it leads, but its lapsed lease
    // makes `is_writable` false: a direct replicated write is fenced
    // before the handler runs — acked by nobody, applied by nobody.
    let stale = &cluster.nodes[stale_index];
    let fenced_before = stale.core().telemetry.federation.fenced_writes.get();
    let mut stale_client = stale.client();
    stale_client.set_session(session.clone());
    match stale_client.call(
        "im.send",
        vec![
            Value::Str(user_dn.clone()),
            Value::Str("split-brain".into()),
        ],
    ) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::NOT_LEADER, "{f:?}"),
        other => panic!("stale leader accepted a write: {other:?}"),
    }
    assert!(
        stale.core().telemetry.federation.fenced_writes.get() > fenced_before,
        "fence counter never ticked"
    );
    // The same write through `proxy.call` meets the same fence: same
    // fault, same hint, one more tick.
    let send = || {
        vec![
            Value::Str(user_dn.clone()),
            Value::Str("split-brain".into()),
        ]
    };
    let fenced_before = stale.core().telemetry.federation.fenced_writes.get();
    let direct = raw_call(&stale.addr, &session, "im.send", send())
        .expect_err("stale leader accepted a direct write");
    let via_proxy = raw_call(
        &stale.addr,
        &session,
        "proxy.call",
        proxied("im.send", send()),
    )
    .expect_err("stale leader accepted a proxied write");
    assert_eq!(via_proxy.code, codes::NOT_LEADER, "{via_proxy:?}");
    assert_eq!(via_proxy.leader_hint(), direct.leader_hint());
    assert_eq!(
        stale.core().telemetry.federation.fenced_writes.get(),
        fenced_before + 2,
        "a proxied fenced write must tick the counter like a direct one"
    );
    // 100% of stale writes rejected: the message exists on no node.
    let mut count_probe = cluster.leader().client();
    count_probe.set_session(session.clone());
    assert_eq!(
        count_probe.call("im.count", vec![]).expect("im.count"),
        Value::Int(0),
        "a fenced write leaked into the replicated store"
    );

    // Heal the partition: the revived leader observes the rival's higher
    // epoch, demotes itself, re-points, and resyncs as a follower.
    let new_addr = cluster.leader().addr.clone();
    let new_epoch = cluster.leader().core().federation.epoch();
    cluster.nodes[stale_index].set_partitioned(false);
    assert!(
        wait_until(Duration::from_secs(10), || {
            let core = cluster.nodes[stale_index].core();
            !cluster.nodes[stale_index].is_leader()
                && core.telemetry.federation.demotions.get() >= 1
                && core.federation.epoch() == new_epoch
                && core.federation.leader() == new_addr
        }),
        "partitioned leader never demoted after healing"
    );
    // And it converges on post-election leader state through the
    // ordinary replication stream.
    cluster
        .leader()
        .core()
        .store
        .put("fedtest", "post-heal", b"converged".to_vec())
        .expect("leader write");
    let healed_store = std::sync::Arc::clone(&cluster.nodes[stale_index].core().store);
    assert!(
        wait_until(Duration::from_secs(10), || {
            healed_store.get("fedtest", "post-heal").as_deref() == Some(b"converged".as_ref())
        }),
        "healed node never resynced from the new leader"
    );
    cluster.cleanup();
}
