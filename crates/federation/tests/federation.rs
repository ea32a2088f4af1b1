//! Federation integration tests: WAL-shipping replication convergence,
//! proxy routing to the module owner, discovery-driven failover, and
//! lease-based leader elections (promotion, split-brain fencing).

use std::time::{Duration, Instant};

use clarens::client::ClientError;
use clarens_federation::{federation_pki, FederationCluster};
use clarens_httpd::{HttpClient, Method, Request};
use clarens_wire::fault::codes;
use clarens_wire::{Fault, Protocol, RpcCall, Value};
use monalisa_sim::station::wait_until;

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
    let cluster = FederationCluster::start(2, 500);
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

/// Discovery is node-local: election ticks refresh every node's aggregated
/// view, but an idle federation writes nothing to the shipped log and
/// ships nothing to its followers.
#[test]
fn an_idle_federation_leaves_the_shipped_log_alone() {
    let cluster = FederationCluster::start(3, 500);
    let leader = cluster.leader();
    let written = || leader.core().store.storage_counters().bytes_written;
    let applied = || cluster.nodes[1..].iter().map(|n| n.replication_applied());
    // Start-up writes (the followers' replication logins) are shipped
    // first: sample only once every follower has applied the leader's
    // whole log.
    let caught_up = || {
        let end = leader.core().position();
        cluster.nodes[1..]
            .iter()
            .all(|n| n.core().position() >= end)
    };
    assert!(
        wait_until(Duration::from_secs(15), caught_up),
        "followers did not catch up with the leader's log"
    );
    let before = (written(), applied().collect::<Vec<_>>());
    std::thread::sleep(Duration::from_secs(1));
    assert_eq!((written(), applied().collect::<Vec<_>>()), before);
    cluster.cleanup();
}

/// Node-to-node calls speak clarens-binary: once an elected cluster is
/// idle and caught up, what still crosses between nodes (the followers'
/// held replication fetches) moves the leader's binary count and leaves
/// every node's XML-RPC count alone. A node advertises its modules on its
/// election tick, not through its own RPC surface: no node serves
/// `discovery.publish` or `system.auth` while idle.
#[test]
fn node_to_node_calls_speak_binary() {
    let cluster = FederationCluster::start(3, 500);
    let leader = cluster.leader();
    let caught_up = || {
        let end = leader.core().position();
        (cluster.nodes.iter()).all(|n| n.is_leader() || n.core().position() >= end)
    };
    assert!(
        wait_until(Duration::from_secs(15), caught_up),
        "followers did not catch up with the leader's log"
    );
    let counts = || -> Vec<[u64; 4]> {
        (cluster.nodes.iter())
            .map(|node| {
                let telemetry = &node.core().telemetry;
                let protocols = telemetry.protocols_snapshot();
                let protocol = |name| {
                    let row = protocols.iter().find(|(n, ..)| *n == name);
                    row.map(|(_, requests, _)| *requests).unwrap()
                };
                let methods = telemetry.methods_snapshot();
                let method = |name| {
                    let row = methods.iter().find(|(n, _)| n == name);
                    row.map_or(0, |(_, stats)| stats.calls.get())
                };
                [
                    protocol("xmlrpc"),
                    protocol("binary"),
                    method("discovery.publish"),
                    method("system.auth"),
                ]
            })
            .collect()
    };
    let before = counts();
    std::thread::sleep(Duration::from_secs(2));
    let after = counts();
    for (i, (before, after)) in before.iter().zip(&after).enumerate() {
        assert_eq!(after[0], before[0], "node {i}'s XML-RPC count moved");
        assert_eq!(
            after[2..],
            before[2..],
            "node {i} served discovery.publish or system.auth (calls of each)"
        );
    }
    let leader = cluster.leader_index().expect("a leader");
    assert!(
        after[leader][1] > before[leader][1],
        "the leader's binary count did not move"
    );
    cluster.cleanup();
}

#[test]
fn proxy_call_routes_to_module_owner() {
    let cluster = FederationCluster::start(2, 500);
    let session = cluster.user_session();

    // Only the leader exports the file module; the follower must forward.
    let mut client = cluster.nodes[1].client();
    client.set_session(session.clone());

    // Replication has reached the follower, yet it advertises only what
    // it exports itself, not its leader's method table.
    let mut exported: Vec<String> = {
        let registry = cluster.nodes[1].core().registry.read();
        clarens::services::records()
            .filter(|info| registry.lookup(info.name).is_some())
            .map(|info| info.name.to_owned())
            .collect()
    };
    exported.sort();
    let mut listed = client.list_methods().expect("follower list_methods");
    listed.sort();
    assert_eq!(listed, exported);
    assert!(!listed.iter().any(|name| name.starts_with("file.")));
    match client.call("system.get_method_info", vec![Value::from("file.ls")]) {
        Err(ClientError::Fault(fault)) => assert_eq!(fault.code, codes::NO_SUCH_METHOD),
        other => panic!("follower described file.ls: {other:?}"),
    }
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
    let mut cluster = FederationCluster::start(3, 500);
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
    let mut cluster = FederationCluster::start(3, 500);
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
fn split_brain_fences_stale_leader_and_demotes_on_heal() {
    let cluster = FederationCluster::start(3, 400);
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

/// Replicated writes wait off the workers: twice as many concurrent
/// `im.send` writers as the leader has workers, each on its own
/// connection, all get acked, and an `echo.echo` beside them is answered
/// too. Every acked message is on both followers afterwards, and once the
/// followers are gone no reply is left held. No latency is asserted: the
/// counts are the property.
#[test]
fn twice_workers_concurrent_writers_never_wedge_the_leader() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    const WRITERS: usize = 8; // 2 × the cluster's 4 workers
    let cluster = FederationCluster::start(3, 500);
    let session = cluster.user_session();
    let leader = cluster.leader();
    let addr = leader.addr.clone();
    let client = |session: &str| {
        let mut client = clarens::client::ClarensClient::new(addr.clone());
        client.set_session(session.to_owned());
        client
    };
    let done = Arc::new(AtomicBool::new(false));
    let echo = {
        let (mut client, done) = (client(&session), Arc::clone(&done));
        std::thread::spawn(move || {
            let (mut answered, mut failed) = (0u64, 0u64);
            while !done.load(Ordering::SeqCst) {
                match client.call("echo.echo", vec![Value::from("beside")]) {
                    Ok(_) => answered += 1,
                    Err(_) => failed += 1,
                }
            }
            (answered, failed)
        })
    };
    let started = Instant::now();
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let mut client = client(&session);
            std::thread::spawn(move || {
                let to = format!("/O=wedge/CN=writer-{t}");
                let (mut acked, mut failed) = (Vec::new(), Vec::new());
                // Below the 1 024-message mailbox cap.
                while started.elapsed() < Duration::from_secs(2) && acked.len() < 1_000 {
                    let params = vec![Value::from(to.as_str()), Value::from("wedge")];
                    match client.call("im.send", params) {
                        Ok(seq) => acked.push(format!("{to}|{:020}", seq.as_int().unwrap())),
                        Err(e) => failed.push(e.to_string()),
                    }
                }
                (acked, failed)
            })
        })
        .collect();
    let (mut acked, mut failed) = (Vec::new(), Vec::new());
    for writer in writers {
        let (a, f) = writer.join().unwrap();
        acked.extend(a);
        failed.extend(f);
    }
    done.store(true, Ordering::SeqCst);
    let (echoes, echo_failures) = echo.join().unwrap();
    assert!(
        failed.is_empty(),
        "{} of {} sends failed, first: {:?}",
        failed.len(),
        failed.len() + acked.len(),
        failed.first()
    );
    assert!(
        acked.len() >= 100,
        "only {} sends acked in 2 s",
        acked.len()
    );
    assert_eq!(echo_failures, 0, "echo failed beside the writers");
    assert!(echoes > 0, "echo never answered beside the writers");
    for node in cluster.nodes.iter().filter(|n| n.addr != addr) {
        let store = &node.core().store;
        assert!(
            wait_until(Duration::from_secs(10), || {
                acked
                    .iter()
                    .all(|key| store.get(clarens::services::im::IM_BUCKET, key).is_some())
            }),
            "a follower lacks acked messages"
        );
    }
    // What stays held is the followers' caught-up fetches: with the
    // followers gone, nothing is.
    let telemetry = Arc::clone(&leader.core().telemetry);
    let mut cluster = cluster;
    while let Some(follower) = cluster.nodes.iter().position(|n| n.addr != addr) {
        cluster.kill(follower);
    }
    let held = || telemetry.http.held_replies.get();
    assert!(
        wait_until(Duration::from_secs(5), || held() == 0),
        "{} replies still held",
        held()
    );
    cluster.cleanup();
}
