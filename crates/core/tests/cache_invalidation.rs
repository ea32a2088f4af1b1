//! Integration tests for the epoch-invalidated authorization caches: the
//! full request path (real TCP, sessions, ACL walk) must never serve a
//! stale grant — every revocation is visible on the very next request —
//! while repeat requests are answered from the caches.

use clarens::acl::{Acl, FileAcl};
use clarens::testkit::{dn, GridOptions, TestGrid};
use clarens::ClientError;
use clarens_wire::fault::codes;
use clarens_wire::Value;

fn assert_denied(result: Result<Value, ClientError>) {
    match result {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::ACCESS_DENIED, "{f:?}"),
        other => panic!("expected access-denied fault, got {other:?}"),
    }
}

#[test]
fn method_acl_revocation_is_immediate() {
    let grid = TestGrid::start();
    let mut client = grid.logged_in_client(&grid.user);

    // Warm every cache layer with repeated allowed calls.
    for i in 0..3 {
        client.call("echo.echo", vec![Value::Int(i)]).unwrap();
    }
    // Revoke: the next request must already see the deny — no stale-grant
    // window, even though the decision was cached a moment ago.
    grid.core().acl.set_method_acl("echo", &Acl::deny_dn("*"));
    assert_denied(client.call("echo.echo", vec![Value::Int(9)]));
    // Re-granting is equally immediate.
    grid.core().acl.set_method_acl("echo", &Acl::allow_dn("*"));
    client.call("echo.echo", vec![Value::Int(10)]).unwrap();
    grid.cleanup();
}

#[test]
fn vo_membership_revocation_is_immediate() {
    let grid = TestGrid::start();
    let admin = dn(&grid.admin.certificate.subject.to_string());
    let user = grid.user.certificate.subject.to_string();
    let core = grid.core();

    // Gate echo behind a VO group instead of the permissive wildcard.
    core.vo.create_group(&admin, "testers").unwrap();
    core.acl
        .set_method_acl("echo", &Acl::allow_group("testers"));

    let mut client = grid.logged_in_client(&grid.user);
    assert_denied(client.call("echo.echo", vec![Value::Int(1)]));
    // A VO-side grant flips the cached deny on the next request...
    core.vo.add_member(&admin, "testers", &user).unwrap();
    client.call("echo.echo", vec![Value::Int(2)]).unwrap();
    client.call("echo.echo", vec![Value::Int(3)]).unwrap();
    // ...and a VO-side revocation flips it back, despite the cached allow.
    core.vo.remove_member(&admin, "testers", &user).unwrap();
    assert_denied(client.call("echo.echo", vec![Value::Int(4)]));
    grid.cleanup();
}

#[test]
fn file_acl_revocation_is_immediate_on_get_path() {
    let grid = TestGrid::start();
    grid.write_file("/sec/data.txt", b"payload");
    let mut client = grid.logged_in_client(&grid.user);

    assert_eq!(client.http_get_file("/sec/data.txt").unwrap(), b"payload");
    grid.core().acl.set_file_acl(
        "/sec",
        &FileAcl {
            read: Acl::deny_dn("*"),
            write: Acl::default(),
        },
    );
    match client.http_get_file("/sec/data.txt") {
        Err(ClientError::Http(403, body)) => {
            // GET errors keep the paper's XML error format.
            assert!(body.contains("<error"), "{body}");
        }
        other => panic!("expected 403, got {other:?}"),
    }
    grid.core().acl.clear_file_acl("/sec");
    assert_eq!(client.http_get_file("/sec/data.txt").unwrap(), b"payload");
    grid.cleanup();
}

#[test]
fn logout_revokes_cached_session() {
    let grid = TestGrid::start();
    let mut client = grid.logged_in_client(&grid.user);
    // Warm the resolved-session cache.
    client.call("system.whoami", vec![]).unwrap();
    client.call("system.whoami", vec![]).unwrap();
    assert_eq!(
        client.call("system.logout", vec![]).unwrap(),
        Value::Bool(true)
    );
    // The cached session must not outlive the logout.
    match client.call("system.whoami", vec![]) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::NOT_AUTHENTICATED, "{f:?}"),
        other => panic!("expected not-authenticated fault, got {other:?}"),
    }
    grid.cleanup();
}

#[test]
fn sessions_survive_restart_with_cache_layer() {
    let db = std::env::temp_dir().join(format!("clarens-cache-restart-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&db);

    let grid = TestGrid::start_with(GridOptions {
        db_path: Some(db.clone()),
        seed: 0xCAC4E,
        ..Default::default()
    });
    let mut client = grid.logged_in_client(&grid.user);
    let session = client.session_id().unwrap().to_owned();
    client.call("system.whoami", vec![]).unwrap();
    grid.cleanup();

    // "Restart": a new server process over the same DB starts with cold
    // caches — the store stays the source of truth.
    let grid2 = TestGrid::start_with(GridOptions {
        db_path: Some(db.clone()),
        seed: 0xCAC4E,
        ..Default::default()
    });
    let mut revived = grid2.client(&grid2.user);
    revived.set_session(session);
    let who = revived.call("system.whoami", vec![]).unwrap();
    assert_eq!(
        who.as_str().unwrap(),
        grid2.user.certificate.subject.to_string()
    );
    // The first revived call reloaded from the store (a miss); repeats are
    // served from the rebuilt cache.
    let misses = grid2.core().sessions.cache_stats().misses;
    assert!(misses > 0, "revived session should have missed the cache");
    let hits_before = grid2.core().sessions.cache_stats().hits;
    revived.call("system.whoami", vec![]).unwrap();
    assert!(grid2.core().sessions.cache_stats().hits > hits_before);
    grid2.cleanup();
    let _ = std::fs::remove_file(&db);
}

/// A session record that arrives via WAL replication is applied as a raw
/// store write (`store.put` into the `sessions` bucket by the follower's
/// applier) — it never passes through `SessionManager::create`. The epoch
/// invalidation must still work end to end: the foreign session
/// authenticates, a replicated overwrite of a *cached* session is visible
/// on the very next request, and a replicated delete revokes it.
#[test]
fn replicated_session_record_invalidates_cache_epoch() {
    use clarens::session::SESSIONS_BUCKET;

    let grid = TestGrid::start();
    let core = grid.core();
    let now = core.now();
    let record = |dn: &str, expires: i64| {
        clarens_wire::json::to_string(&Value::structure([
            ("dn", Value::from(dn)),
            ("created", Value::Int(now)),
            ("expires", Value::Int(expires)),
            ("proxy", Value::Nil),
        ]))
        .into_bytes()
    };
    let user_dn = grid.user.certificate.subject.to_string();
    let admin_dn = grid.admin.certificate.subject.to_string();

    // A session minted on another federation node lands in the bucket.
    let id = "ab".repeat(32);
    core.store
        .put(SESSIONS_BUCKET, &id, record(&user_dn, now + 600))
        .unwrap();
    let mut client = grid.client(&grid.user);
    client.set_session(id.clone());
    assert_eq!(
        client.call("system.whoami", vec![]).unwrap().as_str(),
        Some(user_dn.as_str()),
        "replicated session should authenticate without a local create"
    );
    // Warm the resolved-session cache with a repeat call.
    client.call("system.whoami", vec![]).unwrap();

    // A replicated overwrite of the cached record (here: the leader
    // re-bound the session to a different identity) must be served on the
    // next request — the bucket-generation bump is the only signal.
    core.store
        .put(SESSIONS_BUCKET, &id, record(&admin_dn, now + 600))
        .unwrap();
    assert_eq!(
        client.call("system.whoami", vec![]).unwrap().as_str(),
        Some(admin_dn.as_str()),
        "cached session must not survive a replicated overwrite"
    );

    // A replicated delete (leader-side logout) revokes the session.
    core.store.delete(SESSIONS_BUCKET, &id).unwrap();
    match client.call("system.whoami", vec![]) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::NOT_AUTHENTICATED, "{f:?}"),
        other => panic!("expected not-authenticated fault, got {other:?}"),
    }
    grid.cleanup();
}

/// A follower replicating mid-stream when the leader background-compacts:
/// the epoch bump forces the follower's cursor back to `(new_epoch, 0)`,
/// the compacted log doubles as a full-state snapshot, and the follower's
/// epoch-invalidated session cache must converge on post-compaction
/// leader state — a re-bound session is visible, a revoked one is gone.
#[test]
fn follower_session_cache_converges_across_leader_compaction() {
    use std::time::Duration;

    use clarens::session::SESSIONS_BUCKET;
    use clarens_federation::Replicator;
    use monalisa_sim::station::wait_until;

    let db = std::env::temp_dir().join(format!(
        "clarens-compact-replica-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&db);

    // Leader persists (only the WAL backend ships a log); the follower
    // applies into its own in-memory store via the ordinary write path.
    let leader = TestGrid::start_with(GridOptions {
        db_path: Some(db.clone()),
        seed: 0xC0317AC7,
        ..Default::default()
    });
    // TestGrid runs standalone; export the leader-side WAL stream the way
    // a `federation_role: leader` server would.
    leader
        .core()
        .register(std::sync::Arc::new(clarens::services::ReplicationService));
    let follower = TestGrid::start_with(GridOptions {
        seed: 0xF0110 + 1,
        ..Default::default()
    });
    let replicator = Replicator::start(
        std::sync::Arc::clone(follower.core()),
        leader.addr(),
        leader.admin.clone(),
    );

    // A session minted on the leader authenticates on the follower once
    // the record ships.
    let leader_client = leader.logged_in_client(&leader.user);
    let session = leader_client.session_id().unwrap().to_owned();
    let user_dn = leader.user.certificate.subject.to_string();
    let mut follower_client = follower.client(&follower.user);
    follower_client.set_session(session.clone());
    assert!(
        wait_until(Duration::from_secs(10), || {
            follower_client
                .call("system.whoami", vec![])
                .is_ok_and(|who| who.as_str() == Some(user_dn.as_str()))
        }),
        "leader session never authenticated on the follower"
    );
    // Warm the follower's resolved-session cache.
    follower_client.call("system.whoami", vec![]).unwrap();

    // Churn the leader's log, then compact mid-stream. The epoch bump
    // invalidates the follower's cursor; the leader serves the compacted
    // snapshot from offset 0 and the follower resyncs.
    for i in 0..500 {
        leader
            .core()
            .store
            .put("churn", "hot", format!("v{i}").into_bytes())
            .unwrap();
    }
    leader.core().store.compact().unwrap();
    assert_eq!(leader.core().store.wal_epoch(), 1);

    // Post-compaction: re-bind the session to a different identity on the
    // leader (a raw replicated overwrite, as another node would see it).
    let admin_dn = leader.admin.certificate.subject.to_string();
    let now = leader.core().now();
    let rebound = clarens_wire::json::to_string(&Value::structure([
        ("dn", Value::from(admin_dn.as_str())),
        ("created", Value::Int(now)),
        ("expires", Value::Int(now + 600)),
        ("proxy", Value::Nil),
    ]));
    leader
        .core()
        .store
        .put(SESSIONS_BUCKET, &session, rebound.into_bytes())
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            follower_client
                .call("system.whoami", vec![])
                .is_ok_and(|who| who.as_str() == Some(admin_dn.as_str()))
        }),
        "follower session cache never converged on the post-compaction re-bind"
    );

    // And a leader-side revocation shipped through the same resynced
    // stream kills the cached session.
    leader
        .core()
        .store
        .delete(SESSIONS_BUCKET, &session)
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            matches!(
                follower_client.call("system.whoami", vec![]),
                Err(ClientError::Fault(f)) if f.code == codes::NOT_AUTHENTICATED
            )
        }),
        "follower never saw the replicated revocation"
    );

    // The resync actually happened: the leader answered at least one
    // stale cursor by restarting the stream.
    assert!(
        leader.core().telemetry.federation.replication_resyncs.get() >= 1,
        "leader never restarted a follower cursor after compacting"
    );
    assert!(replicator.applied() > 0);
    replicator.stop();
    follower.cleanup();
    leader.cleanup();
    let _ = std::fs::remove_file(&db);
}

/// Failover from the cache's point of view (DESIGN.md §14): followers A
/// (persistent) and B (in-memory) replicate from a leader; the leader
/// dies; A is promoted exactly the way the election manager promotes it
/// (seal the log with an `EpochFence`, flip the role, serve the stream);
/// B re-points through `FederationState` — which is all the election
/// manager ever does to a replicator — and must resync from A's log.
/// The epoch-invalidated session/VO/ACL caches on B must converge on
/// post-promotion leader state, not hold what the dead leader shipped.
#[test]
fn follower_repoints_and_resyncs_across_promotion() {
    use std::time::Duration;

    use clarens::config::FederationRole;
    use clarens::session::SESSIONS_BUCKET;
    use clarens_federation::Replicator;
    use monalisa_sim::station::wait_until;

    let leader_db =
        std::env::temp_dir().join(format!("clarens-promo-leader-{}.wal", std::process::id()));
    let promoted_db =
        std::env::temp_dir().join(format!("clarens-promo-a-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&leader_db);
    let _ = std::fs::remove_file(&promoted_db);

    let leader = TestGrid::start_with(GridOptions {
        db_path: Some(leader_db.clone()),
        seed: 0xE7EC7,
        ..Default::default()
    });
    leader
        .core()
        .register(std::sync::Arc::new(clarens::services::ReplicationService));
    // A persists: its own WAL is what it serves once promoted.
    let a = TestGrid::start_with(GridOptions {
        db_path: Some(promoted_db.clone()),
        seed: 0xE7EC8,
        ..Default::default()
    });
    a.core()
        .register(std::sync::Arc::new(clarens::services::ReplicationService));
    let b = TestGrid::start_with(GridOptions {
        seed: 0xE7EC9,
        ..Default::default()
    });
    let repl_a = Replicator::start(
        std::sync::Arc::clone(a.core()),
        leader.addr(),
        leader.admin.clone(),
    );
    let repl_b = Replicator::start(
        std::sync::Arc::clone(b.core()),
        leader.addr(),
        leader.admin.clone(),
    );

    // Leader-side state: a session, and echo gated behind a VO group the
    // user belongs to (session + VO + ACL caches all in play).
    let leader_client = leader.logged_in_client(&leader.user);
    let session = leader_client.session_id().unwrap().to_owned();
    let user_dn = leader.user.certificate.subject.to_string();
    let admin = dn(&leader.admin.certificate.subject.to_string());
    leader.core().vo.create_group(&admin, "fenced").unwrap();
    leader
        .core()
        .vo
        .add_member(&admin, "fenced", &user_dn)
        .unwrap();
    leader
        .core()
        .acl
        .set_method_acl("echo", &Acl::allow_group("fenced"));

    // Both followers converge and warm their caches.
    for grid in [&a, &b] {
        let mut probe = grid.client(&grid.user);
        probe.set_session(session.clone());
        assert!(
            wait_until(Duration::from_secs(10), || {
                // The ACL is the last record written: once it is here, so
                // are the session and the group before it in the log.
                grid.core().acl.method_acl("echo") == Some(Acl::allow_group("fenced"))
                    && probe.call("echo.echo", vec![Value::Int(1)]).is_ok()
            }),
            "follower never converged on the leader's session/VO/ACL state"
        );
        probe.call("echo.echo", vec![Value::Int(2)]).unwrap();
    }

    // The leader dies. The followers' fetch loops hit transport errors
    // and back off (counted) instead of hot-spinning.
    leader.cleanup();
    assert!(
        wait_until(Duration::from_secs(10), || {
            b.core().telemetry.federation.replication_fetch_errors.get() >= 1
        }),
        "dead-leader fetches were never counted as errors"
    );

    // Promote A the way `ElectionManager::try_promote` does.
    let epoch = a.core().store.fence_epoch() + 1;
    a.core().store.append_fence(epoch).unwrap();
    a.core().store.sync().unwrap();
    a.core().federation.observe_epoch(epoch);
    a.core().federation.set_role(FederationRole::Leader);
    a.core().federation.set_leader(&a.addr());

    // Re-point B. Its replicator notices on the next cycle, reconnects,
    // and resyncs A's log from the top — including the fence record,
    // whose epoch B adopts.
    let applied_before = repl_b.applied();
    b.core().federation.set_leader(&a.addr());
    assert!(
        wait_until(Duration::from_secs(10), || {
            b.core().federation.epoch() == epoch && repl_b.applied() > applied_before
        }),
        "B never resynced through A's fence record"
    );

    // Post-promotion mutations on A reach B through the new stream, and
    // B's warm caches flip: a VO revocation denies the cached allow...
    a.core()
        .vo
        .remove_member(&admin, "fenced", &user_dn)
        .unwrap();
    let mut b_probe = b.client(&b.user);
    b_probe.set_session(session.clone());
    assert!(
        wait_until(Duration::from_secs(10), || {
            matches!(
                b_probe.call("echo.echo", vec![Value::Int(3)]),
                Err(ClientError::Fault(f)) if f.code == codes::ACCESS_DENIED
            )
        }),
        "B's cached VO grant survived the post-promotion revocation"
    );
    // ...and a session revocation on the new leader kills the cached
    // session on B.
    a.core().store.delete(SESSIONS_BUCKET, &session).unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            matches!(
                b_probe.call("system.whoami", vec![]),
                Err(ClientError::Fault(f)) if f.code == codes::NOT_AUTHENTICATED
            )
        }),
        "B's cached session survived the post-promotion logout"
    );

    assert!(repl_a.applied() > 0);
    repl_a.stop();
    repl_b.stop();
    b.cleanup();
    a.cleanup();
    let _ = std::fs::remove_file(&leader_db);
    let _ = std::fs::remove_file(&promoted_db);
}

#[test]
fn stats_rpc_reports_db_and_cache_counters() {
    let grid = TestGrid::start();
    let mut user = grid.logged_in_client(&grid.user);
    // Drive some cached traffic first.
    for i in 0..3 {
        user.call("echo.echo", vec![Value::Int(i)]).unwrap();
    }
    // Admin-gated, like session_count.
    assert_denied(user.call("system.stats", vec![]));

    let mut admin = grid.logged_in_client(&grid.admin);
    let stats = admin.call("system.stats", vec![]).unwrap();
    let db = stats.get("db").unwrap();
    assert!(db.get("lookups").unwrap().as_int().unwrap() > 0);
    assert!(db.get("writes").unwrap().as_int().unwrap() > 0);
    let cache = stats.get("cache").unwrap();
    for kind in ["sessions", "vo_groups", "acl_nodes", "acl_decisions"] {
        let entry = cache.get(kind).unwrap();
        assert!(entry.get("hits").unwrap().as_int().is_some(), "{kind}");
        assert!(entry.get("misses").unwrap().as_int().is_some(), "{kind}");
    }
    // The echo traffic above was answered from the decision cache.
    let decisions = cache.get("acl_decisions").unwrap();
    assert!(decisions.get("hits").unwrap().as_int().unwrap() > 0);
    grid.cleanup();
}
