//! Leader-failover drill (DESIGN.md §14). Two seeded phases on an
//! election-managed 3-node cluster:
//!
//!   1. **Leader kill.** Writers mint sessions (replicated, barrier-acked
//!      writes) and readers echo through balanced clients while the
//!      elected leader is killed mid-run. Gates: a follower promotes
//!      within 3 lease intervals, every session acked before the kill
//!      re-authenticates on the new leader (zero acked-then-lost), the
//!      readers return zero wrong answers, and writes flow again after
//!      the election.
//!   2. **Split-brain injection.** The elected leader's discovery uplink
//!      is cut while its RPC plane stays up; once a rival claims epoch
//!      N+1, a burst of writes is aimed at the deposed leader, half of
//!      them directly and half through its `proxy.call`. Gates: 100% of the stale writes are rejected with NOT_LEADER
//!      (`clarens_fenced_writes_total` > 0), none leak into the
//!      replicated store, and on healing the old leader demotes and
//!      resyncs (`clarens_demotions_total` >= 1).
//!
//! Each phase ends with every live node's logged buckets digested beside
//! the leader's; the run prints both phases' digests on one line and fails
//! unless every node holds what its leader holds.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use clarens::ClarensClient;
use clarens_federation::{federation_pki, FederationCluster, FederationNode};
use clarens_pki::md5::Md5;
use clarens_wire::fault::codes;
use clarens_wire::Value;

use crate::args::Args;
use crate::header;

pub fn run(args: &Args) {
    let (quick, seed) = (args.quick, args.seed.unwrap_or(1));
    let lease_ms: u64 = if quick { 500 } else { 750 };
    header(&format!(
        "Leader failover — lease-based election, epoch fencing, write rerouting (seed {seed})"
    ));
    println!("3 nodes under lease-based elections (lease {lease_ms} ms, jitter < lease / 5).");
    println!("Phase 1 kills the elected leader under a live login/read workload; phase 2");
    println!("partitions the leader's election traffic and aims writes straight at it.\n");

    // --- Phase 1: leader kill under load ---------------------------------
    let mut cluster = FederationCluster::start(3, lease_ms);
    let session = cluster.user_session();
    let addrs: Vec<String> = cluster.nodes.iter().map(|n| n.addr.clone()).collect();
    let old_index = cluster.leader_index().expect("initial leader");
    let old_epoch = cluster.nodes[old_index].core().federation.epoch();

    let stop = Arc::new(AtomicBool::new(false));
    // Each acked session, with how long its login took (ms).
    let acked: Arc<Mutex<Vec<(String, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let wrong = Arc::new(AtomicU64::new(0));
    let reads_ok = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::new();
    // Writers: each successful login is a replicated write the leader
    // acked — the barrier guarantees a follower applied it first, so none
    // may be lost across the failover. Writers spray all three addresses;
    // the client's NOT_LEADER redirect finds the leader from any of them.
    for w in 0..3u64 {
        let stop = Arc::clone(&stop);
        let acked = Arc::clone(&acked);
        let addrs = addrs.clone();
        let user = federation_pki().user.clone();
        threads.push(std::thread::spawn(move || {
            let mut n = seed.wrapping_mul(0x9e37_79b9).wrapping_add(w);
            while !stop.load(Ordering::Relaxed) {
                n = n.wrapping_mul(6364136223846793005).wrapping_add(1);
                let addr = &addrs[(n >> 33) as usize % addrs.len()];
                let mut client = ClarensClient::new(addr.clone())
                    .with_credential(user.clone())
                    .with_retries(0)
                    .with_call_deadline(Duration::from_secs(2));
                let started = Instant::now();
                if let Ok(id) = client.login() {
                    let ms = started.elapsed().as_secs_f64() * 1e3;
                    acked.lock().unwrap().push((id, ms));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }));
    }
    // Readers: balanced echo traffic; any mismatched answer is a wrong
    // answer regardless of what the cluster is going through.
    for r in 0..4u64 {
        let stop = Arc::clone(&stop);
        let wrong = Arc::clone(&wrong);
        let reads_ok = Arc::clone(&reads_ok);
        let mut client = cluster
            .balanced_client(&session, seed ^ (0xFA11 + r).wrapping_mul(0x9e37_79b9))
            .with_call_deadline(Duration::from_secs(2));
        threads.push(std::thread::spawn(move || {
            let mut n = 0i64;
            while !stop.load(Ordering::Relaxed) {
                n += 1;
                match client.call("echo.echo", vec![Value::Int(n)]) {
                    Ok(v) if v == Value::Int(n) => {
                        reads_ok.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(other) => {
                        eprintln!("WRONG ANSWER (reader {r}): {other:?}, sent {n}");
                        wrong.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {}
                }
            }
        }));
    }

    // Ramp, then kill the leader mid-run.
    let ramp = args
        .point
        .clamp(Duration::from_millis(750), Duration::from_secs(3));
    std::thread::sleep(ramp);
    // The replicated-write numbers: the logins acked before the kill.
    let mut login_ms: Vec<f64> = acked.lock().unwrap().iter().map(|a| a.1).collect();
    let acked_before_kill = login_ms.len();
    login_ms.sort_by(f64::total_cmp);
    let login_pct = |p: f64| {
        let last = login_ms.len().saturating_sub(1);
        (login_ms.get((last as f64 * p).round() as usize)).map_or(f64::NAN, |ms| *ms)
    };
    let killed_at = Instant::now();
    cluster.kill(old_index);
    // Promotion clock: a follower must claim epoch N+1 within 3 leases.
    let budget = Duration::from_millis(3 * lease_ms);
    let hard_deadline = killed_at + Duration::from_millis(10 * lease_ms);
    let promoted_in = loop {
        let done = cluster
            .leader_index()
            .is_some_and(|i| cluster.nodes[i].core().federation.epoch() > old_epoch);
        if done {
            break killed_at.elapsed();
        }
        assert!(
            Instant::now() < hard_deadline,
            "no follower promoted within {} ms",
            10 * lease_ms
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    // Let writes flow against the new leader for a while before stopping.
    std::thread::sleep(
        args.point
            .clamp(Duration::from_millis(750), Duration::from_secs(3)),
    );
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().expect("workload thread");
    }

    let new_leader = cluster.leader_index().expect("post-kill leader");
    let new_addr = cluster.nodes[new_leader].addr.clone();
    let new_epoch = cluster.nodes[new_leader].core().federation.epoch();
    let acked = Arc::try_unwrap(acked)
        .expect("writers joined")
        .into_inner()
        .unwrap();
    let acked_after_kill = acked.len() - acked_before_kill;
    // Zero acked-then-lost: every acked session authenticates on the new
    // leader (its log contained the record when it sealed the epoch).
    let mut lost = 0usize;
    for (id, _) in &acked {
        let mut probe = ClarensClient::new(new_addr.clone())
            .with_retries(1)
            .with_call_deadline(Duration::from_secs(2));
        probe.set_session(id.clone());
        if probe.call("system.whoami", vec![]).is_err() {
            lost += 1;
        }
    }

    println!("{:>40} {:>12}", "metric", "value");
    println!(
        "{:>40} {:>12}",
        "promotion after kill (ms)",
        promoted_in.as_millis()
    );
    println!(
        "{:>40} {:>12}",
        "promotion budget: 3 leases (ms)",
        budget.as_millis()
    );
    println!(
        "{:>40} {:>11}/{}",
        "new leader epoch (was)", new_epoch, old_epoch
    );
    println!(
        "{:>40} {:>12}",
        "sessions acked before kill", acked_before_kill
    );
    println!(
        "{:>40} {:>12}",
        "sessions acked after kill", acked_after_kill
    );
    println!(
        "{:>40} {:>12.2}",
        "login p50 before kill (ms)",
        login_pct(0.5)
    );
    println!(
        "{:>40} {:>12.2}",
        "login p99 before kill (ms)",
        login_pct(0.99)
    );
    println!(
        "{:>40} {:>12.1}",
        "acked logins/s before kill",
        acked_before_kill as f64 / ramp.as_secs_f64()
    );
    println!("{:>40} {:>12}", "acked-then-lost writes", lost);
    println!(
        "{:>40} {:>12}",
        "correct reads",
        reads_ok.load(Ordering::Relaxed)
    );
    println!(
        "{:>40} {:>12}",
        "wrong answers",
        wrong.load(Ordering::Relaxed)
    );
    assert!(
        promoted_in <= budget,
        "promotion took {} ms, budget {} ms",
        promoted_in.as_millis(),
        budget.as_millis()
    );
    assert!(new_epoch > old_epoch, "promotion must bump the epoch");
    assert!(
        acked_before_kill > 0,
        "the drill must ack writes before the kill"
    );
    assert_eq!(lost, 0, "acked writes were lost across the failover");
    assert!(
        acked_after_kill > 0,
        "writes never flowed again after the election"
    );
    assert_eq!(
        wrong.load(Ordering::Relaxed),
        0,
        "readers saw wrong answers"
    );
    let after_kill = converged(&cluster);
    cluster.cleanup();

    // --- Phase 2: split-brain injection ----------------------------------
    println!("\nsplit-brain injection: partition the leader's election traffic, elect a");
    println!("rival, aim {} writes straight at the deposed leader", 20);
    let cluster = FederationCluster::start(3, lease_ms);
    let session = cluster.user_session();
    let stale_index = cluster.leader_index().expect("initial leader");
    let stale_epoch = cluster.nodes[stale_index].core().federation.epoch();
    cluster.nodes[stale_index].set_partitioned(true);
    let rival_deadline = Instant::now() + Duration::from_millis(10 * lease_ms);
    while !cluster.nodes.iter().enumerate().any(|(i, n)| {
        i != stale_index && n.is_leader() && n.core().federation.epoch() > stale_epoch
    }) {
        assert!(
            Instant::now() < rival_deadline,
            "no rival leader emerged behind the partition"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let user_dn = federation_pki().user.certificate.subject.to_string();
    let stale_addr = cluster.nodes[stale_index].addr.clone();
    let fenced_before = cluster.nodes[stale_index]
        .core()
        .telemetry
        .federation
        .fenced_writes
        .get();
    let (mut fenced, mut accepted, mut other_err) = (0u64, 0u64, 0u64);
    for n in 0..20 {
        let mut stale_client = ClarensClient::new(stale_addr.clone())
            .with_retries(0)
            .with_call_deadline(Duration::from_secs(2));
        stale_client.set_session(session.clone());
        let send = vec![
            Value::Str(user_dn.clone()),
            Value::Str(format!("stale-{n}")),
        ];
        // Every other write arrives through `proxy.call`: the fence is the
        // gate's, so the route must make no difference.
        let sent = if n % 2 == 0 {
            stale_client.call("im.send", send)
        } else {
            stale_client.call(
                "proxy.call",
                vec![Value::Str("im.send".into()), Value::Array(send)],
            )
        };
        match sent {
            Ok(_) => accepted += 1,
            Err(clarens::ClientError::Fault(f)) if f.code == codes::NOT_LEADER => fenced += 1,
            Err(_) => other_err += 1,
        }
    }
    let fenced_total = cluster.nodes[stale_index]
        .core()
        .telemetry
        .federation
        .fenced_writes
        .get()
        - fenced_before;
    // None of the stale writes may exist anywhere in the replicated store.
    let mut count_probe = cluster.nodes[cluster.leader_index().expect("rival")].client();
    count_probe.set_session(session.clone());
    let leaked = count_probe
        .call("im.count", vec![])
        .expect("im.count on the rival leader");

    // Heal: the deposed leader sees the rival's epoch and demotes.
    cluster.nodes[stale_index].set_partitioned(false);
    let heal_deadline = Instant::now() + Duration::from_millis(10 * lease_ms);
    while cluster.nodes[stale_index].is_leader()
        || cluster.nodes[stale_index]
            .core()
            .telemetry
            .federation
            .demotions
            .get()
            == 0
    {
        assert!(
            Instant::now() < heal_deadline,
            "partitioned leader never demoted after healing"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let demotions = cluster.nodes[stale_index]
        .core()
        .telemetry
        .federation
        .demotions
        .get();

    println!("{:>40} {:>12}", "metric", "value");
    println!("{:>40} {:>12}", "stale writes fenced (NOT_LEADER)", fenced);
    println!("{:>40} {:>12}", "stale writes accepted", accepted);
    println!("{:>40} {:>12}", "stale writes other errors", other_err);
    println!(
        "{:>40} {:>12}",
        "fenced_writes_total (stale node)", fenced_total
    );
    println!(
        "{:>40} {:>12}",
        "messages leaked to the store",
        format!("{leaked:?}")
    );
    println!("{:>40} {:>12}", "demotions after heal", demotions);
    assert_eq!(accepted, 0, "a deposed leader acknowledged stale writes");
    assert_eq!(
        fenced, 20,
        "100% of stale writes must be fenced with NOT_LEADER"
    );
    assert!(fenced_total > 0, "clarens_fenced_writes_total never ticked");
    assert_eq!(leaked, Value::Int(0), "stale writes leaked into the store");
    assert!(demotions >= 1, "healing must demote the deposed leader");
    let after_heal = converged(&cluster);
    cluster.cleanup();

    let line = |(leader, rest): &(String, Vec<String>)| format!("{leader} | {}", rest.join(" "));
    println!(
        "\nlogged state, leader | followers: after the kill {}; after the heal {}",
        line(&after_kill),
        line(&after_heal)
    );
    for (leader, rest) in [&after_kill, &after_heal] {
        assert!(
            rest.iter().all(|d| d == leader),
            "a follower's logged state differs from its leader's"
        );
    }

    println!(
        "\nfailover run passed (seed {seed}): promotion within 3 leases, 0 acked-then-lost, \
         0 wrong answers, split-brain 100% fenced, demotion on heal, followers converged"
    );
}

/// The leader's logged-state digest and every other node's, once they
/// agree or after 5 s.
fn converged(cluster: &FederationCluster) -> (String, Vec<String>) {
    let leader = cluster.leader_index().expect("a leader");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let lead = logged_digest(&cluster.nodes[leader]);
        let others = cluster
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != leader);
        let rest: Vec<String> = others.map(|(_, node)| logged_digest(node)).collect();
        if rest.iter().all(|d| *d == lead) || Instant::now() > deadline {
            return (lead, rest);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The first 8 hex digits of an MD5 over a node's logged buckets: every
/// bucket, key and value in order, each length-prefixed.
fn logged_digest(node: &FederationNode) -> String {
    let store = &node.core().store;
    let mut md5 = Md5::new();
    let logged = store.bucket_names().into_iter();
    for bucket in logged.filter(|b| !clarens_db::is_node_local(b)) {
        for (key, value) in store.scan_prefix(&bucket, "") {
            for part in [bucket.as_bytes(), key.as_bytes(), &value] {
                md5.update(&(part.len() as u64).to_le_bytes());
                md5.update(part);
            }
        }
    }
    clarens_pki::sha256::to_hex(&md5.finalize())[..8].to_owned()
}
