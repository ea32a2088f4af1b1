//! Federation: aggregate throughput of discovery-routed balanced clients
//! at 1, 2 and 4 nodes, then a mid-run node-kill drill and a
//! session-affinity comparison.
//!
//! The scaling phase is deliberately latency-bound: its clients call a
//! method the drill registers on every node, which answers after 10 ms on
//! the worker that runs it, so each node's capacity is `workers / 10 ms`
//! rather than a share of this machine's CPU. Adding nodes adds capacity
//! exactly as adding hosts would in the paper's grid deployment, and
//! single-machine CI can still observe the scaling.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens::registry::param::any;
use clarens::registry::{Method, Service};
use clarens_federation::{BalancedClient, FederationCluster};
use clarens_wire::Value;

use crate::args::Args;
use crate::header;

/// Leader-lease duration of every cluster this drill starts.
const LEASE_MS: u64 = 500;

/// The scaling phase's method (see the module docs).
struct SlowEcho;

impl Service for SlowEcho {
    const METHODS: &'static [Method<Self>] = &[Method::new(
        "echo.slow",
        "Return the argument unchanged, 10 ms later",
        &[any("value")],
        |_, _, args| {
            std::thread::sleep(Duration::from_millis(10));
            Ok(args.value(0)?.clone())
        },
    )];
}

pub fn run(args: &Args) {
    let (quick, seed) = (args.quick, args.seed.unwrap_or(1));
    header(&format!(
        "Federation — aggregate throughput vs node count, plus a node-kill drill (seed {seed})"
    ));
    println!("Every client resolves its method through the station network, steers by the");
    println!("published p95 latency attributes (power-of-two-choices), and re-resolves");
    println!("with endpoint blacklisting on transport failure. Node 0 is elected the first");
    println!("leader ({LEASE_MS} ms lease); followers replicate its WAL, so the session minted on");
    println!("the leader authenticates everywhere. The clients call echo.slow, an echo");
    println!("that answers 10 ms later, so each node is latency-bound.\n");

    const CLIENTS: usize = 32;
    let window = (args.point * 2).clamp(Duration::from_secs(2), Duration::from_secs(30));

    // One timed scaling measurement: `clients` balanced clients hammer an
    // n-node cluster for `window`; returns (calls/sec, wrong answers).
    let measure = |n: usize, clients: usize, window: Duration| -> (f64, u64) {
        let cluster = FederationCluster::start(n, LEASE_MS);
        for node in &cluster.nodes {
            node.core().register(Arc::new(SlowEcho));
        }
        let session = cluster.user_session();
        let stop = Arc::new(AtomicBool::new(false));
        let ok = Arc::new(AtomicU64::new(0));
        let wrong = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();
        for i in 0..clients {
            let mut client = cluster
                .balanced_client(&session, seed ^ (i as u64).wrapping_mul(0x9e37_79b9))
                .with_call_deadline(Duration::from_secs(5))
                .with_repin_every(12);
            let stop = Arc::clone(&stop);
            let ok = Arc::clone(&ok);
            let wrong = Arc::clone(&wrong);
            threads.push(std::thread::spawn(move || {
                let mut n = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    n += 1;
                    match client.call("echo.slow", vec![Value::Int(n)]) {
                        Ok(v) if v == Value::Int(n) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(other) => {
                            eprintln!("WRONG ANSWER (client {i}): {other:?}, sent {n}");
                            wrong.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {}
                    }
                }
            }));
        }
        // Ramp first: the fleet's initial placement is a random spread;
        // periodic re-pinning needs a moment to even it out before the
        // steady state is worth measuring.
        std::thread::sleep(
            window
                .mul_f64(0.75)
                .clamp(Duration::from_millis(750), Duration::from_secs(5)),
        );
        let begin = Instant::now();
        let ok_at_begin = ok.load(Ordering::Relaxed);
        std::thread::sleep(window);
        let measured = ok.load(Ordering::Relaxed) - ok_at_begin;
        let elapsed = begin.elapsed();
        stop.store(true, Ordering::Relaxed);
        for t in threads {
            t.join().expect("federation client");
        }
        cluster.cleanup();
        (
            measured as f64 / elapsed.as_secs_f64(),
            wrong.load(Ordering::Relaxed),
        )
    };

    let node_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    println!(
        "{:>8} {:>12} {:>14} {:>10}",
        "nodes", "clients", "calls/sec", "speedup"
    );
    let mut rates = Vec::new();
    for &n in node_counts {
        let (rate, wrong) = measure(n, CLIENTS, window);
        assert_eq!(wrong, 0, "the {n}-node run must not return wrong answers");
        let speedup = rate / rates.first().copied().unwrap_or(rate);
        println!("{n:>8} {CLIENTS:>12} {rate:>14.0} {speedup:>9.2}x");
        rates.push(rate);
    }
    if rates.len() >= 2 {
        let s2 = rates[1] / rates[0];
        assert!(
            s2 >= 1.7,
            "2 nodes must deliver >= 1.7x the 1-node rate (got {s2:.2}x)"
        );
    }
    if rates.len() >= 3 {
        let s4 = rates[2] / rates[0];
        assert!(
            s4 >= 3.0,
            "4 nodes must deliver >= 3x the 1-node rate (got {s4:.2}x)"
        );
    }

    // --- Node-kill drill -------------------------------------------------
    // Pin 8 clients, kill the node most of them are pinned to, and require
    // every affected client to re-resolve via discovery with zero wrong
    // answers.
    let drill_nodes = if quick { 2 } else { 3 };
    println!("\nnode-kill drill: {drill_nodes} nodes, 8 clients, victim killed mid-run");
    let mut cluster = FederationCluster::start(drill_nodes, LEASE_MS);
    let session = cluster.user_session();
    let mut clients: Vec<BalancedClient> = (0..8)
        .map(|i| {
            cluster
                .balanced_client(
                    &session,
                    seed ^ (0xD41 + i as u64).wrapping_mul(0x9e37_79b9),
                )
                .with_call_deadline(Duration::from_secs(5))
        })
        .collect();
    // Warmup pins every client to some node.
    let mut wrong = 0u64;
    for (i, client) in clients.iter_mut().enumerate() {
        for _ in 0..3 {
            let n = i as i64;
            match client.call("echo.echo", vec![Value::Int(n)]) {
                Ok(v) if v == Value::Int(n) => {}
                _ => wrong += 1,
            }
        }
    }
    assert_eq!(wrong, 0, "warmup must not return wrong answers");
    let pins: Vec<String> = clients
        .iter()
        .map(|c| c.current_url().expect("pinned after warmup").to_string())
        .collect();
    // Victim: the url with the most pinned clients (ties: first seen).
    let victim = pins
        .iter()
        .max_by_key(|url| pins.iter().filter(|p| p == url).count())
        .expect("eight pins")
        .clone();
    let affected = pins.iter().filter(|p| **p == victim).count();
    let index = cluster
        .nodes
        .iter()
        .position(|node| node.url == victim)
        .expect("victim in cluster");
    println!("killing {victim} ({affected}/8 clients pinned to it)");
    let killed = cluster.kill(index);

    // Post-kill phase: every client keeps calling; affected ones must fail
    // over. 40 calls per client is enough to ride out the blacklist
    // cooldown several times over.
    let threads: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(i, mut client)| {
            let killed = killed.clone();
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut wrong = 0u64;
                for n in 0..40i64 {
                    match client.call("echo.echo", vec![Value::Int(n)]) {
                        Ok(v) if v == Value::Int(n) => ok += 1,
                        Ok(other) => {
                            eprintln!("WRONG ANSWER (drill client {i}): {other:?}, sent {n}");
                            wrong += 1;
                        }
                        Err(_) => {}
                    }
                }
                assert_ne!(
                    client.current_url(),
                    Some(killed.as_str()),
                    "drill client {i} ended the run pinned to the dead node"
                );
                (ok, wrong, client.failovers(), client.resolutions())
            })
        })
        .collect();
    let results: Vec<(u64, u64, u64, u64)> = threads
        .into_iter()
        .map(|t| t.join().expect("drill client"))
        .collect();

    let total_ok: u64 = results.iter().map(|r| r.0).sum();
    let total_wrong: u64 = results.iter().map(|r| r.1).sum();
    let failovers: u64 = results.iter().map(|r| r.2).sum();
    let rebound = results.iter().filter(|r| r.0 > 0).count();
    println!("{:>36} {:>12}", "metric", "value");
    println!("{:>36} {:>12}", "post-kill correct responses", total_ok);
    println!("{:>36} {:>12}", "wrong answers", total_wrong);
    println!("{:>36} {:>12}", "failovers (endpoint abandoned)", failovers);
    println!(
        "{:>36} {:>11}%",
        "clients re-resolved and serving",
        rebound * 100 / 8
    );
    assert_eq!(
        total_wrong, 0,
        "the kill drill must not produce wrong answers"
    );
    assert!(affected > 0, "the drill must actually strand some clients");
    assert!(
        failovers as usize >= affected,
        "every client pinned to the victim must fail over ({affected} affected, {failovers} failovers)"
    );
    assert_eq!(
        rebound, 8,
        "100% of clients must re-resolve via discovery and keep serving"
    );
    cluster.cleanup();

    // --- Session-affinity phase ------------------------------------------
    // Rendezvous hashing pins each session to one node, keeping that
    // node's session-resolution cache hot; p2c with aggressive re-pinning
    // spreads the same session over every node and pays a cold resolve on
    // each. Run the same many-session workload under both placement
    // policies and compare the fleet-wide session-cache counters.
    let aff_nodes = if quick { 2 } else { 3 };
    let session_count = if quick { 6 } else { 12 };
    let calls_per_session = 16i64;
    println!(
        "\nsession-affinity phase: {aff_nodes} nodes, {session_count} sessions, \
         {calls_per_session} calls each, re-pin every 2 calls"
    );
    let run_policy = |affinity: bool| -> (u64, u64) {
        let cluster = FederationCluster::start(aff_nodes, LEASE_MS);
        let sessions: Vec<String> = (0..session_count).map(|_| cluster.user_session()).collect();
        let stats = |cluster: &FederationCluster| {
            cluster.nodes.iter().fold((0u64, 0u64), |(h, m), node| {
                let s = node.server.core.sessions.cache_stats();
                (h + s.hits, m + s.misses)
            })
        };
        let (hits_before, misses_before) = stats(&cluster);
        for (i, session) in sessions.iter().enumerate() {
            let mut client = cluster
                .balanced_client(
                    session,
                    seed ^ (0xAFF1 + i as u64).wrapping_mul(0x9e37_79b9),
                )
                .with_call_deadline(Duration::from_secs(5))
                .with_repin_every(2);
            if affinity {
                client = client.with_session_affinity();
            }
            for n in 0..calls_per_session {
                match client.call("echo.echo", vec![Value::Int(n)]) {
                    Ok(v) if v == Value::Int(n) => {}
                    other => panic!("affinity-phase call failed: {other:?}"),
                }
            }
        }
        let (hits_after, misses_after) = stats(&cluster);
        cluster.cleanup();
        (hits_after - hits_before, misses_after - misses_before)
    };
    let (p2c_hits, p2c_misses) = run_policy(false);
    let (aff_hits, aff_misses) = run_policy(true);
    let hit_rate = |hits: u64, misses: u64| 100.0 * hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "{:>36} {:>10} {:>10} {:>9}",
        "placement", "hits", "misses", "hit rate"
    );
    println!(
        "{:>36} {:>10} {:>10} {:>8.1}%",
        "p2c (latency-steered)",
        p2c_hits,
        p2c_misses,
        hit_rate(p2c_hits, p2c_misses)
    );
    println!(
        "{:>36} {:>10} {:>10} {:>8.1}%",
        "rendezvous session affinity",
        aff_hits,
        aff_misses,
        hit_rate(aff_hits, aff_misses)
    );
    assert!(
        aff_misses < p2c_misses,
        "affinity must reduce session-cache misses ({aff_misses} vs {p2c_misses})"
    );
    assert!(
        hit_rate(aff_hits, aff_misses) > hit_rate(p2c_hits, p2c_misses),
        "affinity must improve the session-cache hit rate"
    );

    println!(
        "\nfederation run passed (seed {seed}): scaling gates met, kill drill clean, \
         affinity cache win confirmed"
    );
}
