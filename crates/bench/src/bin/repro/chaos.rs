//! Chaos: the Figure-4 workload under a seeded, randomized fault
//! schedule. The correctness gate for the resilience work: a fault may
//! cost a retry or surface as a clean error, but every response a client
//! actually decodes must be the right answer.
//!
//! The faults are real: each client reaches the server through its own
//! loopback edge, which cuts requests and responses off midway on a
//! schedule drawn from the seed, so the server sees real resets and
//! closes; the WAL failure is a write the grid's disk double fails.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use clarens::testkit::{GridOptions, TestGrid};
use clarens_bench::bench_session;
use clarens_db::{Call, Fault};
use clarens_wire::fault::codes;
use clarens_wire::Value;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One chunk in this many that an edge carries is cut off midway.
const FAULT_ONE_IN: u64 = 12;
/// One request chunk in this many waits this long first: the ambient
/// latency of every schedule.
const DELAY_ONE_IN: u64 = 20;
const DELAY: Duration = Duration::from_millis(1);

/// A client's edge: a loopback proxy to `server` that, with odds drawn
/// from `rng`, forwards half of a chunk and then closes both sides (a
/// request or a response cut off midway), counting each in `injected`.
fn edge(server: SocketAddr, rng: StdRng, injected: Arc<AtomicU64>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("edge listener");
    let addr = listener.local_addr().expect("edge address");
    let rng = Arc::new(Mutex::new(rng));
    std::thread::spawn(move || {
        for client in listener.incoming() {
            let (Ok(client), Ok(upstream)) = (client, TcpStream::connect(server)) else {
                continue;
            };
            let pair = (client.try_clone(), upstream.try_clone());
            let (Ok(client_in), Ok(upstream_in)) = pair else {
                continue;
            };
            for (from, to, request) in [(client_in, upstream, true), (upstream_in, client, false)] {
                let (rng, injected) = (Arc::clone(&rng), Arc::clone(&injected));
                std::thread::spawn(move || pump(from, to, request, &rng, &injected));
            }
        }
    });
    addr
}

/// Carry `from`'s bytes to `to` until either side ends or a fault cuts
/// them; then close both, which ends the pump of the other direction.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    request: bool,
    rng: &Mutex<StdRng>,
    injected: &AtomicU64,
) {
    let mut buf = [0u8; 16 * 1024];
    while let Ok(n @ 1..) = from.read(&mut buf) {
        let roll = rng.lock().unwrap_or_else(|e| e.into_inner()).next_u64();
        if request && roll.is_multiple_of(DELAY_ONE_IN) {
            std::thread::sleep(DELAY);
        }
        if (roll >> 8).is_multiple_of(FAULT_ONE_IN) {
            injected.fetch_add(1, Ordering::Relaxed);
            let _ = to.write_all(&buf[..n / 2]);
            break;
        }
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

use crate::args::Args;
use crate::header;

pub fn run(args: &Args) {
    let seed = args.seed.unwrap_or(1);
    header(&format!(
        "Chaos — Figure-4 workload under a randomized fault schedule (seed {seed})"
    ));
    println!("Eight resilient clients loop echo.echo and system.list_methods, each through");
    println!("its own seeded edge that cuts about one chunk in {FAULT_ONE_IN} off midway (a");
    println!("request reset, a response closed) and delays one request in {DELAY_ONE_IN} by 1 ms.");
    println!("Mid-run, the grid's disk fails one WAL write, which degrades the store to");
    println!("read-only. Gates: zero wrong answers, reads keep flowing while degraded, and");
    println!("client retries absorb >= 95% of the injected transient errors.\n");

    let window = (args.point * 3).clamp(Duration::from_secs(2), Duration::from_secs(60));
    // A persistent store, so the WAL degraded-mode drill is end-to-end.
    let db_dir = std::env::temp_dir().join(format!("clarens-chaos-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&db_dir);
    std::fs::create_dir_all(&db_dir).expect("chaos db dir");
    let grid = TestGrid::start_with(GridOptions {
        workers: 16,
        db_path: Some(db_dir.join("chaos-db")),
        ..Default::default()
    });
    let session = bench_session(&grid);
    // Logged in before any fault is armed, for the degraded-mode drill.
    let mut admin = grid.logged_in_client(&grid.admin).with_retries(6);
    let server: SocketAddr = grid.addr().parse().expect("grid address");
    let injected = Arc::new(AtomicU64::new(0));

    const CLIENTS: usize = 8;
    let stop = Arc::new(AtomicBool::new(false));
    let ok = Arc::new(AtomicU64::new(0));
    let wrong = Arc::new(AtomicU64::new(0));
    let surfaced = Arc::new(AtomicU64::new(0));
    let retries = Arc::new(AtomicU64::new(0));
    let mut clients = Vec::new();
    for i in 0..CLIENTS {
        let faults = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64));
        let addr = edge(server, faults, Arc::clone(&injected)).to_string();
        let session = session.clone();
        let stop = Arc::clone(&stop);
        let ok = Arc::clone(&ok);
        let wrong = Arc::clone(&wrong);
        let surfaced = Arc::clone(&surfaced);
        let retries = Arc::clone(&retries);
        clients.push(std::thread::spawn(move || {
            let mut client = clarens::ClarensClient::new(addr)
                .with_retries(4)
                .with_retry_seed(seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64))
                .with_call_deadline(Duration::from_secs(5));
            client.set_session(session);
            let mut n = 0i64;
            while !stop.load(Ordering::Relaxed) {
                n += 1;
                // Three trivial echoes per DB-backed registry scan, like
                // the Figure-4 mix.
                let verdict = if n % 4 == 0 {
                    match client.call("system.list_methods", vec![]) {
                        Ok(Value::Array(methods))
                            if methods.len() >= 10
                                && methods.contains(&Value::Str("echo.echo".into())) =>
                        {
                            Ok(())
                        }
                        Ok(other) => Err(Some(format!("bad method list: {other:?}"))),
                        Err(_) => Err(None),
                    }
                } else {
                    match client.call("echo.echo", vec![Value::Int(n)]) {
                        Ok(v) if v == Value::Int(n) => Ok(()),
                        Ok(other) => Err(Some(format!("echoed {other:?}, sent {n}"))),
                        Err(_) => Err(None),
                    }
                };
                match verdict {
                    Ok(()) => {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(Some(details)) => {
                        eprintln!("WRONG ANSWER (client {i}): {details}");
                        wrong.fetch_add(1, Ordering::Relaxed);
                    }
                    // A clean fault: the client saw an error, never bad data.
                    Err(None) => {
                        surfaced.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            retries.fetch_add(client.retries_performed(), Ordering::Relaxed);
        }));
    }

    // Mid-run degraded-mode drill: the disk fails the next WAL write,
    // then durable writes (each login persists its session through the
    // WAL) run until one trips it and poisons the store read-only. The
    // login layer rides out persistence failure, so only the store flips
    // state.
    std::thread::sleep(window / 2);
    grid.disk().arm(Call::Write, Fault::Fail, 1);
    let degraded_by = Instant::now() + Duration::from_secs(5);
    while !grid.core().store.is_degraded() && Instant::now() < degraded_by {
        let mut fresh = grid.client(&grid.admin);
        let _ = fresh.login();
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        grid.core().store.is_degraded(),
        "the injected WAL write failure must degrade the store"
    );
    // Degraded means read-only, not down: the full RPC read path still
    // answers (through an edge of its own, under retries)...
    let faults = StdRng::seed_from_u64(!seed);
    let probe_edge = edge(server, faults, Arc::clone(&injected)).to_string();
    let mut probe = clarens::ClarensClient::new(probe_edge).with_retries(6);
    probe.set_session(session.clone());
    probe
        .call("system.list_methods", vec![])
        .expect("degraded store must still serve reads");
    // ...while writes are refused fast with the documented error.
    let refusal = grid
        .core()
        .store
        .put("chaos", "probe", b"write".to_vec())
        .expect_err("degraded store must refuse writes");
    assert!(
        clarens_db::is_degraded_error(&refusal),
        "refusal must carry the documented degraded error: {refusal}"
    );
    // ...and so are RPC mutations: an admin's ACL edit answers the DEGRADED
    // fault (code 9) and leaves the node as it was.
    let acl_before = grid.core().acl.method_acl("echo");
    let eve = Value::from(grid.user.certificate.subject.to_string());
    let deny = Value::structure([("deny_dns", Value::Array(vec![eve]))]);
    match admin.call("acl.set_method", vec![Value::from("echo"), deny]) {
        Err(clarens::ClientError::Fault(fault)) => assert_eq!(fault.code, codes::DEGRADED),
        other => panic!("acl.set_method on a degraded store answered {other:?}"),
    }
    assert_eq!(
        grid.core().acl.method_acl("echo"),
        acl_before,
        "a refused ACL edit changed the node"
    );

    std::thread::sleep(window / 2);
    stop.store(true, Ordering::Relaxed);
    for client in clients {
        client.join().expect("chaos client");
    }

    let (ok, wrong, surfaced) = (
        ok.load(Ordering::Relaxed),
        wrong.load(Ordering::Relaxed),
        surfaced.load(Ordering::Relaxed),
    );
    let recovered = retries.load(Ordering::Relaxed);
    let injected = injected.load(Ordering::Relaxed);
    let transients = recovered + surfaced;
    let recovery = recovered as f64 / transients.max(1) as f64;
    println!("{:>36} {:>12}", "metric", "value");
    println!("{:>36} {:>12}", "correct responses", ok);
    println!("{:>36} {:>12}", "wrong answers", wrong);
    println!("{:>36} {:>12}", "faults injected", injected);
    println!("{:>36} {:>12}", "transients absorbed by retry", recovered);
    println!("{:>36} {:>12}", "errors surfaced to callers", surfaced);
    println!(
        "{:>36} {:>11.1}%  (gate: >= 95%)",
        "retry recovery",
        recovery * 100.0
    );
    println!(
        "{:>36} {:>12}",
        "server deadline faults",
        grid.core().telemetry.resilience.deadline_exceeded.get()
    );
    println!(
        "{:>36} {:>12}",
        "store degraded (read-only)",
        grid.core().store.is_degraded() as u64
    );

    assert!(ok > 0, "the workload must complete calls under chaos");
    assert_eq!(wrong, 0, "chaos must never produce a wrong answer");
    assert!(injected > 0, "the schedule must actually inject faults");
    if transients > 0 {
        assert!(
            recovery >= 0.95,
            "client retries must absorb >= 95% of transient faults \
             (recovered {recovered}, surfaced {surfaced})"
        );
    }
    println!("\nchaos run passed (seed {seed}): {ok} correct responses, 0 wrong");
    grid.cleanup();
    let _ = std::fs::remove_dir_all(&db_dir);
}
