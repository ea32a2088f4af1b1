//! Chaos: the Figure-4 workload under a seeded, randomized fault
//! schedule. The correctness gate for the resilience work: a fault may
//! cost a retry or surface as a clean error, but every response a client
//! actually decodes must be the right answer.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens::testkit::{GridOptions, TestGrid};
use clarens_bench::bench_session;
use clarens_faults::sites;
use clarens_wire::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::args::Args;
use crate::header;

pub fn run(args: &Args) {
    let seed = args.seed.unwrap_or(1);
    header(&format!(
        "Chaos — Figure-4 workload under a randomized fault schedule (seed {seed})"
    ));
    println!("Eight resilient clients loop echo.echo and system.list_methods while a");
    println!("seeded scheduler arms and clears probabilistic failpoints on the server's");
    println!("accept/read/write paths (plus whatever $CLARENS_FAULTS adds). Mid-run, one");
    println!("injected WAL write failure degrades the store to read-only. Gates: zero");
    println!("wrong answers, reads keep flowing while degraded, and client retries");
    println!("absorb >= 95% of the injected transient errors.\n");

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
    let injected_before = clarens_faults::injected_total();

    const CLIENTS: usize = 8;
    let stop = Arc::new(AtomicBool::new(false));
    let ok = Arc::new(AtomicU64::new(0));
    let wrong = Arc::new(AtomicU64::new(0));
    let surfaced = Arc::new(AtomicU64::new(0));
    let retries = Arc::new(AtomicU64::new(0));
    let mut clients = Vec::new();
    for i in 0..CLIENTS {
        let addr = grid.addr();
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

    // The fault scheduler: arm one network-edge site at a time with a
    // 5-20% probabilistic error (sometimes plus a small delay), dwell,
    // clear, pause — all derived from the seed so a run replays exactly.
    let sched_stop = Arc::clone(&stop);
    let scheduler = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = [sites::HTTPD_ACCEPT, sites::HTTPD_READ, sites::HTTPD_WRITE];
        while !sched_stop.load(Ordering::Relaxed) {
            let site = edges[(rng.next_u64() % edges.len() as u64) as usize];
            let p = 0.05 + (rng.next_u64() % 16) as f64 / 100.0;
            let spec = if rng.next_u64() % 4 == 0 {
                format!("delay:2ms|err|p={p:.2}")
            } else {
                format!("err|p={p:.2}")
            };
            clarens_faults::configure(site, &spec).expect("chaos spec");
            std::thread::sleep(Duration::from_millis(30 + rng.next_u64() % 60));
            clarens_faults::clear(site);
            std::thread::sleep(Duration::from_millis(10 + rng.next_u64() % 40));
        }
    });

    // Mid-run degraded-mode drill: arm one WAL append failure, then drive
    // durable writes (each login persists its session through the WAL)
    // until one trips it and poisons the store read-only. The login layer
    // rides out persistence failure, so only the store flips state.
    std::thread::sleep(window / 2);
    {
        let _guard = clarens_faults::with(sites::DB_WAL_APPEND, "err|times=1");
        let degraded_by = Instant::now() + Duration::from_secs(5);
        while !grid.core().store.is_degraded() && Instant::now() < degraded_by {
            let mut fresh = grid.client(&grid.admin);
            let _ = fresh.login();
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    assert!(
        grid.core().store.is_degraded(),
        "the injected WAL write failure must degrade the store"
    );
    // Degraded means read-only, not down: the full RPC read path still
    // answers (under retries, since the edge faults are still armed)...
    let mut probe = clarens::ClarensClient::new(grid.addr()).with_retries(6);
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

    std::thread::sleep(window / 2);
    stop.store(true, Ordering::Relaxed);
    scheduler.join().expect("fault scheduler");
    for client in clients {
        client.join().expect("chaos client");
    }

    let (ok, wrong, surfaced) = (
        ok.load(Ordering::Relaxed),
        wrong.load(Ordering::Relaxed),
        surfaced.load(Ordering::Relaxed),
    );
    let recovered = retries.load(Ordering::Relaxed);
    let injected = clarens_faults::injected_total() - injected_before;
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
