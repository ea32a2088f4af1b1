//! Figure 4: `system.list_methods` throughput vs number of concurrent
//! clients (paper: 1..79 clients, ~1450 req/s average on 2005 hardware,
//! rising then flat), and the one SSL figure the paper gives beside it:
//! "Informal tests show the latter to reduce performance by up to 50%."

use clarens::testkit::{GridOptions, TestGrid};
use clarens_bench::{bench_grid, bench_session, measure_throughput, session_client};

use crate::args::Args;
use crate::header;

const METHOD: &str = "system.list_methods";
/// Client count of the SSL comparison (a point of the sweep).
const SSL_CLIENTS: usize = 8;

pub fn run(args: &Args) {
    header("Figure 4 — requests/second vs concurrent clients (system.list_methods, XML-RPC)");
    println!("Workload per the paper: every request passes the session check and the");
    println!("method ACL check, scans the method registry in the DB (30+ methods), and");
    println!("serializes the names as an XML-RPC string array. The method-registry scan");
    println!("is deliberately uncached, as the paper stresses; the session/ACL checks use");
    println!("the epoch-invalidated auth caches.\n");

    let grid = bench_grid();
    let session = bench_session(&grid);
    let addr = grid.addr();

    println!("{:>8} {:>12} {:>14}", "clients", "calls", "calls/sec");
    let mut total_calls = 0u64;
    let mut sum_rate = 0.0;
    let mut plain_rate = 0.0;
    let points = [1usize, 2, 4, SSL_CLIENTS, 12, 16, 24, 32, 48, 64, 79];
    for &clients in &points {
        let p = measure_throughput(clients, args.point, METHOD, || {
            session_client(&addr, &session)
        });
        println!("{:>8} {:>12} {:>14.0}", p.clients, p.calls, p.calls_per_sec);
        total_calls += p.calls;
        sum_rate += p.calls_per_sec;
        if clients == SSL_CLIENTS {
            plain_rate = p.calls_per_sec;
        }
    }
    let db_stats = grid.core().store.stats();
    println!(
        "\naverage over sweep: {:.0} calls/sec; {} requests completed without error",
        sum_rate / points.len() as f64,
        total_calls
    );
    println!(
        "DB activity: {} lookups + {} scans served (the paper's per-request DB lookups)",
        db_stats.lookups, db_stats.scans
    );
    let sessions = grid.core().sessions.cache_stats();
    let decisions = grid.core().acl.decision_cache_stats();
    println!(
        "auth caches: sessions {}/{} hits/misses, ACL decisions {}/{} hits/misses",
        sessions.hits, sessions.misses, decisions.hits, decisions.misses
    );
    // Server-side percentiles from the telemetry plane — latency as the
    // server observed it, free of client-side queueing.
    let telemetry = &grid.core().telemetry;
    let bytes_out = telemetry.http.bytes_out.get();
    let reuses = telemetry.http.buffer_pool_reuse.get();
    println!(
        "wire volume: {:.1} MiB written ({:.0} bytes/request); buffer pool reused {} buffers ({:.1}/request)",
        bytes_out as f64 / (1024.0 * 1024.0),
        bytes_out as f64 / total_calls.max(1) as f64,
        reuses,
        reuses as f64 / total_calls.max(1) as f64
    );
    if let Some((_, stats)) = telemetry
        .methods_snapshot()
        .iter()
        .find(|(name, _)| name == METHOD)
    {
        let snap = stats.latency.snapshot();
        println!(
            "server-side latency (system.list_methods): p50 {}µs  p95 {}µs  p99 {}µs  max {}µs  ({} samples)",
            snap.p50(),
            snap.p95(),
            snap.p99(),
            snap.max,
            snap.count
        );
    }
    println!("(paper, dual 2.8 GHz Xeon, 2005: average 1450 requests/sec, flat profile)");
    grid.cleanup();

    // The SSL point: same method, same driver, every client on its own
    // secure channel (identity from the handshake, no session header).
    let tls_grid = TestGrid::start_with(GridOptions {
        workers: 96,
        tls: true,
        ..Default::default()
    });
    let tls = measure_throughput(SSL_CLIENTS, args.point, METHOD, || {
        tls_grid.tls_client(&tls_grid.user)
    });
    tls_grid.cleanup();
    println!(
        "\nSSL: {SSL_CLIENTS} clients over the TLS-like channel, {:.0} calls/sec: {:.0}% below the \
         plaintext {SSL_CLIENTS}-client point (paper: \"up to 50%\")",
        tls.calls_per_sec,
        (1.0 - tls.calls_per_sec / plain_rate) * 100.0
    );
}
