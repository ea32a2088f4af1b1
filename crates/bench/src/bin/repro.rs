//! Regenerate the paper's evaluation: every figure and quantitative claim,
//! printed as the same kind of series/rows the paper reports.
//!
//! ```sh
//! cargo run -p clarens-bench --release --bin repro -- all
//! cargo run -p clarens-bench --release --bin repro -- fig4
//! ```
//!
//! Experiments (ids match DESIGN.md / EXPERIMENTS.md):
//!   fig4       Figure 4 — throughput vs concurrent clients
//!   ssl        "SSL reduces performance by up to 50%"
//!   gt3        Globus-GT3 comparison (footnote 4: ~1–5 calls/s)
//!   stream     SC2003 bandwidth-challenge style file streaming
//!   discovery  local-DB vs station fan-out query latency
//!   ablation   request-path cost decomposition + GT3 knob attribution
//!   multiplex  Ablation F alone — parked keep-alive connection sweep on 4
//!              workers plus the max_connections shed (also runs as part
//!              of `ablation`)
//!   bw         Ablation G — zero-copy bulk data: sendfile GET throughput,
//!              and a 1024-client slow-reader swarm (10 KB/s each) priced
//!              against concurrent echo.echo on 4 workers
//!   quick      CI smoke: short workload, then assert GET /metrics serves
//!              non-zero request counts (snapshot to $METRICS_SNAPSHOT),
//!              the allocation ceiling holds, 256 parked keep-alive
//!              connections do not slow active traffic, a TLS keep-alive
//!              connection parks in the poller (`poll_wakeups` > 0, no
//!              handshake failures), a plaintext GET moves its body
//!              through sendfile (`bytes_sendfile` > 0), and a slow-reader
//!              swarm survives a short-write fault schedule
//!   chaos      Figure-4 workload under a seeded randomized fault schedule
//!              (`--seed N`, plus whatever $CLARENS_FAULTS arms): asserts
//!              zero wrong answers, reads survive a degraded (read-only)
//!              store, and client retries absorb >= 95% of transients
//!   federation Multi-node federation: aggregate echo.echo throughput at
//!              1/2/4 nodes behind discovery-routed balanced clients
//!              (gates: >= 1.7x from 1 to 2 nodes, >= 3x from 1 to 4),
//!              then a node-kill drill (`--seed N`) asserting zero wrong
//!              answers and 100% client re-resolution via discovery
//!              (`--quick`: 2-node scaling + the kill drill only)
//!   failover   Leader-failover drill (`--seed N`, `--quick`): kill the
//!              elected leader under a live login/read workload and gate
//!              on promotion within 3 lease intervals, zero acked-then-
//!              lost writes (every acked session re-authenticates on the
//!              new leader), and zero wrong answers; then a split-brain
//!              injection gating on 100% of stale-leader writes fenced
//!              (`clarens_fenced_writes_total` > 0) and demotion on heal
//!   storage    Storage-engine ablation (DESIGN.md §12): 16-writer durable
//!              append throughput under group commit (gate: fsyncs/op <=
//!              0.25), append-latency percentiles while the janitor compacts
//!              in the background (no-stall gate), cold restart of a churned
//!              100k-session store — uncompacted replay vs compacted (gate:
//!              compacted is faster) — and write amplification

use std::time::{Duration, Instant};

use clarens_bench::{
    alloc_count, bench_grid, bench_grid_tls, bench_grid_workers, bench_session,
    measure_allocs_per_request, measure_throughput, measure_throughput_params,
    measure_throughput_pipelined, measure_throughput_tls, MAX_ALLOCS_PER_ECHO_BINARY,
    MAX_ALLOCS_PER_ECHO_XMLRPC,
};
use clarens_wire::{Protocol, Value};

/// Count every heap allocation so the `quick` and `binproto` gates can
/// report server-side allocations per request. Counting is off until a
/// measurement window turns it on, so the wrapper is two branches on the
/// hot path for every other experiment.
#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

fn main() {
    let experiment = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    // Time budget per measurement point, overridable for quick runs.
    let point_secs: f64 = std::env::var("REPRO_POINT_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let point = Duration::from_secs_f64(point_secs);

    match experiment.as_str() {
        "fig4" => fig4(point),
        "ssl" => ssl(point),
        "gt3" => gt3(),
        "stream" => stream(),
        "discovery" => discovery(),
        "ablation" => ablation(point),
        "multiplex" => ablation_f(point),
        "bw" => bw(point),
        "quick" | "--quick" => quick(),
        "chaos" => chaos(point),
        "federation" => federation(point),
        "failover" => failover(point),
        "storage" => storage(point),
        "binproto" => binproto(point),
        "fuzz" => fuzz_cmd(),
        "all" => {
            fig4(point);
            ssl(point);
            gt3();
            stream();
            discovery();
            ablation(point);
            bw(point);
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; use fig4|ssl|gt3|stream|discovery|ablation|multiplex|bw|quick|chaos|federation|failover|storage|binproto|fuzz|all"
            );
            std::process::exit(2);
        }
    }
}

fn header(title: &str) {
    println!("\n==============================================================");
    println!("{title}");
    println!("==============================================================");
}

/// Figure 4: `system.list_methods` throughput vs number of concurrent
/// clients (paper: 1..79 clients, ~1450 req/s average on 2005 hardware,
/// rising then flat).
fn fig4(point: Duration) {
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
    let points = [1usize, 2, 4, 8, 12, 16, 24, 32, 48, 64, 79];
    for &clients in &points {
        let p = measure_throughput(
            &addr,
            &session,
            clients,
            point,
            "system.list_methods",
            Protocol::XmlRpc,
        );
        println!("{:>8} {:>12} {:>14.0}", p.clients, p.calls, p.calls_per_sec);
        total_calls += p.calls;
        sum_rate += p.calls_per_sec;
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
        .find(|(name, _)| name == "system.list_methods")
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
}

/// The SSL claim: "Informal tests show the latter to reduce performance by
/// up to 50%."
fn ssl(point: Duration) {
    header("SSL overhead — same workload, plaintext vs encrypted channel");
    let clients = 8;

    let grid = bench_grid();
    let session = bench_session(&grid);
    let plain = measure_throughput(
        &grid.addr(),
        &session,
        clients,
        point,
        "system.list_methods",
        Protocol::XmlRpc,
    );
    grid.cleanup();

    let tls_grid = bench_grid_tls();
    let tls = measure_throughput_tls(&tls_grid, clients, point);
    tls_grid.cleanup();

    println!("{:>12} {:>14}", "transport", "calls/sec");
    println!("{:>12} {:>14.0}", "plaintext", plain.calls_per_sec);
    println!("{:>12} {:>14.0}", "TLS-like", tls.calls_per_sec);
    println!(
        "\nreduction: {:.0}%  (paper: \"up to 50%\")",
        (1.0 - tls.calls_per_sec / plain.calls_per_sec) * 100.0
    );
}

/// The Globus comparison (footnote 4): a trivial method over GT3 ran at
/// ~1–5 calls/s vs Clarens' ~1450/s.
fn gt3() {
    header("Globus GT3 comparison — trivial method (echo.echo), 100 calls each");
    const CALLS: usize = 100;

    // Clarens path: keep-alive, one session, echo.echo.
    let grid = bench_grid();
    let mut client = grid.logged_in_client(&grid.user);
    // Warm-up call (the paper ignores the first invocation).
    client.call("echo.echo", vec![Value::Int(0)]).unwrap();
    let t0 = Instant::now();
    for i in 0..CALLS {
        client
            .call("echo.echo", vec![Value::Int(i as i64)])
            .unwrap();
    }
    let clarens_rate = CALLS as f64 / t0.elapsed().as_secs_f64();
    grid.cleanup();

    // GT3-like path: connection per call, per-message GSI auth, per-call
    // container boot, multi-pass message handling.
    let (root, credential) = gt3_baseline::test_credentials(0x61_u64);
    let server = gt3_baseline::Gt3Server::start(
        "127.0.0.1:0",
        gt3_baseline::Gt3Config::default(),
        vec![root],
    )
    .unwrap();
    let mut gt3_client = gt3_baseline::Gt3Client::new(
        server.local_addr().to_string(),
        gt3_baseline::Gt3Config::default(),
        credential,
    );
    gt3_client.echo(Value::Int(0)).unwrap(); // warm-up
    let t0 = Instant::now();
    for i in 0..CALLS {
        gt3_client.echo(Value::Int(i as i64)).unwrap();
    }
    let gt3_rate = CALLS as f64 / t0.elapsed().as_secs_f64();
    server.shutdown();

    println!("{:>14} {:>14}", "stack", "calls/sec");
    println!("{:>14} {:>14.1}", "clarens", clarens_rate);
    println!("{:>14} {:>14.1}", "gt3-baseline", gt3_rate);
    println!(
        "\nratio: {:.0}x  (paper: ~1450 vs 1-5 calls/sec, i.e. ~300-1400x)",
        clarens_rate / gt3_rate
    );
}

/// SC2003 bandwidth-challenge style streaming throughput.
fn stream() {
    header("File streaming — disk-to-client throughput (SC2003 bandwidth challenge)");
    const FILE_MB: usize = 64;
    let grid = bench_grid();
    let mut data = vec![0u8; FILE_MB * 1024 * 1024];
    let mut state = 1u64;
    for chunk in data.chunks_mut(8) {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let bytes = state.to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
    grid.write_file("/events.dat", &data);
    let session = bench_session(&grid);

    println!("{:>28} {:>10} {:>12}", "path", "streams", "MiB/s");
    // Single-stream GET (the sendfile-style path).
    let mut client = clarens::ClarensClient::new(grid.addr());
    client.set_session(session.clone());
    let t0 = Instant::now();
    let got = client.http_get_file("/events.dat").unwrap();
    let get_rate = got.len() as f64 / t0.elapsed().as_secs_f64() / (1024.0 * 1024.0);
    println!("{:>28} {:>10} {:>12.0}", "HTTP GET (streamed)", 1, get_rate);

    // Parallel GET streams.
    for streams in [2usize, 4] {
        let t0 = Instant::now();
        let mut handles = Vec::new();
        for _ in 0..streams {
            let addr = grid.addr();
            let session = session.clone();
            handles.push(std::thread::spawn(move || {
                let mut c = clarens::ClarensClient::new(addr);
                c.set_session(session);
                c.http_get_file("/events.dat").unwrap().len() as u64
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let rate = total as f64 / t0.elapsed().as_secs_f64() / (1024.0 * 1024.0);
        println!(
            "{:>28} {:>10} {:>12.0}",
            "HTTP GET (streamed)", streams, rate
        );
    }

    // RPC chunked pulls (base64 overhead + per-chunk round trips).
    let t0 = Instant::now();
    let rpc_bytes = client
        .file_download("/events.dat", 4 * 1024 * 1024)
        .unwrap();
    let rpc_rate = rpc_bytes.len() as f64 / t0.elapsed().as_secs_f64() / (1024.0 * 1024.0);
    println!(
        "{:>28} {:>10} {:>12.0}",
        "file.read RPC (4 MiB chunks)", 1, rpc_rate
    );

    println!(
        "\nGET/RPC ratio {:.1}x — the zero-copy-style GET path is why the paper \"hands\n\
         network I/O off to the web server\" for bulk data (3.2 Gb/s at SC2003).",
        get_rate / rpc_rate
    );
    let telemetry = &grid.core().telemetry;
    println!(
        "wire volume: {:.1} MiB written; buffer pool reused {} buffers",
        telemetry.http.bytes_out.get() as f64 / (1024.0 * 1024.0),
        telemetry.http.buffer_pool_reuse.get()
    );
    grid.cleanup();
}

/// Discovery: local aggregated DB vs synchronous station fan-out.
fn discovery() {
    header("Service discovery — aggregated local DB vs station fan-out (Figure 3)");
    use monalisa_sim::{
        DiscoveryAggregator, Publication, ServiceDescriptor, ServiceQuery, StationServer,
    };
    use std::sync::Arc;

    let stations: Vec<Arc<StationServer>> = (0..3)
        .map(|i| Arc::new(StationServer::spawn(format!("s{i}"), "127.0.0.1:0").unwrap()))
        .collect();
    let t = clarens::testkit::now();
    for site in 0..90 {
        for service in ["file", "proof", "runjob"] {
            stations[site % 3].publish_local(Publication::Service(ServiceDescriptor {
                url: format!("http://site{site:02}.example.edu:8080/clarens"),
                server_dn: format!("/O=grid/CN=host{site}"),
                service: service.into(),
                methods: vec![format!("{service}.run")],
                attributes: [("site".to_string(), format!("site{site:02}"))].into(),
                timestamp: t,
            }));
        }
    }
    let store = Arc::new(clarens_db::Store::in_memory());
    // The sweeper evicts descriptors whose stations stop heartbeating;
    // the fresh ones published above are far inside the window.
    let aggregator = DiscoveryAggregator::new(stations.clone(), store)
        .with_ttl(90, Arc::new(clarens::testkit::now));
    assert!(monalisa_sim::station::wait_until(
        Duration::from_secs(5),
        || aggregator.local_service_count() == 270,
    ));

    let query = ServiceQuery::by_service("proof");
    const N: usize = 500;
    let t0 = Instant::now();
    for _ in 0..N {
        let hits = aggregator.query_local(&query);
        assert_eq!(hits.len(), 90);
    }
    let local = t0.elapsed();
    let t0 = Instant::now();
    for _ in 0..N {
        let hits = aggregator.query_remote(&query);
        assert_eq!(hits.len(), 90);
    }
    let remote = t0.elapsed();

    println!(
        "90 sites x 3 services (270 descriptors) across 3 station servers; {N} queries each.\n"
    );
    println!("{:>28} {:>14} {:>14}", "path", "µs/query", "queries/sec");
    println!(
        "{:>28} {:>14.0} {:>14.0}",
        "local DB (aggregated)",
        local.as_micros() as f64 / N as f64,
        N as f64 / local.as_secs_f64()
    );
    println!(
        "{:>28} {:>14.0} {:>14.0}",
        "station fan-out (TCP)",
        remote.as_micros() as f64 / N as f64,
        N as f64 / remote.as_secs_f64()
    );
    println!(
        "\nspeedup {:.1}x — \"able to respond to service searches far more rapidly by\n\
         using the local database\" (§2.4)",
        remote.as_secs_f64() / local.as_secs_f64()
    );
    aggregator.shutdown();
}

/// Measurement rounds per Ablation-A sweep; each variant's fastest round
/// is kept. An 8-client sweep on a small shared host is scheduler-noise-
/// dominated (single points swing ±20%), so the variants are interleaved
/// — a slow stretch of the machine hits every variant, not just one —
/// and peak throughput is the comparable statistic.
const ABLATION_ROUNDS: usize = 3;

/// One request-path decomposition sweep (Ablation A rows) against a
/// running grid; returns (echo, ping) rates for the auth-overhead gap.
fn ablation_rows(grid: &clarens::testkit::TestGrid, point: Duration, clients: usize) -> (f64, f64) {
    let session = bench_session(grid);
    let addr = grid.addr();
    let variants: [(&str, &str, &'static str); 4] = [
        // Full Figure-4 path: session + ACL + DB scan + 30-string array.
        (
            "list_methods (session+ACL+DB scan)",
            &session,
            "system.list_methods",
        ),
        // Same checks, trivial payload: isolates the DB scan cost.
        ("echo.echo (session+ACL, no DB scan)", &session, "echo.echo"),
        // Public method WITH a session header: the session is resolved but
        // no ACL walk runs — isolates the session check from the ACL check.
        (
            "system.ping (session check, no ACL)",
            &session,
            "system.ping",
        ),
        // Public method, no session header: no session lookup, no ACL walk.
        ("system.ping (no session, no ACL)", "", "system.ping"),
    ];
    let mut best = [0.0f64; 4];
    for _ in 0..ABLATION_ROUNDS {
        for (i, (_, sess, method)) in variants.iter().enumerate() {
            let p = measure_throughput(&addr, sess, clients, point, method, Protocol::XmlRpc);
            best[i] = best[i].max(p.calls_per_sec);
        }
    }
    for (i, (label, _, _)) in variants.iter().enumerate() {
        println!("{:>44} {:>12.0}", label, best[i]);
    }
    let (echo, ping) = (best[1], best[3]);
    println!(
        "{:>44} {:>11.1}%",
        "echo.echo gap below ping (auth overhead)",
        (1.0 - echo / ping) * 100.0
    );
    (echo, ping)
}

/// CI smoke: drive a short workload, then prove the telemetry export
/// surface works end-to-end — `GET /metrics` as the site admin must serve
/// non-zero request counts. The exposition body is written to the path in
/// `$METRICS_SNAPSHOT` (default `metrics-snapshot.txt`) for upload as a
/// build artifact.
fn quick() {
    header("Quick smoke — telemetry export over a live server");
    let grid = bench_grid();
    let mut user = grid.logged_in_client(&grid.user);
    for i in 0..25 {
        user.call("echo.echo", vec![Value::Int(i)]).unwrap();
    }
    user.call("system.list_methods", vec![]).unwrap();

    let mut admin = grid.logged_in_client(&grid.admin);
    let (status, body) = admin.get_page("/metrics").expect("GET /metrics");
    assert_eq!(status, 200, "admin GET /metrics must answer 200");
    let requests: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("clarens_requests_total "))
        .expect("metrics must include clarens_requests_total")
        .parse()
        .expect("clarens_requests_total must be a number");
    assert!(
        requests > 0,
        "request counter must be non-zero after traffic"
    );
    assert!(
        body.contains("clarens_method_calls_total{method=\"echo.echo\"} 25"),
        "per-method counts must reflect the workload"
    );

    // Allocation regression gate, per protocol: steady-state echo.echo
    // over a warm keep-alive connection, with a lower ceiling for
    // clarens-binary than for XML-RPC (the ceilings and their rationale
    // live next to `MAX_ALLOCS_PER_ECHO_XMLRPC` in `clarens_bench`).
    assert!(
        alloc_count::allocator_installed(),
        "repro must run with the counting allocator"
    );
    let session = bench_session(&grid);
    for (name, protocol, ceiling) in [
        ("XML-RPC", Protocol::XmlRpc, MAX_ALLOCS_PER_ECHO_XMLRPC),
        (
            "clarens-binary",
            Protocol::Binary,
            MAX_ALLOCS_PER_ECHO_BINARY,
        ),
    ] {
        let alloc = measure_allocs_per_request(&grid.addr(), &session, 400, protocol);
        println!(
            "steady-state echo.echo [{name}]: {:.1} allocations/request, \
             {:.0} bytes/request (ceiling {ceiling})",
            alloc.allocs_per_call, alloc.bytes_per_call
        );
        assert!(
            alloc.allocs_per_call <= ceiling,
            "{name} allocations/request regressed: {:.1} > {ceiling}",
            alloc.allocs_per_call
        );
    }

    // Connection-scheduler gate: 256 parked keep-alive connections on a
    // 4-worker event-mode grid must cost active traffic no more than 10%
    // against an idle-free baseline grid of the same shape. Parked sockets
    // live in the poller, not on workers, so holding them should be close
    // to free. Interleaved best-of-3 rounds for the same scheduler-noise
    // reasons as Ablation A; the idlers are refreshed each round so the
    // server's 5 s idle timeout never reaps them mid-measurement.
    let base_grid = bench_grid_workers(4);
    let load_grid = bench_grid_workers(4);
    let base_session = bench_session(&base_grid);
    let load_session = bench_session(&load_grid);
    let mut idlers = clarens_bench::IdleConnections::open(&load_grid.addr(), 256);
    let gate_point = Duration::from_millis(1000);
    let (mut best_base, mut best_load) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        let base = measure_throughput(
            &base_grid.addr(),
            &base_session,
            8,
            gate_point,
            "echo.echo",
            Protocol::XmlRpc,
        );
        best_base = best_base.max(base.calls_per_sec);
        idlers.refresh();
        let load = measure_throughput(
            &load_grid.addr(),
            &load_session,
            8,
            gate_point,
            "echo.echo",
            Protocol::XmlRpc,
        );
        best_load = best_load.max(load.calls_per_sec);
    }
    let parked = load_grid.core().telemetry.http.parked.get();
    println!(
        "parked-idlers gate: idle-free {best_base:.0} calls/sec, with {} idle keep-alive \
         connections {best_load:.0} calls/sec ({:+.1}%); parked gauge {parked}",
        idlers.len(),
        (best_load / best_base - 1.0) * 100.0,
    );
    assert!(
        parked >= 250,
        "the idle connections must be parked in the poller (gauge {parked})"
    );
    assert!(
        best_load >= 0.90 * best_base,
        "256 parked connections slowed active traffic beyond 10%: \
         {best_load:.0} vs {best_base:.0} calls/sec"
    );
    drop(idlers);
    base_grid.cleanup();
    load_grid.cleanup();

    // Secure-channel gate: TLS connections ride the same scheduler. The
    // calls after the first arrive on a parked connection, which only the
    // poller can wake — and no handshake may have failed on the way.
    let tls_grid = clarens_bench::bench_grid_tls();
    let mut tls_client = tls_grid.tls_client(&tls_grid.user);
    for i in 0..10 {
        let v = tls_client
            .call("echo.echo", vec![Value::Int(i)])
            .expect("TLS echo");
        assert_eq!(v, Value::Int(i));
        // Let the connection park before the next request arrives.
        std::thread::sleep(Duration::from_millis(5));
    }
    let tls_http = &tls_grid.core().telemetry.http;
    println!(
        "secure-channel gate: 10 echo calls on one TLS connection, {} poll wakeups, \
         {} handshake failures",
        tls_http.poll_wakeups.get(),
        tls_http.handshake_failures.get()
    );
    assert!(
        tls_http.poll_wakeups.get() > 0,
        "a TLS keep-alive connection must park in the poller between requests"
    );
    assert_eq!(tls_http.handshake_failures.get(), 0);
    drop(tls_client);
    tls_grid.cleanup();

    // Bulk-data gate: a plaintext GET must hand its body to sendfile(2).
    // The code picks the copy engine itself (socket fd + Linux), so the
    // gate is on attribution, not on a comparison.
    let mut blob = vec![0u8; 8 * 1024 * 1024];
    let mut state = 0x6Au64;
    for chunk in blob.chunks_mut(8) {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let bytes = state.to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
    let bulk_grid = bench_grid_workers(4);
    bulk_grid.write_file("/gate.dat", &blob);
    let bulk_session = bench_session(&bulk_grid);
    let (_, get_rate) = clarens_bench::measure_get_throughput(
        &bulk_grid.addr(),
        &bulk_session,
        "/gate.dat",
        Duration::from_millis(400),
    );
    let via_sendfile = bulk_grid.core().telemetry.http.bytes_sendfile.get();
    println!(
        "bulk-data gate: single-stream GET {get_rate:.0} MiB/s, {:.1} MiB via sendfile",
        via_sendfile as f64 / (1024.0 * 1024.0)
    );
    if cfg!(target_os = "linux") {
        assert!(
            via_sendfile > 0,
            "a plaintext GET must route its body through sendfile"
        );
    }

    // Slow-reader swarm under the fault harness: 128 crawling GET readers
    // while a short-write failpoint fires on 5% of response writes. The
    // server must neither wedge nor serve a wrong answer — failed writes
    // cost the affected connection only, and retrying clients ride it out.
    {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;
        let injected_before = clarens_faults::injected_total();
        let _short_writes =
            clarens_faults::with(clarens_faults::sites::HTTPD_WRITE, "short:512|p=0.05");
        let swarm = clarens_bench::SlowReaderSwarm::open(
            &bulk_grid.addr(),
            &format!("/file/gate.dat?session={bulk_session}"),
            128,
            10 * 1024,
        );
        let stop = Arc::new(AtomicBool::new(false));
        let ok = Arc::new(AtomicU64::new(0));
        let mut drivers = Vec::new();
        for i in 0..8 {
            let addr = bulk_grid.addr();
            let session = bulk_session.clone();
            let stop = Arc::clone(&stop);
            let ok = Arc::clone(&ok);
            drivers.push(std::thread::spawn(move || {
                let mut client = clarens::ClarensClient::new(addr)
                    .with_retries(6)
                    .with_retry_seed(0xB1 + i as u64);
                client.set_session(session);
                let mut n = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    n += 1;
                    // A surfaced transient error is acceptable, never a
                    // wrong answer.
                    if let Ok(v) = client.call("echo.echo", vec![Value::Int(n)]) {
                        assert_eq!(v, Value::Int(n), "wrong echo under short writes");
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(1200));
        stop.store(true, Ordering::Relaxed);
        for d in drivers {
            d.join().expect("swarm gate driver");
        }
        let injected = clarens_faults::injected_total() - injected_before;
        let completed = ok.load(Ordering::Relaxed);
        println!(
            "fault-swarm gate: {completed} echo calls correct beside {} slow readers \
             with {injected} short-writes injected; swarm drained {:.1} MiB",
            swarm.len(),
            swarm.drained_bytes() as f64 / (1024.0 * 1024.0)
        );
        assert!(injected > 0, "the short-write failpoint must actually fire");
        assert!(
            completed > 100,
            "active RPC traffic must keep flowing under the fault schedule \
             (completed only {completed})"
        );
    }
    // The failpoint is disarmed: the grid must still serve cleanly.
    let mut probe = bulk_grid.logged_in_client(&bulk_grid.user);
    probe
        .call("echo.echo", vec![Value::Int(7)])
        .expect("grid must serve cleanly after the fault schedule");
    bulk_grid.cleanup();

    println!(
        "GET /metrics: {} bytes, clarens_requests_total {requests}",
        body.len()
    );
    let snapshot =
        std::env::var("METRICS_SNAPSHOT").unwrap_or_else(|_| "metrics-snapshot.txt".to_string());
    std::fs::write(&snapshot, &body).expect("write metrics snapshot");
    println!("snapshot written to {snapshot}");
    println!("quick smoke passed");
    grid.cleanup();
}

/// Chaos: the Figure-4 workload under a seeded, randomized fault
/// schedule. The correctness gate for the resilience work: a fault may
/// cost a retry or surface as a clean error, but every response a client
/// actually decodes must be the right answer.
fn chaos(point: Duration) {
    use clarens::testkit::{GridOptions, TestGrid};
    use clarens_faults::sites;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let argv: Vec<String> = std::env::args().collect();
    let seed: u64 = argv
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| argv.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    header(&format!(
        "Chaos — Figure-4 workload under a randomized fault schedule (seed {seed})"
    ));
    println!("Eight resilient clients loop echo.echo and system.list_methods while a");
    println!("seeded scheduler arms and clears probabilistic failpoints on the server's");
    println!("accept/read/write paths (plus whatever $CLARENS_FAULTS adds). Mid-run, one");
    println!("injected WAL write failure degrades the store to read-only. Gates: zero");
    println!("wrong answers, reads keep flowing while degraded, and client retries");
    println!("absorb >= 95% of the injected transient errors.\n");

    let window = (point * 3).clamp(Duration::from_secs(2), Duration::from_secs(60));
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

/// Ablation: where does the request time go, and which GT3 overhead knob
/// costs what.
fn ablation(point: Duration) {
    header("Ablation A — Clarens request-path decomposition (8 clients)");
    let clients = 8;

    println!("{:>44} {:>12}", "variant", "calls/sec");
    let grid = bench_grid();
    let (echo, ping) = ablation_rows(&grid, point, clients);
    let core = grid.core();
    let sessions = core.sessions.cache_stats();
    let decisions = core.acl.decision_cache_stats();
    println!(
        "cache counters: sessions {}/{} hits/misses, ACL decisions {}/{} hits/misses",
        sessions.hits, sessions.misses, decisions.hits, decisions.misses
    );
    println!(
        "target: cached echo.echo within 5% of ping — measured gap {:.1}%",
        (1.0 - echo / ping) * 100.0
    );

    // Telemetry overhead: the span-timed request path vs the counters-only
    // path, interleaved best-of rounds like the other ablations. Budget:
    // timing must cost echo.echo less than 5%.
    println!("\nAblation D — telemetry overhead (echo.echo, 8 clients)");
    println!("{:>44} {:>12}", "configuration", "calls/sec");
    let off_grid = clarens_bench::bench_grid_no_telemetry();
    let on_session = bench_session(&grid);
    let off_session = bench_session(&off_grid);
    let (mut best_on, mut best_off) = (0.0f64, 0.0f64);
    for _ in 0..ABLATION_ROUNDS {
        let on = measure_throughput(
            &grid.addr(),
            &on_session,
            clients,
            point,
            "echo.echo",
            Protocol::XmlRpc,
        );
        best_on = best_on.max(on.calls_per_sec);
        let off = measure_throughput(
            &off_grid.addr(),
            &off_session,
            clients,
            point,
            "echo.echo",
            Protocol::XmlRpc,
        );
        best_off = best_off.max(off.calls_per_sec);
    }
    off_grid.cleanup();
    println!(
        "{:>44} {:>12.0}",
        "telemetry on (spans + histograms)", best_on
    );
    println!("{:>44} {:>12.0}", "telemetry off (counters only)", best_off);
    println!(
        "{:>44} {:>11.1}%  (budget: < 5%)",
        "timing overhead",
        (1.0 - best_on / best_off) * 100.0
    );

    let session = bench_session(&grid);
    let addr = grid.addr();
    println!("\nAblation B — protocol comparison (echo.echo, 8 clients)");
    println!("{:>44} {:>12}", "protocol", "calls/sec");
    for (name, protocol) in [
        ("XML-RPC", Protocol::XmlRpc),
        ("SOAP", Protocol::Soap),
        ("JSON-RPC", Protocol::JsonRpc),
        ("clarens-binary", Protocol::Binary),
    ] {
        let p = measure_throughput(&addr, &session, clients, point, "echo.echo", protocol);
        println!("{:>44} {:>12.0}", name, p.calls_per_sec);
    }
    grid.cleanup();

    println!("\nAblation C — GT3 baseline overhead attribution (echo.echo, 30 calls each)");
    println!("{:>44} {:>12}", "configuration", "calls/sec");
    let variants: [(&str, gt3_baseline::Gt3Config); 5] = [
        (
            "all overheads (faithful GT3 model)",
            gt3_baseline::Gt3Config::default(),
        ),
        (
            "- per-call container boot",
            gt3_baseline::Gt3Config {
                per_call_container_boot: false,
                ..Default::default()
            },
        ),
        (
            "- per-message GSI auth",
            gt3_baseline::Gt3Config {
                per_call_auth: false,
                ..Default::default()
            },
        ),
        (
            "- connection per call (keep-alive)",
            gt3_baseline::Gt3Config {
                connection_per_call: false,
                ..Default::default()
            },
        ),
        (
            "none (all knobs off)",
            gt3_baseline::Gt3Config {
                per_call_auth: false,
                per_call_container_boot: false,
                handler_passes: 1,
                connection_per_call: false,
                deployed_services: 1,
            },
        ),
    ];
    for (name, config) in variants {
        let (root, credential) = gt3_baseline::test_credentials(77);
        let server =
            gt3_baseline::Gt3Server::start("127.0.0.1:0", config.clone(), vec![root]).unwrap();
        let mut client =
            gt3_baseline::Gt3Client::new(server.local_addr().to_string(), config, credential);
        client.echo(Value::Int(0)).unwrap();
        const CALLS: usize = 30;
        let t0 = Instant::now();
        for i in 0..CALLS {
            client.echo(Value::Int(i as i64)).unwrap();
        }
        println!(
            "{:>44} {:>12.1}",
            name,
            CALLS as f64 / t0.elapsed().as_secs_f64()
        );
        server.shutdown();
    }

    ablation_f(point);
}

/// Ablation G — the zero-copy bulk-data path: `sendfile(2)`-backed GET
/// downloads, then the price of a 1024-client slow-reader swarm on
/// concurrent RPC traffic. The paper "hands network I/O off to the web
/// server" for bulk data (§2.3); this is the in-process equivalent, with
/// the kernel doing the copy. EXPERIMENTS.md records the comparison
/// against the buffered copy loop.
fn bw(point: Duration) {
    header("Ablation G — zero-copy bulk data (GET /file over sendfile)");
    println!("Single-stream GET of a page-cache-hot file, best of 3 windows: file pages");
    println!("move straight to the socket with sendfile(2), no userspace staging.\n");

    const FILE_MB: usize = 32;
    let window = point.clamp(Duration::from_millis(500), Duration::from_secs(5));
    let mut data = vec![0u8; FILE_MB * 1024 * 1024];
    let mut state = 0x47u64;
    for chunk in data.chunks_mut(8) {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let bytes = state.to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }

    println!(
        "{:>10} {:>12} {:>16}",
        "MiB moved", "MiB/s", "sendfile share"
    );
    let grid = bench_grid_workers(4);
    grid.write_file("/events.dat", &data);
    let session = bench_session(&grid);
    // Warm-up: populate the page cache and the session/ACL caches.
    let _ = clarens_bench::measure_get_throughput(
        &grid.addr(),
        &session,
        "/events.dat",
        Duration::from_millis(100),
    );
    let (mut bytes, mut best) = (0u64, 0.0f64);
    for _ in 0..3 {
        let (b, rate) =
            clarens_bench::measure_get_throughput(&grid.addr(), &session, "/events.dat", window);
        bytes += b;
        best = best.max(rate);
    }
    let http = &grid.core().telemetry.http;
    let share = http.bytes_sendfile.get() as f64 / http.bytes_out.get().max(1) as f64;
    println!(
        "{:>10.0} {:>12.0} {:>15.1}%",
        bytes as f64 / (1024.0 * 1024.0),
        best,
        share * 100.0
    );
    grid.cleanup();

    // The slow-reader swarm: 1024 consumers each crawling a response at
    // ~10 KB/s against a 4-worker grid. Every half-written response parks
    // in the poller; the workers must stay free to serve RPC traffic at
    // (nearly) full speed.
    println!("\nslow-reader swarm: 1024 GET clients draining at ~10 KB/s, 4 workers");
    const SWARM: usize = 1024;
    let swarm_file = &data[..8 * 1024 * 1024];
    let base_grid = bench_grid_workers(4);
    let load_grid = bench_grid_workers(4);
    load_grid.write_file("/swarm.dat", swarm_file);
    let base_session = bench_session(&base_grid);
    let load_session = bench_session(&load_grid);
    let swarm = clarens_bench::SlowReaderSwarm::open(
        &load_grid.addr(),
        &format!("/file/swarm.dat?session={load_session}"),
        SWARM,
        10 * 1024,
    );
    let gate_point = window.min(Duration::from_secs(2));
    let (mut best_base, mut best_load) = (0.0f64, 0.0f64);
    let mut parked_mid = 0u64;
    for _ in 0..3 {
        let base = measure_throughput(
            &base_grid.addr(),
            &base_session,
            8,
            gate_point,
            "echo.echo",
            Protocol::XmlRpc,
        );
        best_base = best_base.max(base.calls_per_sec);
        parked_mid = parked_mid.max(load_grid.core().telemetry.http.parked_writers.get());
        let load = measure_throughput(
            &load_grid.addr(),
            &load_session,
            8,
            gate_point,
            "echo.echo",
            Protocol::XmlRpc,
        );
        best_load = best_load.max(load.calls_per_sec);
    }
    let http = &load_grid.core().telemetry.http;
    println!(
        "idle-free {best_base:.0} calls/sec; with the swarm {best_load:.0} calls/sec \
         ({:+.1}%, gate: cost < 10%)",
        (best_load / best_base - 1.0) * 100.0
    );
    // bytes_sendfile is credited when a response *completes*; the swarm's
    // 8 MiB responses are deliberately still in flight, so only finished
    // (or stalled-and-closed) downloads show up here.
    println!(
        "swarm drained {:.1} MiB; parked_writers peak {parked_mid}, write_stalls {}, \
         completed-response sendfile bytes {:.1} MiB",
        swarm.drained_bytes() as f64 / (1024.0 * 1024.0),
        http.write_stalls.get(),
        http.bytes_sendfile.get() as f64 / (1024.0 * 1024.0),
    );
    assert!(
        parked_mid > 0,
        "the swarm's stalled responses must park as writers, not hold workers"
    );
    assert!(
        best_load >= 0.90 * best_base,
        "1024 slow readers slowed active RPC beyond 10%: \
         {best_load:.0} vs {best_base:.0} calls/sec"
    );
    drop(swarm);
    base_grid.cleanup();
    load_grid.cleanup();
    println!("\nAblation G passed");
}

/// Ablation F — connection multiplexing: the readiness scheduler that parks
/// idle keep-alive connections off the worker pool, on a deliberately small
/// 4-worker pool. The paper's Apache deployment owns a process per
/// connection; this is the scheduler that removes that ceiling.
/// EXPERIMENTS.md records the comparison against thread-per-connection.
fn ablation_f(point: Duration) {
    header("Ablation F — connection multiplexing (system.ping, 4 workers, 2 ms think time)");
    println!("Each client loops one keep-alive connection: ping, think ~2 ms, ping again —");
    println!("idle most of the time, like a real analysis client between calls. The server");
    println!("parks the *connection* in the readiness poller through every think and");
    println!("re-dispatches it to the queue when bytes arrive, so 4 workers serve them all.\n");

    const WORKERS: usize = 4;
    let think = Duration::from_millis(2);
    // A sweep point needs enough steady state to dominate its connect ramp.
    let window = point.max(Duration::from_secs(2));

    println!(
        "{:>8} {:>12} {:>12} {:>8} {:>8} {:>12}",
        "conns", "calls", "calls/sec", "served", "stalled", "parked(mid)"
    );
    let grid = bench_grid_workers(WORKERS);
    let addr = grid.addr();
    for conns in [64usize, 256, 1024] {
        let http = &grid.core().telemetry.http;
        let p = clarens_bench::measure_keepalive_sweep(&addr, conns, window, think, || {
            http.parked.get()
        });
        println!(
            "{:>8} {:>12} {:>12.0} {:>8} {:>8} {:>12}",
            p.connections, p.calls, p.calls_per_sec, p.served, p.stalled, p.mid_sample
        );
    }
    // The counters as an operator would read them: off the exposition
    // surface, not the in-process handles.
    let mut admin = grid.logged_in_client(&grid.admin);
    let (status, body) = admin.get_page("/metrics").expect("GET /metrics");
    assert_eq!(status, 200, "admin GET /metrics must answer 200");
    for key in [
        "clarens_http_connections_total",
        "clarens_http_poll_wakeups_total",
        "clarens_http_idle_timeouts_total",
        "clarens_http_sheds_total",
    ] {
        if let Some(line) = body.lines().find(|l| l.starts_with(key)) {
            println!("    /metrics: {line}");
        }
    }
    grid.cleanup();

    // Backpressure rider: cap the budget below the offered load and the
    // overflow must shed with `503` + `Connection: close` instead of
    // queueing without bound — visible as stalled clients here and a
    // non-zero shed counter.
    println!("\nbackpressure: max_connections = 64, 96 connections offered");
    let grid = clarens::testkit::TestGrid::start_with(clarens::testkit::GridOptions {
        workers: WORKERS,
        max_connections: 64,
        ..Default::default()
    });
    let http = &grid.core().telemetry.http;
    let p = clarens_bench::measure_keepalive_sweep(&grid.addr(), 96, window, think, || {
        http.parked.get()
    });
    let sheds = http.sheds.get();
    println!(
        "served {} connections at {:.0} calls/sec under the cap; shed {} with 503 ({} clients stalled)",
        p.served, p.calls_per_sec, sheds, p.stalled
    );
    assert!(sheds > 0, "the over-budget connections must be shed");
    grid.cleanup();
}

/// Federation: aggregate throughput of discovery-routed balanced clients
/// at 1, 2 and 4 nodes, then a mid-run node-kill drill.
///
/// The scaling phase is deliberately latency-bound: a process-wide 10 ms
/// delay on the server read path makes each node's capacity
/// `workers / delay` rather than a share of this machine's CPU, so adding
/// nodes adds capacity exactly as adding hosts would in the paper's grid
/// deployment, and single-machine CI can still observe the scaling.
/// A `file.ls`-style directory listing: the struct-heavy payload Ablation
/// H echoes through `echo.echo` so both the request and the response carry
/// it. 32 entries with the fields the paper's file service returns.
fn file_ls_payload() -> Vec<Value> {
    let entries: Vec<Value> = (0..32)
        .map(|i| {
            Value::structure([
                ("name", Value::from(format!("pythia_run{i:03}.root"))),
                ("size", Value::Int((((i as i64) + 1) * 137) << 20)),
                ("mtime", Value::Int(1_118_845_735 + i as i64 * 3600)),
                ("is_dir", Value::Bool(i % 8 == 0)),
                ("owner", Value::from("/O=Grid/OU=cms/CN=analysis user")),
                ("perms", Value::Int(0o644)),
                ("md5", Value::from("d41d8cd98f00b204e9800998ecf8427e")),
            ])
        })
        .collect();
    vec![Value::array(entries)]
}

/// Ablation H — the clarens-binary wire protocol vs XML-RPC (DESIGN.md
/// §13, EXPERIMENTS.md). Two workloads over the same grid and session:
/// scalar `echo.echo` (framing/dispatch bound) and a struct-heavy
/// `file.ls`-style listing echoed back (serialization bound), then
/// per-protocol allocation accounting against the shared ceilings.
/// Interleaved best-of-3 rounds, same scheduler-noise reasoning as
/// Ablation A.
fn binproto(point: Duration) {
    // CI gates: the whole point of the binary protocol is codec CPU, so
    // the win must be large enough to survive measurement noise.
    const MIN_SPEEDUP_SCALAR: f64 = 1.4;
    const MIN_SPEEDUP_STRUCT: f64 = 2.0;

    header("Ablation H — clarens-binary vs XML-RPC");
    println!("Same Value algebra, different wire image: length-prefixed CBOR frames with");
    println!("a zero-copy streaming decoder instead of angle-bracket text. No tag");
    println!("scanning, no entity escaping, and the struct-heavy payload shrinks by an");
    println!("order of magnitude on the wire. Both protocols run the same HTTP path,");
    println!("session checks, and buffer-pool streaming encoders (DESIGN.md §13).\n");

    let grid = bench_grid();
    let session = bench_session(&grid);
    let addr = grid.addr();
    let clients = 8;
    // Pipeline depth for the scalar workload: deep enough that the
    // response-coalescing path amortizes syscalls and wakeups over the
    // batch, leaving codec cost as the differentiator.
    let depth = 128;
    let round = point.clamp(Duration::from_millis(400), Duration::from_secs(5));

    let mut speedups: Vec<(&str, f64, f64, f64, f64)> = Vec::new();
    // Workload 1 — scalar echo.echo over a pipelined persistent
    // connection. The per-round-trip syscall/scheduler cost is identical
    // across protocols and amortizes over the batch; what remains per
    // request is parse + codec + dispatch, which is where the binary
    // protocol earns its keep.
    {
        let (mut best_xml, mut best_bin) = (0.0f64, 0.0f64);
        for _ in 0..3 {
            let xml = measure_throughput_pipelined(
                &addr,
                &session,
                depth,
                round,
                "echo.echo",
                vec![Value::Int(7)],
                Protocol::XmlRpc,
            );
            best_xml = best_xml.max(xml.calls_per_sec);
            let bin = measure_throughput_pipelined(
                &addr,
                &session,
                depth,
                round,
                "echo.echo",
                vec![Value::Int(7)],
                Protocol::Binary,
            );
            best_bin = best_bin.max(bin.calls_per_sec);
        }
        speedups.push((
            "echo.echo(int), pipelined",
            best_xml,
            best_bin,
            best_bin / best_xml,
            MIN_SPEEDUP_SCALAR,
        ));
    }
    // Workload 2 — the struct-heavy file.ls-style listing over 8 plain
    // keep-alive connections (no pipelining): serialization is such a
    // large share of each call that the binary win shows through even
    // with a full round trip per request.
    {
        let (mut best_xml, mut best_bin) = (0.0f64, 0.0f64);
        for _ in 0..3 {
            let xml = measure_throughput_params(
                &addr,
                &session,
                clients,
                round,
                "echo.echo",
                file_ls_payload(),
                Protocol::XmlRpc,
            );
            best_xml = best_xml.max(xml.calls_per_sec);
            let bin = measure_throughput_params(
                &addr,
                &session,
                clients,
                round,
                "echo.echo",
                file_ls_payload(),
                Protocol::Binary,
            );
            best_bin = best_bin.max(bin.calls_per_sec);
        }
        speedups.push((
            "echo.echo(file.ls listing)",
            best_xml,
            best_bin,
            best_bin / best_xml,
            MIN_SPEEDUP_STRUCT,
        ));
    }

    println!(
        "{:>28} {:>12} {:>12} {:>9} {:>8}",
        "workload", "xml-rpc/s", "binary/s", "speedup", "gate"
    );
    for (workload, xml, bin, speedup, floor) in &speedups {
        println!(
            "{workload:>28} {xml:>12.0} {bin:>12.0} {speedup:>8.2}x {:>7}",
            format!(">={floor}x")
        );
    }

    // Wire sizes, for the table's "why": the same call under each codec.
    let call = clarens_wire::RpcCall::new("echo.echo", file_ls_payload());
    println!(
        "\nwire bytes for the listing call: xml-rpc {}, binary {}",
        clarens_wire::encode_call(Protocol::XmlRpc, &call).len(),
        clarens_wire::encode_call(Protocol::Binary, &call).len(),
    );

    // Per-protocol allocation accounting (same ceilings the quick gate
    // enforces; see `clarens_bench::MAX_ALLOCS_PER_ECHO_XMLRPC`).
    assert!(
        alloc_count::allocator_installed(),
        "repro must run with the counting allocator"
    );
    println!(
        "\n{:>28} {:>14} {:>14} {:>9}",
        "protocol", "allocs/req", "bytes/req", "ceiling"
    );
    for (name, protocol, ceiling) in [
        ("XML-RPC", Protocol::XmlRpc, MAX_ALLOCS_PER_ECHO_XMLRPC),
        (
            "clarens-binary",
            Protocol::Binary,
            MAX_ALLOCS_PER_ECHO_BINARY,
        ),
    ] {
        let alloc = measure_allocs_per_request(&addr, &session, 400, protocol);
        println!(
            "{name:>28} {:>14.1} {:>14.0} {ceiling:>9}",
            alloc.allocs_per_call, alloc.bytes_per_call
        );
        assert!(
            alloc.allocs_per_call <= ceiling,
            "{name} allocations/request regressed: {:.1} > {ceiling}",
            alloc.allocs_per_call
        );
    }
    grid.cleanup();

    for (workload, xml, bin, speedup, floor) in &speedups {
        assert!(
            speedup >= floor,
            "{workload}: clarens-binary must be >= {floor}x XML-RPC \
             (got {speedup:.2}x: {bin:.0} vs {xml:.0} calls/sec)"
        );
    }
    println!("\nbinproto gates met: scalar >= {MIN_SPEEDUP_SCALAR}x, struct-heavy >= {MIN_SPEEDUP_STRUCT}x");
}

/// `repro fuzz [--secs N] [--seed S] [--target NAME]` — the in-tree
/// deterministic mutation fuzzer over the streaming decoders, the secure
/// channel's record machine and the pki kernels (see
/// `clarens_bench::fuzzer`). CI's
/// binproto-smoke job runs this for two minutes; the cargo-fuzz targets
/// under `fuzz/` drive the same entry points coverage-guided where nightly
/// is available.
fn fuzz_cmd() {
    use clarens_bench::fuzzer::{self, FuzzTarget};

    let argv: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let secs: f64 = flag("--secs").and_then(|v| v.parse().ok()).unwrap_or(30.0);
    let seed: u64 = flag("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC1A12E45);
    let targets: Vec<FuzzTarget> = match flag("--target") {
        Some(name) => match FuzzTarget::parse(&name) {
            Some(target) => vec![target],
            None => {
                eprintln!(
                    "unknown fuzz target {name:?}; use {}",
                    FuzzTarget::ALL.map(|t| t.name()).join("|")
                );
                std::process::exit(2);
            }
        },
        None => FuzzTarget::ALL.to_vec(),
    };

    header(&format!(
        "Fuzz — seeded mutation over the streaming decoders ({secs}s total, seed {seed})"
    ));
    let budget = Duration::from_secs_f64(secs / targets.len() as f64);
    println!(
        "{:>20} {:>12} {:>8} {:>10}",
        "target", "iterations", "corpus", "elapsed"
    );
    let mut total = 0u64;
    for target in targets {
        let report = fuzzer::run(target, seed, budget);
        println!(
            "{:>20} {:>12} {:>8} {:>9.1}s",
            report.target.name(),
            report.iterations,
            report.corpus,
            report.elapsed.as_secs_f64()
        );
        total += report.iterations;
    }
    println!("\nfuzz pass clean: {total} mutated inputs, no property violations");
}

fn federation(point: Duration) {
    use clarens_faults::sites;
    use clarens_federation::{BalancedClient, FederationCluster};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let seed: u64 = argv
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| argv.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    header(&format!(
        "Federation — aggregate throughput vs node count, plus a node-kill drill (seed {seed})"
    ));
    println!("Every client resolves echo.echo through the station network, steers by the");
    println!("published p95 latency attributes (power-of-two-choices), and re-resolves");
    println!("with endpoint blacklisting on transport failure. Node 0 leads; followers");
    println!("replicate its WAL, so the session minted on the leader authenticates");
    println!("everywhere. A 10 ms read-path delay makes each node latency-bound.\n");

    const CLIENTS: usize = 32;
    let window = (point * 2).clamp(Duration::from_secs(2), Duration::from_secs(30));

    // One timed scaling measurement: `clients` balanced clients hammer an
    // n-node cluster for `window`; returns (calls/sec, wrong answers).
    let measure = |n: usize, clients: usize, window: Duration| -> (f64, u64) {
        let cluster = FederationCluster::start(n);
        let session = cluster.user_session();
        let stop = Arc::new(AtomicBool::new(false));
        let ok = Arc::new(AtomicU64::new(0));
        let wrong = Arc::new(AtomicU64::new(0));
        let _delay = clarens_faults::with(sites::HTTPD_READ, "delay:10ms");
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
                    match client.call("echo.echo", vec![Value::Int(n)]) {
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
    let mut cluster = FederationCluster::start(drill_nodes);
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
        let cluster = FederationCluster::start(aff_nodes);
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

/// Leader-failover drill (DESIGN.md §14). Two seeded phases on an
/// election-managed 3-node cluster:
///
///   1. **Leader kill.** Writers mint sessions (replicated, barrier-acked
///      writes) and readers echo through balanced clients while the
///      elected leader is killed mid-run. Gates: a follower promotes
///      within 3 lease intervals, every session acked before the kill
///      re-authenticates on the new leader (zero acked-then-lost), the
///      readers return zero wrong answers, and writes flow again after
///      the election.
///   2. **Split-brain injection.** The elected leader's discovery uplink
///      is cut while its RPC plane stays up; once a rival claims epoch
///      N+1, a burst of writes is aimed directly at the deposed leader.
///      Gates: 100% of the stale writes are rejected with NOT_LEADER
///      (`clarens_fenced_writes_total` > 0), none leak into the
///      replicated store, and on healing the old leader demotes and
///      resyncs (`clarens_demotions_total` >= 1).
fn failover(point: Duration) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    use clarens::ClarensClient;
    use clarens_federation::{federation_pki, FederationCluster};
    use clarens_wire::fault::codes;

    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let seed: u64 = argv
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| argv.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let lease_ms: u64 = if quick { 500 } else { 750 };
    let jitter_ms: u64 = 100;
    header(&format!(
        "Leader failover — lease-based election, epoch fencing, write rerouting (seed {seed})"
    ));
    println!("3 nodes under lease-based elections (lease {lease_ms} ms, jitter {jitter_ms} ms).");
    println!("Phase 1 kills the elected leader under a live login/read workload; phase 2");
    println!("partitions the leader's election traffic and aims writes straight at it.\n");

    // --- Phase 1: leader kill under load ---------------------------------
    let mut cluster = FederationCluster::start_elections(3, lease_ms, jitter_ms);
    let session = cluster.user_session();
    let addrs: Vec<String> = cluster.nodes.iter().map(|n| n.addr.clone()).collect();
    let old_index = cluster.leader_index().expect("initial leader");
    let old_epoch = cluster.nodes[old_index].core().federation.epoch();

    let stop = Arc::new(AtomicBool::new(false));
    let acked: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
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
                if let Ok(id) = client.login() {
                    acked.lock().unwrap().push(id);
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
    std::thread::sleep(point.clamp(Duration::from_millis(750), Duration::from_secs(3)));
    let acked_before_kill = acked.lock().unwrap().len();
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
    std::thread::sleep(point.clamp(Duration::from_millis(750), Duration::from_secs(3)));
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
    for id in &acked {
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
    cluster.cleanup();

    // --- Phase 2: split-brain injection ----------------------------------
    println!("\nsplit-brain injection: partition the leader's election traffic, elect a");
    println!("rival, aim {} writes straight at the deposed leader", 20);
    let cluster = FederationCluster::start_elections(3, lease_ms, jitter_ms);
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
        match stale_client.call(
            "im.send",
            vec![
                Value::Str(user_dn.clone()),
                Value::Str(format!("stale-{n}")),
            ],
        ) {
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
    cluster.cleanup();

    println!(
        "\nfailover run passed (seed {seed}): promotion within 3 leases, 0 acked-then-lost, \
         0 wrong answers, split-brain 100% fenced, demotion on heal"
    );
}

/// Storage-engine ablation (DESIGN.md §12). Exercises the mechanisms of the
/// WAL engine in isolation, on a scratch database under the system temp
/// dir (phase letters are EXPERIMENTS.md's; its phase B has no arm here):
///
///   A  durable-append throughput at 16 writers under group commit
///      (gate: fsyncs/op <= 0.25; EXPERIMENTS.md records the comparison
///      against one fsync per append);
///   C  append latency percentiles while the janitor compacts the log in
///      the background (gate: no append ever stalls >= 500 ms — the swap
///      window only copies a bounded final tail);
///   D  cold restart of a 100k-session store after 3x overwrite churn:
///      uncompacted replay vs compacted replay (gate: compacted restart
///      beats uncompacted replay);
///   E  write amplification (bytes handed to the filesystem / live bytes)
///      on a churned workload synced once per round.
fn storage(point: Duration) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    use clarens_db::{StorageOptions, Store};

    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick");

    header(if quick {
        "Storage engine ablation (quick) — group commit, compaction, restart"
    } else {
        "Storage engine ablation — group commit, compaction, restart"
    });

    let root = std::env::temp_dir().join(format!("clarens-repro-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create storage bench dir");

    // ---------------- A: group commit ----------------
    println!("\n[A] durable appends, 16 writers, 64-byte values (sync: true)");
    let window = if quick {
        point.min(Duration::from_millis(600))
    } else {
        point.max(Duration::from_secs(1))
    };
    let durable = |name: &str| -> (f64, f64) {
        // Drain any writeback backlog an earlier workload left behind:
        // this phase measures fsync latency, and a queue of dirty pages
        // ahead of the journal taxes whichever window runs first.
        #[cfg(unix)]
        {
            extern "C" {
                fn sync();
            }
            unsafe { sync() };
        }
        let path = root.join(format!("a-{name}.wal"));
        let store = Arc::new(
            Store::open_with(
                &path,
                StorageOptions {
                    sync: true,
                    compact_ratio: 0.0,
                    ..StorageOptions::default()
                },
            )
            .expect("open durable store"),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..16)
            .map(|t| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let key = format!("writer-{t}");
                    let value = vec![0x5au8; 64];
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        store
                            .put("bench", &key, value.clone())
                            .expect("durable put");
                        n += 1;
                    }
                    done.fetch_add(n, Ordering::Relaxed);
                })
            })
            .collect();
        let t0 = Instant::now();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        for t in threads {
            t.join().expect("writer thread");
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let ops = done.load(Ordering::Relaxed).max(1);
        let fsyncs = store.storage_counters().fsyncs;
        (ops as f64 / elapsed, fsyncs as f64 / ops as f64)
    };
    // Best-of-N windows: a single window is at the mercy of whatever
    // writeback the disk is still digesting from an earlier workload.
    let reps = if quick { 1 } else { 2 };
    let (mut group_rate, mut group_fpo) = (0.0f64, 1.0f64);
    for r in 0..reps {
        let (rate, fpo) = durable(&format!("group-commit-{r}"));
        if rate > group_rate {
            (group_rate, group_fpo) = (rate, fpo);
        }
    }
    println!("{:>14} {:>12}", "appends/sec", "fsyncs/op");
    println!("{:>14.0} {:>12.3}", group_rate, group_fpo);
    assert!(
        group_fpo <= 0.25,
        "group commit must amortize fsyncs to <= 0.25/op at 16 writers (got {group_fpo:.3})"
    );

    // ---------------- C: append latency under background compaction ------
    println!("\n[C] append latency while the janitor compacts (1 KiB churn, sync: false)");
    let churn_store = Arc::new(
        Store::open_with(
            root.join("c-churn.wal"),
            StorageOptions {
                sync: false,
                compact_ratio: 0.5,
                ..StorageOptions::default()
            },
        )
        .expect("open churn store"),
    );
    let mut lat_ns: Vec<u64> = Vec::with_capacity(1 << 20);
    let value = vec![0x77u8; 1024];
    let started = Instant::now();
    let c_deadline = started
        + if quick {
            Duration::from_secs(3)
        } else {
            Duration::from_secs(6)
        };
    let c_hard_cap = started + Duration::from_secs(20);
    // Pace the churn to ~12k appends/s (12 MB/s): fast enough that the
    // janitor compacts repeatedly underneath the writer, slow enough that
    // the kernel's dirty-page throttling never blocks write() — a stall
    // from writeback pressure would be charged to the engine otherwise.
    let op_interval = Duration::from_micros(83);
    let mut i = 0u64;
    loop {
        let key = format!("hot-{}", i % 16);
        let t0 = Instant::now();
        churn_store
            .put("churn", &key, value.clone())
            .expect("churn put");
        lat_ns.push(t0.elapsed().as_nanos() as u64);
        i += 1;
        if i.is_multiple_of(256) {
            let ahead = (op_interval * i as u32).saturating_sub(started.elapsed());
            if !ahead.is_zero() {
                std::thread::sleep(ahead);
            }
        }
        let now = Instant::now();
        // Keep churning until the window closes AND at least one background
        // compaction has actually run underneath the writer.
        if now >= c_deadline && churn_store.stats().compactions >= 1 {
            break;
        }
        if now >= c_hard_cap {
            break;
        }
    }
    let compactions = churn_store.stats().compactions;
    lat_ns.sort_unstable();
    let pct = |p: f64| -> f64 {
        let idx = ((lat_ns.len() as f64 - 1.0) * p) as usize;
        lat_ns[idx] as f64 / 1_000.0
    };
    let max_us = *lat_ns.last().expect("latencies recorded") as f64 / 1_000.0;
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>14}",
        "appends", "p50 (us)", "p99 (us)", "max (us)", "compactions"
    );
    println!(
        "{:>12} {:>12.1} {:>12.1} {:>12.1} {:>14}",
        lat_ns.len(),
        pct(0.50),
        pct(0.99),
        max_us,
        compactions
    );
    assert!(
        compactions >= 1,
        "the janitor must compact at least once under churn (got {compactions})"
    );
    assert!(
        max_us < 500_000.0,
        "no append may stall >= 500 ms during background compaction (got {:.1} ms)",
        max_us / 1_000.0
    );
    // The log must have actually shrunk relative to the bytes churned in.
    let churned = lat_ns.len() as u64 * (value.len() as u64 + 32);
    let final_len = churn_store.wal_offset();
    println!(
        "bytes appended ~{churned}, live log after compaction {final_len} \
         ({} epoch bumps)",
        churn_store.wal_epoch()
    );
    drop(churn_store);

    // ---------------- D: cold restart, 100k sessions, 3x churn -----------
    println!("\n[D] cold restart: 100k sessions after 3x overwrite churn");
    let sessions: usize = 100_000;
    let rounds: usize = 3;
    let restart_path = root.join("d-restart.wal");
    let wal_amp_pre;
    {
        let store = Store::open_with(
            &restart_path,
            StorageOptions {
                sync: false,
                compact_ratio: 0.0, // no janitor: measure the uncompacted replay
                ..StorageOptions::default()
            },
        )
        .expect("open restart store");
        for round in 0..rounds {
            for s in 0..sessions {
                let record = format!(
                    "{{\"dn\":\"/O=Grid/CN=user {s}\",\"round\":{round},\"expires\":1234567890}}"
                );
                store
                    .put("sessions", &format!("s{s:06}"), record)
                    .expect("session put");
            }
        }
        let c = store.storage_counters();
        wal_amp_pre = c.bytes_written as f64 / store.live_bytes().max(1) as f64;
    }
    let t0 = Instant::now();
    let store = Store::open_with(
        &restart_path,
        StorageOptions {
            sync: false,
            compact_ratio: 0.0,
            ..StorageOptions::default()
        },
    )
    .expect("replay uncompacted");
    let uncompacted = t0.elapsed();
    assert!(store.get("sessions", "s000000").is_some());
    store.compact().expect("compact restart store");
    drop(store);
    let t0 = Instant::now();
    let store = Store::open_with(
        &restart_path,
        StorageOptions {
            sync: false,
            compact_ratio: 0.0,
            ..StorageOptions::default()
        },
    )
    .expect("replay compacted");
    let compacted = t0.elapsed();
    assert!(store
        .get("sessions", &format!("s{:06}", sessions - 1))
        .is_some());
    drop(store);
    println!("write amplification before compaction: {wal_amp_pre:.2}x");
    println!("{:>26} {:>14}", "restart path", "time (ms)");
    println!(
        "{:>26} {:>14.1}",
        "uncompacted replay (3x)",
        uncompacted.as_secs_f64() * 1e3
    );
    println!(
        "{:>26} {:>14.1}",
        "compacted replay",
        compacted.as_secs_f64() * 1e3
    );
    assert!(
        compacted < uncompacted,
        "a compacted {sessions}-session store must cold-restart faster than the \
         uncompacted 3x-churned replay ({:.1} ms vs {:.1} ms)",
        compacted.as_secs_f64() * 1e3,
        uncompacted.as_secs_f64() * 1e3
    );

    // ---------------- E: write amplification ------------------
    println!("\n[E] write amplification, 20k records x3 overwrite churn, sync per round");
    let amp = {
        let store = Store::open_with(
            root.join("e-amp.wal"),
            StorageOptions {
                sync: false,
                compact_ratio: 0.0,
                ..StorageOptions::default()
            },
        )
        .expect("open amp store");
        let value = vec![0x11u8; 128];
        for _ in 0..3 {
            for s in 0..20_000 {
                store
                    .put("amp", &format!("k{s:05}"), value.clone())
                    .expect("amp put");
            }
            store.sync().expect("amp sync");
        }
        store.storage_counters().bytes_written as f64 / store.live_bytes().max(1) as f64
    };
    println!("bytes written / live: {amp:.2}x");

    let _ = std::fs::remove_dir_all(&root);
    println!(
        "\nstorage ablation passed: group-commit fsyncs/op {group_fpo:.3} (<= 0.25), \
         {compactions} background compaction(s) with \
         max append stall {:.2} ms, compacted restart {:.1} ms < uncompacted {:.1} ms",
        max_us / 1_000.0,
        compacted.as_secs_f64() * 1e3,
        uncompacted.as_secs_f64() * 1e3
    );
}
