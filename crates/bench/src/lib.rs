//! # clarens-bench — the paper-shape experiments and the drills
//!
//! Shared machinery for the `repro` binary (one module per experiment
//! under `src/bin/repro/`, see EXPERIMENTS.md) and for the allocation
//! ceilings in `tests/alloc_count.rs`. Speed is measured by the repo
//! benchmark under `benchmark/`, not here: `repro` keeps the comparisons
//! the paper draws (Figure 4's client sweep, the GT3 footnote, local-DB
//! discovery) and the drills that assert behaviour under faults.

#![deny(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use clarens::testkit::{GridOptions, TestGrid};
use clarens::ClarensClient;
use clarens_wire::{Protocol, Value};

#[allow(unsafe_code)] // a `GlobalAlloc` impl cannot be written without it
pub mod alloc_count;
pub mod fuzzer;

/// Result of one throughput measurement point.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPoint {
    /// Concurrent clients.
    pub clients: usize,
    /// Total completed calls.
    pub calls: u64,
    /// Calls per second.
    pub calls_per_sec: f64,
}

/// Drive `clients` concurrent clients, each built by `connect` and looping
/// the parameterless `method` over its own keep-alive connection for
/// `duration`. Mirrors the paper's Figure-4 driver ("a single process
/// opening connections to the server and completing requests
/// asynchronously" — here, one thread per asynchronous client). The
/// transport is whatever `connect` returns: a session-header client or a
/// TLS one.
///
/// The window opens on a barrier every client thread passes, so no call
/// completes before the clock starts, however long the threads take to
/// spawn.
pub fn measure_throughput(
    clients: usize,
    duration: Duration,
    method: &'static str,
    mut connect: impl FnMut() -> ClarensClient,
) -> ThroughputPoint {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let start = Arc::new(Barrier::new(clients + 1));
    let mut handles = Vec::with_capacity(clients);
    for _ in 0..clients {
        let mut client = connect();
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            start.wait();
            let mut local = 0u64;
            while !stop.load(Ordering::Relaxed) {
                match client.call(method, vec![]) {
                    Ok(_) => local += 1,
                    Err(e) => panic!("bench call failed: {e}"),
                }
            }
            total.fetch_add(local, Ordering::Relaxed);
        }));
    }
    start.wait();
    let t0 = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("bench client thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let calls = total.load(Ordering::Relaxed);
    ThroughputPoint {
        clients,
        calls,
        calls_per_sec: calls as f64 / elapsed,
    }
}

/// A plaintext client for `addr` carrying `session` in its header.
pub fn session_client(addr: &str, session: &str) -> ClarensClient {
    let mut client = ClarensClient::new(addr.to_owned());
    client.set_session(session.to_owned());
    client
}

/// Start a plaintext grid with `workers` workers, permissive ACLs.
pub fn bench_grid_workers(workers: usize) -> TestGrid {
    TestGrid::start_with(GridOptions {
        workers,
        ..Default::default()
    })
}

/// Start the standard benchmark grid: plaintext, permissive ACLs, enough
/// workers for the paper's 79-client sweep.
pub fn bench_grid() -> TestGrid {
    bench_grid_workers(96)
}

/// Open one session on the grid for session-header clients.
pub fn bench_session(grid: &TestGrid) -> String {
    let client = grid.logged_in_client(&grid.user);
    client.session_id().expect("session").to_owned()
}

/// Per-protocol allocation ceilings for the steady-state echo.echo gate
/// (`tests/alloc_count.rs`). The XML-RPC streaming path lands at ~18
/// allocations/request on the reference machine; clarens-binary skips the
/// XML text handling entirely (no escaping buffers, no tag strings) and
/// lands lower still. Both ceilings leave ~2x headroom for
/// allocator/platform variation while catching a reintroduced per-request
/// DOM or buffer churn (the pre-optimization XML path measured ~56).
pub const MAX_ALLOCS_PER_ECHO_XMLRPC: f64 = 40.0;
/// See [`MAX_ALLOCS_PER_ECHO_XMLRPC`].
pub const MAX_ALLOCS_PER_ECHO_BINARY: f64 = 30.0;
/// Allocation ceiling for one `SessionManager::create` on an in-memory
/// store (`tests/alloc_count.rs`). The admission path measures 4.1 and the
/// count repeats exactly: the id 1, the DN text 1 (one buffer sized for
/// it), the record 1, the store's insert 1.1 (the key, and a tree node
/// now and then). It was 30.2, then 18.2, then 9.1: building the record
/// as a `Value` tree costs 11, a speculative cache entry for the new
/// session 9, and `Display` allocating per attribute plus an unsized
/// buffer 5, so any of them coming back fails the gate (EXPERIMENTS.md
/// "Session admission").
pub const MAX_ALLOCS_PER_SESSION_CREATE: f64 = 5.0;

/// Server-side allocation profile of a steady-state request loop.
#[derive(Debug, Clone, Copy)]
pub struct AllocReport {
    /// Calls measured (after warm-up).
    pub calls: u64,
    /// Allocation events per request on the server side.
    pub allocs_per_call: f64,
    /// Bytes requested from the allocator per request.
    pub bytes_per_call: f64,
}

/// Measure server-side allocations per request for a steady-state
/// `echo.echo` loop over one keep-alive connection.
///
/// Requires [`alloc_count::CountingAlloc`] to be registered as the global
/// allocator (`tests/alloc_count.rs` does this); returns zeros otherwise.
/// The calling thread is exempted from counting, so in an in-process grid
/// the counts come from the server worker alone.
pub fn measure_allocs_per_request(
    addr: &str,
    session: &str,
    calls: u64,
    protocol: Protocol,
) -> AllocReport {
    alloc_count::exempt_current_thread();
    let mut client = session_client(addr, session).with_protocol(protocol);
    // Warm-up: fill the worker's buffer pool and the auth caches so the
    // measured window is the recycled steady state.
    for i in 0..64 {
        client
            .call("echo.echo", vec![Value::Int(i)])
            .expect("warm-up call");
    }
    let (a0, b0) = alloc_count::snapshot();
    alloc_count::set_counting(true);
    for i in 0..calls {
        client
            .call("echo.echo", vec![Value::Int(i as i64)])
            .expect("measured call");
    }
    alloc_count::set_counting(false);
    let (a1, b1) = alloc_count::snapshot();
    AllocReport {
        calls,
        allocs_per_call: (a1 - a0) as f64 / calls as f64,
        bytes_per_call: (b1 - b0) as f64 / calls as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_driver_smoke() {
        let grid = bench_grid_workers(4);
        let (addr, session) = (grid.addr(), bench_session(&grid));
        let point =
            measure_throughput(2, Duration::from_millis(300), "system.list_methods", || {
                session_client(&addr, &session)
            });
        assert_eq!(point.clients, 2);
        assert!(point.calls > 0, "no calls completed");
        assert!(point.calls_per_sec > 0.0);
        grid.cleanup();
    }

    /// The window opens at the barrier: calls a client completed before
    /// every client was ready are not in the count.
    #[test]
    fn throughput_window_opens_when_every_client_is_ready() {
        let grid = bench_grid_workers(4);
        let (addr, session) = (grid.addr(), bench_session(&grid));
        let pings = || {
            let methods = grid.core().telemetry.methods_snapshot();
            let ping = methods.iter().find(|(name, _)| name == "system.ping");
            ping.map_or(0, |(_, stats)| stats.calls.get())
        };
        // Building a client takes 100 ms here, so the first would have run
        // for 300 ms before the last was spawned; none may call that early.
        let mut early = 0;
        let point = measure_throughput(4, Duration::from_millis(200), "system.ping", || {
            early = pings();
            std::thread::sleep(Duration::from_millis(100));
            session_client(&addr, &session)
        });
        assert_eq!(early, 0, "a client called before the window opened");
        assert!(point.calls > 0);
        grid.cleanup();
    }
}
