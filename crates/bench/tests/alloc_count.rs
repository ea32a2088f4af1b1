//! Allocation accounting end-to-end: registers the counting allocator for
//! this test process and holds the server-side allocations of a
//! steady-state `echo.echo` loop under the ceiling `repro quick` gates on,
//! and those of one session admission under its own.
//!
//! Everything runs inside ONE `#[test]` so no concurrent test thread
//! pollutes the process-global counters.

use std::sync::Arc;

use clarens::session::SessionManager;
use clarens_bench::{alloc_count, bench_grid_workers, bench_session, measure_allocs_per_request};
use clarens_db::Store;
use clarens_pki::dn::DistinguishedName;
use clarens_wire::Protocol;

#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

#[test]
fn counting_allocator_and_steady_state_ceiling() {
    // --- allocator mechanics -------------------------------------------
    assert!(alloc_count::allocator_installed());
    let (before, _) = alloc_count::snapshot();
    drop(vec![0u8; 4096]);
    assert_eq!(
        alloc_count::snapshot().0,
        before,
        "counting must be off by default"
    );

    alloc_count::set_counting(true);
    let v = vec![0u8; 4096];
    alloc_count::set_counting(false);
    let (after, bytes) = alloc_count::snapshot();
    drop(v);
    assert!(after > before, "enabled counting must record allocations");
    assert!(bytes >= 4096, "byte accounting must include the 4 KiB vec");

    // Exempt threads are invisible to the counter.
    alloc_count::set_counting(true);
    std::thread::spawn(|| {
        alloc_count::exempt_current_thread();
        drop(vec![0u8; 1 << 20]);
    })
    .join()
    .unwrap();
    alloc_count::set_counting(false);
    let (_, after_bytes) = alloc_count::snapshot();
    // Spawning itself allocates on this (non-exempt) thread; the exempt
    // thread's 1 MiB buffer must not appear in the byte count.
    assert!(
        after_bytes.saturating_sub(bytes) < (1 << 20),
        "exempt thread's allocation was counted"
    );

    // --- session admission, measured ------------------------------------
    // Before the request path: that one exempts this thread from counting.
    let sessions = SessionManager::new(Arc::new(Store::in_memory()), 3600);
    let dn = DistinguishedName::parse("/O=grid/OU=People/CN=alloc gate").unwrap();
    for _ in 0..100 {
        sessions.create(&dn, 1000);
    }
    let (a0, _) = alloc_count::snapshot();
    alloc_count::set_counting(true);
    for _ in 0..1000 {
        std::hint::black_box(sessions.create(&dn, 1000));
    }
    alloc_count::set_counting(false);
    let per_create = (alloc_count::snapshot().0 - a0) as f64 / 1000.0;
    println!("allocs/session create: {per_create:.1}");
    assert!(
        per_create <= clarens_bench::MAX_ALLOCS_PER_SESSION_CREATE,
        "allocations per SessionManager::create regressed: {per_create:.1} > {}",
        clarens_bench::MAX_ALLOCS_PER_SESSION_CREATE
    );

    // --- the request path, measured --------------------------------------
    // Small worker count: one keep-alive connection only ever exercises
    // one worker, and idle workers' stacks are noise we don't need.
    let grid = bench_grid_workers(4);
    let session = bench_session(&grid);
    let steady = measure_allocs_per_request(&grid.addr(), &session, 400, Protocol::XmlRpc);
    grid.cleanup();

    println!(
        "allocs/request: {:.1}; bytes/request: {:.0}",
        steady.allocs_per_call, steady.bytes_per_call
    );
    // The allocation-lean path (streaming encoders, streaming call decoder,
    // buffer pool) measures ~18 allocations/request on the reference
    // machine; the DOM codecs without recycling it replaced measured ~56
    // (EXPERIMENTS.md, Ablation E). The ceiling sits between the two, so a
    // reintroduced per-request DOM or buffer churn fails here.
    assert!(
        steady.allocs_per_call <= clarens_bench::MAX_ALLOCS_PER_ECHO_XMLRPC,
        "steady-state allocations/request regressed: {:.1} > {}",
        steady.allocs_per_call,
        clarens_bench::MAX_ALLOCS_PER_ECHO_XMLRPC
    );
}
