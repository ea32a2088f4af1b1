//! Allocation accounting end-to-end: registers the counting allocator for
//! this test process and holds the server-side allocations of a
//! steady-state `echo.echo` loop under a ceiling per protocol (XML-RPC and
//! clarens-binary), those of one session admission under its own, and the
//! pki kernels'
//! (an RSA signature, a sealed and opened record, the digests) under theirs.
//!
//! Everything runs inside ONE `#[test]` so no concurrent test thread
//! pollutes the process-global counters.

use std::sync::Arc;

use clarens::session::SessionManager;
use clarens_bench::{alloc_count, bench_grid_workers, bench_session, measure_allocs_per_request};
use clarens_db::Store;
use clarens_pki::cert::{Certificate, CertificateAuthority, Credential};
use clarens_pki::dn::DistinguishedName;
use clarens_pki::{rsa, SecureChannel};
use clarens_wire::Protocol;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// Allocations made on any counted thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let (before, _) = alloc_count::snapshot();
    alloc_count::set_counting(true);
    f();
    alloc_count::set_counting(false);
    alloc_count::snapshot().0 - before
}

/// The pki kernels work in place: a signature allocates its operands and a
/// scratch block per exponentiation (the division-based `modpow` allocated
/// per multiplication, thousands per signature), a record sealed or opened
/// into a buffer that has held one allocates nothing, nor do the digests.
fn pki_kernel_allocations() {
    const NOW: i64 = 1_118_836_800;
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let dn = |text: &str| DistinguishedName::parse(text).unwrap();
    let ca = CertificateAuthority::new(&mut rng, dn("/O=alloc/CN=CA"), NOW, 3650);
    let mut issue = |subject: &str| {
        let kp = rsa::generate(&mut rng, 512);
        Arc::new(Credential {
            certificate: ca.issue(dn(subject), &kp.public, NOW, 365),
            key: kp.private,
            chain: vec![],
        })
    };
    let (host, alice) = (issue("/O=alloc/CN=host"), issue("/O=alloc/CN=alice"));

    let digest = clarens_pki::sha256::sha256(b"to be signed");
    let per_sign = allocations_during(|| {
        std::hint::black_box(alice.key.sign(&digest));
    });
    println!("allocs/RSA-512 signature: {per_sign}");
    assert!(per_sign <= 32, "allocations per signature: {per_sign} > 32");

    let roots: Arc<[Certificate]> = vec![ca.certificate.clone()].into();
    let mut client = SecureChannel::client(alice, Arc::clone(&roots), NOW, &mut rng);
    let mut server = SecureChannel::server(host, roots, NOW, &mut rng);
    let (mut wire, mut plaintext) = (Vec::new(), Vec::new());
    while !server.is_established() {
        server.feed(&client.take_output(), &mut plaintext).unwrap();
        client.feed(&server.take_output(), &mut plaintext).unwrap();
    }
    let record = vec![0xA5u8; clarens_pki::channel::MAX_RECORD];
    for warmed in [false, true] {
        wire.clear();
        plaintext.clear();
        let per_record = allocations_during(|| {
            client.seal(&record, &mut wire);
            server.feed(&wire, &mut plaintext).unwrap();
        });
        assert_eq!(plaintext, record);
        if warmed {
            assert_eq!(per_record, 0, "allocations per sealed and opened 16 KiB");
        }
    }

    let megabyte = vec![0x42u8; 1 << 20];
    let per_digest = allocations_during(|| {
        std::hint::black_box(clarens_pki::md5::md5(&megabyte));
        std::hint::black_box(clarens_pki::sha256::sha256(&megabyte));
    });
    assert_eq!(per_digest, 0, "allocations per 1 MiB of MD5 + SHA-256");
}

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

    // --- the pki kernels, measured ----------------------------------------
    pki_kernel_allocations();

    // --- the request path, measured --------------------------------------
    // Small worker count: one keep-alive connection only ever exercises
    // one worker, and idle workers' stacks are noise we don't need.
    let grid = bench_grid_workers(4);
    let session = bench_session(&grid);
    // The allocation-lean path (streaming encoders, streaming call decoder,
    // buffer pool) measures ~18 allocations/request over XML-RPC on the
    // reference machine; the DOM codecs without recycling it replaced
    // measured ~56 (EXPERIMENTS.md, Ablation E). The ceiling sits between
    // the two, so a reintroduced per-request DOM or buffer churn fails
    // here. clarens-binary has no XML text to handle and a lower ceiling.
    for (name, protocol, ceiling) in [
        (
            "XML-RPC",
            Protocol::XmlRpc,
            clarens_bench::MAX_ALLOCS_PER_ECHO_XMLRPC,
        ),
        (
            "clarens-binary",
            Protocol::Binary,
            clarens_bench::MAX_ALLOCS_PER_ECHO_BINARY,
        ),
    ] {
        let steady = measure_allocs_per_request(&grid.addr(), &session, 400, protocol);
        println!(
            "allocs/request [{name}]: {:.1}; bytes/request: {:.0}",
            steady.allocs_per_call, steady.bytes_per_call
        );
        assert!(
            steady.allocs_per_call <= ceiling,
            "{name} steady-state allocations/request regressed: {:.1} > {ceiling}",
            steady.allocs_per_call
        );
    }
    grid.cleanup();
}
