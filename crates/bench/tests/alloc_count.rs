//! Allocation accounting end-to-end: registers the counting allocator for
//! this test process and holds the server-side allocations of a
//! steady-state `echo.echo` loop under a ceiling per protocol (XML-RPC and
//! clarens-binary), those of one session admission and of one DN parse
//! under their own, a memoized method or file authorization at none, the
//! pki kernels' (an RSA signature, a sealed and opened record, the
//! digests) under theirs, what a server allocates
//! for a request body that arrives in fragments, and for a head that
//! arrives one byte at a time, under their own, and the client codec's
//! calls and responses on every text protocol under theirs.
//!
//! Everything runs inside ONE `#[test]` so no concurrent test thread
//! pollutes the process-global counters.

use std::io::{BufReader, Write};
use std::sync::Arc;

use clarens::acl::{Acl, AclEngine, FileAccess, FileAcl};
use clarens::session::SessionManager;
use clarens::vo::VoManager;
use clarens_bench::{alloc_count, bench_grid_workers, bench_session, measure_allocs_per_request};
use clarens_db::Store;
use clarens_httpd::{parse::read_response, serve_pipe, PeerInfo, Request, Response, ServerConfig};
use clarens_pki::cert::{Certificate, CertificateAuthority, Credential};
use clarens_pki::dn::DistinguishedName;
use clarens_pki::{rsa, SecureChannel};
use clarens_wire::{Protocol, RpcCall, RpcResponse, Value};
use rand::{rngs::StdRng, SeedableRng};

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

/// A request body that arrives in fragments is parsed once it is whole:
/// 1 MiB in 1 KiB fragments, each written and flushed on its own over a
/// pipe (the server runs on this thread, so every count is the server's;
/// the client writes from a buffer it already holds), allocates
/// under 4 MiB — as a `content-length` body, and as 1 024 chunks of a
/// `chunked` one. A server that parsed it again on every fragment would
/// size the whole body each time: about 1 GiB.
fn dripped_body_bytes() {
    let handler = |request: Request, _: Option<&PeerInfo>| {
        Response::ok("text/plain", request.body.len().to_string())
    };
    let pipe = serve_pipe(ServerConfig::default(), Arc::new(handler));
    let body = 1 << 20;
    let mut sized = format!("POST /drip HTTP/1.1\r\nhost: h\r\ncontent-length: {body}\r\n\r\n");
    sized.extend(std::iter::repeat_n('x', body));
    let sized: Vec<&[u8]> = sized.as_bytes().chunks(1024).collect();
    let head = b"POST /drip HTTP/1.1\r\nhost: h\r\ntransfer-encoding: chunked\r\n\r\n";
    let chunk = [b"400\r\n".as_slice(), &[b'x'; 1024], b"\r\n"].concat();
    let mut chunked = vec![head.as_slice()];
    chunked.extend(std::iter::repeat_n(chunk.as_slice(), body / 1024));
    chunked.push(b"0\r\n\r\n");
    for (framing, fragments) in [("content-length", sized), ("chunked", chunked)] {
        let mut client = pipe.connect().unwrap();
        let (_, before) = alloc_count::snapshot();
        alloc_count::set_counting(true);
        for fragment in fragments {
            client.write_all(fragment).unwrap();
            client.flush().unwrap();
        }
        alloc_count::set_counting(false);
        let bytes = alloc_count::snapshot().1 - before;
        let response = read_response(&mut BufReader::new(client), usize::MAX).unwrap();
        assert_eq!(response.body, body.to_string().as_bytes());
        println!("server bytes allocated for a 1 MiB {framing} body in 1 KiB fragments: {bytes}");
        assert!(
            bytes < 4 << 20,
            "{bytes} bytes allocated for a 1 MiB {framing} body"
        );
    }
}

/// A head that arrives one byte per write is scanned once, not once per
/// byte: 30 754 bytes and 540 headers, written and flushed a byte at a
/// time over a pipe, cost the server under 1 MiB in under 5 000
/// allocations. A server that parsed the head again from its first byte
/// on every read made 18 062 190 allocations of 1 673 372 355 bytes.
fn dripped_head_allocations() {
    let handler = |request: Request, _: Option<&PeerInfo>| {
        Response::ok("text/plain", request.headers.len().to_string())
    };
    let pipe = serve_pipe(ServerConfig::default(), Arc::new(handler));
    let mut head = String::from("GET /drip HTTP/1.1\r\n");
    for i in 0..540 {
        // Values of 43 and 42 bytes make the head 30 754 bytes long.
        let value = "v".repeat(if i < 492 { 43 } else { 42 });
        head += &format!("x-drip-{i:03}: {value}\r\n");
    }
    head += "\r\n";
    assert_eq!(head.len(), 30_754);
    let mut client = pipe.connect().unwrap();
    let before = alloc_count::snapshot();
    alloc_count::set_counting(true);
    for byte in head.as_bytes().chunks(1) {
        client.write_all(byte).unwrap();
        client.flush().unwrap();
    }
    alloc_count::set_counting(false);
    let after = alloc_count::snapshot();
    let (allocs, bytes) = (after.0 - before.0, after.1 - before.1);
    let response = read_response(&mut BufReader::new(client), usize::MAX).unwrap();
    assert_eq!(response.body, b"540", "headers the server saw");
    println!("server allocations for a 30 754-byte head in 1-byte writes: {allocs}, {bytes} bytes");
    assert!(
        bytes < 1 << 20,
        "{bytes} bytes allocated for a dripped head"
    );
    assert!(allocs < 5_000, "{allocs} allocations for a dripped head");
}

/// The client codec streams as the server's does: encoding an echo call
/// writes one buffer, and decoding a `system.list_methods` response (69
/// names, the registry's size) allocates the names and the array that
/// holds them, not a tree. Each ceiling is two above the count measured
/// (1 / 3 / 1 per call, 76 / 75 / 79 per list, 4 per SOAP call decoded). Through an element tree the parent measured
/// 18 / 27 / 12 allocations per echo call on XML-RPC / SOAP / JSON-RPC,
/// 438 / 445 / 149 per list decoded, and 23 per SOAP call the server
/// decoded.
fn client_codec_allocations() {
    let echo = RpcCall::new("echo.echo", vec![Value::from("hello")]);
    let names = (0..69).map(|i| Value::Str(format!("service{}.method_{i}", i % 12)));
    let list = RpcResponse::Success(Value::Array(names.collect()));
    for (name, protocol, encode_ceiling, decode_ceiling) in [
        ("XML-RPC", Protocol::XmlRpc, 3, 78),
        ("SOAP", Protocol::Soap, 5, 77),
        ("JSON-RPC", Protocol::JsonRpc, 3, 81),
    ] {
        let encode = allocations_during(|| {
            std::hint::black_box(clarens_wire::encode_call(protocol, &echo));
        });
        let body = clarens_wire::encode_response(protocol, &list, None);
        let decode = allocations_during(|| {
            let decoded = clarens_wire::decode_response(protocol, &body).unwrap();
            std::hint::black_box(decoded);
        });
        println!(
            "allocs/{name} echo encode_call: {encode}; list_methods decode_response: {decode}"
        );
        assert!(
            encode <= encode_ceiling,
            "{name} encode_call: {encode} > {encode_ceiling}"
        );
        assert!(
            decode <= decode_ceiling,
            "{name} decode_response: {decode} > {decode_ceiling}"
        );
    }
    let body = clarens_wire::encode_call(Protocol::Soap, &echo);
    let decode = allocations_during(|| {
        std::hint::black_box(clarens_wire::decode_call(Protocol::Soap, &body).unwrap());
    });
    println!("allocs/SOAP echo decode_call: {decode}");
    assert!(decode <= 6, "SOAP decode_call: {decode} > 6");
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

    // --- DN text, measured ------------------------------------------------
    // The attribute `Vec` and one string per value; a known type allocates
    // nothing.
    let text = dn.to_string();
    let per_parse = allocations_during(|| {
        std::hint::black_box(DistinguishedName::parse(&text).unwrap());
    });
    println!("allocs/DN parse (3 attributes): {per_parse}");
    assert!(per_parse <= 4, "allocations per DN parse: {per_parse} > 4");

    // --- memoized authorization, measured ----------------------------------
    // A repeated method or file question is answered from the decision
    // memo, whose key is built in a per-thread buffer: no allocation.
    let store = Arc::new(Store::in_memory());
    let vo = VoManager::new(Arc::clone(&store), &[]);
    let acl = AclEngine::new(store);
    acl.set_method_acl("file", &Acl::allow_dn("/O=grid"))
        .unwrap();
    let read_only = FileAcl {
        read: Acl::allow_dn("/O=grid"),
        write: Acl::default(),
    };
    acl.set_file_acl("/data", &read_only).unwrap();
    let ask_method = || assert!(acl.check_method("file.read", &dn, &vo));
    let ask_file = || {
        assert!(acl.check_file("/data/run1/f", FileAccess::Read, &dn, &vo));
        assert!(!acl.check_file("/data/run1/f", FileAccess::Write, &dn, &vo));
    };
    ask_method();
    ask_file();
    let per_method = allocations_during(|| (0..100).for_each(|_| ask_method()));
    let per_file = allocations_during(|| (0..50).for_each(|_| ask_file()));
    println!("allocs/100 memoized method checks: {per_method}; /100 file checks: {per_file}");
    assert_eq!(per_method, 0, "memoized method checks allocated");
    assert_eq!(per_file, 0, "memoized file checks allocated");

    // --- the pki kernels, measured ----------------------------------------
    pki_kernel_allocations();

    // --- the client codec, measured ----------------------------------------
    client_codec_allocations();

    // --- a body in fragments, measured ------------------------------------
    dripped_body_bytes();
    dripped_head_allocations();

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
