//! Per-layer probes: each times calls into one layer's public functions
//! from outside, in fixed-iteration batches, and reports the median batch.
//! Nothing here reads a layer's internals.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use clarens::acl::Acl;
use clarens::testkit::{dn, now, GridOptions, TestGrid};
use clarens_db::Store;
use clarens_httpd::parse::{read_request, write_response};
use clarens_httpd::{HttpServer, PeerInfo, Request, Response, ServerConfig};
use clarens_pki::cert::verify_chain;
use clarens_pki::SecureStream;
use clarens_telemetry::{Phase, Telemetry};
use clarens_wire::{
    decode_call, decode_response, encode_call, encode_response, Protocol, RpcCall, RpcResponse,
    Value,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::alloc;
use crate::deploy::{xmlrpc_request, Pki};
use crate::http::{request_head, Client};
use crate::plan::{design, Outgoing, Workload};
use crate::report::Metric;
use crate::stats::{median, percentile};

/// Every probe value is the median of this many batches.
const BATCHES: usize = 9;

const MAX_BODY: usize = 16 * 1024 * 1024;

/// Iterations per batch, scaled down for the smoke run.
#[derive(Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    fn iters(self, full: usize) -> usize {
        ((full as f64 * self.0) as usize).max(1)
    }
}

/// Median over [`BATCHES`] batches of the mean nanoseconds one call of `f`
/// takes within a batch of `iters`. One untimed batch runs first.
fn per_call_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if batch > 0 {
            batches.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    median(&batches)
}

struct Out {
    metrics: Vec<Metric>,
}

impl Out {
    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics
            .push(Metric::new(name, value, unit, samples as u64));
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or_else(|| panic!("probe {name} has not run"))
    }
}

const PROTOCOLS: [(Protocol, &str); 4] = [
    (Protocol::XmlRpc, "xmlrpc"),
    (Protocol::Soap, "soap"),
    (Protocol::JsonRpc, "jsonrpc"),
    (Protocol::Binary, "binary"),
];

/// The `file.ls`-shaped `echo.echo` call `rpc_mix_open` sends.
fn listing_call(seed: u64) -> RpcCall {
    design(Workload::RpcMixOpen, seed)
        .calls
        .into_iter()
        .find_map(|spec| match spec.send {
            Outgoing::Rpc { call, .. } if call.method == "echo.echo" => Some(call),
            _ => None,
        })
        .expect("the mix has an echo call")
}

fn wire(out: &mut Out, scale: Scale, methods: &Value, seed: u64) {
    let response = RpcResponse::Success(methods.clone());
    let call = listing_call(seed);
    let id = Value::Int(1);
    for (protocol, label) in PROTOCOLS {
        let iters = scale.iters(2000);
        let encoded = encode_response(protocol, &response, Some(&id));
        let ns = per_call_ns(iters, || {
            black_box(encode_response(protocol, black_box(&response), Some(&id)));
        });
        out.push(
            &format!("wire.{label}_encode_resp_ns"),
            ns,
            "ns",
            BATCHES * iters,
        );
        out.push(
            &format!("wire.{label}_resp_bytes"),
            encoded.len() as f64,
            "bytes",
            1,
        );
        let body = encode_call(protocol, &call);
        let ns = per_call_ns(iters, || {
            black_box(decode_call(protocol, black_box(&body)).expect("own encoding decodes"));
        });
        out.push(
            &format!("wire.{label}_decode_call_ns"),
            ns,
            "ns",
            BATCHES * iters,
        );
    }
    let iters = scale.iters(2000);
    let before = alloc::snapshot();
    alloc::set_counting(true);
    for _ in 0..iters {
        black_box(encode_response(
            Protocol::XmlRpc,
            black_box(&response),
            None,
        ));
    }
    alloc::set_counting(false);
    let allocs = (alloc::snapshot().0 - before.0) as f64 / iters as f64;
    out.push("wire.xmlrpc_encode_allocs", allocs, "count", iters);
}

/// The Figure-4 request as it goes on the wire, and its decoded result.
struct Fig4 {
    request: Vec<u8>,
    call_body: Vec<u8>,
    response_body: Vec<u8>,
    methods: Value,
    p50_us: f64,
}

fn fig4(grid: &TestGrid, scale: Scale) -> Fig4 {
    let session = grid
        .core()
        .sessions
        .create(&grid.user.certificate.subject, now())
        .id;
    let call = RpcCall::new("system.list_methods", vec![]);
    let call_body = encode_call(Protocol::XmlRpc, &call);
    let request = xmlrpc_request(&session, &call);
    let mut client = Client::connect(&grid.addr()).expect("connect to the probe grid");
    let mut latencies = Vec::new();
    let mut response_body = Vec::new();
    let n = scale.iters(4000);
    for i in 0..n + n / 10 {
        let start = Instant::now();
        let (status, body) = client.exchange(&request).expect("list_methods exchange");
        if i >= n / 10 {
            latencies.push(start.elapsed().as_nanos() as u64);
        }
        assert_eq!(status, 200, "list_methods on the probe grid");
        response_body = body;
    }
    latencies.sort_unstable();
    let methods = match decode_response(Protocol::XmlRpc, &response_body) {
        Ok(RpcResponse::Success(value)) => value,
        other => panic!("list_methods on the probe grid answered {other:?}"),
    };
    Fig4 {
        request,
        call_body,
        response_body,
        methods,
        p50_us: percentile(&latencies, 0.5) as f64 / 1e3,
    }
}

fn httpd(out: &mut Out, scale: Scale, fig4: &Fig4) {
    let iters = scale.iters(5000);
    let ns = per_call_ns(iters, || {
        let mut reader = black_box(fig4.request.as_slice());
        black_box(read_request(&mut reader, MAX_BODY).expect("own request parses"));
    });
    out.push("httpd.parse_request_ns", ns, "ns", BATCHES * iters);
    let mut sink = Vec::with_capacity(fig4.response_body.len() + 256);
    let ns = per_call_ns(iters, || {
        sink.clear();
        let response = Response::ok("text/xml", fig4.response_body.clone());
        black_box(write_response(&mut sink, response, true, false).expect("write to memory"));
    });
    out.push("httpd.write_response_ns", ns, "ns", BATCHES * iters);

    // The bare server: no Clarens handler behind it, so a round trip is
    // the floor under every RPC latency.
    let handler = |_request: Request, _peer: Option<&PeerInfo>| Response::ok("text/plain", "ok");
    let config = ServerConfig {
        workers: 2,
        ..Default::default()
    };
    let server =
        HttpServer::bind("127.0.0.1:0", config, Arc::new(handler)).expect("bind bare server");
    let addr = server.local_addr().to_string();
    let mut request = request_head("POST", "/noop", Some("text/plain"), Some(2), false);
    request.extend_from_slice(b"\r\nhi");
    let mut client = Client::connect(&addr).expect("connect to bare server");
    let iters = scale.iters(1000);
    let ns = per_call_ns(iters, || {
        black_box(client.exchange(&request).expect("noop exchange"));
    });
    out.push("httpd.noop_roundtrip_us", ns / 1e3, "us", BATCHES * iters);
    drop(client);
    let iters = scale.iters(100);
    let ns = per_call_ns(iters, || {
        let mut fresh = Client::connect(&addr).expect("connect to bare server");
        black_box(fresh.exchange(&request).expect("noop exchange"));
    });
    out.push(
        "httpd.conn_setup_us",
        ns / 1e3 - out.get("httpd.noop_roundtrip_us"),
        "us",
        BATCHES * iters,
    );
    server.shutdown();
}

fn core(out: &mut Out, scale: Scale, grid: &TestGrid) {
    let core = grid.core();
    let admin = &grid.admin.certificate.subject;
    let at = now();

    // One branch six levels deep; members sit at the top, the ACL names
    // the leaf, so a decision walks the whole branch.
    let mut group = String::from("probe");
    core.vo
        .create_group(admin, &group)
        .expect("create probe group");
    core.vo
        .add_member(admin, &group, "/O=probe/OU=members")
        .expect("add probe members");
    for _ in 1..6 {
        group.push_str(".0");
        core.vo
            .create_group(admin, &group)
            .expect("create probe subgroup");
    }
    core.acl.set_method_acl(
        "probe",
        &Acl {
            allow_groups: vec![group.clone()],
            ..Default::default()
        },
    );

    let iters = scale.iters(2000);
    let callers: Vec<_> = (0..(BATCHES + 1) * iters + 1)
        .map(|i| dn(&format!("/O=probe/OU=members/CN=u{i:06}")))
        .collect();

    // Every `create` invalidates the sessions cached before it, so after
    // the last one each earlier id resolves through the store exactly once.
    let ids: Vec<String> = callers
        .iter()
        .map(|c| core.sessions.create(c, at).id)
        .collect();
    let mut next = 0;
    let ns = per_call_ns(iters, || {
        black_box(
            core.sessions
                .resolve(&ids[next], at)
                .expect("session exists"),
        );
        next += 1;
    });
    out.push("core.session_resolve_miss_ns", ns, "ns", BATCHES * iters);
    let ns = per_call_ns(iters, || {
        black_box(
            core.sessions
                .resolve(black_box(&ids[0]), at)
                .expect("session exists"),
        );
    });
    out.push("core.session_resolve_hit_ns", ns, "ns", BATCHES * iters);

    let mut next = 0;
    let ns = per_call_ns(iters, || {
        assert!(core
            .acl
            .check_method("probe.call", &callers[next], &core.vo));
        next += 1;
    });
    out.push("core.acl_check_deep_miss_ns", ns, "ns", BATCHES * iters);
    let ns = per_call_ns(iters, || {
        assert!(core
            .acl
            .check_method("probe.call", black_box(&callers[0]), &core.vo));
    });
    out.push("core.acl_check_hit_ns", ns, "ns", BATCHES * iters);
    let ns = per_call_ns(iters, || {
        assert!(core.vo.is_member(black_box(&group), &callers[0]));
    });
    out.push("core.vo_is_member_ns", ns, "ns", BATCHES * iters);
}

fn db(out: &mut Out, scale: Scale, root: &Path) {
    const KEYS: usize = 200_000;
    const PER_PREFIX: usize = 200;
    let value = vec![0x5Au8; 128];
    let keys: Vec<String> = (0..KEYS)
        .map(|i| format!("p{:04}/k{:03}", i / PER_PREFIX, i % PER_PREFIX))
        .collect();
    let store = Store::in_memory();
    let iters = KEYS / (BATCHES + 1);
    let mut next = 0;
    let ns = per_call_ns(iters, || {
        store
            .put("probe", &keys[next], value.clone())
            .expect("in-memory put");
        next += 1;
    });
    out.push("db.put_mem_ns", ns, "ns", BATCHES * iters);
    for key in &keys[next..] {
        store
            .put("probe", key, value.clone())
            .expect("in-memory put");
    }
    let iters = scale.iters(20_000);
    let mut at = 0usize;
    let ns = per_call_ns(iters, || {
        at = (at + 7919) % KEYS;
        black_box(store.get("probe", &keys[at]).expect("key was put"));
    });
    out.push("db.get_ns", ns, "ns", BATCHES * iters);
    let iters = scale.iters(200);
    let mut prefix = 0usize;
    let ns = per_call_ns(iters, || {
        prefix = (prefix + 131) % (KEYS / PER_PREFIX);
        let found = store.scan_prefix("probe", &format!("p{prefix:04}/"));
        assert_eq!(found.len(), PER_PREFIX);
    });
    out.push("db.scan_prefix_ns", ns, "ns", BATCHES * iters);
    drop(store);

    // Durable appends: one writer, then two writers sharing commits.
    let path = root.join("probe-durable.wal");
    let store = Store::open_with_sync(&path, true).expect("open durable probe store");
    let iters = scale.iters(30);
    let mut next = 0;
    let before = store.storage_counters();
    let ns = per_call_ns(iters, || {
        store
            .put("probe", &keys[next], value.clone())
            .expect("durable put");
        next += 1;
    });
    out.push("db.put_durable_1w_us", ns / 1e3, "us", BATCHES * iters);
    let single = store.storage_counters();
    let mut batches = Vec::new();
    for batch in 0..BATCHES {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for writer in 0..2 {
                let (store, keys, value) = (&store, &keys, &value);
                let first = next + (2 * batch + writer) * iters;
                scope.spawn(move || {
                    for key in &keys[first..first + iters] {
                        store.put("probe", key, value.clone()).expect("durable put");
                    }
                });
            }
        });
        batches.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    out.push(
        "db.put_durable_2w_us",
        median(&batches) / 1e3,
        "us",
        BATCHES * iters * 2,
    );
    let after = store.storage_counters();
    let puts_2w = (BATCHES * iters * 2) as f64;
    out.push(
        "db.fsyncs_per_put",
        (after.fsyncs - single.fsyncs) as f64 / puts_2w,
        "ratio",
        puts_2w as usize,
    );
    let puts = ((BATCHES + 1) * iters) as f64 + puts_2w;
    let user_bytes = puts * ("probe".len() + keys[0].len() + value.len()) as f64;
    out.push(
        "db.wal_bytes_per_user_byte",
        (after.bytes_written - before.bytes_written) as f64 / user_bytes,
        "ratio",
        puts as usize,
    );
    drop(store);
    let _ = std::fs::remove_file(&path);

    // Compaction and recovery of a log that is half garbage.
    let path = root.join("probe-compact.wal");
    let live = scale.iters(20_000);
    let mut compact = Vec::new();
    let mut recover = Vec::new();
    for _ in 0..3 {
        let _ = std::fs::remove_file(&path);
        let store = Store::open_with_sync(&path, false).expect("open compaction probe store");
        for _ in 0..2 {
            for key in &keys[..live] {
                store.put("probe", key, value.clone()).expect("put");
            }
        }
        let start = Instant::now();
        store.compact().expect("compact");
        compact.push(start.elapsed().as_secs_f64());
        drop(store);
        let start = Instant::now();
        let store = Store::open_with_sync(&path, false).expect("reopen compaction probe store");
        recover.push(start.elapsed().as_secs_f64());
        assert!(
            store.get("probe", &keys[live - 1]).is_some(),
            "recovered store lost a key"
        );
    }
    let _ = std::fs::remove_file(&path);
    out.push("db.compact_s", median(&compact), "s", compact.len());
    out.push("db.recover_s", median(&recover), "s", recover.len());
}

/// A secure-channel pair over loopback: the connecting end, and a thread
/// that runs `serve` on the accepting end.
pub fn secure_pair<T: Send + 'static>(
    pki: &Pki,
    seed: u64,
    serve: impl FnOnce(SecureStream<TcpStream>) -> T + Send + 'static,
) -> (SecureStream<TcpStream>, std::thread::JoinHandle<T>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let (server, roots) = (pki.server.clone(), vec![pki.ca.clone()]);
    let acceptor = std::thread::spawn(move || {
        let (sock, _) = listener.accept().expect("accept");
        sock.set_nodelay(true).expect("nodelay");
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let (stream, _) =
            SecureStream::accept(sock, &server, &roots, now(), &mut rng).expect("accept handshake");
        serve(stream)
    });
    let sock = TcpStream::connect(addr).expect("connect loopback");
    sock.set_nodelay(true).expect("nodelay");
    let mut rng = StdRng::seed_from_u64(seed);
    let stream = SecureStream::connect(
        sock,
        &pki.user,
        std::slice::from_ref(&pki.ca),
        now(),
        &mut rng,
    )
    .expect("connect handshake");
    (stream, acceptor)
}

fn pki(out: &mut Out, scale: Scale, pki: &Pki) {
    let iters = scale.iters(5);
    let mut seed = 0;
    let ns = per_call_ns(iters, || {
        seed += 2;
        let (stream, acceptor) = secure_pair(pki, seed, drop);
        acceptor.join().expect("acceptor");
        drop(stream);
    });
    out.push("pki.handshake_ms", ns / 1e6, "ms", BATCHES * iters);

    const RECORD: usize = 16 * 1024;
    let records = (BATCHES + 1) * scale.iters(200);
    let (mut stream, acceptor) = secure_pair(pki, 99, move |mut peer| {
        let mut buf = vec![0u8; RECORD];
        for _ in 0..records {
            peer.read_exact(&mut buf).expect("read record");
        }
        peer.write_all(b"done")
            .and_then(|()| peer.flush())
            .expect("ack");
    });
    let block = vec![0xA5u8; RECORD];
    let iters = records / (BATCHES + 1);
    let ns = per_call_ns(iters, || {
        stream
            .write_all(&block)
            .and_then(|()| stream.flush())
            .expect("write record");
    });
    let mut ack = [0u8; 4];
    stream.read_exact(&mut ack).expect("read ack");
    acceptor.join().expect("acceptor");
    out.push(
        "pki.record_16k_mb_per_s",
        RECORD as f64 / ns * 1e3,
        "MB/s",
        BATCHES * iters,
    );

    let pings = (BATCHES + 1) * scale.iters(500);
    let (mut stream, acceptor) = secure_pair(pki, 101, move |mut peer| {
        let mut buf = [0u8; 256];
        for _ in 0..pings {
            peer.read_exact(&mut buf).expect("read ping");
            peer.write_all(&buf)
                .and_then(|()| peer.flush())
                .expect("write pong");
        }
    });
    let mut buf = [0x3Cu8; 256];
    let iters = pings / (BATCHES + 1);
    let ns = per_call_ns(iters, || {
        stream
            .write_all(&buf)
            .and_then(|()| stream.flush())
            .expect("write ping");
        stream.read_exact(&mut buf).expect("read pong");
    });
    acceptor.join().expect("acceptor");
    out.push(
        "pki.record_256b_roundtrip_us",
        ns / 1e3,
        "us",
        BATCHES * iters,
    );

    let mut data = vec![0x42u8; 64 * 1024];
    let mb_per_s = |ns: f64| 64.0 * 1024.0 / ns * 1e3;
    let iters = scale.iters(50);
    let (key, nonce) = ([7u8; 32], [9u8; 12]);
    let ns = per_call_ns(iters, || {
        clarens_pki::chacha20::xor_stream(&key, &nonce, 0, black_box(&mut data))
    });
    out.push(
        "pki.chacha20_mb_per_s",
        mb_per_s(ns),
        "MB/s",
        BATCHES * iters,
    );
    let ns = per_call_ns(iters, || {
        black_box(clarens_pki::hmac::hmac_sha256(&key, black_box(&data)));
    });
    out.push(
        "pki.hmac_sha256_mb_per_s",
        mb_per_s(ns),
        "MB/s",
        BATCHES * iters,
    );
    let ns = per_call_ns(iters, || {
        black_box(clarens_pki::md5::md5(black_box(&data)));
    });
    out.push("pki.md5_mb_per_s", mb_per_s(ns), "MB/s", BATCHES * iters);

    let digest = clarens_pki::sha256::sha256(b"probe message");
    let signature = pki.user.key.sign(&digest);
    let iters = scale.iters(20);
    let ns = per_call_ns(iters, || {
        black_box(pki.user.key.sign(black_box(&digest)));
    });
    out.push("pki.rsa_sign_us", ns / 1e3, "us", BATCHES * iters);
    let iters = scale.iters(200);
    let ns = per_call_ns(iters, || {
        pki.user
            .certificate
            .public_key
            .verify(&digest, &signature)
            .expect("own signature verifies");
    });
    out.push("pki.rsa_verify_us", ns / 1e3, "us", BATCHES * iters);
    let chain = [pki.user.certificate.clone()];
    let roots = [pki.ca.clone()];
    let at = now();
    let ns = per_call_ns(iters, || {
        black_box(verify_chain(&chain, &roots, at).expect("own chain verifies"));
    });
    out.push("pki.chain_verify_us", ns / 1e3, "us", BATCHES * iters);
}

fn telemetry(out: &mut Out, scale: Scale, grid: &TestGrid) {
    let plane = Telemetry::enabled();
    let at = now();
    let iters = scale.iters(5000);
    let ns = per_call_ns(iters, || {
        let mut trace = plane.begin_request();
        for phase in [
            Phase::Parse,
            Phase::Auth,
            Phase::Acl,
            Phase::Dispatch,
            Phase::Serialize,
            Phase::Write,
        ] {
            trace.span(phase, || black_box(()));
        }
        trace.method = Some("system.list_methods".to_owned());
        trace.protocol = Some("xmlrpc");
        trace.status = 200;
        plane.finish_request(&trace, at);
    });
    out.push("telemetry.request_spans_ns", ns, "ns", BATCHES * iters);
    // The probe grid's plane: every gauge registered, some methods seen.
    let plane = &grid.core().telemetry;
    let iters = scale.iters(200);
    let ns = per_call_ns(iters, || {
        black_box(plane.render_prometheus());
    });
    out.push(
        "telemetry.render_prometheus_us",
        ns / 1e3,
        "us",
        BATCHES * iters,
    );
}

/// Run every probe. The probe grid is started and stopped here.
pub fn run_all(identities: &Pki, seed: u64, scale: Scale, root: &Path) -> Vec<Metric> {
    let grid = TestGrid::start_with(GridOptions {
        seed,
        workers: 2,
        ..Default::default()
    });
    let mut out = Out {
        metrics: Vec::new(),
    };
    let fig4 = fig4(&grid, scale);
    wire(&mut out, scale, &fig4.methods, seed);
    httpd(&mut out, scale, &fig4);
    core(&mut out, scale, &grid);
    db(&mut out, scale, root);
    pki(&mut out, scale, identities);
    telemetry(&mut out, scale, &grid);
    grid.cleanup();

    // What the probes say one list_methods request costs inside the
    // layers, against what one connection actually sees. Dispatch has no
    // public entry point and is left out; the rest of the gap is kernel
    // loopback and scheduling.
    let call = fig4.call_body.clone();
    let decode_ns = per_call_ns(scale.iters(5000), || {
        black_box(decode_call(Protocol::XmlRpc, black_box(&call)).expect("own call decodes"));
    });
    let layer_sum_ns = out.get("httpd.parse_request_ns")
        + decode_ns
        + out.get("core.session_resolve_hit_ns")
        + out.get("core.acl_check_hit_ns")
        + out.get("wire.xmlrpc_encode_resp_ns")
        + out.get("httpd.write_response_ns")
        + out.get("telemetry.request_spans_ns");
    out.push(
        "bench.fig4_layer_sum_over_e2e",
        layer_sum_ns / 1e3 / fig4.p50_us,
        "ratio",
        scale.iters(4000),
    );
    out.metrics
}
