//! # clarens-bench — workload drivers for the paper's evaluation
//!
//! Shared machinery for the `repro` binary (which prints every table and
//! figure of the paper's evaluation section, see EXPERIMENTS.md) and the
//! Criterion benches. Each experiment in DESIGN.md's per-experiment index
//! maps to one function here.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens::testkit::{GridOptions, TestGrid};
use clarens::ClarensClient;
use clarens_wire::{Protocol, RpcCall, Value};

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

/// Drive `clients` concurrent clients against `addr`, each looping
/// `method` over a shared keep-alive connection for `duration`. Mirrors
/// the paper's Figure-4 driver ("a single process opening connections to
/// the server and completing requests asynchronously" — here, one thread
/// per asynchronous client).
pub fn measure_throughput(
    addr: &str,
    session: &str,
    clients: usize,
    duration: Duration,
    method: &'static str,
    protocol: Protocol,
) -> ThroughputPoint {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(clients);
    for _ in 0..clients {
        let addr = addr.to_owned();
        let session = session.to_owned();
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        handles.push(std::thread::spawn(move || {
            let mut client = ClarensClient::new(addr).with_protocol(protocol);
            // An empty session means "anonymous client" — send no header at
            // all rather than an empty one the server would look up.
            if !session.is_empty() {
                client.set_session(session);
            }
            let mut local = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let result = match method {
                    "echo.echo" => client.call(method, vec![Value::Int(1)]).map(|_| ()),
                    other => client.call(other, vec![]).map(|_| ()),
                };
                match result {
                    Ok(()) => local += 1,
                    Err(e) => panic!("bench call failed: {e}"),
                }
            }
            total.fetch_add(local, Ordering::Relaxed);
        }));
    }
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

/// Like [`measure_throughput`], but every call carries a caller-supplied
/// parameter list (cloned per call). This is how the binproto ablation
/// drives the struct-heavy `file.ls`-style payload through `echo.echo`
/// so both request and response carry the structure.
pub fn measure_throughput_params(
    addr: &str,
    session: &str,
    clients: usize,
    duration: Duration,
    method: &'static str,
    params: Vec<Value>,
    protocol: Protocol,
) -> ThroughputPoint {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(clients);
    for _ in 0..clients {
        let addr = addr.to_owned();
        let session = session.to_owned();
        let params = params.clone();
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        handles.push(std::thread::spawn(move || {
            let mut client = ClarensClient::new(addr).with_protocol(protocol);
            if !session.is_empty() {
                client.set_session(session);
            }
            let mut local = 0u64;
            while !stop.load(Ordering::Relaxed) {
                match client.call(method, params.clone()) {
                    Ok(_) => local += 1,
                    Err(e) => panic!("bench call failed: {e}"),
                }
            }
            total.fetch_add(local, Ordering::Relaxed);
        }));
    }
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

/// Throughput over one pipelined persistent connection: `depth` requests
/// are written back-to-back, then `depth` responses are read and decoded,
/// in lock-step batches for `duration`. Pipelining amortizes the
/// per-round-trip syscall and scheduler cost that is identical across
/// protocols, so the per-request codec cost — the thing a wire-protocol
/// ablation is after — dominates the measurement. The call is encoded and
/// every response decoded inside the loop (the full per-call codec cost a
/// real RPC client pays); only driver bookkeeping is hoisted out.
pub fn measure_throughput_pipelined(
    addr: &str,
    session: &str,
    depth: usize,
    duration: Duration,
    method: &str,
    params: Vec<Value>,
    protocol: Protocol,
) -> ThroughputPoint {
    use std::io::{Read, Write};

    let stream = std::net::TcpStream::connect(addr).expect("pipelined connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let head_prefix = format!(
        "POST /clarens HTTP/1.1\r\nhost: {addr}\r\ncontent-type: {}\r\n\
         x-clarens-session: {session}\r\ncontent-length: ",
        protocol.content_type(),
    );
    let call = RpcCall::new(method, params);
    let expected = call.params.first().cloned();
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut inbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut itoa = [0u8; 20];
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed() < duration {
        out.clear();
        for _ in 0..depth {
            let body = clarens_wire::encode_call(protocol, &call);
            out.extend_from_slice(head_prefix.as_bytes());
            // content-length digits without a format! round-trip.
            let mut n = body.len();
            let mut at = itoa.len();
            loop {
                at -= 1;
                itoa[at] = b'0' + (n % 10) as u8;
                n /= 10;
                if n == 0 {
                    break;
                }
            }
            out.extend_from_slice(&itoa[at..]);
            out.extend_from_slice(b"\r\n\r\n");
            out.extend_from_slice(&body);
        }
        (&stream).write_all(&out).expect("pipelined write");
        // Read until `depth` complete responses are buffered.
        inbuf.clear();
        let mut bodies: Vec<(usize, usize)> = Vec::with_capacity(depth);
        let mut pos = 0usize;
        while bodies.len() < depth {
            while bodies.len() < depth {
                let Some(head_end) = inbuf[pos..]
                    .windows(4)
                    .position(|w| w == b"\r\n\r\n")
                    .map(|i| pos + i + 4)
                else {
                    break;
                };
                let (status, len) = scan_response_head(&inbuf[pos..head_end]);
                assert_eq!(status, 200, "pipelined request failed");
                if inbuf.len() < head_end + len {
                    break;
                }
                bodies.push((head_end, len));
                pos = head_end + len;
            }
            if bodies.len() == depth {
                break;
            }
            let n = (&stream).read(&mut chunk).expect("pipelined read");
            assert!(n > 0, "server closed mid-batch");
            inbuf.extend_from_slice(&chunk[..n]);
        }
        for (start, len) in &bodies {
            match clarens_wire::decode_response(protocol, &inbuf[*start..*start + *len])
                .expect("pipelined decode")
            {
                clarens_wire::RpcResponse::Success(v) => {
                    if let Some(expected) = &expected {
                        assert_eq!(&v, expected, "echoed value diverged");
                    }
                }
                clarens_wire::RpcResponse::Fault(f) => panic!("pipelined fault: {f:?}"),
            }
        }
        calls += depth as u64;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    ThroughputPoint {
        clients: 1,
        calls,
        calls_per_sec: calls as f64 / elapsed,
    }
}

/// Minimal response-head scan for the pipelined driver: status code and
/// content-length, nothing else.
fn scan_response_head(head: &[u8]) -> (u16, usize) {
    let status: u16 = std::str::from_utf8(&head[9..12])
        .ok()
        .and_then(|s| s.parse().ok())
        .expect("malformed status line");
    let mut content_length = 0usize;
    for line in head.split(|&b| b == b'\n') {
        if line.len() >= 15 && line[..15].eq_ignore_ascii_case(b"content-length:") {
            content_length = std::str::from_utf8(&line[15..])
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .expect("malformed content-length");
        }
    }
    (status, content_length)
}

/// TLS variant of [`measure_throughput`]: each client opens one secure
/// channel (identity from the handshake, no session header needed).
pub fn measure_throughput_tls(
    grid: &TestGrid,
    clients: usize,
    duration: Duration,
) -> ThroughputPoint {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(clients);
    for _ in 0..clients {
        let addr = grid.addr();
        let credential = grid.user.clone();
        let roots = vec![grid.ca.certificate.clone()];
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        handles.push(std::thread::spawn(move || {
            let mut client = ClarensClient::new_tls(addr, credential, roots);
            let mut local = 0u64;
            while !stop.load(Ordering::Relaxed) {
                client
                    .call("system.list_methods", vec![])
                    .expect("tls call");
                local += 1;
            }
            total.fetch_add(local, Ordering::Relaxed);
        }));
    }
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

/// Result of one keep-alive connection-sweep point (`repro multiplex`).
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Concurrent keep-alive connections attempted.
    pub connections: usize,
    /// Total completed calls across all connections.
    pub calls: u64,
    /// Completed calls per second.
    pub calls_per_sec: f64,
    /// Connections that completed at least one call.
    pub served: usize,
    /// Connections that gave up before the window ended (read timeout while
    /// starved behind a pinned worker, a `503` shed, or a dropped socket).
    pub stalled: usize,
    /// Whatever `mid_sample` returned halfway through the window (the
    /// callers pass a parked-connections gauge probe).
    pub mid_sample: u64,
}

/// The wire bytes of one `system.ping` XML-RPC POST, reused verbatim by
/// every sweep client: the sweep stresses connection scheduling, not RPC
/// encoding, and `system.ping` needs no session so every connection is
/// self-contained.
fn ping_request_bytes() -> Vec<u8> {
    let body = clarens_wire::encode_call(
        Protocol::XmlRpc,
        &RpcCall {
            method: "system.ping".into(),
            params: vec![],
            id: Some(Value::Int(1)),
        },
    );
    let mut request = format!(
        "POST /clarens HTTP/1.1\r\nhost: sweep\r\ncontent-type: text/xml\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(&body);
    request
}

/// Connect with exponential backoff: a 1024-connection point overruns the
/// listen backlog no matter how the connects are staggered, so refused or
/// reset connects retry instead of failing the client.
fn connect_patiently(addr: &str) -> std::io::Result<TcpStream> {
    let mut delay = Duration::from_millis(5);
    for _ in 0..8 {
        match TcpStream::connect(addr) {
            Ok(sock) => return Ok(sock),
            Err(_) => {
                std::thread::sleep(delay);
                delay *= 2;
            }
        }
    }
    TcpStream::connect(addr)
}

/// Drive `connections` concurrent keep-alive connections against `addr`,
/// each looping `system.ping` with `think` of client-side idle time between
/// calls, for `duration`. This is the `repro multiplex` workload: the think
/// time makes every connection idle most of the time, which is exactly the
/// pattern that would pin a thread-per-connection server (a worker blocks
/// in `read` during each client's think) while the parked-connection
/// scheduler multiplexes all of them over a few workers.
///
/// Clients that starve (or are shed with `503` past `max_connections`) hit
/// a 2-second read timeout and are counted in [`SweepPoint::stalled`]
/// instead of panicking.
///
/// `mid_sample` runs on the calling thread halfway through the window;
/// callers pass a probe of the parked-connections gauge so the point
/// records how many connections were parked under steady load.
pub fn measure_keepalive_sweep(
    addr: &str,
    connections: usize,
    duration: Duration,
    think: Duration,
    mid_sample: impl FnOnce() -> u64,
) -> SweepPoint {
    let request = Arc::new(ping_request_bytes());
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let stalled = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(connections);
    for i in 0..connections {
        let addr = addr.to_owned();
        let request = Arc::clone(&request);
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        let served = Arc::clone(&served);
        let stalled = Arc::clone(&stalled);
        handles.push(
            std::thread::Builder::new()
                // Up to 1024 client threads; the default 8 MiB stacks would
                // reserve gigabytes of address space for threads that only
                // write a static buffer and parse a tiny response.
                .stack_size(128 * 1024)
                .spawn(move || {
                    // Stagger connects so a big point ramps over ~50 ms
                    // instead of SYN-flooding the accept backlog at once.
                    std::thread::sleep(Duration::from_micros((i as u64 % 256) * 200));
                    let sock = match connect_patiently(&addr) {
                        Ok(sock) => sock,
                        Err(_) => {
                            stalled.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    };
                    sock.set_read_timeout(Some(Duration::from_secs(2))).ok();
                    sock.set_write_timeout(Some(Duration::from_secs(2))).ok();
                    sock.set_nodelay(true).ok();
                    let mut writer = match sock.try_clone() {
                        Ok(clone) => clone,
                        Err(_) => {
                            stalled.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    };
                    let mut reader = BufReader::new(sock);
                    let mut local = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let ok = writer.write_all(&request).is_ok()
                            && matches!(
                                clarens_httpd::parse::read_response(&mut reader, 64 * 1024),
                                Ok(response) if response.status == 200
                            );
                        if !ok {
                            // Starved, shed, or torn down. A failure after
                            // the stop flag is just shutdown noise.
                            if !stop.load(Ordering::Relaxed) {
                                stalled.fetch_add(1, Ordering::Relaxed);
                            }
                            break;
                        }
                        local += 1;
                        if !think.is_zero() {
                            std::thread::sleep(think);
                        }
                    }
                    total.fetch_add(local, Ordering::Relaxed);
                    if local > 0 {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .expect("spawn sweep client"),
        );
    }
    let t0 = Instant::now();
    std::thread::sleep(duration / 2);
    let mid = mid_sample();
    std::thread::sleep(duration.saturating_sub(t0.elapsed()));
    // Clock the window at the stop flag, not after the joins: starved
    // clients take up to their 2 s read timeout to notice the flag, and that
    // teardown tail is not measurement time.
    let elapsed = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    for handle in handles {
        handle.join().expect("sweep client thread");
    }
    let calls = total.load(Ordering::Relaxed);
    SweepPoint {
        connections,
        calls,
        calls_per_sec: calls as f64 / elapsed,
        served: served.load(Ordering::Relaxed) as usize,
        stalled: stalled.load(Ordering::Relaxed) as usize,
        mid_sample: mid,
    }
}

/// A set of idle keep-alive connections held open against a server — the
/// `repro quick` gate parks 256 of these and asserts active traffic does
/// not slow down. Each connection completes one `system.ping` so the server
/// sees it as a mid-stream keep-alive client, then goes quiet.
pub struct IdleConnections {
    socks: Vec<(TcpStream, BufReader<TcpStream>)>,
    request: Vec<u8>,
}

impl IdleConnections {
    /// Open `n` connections to `addr` and park them all.
    pub fn open(addr: &str, n: usize) -> IdleConnections {
        let request = ping_request_bytes();
        let socks = (0..n)
            .map(|_| {
                let sock = connect_patiently(addr).expect("idle connect");
                sock.set_read_timeout(Some(Duration::from_secs(5))).ok();
                sock.set_nodelay(true).ok();
                let reader = BufReader::new(sock.try_clone().expect("clone idle socket"));
                (sock, reader)
            })
            .collect();
        let mut idle = IdleConnections { socks, request };
        idle.refresh();
        idle
    }

    /// Complete one ping on every connection, restarting each one's
    /// server-side idle clock (the grid expires parked connections after
    /// its read timeout).
    pub fn refresh(&mut self) {
        for (sock, reader) in &mut self.socks {
            sock.write_all(&self.request).expect("idle ping write");
            let response =
                clarens_httpd::parse::read_response(reader, 64 * 1024).expect("idle ping response");
            assert_eq!(response.status, 200, "idle keep-alive ping must succeed");
        }
    }

    /// Number of connections held.
    pub fn len(&self) -> usize {
        self.socks.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.socks.is_empty()
    }
}

/// A swarm of deliberately slow HTTP readers: every connection requests
/// `target` once, then drains its response at roughly `bytes_per_sec`
/// from a single background thread. The server-side counterpart of a WAN
/// full of modem-grade consumers — each half-written response must park
/// in the poller (`repro bw`) instead of pinning a worker.
pub struct SlowReaderSwarm {
    stop: Arc<AtomicBool>,
    drained: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
    count: usize,
}

impl SlowReaderSwarm {
    /// Open `n` connections to `addr`, send each a `GET target`, and start
    /// the drain thread.
    pub fn open(addr: &str, target: &str, n: usize, bytes_per_sec: usize) -> SlowReaderSwarm {
        let request = format!("GET {target} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n");
        let mut socks = Vec::with_capacity(n);
        for _ in 0..n {
            let mut sock = connect_patiently(addr).expect("swarm connect");
            sock.set_nodelay(true).ok();
            sock.write_all(request.as_bytes()).expect("swarm request");
            sock.set_nonblocking(true).expect("swarm nonblocking");
            socks.push(sock);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let drained = Arc::new(AtomicU64::new(0));
        let thread_stop = Arc::clone(&stop);
        let thread_drained = Arc::clone(&drained);
        // One pass over every socket per tick, a small read each: ~10
        // ticks/second gives each connection bytes_per_sec of drain.
        let per_tick = (bytes_per_sec / 10).max(1);
        let handle = std::thread::spawn(move || {
            use std::io::Read;
            let mut buf = vec![0u8; per_tick];
            while !thread_stop.load(Ordering::Relaxed) {
                for sock in &mut socks {
                    // A read error means nothing buffered yet, or the
                    // server gave up on us — either way the swarm keeps
                    // crawling.
                    if let Ok(got) = sock.read(&mut buf) {
                        thread_drained.fetch_add(got as u64, Ordering::Relaxed);
                    }
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        SlowReaderSwarm {
            stop,
            drained,
            handle: Some(handle),
            count: n,
        }
    }

    /// Connections opened.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the swarm is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Response bytes drained so far across the whole swarm.
    pub fn drained_bytes(&self) -> u64 {
        self.drained.load(Ordering::Relaxed)
    }
}

impl Drop for SlowReaderSwarm {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Single-stream GET throughput: fetch `path` over a warm keep-alive
/// connection until `duration` elapses; returns (bytes moved, MiB/s).
pub fn measure_get_throughput(
    addr: &str,
    session: &str,
    path: &str,
    duration: Duration,
) -> (u64, f64) {
    let mut client = ClarensClient::new(addr.to_owned());
    client.set_session(session.to_owned());
    let t0 = Instant::now();
    let mut bytes = 0u64;
    loop {
        bytes += client.http_get_file(path).expect("bench GET").len() as u64;
        if t0.elapsed() >= duration {
            break;
        }
    }
    (
        bytes,
        bytes as f64 / t0.elapsed().as_secs_f64() / (1024.0 * 1024.0),
    )
}

/// Start a plaintext grid with `workers` workers. The connection-sweep,
/// parked-idler and slow-reader experiments pass a deliberately small
/// pool: serving hundreds of keep-alive connections or crawling readers
/// from four workers is the point.
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

/// Start the benchmark grid with request span timing disabled (counters
/// stay live) — the baseline for measuring telemetry overhead.
pub fn bench_grid_no_telemetry() -> TestGrid {
    TestGrid::start_with(GridOptions {
        workers: 96,
        telemetry: false,
        ..Default::default()
    })
}

/// Start the TLS benchmark grid.
pub fn bench_grid_tls() -> TestGrid {
    TestGrid::start_with(GridOptions {
        workers: 96,
        tls: true,
        ..Default::default()
    })
}

/// Open one session on the grid for session-header clients.
pub fn bench_session(grid: &TestGrid) -> String {
    let client = grid.logged_in_client(&grid.user);
    client.session_id().expect("session").to_owned()
}

/// Per-protocol allocation ceilings for the steady-state echo.echo gates
/// (the `quick` smoke, Ablation H and `tests/alloc_count.rs`). The XML-RPC
/// streaming path lands at ~18 allocations/request on the reference
/// machine; clarens-binary skips the XML text handling entirely (no
/// escaping buffers, no tag strings) and lands lower still. Both ceilings
/// leave ~2x headroom for allocator/platform variation while catching a
/// reintroduced per-request DOM or buffer churn (the pre-optimization XML
/// path measured ~56).
pub const MAX_ALLOCS_PER_ECHO_XMLRPC: f64 = 40.0;
/// See [`MAX_ALLOCS_PER_ECHO_XMLRPC`].
pub const MAX_ALLOCS_PER_ECHO_BINARY: f64 = 30.0;
/// Allocation ceiling for one `SessionManager::create` on an in-memory
/// store (`tests/alloc_count.rs`). The admission path measures 18.2 and
/// the count repeats exactly. It was 30.2: building the record as a
/// `Value` tree costs 11 of the difference and a `LogOp` nobody reads one,
/// so either coming back fails the gate (EXPERIMENTS.md "Session
/// admission").
pub const MAX_ALLOCS_PER_SESSION_CREATE: f64 = 20.0;

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
/// allocator (the `repro` binary does this); returns zeros otherwise. The
/// calling thread is exempted from counting, so in an in-process grid the
/// counts come from the server worker alone.
pub fn measure_allocs_per_request(
    addr: &str,
    session: &str,
    calls: u64,
    protocol: Protocol,
) -> AllocReport {
    alloc_count::exempt_current_thread();
    let mut client = ClarensClient::new(addr.to_owned()).with_protocol(protocol);
    if !session.is_empty() {
        client.set_session(session.to_owned());
    }
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
        let grid = bench_grid();
        let session = bench_session(&grid);
        let point = measure_throughput(
            &grid.addr(),
            &session,
            2,
            Duration::from_millis(300),
            "system.list_methods",
            Protocol::XmlRpc,
        );
        assert_eq!(point.clients, 2);
        assert!(point.calls > 0, "no calls completed");
        assert!(point.calls_per_sec > 0.0);
        grid.cleanup();
    }

    #[test]
    fn keepalive_sweep_driver_smoke() {
        let grid = bench_grid_workers(2);
        let http = &grid.core().telemetry.http;
        let point = measure_keepalive_sweep(
            &grid.addr(),
            8,
            Duration::from_millis(600),
            Duration::from_millis(2),
            || http.parked.get(),
        );
        assert_eq!(point.connections, 8);
        assert_eq!(point.served, 8, "every connection should complete calls");
        assert_eq!(point.stalled, 0, "nothing should starve at 8 connections");
        assert!(point.calls > 0);
        grid.cleanup();
    }

    #[test]
    fn idle_connections_park_and_refresh() {
        let grid = bench_grid_workers(2);
        let mut idle = IdleConnections::open(&grid.addr(), 16);
        assert_eq!(idle.len(), 16);
        // All 16 are between requests now; give the poller a moment to
        // take them and the parked gauge must account for every one.
        let http = &grid.core().telemetry.http;
        let deadline = Instant::now() + Duration::from_secs(2);
        while http.parked.get() < 16 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(http.parked.get(), 16, "idle connections must be parked");
        idle.refresh();
        drop(idle);
        grid.cleanup();
    }
}
