//! Behavioral tests for the event-driven connection scheduler.
//!
//! These pin the properties that motivated it: a slow client cannot pin a
//! worker, hundreds of idle keep-alive connections cost no threads and
//! corrupt no buffers, the connection budget sheds gracefully, shutdown is
//! deterministic with zero traffic, pipelined responses keep their order
//! and their staged batch rides the next write in flight, so a client
//! that pipelines and stops reading parks instead of pinning a worker —
//! and all of it holds the same over plaintext and over the secure
//! channel, whose decrypted bytes are identical to the plaintext ones.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens_httpd::parse::read_response;
use clarens_httpd::{Handler, HttpServer, PeerInfo, Request, Response, ServerConfig};
use clarens_telemetry::Telemetry;

use common::{send, Mode, Wire, BOTH_MODES};

fn echo_handler() -> Arc<impl Handler> {
    Arc::new(|req: Request, _peer: Option<&PeerInfo>| {
        Response::ok(
            "text/plain",
            format!("{} {} {}", req.method.as_str(), req.target, req.body.len()),
        )
    })
}

/// Echoes the request body back, so corruption across connections is
/// observable.
fn body_echo_handler() -> Arc<impl Handler> {
    Arc::new(|req: Request, _peer: Option<&PeerInfo>| {
        Response::ok("application/octet-stream", req.body)
    })
}

fn config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(500),
        ..Default::default()
    }
}

/// A keep-alive client over either transport (reads time out after five
/// seconds, see [`Mode::connect`]).
struct Client(BufReader<Box<dyn Wire>>);

impl Client {
    fn open(mode: Mode, addr: SocketAddr) -> Client {
        Client(BufReader::new(mode.connect(addr).unwrap()))
    }

    fn send(&mut self, bytes: &[u8]) {
        send(&mut **self.0.get_mut(), bytes).unwrap();
    }

    fn roundtrip(&mut self, request: &str) -> (u16, Vec<u8>, bool) {
        self.send(request.as_bytes());
        let resp = read_response(&mut self.0, usize::MAX).unwrap();
        (resp.status, resp.body, resp.keep_alive)
    }

    /// The server has closed: the next read is EOF (or a reset).
    fn assert_closed(&mut self) {
        let mut probe = [0u8; 1];
        match self.0.read(&mut probe) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("connection still live ({n} bytes)"),
        }
    }
}

/// A client stuck mid-header must not occupy the only worker: with
/// `workers = 1`, other clients keep getting served while the slow client
/// dribbles its request in, and the slow client still gets its answer in
/// the end.
#[test]
fn slowloris_does_not_pin_the_single_worker() {
    for mode in BOTH_MODES {
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(ServerConfig {
                workers: 1,
                read_timeout: Duration::from_secs(10),
                ..config()
            }),
            echo_handler(),
        )
        .unwrap();
        let addr = server.local_addr();

        // Half a request line, then silence: the connection must end up
        // parked, not holding the worker in read().
        let mut slow = Client::open(mode, addr);
        slow.send(b"GET /slow HTTP/1.1\r\nHo");
        std::thread::sleep(Duration::from_millis(100));

        // The single worker must still serve everyone else promptly.
        for i in 0..5 {
            let (status, body, _) = Client::open(mode, addr)
                .roundtrip(&format!("GET /fast{i} HTTP/1.1\r\nHost: h\r\n\r\n"));
            assert_eq!(status, 200, "fast client {i} starved behind a slowloris");
            assert_eq!(body, format!("GET /fast{i} 0").as_bytes());
        }

        // The slow client finishes its header and gets served too.
        let (status, body, _) = slow.roundtrip("st: h\r\n\r\n");
        assert_eq!(status, 200, "{mode:?}");
        assert_eq!(body, b"GET /slow 0");
        server.shutdown();
    }
}

/// The secure channel adds two more places to stall: before the first
/// byte and in the middle of the handshake. With `workers = 1`, a socket
/// that says nothing, one that sends half a ClientHello and one that
/// handshakes and then trickles half a request are all just parked
/// connections: a well-behaved client is answered promptly beside them,
/// and each expires at its deadline as idle.
#[test]
fn tls_stallers_cannot_pin_the_single_worker() {
    let telemetry = Telemetry::enabled();
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Mode::Tls.server_config(ServerConfig {
            workers: 1,
            telemetry: Arc::clone(&telemetry),
            read_timeout: Duration::from_secs(2),
            ..config()
        }),
        echo_handler(),
    )
    .unwrap();
    let addr = server.local_addr();

    let mut silent = TcpStream::connect(addr).unwrap();
    let mut half_hello = TcpStream::connect(addr).unwrap();
    // A ClientHello is a 40-byte frame; this is its length and 16 bytes.
    half_hello.write_all(&40u32.to_be_bytes()).unwrap();
    half_hello.write_all(b"CLARENS1--------").unwrap();
    let mut half_request = Client::open(Mode::Tls, addr);
    half_request.send(b"GET /slow HTTP/1.1\r\nHo");

    let started = Instant::now();
    for i in 0..3 {
        let (status, body, _) = Client::open(Mode::Tls, addr)
            .roundtrip(&format!("GET /fast{i} HTTP/1.1\r\nHost: h\r\n\r\n"));
        assert_eq!(status, 200);
        assert_eq!(body, format!("GET /fast{i} 0").as_bytes());
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "well-behaved clients waited {:?} behind stalled ones",
        started.elapsed()
    );

    // None of the three ever completes anything; all three time out.
    let deadline = Instant::now() + Duration::from_secs(5);
    while telemetry.http.idle_timeouts.get() < 3 {
        assert!(
            Instant::now() < deadline,
            "stallers not expired: idle_timeouts {}",
            telemetry.http.idle_timeouts.get()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(telemetry.http.idle_timeouts.get(), 3);
    assert_eq!(telemetry.http.handshake_failures.get(), 0);
    assert_eq!(telemetry.http.peer_resets.get(), 0);
    for sock in [&mut silent, &mut half_hello] {
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(sock.read(&mut [0u8; 64]).unwrap_or(0), 0, "not closed");
    }
    half_request.assert_closed();
    server.shutdown();
}

/// 512 keep-alive connections churning through park/resume cycles on 4
/// workers: every response must carry exactly its own connection's body —
/// scratch-buffer recycling and connection state must stay isolated while
/// connections migrate between workers.
#[test]
fn keepalive_churn_512_connections_buffer_isolation() {
    const CONNS: usize = 512;
    const ROUNDS: usize = 3;
    for mode in BOTH_MODES {
        let telemetry = Telemetry::enabled();
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(ServerConfig {
                workers: 4,
                telemetry: Arc::clone(&telemetry),
                read_timeout: Duration::from_secs(60),
                ..config()
            }),
            body_echo_handler(),
        )
        .unwrap();
        let addr = server.local_addr();

        let mut clients: Vec<Client> = (0..CONNS).map(|_| Client::open(mode, addr)).collect();

        for round in 0..ROUNDS {
            for (i, client) in clients.iter_mut().enumerate() {
                // Distinct body per (connection, round); padding makes buffer
                // reuse across connections visible if isolation ever breaks.
                let body = format!("conn-{i:04}-round-{round}-{}", "x".repeat(64 + (i % 64)));
                let request = format!(
                    "POST /echo HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n{}",
                    body.len(),
                    body
                );
                let (status, got, keep_alive) = client.roundtrip(&request);
                assert_eq!(status, 200);
                assert_eq!(
                    got,
                    body.as_bytes(),
                    "{mode:?}: cross-connection buffer bleed on conn {i} round {round}"
                );
                assert!(keep_alive);
            }
        }

        assert_eq!(telemetry.http.connections.get(), CONNS as u64);
        // Rounds 2 and 3 arrive on parked connections, so the poller must
        // have re-dispatched (at minimum) most of them at least once per
        // round.
        assert!(
            telemetry.http.poll_wakeups.get() >= (CONNS * (ROUNDS - 1) / 2) as u64,
            "{mode:?}: expected parked re-dispatches, saw {}",
            telemetry.http.poll_wakeups.get()
        );
        assert_eq!(
            telemetry.http.keepalive_reuse.get(),
            (CONNS * (ROUNDS - 1)) as u64
        );
        assert_eq!(telemetry.http.handshake_failures.get(), 0);
        // A request is counted once its response is written, so the client
        // can get here first: shutdown joins the workers.
        server.shutdown();
        assert_eq!(telemetry.http.requests.get(), (CONNS * ROUNDS) as u64);
    }
}

/// A parked connection shows up in the `parked` gauge, and expires as an
/// `idle_timeout` (not a peer reset) when it overstays `read_timeout`.
#[test]
fn parked_connection_gauge_and_idle_expiry() {
    for mode in BOTH_MODES {
        let telemetry = Telemetry::enabled();
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(ServerConfig {
                telemetry: Arc::clone(&telemetry),
                read_timeout: Duration::from_millis(300),
                ..config()
            }),
            echo_handler(),
        )
        .unwrap();

        let mut client = Client::open(mode, server.local_addr());
        let (status, _, _) = client.roundtrip("GET / HTTP/1.1\r\nHost: h\r\n\r\n");
        assert_eq!(status, 200);

        // After the response the connection parks (idle, off the workers).
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(telemetry.http.parked.get(), 1, "{mode:?}");

        // Overstay the keep-alive timeout: the poller expires it as idle
        // churn.
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(telemetry.http.idle_timeouts.get(), 1, "{mode:?}");
        assert_eq!(telemetry.http.peer_resets.get(), 0, "{mode:?}");
        // The server closed it: our next read sees EOF.
        let mut probe = [0u8; 1];
        assert_eq!(client.0.read(&mut probe).unwrap(), 0, "{mode:?}");
        server.shutdown();
    }
}

/// A sequential keep-alive client is served by the worker that kept its
/// connection: each request wakes that worker directly, never the poller.
/// With more clients than workers, a kept connection goes back to the
/// poller whenever other work is queued, and every request is still
/// answered, in order, on its own connection.
#[test]
fn kept_connections_skip_the_poller_and_hand_back_under_load() {
    for mode in BOTH_MODES {
        let telemetry = Telemetry::enabled();
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(ServerConfig {
                workers: 2,
                telemetry: Arc::clone(&telemetry),
                read_timeout: Duration::from_secs(10),
                ..config()
            }),
            echo_handler(),
        )
        .unwrap();
        let addr = server.local_addr();

        let mut client = Client::open(mode, addr);
        for i in 0..200 {
            // Each request finds its connection idle on the server, as a
            // client that pauses between calls does.
            let started = Instant::now();
            while telemetry.http.parked.get() == 0 {
                assert!(started.elapsed() < Duration::from_secs(5), "{mode:?}");
                std::thread::sleep(Duration::from_micros(50));
            }
            let (status, body, keep_alive) =
                client.roundtrip(&format!("GET /seq{i} HTTP/1.1\r\nHost: h\r\n\r\n"));
            assert_eq!(status, 200, "{mode:?}");
            assert_eq!(body, format!("GET /seq{i} 0").as_bytes(), "{mode:?}");
            assert!(keep_alive);
        }
        let (polled, kept) = (
            telemetry.http.poll_wakeups.get(),
            telemetry.http.worker_wakeups.get(),
        );
        assert!(
            polled <= 2,
            "{mode:?}: {polled} requests went through the poller"
        );
        assert!(
            kept >= 190,
            "{mode:?}: only {kept} requests woke their worker"
        );
        drop(client);

        // Eight clients round-robin on two workers: a request never finds
        // its connection among the two kept (a push evicts the one kept
        // longest), so every request is a hand-back and a poller wake-up.
        let mut clients: Vec<Client> = (0..8).map(|_| Client::open(mode, addr)).collect();
        for round in 0..50 {
            for (c, client) in clients.iter_mut().enumerate() {
                let (status, body, _) =
                    client.roundtrip(&format!("GET /c{c}-r{round} HTTP/1.1\r\nHost: h\r\n\r\n"));
                assert_eq!(status, 200, "{mode:?}");
                assert_eq!(body, format!("GET /c{c}-r{round} 0").as_bytes(), "{mode:?}");
            }
        }
        assert!(
            telemetry.http.poll_wakeups.get() - polled >= 8 * 49,
            "{mode:?}: kept connections were not handed back ({} poller wake-ups)",
            telemetry.http.poll_wakeups.get() - polled
        );
        assert_eq!(telemetry.http.idle_timeouts.get(), 0, "{mode:?}");
        // Counted once each response is written: shutdown joins the workers.
        server.shutdown();
        assert_eq!(telemetry.http.requests.get(), 200 + 8 * 50);
    }
}

/// Once `max_connections` live connections exist, the next one is shed with
/// `503` + `Connection: close` instead of growing the queue, and the shed
/// is counted. The shed answer is plaintext on either transport: the
/// server will not spend a handshake on a connection it is turning away.
#[test]
fn connection_budget_sheds_with_503() {
    for mode in BOTH_MODES {
        let telemetry = Telemetry::enabled();
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(ServerConfig {
                workers: 2,
                max_connections: 2,
                telemetry: Arc::clone(&telemetry),
                read_timeout: Duration::from_secs(10),
                ..config()
            }),
            echo_handler(),
        )
        .unwrap();
        let addr = server.local_addr();

        // Fill the budget with two live keep-alive connections.
        let mut held = Vec::new();
        for _ in 0..2 {
            let mut client = Client::open(mode, addr);
            let (status, _, _) = client.roundtrip("GET / HTTP/1.1\r\nHost: h\r\n\r\n");
            assert_eq!(status, 200);
            held.push(client);
        }

        // The third is answered 503 without the server reading anything.
        let over = TcpStream::connect(addr).unwrap();
        over.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut reader = BufReader::new(over);
        let resp = read_response(&mut reader, usize::MAX).unwrap();
        assert_eq!(resp.status, 503, "{mode:?}");
        assert!(!resp.keep_alive);
        let mut probe = [0u8; 1];
        assert_eq!(reader.read(&mut probe).unwrap(), 0, "shed conn must close");
        assert_eq!(telemetry.http.sheds.get(), 1);

        // Releasing budget re-admits new connections.
        drop(held);
        std::thread::sleep(Duration::from_millis(100));
        let (status, _, _) =
            Client::open(mode, addr).roundtrip("GET / HTTP/1.1\r\nHost: h\r\n\r\n");
        assert_eq!(status, 200, "{mode:?}");
        server.shutdown();
    }
}

/// Shutdown with zero traffic must be immediate on either transport: the
/// one event loop is woken explicitly (no dummy connection, no timeout
/// race).
#[test]
fn shutdown_is_deterministic_under_zero_traffic() {
    for mode in BOTH_MODES {
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(ServerConfig {
                read_timeout: Duration::from_secs(600),
                ..config()
            }),
            echo_handler(),
        )
        .unwrap();
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{mode:?}: shutdown took {:?}",
            started.elapsed()
        );
    }
}

/// Shutdown is also prompt with connections parked.
#[test]
fn shutdown_closes_parked_connections() {
    for mode in BOTH_MODES {
        let server =
            HttpServer::bind("127.0.0.1:0", mode.server_config(config()), echo_handler()).unwrap();
        let mut clients = Vec::new();
        for _ in 0..8 {
            let mut client = Client::open(mode, server.local_addr());
            let (status, _, _) = client.roundtrip("GET / HTTP/1.1\r\nHost: h\r\n\r\n");
            assert_eq!(status, 200);
            clients.push(client);
        }
        std::thread::sleep(Duration::from_millis(100)); // let them park
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{mode:?}: shutdown with parked conns took {:?}",
            started.elapsed()
        );
        for mut client in clients {
            client.assert_closed();
        }
    }
}

/// A deep pipeline: every response comes back, in order, with the right
/// body. This is the workload the response coalescer serves — responses to
/// buffered pipelined requests are staged and leave the socket in batches
/// (sealed as one run of records under TLS), which must change packet
/// boundaries only, never bytes or ordering.
#[test]
fn deep_pipeline_responses_arrive_in_order() {
    const DEPTH: usize = 64;
    for mode in BOTH_MODES {
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(config()),
            body_echo_handler(),
        )
        .unwrap();
        let mut client = Client::open(mode, server.local_addr());
        let mut batch = Vec::new();
        for i in 0..DEPTH {
            let body = format!("payload-{i}");
            batch.extend_from_slice(
                format!(
                    "POST /rpc HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
        }
        client.send(&batch);
        for i in 0..DEPTH {
            let resp = read_response(&mut client.0, usize::MAX).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(
                resp.body,
                format!("payload-{i}").into_bytes(),
                "{mode:?}: response {i} out of order or corrupted"
            );
            assert!(resp.keep_alive);
        }
        server.shutdown();
    }
}

/// A socket that counts the bytes read from it, before any decryption.
struct Counted(TcpStream, Arc<AtomicU64>);

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.read(buf)?;
        self.1.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

/// A non-coalescible request (HEAD) in the middle of a pipeline sends the
/// staged responses ahead of its own, and a malformed request behind
/// staged responses sends them ahead of its `400` and closes: ordering
/// across the coalesce/direct-write boundary must hold, a trailing
/// `Connection: close` still closes, and `bytes_out` counts exactly the
/// bytes the clients read off their sockets, handshakes included.
#[test]
fn mixed_pipeline_flushes_in_order() {
    for mode in BOTH_MODES {
        let telemetry = Telemetry::enabled();
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(ServerConfig {
                telemetry: Arc::clone(&telemetry),
                ..config()
            }),
            echo_handler(),
        )
        .unwrap();
        let read = Arc::new(AtomicU64::new(0));
        let open = || {
            let sock = TcpStream::connect(server.local_addr()).unwrap();
            sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let wire = mode.over(Counted(sock, Arc::clone(&read))).unwrap();
            Client(BufReader::new(wire))
        };
        let mut client = open();
        let batch = "GET /a HTTP/1.1\r\nHost: h\r\n\r\n\
                     GET /b HTTP/1.1\r\nHost: h\r\n\r\n\
                     HEAD /c HTTP/1.1\r\nHost: h\r\n\r\n\
                     GET /d HTTP/1.1\r\nHost: h\r\n\r\n\
                     GET /e HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
        client.send(batch.as_bytes());
        let reader = &mut client.0;
        for (target, body_expected) in [
            ("/a", true),
            ("/b", true),
            ("/c", false),
            ("/d", true),
            ("/e", true),
        ] {
            if body_expected {
                let resp = read_response(reader, usize::MAX).unwrap();
                assert_eq!(resp.status, 200, "{target}");
                let body = String::from_utf8(resp.body).unwrap();
                assert!(body.contains(target), "{target}: got {body:?}");
            } else {
                // A HEAD response advertises Content-Length but carries no
                // body bytes, so consume just its head.
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(line.contains("200"), "{target}: got {line:?}");
                while line != "\r\n" {
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                }
            }
        }
        client.assert_closed();

        let mut client = open();
        client.send(
            b"GET /f HTTP/1.1\r\nHost: h\r\n\r\n\
              GET /g HTTP/1.1\r\nHost: h\r\n\r\n\
              NONSENSE\r\n\r\n",
        );
        for target in ["/f", "/g"] {
            let resp = read_response(&mut client.0, usize::MAX).unwrap();
            assert_eq!(resp.status, 200, "{mode:?} {target}");
            assert_eq!(resp.body, format!("GET {target} 0").as_bytes());
        }
        let resp = read_response(&mut client.0, usize::MAX).unwrap();
        assert_eq!(resp.status, 400, "{mode:?}");
        assert!(!resp.keep_alive, "{mode:?}");
        client.assert_closed();

        assert_eq!(
            telemetry.http.bytes_out.get(),
            read.load(Ordering::Relaxed),
            "{mode:?}"
        );
        server.shutdown();
    }
}

/// The secure channel must be invisible above the record layer: for a
/// spread of request shapes (GET, POST, HEAD, pipelined keep-alive, bad
/// request), the response bytes a TLS client decrypts are the bytes a
/// plaintext client reads.
#[test]
fn plaintext_and_tls_responses_are_byte_identical() {
    let exchanges: [&str; 5] = [
        "GET /plain HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        "POST /rpc HTTP/1.1\r\nHost: h\r\nContent-Length: 11\r\nConnection: close\r\n\r\nhello world",
        "HEAD /h HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        // Two pipelined requests; second closes.
        "GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        "NONSENSE\r\n\r\n",
    ];
    let per_mode = [Mode::Tls, Mode::Plain].map(|mode| {
        let server =
            HttpServer::bind("127.0.0.1:0", mode.server_config(config()), echo_handler()).unwrap();
        let wires = mode.collect_wire_bytes(server.local_addr(), &exchanges);
        server.shutdown();
        wires
    });
    for (i, (tls, plain)) in per_mode[0].iter().zip(per_mode[1].iter()).enumerate() {
        assert_eq!(tls, plain, "exchange {i} differs between TLS and plaintext");
    }
}

/// A pipelining client that stops reading must not pin the only worker.
/// Client A sends batches of small echoes, each ended by a HEAD (which
/// cannot be coalesced, so the staged echoes leave in front of its
/// response), and never reads. Once A's socket is full, the write in
/// flight parks on the poller like any other: a fresh client B is
/// answered promptly, and A's connection ends at its deadline as a
/// `write_stall`. Almost every byte A is owed leaves in a batch, so the
/// socket nearly always fills while a batch is going out — the write a
/// blocking flush would hold the worker on — and two rounds make that all
/// but certain.
#[test]
fn pipeline_that_stops_reading_cannot_pin_the_single_worker() {
    const ROUNDS: u64 = 2;
    let echo = format!(
        "POST /e HTTP/1.1\r\nHost: h\r\nContent-Length: 1000\r\n\r\n{}",
        "x".repeat(1000)
    );
    let batch = format!("{}HEAD /h HTTP/1.1\r\nHost: h\r\n\r\n", echo.repeat(3));
    let stream: Arc<[u8]> = batch.repeat(64).into_bytes().into();
    for mode in BOTH_MODES {
        let telemetry = Telemetry::enabled();
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(ServerConfig {
                workers: 1,
                telemetry: Arc::clone(&telemetry),
                read_timeout: Duration::from_secs(2),
                ..config()
            }),
            body_echo_handler(),
        )
        .unwrap();
        let addr = server.local_addr();
        let requests = || telemetry.http.requests.get();
        let mut writers = Vec::new();
        for round in 0..ROUNDS {
            let mut a = mode.connect(addr).unwrap();
            let stream = Arc::clone(&stream);
            let writer = std::thread::spawn(move || while send(&mut *a, &stream).is_ok() {});
            writers.push(writer);
            // A's socket is full once the request count holds still for
            // half a second.
            let started = Instant::now();
            let mut seen = requests();
            let mut still = 0;
            while still < 10 {
                std::thread::sleep(Duration::from_millis(50));
                assert!(started.elapsed() < Duration::from_secs(20), "{mode:?}");
                let now = requests();
                still = if now == seen { still + 1 } else { 0 };
                seen = now;
            }

            // B's request follows its handshake at once (no Nagle delay).
            let started = Instant::now();
            let sock = TcpStream::connect(addr).unwrap();
            sock.set_nodelay(true).unwrap();
            sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let (status, body, _) = Client(BufReader::new(mode.over(sock).unwrap()))
                .roundtrip("POST /b HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\nhi");
            let waited = started.elapsed();
            assert_eq!((status, body.as_slice()), (200, &b"hi"[..]), "{mode:?}");
            assert!(
                waited < Duration::from_millis(200),
                "{mode:?} round {round}: B waited {waited:?} behind a pipeline that stopped reading"
            );
        }
        // Each A's parked write expires at its deadline and the server
        // closes A, which ends its writer.
        for writer in writers {
            writer.join().unwrap();
        }
        assert_eq!(telemetry.http.write_stalls.get(), ROUNDS, "{mode:?}");
        server.shutdown();
    }
}

/// A held reply that falls due at its deadline leaves its waker on the
/// watermark it waited on, and the next held reply of the same connection
/// waits there again: a quiet watermark must hold one entry per
/// connection, not one per reply, whether the event loop or a pipe's
/// pump waits. A move wakes each once and empties it.
#[test]
fn held_replies_answered_at_their_deadlines_leave_one_waiter_per_connection() {
    use clarens_httpd::{serve_pipe, Held, Watermark};
    const REPLIES: usize = 30;
    let mark = Arc::new(Watermark::new(0u64));
    let handler = {
        let mark = Arc::clone(&mark);
        Arc::new(move |_: Request, _: Option<&PeerInfo>| {
            let mark = Arc::clone(&mark);
            Response::held(Held {
                deadline: Instant::now() + Duration::from_millis(2),
                ready: Box::new(move |waker| mark.check(waker, |v| v > 0)),
                answer: Box::new(|_, _| Response::ok("text/plain", "due")),
            })
        })
    };
    let roundtrips = |wire: Box<dyn Wire>| {
        let mut client = Client(BufReader::new(wire));
        for _ in 0..REPLIES {
            let (status, body, keep_alive) =
                client.roundtrip("GET /held HTTP/1.1\r\nHost: x\r\n\r\n");
            assert_eq!((status, &body[..], keep_alive), (200, &b"due"[..], true));
        }
        client
    };
    for mode in BOTH_MODES {
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(ServerConfig {
                workers: 2,
                ..config()
            }),
            handler.clone(),
        )
        .unwrap();
        let _open = [0, 1].map(|_| roundtrips(mode.connect(server.local_addr()).unwrap()));
        assert_eq!(
            mark.waiters(),
            2,
            "{mode:?}: two connections, one entry each"
        );
        server.shutdown();

        let pipe = serve_pipe(mode.server_config(ServerConfig::default()), handler.clone());
        let _open = roundtrips(mode.over(pipe.connect().unwrap()).unwrap());
        assert_eq!(mark.waiters(), 3, "{mode:?}: a pipe's pump keeps one entry");
        mark.reset(0);
        assert_eq!(mark.waiters(), 0, "{mode:?}: a move empties it");
    }
}
