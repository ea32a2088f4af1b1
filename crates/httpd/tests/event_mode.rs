//! Behavioral tests for the event-driven connection scheduler.
//!
//! These pin the properties that motivated it: a slow client cannot pin a
//! worker, hundreds of idle keep-alive connections cost no threads and
//! corrupt no buffers, the connection budget sheds gracefully, shutdown is
//! deterministic with zero traffic, pipelined responses keep their order —
//! and all of it holds the same over plaintext and over the secure
//! channel, whose decrypted bytes are identical to the plaintext ones.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
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
/// and the deadline wheel expires all three as idle.
#[test]
fn tls_stallers_cannot_pin_the_single_worker() {
    let telemetry = Telemetry::enabled();
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Mode::Tls.server_config(ServerConfig {
            workers: 1,
            telemetry: Some(Arc::clone(&telemetry)),
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
                telemetry: Some(Arc::clone(&telemetry)),
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

        assert_eq!(
            server.stats().connections.load(Ordering::Relaxed),
            CONNS as u64
        );
        assert_eq!(
            server.stats().requests.load(Ordering::Relaxed),
            (CONNS * ROUNDS) as u64
        );
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
        server.shutdown();
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
                telemetry: Some(Arc::clone(&telemetry)),
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

        // Overstay the keep-alive timeout: the wheel expires it as idle
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
                telemetry: Some(Arc::clone(&telemetry)),
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
/// acceptor and poller are woken explicitly (no dummy connection, no
/// timeout race).
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

/// A non-coalescible request (HEAD) in the middle of a pipeline forces the
/// staged responses out first — ordering across the coalesce/direct-write
/// boundary must hold, and a trailing `Connection: close` still closes.
#[test]
fn mixed_pipeline_flushes_in_order() {
    for mode in BOTH_MODES {
        let server =
            HttpServer::bind("127.0.0.1:0", mode.server_config(config()), echo_handler()).unwrap();
        let mut client = Client::open(mode, server.local_addr());
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
