//! The server's network edges under faults real peers make: a reset in
//! the middle of a request, a close before a large response is read, and
//! a slow reader that leaves the server in short writes. (A failed
//! `accept` is an input of the event loop's step machine, which the
//! seeded search in `event_loop.rs` feeds both kinds of.)

mod common;

use std::io::{BufReader, Read};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens_httpd::parse::read_response;
use clarens_httpd::{HttpServer, PeerInfo, Request, Response, ServerConfig};
use clarens_telemetry::{Counter, Gauge, Telemetry};

use common::{send, Mode, BOTH_MODES};

/// An 8 MiB body: more than a socket's buffers hold.
fn big() -> Vec<u8> {
    (0..8u32 << 20)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect()
}

/// A server beside the plane it records into, answering `/big` with
/// [`big`] and anything else with `ok <target>`.
fn start(mode: Mode) -> (HttpServer, Arc<Telemetry>) {
    let body = big();
    let handler = Arc::new(move |req: Request, _peer: Option<&PeerInfo>| {
        if req.target == "/big" {
            Response::ok("application/octet-stream", body.clone())
        } else {
            Response::ok("text/plain", format!("ok {}", req.target))
        }
    });
    let config = mode.server_config(ServerConfig {
        workers: 2,
        read_timeout: Duration::from_secs(30),
        ..Default::default()
    });
    let telemetry = Arc::clone(&config.telemetry);
    let server = HttpServer::bind("127.0.0.1:0", config, handler).unwrap();
    (server, telemetry)
}

fn roundtrip(mode: Mode, addr: std::net::SocketAddr, target: &str) -> Option<(u16, Vec<u8>)> {
    let request = format!("GET {target} HTTP/1.1\r\nHost: h\r\n\r\n");
    let mut reader = BufReader::new(mode.request(addr, request).ok()?);
    read_response(&mut reader, usize::MAX)
        .map(|r| (r.status, r.body))
        .ok()
}

/// A reader that takes its time: a pause before every read.
struct Slow(Box<dyn common::Wire>);

impl Read for Slow {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::thread::sleep(Duration::from_micros(200));
        self.0.read(buf)
    }
}

/// Wait (at most 5 s) until `count` reads `want`.
fn wait_for(mode: Mode, what: &str, count: impl Fn() -> u64, want: u64) {
    let started = Instant::now();
    while count() != want {
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(5),
            "{mode:?}: {what} is {}",
            count()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn counter(counter: &Counter) -> impl Fn() -> u64 + '_ {
    || counter.get()
}

fn gauge(gauge: &Gauge) -> impl Fn() -> u64 + '_ {
    || gauge.get()
}

/// The peer resets the connection while the server waits for the rest of
/// its second request (the first one's answer is left unread, so closing
/// the socket resets it): the read fails, nothing more is answered, and
/// the next connection is served.
#[test]
fn a_reset_mid_request_fails_the_read_then_recovers() {
    for mode in BOTH_MODES {
        let (server, telemetry) = start(mode);
        let (addr, http) = (server.local_addr(), &telemetry.http);
        let mut sock = mode
            .request(addr, "GET /first HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap();
        wait_for(mode, "requests", counter(&http.requests), 1);
        send(&mut *sock, b"GET /second HTTP/1.1\r\nHo").unwrap();
        drop(sock);
        wait_for(mode, "peer resets", counter(&http.peer_resets), 1);
        assert_eq!(
            roundtrip(mode, addr, "/after"),
            Some((200, b"ok /after".to_vec())),
            "{mode:?}"
        );
        server.shutdown();
        assert_eq!(http.requests.get(), 2, "{mode:?}");
    }
}

/// The peer asks for 8 MiB and closes before reading it: the response
/// parks once the socket is full, and its next write fails on the reset
/// connection. The request still counts, and the next one is served.
#[test]
fn a_close_before_a_large_response_is_read_fails_the_write_then_recovers() {
    for mode in BOTH_MODES {
        let (server, telemetry) = start(mode);
        let (addr, http) = (server.local_addr(), &telemetry.http);
        let sock = mode
            .request(addr, "GET /big HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap();
        wait_for(mode, "parked writers", gauge(&http.parked_writers), 1);
        drop(sock);
        wait_for(mode, "peer resets", counter(&http.peer_resets), 1);
        assert_eq!(http.parked_writers.get(), 0, "{mode:?}");
        assert_eq!(http.write_stalls.get(), 0, "{mode:?}");
        assert_eq!(
            roundtrip(mode, addr, "/after"),
            Some((200, b"ok /after".to_vec())),
            "{mode:?}"
        );
        server.shutdown();
        assert_eq!(http.requests.get(), 2, "{mode:?}");
    }
}

/// Short writes beside a slow reader: its 8 MiB response parks when the
/// socket fills and leaves in short writes as the reader drains 16 KiB
/// at a time, while a keep-alive client on the other worker is answered
/// 200 times. Every body arrives whole and right, the slow one in order.
#[test]
fn short_writes_beside_a_parked_slow_reader_never_corrupt_a_body() {
    for mode in BOTH_MODES {
        let (server, telemetry) = start(mode);
        let (addr, http) = (server.local_addr(), &telemetry.http);
        let slow = mode
            .request(addr, "GET /big HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap();
        wait_for(mode, "parked writers", gauge(&http.parked_writers), 1);

        let drain = std::thread::spawn(move || {
            let slow = BufReader::with_capacity(16 << 10, Slow(slow));
            read_response(&mut { slow }, usize::MAX)
        });
        let mut conn = BufReader::new(mode.connect(addr).unwrap());
        for i in 0..200 {
            let request = format!("GET /n{i} HTTP/1.1\r\nHost: h\r\n\r\n");
            send(&mut **conn.get_mut(), request.as_bytes()).unwrap();
            let answer = read_response(&mut conn, usize::MAX).unwrap();
            assert_eq!(answer.status, 200, "{mode:?}");
            assert_eq!(answer.body, format!("ok /n{i}").into_bytes(), "{mode:?}");
        }

        let got = drain.join().unwrap().unwrap();
        assert_eq!(got.status, 200, "{mode:?}");
        assert!(
            got.body == big(),
            "{mode:?}: slow reader got corrupted bytes"
        );
        wait_for(mode, "parked writers", gauge(&http.parked_writers), 0);
        server.shutdown();
        assert_eq!(http.requests.get(), 201, "{mode:?}");
    }
}
