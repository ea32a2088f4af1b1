//! Fault injection on the server's network edges: accept, read, write.
//!
//! These failpoints fire on server threads, so they must be armed
//! globally. This file is its own test binary — its own process — so
//! the global arming cannot leak into other tests. Within the file the
//! tests serialize on a mutex, since each arming window is global to
//! the process.

mod common;

use std::io::BufReader;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use clarens_httpd::parse::read_response;
use clarens_httpd::{Handler, HttpServer, PeerInfo, Request, Response, ServerConfig};
use clarens_telemetry::Telemetry;

use common::{send, Mode, BOTH_MODES};

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn echo_handler() -> Arc<impl Handler> {
    Arc::new(|req: Request, _peer: Option<&PeerInfo>| {
        Response::ok("text/plain", format!("ok {}", req.target))
    })
}

fn start(mode: Mode) -> HttpServer {
    let config = mode.server_config(ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..Default::default()
    });
    HttpServer::bind("127.0.0.1:0", config, echo_handler()).unwrap()
}

fn roundtrip(mode: Mode, addr: std::net::SocketAddr, target: &str) -> Option<(u16, Vec<u8>)> {
    let request = format!("GET {target} HTTP/1.1\r\nHost: h\r\n\r\n");
    let mut reader = BufReader::new(mode.request(addr, request).ok()?);
    read_response(&mut reader, usize::MAX)
        .map(|r| (r.status, r.body))
        .ok()
}

#[test]
fn injected_accept_failure_drops_connection_then_recovers() {
    let _serial = serial();
    for mode in BOTH_MODES {
        let server = start(mode);
        let addr = server.local_addr();
        {
            let _guard = clarens_faults::with(clarens_faults::sites::HTTPD_ACCEPT, "err|times=1");
            // The aborted connection is never served: the client sees EOF
            // (or a reset) instead of a response.
            assert_eq!(roundtrip(mode, addr, "/dropped"), None, "{mode:?}");
        }
        // Budget exhausted: the next connection is served normally.
        assert_eq!(
            roundtrip(mode, addr, "/served"),
            Some((200, b"ok /served".to_vec())),
            "{mode:?}"
        );
        server.shutdown();
    }
}

#[test]
fn injected_read_failure_closes_connection_then_recovers() {
    let _serial = serial();
    for mode in BOTH_MODES {
        let server = start(mode);
        let addr = server.local_addr();
        {
            let _guard = clarens_faults::with(clarens_faults::sites::HTTPD_READ, "err|times=1");
            // The read failpoint fires on the server's first read of the
            // connection, which is torn down without a response. Under
            // TLS that first read is of the ClientHello, so the client
            // does not even get a channel.
            if let Ok(mut sock) = mode.connect(addr) {
                assert_eq!(mode, Mode::Plain, "handshake survived a failed read");
                let _ = send(&mut *sock, b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n");
                let mut probe = Vec::new();
                let n = sock.read_to_end(&mut probe).unwrap_or(0);
                assert_eq!(n, 0, "{mode:?}: expected EOF, got {probe:?}");
            }
        }
        assert_eq!(
            roundtrip(mode, addr, "/after"),
            Some((200, b"ok /after".to_vec())),
            "{mode:?}"
        );
        server.shutdown();
    }
}

#[test]
fn injected_write_failure_severs_response_then_recovers() {
    let _serial = serial();
    for mode in BOTH_MODES {
        let server = start(mode);
        let addr = server.local_addr();
        {
            let _guard = clarens_faults::with(clarens_faults::sites::HTTPD_WRITE, "err|times=1");
            // The request is handled but its response write fails; the
            // client observes a closed connection with no (complete)
            // response.
            assert_eq!(roundtrip(mode, addr, "/lost"), None, "{mode:?}");
        }
        assert_eq!(
            roundtrip(mode, addr, "/after"),
            Some((200, b"ok /after".to_vec())),
            "{mode:?}"
        );
        // Both requests were parsed and counted.
        assert_eq!(
            server
                .stats()
                .requests
                .load(std::sync::atomic::Ordering::Relaxed),
            2,
            "{mode:?}"
        );
        server.shutdown();
    }
}

/// A probabilistic write fault beside a parked slow reader: every response
/// either arrives whole and right or not at all, the reader's half-written
/// body is untouched, and the server serves cleanly once disarmed.
#[test]
fn short_writes_beside_a_parked_slow_reader_never_corrupt_a_body() {
    let _serial = serial();
    let big: Vec<u8> = (0..8u32 << 20)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect();
    for mode in BOTH_MODES {
        let telemetry = Telemetry::enabled();
        let body = big.clone();
        let handler = Arc::new(move |req: Request, _peer: Option<&PeerInfo>| {
            if req.target == "/big" {
                Response::ok("application/octet-stream", body.clone())
            } else {
                Response::ok("text/plain", format!("ok {}", req.target))
            }
        });
        let config = mode.server_config(ServerConfig {
            workers: 2,
            telemetry: Some(Arc::clone(&telemetry)),
            read_timeout: Duration::from_secs(30),
            ..Default::default()
        });
        let server = HttpServer::bind("127.0.0.1:0", config, handler).unwrap();
        let addr = server.local_addr();

        // The slow reader asks for 8 MiB and reads nothing: its response
        // parks half-written before the fault is armed.
        let mut slow = mode
            .request(addr, "GET /big HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap();
        let started = Instant::now();
        while telemetry.http.parked_writers.get() == 0 {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "{mode:?}: the slow reader's response never parked"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        // One keep-alive client; a severed response costs it a reconnect.
        let (mut served, mut severed) = (0, 0);
        {
            let _guard =
                clarens_faults::with(clarens_faults::sites::HTTPD_WRITE, "short:512|p=0.05");
            let mut conn = None;
            for i in 0..200 {
                let reader =
                    conn.get_or_insert_with(|| BufReader::new(mode.connect(addr).unwrap()));
                let request = format!("GET /n{i} HTTP/1.1\r\nHost: h\r\n\r\n");
                send(&mut **reader.get_mut(), request.as_bytes()).unwrap();
                match read_response(reader, usize::MAX) {
                    Ok(answer) => {
                        assert_eq!(answer.status, 200, "{mode:?}");
                        assert_eq!(answer.body, format!("ok /n{i}").into_bytes(), "{mode:?}");
                        served += 1;
                    }
                    Err(_) => {
                        severed += 1;
                        conn = None;
                    }
                }
            }
        }
        assert!(severed > 0, "{mode:?}: the failpoint never fired");
        assert!(
            served > severed,
            "{mode:?}: {served} served, {severed} severed"
        );

        // Disarmed: the next request is answered, and the slow reader
        // drains every byte of its body, in order.
        assert_eq!(
            roundtrip(mode, addr, "/after"),
            Some((200, b"ok /after".to_vec())),
            "{mode:?}"
        );
        let got = read_response(&mut BufReader::new(&mut *slow), usize::MAX).unwrap();
        assert_eq!(got.status, 200, "{mode:?}");
        assert!(got.body == big, "{mode:?}: slow reader got corrupted bytes");
        server.shutdown();
    }
}
