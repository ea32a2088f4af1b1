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
use std::time::Duration;

use clarens_httpd::parse::read_response;
use clarens_httpd::{Handler, HttpServer, PeerInfo, Request, Response, ServerConfig};

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
