//! When an idle keep-alive connection expires: at its last activity plus
//! `read_timeout`, counted once as an idle timeout, whether the worker that
//! served it kept it or handed it back to the poller.
//!
//! This file is its own test binary so that its timing bounds are not
//! measured beside the CPU-heavy scheduler scenarios of `event_mode.rs`.

mod common;

use std::io::{BufReader, Read};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens_httpd::parse::read_response;
use clarens_httpd::{HttpServer, PeerInfo, Request, Response, ServerConfig};
use clarens_telemetry::Telemetry;

use common::{send, Mode, Wire, BOTH_MODES};

const TIMEOUT: Duration = Duration::from_millis(300);
/// How late past its deadline an idle connection may close: scheduling
/// noise on a loaded host, not a timer's granularity.
const SLACK: Duration = TIMEOUT.checked_div(32).unwrap();

fn start(mode: Mode, workers: usize, telemetry: &Arc<Telemetry>) -> HttpServer {
    let handler =
        Arc::new(|req: Request, _peer: Option<&PeerInfo>| Response::ok("text/plain", req.target));
    HttpServer::bind(
        "127.0.0.1:0",
        mode.server_config(ServerConfig {
            workers,
            telemetry: Arc::clone(telemetry),
            read_timeout: TIMEOUT,
            ..Default::default()
        }),
        handler,
    )
    .unwrap()
}

/// Open a connection and serve one request on it. Returns the connection
/// and the instants just before the request left and just after its
/// response arrived.
fn one_request(mode: Mode, addr: SocketAddr) -> (BufReader<Box<dyn Wire>>, Instant, Instant) {
    let mut reader = BufReader::new(mode.connect(addr).unwrap());
    let sent = Instant::now();
    send(
        &mut **reader.get_mut(),
        b"GET /once HTTP/1.1\r\nHost: h\r\n\r\n",
    )
    .unwrap();
    let response = read_response(&mut reader, usize::MAX).unwrap();
    let answered = Instant::now();
    assert_eq!(response.body, b"/once");
    (reader, sent, answered)
}

/// Block until the server closes `reader`; returns when it did.
fn closed_at(reader: &mut BufReader<Box<dyn Wire>>) -> Instant {
    let mut probe = [0u8; 1];
    assert_eq!(reader.read(&mut probe).unwrap(), 0, "connection still live");
    Instant::now()
}

/// One request, then silence: the socket reads EOF no earlier than
/// `read_timeout` after the request and no later than `read_timeout` plus
/// `SLACK` after its response, and the expiry is counted once.
#[test]
fn idle_connection_expires_at_its_deadline() {
    for mode in BOTH_MODES {
        for workers in [1, 2] {
            let telemetry = Telemetry::enabled();
            let server = start(mode, workers, &telemetry);
            let (mut reader, sent, answered) = one_request(mode, server.local_addr());
            let closed = closed_at(&mut reader);
            let case = format!("{mode:?}, {workers} workers");
            assert!(
                closed - sent >= TIMEOUT,
                "{case}: closed {:?} after the request",
                closed - sent
            );
            assert!(
                closed - answered <= TIMEOUT + SLACK,
                "{case}: closed {:?} after the response",
                closed - answered
            );
            assert_eq!(telemetry.http.idle_timeouts.get(), 1, "{case}");
            assert_eq!(telemetry.http.peer_resets.get(), 0, "{case}");
            assert_eq!(telemetry.http.parked.get(), 0, "{case}");
            server.shutdown();
        }
    }
}

/// A kept connection that the worker hands back to the poller because
/// another connection needs the worker keeps its deadline: a second client
/// arriving 100 ms into the first one's idle time does not restart the
/// first one's timeout.
#[test]
fn handed_back_connection_keeps_its_deadline() {
    for mode in BOTH_MODES {
        let telemetry = Telemetry::enabled();
        let server = start(mode, 1, &telemetry);
        let addr = server.local_addr();
        let (mut first, sent, answered) = one_request(mode, addr);
        std::thread::sleep(Duration::from_millis(100));
        let (_second, _, _) = one_request(mode, addr);
        let closed = closed_at(&mut first);
        assert!(closed - sent >= TIMEOUT, "{mode:?}: {:?}", closed - sent);
        // A restarted timeout would close it 100 ms later than this.
        assert!(
            closed - answered < TIMEOUT + Duration::from_millis(50),
            "{mode:?}: closed {:?} after its response",
            closed - answered
        );
        assert_eq!(telemetry.http.idle_timeouts.get(), 1, "{mode:?}");
        assert!(telemetry.http.poll_wakeups.get() <= 2, "{mode:?}");
        server.shutdown();
    }
}
