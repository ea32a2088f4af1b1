//! One way a server stops: `HttpServer::shutdown` lets the event loop
//! drain what is in flight. A response parked mid-write when shutdown
//! starts, and one whose handler is still running then, reach the client
//! whole; a client that never reads is closed at `DRAIN_TIMEOUT`; the
//! listener closes at once, so a draining server refuses new connections;
//! and no connection holds a second descriptor for a force-close. Every
//! case runs over plaintext and over the secure channel.
//!
//! The descriptor count reads `/proc/self/fd`, so that test runs alone:
//! it takes [`ALONE`] for writing, every other test for reading.

mod common;

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use clarens_httpd::parse::read_response;
use clarens_httpd::server::DRAIN_TIMEOUT;
use clarens_httpd::{HttpServer, PeerInfo, Request, Response, ServerConfig};
use clarens_telemetry::Telemetry;

use common::{send, Mode, Wire, BOTH_MODES};

/// The large answer: bigger than a loopback socket's buffers, so it parks
/// mid-write while its client is not reading.
const BIG: usize = 8 << 20;
const GET_BIG: &str = "GET /big HTTP/1.1\r\nHost: h\r\n\r\n";

/// Held for reading by every test but the descriptor count.
static ALONE: RwLock<()> = RwLock::new(());

struct Fixture {
    server: HttpServer,
    telemetry: Arc<Telemetry>,
    /// One message each time the handler starts.
    handling: Receiver<()>,
}

/// A server that answers `/big` with [`BIG`] bytes after `think`, and
/// anything else with `ok` at once. Its `read_timeout` is the default
/// 30 s, so no parked connection expires before [`DRAIN_TIMEOUT`].
fn start(mode: Mode, think: Duration) -> Fixture {
    let telemetry = Telemetry::enabled();
    let (started, handling) = mpsc::channel();
    let handler = Arc::new(move |req: Request, _peer: Option<&PeerInfo>| {
        let _ = started.send(());
        std::thread::sleep(think);
        match req.target.as_str() {
            "/big" => Response::ok("application/octet-stream", vec![b'x'; BIG]),
            _ => Response::ok("text/plain", "ok"),
        }
    });
    let config = mode.server_config(ServerConfig {
        telemetry: Arc::clone(&telemetry),
        ..Default::default()
    });
    Fixture {
        server: HttpServer::bind("127.0.0.1:0", config, handler).unwrap(),
        telemetry,
        handling,
    }
}

/// Poll `done` every millisecond for up to twenty seconds: sealing 8 MiB
/// in a debug build beside the other tests can take seconds.
fn wait_until(mut done: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + Duration::from_secs(20);
    while Instant::now() < until {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

/// Read one response to the end of the connection: `(Content-Length, body
/// bytes read)`. A cut stream — EOF, a reset, or a record the secure
/// channel cannot open — ends the count.
fn read_whole(wire: Box<dyn Wire>) -> (usize, usize) {
    let mut reader = BufReader::new(wire);
    let mut declared = 0;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            return (declared, 0);
        }
        let text = line.trim_end();
        if text.is_empty() {
            break;
        }
        if let Some((name, value)) = text.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                declared = value.trim().parse().unwrap();
            }
        }
    }
    let mut buf = vec![0; 64 << 10];
    let mut read = 0;
    while let Ok(n @ 1..) = reader.read(&mut buf) {
        read += n;
    }
    (declared, read)
}

/// A response parked mid-write when shutdown starts arrives whole.
#[test]
fn a_response_parked_mid_write_arrives_whole() {
    let _shared = ALONE.read().unwrap_or_else(|e| e.into_inner());
    for mode in BOTH_MODES {
        let Fixture {
            server, telemetry, ..
        } = start(mode, Duration::ZERO);
        let wire = mode.request(server.local_addr(), GET_BIG).unwrap();
        let parked = wait_until(|| telemetry.http.parked_writers.get() == 1);
        assert!(parked, "{mode:?}: the response never parked");
        let stopping = std::thread::spawn(move || server.shutdown());
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(read_whole(wire), (BIG, BIG), "{mode:?}: (declared, read)");
        stopping.join().unwrap();
    }
}

/// A handler still running when shutdown starts has its answer, which
/// parks, arrive whole.
#[test]
fn a_handler_running_at_shutdown_is_answered_whole() {
    let _shared = ALONE.read().unwrap_or_else(|e| e.into_inner());
    for mode in BOTH_MODES {
        let Fixture {
            server,
            telemetry,
            handling,
        } = start(mode, Duration::from_millis(300));
        let wire = mode.request(server.local_addr(), GET_BIG).unwrap();
        handling.recv().unwrap();
        let stopping = std::thread::spawn(move || server.shutdown());
        // Read only once the answer has parked, so the drain must carry it.
        wait_until(|| telemetry.http.parked_writers.get() == 1);
        assert_eq!(read_whole(wire), (BIG, BIG), "{mode:?}: (declared, read)");
        stopping.join().unwrap();
    }
}

/// A client that never reads is closed at `DRAIN_TIMEOUT`, counted as a
/// stalled writer, and `shutdown` returns then. The two modes run side by
/// side: each waits out the whole timeout.
#[test]
fn a_client_that_never_reads_is_closed_at_the_drain_timeout() {
    let _shared = ALONE.read().unwrap_or_else(|e| e.into_inner());
    let runs = BOTH_MODES.map(|mode| {
        std::thread::spawn(move || {
            let Fixture {
                server, telemetry, ..
            } = start(mode, Duration::ZERO);
            let wire = mode.request(server.local_addr(), GET_BIG).unwrap();
            let parked = wait_until(|| telemetry.http.parked_writers.get() == 1);
            assert!(parked, "{mode:?}: the response never parked");
            let started = Instant::now();
            server.shutdown();
            let took = started.elapsed();
            assert!(
                took >= DRAIN_TIMEOUT && took < DRAIN_TIMEOUT + Duration::from_secs(1),
                "{mode:?}: shutdown took {took:?}"
            );
            assert_eq!(telemetry.http.write_stalls.get(), 1, "{mode:?}");
            let (declared, read) = read_whole(wire);
            assert!(read < declared, "{mode:?}: {read} of {declared} bytes");
        })
    });
    for run in runs {
        if let Err(panic) = run.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// A connect made while the server drains is refused: the listener
/// closes as soon as shutdown starts, not when it ends.
#[test]
fn a_draining_server_refuses_new_connections() {
    let _shared = ALONE.read().unwrap_or_else(|e| e.into_inner());
    for mode in BOTH_MODES {
        let Fixture {
            server, telemetry, ..
        } = start(mode, Duration::ZERO);
        let addr = server.local_addr();
        let wire = mode.request(addr, GET_BIG).unwrap();
        let parked = wait_until(|| telemetry.http.parked_writers.get() == 1);
        assert!(parked, "{mode:?}: the response never parked");
        let stopping = std::thread::spawn(move || server.shutdown());
        let refused = wait_until(|| {
            matches!(TcpStream::connect(addr),
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused)
        });
        let returned = stopping.is_finished();
        assert!(
            refused && !returned,
            "{mode:?}: refused {refused}; shutdown returned before the drain {returned}"
        );
        assert_eq!(read_whole(wire), (BIG, BIG), "{mode:?}: (declared, read)");
        stopping.join().unwrap();
    }
}

/// Sockets this process holds open.
fn sockets() -> usize {
    let fds = std::fs::read_dir("/proc/self/fd").unwrap();
    let links = fds.filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok());
    links
        .filter(|target| target.to_string_lossy().starts_with("socket:"))
        .count()
}

/// N live keep-alive connections cost the server N sockets: the client
/// ends are in this process too, so the count grows by 2N.
#[test]
fn a_live_connection_holds_one_server_socket() {
    const N: usize = 16;
    let _alone = ALONE.write().unwrap_or_else(|e| e.into_inner());
    for mode in BOTH_MODES {
        let Fixture { server, .. } = start(mode, Duration::ZERO);
        let before = sockets();
        let clients: Vec<_> = (0..N)
            .map(|_| {
                let mut reader = BufReader::new(mode.connect(server.local_addr()).unwrap());
                send(
                    &mut **reader.get_mut(),
                    b"GET / HTTP/1.1\r\nHost: h\r\n\r\n",
                )
                .unwrap();
                let response = read_response(&mut reader, usize::MAX).unwrap();
                assert!(response.keep_alive, "{mode:?}");
                reader
            })
            .collect();
        let server_side = sockets() - before - N;
        assert_eq!(
            server_side, N,
            "{mode:?}: server sockets for {N} connections"
        );
        drop(clients);
        server.shutdown();
    }
}
