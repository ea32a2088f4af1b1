//! An idle server sleeps: with a connection parked on the poller and the
//! default `read_timeout`, nothing wakes the poller thread before that
//! connection's deadline, and the server runs one event thread, on one
//! epoll instance, beside its workers.
//!
//! This file is its own test binary: it counts the process's threads and
//! reads their scheduler statistics, so no other test's server may run
//! beside it.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use clarens_httpd::parse::read_response;
use clarens_httpd::{HttpServer, PeerInfo, Request, Response, ServerConfig};
use clarens_telemetry::Telemetry;

/// Every thread of this process as `(name, voluntary context switches)`.
/// The kernel truncates a thread's name to 15 bytes.
fn threads() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let Ok(status) = std::fs::read_to_string(task.unwrap().path().join("status")) else {
            continue; // the thread exited
        };
        let field = |key: &str| {
            let line = status.lines().find_map(|line| line.strip_prefix(key));
            line.unwrap_or_default().trim().to_string()
        };
        let switches = field("voluntary_ctxt_switches:").parse().unwrap();
        out.push((field("Name:"), switches));
    }
    out
}

/// How many epoll instances this process holds open.
fn epoll_instances() -> usize {
    let fds = std::fs::read_dir("/proc/self/fd").unwrap();
    let links = fds.filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok());
    links
        .filter(|target| target.as_os_str() == "anon_inode:[eventpoll]")
        .count()
}

/// Open a connection and serve one request for `path` on it.
fn served(addr: SocketAddr, path: &str) -> BufReader<TcpStream> {
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(sock, "GET {path} HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
    let mut reader = BufReader::new(sock);
    let response = read_response(&mut reader, usize::MAX).unwrap();
    assert_eq!(response.body, path.as_bytes());
    reader
}

#[test]
fn idle_server_sleeps_on_one_loop_thread() {
    let workers = 1;
    let telemetry = Telemetry::enabled();
    let handler =
        Arc::new(|req: Request, _peer: Option<&PeerInfo>| Response::ok("text/plain", req.target));
    let config = ServerConfig {
        workers,
        telemetry: Arc::clone(&telemetry),
        ..Default::default()
    };
    let server = HttpServer::bind("127.0.0.1:0", config, handler).unwrap();
    let addr = server.local_addr();

    // The one worker keeps A after serving it; B's arrival makes it hand
    // A back to the poller, and it keeps B instead.
    let a = served(addr, "/a");
    let b = served(addr, "/b");
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(telemetry.http.parked.get(), 2, "A parked, B kept");

    let spawned: Vec<String> = threads()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("clarens-"))
        .collect();
    let poller_switches = || {
        let poller = threads()
            .into_iter()
            .find(|(name, _)| name == "clarens-poller");
        poller.expect("poller thread").1
    };
    let epolls = epoll_instances();
    let before = poller_switches();
    std::thread::sleep(Duration::from_millis(1500));
    let woken = poller_switches() - before;

    assert!(
        woken == 0 && spawned.len() == workers + 1 && epolls == 1,
        "the poller woke {woken} times with A's deadline 30 s away; \
         the server runs {spawned:?} on {epolls} epoll instances"
    );
    drop((a, b));
    server.shutdown();
}
