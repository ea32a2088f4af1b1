//! Accepting with the descriptor table full: while `accept` fails with
//! `EMFILE` the connection stays pending and the listener stays readable,
//! yet the server must not spin on it; once descriptors are free again it
//! answers the pending connection.
//!
//! This file is its own test binary because it fills the process's
//! descriptor table. Above a soft limit of `FD_LIMIT` it runs itself again
//! under `ulimit -n FD_LIMIT`, so that the table fills quickly.

use std::fs::File;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::os::unix::fs::FileExt;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use clarens_httpd::parse::read_response;
use clarens_httpd::{HttpServer, PeerInfo, Request, Response, ServerConfig};

const FD_LIMIT: u64 = 1024;
/// Linux's `EMFILE`: the process's descriptor table is full.
const EMFILE: i32 = 24;
/// Milliseconds per clock tick of `/proc/<pid>/stat` (`USER_HZ` = 100).
const TICK_MS: u64 = 10;

fn soft_fd_limit() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap();
    let line = limits
        .lines()
        .find(|line| line.starts_with("Max open files"));
    let soft = line.unwrap().split_whitespace().nth(3).unwrap();
    soft.parse().unwrap_or(u64::MAX) // "unlimited"
}

/// The process's CPU time so far in milliseconds, read through a handle
/// opened while descriptors were still free.
fn cpu_ms(stat: &File) -> u64 {
    let mut buf = [0u8; 1024];
    let n = stat.read_at(&mut buf, 0).unwrap();
    let text = std::str::from_utf8(&buf[..n]).unwrap();
    // Fields after the parenthesised name, which may hold spaces, start at
    // the state (field 3); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = text[text.rfind(')').unwrap() + 1..]
        .split_whitespace()
        .collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks * TICK_MS
}

#[test]
fn accept_under_fd_exhaustion_does_not_spin() {
    if soft_fd_limit() > FD_LIMIT {
        let exe = std::env::current_exe().unwrap();
        let script = format!(
            "ulimit -n {FD_LIMIT} && exec \"$0\" --exact accept_under_fd_exhaustion_does_not_spin"
        );
        let out = Command::new("sh")
            .args(["-c", &script])
            .arg(exe)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }

    let stat = File::open("/proc/self/stat").unwrap();
    let handler =
        Arc::new(|req: Request, _peer: Option<&PeerInfo>| Response::ok("text/plain", req.target));
    let config = ServerConfig {
        workers: 1,
        ..Default::default()
    };
    let server = HttpServer::bind("127.0.0.1:0", config, handler).unwrap();

    // Fill the table, then free one slot for the client's socket: the
    // server's `accept` has none left.
    let mut held = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(file) => held.push(file),
            Err(e) if e.raw_os_error() == Some(EMFILE) => break,
            Err(e) => panic!("open: {e}"),
        }
    }
    held.pop();
    let mut client = TcpStream::connect(server.local_addr()).unwrap();
    client
        .write_all(b"GET /pending HTTP/1.1\r\nHost: h\r\n\r\n")
        .unwrap();

    let start = cpu_ms(&stat);
    std::thread::sleep(Duration::from_millis(500));
    let spent = cpu_ms(&stat) - start;
    drop(held);
    assert!(
        spent < 50,
        "{spent} ms of CPU in 500 ms with a connection pending"
    );

    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let response = read_response(&mut BufReader::new(client), usize::MAX).unwrap();
    assert_eq!(response.body, b"/pending");
    server.shutdown();
}
