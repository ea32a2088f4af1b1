//! Keep-alive isolation tests for the recycled-buffer data path.
//!
//! Whoever drives a connection recycles request/response buffers across
//! keep-alive requests (see `scratch`); these tests drive a connection
//! through the pooled path and assert that no request ever observes bytes
//! left over from a previous request on the same connection — including
//! when the handler itself draws response buffers from the arena, and when
//! bodies arrive chunked. The server is a pipe (`serve_pipe`): one pump
//! with one scratch arena serves every request of a connection, so the
//! second request meets the first one's buffers on every run, not only
//! when the same worker happens to serve both.

use std::io::{BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

use clarens_httpd::parse::read_response;
use clarens_httpd::{serve_pipe, Handler, Pipe, Request, RequestContext, Response, ServerConfig};
use clarens_telemetry::Telemetry;

/// Echoes the request body back from a buffer taken out of the worker's
/// scratch arena, and recycles the request body — the most aggressive
/// reuse a handler can perform.
struct PooledEcho;

impl Handler for PooledEcho {
    fn handle(&self, mut request: Request, ctx: RequestContext<'_>) -> Response {
        let mut out = ctx.scratch.take();
        out.extend_from_slice(&request.body);
        ctx.scratch.recycle(std::mem::take(&mut request.body));
        Response::ok("application/octet-stream", out)
    }
}

fn start_server(telemetry: Arc<Telemetry>) -> Pipe {
    let config = ServerConfig {
        telemetry,
        ..Default::default()
    };
    serve_pipe(config, Arc::new(PooledEcho))
}

fn post(body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST /echo HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

#[test]
fn second_request_never_sees_first_requests_bytes() {
    let telemetry = Telemetry::enabled();
    let server = start_server(Arc::clone(&telemetry));
    let mut sock = server.connect().unwrap();

    // A large, distinctive first body primes every recycled buffer with
    // poison bytes; the tiny second body must come back exactly, with no
    // tail of the first.
    let big: Vec<u8> = (0..256 * 1024).map(|i| b'A' + (i % 23) as u8).collect();
    let small = b"tiny-second-body".to_vec();

    sock.write_all(&post(&big)).unwrap();
    sock.write_all(&post(&small)).unwrap();

    let mut reader = BufReader::new(sock);
    let first = read_response(&mut reader, usize::MAX).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.body, big);
    let second = read_response(&mut reader, usize::MAX).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.body, small, "stale bytes leaked across keep-alive");

    // The second request really did run through the recycled pool.
    assert!(
        telemetry.http.buffer_pool_reuse.get() > 0,
        "expected at least one pooled-buffer reuse across keep-alive"
    );
    // The worker bumps the request counter after flushing the response,
    // so the client can get here first — wait for it to catch up.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while telemetry.http.requests.get() < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(telemetry.http.requests.get(), 2);
}

#[test]
fn pipelined_burst_each_response_isolated() {
    let server = start_server(Telemetry::enabled());
    let mut sock = server.connect().unwrap();

    // Alternate shrinking/odd-sized bodies so any stale-length bug shows.
    let bodies: Vec<Vec<u8>> = (0..8)
        .map(|i| {
            let len = [100_001usize, 17, 4096, 1, 65_536, 3, 900, 33][i];
            (0..len).map(|j| (b'a' + (i as u8)) ^ (j as u8)).collect()
        })
        .collect();
    for body in &bodies {
        sock.write_all(&post(body)).unwrap();
    }
    let mut reader = BufReader::new(sock);
    for (i, body) in bodies.iter().enumerate() {
        let resp = read_response(&mut reader, usize::MAX).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(&resp.body, body, "response {i} corrupted by buffer reuse");
    }
}

#[test]
fn chunked_bodies_reassembled_through_pooled_path() {
    let server = start_server(Telemetry::enabled());
    let mut sock = server.connect().unwrap();

    // First chunked request: three uneven chunks.
    sock.write_all(
        b"POST /echo HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n\
          5\r\nhello\r\n1\r\n \r\n6\r\nworld!\r\n0\r\n\r\n",
    )
    .unwrap();
    // Second chunked request on the same connection: shorter, different
    // content — must not inherit anything from the first.
    sock.write_all(
        b"POST /echo HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n\
          3\r\nabc\r\n0\r\n\r\n",
    )
    .unwrap();

    let mut reader = BufReader::new(sock);
    let first = read_response(&mut reader, usize::MAX).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.body, b"hello world!");
    let second = read_response(&mut reader, usize::MAX).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.body, b"abc", "chunked body bled across keep-alive");
}

#[test]
fn mixed_chunked_and_content_length_keep_alive() {
    let server = start_server(Telemetry::enabled());
    let mut sock = server.connect().unwrap();

    sock.write_all(&post(b"plain-one")).unwrap();
    sock.write_all(
        b"POST /echo HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n\
          7\r\nchunked\r\n0\r\n\r\n",
    )
    .unwrap();
    sock.write_all(&post(b"plain-two")).unwrap();

    let mut reader = BufReader::new(sock);
    for expect in [&b"plain-one"[..], b"chunked", b"plain-two"] {
        let resp = read_response(&mut reader, usize::MAX).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, expect);
    }
}
