//! Behavioral tests for the bulk-data path: sendfile-backed file bodies,
//! Range slicing, truncation detection, and partial-write parking.
//!
//! The byte-identity matrix is the contract that lets the code pick the
//! copy engine on its own: `sendfile(2)` on a plaintext connection, chunks
//! sealed into records on a TLS one, and the public serializer writing
//! into memory must produce identical bytes for every request shape,
//! including 206 partial content. The parking tests pin the scheduler
//! property — a slow reader parks its half-written response in the poller
//! instead of pinning a worker — on both transports, and the staging test
//! pins that a sealed body is never held in memory whole.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens_httpd::parse::{read_request, read_response, write_response, COPY_BUFFER};
use clarens_httpd::{
    resolve_range, Handler, HttpServer, Method, PeerInfo, RangeOutcome, Request, Response,
    ServerConfig,
};
use clarens_telemetry::Telemetry;

use common::{send, Mode, BOTH_MODES};

use proptest::prelude::*;

/// Largest single allocation made by a thread that raised [`WATCHED`]: how
/// the staging test sees what a server worker holds in memory.
static LARGEST_WATCHED_ALLOC: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static WATCHED: Cell<bool> = const { Cell::new(false) };
}

struct WatchingAlloc;

fn watch(size: usize) {
    // The slot may be gone while a dying thread's destructors allocate.
    if WATCHED.try_with(Cell::get).unwrap_or(false) {
        LARGEST_WATCHED_ALLOC.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches one atomic and
// a `const`-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for WatchingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        watch(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        watch(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        watch(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: WatchingAlloc = WatchingAlloc;

/// A deterministic payload file shared by the tests (per-test file name,
/// so parallel tests never collide).
fn payload_file(tag: &str, len: usize) -> (PathBuf, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("clarens-bulk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.bin"));
    let data: Vec<u8> = (0..len as u32).map(|i| (i % 239) as u8).collect();
    std::fs::write(&path, &data).unwrap();
    (path, data)
}

/// What a miniature file server answers: `GET /data` serves the payload
/// file with Range support, exactly the shape `clarens-core`'s `serve_file`
/// builds.
fn file_response(path: &Path, req: &Request) -> Response {
    let file = std::fs::File::open(path).unwrap();
    let len = file.metadata().unwrap().len();
    match resolve_range(req.headers.get("range"), len) {
        RangeOutcome::Whole => Response::file(200, "application/octet-stream", file, 0, len),
        RangeOutcome::Partial { start, end } => {
            let mut r = Response::file(
                206,
                "application/octet-stream",
                file,
                start,
                end - start + 1,
            );
            r.headers
                .set("content-range", format!("bytes {start}-{end}/{len}"));
            r
        }
        RangeOutcome::Unsatisfiable => {
            let mut r = Response::error(416, "range addresses no byte");
            r.headers.set("content-range", format!("bytes */{len}"));
            r
        }
    }
}

fn file_handler(path: PathBuf) -> Arc<impl Handler> {
    Arc::new(move |req: Request, _peer: Option<&PeerInfo>| file_response(&path, &req))
}

fn config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(500),
        ..Default::default()
    }
}

/// The reference wire image of one exchange: every request in it answered
/// through the public serializer into memory — no socket fd, so file bodies
/// take the buffered copy loop.
fn serialized_in_memory(path: &Path, exchange: &str) -> Vec<u8> {
    let mut requests = BufReader::new(exchange.as_bytes());
    let mut wire = Vec::new();
    while let Ok(req) = read_request(&mut requests, usize::MAX) {
        let (keep_alive, head_only) = (req.wants_keep_alive(), req.method == Method::Head);
        write_response(&mut wire, file_response(path, &req), keep_alive, head_only).unwrap();
    }
    wire
}

/// Plaintext (sendfile), TLS (sealed chunks, compared after decryption)
/// and the in-memory serializer: the response bytes must be identical for
/// whole-file GETs, 206 slices (closed, suffix, open-ended), 416s, HEAD,
/// and pipelined keep-alive — the copy engine must be invisible on the
/// wire.
#[test]
fn copy_engines_are_byte_identical_on_the_wire() {
    let (path, data) = payload_file("identity", 300_000);
    let exchanges = [
        "GET /data HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        "GET /data HTTP/1.1\r\nHost: h\r\nRange: bytes=1000-4999\r\nConnection: close\r\n\r\n",
        "GET /data HTTP/1.1\r\nHost: h\r\nRange: bytes=-777\r\nConnection: close\r\n\r\n",
        "GET /data HTTP/1.1\r\nHost: h\r\nRange: bytes=299999-\r\nConnection: close\r\n\r\n",
        "GET /data HTTP/1.1\r\nHost: h\r\nRange: bytes=999999-\r\nConnection: close\r\n\r\n",
        "HEAD /data HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        // Pipelined: a range then a whole file on one keep-alive connection.
        "GET /data HTTP/1.1\r\nHost: h\r\nRange: bytes=0-9\r\n\r\n\
         GET /data HTTP/1.1\r\nHost: h\r\nRange: bytes=10-19\r\nConnection: close\r\n\r\n",
    ];

    let baseline: Vec<Vec<u8>> = exchanges
        .iter()
        .map(|exchange| serialized_in_memory(&path, exchange))
        .collect();
    // Sanity: the whole-file exchange really carries the payload.
    assert!(baseline[0].windows(data.len()).any(|w| w == data));
    for mode in BOTH_MODES {
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(config()),
            file_handler(path.clone()),
        )
        .unwrap();
        let wires = mode.collect_wire_bytes(server.local_addr(), &exchanges);
        server.shutdown();
        for (i, (a, b)) in baseline.iter().zip(wires.iter()).enumerate() {
            assert_eq!(a, b, "exchange {i} differs from baseline under {mode:?}");
        }
    }
}

/// On a plaintext Linux socket file bytes are attributed to the
/// `bytes_sendfile` counter; under TLS, where every byte must pass through
/// the record layer, none are.
#[cfg(target_os = "linux")]
#[test]
fn sendfile_bytes_are_counted() {
    let (path, data) = payload_file("counted", 200_000);
    for mode in BOTH_MODES {
        let telemetry = Telemetry::enabled();
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(ServerConfig {
                telemetry: Some(Arc::clone(&telemetry)),
                ..config()
            }),
            file_handler(path.clone()),
        )
        .unwrap();
        let wire = mode.collect_wire_bytes(
            server.local_addr(),
            &["GET /data HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n"],
        );
        assert!(wire[0].windows(data.len()).any(|w| w == data));
        // The worker credits the counters after the last byte is written,
        // so the client can get here first — shutdown joins the workers.
        server.shutdown();
        let via_sendfile = telemetry.http.bytes_sendfile.get();
        match mode {
            Mode::Plain => assert_eq!(
                via_sendfile,
                data.len() as u64,
                "whole body should ride sendfile"
            ),
            Mode::Tls => assert_eq!(via_sendfile, 0, "sealed bytes cannot be spliced"),
        }
    }
}

/// A stream body that under-delivers against its declared Content-Length
/// must close the connection (never desync keep-alive framing) and count
/// as a stream truncation, on both transports.
#[test]
fn truncated_stream_closes_connection_and_is_counted() {
    for mode in BOTH_MODES {
        let telemetry = Telemetry::enabled();
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(ServerConfig {
                telemetry: Some(Arc::clone(&telemetry)),
                ..config()
            }),
            // Claims 100 KiB, delivers 40 KiB: a lying Content-Length. (More
            // than two secure-channel records, so a TLS client has the head
            // before the stream runs dry.)
            Arc::new(|_req: Request, _peer: Option<&PeerInfo>| {
                let reader = Box::new(std::io::Cursor::new(vec![0x41u8; 40_960]));
                Response::stream("application/octet-stream", reader, 102_400)
            }),
        )
        .unwrap();

        // Ask for keep-alive: the truncation must force a close anyway.
        let wire = mode
            .collect_wire_bytes(
                server.local_addr(),
                &["GET /data HTTP/1.1\r\nHost: h\r\n\r\n"],
            )
            .remove(0);
        let head_end = wire
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("header terminator");
        let head = std::str::from_utf8(&wire[..head_end]).unwrap();
        assert!(head.contains("content-length: 102400"), "{mode:?}: {head}");
        assert!(
            wire.len() - head_end - 4 < 102_400,
            "{mode:?}: under-delivery expected"
        );
        assert_eq!(
            telemetry.http.stream_truncations.get(),
            1,
            "{mode:?}: truncation must be counted"
        );
        assert_eq!(
            telemetry.http.peer_resets.get(),
            0,
            "{mode:?}: a server-side truncation is not peer churn"
        );
        server.shutdown();
    }
}

/// A reader too slow to drain a multi-megabyte response parks the
/// half-written response in the poller instead of pinning the only worker;
/// a second client is served meanwhile, and the slow reader still receives
/// every byte. Under TLS what parks mid-body is a sealed chunk.
#[test]
fn slow_reader_parks_write_and_frees_the_worker() {
    let (path, data) = payload_file("parked", 8 << 20);
    for mode in BOTH_MODES {
        let telemetry = Telemetry::enabled();
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(ServerConfig {
                workers: 1,
                telemetry: Some(Arc::clone(&telemetry)),
                read_timeout: Duration::from_secs(30),
                ..config()
            }),
            file_handler(path.clone()),
        )
        .unwrap();
        let addr = server.local_addr();

        // The slow reader requests 8 MiB and then... reads nothing. The
        // kernel buffers fill, the write hits EWOULDBLOCK, and the
        // connection must park with its cursor instead of holding the
        // worker.
        let mut slow = mode
            .request(
                addr,
                "GET /data HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
            )
            .unwrap();

        // Wait until the writer is actually parked (bounded).
        let started = Instant::now();
        while telemetry.http.parked_writers.get() == 0 {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "{mode:?}: writer never parked; parked_writers stayed 0"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        // The single worker is free: a fast client gets its answer promptly.
        let request =
            "GET /data HTTP/1.1\r\nHost: h\r\nRange: bytes=0-9\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(mode.request(addr, request).unwrap());
        let resp = read_response(&mut reader, usize::MAX).unwrap();
        assert_eq!(resp.status, 206, "fast client starved behind a slow reader");
        assert_eq!(resp.body, &data[..10]);

        // The slow reader finally drains: every byte arrives, in order.
        let mut wire = Vec::new();
        slow.read_to_end(&mut wire).unwrap();
        let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        assert_eq!(wire.len() - head_end, data.len());
        assert!(
            wire[head_end..] == data,
            "{mode:?}: slow reader got corrupted bytes"
        );
        assert_eq!(telemetry.http.write_stalls.get(), 0);
        server.shutdown();
    }
}

/// A parked writer whose peer never drains expires from the deadline wheel
/// as a `write_stall` — a distinct failure class from keep-alive idle
/// churn.
#[test]
fn stalled_writer_expires_as_write_stall() {
    let (path, _) = payload_file("stalled", 8 << 20);
    for mode in BOTH_MODES {
        let telemetry = Telemetry::enabled();
        let server = HttpServer::bind(
            "127.0.0.1:0",
            mode.server_config(ServerConfig {
                workers: 1,
                telemetry: Some(Arc::clone(&telemetry)),
                read_timeout: Duration::from_millis(300),
                ..config()
            }),
            file_handler(path.clone()),
        )
        .unwrap();

        let _slow = mode
            .request(
                server.local_addr(),
                "GET /data HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        // Never read. The write parks, overstays the deadline, and is
        // evicted.
        let started = Instant::now();
        while telemetry.http.write_stalls.get() == 0 {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "{mode:?}: stalled writer was never expired (parked_writers={}, idle_timeouts={})",
                telemetry.http.parked_writers.get(),
                telemetry.http.idle_timeouts.get(),
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        assert_eq!(telemetry.http.write_stalls.get(), 1);
        assert_eq!(
            telemetry.http.idle_timeouts.get(),
            0,
            "a write stall must not masquerade as idle churn"
        );
        server.shutdown();
    }
}

/// A file body is sealed a chunk at a time: serving 8 MiB over TLS, the
/// worker never makes an allocation anywhere near the size of the body.
/// The ceiling is a staging buffer's worth — `COPY_BUFFER` of plaintext
/// and its record overhead — doubled once by `Vec` growth when a pooled
/// `COPY_BUFFER` buffer is reused for the slightly larger sealed chunk.
#[test]
fn tls_body_is_sealed_in_chunks_never_whole() {
    let (path, data) = payload_file("staged", 8 << 20);
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Mode::Tls.server_config(ServerConfig {
            workers: 1,
            read_timeout: Duration::from_secs(30),
            ..config()
        }),
        Arc::new(move |req: Request, _peer: Option<&PeerInfo>| {
            // From here on, this worker's allocations are watched.
            WATCHED.with(|w| w.set(true));
            file_response(&path, &req)
        }),
    )
    .unwrap();

    let mut sock = Mode::Tls.connect(server.local_addr()).unwrap();
    send(
        &mut *sock,
        b"GET /data HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    // Read as slowly as a 4 KiB buffer makes us, so the write parks
    // mid-body over and over.
    let mut wire = Vec::with_capacity(data.len() + 512);
    let mut buf = [0u8; 4096];
    loop {
        match sock.read(&mut buf).unwrap() {
            0 => break,
            n => wire.extend_from_slice(&buf[..n]),
        }
    }
    assert!(wire.ends_with(&data), "body corrupted");
    server.shutdown();

    let largest = LARGEST_WATCHED_ALLOC.load(Ordering::Relaxed);
    assert!(largest > 0, "the worker was never watched");
    assert!(
        largest < 3 * COPY_BUFFER,
        "a worker allocated {largest} bytes at once serving a sealed body"
    );
}

proptest! {
    /// The Range parser never panics, and every Partial it produces is a
    /// well-formed, in-bounds, non-empty slice.
    #[test]
    fn range_parser_is_total_and_in_bounds(header in ".{0,40}", len in 0u64..1 << 40) {
        match resolve_range(Some(&header), len) {
            RangeOutcome::Partial { start, end } => {
                prop_assert!(start <= end);
                prop_assert!(end < len);
            }
            RangeOutcome::Whole | RangeOutcome::Unsatisfiable => {}
        }
    }

    /// Well-formed closed ranges resolve exactly; inverted ones are
    /// ignored (200), and starts beyond the entity are unsatisfiable.
    #[test]
    fn closed_ranges_resolve_exactly(a in 0u64..10_000, b in 0u64..10_000, len in 1u64..20_000) {
        let header = format!("bytes={a}-{b}");
        let got = resolve_range(Some(&header), len);
        if a > b {
            prop_assert_eq!(got, RangeOutcome::Whole);
        } else if a >= len {
            prop_assert_eq!(got, RangeOutcome::Unsatisfiable);
        } else {
            prop_assert_eq!(got, RangeOutcome::Partial { start: a, end: b.min(len - 1) });
        }
    }

    /// Suffix ranges take the final N bytes (clamped), and `-0` addresses
    /// nothing.
    #[test]
    fn suffix_ranges_take_the_tail(n in 0u64..20_000, len in 1u64..10_000) {
        let got = resolve_range(Some(&format!("bytes=-{n}")), len);
        if n == 0 {
            prop_assert_eq!(got, RangeOutcome::Unsatisfiable);
        } else {
            prop_assert_eq!(
                got,
                RangeOutcome::Partial { start: len.saturating_sub(n), end: len - 1 }
            );
        }
    }

}

/// Multi-range and other unparseable specs fall back to serving the whole
/// entity — never an error, never a panic.
#[test]
fn junk_and_multi_ranges_serve_whole() {
    for spec in [
        "bytes=0-1,5-9",
        "bytes=",
        "bytes=a-b",
        "octets=0-5",
        "0-5",
        "bytes=--3",
        "bytes=5--",
        "bytes=9 9-",
        "bytes",
    ] {
        for len in [1u64, 100, 10_000] {
            assert_eq!(
                resolve_range(Some(spec), len),
                RangeOutcome::Whole,
                "{spec:?} against {len}"
            );
        }
    }
}
