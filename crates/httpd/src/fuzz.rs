//! Shared fuzz entry point for the HTTP request parser.
//!
//! Same contract as `clarens_wire::fuzz`: raw attacker bytes in, and the
//! parser must reject or accept them gracefully — no panic, no unbounded
//! allocation. Driven by the cargo-fuzz target in `fuzz/fuzz_targets/`,
//! the in-tree `repro fuzz` harness, and that harness's bounded pass in
//! `cargo test` (`crates/bench/tests/fuzz_smoke.rs`).

use std::io::BufReader;

use crate::parse::{read_request, ParseError, MAX_HEADER_BYTES};

/// Body cap used while fuzzing — large enough to exercise the
/// Content-Length path, small enough that a hostile header cannot make
/// the harness itself allocate gigabytes.
const FUZZ_MAX_BODY: usize = 1 << 20;

/// Feed one connection's worth of bytes to the request parser, twice:
/// whole, and through a reader that hands the scanner at most `k` bytes at
/// a time (`k` from the first byte), as a server's connection receives
/// them. Both must read the same; anything accepted must expose
/// self-consistent accessors (path/query never panic). An accepted
/// chunked request is then read again with an endless trailer in place
/// of its last line, which must be refused.
pub fn http_request(data: &[u8]) {
    let k = data.first().map_or(1, |&b| usize::from(b % 32) + 1);
    let pieces = read_request(&mut BufReader::with_capacity(k, data), FUZZ_MAX_BODY);
    let mut rest = data;
    let whole = read_request(&mut rest, FUZZ_MAX_BODY);
    assert_eq!(
        format!("{whole:?}"),
        format!("{pieces:?}"),
        "read {k} bytes at a time"
    );
    if let Ok(request) = whole {
        // Exercise the derived accessors on accepted requests.
        let _ = request.path();
        let _ = request.query();
        let _ = request.headers.get("content-type");
        assert!(
            request.body.len() <= FUZZ_MAX_BODY,
            "parser exceeded its body cap"
        );
        if request.headers.get("transfer-encoding").is_some() {
            endless_trailer(&data[..data.len() - rest.len()], k);
        }
    }
}

/// `message`, a whole chunked request, with more than `MAX_HEADER_BYTES`
/// of trailer lines (`k` × 31 bytes of padding each) where its final
/// blank line was: a refusal (431), not a wait for more.
fn endless_trailer(message: &[u8], k: usize) {
    let head = message
        .strip_suffix(b"\r\n")
        .or(message.strip_suffix(b"\n"));
    let mut wire = head.expect("a message ends in a line").to_vec();
    let line = format!("x-pad: {}", "p".repeat(k * 31));
    for _ in 0..=MAX_HEADER_BYTES / line.len() {
        wire.extend_from_slice(line.as_bytes());
        wire.extend_from_slice(b"\r\n");
    }
    match read_request(&mut &wire[..], FUZZ_MAX_BODY) {
        Err(ParseError::Protocol(431, _)) => {}
        other => panic!("an endless trailer read as {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_accepts_valid_and_garbage_inputs() {
        http_request(b"GET /clarens?x=1 HTTP/1.1\r\nHost: h\r\n\r\n");
        http_request(b"POST /clarens HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc");
        http_request(b"");
        http_request(&[0xff; 128]);
        http_request(b"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n");
        http_request(b"POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2;x\r\nab\r\n0\r\n\r\nGET /b HTTP/1.0\n\n");
        http_request(b"POST /a HTTP/1.1\nTransfer-Encoding: chunked\n\n0\nx-sum: 1\n\n");
    }
}
