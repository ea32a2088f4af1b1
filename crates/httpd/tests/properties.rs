//! Property tests for the HTTP layer: the parser is total on arbitrary
//! bytes, and well-formed messages round-trip through write/read. Each
//! property is a search on the shared runner: seed `n` is its case `n`,
//! replayed alone by `SEARCH_SEED=<n>`.

use std::collections::BTreeMap;
use std::io::BufReader;

use clarens_search::{search, Rng};

use clarens_httpd::parse::{
    read_request, read_response, write_request, write_response, ParseError, DEFAULT_MAX_BODY,
};
use clarens_httpd::{Method, Request, Response};

/// Check property `test` of this file on seeds `0..64`.
fn property(test: &str, check: impl Fn(&mut Rng) + Sync) {
    let name = format!("clarens-httpd --test properties -- --exact {test}");
    search(&name, 0..64, |seed| {
        check(&mut Rng::new(seed));
        Ok(())
    });
}

/// `[a-z][a-z0-9-]{0,14}`, redrawn while it names a framing header.
fn header_name(rng: &mut Rng) -> String {
    loop {
        let mut name = String::from(rng.char(&['a'..='z']));
        name += &rng.string(&['a'..='z', '0'..='9', '-'..='-'], 0..15);
        if !matches!(
            name.as_str(),
            "content-length" | "transfer-encoding" | "connection" | "server"
        ) {
            return name;
        }
    }
}

/// Up to 30 printable ASCII chars, trimmed.
fn header_value(rng: &mut Rng) -> String {
    rng.string(&[' '..='~'], 0..31).trim().to_string()
}

/// Arbitrary bytes never panic the request parser.
#[test]
fn request_parser_total() {
    property("request_parser_total", |rng| {
        let bytes = rng.bytes(0..512);
        let _ = read_request(&mut BufReader::new(&bytes[..]), DEFAULT_MAX_BODY);
    });
}

/// Arbitrary bytes never panic the response parser.
#[test]
fn response_parser_total() {
    property("response_parser_total", |rng| {
        let bytes = rng.bytes(0..512);
        let _ = read_response(&mut BufReader::new(&bytes[..]), DEFAULT_MAX_BODY);
    });
}

/// Well-formed requests round-trip: write -> parse yields the same
/// method, target, headers, and body.
#[test]
fn request_roundtrip() {
    property("request_roundtrip", |rng| {
        let path = [
            'a'..='z',
            'A'..='Z',
            '0'..='9',
            '/'..='/',
            '.'..='.',
            '_'..='_',
            '-'..='-',
        ];
        let target = "/".to_owned() + &rng.string(&path, 0..31);
        let headers: BTreeMap<String, String> = (0..rng.below(5))
            .map(|_| (header_name(rng), header_value(rng)))
            .collect();
        let (body, is_post) = (rng.bytes(0..256), rng.chance(50));
        let method = if is_post { Method::Post } else { Method::Get };
        let mut request = Request::new(method, target.clone());
        for (name, value) in &headers {
            request.headers.set(name, value.clone());
        }
        if is_post {
            request.body = body.clone();
        }
        let mut wire = Vec::new();
        write_request(&mut wire, &request).unwrap();
        let parsed = read_request(&mut BufReader::new(&wire[..]), DEFAULT_MAX_BODY).unwrap();
        assert_eq!(parsed.method, method);
        assert_eq!(parsed.target, target);
        for (name, value) in &headers {
            assert_eq!(
                parsed.headers.get(name),
                Some(value.as_str()),
                "header {}",
                name
            );
        }
        if is_post {
            assert_eq!(parsed.body, body);
        }
    });
}

/// Well-formed responses round-trip, preserving status and body bytes.
#[test]
fn response_roundtrip() {
    property("response_roundtrip", |rng| {
        let status = *rng.choose(&[200u16, 204, 404, 500]);
        let (body, keep_alive) = (rng.bytes(0..512), rng.chance(50));
        let response = Response::new(status, "application/octet-stream", body.clone());
        let mut wire = Vec::new();
        write_response(&mut wire, response, keep_alive, false).unwrap();
        let parsed = read_response(&mut BufReader::new(&wire[..]), DEFAULT_MAX_BODY).unwrap();
        assert_eq!(parsed.status, status);
        assert_eq!(parsed.body, body);
        assert_eq!(parsed.keep_alive, keep_alive);
    });
}

/// Chunked bodies decode to the concatenation of the chunks, however
/// the payload is split.
#[test]
fn chunked_decoding_matches_concatenation() {
    property("chunked_decoding_matches_concatenation", |rng| {
        let chunks: Vec<Vec<u8>> = (0..rng.below(6)).map(|_| rng.bytes(1..64)).collect();
        let mut wire = b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
        let mut expected = Vec::new();
        for chunk in &chunks {
            wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
            wire.extend_from_slice(chunk);
            wire.extend_from_slice(b"\r\n");
            expected.extend_from_slice(chunk);
        }
        wire.extend_from_slice(b"0\r\n\r\n");
        let parsed = read_request(&mut BufReader::new(&wire[..]), DEFAULT_MAX_BODY).unwrap();
        assert_eq!(parsed.body, expected);
    });
}

/// Truncating a valid request mid-stream yields an error (or EOF),
/// never a bogus successful parse of the complete message.
#[test]
fn truncation_never_fabricates_body() {
    property("truncation_never_fabricates_body", |rng| {
        let body = rng.bytes(1..128);
        let cut_fraction = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let mut request = Request::new(Method::Post, "/t");
        request.body = body;
        let mut wire = Vec::new();
        write_request(&mut wire, &request).unwrap();
        let cut = ((wire.len() as f64) * cut_fraction) as usize;
        match read_request(&mut BufReader::new(&wire[..cut]), DEFAULT_MAX_BODY) {
            Ok(parsed) => assert_eq!(parsed.body, request.body, "cut={}", cut),
            Err(ParseError::Eof) | Err(ParseError::Io(_)) | Err(ParseError::Protocol(..)) => {}
        }
    });
}
