//! HTTP/1.1 wire parsing and serialization.
//!
//! Implements the subset of RFC 7230 the Clarens stack needs: request and
//! status lines, header fields, `Content-Length` and `chunked` bodies, with
//! hard limits so a hostile peer cannot exhaust memory.

use std::io::{self, BufRead, IoSlice, Read, Write};

use crate::scratch::Scratch;
use crate::types::{reason, Body, Headers, Method, Request, Response};

/// Maximum total header block size (Apache's default is 8 KiB per line;
/// we bound the whole block).
pub const MAX_HEADER_BYTES: usize = 32 * 1024;
/// Maximum request-line length.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Default maximum body size (file uploads go through the file service
/// which chunks them, so this is generous but bounded).
pub const DEFAULT_MAX_BODY: usize = 64 * 1024 * 1024;
/// Streaming copy buffer (the `sendfile()`-like path).
pub const COPY_BUFFER: usize = 64 * 1024;

/// Parse failure: either a protocol error (with the HTTP status the server
/// should answer) or an I/O error.
#[derive(Debug)]
pub enum ParseError {
    /// Protocol violation; respond with this status code.
    Protocol(u16, String),
    /// Transport error (including clean EOF before a request line).
    Io(io::Error),
    /// Clean connection close (EOF exactly at a message boundary).
    Eof,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Protocol(status, m) => write!(f, "HTTP {status}: {m}"),
            ParseError::Io(e) => write!(f, "I/O: {e}"),
            ParseError::Eof => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Read one CRLF- (or LF-) terminated line without the terminator.
///
/// Scans the reader's internal buffer via `read_until` rather than pulling
/// one byte at a time — line reading is on the per-request hot path, and a
/// byte-at-a-time loop pays a dispatched `read` call per header byte. The
/// `take` bound keeps an unterminated line from buffering more than
/// `limit` bytes (+2 allows the CRLF terminator on a maximal line).
fn read_line_into<'a, R: BufRead>(
    reader: &mut R,
    limit: usize,
    line: &'a mut Vec<u8>,
) -> Result<&'a str, ParseError> {
    line.clear();
    let n = reader
        .by_ref()
        .take(limit as u64 + 2)
        .read_until(b'\n', line)?;
    if n == 0 {
        return Err(ParseError::Eof);
    }
    if line.last() != Some(&b'\n') {
        // No terminator: either the bound was hit (oversized line) or the
        // stream ended mid-line.
        if line.len() > limit {
            return Err(ParseError::Protocol(431, "line too long".into()));
        }
        return Err(ParseError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "EOF mid-line",
        )));
    }
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    if line.len() > limit {
        return Err(ParseError::Protocol(431, "line too long".into()));
    }
    std::str::from_utf8(line).map_err(|_| ParseError::Protocol(400, "non-UTF-8 header line".into()))
}

/// Parse a request from a buffered reader. `max_body` bounds decoded body
/// size. Allocates working buffers fresh; the server's workers parse with
/// their own [`Scratch`] arena instead.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, ParseError> {
    read_request_pooled(reader, max_body, &mut Scratch::new())
}

/// Parse a request drawing the line and body buffers from a per-worker
/// [`Scratch`] arena, so steady-state keep-alive parsing allocates nothing
/// beyond the owned header/target strings.
pub(crate) fn read_request_pooled<R: BufRead>(
    reader: &mut R,
    max_body: usize,
    scratch: &mut Scratch,
) -> Result<Request, ParseError> {
    let mut line_buf = scratch.take();
    let result = read_request_with(reader, max_body, &mut line_buf, scratch);
    scratch.recycle(line_buf);
    result
}

fn read_request_with<R: BufRead>(
    reader: &mut R,
    max_body: usize,
    line_buf: &mut Vec<u8>,
    scratch: &mut Scratch,
) -> Result<Request, ParseError> {
    let (method, target, minor_version) = {
        let request_line = read_line_into(reader, MAX_REQUEST_LINE, line_buf)?;
        let mut parts = request_line.split(' ');
        let method_token = parts.next().unwrap_or("");
        let target = parts
            .next()
            .ok_or_else(|| ParseError::Protocol(400, "missing request target".into()))?;
        let version = parts
            .next()
            .ok_or_else(|| ParseError::Protocol(400, "missing HTTP version".into()))?;
        if parts.next().is_some() {
            return Err(ParseError::Protocol(400, "malformed request line".into()));
        }
        let method = Method::parse(method_token)
            .ok_or_else(|| ParseError::Protocol(501, format!("method {method_token:?}")))?;
        let minor_version = match version {
            "HTTP/1.1" => 1,
            "HTTP/1.0" => 0,
            other => return Err(ParseError::Protocol(505, format!("version {other:?}"))),
        };
        if target.len() > MAX_REQUEST_LINE {
            return Err(ParseError::Protocol(414, "target too long".into()));
        }
        (method, target.to_owned(), minor_version)
    };

    let headers = read_headers_with(reader, line_buf)?;
    let body = read_body_with(reader, &headers, max_body, line_buf, scratch.take())?;

    Ok(Request {
        method,
        target,
        minor_version,
        headers,
        body,
    })
}

fn read_headers<R: BufRead>(reader: &mut R) -> Result<Headers, ParseError> {
    read_headers_with(reader, &mut Vec::with_capacity(64))
}

fn read_headers_with<R: BufRead>(
    reader: &mut R,
    line_buf: &mut Vec<u8>,
) -> Result<Headers, ParseError> {
    let mut headers = Headers::new();
    let mut total = 0usize;
    loop {
        let line = match read_line_into(reader, MAX_HEADER_BYTES, line_buf) {
            Ok(l) => l,
            Err(ParseError::Eof) => {
                return Err(ParseError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF in headers",
                )))
            }
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            return Ok(headers);
        }
        total += line.len();
        if total > MAX_HEADER_BYTES {
            return Err(ParseError::Protocol(431, "header block too large".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Protocol(400, format!("bad header line {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::Protocol(
                400,
                format!("bad header name {name:?}"),
            ));
        }
        let value = value.trim();
        // Repeated headers: comma-join per RFC 7230 §3.2.2.
        match headers.get(name) {
            Some(existing) => {
                let joined = format!("{existing}, {value}");
                headers.set(name, joined);
            }
            None => headers.set(name, value),
        }
    }
}

fn read_body<R: BufRead>(
    reader: &mut R,
    headers: &Headers,
    max_body: usize,
) -> Result<Vec<u8>, ParseError> {
    read_body_with(
        reader,
        headers,
        max_body,
        &mut Vec::with_capacity(64),
        Vec::new(),
    )
}

/// Read the message body into `body` (an empty, possibly pre-capacitized
/// recycled buffer) and return it.
fn read_body_with<R: BufRead>(
    reader: &mut R,
    headers: &Headers,
    max_body: usize,
    line_buf: &mut Vec<u8>,
    mut body: Vec<u8>,
) -> Result<Vec<u8>, ParseError> {
    debug_assert!(body.is_empty());
    if let Some(te) = headers.get("transfer-encoding") {
        if te.to_ascii_lowercase().contains("chunked") {
            return read_chunked_with(reader, max_body, line_buf, body);
        }
        return Err(ParseError::Protocol(
            501,
            format!("transfer-encoding {te:?}"),
        ));
    }
    match headers.get("content-length") {
        None => Ok(body),
        Some(text) => {
            let len: usize = text
                .trim()
                .parse()
                .map_err(|_| ParseError::Protocol(400, format!("bad content-length {text:?}")))?;
            if len > max_body {
                return Err(ParseError::Protocol(413, format!("body of {len} bytes")));
            }
            body.resize(len, 0);
            reader.read_exact(&mut body).map_err(ParseError::Io)?;
            Ok(body)
        }
    }
}

fn read_chunked_with<R: BufRead>(
    reader: &mut R,
    max_body: usize,
    line_buf: &mut Vec<u8>,
    mut body: Vec<u8>,
) -> Result<Vec<u8>, ParseError> {
    loop {
        let size = {
            let size_line = read_line_into(reader, 64, line_buf).map_err(|e| match e {
                ParseError::Eof => ParseError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF in chunk size",
                )),
                other => other,
            })?;
            // Chunk extensions after ';' are ignored.
            let size_text = size_line.split(';').next().unwrap_or("").trim();
            usize::from_str_radix(size_text, 16)
                .map_err(|_| ParseError::Protocol(400, format!("bad chunk size {size_line:?}")))?
        };
        if body.len() + size > max_body {
            return Err(ParseError::Protocol(413, "chunked body too large".into()));
        }
        if size == 0 {
            // Trailer section: read until the blank line.
            loop {
                let trailer = read_line_into(reader, MAX_HEADER_BYTES, line_buf)?;
                if trailer.is_empty() {
                    return Ok(body);
                }
            }
        }
        let start = body.len();
        body.resize(start + size, 0);
        reader
            .read_exact(&mut body[start..])
            .map_err(ParseError::Io)?;
        // Chunk data is followed by CRLF.
        let blank = read_line_into(reader, 8, line_buf)?;
        if !blank.is_empty() {
            return Err(ParseError::Protocol(400, "missing chunk terminator".into()));
        }
    }
}

/// Serialize and send a response. `head_only` suppresses the body (HEAD).
/// Returns the number of body bytes written.
pub fn write_response<W: Write>(
    writer: &mut W,
    response: Response,
    keep_alive: bool,
    head_only: bool,
) -> io::Result<u64> {
    let body_len = if head_only { 0 } else { response.body.len() };
    write_response_with(writer, response, keep_alive, head_only, &mut Scratch::new())?;
    Ok(body_len)
}

/// Marker payload inside an `io::Error` for a body that ended before its
/// advertised `Content-Length`. The framing on the connection is
/// unrecoverable at that point — the next response would land mid-body —
/// so detectors force `Connection: close` and telemetry counts the event
/// separately from peer resets.
#[derive(Debug)]
pub struct BodyTruncated {
    /// Bytes promised by `content-length` but never produced.
    pub missing: u64,
}

impl std::fmt::Display for BodyTruncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "body truncated {} bytes short of content-length",
            self.missing
        )
    }
}

impl std::error::Error for BodyTruncated {}

/// Build the truncation error for a body that came up `missing` bytes short.
pub(crate) fn truncated(missing: u64) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, BodyTruncated { missing })
}

/// Was this write failure a [`BodyTruncated`] short body (as opposed to a
/// transport error)?
pub fn is_truncation(error: &io::Error) -> bool {
    error
        .get_ref()
        .is_some_and(|inner| inner.is::<BodyTruncated>())
}

/// Encode the status line + headers (including `content-length`,
/// `connection` and `server`) into `head`. Shared by the plain serializer
/// below and the server's resumable writer in `conn.rs`, so both emit
/// byte-identical responses.
pub(crate) fn encode_head(
    response: &Response,
    keep_alive: bool,
    head: &mut Vec<u8>,
) -> io::Result<()> {
    write!(
        head,
        "HTTP/1.1 {} {}\r\n",
        response.status,
        reason(response.status)
    )?;
    for (name, value) in response.headers.iter() {
        head.extend_from_slice(name.as_bytes());
        head.extend_from_slice(b": ");
        head.extend_from_slice(value.as_bytes());
        head.extend_from_slice(b"\r\n");
    }
    write!(head, "content-length: {}\r\n", response.body.len())?;
    head.extend_from_slice(if keep_alive {
        b"connection: keep-alive\r\n".as_slice()
    } else {
        b"connection: close\r\n".as_slice()
    });
    head.extend_from_slice(b"server: clarens-rs/0.1\r\n\r\n");
    Ok(())
}

/// Positioned read that leaves the file cursor untouched (the parked-writer
/// machinery resumes from a saved offset, never from the cursor).
pub(crate) fn read_file_at(file: &std::fs::File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_at(buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom};
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.read(buf)
    }
}

/// Serialize and send a response using scratch buffers for the head and the
/// copy loop, and a single vectored write for head + body: the plain,
/// blocking serializer. The server's own connections go through the
/// resumable state machine in `conn.rs` instead (which is also where
/// `sendfile(2)` lives); this one writes error responses, sheds, and the
/// reference image tests and the benchmark compare the server against.
///
/// On success the status line, headers, and an in-memory body leave in one
/// `writev` syscall instead of two `write`s; the body buffer is recycled
/// into `scratch` afterwards so the next response on this worker encodes
/// into it.
pub(crate) fn write_response_with<W: Write>(
    writer: &mut W,
    response: Response,
    keep_alive: bool,
    head_only: bool,
    scratch: &mut Scratch,
) -> io::Result<()> {
    let mut head = scratch.take();
    encode_head(&response, keep_alive, &mut head)?;

    let written = match response.body {
        Body::Bytes(bytes) => {
            let body_slice: &[u8] = if head_only { &[] } else { &bytes };
            let result = write_all_vectored(writer, &head, body_slice);
            scratch.recycle(bytes);
            result
        }
        // Metadata-only body: legal for HEAD (and trivially for a zero
        // length); anything else would under-deliver the framing.
        Body::Sized(len) if !head_only && len > 0 => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "Body::Sized has no bytes to send",
        )),
        body => writer.write_all(&head).and_then(|()| match body {
            Body::File { file, offset, len } if !head_only => {
                copy_body(writer, scratch, len, |buf, done| {
                    read_file_at(&file, buf, offset + done)
                })
            }
            Body::Stream { mut reader, len } if !head_only => {
                copy_body(writer, scratch, len, |buf, _| reader.read(buf))
            }
            _ => Ok(()),
        }),
    };
    scratch.recycle(head);
    written?;
    writer.flush()
}

/// Copy a body of `len` bytes from `read` (handed the buffer to fill and
/// the count already copied) to `writer` through one recycled fixed-size
/// buffer — no allocation proportional to the body. A source that runs dry
/// early is a truncation.
fn copy_body<W: Write>(
    writer: &mut W,
    scratch: &mut Scratch,
    len: u64,
    mut read: impl FnMut(&mut [u8], u64) -> io::Result<usize>,
) -> io::Result<()> {
    let mut buf = scratch.take();
    buf.resize(COPY_BUFFER, 0);
    let mut done = 0u64;
    let mut result = Ok(());
    while done < len {
        let want = ((len - done) as usize).min(buf.len());
        result = match read(&mut buf[..want], done) {
            Ok(0) => Err(truncated(len - done)),
            Ok(n) => {
                done += n as u64;
                writer.write_all(&buf[..n])
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => Err(e),
        };
        if result.is_err() {
            break;
        }
    }
    scratch.recycle(buf);
    result
}

/// Outcome of resolving a `Range` request header against an entity of
/// `len` bytes (RFC 7233; single `bytes=` range only — multi-range and
/// malformed headers are ignored, which RFC 7233 §3.1 permits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeOutcome {
    /// No usable range — serve the whole entity with 200.
    Whole,
    /// Serve bytes `start..=end` with 206 and a `Content-Range`.
    Partial {
        /// First byte (inclusive).
        start: u64,
        /// Last byte (inclusive); always `< len`.
        end: u64,
    },
    /// The range addresses no byte of the entity — answer 416 with
    /// `Content-Range: bytes */len`.
    Unsatisfiable,
}

/// Resolve an optional `Range` header value against an entity length.
pub fn resolve_range(header: Option<&str>, len: u64) -> RangeOutcome {
    let Some(value) = header else {
        return RangeOutcome::Whole;
    };
    // Only the bytes unit is defined for us; other units are ignored.
    let Some(spec) = value.trim().strip_prefix("bytes=") else {
        return RangeOutcome::Whole;
    };
    let spec = spec.trim();
    if spec.contains(',') {
        // Multi-range: a server MAY ignore Range; serving the whole entity
        // with 200 is always correct and avoids multipart framing.
        return RangeOutcome::Whole;
    }
    let Some((first, last)) = spec.split_once('-') else {
        return RangeOutcome::Whole;
    };
    let (first, last) = (first.trim(), last.trim());
    match (first.is_empty(), last.is_empty()) {
        (true, true) => RangeOutcome::Whole,
        // Suffix form `-N`: the final N bytes.
        (true, false) => {
            let Ok(n) = last.parse::<u64>() else {
                return RangeOutcome::Whole;
            };
            if n == 0 || len == 0 {
                return RangeOutcome::Unsatisfiable;
            }
            RangeOutcome::Partial {
                start: len.saturating_sub(n),
                end: len - 1,
            }
        }
        // Open-ended `N-`: from N to the end.
        (false, true) => {
            let Ok(start) = first.parse::<u64>() else {
                return RangeOutcome::Whole;
            };
            if start >= len {
                return RangeOutcome::Unsatisfiable;
            }
            RangeOutcome::Partial {
                start,
                end: len - 1,
            }
        }
        // Closed `A-B`.
        (false, false) => {
            let (Ok(start), Ok(end)) = (first.parse::<u64>(), last.parse::<u64>()) else {
                return RangeOutcome::Whole;
            };
            if start > end {
                // Syntactically invalid byte-range-spec: ignore the header.
                return RangeOutcome::Whole;
            }
            if start >= len {
                return RangeOutcome::Unsatisfiable;
            }
            RangeOutcome::Partial {
                start,
                end: end.min(len - 1),
            }
        }
    }
}

/// Write `head` then `body` completely, preferring a vectored write that
/// sends both in one syscall. Writers without real `writev` support (the
/// default `Write::write_vectored` writes only the first buffer, as does
/// the TLS stream) degrade gracefully: the loop treats every return as a
/// partial write and advances through both slices.
fn write_all_vectored<W: Write>(
    writer: &mut W,
    mut head: &[u8],
    mut body: &[u8],
) -> io::Result<()> {
    while !head.is_empty() || !body.is_empty() {
        let wrote = if head.is_empty() {
            writer.write(body)
        } else if body.is_empty() {
            writer.write(head)
        } else {
            writer.write_vectored(&[IoSlice::new(head), IoSlice::new(body)])
        };
        match wrote {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole response",
                ))
            }
            Ok(n) => {
                let from_head = n.min(head.len());
                head = &head[from_head..];
                body = &body[(n - from_head).min(body.len())..];
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Serialize and send a request (client side). The body always uses
/// Content-Length framing.
pub fn write_request<W: Write>(writer: &mut W, request: &Request) -> io::Result<()> {
    let mut head = format!(
        "{} {} HTTP/1.{}\r\n",
        request.method.as_str(),
        request.target,
        request.minor_version
    );
    for (name, value) in request.headers.iter() {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    if !request.body.is_empty() || request.method == Method::Post {
        head.push_str(&format!("content-length: {}\r\n", request.body.len()));
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(&request.body)?;
    writer.flush()
}

/// A response as the client sees it (always fully buffered).
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers.
    pub headers: Headers,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
}

/// Parse a response from a buffered reader (client side).
pub fn read_response<R: BufRead>(
    reader: &mut R,
    max_body: usize,
) -> Result<ClientResponse, ParseError> {
    let mut line_buf = Vec::with_capacity(64);
    let status_line = read_line_into(reader, MAX_REQUEST_LINE, &mut line_buf)?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::Protocol(
            502,
            format!("bad status line {status_line:?}"),
        ));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ParseError::Protocol(502, format!("bad status in {status_line:?}")))?;
    let headers = read_headers(reader)?;
    let body = read_body(reader, &headers, max_body)?;
    let keep_alive = headers
        .get("connection")
        .map(|c| !c.to_ascii_lowercase().contains("close"))
        .unwrap_or(version == "HTTP/1.1");
    Ok(ClientResponse {
        status,
        headers,
        body,
        keep_alive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(text), DEFAULT_MAX_BODY)
    }

    #[test]
    fn simple_get() {
        let req = parse(b"GET /clarens?x=1 HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path(), "/clarens");
        assert_eq!(req.query(), "x=1");
        assert_eq!(req.headers.get("host"), Some("localhost"));
        assert!(req.body.is_empty());
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn post_with_content_length() {
        let req = parse(
            b"POST /rpc HTTP/1.1\r\nContent-Type: text/xml\r\nContent-Length: 11\r\n\r\nhello world",
        )
        .unwrap();
        assert_eq!(req.body, b"hello world");
        assert_eq!(req.headers.get("content-type"), Some("text/xml"));
    }

    #[test]
    fn chunked_body() {
        let req = parse(
            b"POST /rpc HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn chunked_with_trailers() {
        let req = parse(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\nX-Sum: 1\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn lf_only_lines_accepted() {
        let req = parse(b"GET / HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.headers.get("host"), Some("x"));
    }

    #[test]
    fn repeated_headers_joined() {
        let req = parse(b"GET / HTTP/1.1\r\nAccept: a\r\nAccept: b\r\n\r\n").unwrap();
        assert_eq!(req.headers.get("accept"), Some("a, b"));
    }

    #[test]
    fn protocol_errors() {
        match parse(b"BREW / HTTP/1.1\r\n\r\n") {
            Err(ParseError::Protocol(501, _)) => {}
            other => panic!("{other:?}"),
        }
        match parse(b"GET / HTTP/2.0\r\n\r\n") {
            Err(ParseError::Protocol(505, _)) => {}
            other => panic!("{other:?}"),
        }
        match parse(b"GET /\r\n\r\n") {
            Err(ParseError::Protocol(400, _)) => {}
            other => panic!("{other:?}"),
        }
        match parse(b"GET / HTTP/1.1\r\nBad Header Name: x\r\n\r\n") {
            Err(ParseError::Protocol(400, _)) => {}
            other => panic!("{other:?}"),
        }
        match parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n") {
            Err(ParseError::Protocol(400, _)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_before_request_is_clean() {
        match parse(b"") {
            Err(ParseError::Eof) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_mid_request_is_io_error() {
        match parse(b"GET / HTT") {
            Err(ParseError::Io(_)) => {}
            other => panic!("{other:?}"),
        }
        match parse(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort") {
            Err(ParseError::Io(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn body_size_limit_enforced() {
        let req = b"POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
        match read_request(&mut BufReader::new(&req[..]), 100) {
            Err(ParseError::Protocol(413, _)) => {}
            other => panic!("{other:?}"),
        }
        let chunked = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nfff\r\n";
        match read_request(&mut BufReader::new(&chunked[..]), 100) {
            Err(ParseError::Protocol(413, _)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn response_roundtrip() {
        let mut wire = Vec::new();
        let resp = Response::ok("text/xml", "<methodResponse/>");
        let written = write_response(&mut wire, resp, true, false).unwrap();
        assert_eq!(written, 17);
        let parsed = read_response(&mut BufReader::new(&wire[..]), DEFAULT_MAX_BODY).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body, b"<methodResponse/>");
        assert!(parsed.keep_alive);
        assert_eq!(parsed.headers.get("content-type"), Some("text/xml"));
    }

    #[test]
    fn head_suppresses_body_but_keeps_length() {
        let mut wire = Vec::new();
        write_response(&mut wire, Response::ok("text/plain", "body"), false, true).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("content-length: 4"));
        assert!(!text.ends_with("body"));
        assert!(text.contains("connection: close"));
    }

    #[test]
    fn streaming_body_written_fully() {
        let data = vec![7u8; 200_000];
        let mut wire = Vec::new();
        let resp = Response::stream(
            "application/octet-stream",
            Box::new(std::io::Cursor::new(data.clone())),
            data.len() as u64,
        );
        let written = write_response(&mut wire, resp, true, false).unwrap();
        assert_eq!(written, data.len() as u64);
        let parsed = read_response(&mut BufReader::new(&wire[..]), usize::MAX).unwrap();
        assert_eq!(parsed.body, data);
    }

    #[test]
    fn short_stream_is_error() {
        let resp = Response::stream(
            "application/octet-stream",
            Box::new(std::io::Cursor::new(vec![1u8; 10])),
            100,
        );
        let mut wire = Vec::new();
        let err = write_response(&mut wire, resp, true, false).unwrap_err();
        assert!(is_truncation(&err), "{err:?}");
        assert!(err.to_string().contains("90 bytes short"), "{err}");
    }

    fn temp_file(bytes: &[u8]) -> std::fs::File {
        let dir = std::env::temp_dir().join(format!(
            "clarens-parse-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("body.bin");
        std::fs::write(&path, bytes).unwrap();
        std::fs::File::open(&path).unwrap()
    }

    #[test]
    fn file_body_buffered_roundtrip() {
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let file = temp_file(&data);
        let resp = Response::file(200, "application/octet-stream", file, 0, data.len() as u64);
        let mut wire = Vec::new();
        write_response(&mut wire, resp, true, false).unwrap();
        let parsed = read_response(&mut BufReader::new(&wire[..]), usize::MAX).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body, data);
    }

    #[test]
    fn file_body_segment_respects_offset_and_len() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let file = temp_file(&data);
        let resp = Response::file(206, "application/octet-stream", file, 100, 50);
        let mut wire = Vec::new();
        write_response(&mut wire, resp, true, false).unwrap();
        let parsed = read_response(&mut BufReader::new(&wire[..]), usize::MAX).unwrap();
        assert_eq!(parsed.status, 206);
        assert_eq!(parsed.body, &data[100..150]);
    }

    #[test]
    fn truncated_file_body_is_truncation_error() {
        // Advertise more bytes than the file holds: the writer must fail
        // with the truncation marker, not silently under-deliver.
        let file = temp_file(&[9u8; 100]);
        let resp = Response::file(200, "application/octet-stream", file, 0, 500);
        let mut wire = Vec::new();
        let err = write_response(&mut wire, resp, true, false).unwrap_err();
        assert!(is_truncation(&err), "{err:?}");
    }

    #[test]
    fn sized_body_is_head_only() {
        let mut resp = Response {
            status: 200,
            headers: Headers::new(),
            body: Body::Sized(12345),
        };
        resp.headers.set("content-type", "application/octet-stream");
        let mut wire = Vec::new();
        write_response(&mut wire, resp, true, true).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("content-length: 12345"));
        assert!(text.ends_with("\r\n\r\n"));
        // A GET with a Sized body is a framing bug and must fail loudly.
        let resp = Response {
            status: 200,
            headers: Headers::new(),
            body: Body::Sized(10),
        };
        assert!(write_response(&mut Vec::new(), resp, true, false).is_err());
    }

    #[test]
    fn range_resolution() {
        use RangeOutcome::*;
        let r = |h: &str, len| resolve_range(Some(h), len);
        // No header / foreign unit / malformed: serve whole.
        assert_eq!(resolve_range(None, 100), Whole);
        assert_eq!(r("items=0-5", 100), Whole);
        assert_eq!(r("bytes=abc", 100), Whole);
        assert_eq!(r("bytes=-", 100), Whole);
        assert_eq!(r("bytes=5-2", 100), Whole); // inverted: ignore header
        assert_eq!(r("bytes=0-10,20-30", 100), Whole); // multi-range: ignored
        assert_eq!(r("bytes=1e2-", 100), Whole);
        // Closed and clamped forms.
        assert_eq!(r("bytes=0-99", 100), Partial { start: 0, end: 99 });
        assert_eq!(r("bytes=10-19", 100), Partial { start: 10, end: 19 });
        assert_eq!(r("bytes=90-1000", 100), Partial { start: 90, end: 99 });
        assert_eq!(r("bytes= 10 - 19 ", 100), Partial { start: 10, end: 19 });
        // Open-ended and suffix forms.
        assert_eq!(r("bytes=95-", 100), Partial { start: 95, end: 99 });
        assert_eq!(r("bytes=-5", 100), Partial { start: 95, end: 99 });
        assert_eq!(r("bytes=-500", 100), Partial { start: 0, end: 99 });
        // Unsatisfiable.
        assert_eq!(r("bytes=100-", 100), Unsatisfiable);
        assert_eq!(r("bytes=100-200", 100), Unsatisfiable);
        assert_eq!(r("bytes=-0", 100), Unsatisfiable);
        assert_eq!(r("bytes=0-", 0), Unsatisfiable);
        assert_eq!(r("bytes=-5", 0), Unsatisfiable);
    }

    #[test]
    fn request_write_read_roundtrip() {
        let mut req = Request::new(Method::Post, "/clarens/rpc");
        req.headers.set("content-type", "application/json");
        req.body = b"{\"method\":\"m\"}".to_vec();
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let parsed = parse(&wire).unwrap();
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(parsed.target, "/clarens/rpc");
        assert_eq!(parsed.body, req.body);
    }
}
