//! HTTP/1.1 wire parsing and serialization.
//!
//! Implements the subset of RFC 7230 the Clarens stack needs: request and
//! status lines, header fields, `Content-Length` and `chunked` bodies, with
//! hard limits so a hostile peer cannot exhaust memory.

use std::io::{self, BufRead, Read, Write};
use std::os::unix::fs::FileExt;

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
    let mut line_buf = Vec::new();
    let mut request = read_head_with(reader, &mut line_buf)?;
    request.body = read_body_with(
        reader,
        &request.headers,
        max_body,
        &mut line_buf,
        Vec::new(),
    )?;
    Ok(request)
}

/// Parse the request at the start of `buf`, the bytes a connection has
/// buffered, returning it with the bytes it took. Bytes that end before
/// the request does are a [`BodyTruncated`] error that says how many more
/// it needs at least (one, where any byte may end it).
///
/// A `chunked` body is not decoded until it is whole: `chunks` carries a
/// [`ChunkScan`] of its framing across calls, so each call walks only the
/// framing of bytes that are new, copies nothing, and the body is decoded
/// once, by the same decoder [`read_request`] runs.
pub(crate) fn read_buffered(
    buf: &[u8],
    max_body: usize,
    scratch: &mut Scratch,
    chunks: &mut Option<ChunkScan>,
) -> Result<(Request, usize), ParseError> {
    let short = |need: usize| ParseError::Io(truncated((need - buf.len()) as u64));
    // The body size a finished walk found, to decode into a buffer that
    // size.
    let mut walked = None;
    if let Some(scan) = chunks {
        if let Some(need) = scan.walk(buf, max_body) {
            return Err(short(need));
        }
        walked = chunks.take().map(|scan| scan.decoded);
    }
    let mut cursor = io::Cursor::new(buf);
    let mut line_buf = scratch.take();
    let result = read_head_with(&mut cursor, &mut line_buf).and_then(|mut request| {
        if walked.is_none() && is_chunked(&request.headers) {
            let mut scan = ChunkScan::at(cursor.position() as usize);
            if let Some(need) = scan.walk(buf, max_body) {
                *chunks = Some(scan);
                return Err(short(need));
            }
        }
        let mut body = scratch.take();
        body.reserve_exact(walked.unwrap_or(0));
        request.body =
            read_body_with(&mut cursor, &request.headers, max_body, &mut line_buf, body)?;
        Ok(request)
    });
    scratch.recycle(line_buf);
    result.map(|request| (request, cursor.position() as usize))
}

/// The request line and headers; the body is left empty.
fn read_head_with<R: BufRead>(
    reader: &mut R,
    line_buf: &mut Vec<u8>,
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
    Ok(Request {
        method,
        target,
        minor_version,
        headers: read_headers_with(reader, line_buf)?,
        body: Vec::new(),
    })
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
    if is_chunked(headers) {
        return read_chunked_with(reader, max_body, line_buf, body);
    }
    if let Some(te) = headers.get("transfer-encoding") {
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
            read_exactly(reader, len, &mut body)?;
            Ok(body)
        }
    }
}

fn is_chunked(headers: &Headers) -> bool {
    headers
        .get("transfer-encoding")
        .is_some_and(|te| te.to_ascii_lowercase().contains("chunked"))
}

/// Longest chunk-size line (extensions included).
const CHUNK_SIZE_LINE: usize = 64;
/// Longest line after a chunk's data (which must be empty).
const CHUNK_END_LINE: usize = 8;

/// A chunk-size line's size. Chunk extensions after `;` are ignored.
fn chunk_size(line: &str) -> Option<usize> {
    usize::from_str_radix(line.split(';').next().unwrap_or("").trim(), 16).ok()
}

fn read_chunked_with<R: BufRead>(
    reader: &mut R,
    max_body: usize,
    line_buf: &mut Vec<u8>,
    mut body: Vec<u8>,
) -> Result<Vec<u8>, ParseError> {
    loop {
        let size = {
            let size_line =
                read_line_into(reader, CHUNK_SIZE_LINE, line_buf).map_err(|e| match e {
                    ParseError::Eof => ParseError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF in chunk size",
                    )),
                    other => other,
                })?;
            chunk_size(size_line)
                .ok_or_else(|| ParseError::Protocol(400, format!("bad chunk size {size_line:?}")))?
        };
        if body.len().saturating_add(size) > max_body {
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
        read_exactly(reader, size, &mut body)?;
        // Chunk data is followed by CRLF.
        let blank = read_line_into(reader, CHUNK_END_LINE, line_buf)?;
        if !blank.is_empty() {
            return Err(ParseError::Protocol(400, "missing chunk terminator".into()));
        }
    }
}

/// How far a walk over a `chunked` body's framing has got: the offset of
/// the next line to read — a chunk-size line, or a trailer line once the
/// last chunk is in — and the body bytes of the chunks before it. The walk
/// reads lines as [`read_chunked_with`] does and steps over chunk data by
/// its declared size, so it copies nothing.
#[derive(Debug)]
pub(crate) struct ChunkScan {
    next: usize,
    decoded: usize,
    trailer: bool,
}

/// What the line at some offset of a buffer is, as `read_line_into` with
/// the same limit would find it.
enum Line<'a> {
    /// Terminated: the line, without its terminator, and the offset after it.
    Whole(&'a [u8], usize),
    /// Unterminated, and short enough that more bytes may end it.
    Partial,
    /// Too long, whatever follows.
    TooLong,
}

fn line_at(buf: &[u8], at: usize, limit: usize) -> Line<'_> {
    let window = &buf[at..buf.len().min(at + limit + 2)];
    match window.iter().position(|&b| b == b'\n') {
        Some(end) => {
            let line = &window[..end];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            match line.len() > limit {
                true => Line::TooLong,
                false => Line::Whole(line, at + end + 1),
            }
        }
        None if window.len() > limit => Line::TooLong,
        None => Line::Partial,
    }
}

impl ChunkScan {
    /// A walk from the first chunk-size line, at `body_start`.
    fn at(body_start: usize) -> ChunkScan {
        ChunkScan {
            next: body_start,
            decoded: 0,
            trailer: false,
        }
    }

    /// Walk on over `buf`, which holds every byte the last walk saw and
    /// maybe more. `Some(need)`: the body cannot be whole before `buf`
    /// holds `need` bytes, and the next walk starts where this one
    /// stopped. `None`: the body and its trailer are whole, or its framing
    /// is already wrong — the decoder is to run and say which.
    fn walk(&mut self, buf: &[u8], max_body: usize) -> Option<usize> {
        loop {
            let limit = match self.trailer {
                true => MAX_HEADER_BYTES,
                false => CHUNK_SIZE_LINE,
            };
            let (line, after) = match line_at(buf, self.next, limit) {
                Line::Whole(line, after) => (std::str::from_utf8(line).ok()?, after),
                Line::Partial => return Some(buf.len() + 1),
                Line::TooLong => return None,
            };
            if self.trailer {
                if line.is_empty() {
                    return None;
                }
                self.next = after;
                continue;
            }
            let size = chunk_size(line)?;
            if self.decoded.saturating_add(size) > max_body {
                return None;
            }
            if size == 0 {
                (self.next, self.trailer) = (after, true);
                continue;
            }
            // The data, then an empty line; until both are in, the walk
            // resumes at this chunk's size line.
            let data_end = after + size;
            if buf.len() < data_end {
                return Some(data_end);
            }
            match line_at(buf, data_end, CHUNK_END_LINE) {
                Line::Whole(b"", after) => {
                    self.decoded += size;
                    self.next = after;
                }
                Line::Partial => return Some(buf.len() + 1),
                Line::Whole(..) | Line::TooLong => return None,
            }
        }
    }
}

/// Append the next `len` bytes of `reader` to `body` as it buffers them;
/// a reader that ends first is a [`BodyTruncated`] error.
fn read_exactly<R: BufRead>(reader: &mut R, len: usize, body: &mut Vec<u8>) -> io::Result<()> {
    let end = body.len() + len;
    while body.len() < end {
        let buffered = match reader.fill_buf() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            buffered => buffered?,
        };
        if buffered.is_empty() {
            return Err(truncated((end - body.len()) as u64));
        }
        let n = buffered.len().min(end - body.len());
        body.extend_from_slice(&buffered[..n]);
        reader.consume(n);
    }
    Ok(())
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
/// separately from peer resets. A request body read from a buffer that ends
/// early carries it too: the server reads `missing` as how many more bytes
/// the request needs.
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

/// Serialize and send a response using scratch buffers for the head and the
/// copy loop: the plain, blocking serializer. The server's own connections
/// go through the resumable state machine in `conn.rs` instead (which is
/// also where `sendfile(2)` lives); this one writes into memory: error
/// responses, sheds, and the reference images that tests and the
/// benchmark compare the server against. The body buffer is recycled into
/// `scratch` afterwards so the next response on this worker encodes into
/// it.
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
            let result = writer
                .write_all(&head)
                .and_then(|()| writer.write_all(body_slice));
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
                copy_file(writer, scratch, &file, offset, len)
            }
            _ => Ok(()),
        }),
    };
    scratch.recycle(head);
    written?;
    writer.flush()
}

/// Copy `len` bytes of `file` from `offset` to `writer` through one
/// recycled fixed-size buffer — no allocation proportional to the body. A
/// file that ends early is a truncation.
fn copy_file<W: Write>(
    writer: &mut W,
    scratch: &mut Scratch,
    file: &std::fs::File,
    offset: u64,
    len: u64,
) -> io::Result<()> {
    let mut buf = scratch.take();
    buf.resize(COPY_BUFFER, 0);
    let mut done = 0u64;
    let mut result = Ok(());
    while done < len {
        let want = ((len - done) as usize).min(buf.len());
        result = match file.read_at(&mut buf[..want], offset + done) {
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
    let http11 = version == "HTTP/1.1";
    let headers = read_headers_with(reader, &mut line_buf)?;
    let body = read_body_with(reader, &headers, max_body, &mut line_buf, Vec::new())?;
    let keep_alive = headers
        .get("connection")
        .map(|c| !c.to_ascii_lowercase().contains("close"))
        .unwrap_or(http11);
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
        let written = write_response(&mut wire, resp, true, false).unwrap();
        assert_eq!(written, data.len() as u64);
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
        assert!(err.to_string().contains("400 bytes short"), "{err}");
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
