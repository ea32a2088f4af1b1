//! HTTP/1.1 wire parsing and serialization.
//!
//! Implements the subset of RFC 7230 the Clarens stack needs: request and
//! status lines, header fields, `Content-Length` and `chunked` bodies, with
//! hard limits so a hostile peer cannot exhaust memory.
//!
//! One scanner reads every message: a `Scan` finds a message's lines in
//! place in a byte slice, learns its framing from the head, and says
//! `Complete(message, consumed)`, `Need(n)` or `Fail(status, reason)`. It
//! keeps its place between calls, so a message arriving in pieces is
//! scanned once, in linear time. The server's connections run it over their
//! input buffers (`conn::drive`); [`read_request`] and [`read_response`]
//! are one `BufRead` loop over it.

use std::io::{self, BufRead, Write};
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

/// What a scan of the bytes buffered so far found.
pub(crate) enum Scanned<M> {
    /// A whole message, and the bytes it took.
    Complete(M, usize),
    /// A strict prefix of a message, which cannot end before the buffer
    /// holds this many bytes.
    Need(usize),
    /// A protocol violation: answer with this status and close.
    Fail(u16, String),
}

/// Why a message is refused: the status to answer with, and the reason.
type Refusal = (u16, String);

/// A message the scanner reads: a request on the server, a response on a
/// client.
pub(crate) trait Message: Sized {
    /// The status that refuses a malformed `Content-Length` or chunk size,
    /// or a `chunked` that is not the last transfer coding.
    const BAD_FRAMING: u16;
    /// What a start line says, borrowed from it.
    type Start<'a>;
    /// Parse a start line, allocating nothing.
    fn start(line: &str) -> Result<Self::Start<'_>, Refusal>;
    /// The message of a start line, its headers and its body.
    fn build(start: Self::Start<'_>, headers: Headers, body: Vec<u8>) -> Self;
}

impl Message for Request {
    const BAD_FRAMING: u16 = 400;
    /// The method, the target and the minor version.
    type Start<'a> = (Method, &'a str, u8);

    fn start(line: &str) -> Result<(Method, &str, u8), Refusal> {
        let mut parts = line.split(' ');
        let method = parts.next().unwrap_or("");
        let target = parts
            .next()
            .ok_or_else(|| (400, "missing request target".to_owned()))?;
        let version = parts
            .next()
            .ok_or_else(|| (400, "missing HTTP version".to_owned()))?;
        if parts.next().is_some() {
            return Err((400, "malformed request line".into()));
        }
        let method = Method::parse(method).ok_or_else(|| (501, format!("method {method:?}")))?;
        let minor_version = match version {
            "HTTP/1.1" => 1,
            "HTTP/1.0" => 0,
            other => return Err((505, format!("version {other:?}"))),
        };
        Ok((method, target, minor_version))
    }

    fn build(
        (method, target, minor_version): Self::Start<'_>,
        headers: Headers,
        body: Vec<u8>,
    ) -> Self {
        let target = target.to_owned();
        Request {
            method,
            target,
            minor_version,
            headers,
            body,
        }
    }
}

impl Message for ClientResponse {
    const BAD_FRAMING: u16 = 502;
    /// The status, and whether the version is HTTP/1.1.
    type Start<'a> = (u16, bool);

    fn start(line: &str) -> Result<(u16, bool), Refusal> {
        let mut parts = line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err((502, format!("bad status line {line:?}")));
        }
        // Exactly three digits (RFC 9112 §4): `parse` would also take a
        // sign, a leading zero or any other width.
        let status = parts
            .next()
            .filter(|s| s.len() == 3 && s.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| (502, format!("bad status in {line:?}")))?;
        Ok((status, version == "HTTP/1.1"))
    }

    fn build((status, http11): (u16, bool), headers: Headers, body: Vec<u8>) -> Self {
        let keep_alive = headers
            .get("connection")
            .map(|c| !c.to_ascii_lowercase().contains("close"))
            .unwrap_or(http11);
        ClientResponse {
            status,
            headers,
            body,
            keep_alive,
        }
    }
}

/// A header line's name and its trimmed value.
fn header(line: &str) -> Result<(&str, &str), Refusal> {
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| (400, format!("bad header line {line:?}")))?;
    if name.is_empty() || name.contains(' ') {
        return Err((400, format!("bad header name {name:?}")));
    }
    Ok((name, value.trim()))
}

/// Longest chunk-size line (extensions included).
const CHUNK_SIZE_LINE: usize = 64;
/// Longest line after a chunk's data (which must be empty).
const CHUNK_END_LINE: usize = 8;

/// A length or chunk size: digits of `radix` and nothing else (`parse`
/// would also take a leading `+`).
fn number(text: &str, radix: u32) -> Option<usize> {
    match text.starts_with('+') {
        true => None,
        false => usize::from_str_radix(text, radix).ok(),
    }
}

/// What comes next in a message.
#[derive(Default, Clone, Copy)]
enum Part {
    /// The request or status line.
    #[default]
    Start,
    /// A header line, or the blank line that ends the head.
    Headers,
    /// A body of this many bytes.
    Body(usize),
    /// A chunk-size line; chunk extensions after `;` are ignored.
    Size,
    /// A chunk's data, this many bytes.
    Data(usize),
    /// The empty line after a chunk's data.
    DataEnd,
    /// A trailer line, or the blank line that ends the message.
    Trailer,
}

/// How far the scan of one message has got: every line before `next` is
/// read and checked. It lives as long as the message takes to arrive, so
/// each call scans only bytes the last one had not: a head in pieces is
/// scanned once and allocates nothing until it is whole, and a body is
/// copied out once.
#[derive(Default)]
pub(crate) struct Scan {
    /// Offset of what `part` names.
    next: usize,
    part: Part,
    /// Bytes of header lines so far.
    header_bytes: usize,
    /// Body bytes of the chunks before `next`.
    decoded: usize,
    /// The buffer cannot hold a whole message before it holds this many
    /// bytes; no byte before `need - 1` ends the line at `next`.
    need: usize,
    /// Once the head is whole: its headers, and where the body starts.
    head: Option<(Headers, usize)>,
}

impl Scan {
    /// Scan on over `buf`, which starts at the message's first byte and
    /// holds every byte the last call saw. Once the message is whole, the
    /// scan starts over for the next one. `max_body` bounds the decoded
    /// body; its buffer comes from `scratch`.
    pub(crate) fn scan<M: Message>(
        &mut self,
        buf: &[u8],
        max_body: usize,
        scratch: &mut Scratch,
    ) -> Scanned<M> {
        let end = match self.walk::<M>(buf, max_body, None) {
            Ok(Some(end)) => end,
            Ok(None) => return Scanned::Need(self.need),
            Err((status, reason)) => return Scanned::Fail(status, reason),
        };
        let done = std::mem::take(self);
        let (headers, body_start) = done.head.expect("a whole message has a head");
        let mut body = scratch.take();
        if let Part::Body(_) = done.part {
            body.extend_from_slice(&buf[body_start..end]);
        } else {
            // The walk that found the chunks whole decodes them.
            body.reserve_exact(done.decoded);
            let mut decode = Scan {
                next: body_start,
                part: Part::Size,
                ..Scan::default()
            };
            let decoded = decode.walk::<M>(buf, max_body, Some(&mut body));
            debug_assert_eq!(decoded, Ok(Some(end)));
        }
        let start = buf.split(|&b| b == b'\n').next().unwrap_or_default();
        let start = std::str::from_utf8(start).unwrap_or_default();
        match M::start(start.strip_suffix('\r').unwrap_or(start)) {
            Ok(start) => Scanned::Complete(M::build(start, headers, body), end),
            Err((status, reason)) => Scanned::Fail(status, reason),
        }
    }

    /// Where a body of a known length ends, once the head is whole.
    pub(crate) fn body_end(&self) -> Option<usize> {
        matches!(self.part, Part::Body(_)).then_some(self.need)
    }

    /// Step over whole lines and data from `next`: `Some(end)` once the
    /// message ends at `end`, `None` while it needs bytes `buf` lacks.
    /// With `sink`, each chunk's data is appended to it.
    fn walk<M: Message>(
        &mut self,
        buf: &[u8],
        max_body: usize,
        mut sink: Option<&mut Vec<u8>>,
    ) -> Result<Option<usize>, Refusal> {
        loop {
            let limit = match self.part {
                Part::Start => MAX_REQUEST_LINE,
                Part::Headers | Part::Trailer => MAX_HEADER_BYTES,
                Part::Size => CHUNK_SIZE_LINE,
                Part::DataEnd => CHUNK_END_LINE,
                Part::Body(len) | Part::Data(len) => {
                    let end = self.next.saturating_add(len);
                    if buf.len() < end {
                        self.need = end;
                        return Ok(None);
                    }
                    if let Part::Body(_) = self.part {
                        return Ok(Some(end));
                    }
                    if let Some(body) = sink.as_deref_mut() {
                        body.extend_from_slice(&buf[self.next..end]);
                    }
                    (self.next, self.decoded, self.part) = (end, self.decoded + len, Part::DataEnd);
                    continue;
                }
            };
            let searched = self.need.saturating_sub(1);
            let Some((line, after)) = line_at(buf, self.next, searched, limit)? else {
                self.need = buf.len() + 1;
                return Ok(None);
            };
            self.part = match self.part {
                Part::Start => {
                    M::start(line)?;
                    Part::Headers
                }
                Part::Headers if line.is_empty() => {
                    let (headers, framing) = head(&buf[..after], max_body, M::BAD_FRAMING)?;
                    self.head = Some((headers, after));
                    framing
                }
                Part::Trailer if line.is_empty() => return Ok(Some(after)),
                // Trailer lines count toward the header limit too, or a
                // trailer that never ends would grow the buffer unbounded.
                part @ (Part::Headers | Part::Trailer) => {
                    self.header_bytes += line.len();
                    if self.header_bytes > MAX_HEADER_BYTES {
                        return Err((431, "header block too large".into()));
                    }
                    if let Part::Headers = part {
                        header(line)?;
                    }
                    part
                }
                Part::Size => {
                    let size = line.split_once(';').map_or(line, |(size, _)| size);
                    let size = number(size.trim(), 16)
                        .ok_or_else(|| (M::BAD_FRAMING, format!("bad chunk size {line:?}")))?;
                    if self.decoded.saturating_add(size) > max_body {
                        return Err((413, "chunked body too large".into()));
                    }
                    match size {
                        0 => Part::Trailer,
                        size => Part::Data(size),
                    }
                }
                Part::DataEnd if line.is_empty() => Part::Size,
                Part::DataEnd => return Err((400, "missing chunk terminator".into())),
                part => part,
            };
            self.next = after;
        }
    }
}

/// The line at `at`: `Some((line, after))` once `buf` holds its end — the
/// line without its LF or CRLF, and the offset after it — and `None` while
/// more bytes may end it. Refused once it is longer than `limit`, whatever
/// follows, or whole and not UTF-8. No byte before `searched` is an LF.
fn line_at(
    buf: &[u8],
    at: usize,
    searched: usize,
    limit: usize,
) -> Result<Option<(&str, usize)>, Refusal> {
    let window = &buf[at..buf.len().min(at + limit + 2)];
    let skip = searched.saturating_sub(at).min(window.len());
    let end = window[skip..].iter().position(|&b| b == b'\n');
    let line = &window[..end.map_or(window.len(), |end| skip + end)];
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    if line.len() > limit {
        return Err((431, "line too long".into()));
    }
    let Some(end) = end else {
        return Ok(None);
    };
    let line = std::str::from_utf8(line).map_err(|_| (400, "non-UTF-8 header line".to_owned()))?;
    Ok(Some((line, at + skip + end + 1)))
}

/// The headers of a whole head, and how its body is framed. Every line of
/// `head` was checked as the scan reached it.
fn head(head: &[u8], max_body: usize, bad: u16) -> Result<(Headers, Part), Refusal> {
    let head = std::str::from_utf8(head).map_err(|_| (400, "non-UTF-8 head".to_owned()))?;
    let mut headers = Headers::new();
    for line in head.lines().skip(1).take_while(|line| !line.is_empty()) {
        let (name, value) = header(line)?;
        // Repeated headers: comma-join per RFC 7230 §3.2.2.
        match headers.get(name) {
            Some(existing) => {
                let joined = format!("{existing}, {value}");
                headers.set(name, joined);
            }
            None => headers.set(name, value),
        }
    }
    let framing = framing(&headers, max_body, bad)?;
    Ok((headers, framing))
}

/// How a body is framed: `chunked` when it is the last transfer coding
/// (RFC 7230 §3.3.3), else `Content-Length` (none is an empty body).
fn framing(headers: &Headers, max_body: usize, bad: u16) -> Result<Part, Refusal> {
    if let Some(te) = headers.get("transfer-encoding") {
        let chunked = |coding: &str| coding.trim().eq_ignore_ascii_case("chunked");
        return match te.rsplit(',').next().is_some_and(chunked) {
            true => Ok(Part::Size),
            false if te.split(',').any(chunked) => {
                Err((bad, format!("chunked not last in {te:?}")))
            }
            false => Err((501, format!("transfer-encoding {te:?}"))),
        };
    }
    let Some(text) = headers.get("content-length") else {
        return Ok(Part::Body(0));
    };
    let len = number(text, 10).ok_or_else(|| (bad, format!("bad content-length {text:?}")))?;
    if len > max_body {
        return Err((413, format!("body of {len} bytes")));
    }
    Ok(Part::Body(len))
}

/// Parse a request from a buffered reader, taking exactly its bytes.
/// `max_body` bounds decoded body size.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, ParseError> {
    read_message(reader, max_body)
}

/// Copy what `reader` buffers into one buffer and scan it until a message
/// is whole, consuming exactly the message's bytes.
fn read_message<M: Message, R: BufRead>(reader: &mut R, max_body: usize) -> Result<M, ParseError> {
    let (mut scan, mut held, mut scratch) = (Scan::default(), Vec::new(), Scratch::new());
    loop {
        let buffered = match reader.fill_buf() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            buffered => buffered?,
        };
        let (taken, fresh) = (held.len(), buffered.len());
        held.extend_from_slice(buffered);
        match scan.scan(&held, max_body, &mut scratch) {
            Scanned::Complete(message, used) => {
                reader.consume(used - taken);
                return Ok(message);
            }
            Scanned::Fail(status, reason) => return Err(ParseError::Protocol(status, reason)),
            Scanned::Need(_) if fresh > 0 => reader.consume(fresh),
            Scanned::Need(_) if taken == 0 => return Err(ParseError::Eof),
            Scanned::Need(_) => {
                let cut = io::Error::new(io::ErrorKind::UnexpectedEof, "EOF mid-message");
                return Err(ParseError::Io(cut));
            }
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

/// Marker payload inside an `io::Error` for a response body that ended
/// before its advertised `Content-Length`. The framing on the connection is
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

/// Build the truncation error for a response body that came up `missing`
/// bytes short.
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

/// Parse a response from a buffered reader (client side), taking exactly
/// its bytes.
pub fn read_response<R: BufRead>(
    reader: &mut R,
    max_body: usize,
) -> Result<ClientResponse, ParseError> {
    read_message(reader, max_body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clarens_search::Rng;
    use std::io::BufReader;

    fn parse(text: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(text), DEFAULT_MAX_BODY)
    }

    fn response(text: &[u8]) -> Result<ClientResponse, ParseError> {
        read_response(&mut BufReader::new(text), DEFAULT_MAX_BODY)
    }

    fn status<T: std::fmt::Debug>(parsed: Result<T, ParseError>) -> u16 {
        match parsed {
            Err(ParseError::Protocol(status, _)) => status,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_signed_content_length_is_refused() {
        let request = b"POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc";
        assert_eq!(status(parse(request)), 400);
        assert_eq!(
            status(response(b"HTTP/1.1 200 OK\r\ncontent-length: +2\r\n\r\nok")),
            502
        );
        // Any malformed length in a response is the peer's fault.
        assert_eq!(
            status(response(b"HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n")),
            502
        );
    }

    #[test]
    fn a_response_status_is_exactly_three_digits() {
        for line in [
            "HTTP/1.1 +200 OK",
            "HTTP/1.1 0200 OK",
            "HTTP/1.1 20 OK",
            "HTTP/1.1 2000 OK",
            "HTTP/1.1  200 OK",
            "HTTP/1.1 2O0 OK",
        ] {
            let reply = format!("{line}\r\ncontent-length: 0\r\n\r\n");
            assert_eq!(status(response(reply.as_bytes())), 502, "{line:?}");
        }
        for (line, code) in [
            ("HTTP/1.1 200 OK", 200),
            ("HTTP/1.1 200", 200),
            ("HTTP/1.0 404 Not Found", 404),
            ("HTTP/1.1 404", 404),
        ] {
            let reply = format!("{line}\r\ncontent-length: 0\r\n\r\n");
            assert_eq!(response(reply.as_bytes()).unwrap().status, code, "{line:?}");
        }
    }

    /// A trailer that never ends is refused once the header limit is
    /// passed: the scan never asks for more than `MAX_HEADER_BYTES` plus
    /// one line past the last chunk.
    #[test]
    fn an_endless_trailer_is_refused_at_the_header_limit() {
        let last_chunk = b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n";
        let line = format!("x-pad: {}\r\n", "p".repeat(1016));
        let mut wire = last_chunk.to_vec();
        while wire.len() < last_chunk.len() + 40 * 1024 {
            wire.extend_from_slice(line.as_bytes());
        }
        // The whole lines the limit holds, then the one that passes it.
        let lines = MAX_HEADER_BYTES / (line.len() - 2) + 1;
        let ceiling = last_chunk.len() + lines * line.len();
        let (mut scan, mut scratch) = (Scan::default(), Scratch::new());
        let mut fed = 0;
        let refusal = loop {
            fed = (fed + 97).min(wire.len());
            match scan.scan::<Request>(&wire[..fed], DEFAULT_MAX_BODY, &mut scratch) {
                Scanned::Need(need) => {
                    assert!(
                        need <= ceiling,
                        "asked for {need} bytes (ceiling {ceiling})"
                    );
                    assert!(fed < wire.len(), "still waiting after {fed} bytes");
                }
                Scanned::Fail(status, _) => break status,
                Scanned::Complete(..) => panic!("an unterminated trailer completed"),
            }
        };
        assert_eq!(refusal, 431);
        assert_eq!(status(parse(&wire)), 431);
        let reply = [&b"HTTP/1.1 200 OK"[..], &wire[b"POST / HTTP/1.1".len()..]].concat();
        assert_eq!(status(response(&reply)), 431);
    }

    #[test]
    fn a_signed_chunk_size_is_refused() {
        let chunks = "transfer-encoding: chunked\r\n\r\n+3\r\nabc\r\n0\r\n\r\n";
        let request = format!("POST / HTTP/1.1\r\n{chunks}");
        assert_eq!(status(parse(request.as_bytes())), 400);
        let reply = format!("HTTP/1.1 200 OK\r\n{chunks}");
        assert_eq!(status(response(reply.as_bytes())), 502);
    }

    #[test]
    fn chunked_counts_as_the_last_coding_in_any_case() {
        let chunks = "\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        for te in [
            "CHUNKED",
            "gzip, Chunked",
            "gzip\r\ntransfer-encoding: chunked",
        ] {
            let request = format!("POST / HTTP/1.1\r\ntransfer-encoding: {te}{chunks}");
            assert_eq!(parse(request.as_bytes()).unwrap().body, b"abc", "{te}");
            let reply = format!("HTTP/1.1 200 OK\r\ntransfer-encoding: {te}{chunks}");
            assert_eq!(response(reply.as_bytes()).unwrap().body, b"abc", "{te}");
        }
    }

    #[test]
    fn chunked_before_another_coding_is_refused() {
        let chunks = "\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        for te in ["chunked, gzip", "chunked\r\ntransfer-encoding: gzip"] {
            let request = format!("POST / HTTP/1.1\r\ntransfer-encoding: {te}{chunks}");
            assert_eq!(status(parse(request.as_bytes())), 400, "{te}");
            let reply = format!("HTTP/1.1 200 OK\r\ntransfer-encoding: {te}{chunks}");
            assert_eq!(status(response(reply.as_bytes())), 502, "{te}");
        }
    }

    #[test]
    fn any_other_coding_is_not_implemented() {
        for te in ["gzip", "xchunked", "chunkedx"] {
            let request = format!("POST / HTTP/1.1\r\ntransfer-encoding: {te}\r\n\r\n");
            assert_eq!(status(parse(request.as_bytes())), 501, "{te}");
            let reply = format!("HTTP/1.1 200 OK\r\ntransfer-encoding: {te}\r\n\r\n");
            assert_eq!(status(response(reply.as_bytes())), 501, "{te}");
        }
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

    /// The body cap of the split-delivery checks: small, so a 413 is
    /// generated often.
    const SPLIT_MAX_BODY: usize = 48;

    /// One generated request: well formed, or refused for one reason.
    /// Lines end in CRLF or LF alone; bodies are `Content-Length` or
    /// `chunked` (with extensions and trailers); header names repeat.
    fn generated_request(rng: &mut Rng) -> Vec<u8> {
        let eol = |rng: &mut Rng| *rng.choose(&["\r\n", "\r\n", "\n"]);
        let method = *rng.choose(&["GET", "POST", "POST", "PUT", "HEAD", "BREW"]);
        let version = *rng.choose(&["HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "HTTP/2.0"]);
        let mut wire = match rng.below(24) {
            0 => format!("{method} {version}"),
            1 => format!("{method} /{} {version}", "t".repeat(MAX_REQUEST_LINE)),
            n => format!("{method} /t{n}?q={} {version}", n * 7),
        };
        wire += eol(rng);
        for _ in 0..rng.below(5) {
            let name = *rng.choose(&["host", "accept", "Accept", "x-a", "bad name", ""]);
            let value = *rng.choose(&["v", " spaced ", "a,b", ""]);
            wire += &format!("{name}:{value}");
            wire += eol(rng);
        }
        if rng.below(32) == 0 {
            // Two lines that fit alone but not together.
            let big = "y".repeat(MAX_HEADER_BYTES / 2 + 1);
            wire += &format!("x-big: {big}\r\nx-big: {big}\r\n");
        }
        let mut body = Vec::new();
        match rng.below(5) {
            0 => {}
            1 | 2 => {
                let len = rng.below(SPLIT_MAX_BODY + 8);
                let len = rng.choose(&["", "", "", "+", "x"]).to_string() + &len.to_string();
                wire += &format!("Content-Length: {len}");
                wire += eol(rng);
                body.resize(rng.below(SPLIT_MAX_BODY + 8), b'\n');
            }
            _ => {
                let te = *rng.choose(&[
                    "chunked",
                    "Chunked",
                    "gzip, chunked",
                    "chunked, gzip",
                    "gzip",
                ]);
                wire += &format!("Transfer-Encoding: {te}");
                wire += eol(rng);
                for _ in 0..rng.below(4) {
                    let size = 1 + rng.below(20);
                    let sign = *rng.choose(&["", "", "", "", "+"]);
                    let ext = *rng.choose(&["", "", ";ext=1", " ;x"]);
                    body.extend(format!("{sign}{size:x}{ext}").bytes());
                    body.extend(eol(rng).bytes());
                    body.extend((0..size).map(|i| b"ab\r\nc"[i % 5]));
                    body.extend(rng.choose(&["\r\n", "\r\n", "\n", "X\r\n"]).bytes());
                }
                body.extend(format!("0{}", eol(rng)).bytes());
                for _ in 0..rng.below(3) {
                    body.extend(format!("x-sum: 1{}", eol(rng)).bytes());
                }
                body.extend(eol(rng).bytes());
            }
        }
        wire += eol(rng);
        let mut wire = wire.into_bytes();
        wire.extend(body);
        wire
    }

    /// A generated request, or a pipelined pair of them.
    fn generated_wire(rng: &mut Rng) -> Vec<u8> {
        let mut wire = generated_request(rng);
        if rng.below(2) == 0 {
            wire.extend(generated_request(rng));
        }
        wire
    }

    /// What a server's connection makes of `wire` arriving in pieces cut
    /// at `cuts`: each request in order, then a refusal's status and
    /// reason, or "cut" if the stream ends inside a request.
    fn scanned_in_pieces(wire: &[u8], cuts: &[usize]) -> Vec<String> {
        let (mut scan, mut scratch) = (Scan::default(), Scratch::new());
        let (mut inbuf, mut outcomes, mut from) = (Vec::new(), Vec::new(), 0);
        for to in cuts.iter().copied().chain([wire.len()]) {
            inbuf.extend_from_slice(&wire[from..to]);
            from = to;
            loop {
                match scan.scan::<Request>(&inbuf, SPLIT_MAX_BODY, &mut scratch) {
                    Scanned::Complete(request, used) => {
                        outcomes.push(format!("{request:?}"));
                        inbuf.drain(..used);
                    }
                    Scanned::Fail(status, reason) => {
                        outcomes.push(format!("{status} {reason}"));
                        return outcomes;
                    }
                    Scanned::Need(need) => {
                        assert!(need > inbuf.len(), "need {need} of {}", inbuf.len());
                        break;
                    }
                }
            }
        }
        if !inbuf.is_empty() {
            outcomes.push("cut".into());
        }
        outcomes
    }

    /// The same, read by `read_request` from a `BufRead`.
    fn read_all(wire: &[u8]) -> Vec<String> {
        let (mut reader, mut outcomes) = (wire, Vec::new());
        loop {
            match read_request(&mut reader, SPLIT_MAX_BODY) {
                Ok(request) => outcomes.push(format!("{request:?}")),
                Err(ParseError::Protocol(status, reason)) => {
                    outcomes.push(format!("{status} {reason}"));
                    return outcomes;
                }
                Err(ParseError::Io(_)) => {
                    outcomes.push("cut".into());
                    return outcomes;
                }
                Err(ParseError::Eof) => return outcomes,
            }
        }
    }

    /// Split delivery is whole delivery: scanned in pieces, scanned
    /// whole and read by `read_request`, a stream reads the same.
    #[test]
    fn split_delivery_reads_as_whole_delivery() {
        let name =
            "clarens-httpd --lib -- --exact parse::tests::split_delivery_reads_as_whole_delivery";
        clarens_search::search(name, 0..512, |seed| {
            let mut rng = Rng::new(seed);
            let wire = generated_wire(&mut rng);
            let mut cuts: Vec<usize> = (0..rng.below(8))
                .map(|_| rng.next_u64() as usize % (wire.len() + 1))
                .collect();
            cuts.sort_unstable();
            let whole = scanned_in_pieces(&wire, &[]);
            assert_eq!(
                &scanned_in_pieces(&wire, &cuts),
                &whole,
                "cut at {:?}",
                cuts
            );
            assert_eq!(&read_all(&wire), &whole);
            Ok(())
        });
    }

    /// The generator reaches every answer the scanner gives.
    #[test]
    fn generated_requests_reach_every_refusal() {
        let mut rng = Rng::new(41);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            let wire = generated_wire(&mut rng);
            for outcome in scanned_in_pieces(&wire, &[]) {
                seen.insert(outcome.split(' ').next().unwrap().to_owned());
            }
        }
        for status in ["400", "413", "431", "501", "505", "Request", "cut"] {
            assert!(seen.contains(status), "{status} never generated: {seen:?}");
        }
    }
}
