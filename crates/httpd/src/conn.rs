//! The per-connection state machine for the parked (event-driven) path.
//!
//! In the classic path a worker owns a connection for its whole life and
//! blocks in `read()` between keep-alive requests. Here the connection is
//! an explicit object — socket, accumulated input bytes, request count,
//! budget/shutdown guards — that shuttles between a worker (while there is
//! CPU work to do) and the poller (while waiting for bytes). A worker
//! *drives* the connection: parse whatever is buffered, serve complete
//! requests, read more without blocking, and hand the connection back to
//! the poller the moment the socket runs dry.
//!
//! Invariant: a connection is only ever parked when its input buffer holds
//! no complete request (either empty or a strict prefix of one), so a
//! readiness event is always the correct wake condition and pipelined
//! requests can never stall in the buffer.

use std::io::{self, Cursor, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use clarens_telemetry::{Phase, RequestTrace};

use crate::parse::{
    encode_head, read_file_at, read_request_pooled, truncated, write_response_with, ParseError,
    COPY_BUFFER,
};
use crate::poller;
use crate::scratch::Scratch;
use crate::server::{
    classify_io_error, BudgetGuard, Handler, InFlightGuard, LiveGuard, RequestContext, WorkerShared,
};
use crate::types::{Body, Method, Response};

/// Bytes pulled off the socket per `read` call while filling.
const READ_CHUNK: usize = 16 * 1024;
/// Cap on bytes absorbed in one fill burst before re-parsing, so one
/// fire-hose peer cannot monopolize a worker between parse attempts.
const MAX_FILL_BURST: usize = 256 * 1024;
/// Cap on coalesced response bytes staged for pipelined requests before a
/// flush is forced, so a client that never stops pipelining cannot grow
/// the staging buffer without bound.
const MAX_STAGED_BYTES: usize = 64 * 1024;

/// One plaintext keep-alive connection on the event-driven path. Owns the
/// (non-blocking) socket and every piece of per-connection state that must
/// survive a park/resume cycle.
pub(crate) struct Conn {
    /// The non-blocking socket.
    pub(crate) sock: TcpStream,
    /// Bytes read but not yet consumed by the parser (at most a strict
    /// prefix of one request whenever the connection parks).
    pub(crate) inbuf: Vec<u8>,
    /// Requests served on this connection (drives `keepalive_reuse`).
    pub(crate) served: u64,
    /// Poller token; unique per connection for the server's lifetime.
    pub(crate) id: u64,
    /// Whether the socket has ever been registered with the poller (first
    /// park registers, later parks re-arm).
    pub(crate) registered: bool,
    /// A response that hit `EWOULDBLOCK` mid-write: the connection parks
    /// with write interest and resumes from the saved cursor (and in-flight
    /// sendfile offset) when the socket drains, instead of pinning a worker.
    pub(crate) pending_write: Option<WriteState>,
    /// Connection-budget slot, released when the connection drops.
    pub(crate) _budget: Option<BudgetGuard>,
    /// Shutdown registration: force-closed by `HttpServer::shutdown` so
    /// in-flight writes fail fast.
    pub(crate) _live: Option<LiveGuard>,
}

/// What a worker does with a connection after driving it as far as the
/// buffered bytes and the socket allow.
///
/// `Park` carries the whole `Conn` by value on purpose: parking happens
/// once per idle cycle on the hot path, and boxing the variant would buy
/// lint silence with an allocation per park (the allocations-per-request
/// gate in `repro quick` exists to keep exactly this kind of cost out).
#[allow(clippy::large_enum_variant)]
pub(crate) enum Disposition {
    /// Waiting for more bytes: hand the connection to the poller.
    Park(Box<Conn>),
    /// Finished (clean close, error, or shutdown): the socket closes when
    /// the connection drops.
    Closed,
}

enum Parsed {
    /// A full request plus the number of input bytes it consumed.
    Complete(crate::types::Request, usize),
    /// The buffer holds a strict prefix of a request; need more bytes.
    Incomplete,
    /// Protocol violation: answer with this status and close.
    Fail(u16, String),
}

enum Fill {
    /// New bytes were appended; try parsing again.
    Progress,
    /// Nothing available without blocking; park.
    Park,
    /// Peer closed its end.
    Eof,
    /// Transport error.
    Err(io::Error),
}

/// A response mid-flight on a nonblocking socket: everything needed to
/// resume after the socket's send buffer drains. Holds the in-flight guard
/// so graceful shutdown waits (bounded by `drain_timeout`) for parked
/// writers just as it does for running handlers.
pub(crate) struct WriteState {
    /// Encoded status line + headers (scratch-pooled; recycled at completion).
    head: Vec<u8>,
    /// Bytes of `head` already on the socket.
    head_pos: usize,
    /// The body and its cursor.
    body: PendingBody,
    /// Whether the connection survives this response.
    pub(crate) keep_alive: bool,
    /// Total bytes written so far (head + body), for `bytes_out`.
    written: u64,
    /// Subset of `written` that went through `sendfile(2)`.
    sendfile: u64,
    /// Keeps the response(s) inside the shutdown drain window — one guard
    /// per request for a coalesced batch of pipelined responses.
    _in_flight: Vec<InFlightGuard>,
}

enum PendingBody {
    /// Nothing (left) to send beyond the head: HEAD, empty, or metadata-only.
    None,
    /// In-memory body with a cursor.
    Bytes { buf: Vec<u8>, pos: usize },
    /// File segment `[pos, end)`. `use_sendfile` stays set until the kernel
    /// refuses `sendfile(2)` for this fd pair; the chunk fields stage
    /// buffered-fallback bytes that were read from the file but not yet
    /// accepted by the socket.
    File {
        file: std::fs::File,
        pos: u64,
        end: u64,
        use_sendfile: bool,
        chunk: Vec<u8>,
        chunk_pos: usize,
        chunk_len: usize,
    },
    /// Opaque reader with `remaining` bytes promised; `chunk` stages the
    /// bytes between reader and socket across parks.
    Stream {
        reader: Box<dyn Read + Send>,
        remaining: u64,
        chunk: Vec<u8>,
        chunk_pos: usize,
        chunk_len: usize,
    },
}

impl WriteState {
    /// Encode the response head and capture the body with a zeroed cursor.
    /// Buffers come from `scratch` so the steady state allocates nothing.
    fn new(
        response: Response,
        keep_alive: bool,
        head_only: bool,
        in_flight: Option<InFlightGuard>,
        scratch: &mut Scratch,
    ) -> io::Result<WriteState> {
        let mut head = scratch.take();
        encode_head(&response, keep_alive, &mut head)?;
        let body = if head_only || response.body.is_empty() {
            if let Body::Bytes(buf) = response.body {
                scratch.recycle(buf);
            }
            PendingBody::None
        } else {
            match response.body {
                Body::Bytes(buf) => PendingBody::Bytes { buf, pos: 0 },
                Body::Sized(_) => {
                    scratch.recycle(head);
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "Body::Sized has no bytes to send",
                    ));
                }
                Body::File { file, offset, len } => PendingBody::File {
                    file,
                    pos: offset,
                    end: offset + len,
                    use_sendfile: true,
                    chunk: Vec::new(),
                    chunk_pos: 0,
                    chunk_len: 0,
                },
                Body::Stream { reader, len } => PendingBody::Stream {
                    reader,
                    remaining: len,
                    chunk: scratch.take(),
                    chunk_pos: 0,
                    chunk_len: 0,
                },
            }
        };
        Ok(WriteState {
            head,
            head_pos: 0,
            body,
            keep_alive,
            written: 0,
            sendfile: 0,
            _in_flight: in_flight.into_iter().collect(),
        })
    }

    /// Wrap a staging buffer of already-encoded pipelined responses as a
    /// write in flight: all head, no body, connection stays open.
    fn staged(head: Vec<u8>, in_flight: Vec<InFlightGuard>) -> WriteState {
        WriteState {
            head,
            head_pos: 0,
            body: PendingBody::None,
            keep_alive: true,
            written: 0,
            sendfile: 0,
            _in_flight: in_flight,
        }
    }

    /// Push bytes at the socket until the response completes (`Ok(true)`),
    /// the socket pushes back (`Ok(false)` — park with write interest), or
    /// the transfer fails. Never blocks the calling thread.
    fn advance(&mut self, sock: &TcpStream) -> io::Result<bool> {
        loop {
            // Head first — vectored with an in-memory body so small
            // responses still leave in one syscall.
            if self.head_pos < self.head.len() {
                let head_rest = &self.head[self.head_pos..];
                let wrote = match &self.body {
                    PendingBody::Bytes { buf, pos } => (&mut &*sock)
                        .write_vectored(&[IoSlice::new(head_rest), IoSlice::new(&buf[*pos..])]),
                    _ => (&mut &*sock).write(head_rest),
                };
                match wrote {
                    Ok(0) => return Err(write_zero()),
                    Ok(n) => {
                        let from_head = n.min(head_rest.len());
                        self.head_pos += from_head;
                        self.written += n as u64;
                        if n > from_head {
                            if let PendingBody::Bytes { pos, .. } = &mut self.body {
                                *pos += n - from_head;
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
                continue;
            }
            match &mut self.body {
                PendingBody::None => return Ok(true),
                PendingBody::Bytes { buf, pos } => {
                    if *pos >= buf.len() {
                        return Ok(true);
                    }
                    match (&mut &*sock).write(&buf[*pos..]) {
                        Ok(0) => return Err(write_zero()),
                        Ok(n) => {
                            *pos += n;
                            self.written += n as u64;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                PendingBody::File {
                    file,
                    pos,
                    end,
                    use_sendfile,
                    chunk,
                    chunk_pos,
                    chunk_len,
                } => {
                    // Staged fallback bytes drain before anything else (they
                    // are already consumed from the file).
                    if *chunk_pos < *chunk_len {
                        match (&mut &*sock).write(&chunk[*chunk_pos..*chunk_len]) {
                            Ok(0) => return Err(write_zero()),
                            Ok(n) => {
                                *chunk_pos += n;
                                self.written += n as u64;
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(e) => return Err(e),
                        }
                        continue;
                    }
                    if *pos >= *end {
                        return Ok(true);
                    }
                    #[cfg(unix)]
                    if *use_sendfile && crate::zerocopy::available() {
                        use std::os::unix::io::AsRawFd;
                        let want = (*end - *pos) as usize;
                        match crate::zerocopy::send_file(raw_fd(sock), file.as_raw_fd(), pos, want)
                        {
                            Ok(0) => return Err(truncated(*end - *pos)),
                            Ok(n) => {
                                self.written += n as u64;
                                self.sendfile += n as u64;
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(e) if e.kind() == io::ErrorKind::Unsupported => {
                                // Kernel refused this fd pair: finish the
                                // segment through the buffered loop below.
                                *use_sendfile = false;
                            }
                            Err(e) => return Err(e),
                        }
                        continue;
                    }
                    // Buffered fallback: stage the next chunk via a
                    // positioned read (the cursor stays parked-safe).
                    if chunk.len() < COPY_BUFFER {
                        chunk.resize(COPY_BUFFER, 0);
                    }
                    let want = ((*end - *pos) as usize).min(chunk.len());
                    match read_file_at(file, &mut chunk[..want], *pos) {
                        Ok(0) => return Err(truncated(*end - *pos)),
                        Ok(n) => {
                            *pos += n as u64;
                            *chunk_pos = 0;
                            *chunk_len = n;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                PendingBody::Stream {
                    reader,
                    remaining,
                    chunk,
                    chunk_pos,
                    chunk_len,
                } => {
                    if *chunk_pos < *chunk_len {
                        match (&mut &*sock).write(&chunk[*chunk_pos..*chunk_len]) {
                            Ok(0) => return Err(write_zero()),
                            Ok(n) => {
                                *chunk_pos += n;
                                self.written += n as u64;
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(e) => return Err(e),
                        }
                        continue;
                    }
                    if *remaining == 0 {
                        return Ok(true);
                    }
                    if chunk.len() < COPY_BUFFER {
                        chunk.resize(COPY_BUFFER, 0);
                    }
                    let want = (*remaining as usize).min(chunk.len());
                    match reader.read(&mut chunk[..want]) {
                        Ok(0) => return Err(truncated(*remaining)),
                        Ok(n) => {
                            *remaining -= n as u64;
                            *chunk_pos = 0;
                            *chunk_len = n;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }

    /// Byte accounting for telemetry: `(total written, via sendfile)`.
    fn accounted(&self) -> (u64, u64) {
        (self.written, self.sendfile)
    }

    /// Return pooled buffers to the worker's arena once the response is
    /// done (possibly a different worker than the one that started it).
    fn recycle_into(self, scratch: &mut Scratch) {
        scratch.recycle(self.head);
        match self.body {
            PendingBody::Bytes { buf, .. } => scratch.recycle(buf),
            PendingBody::File { chunk, .. } | PendingBody::Stream { chunk, .. } => {
                scratch.recycle(chunk)
            }
            PendingBody::None => {}
        }
    }
}

fn write_zero() -> io::Error {
    io::Error::new(io::ErrorKind::WriteZero, "failed to write whole response")
}

/// How one call to [`WriteState::advance`] left the response.
enum WriteProgress {
    /// Fully written; connection continues (or closes per keep-alive).
    Done(WriteState),
    /// Socket full; park with write interest and resume later.
    Parked,
    /// Transport or framing failure; close.
    Failed(io::Error),
}

/// Drive `conn`'s pending response forward. On `Parked` the state is back
/// inside `conn` with its cursors saved.
fn advance_pending(conn: &mut Conn, mut state: WriteState) -> WriteProgress {
    match state.advance(&conn.sock) {
        Ok(true) => WriteProgress::Done(state),
        Ok(false) => {
            conn.pending_write = Some(state);
            WriteProgress::Parked
        }
        Err(error) => WriteProgress::Failed(error),
    }
}

/// How a staged-response flush left the connection.
enum FlushProgress {
    /// Staging buffer fully on the socket (or it was empty).
    Done,
    /// Socket full mid-flush; the remainder is parked as a pending write.
    Parked,
    /// Transport failure; close.
    Failed(io::Error),
}

/// Append one response's head + in-memory body to the staging buffer
/// instead of writing it to the socket. Only called for keep-alive
/// responses with `Body::Bytes` bodies (the RPC fast path).
fn stage_response(response: Response, outq: &mut Vec<u8>, scratch: &mut Scratch) -> io::Result<()> {
    encode_head(&response, true, outq)?;
    if let Body::Bytes(buf) = response.body {
        outq.extend_from_slice(&buf);
        scratch.recycle(buf);
    }
    Ok(())
}

/// Non-blocking flush of the staging buffer through the parked-write
/// machinery: on `Parked` the remainder (guards included) rides in
/// `conn.pending_write` and the poller waits for writability.
fn flush_staged<H: Handler>(
    conn: &mut Conn,
    outq: &mut Vec<u8>,
    guards: &mut Vec<InFlightGuard>,
    shared: &WorkerShared<H>,
    scratch: &mut Scratch,
) -> FlushProgress {
    if outq.is_empty() {
        guards.clear();
        return FlushProgress::Done;
    }
    let state = WriteState::staged(std::mem::take(outq), std::mem::take(guards));
    match advance_pending(conn, state) {
        WriteProgress::Done(state) => {
            let (total, _) = state.accounted();
            if let Some(t) = &shared.telemetry {
                t.http.bytes_out.add(total);
            }
            state.recycle_into(scratch);
            FlushProgress::Done
        }
        WriteProgress::Parked => FlushProgress::Parked,
        WriteProgress::Failed(error) => FlushProgress::Failed(error),
    }
}

/// Blocking-ish flush for the paths that cannot park (a non-coalescible
/// response queued behind staged ones, protocol failure, shutdown):
/// bounded by the read timeout, like any other blocking response write.
fn flush_staged_blocking<H: Handler>(
    conn: &Conn,
    outq: &mut Vec<u8>,
    guards: &mut Vec<InFlightGuard>,
    shared: &WorkerShared<H>,
) -> io::Result<()> {
    let result = if outq.is_empty() {
        Ok(())
    } else {
        let mut writer = NonblockingWriter::new(&conn.sock, shared.read_timeout);
        let result = writer.write_all(outq);
        if result.is_ok() {
            if let Some(t) = &shared.telemetry {
                t.http.bytes_out.add(outq.len() as u64);
            }
        }
        result
    };
    outq.clear();
    guards.clear();
    result
}

/// Drive `conn` until it parks, closes, or fails. This is the event-path
/// sibling of `serve_stream`: identical request accounting, identical
/// response bytes (both funnel through `encode_head`), but reads
/// never block — they either make progress or return the connection to the
/// poller. Pipelined requests get their responses *coalesced*: while the
/// input buffer still holds more requests, each in-memory response is
/// staged instead of written, and the whole batch leaves in one syscall
/// when the buffer runs dry — one peer wakeup per batch, not per response.
pub(crate) fn drive<H: Handler>(
    mut conn: Box<Conn>,
    shared: &WorkerShared<H>,
    scratch: &mut Scratch,
) -> Disposition {
    // A response parked mid-write resumes before anything else — even
    // during shutdown, so graceful drain can finish it.
    if let Some(state) = conn.pending_write.take() {
        match advance_pending(&mut conn, state) {
            WriteProgress::Done(state) => {
                let (total, via_sendfile) = state.accounted();
                if let Some(t) = &shared.telemetry {
                    t.http.bytes_out.add(total);
                    t.http.bytes_sendfile.add(via_sendfile);
                }
                let keep_alive = state.keep_alive;
                state.recycle_into(scratch);
                if !keep_alive {
                    return Disposition::Closed;
                }
            }
            WriteProgress::Parked => return Disposition::Park(conn),
            WriteProgress::Failed(error) => {
                classify_io_error(&error, shared);
                return Disposition::Closed;
            }
        }
    }
    // Staging buffer for coalesced pipelined responses. Lazily grown: the
    // non-pipelined steady state never touches it, and a pipelined batch
    // amortizes its one allocation over the whole batch.
    let mut outq: Vec<u8> = Vec::new();
    let mut guards: Vec<InFlightGuard> = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            let _ = flush_staged_blocking(&conn, &mut outq, &mut guards, shared);
            return Disposition::Closed;
        }
        let mut trace = match &shared.telemetry {
            Some(t) => t.begin_request(),
            None => RequestTrace::disabled(),
        };
        let reuses_before = scratch.reuses();
        let attempt = trace.span(Phase::Parse, || {
            try_parse(&conn.inbuf, shared.max_body, scratch)
        });
        match attempt {
            Parsed::Incomplete => {
                // Not a request yet: the pipeline (if any) has run dry, so
                // the staged responses must leave before this connection
                // waits on its peer — which is almost certainly blocked on
                // exactly those responses.
                match flush_staged(&mut conn, &mut outq, &mut guards, shared, scratch) {
                    FlushProgress::Done => {}
                    FlushProgress::Parked => return Disposition::Park(conn),
                    FlushProgress::Failed(error) => {
                        classify_io_error(&error, shared);
                        return Disposition::Closed;
                    }
                }
                // The trace never finishes and records nothing. Pull more
                // bytes or park.
                match fill(&mut conn, scratch) {
                    Fill::Progress => continue,
                    Fill::Park => return Disposition::Park(conn),
                    Fill::Eof => {
                        if conn.inbuf.is_empty() {
                            // EOF exactly at a message boundary: clean close.
                        } else if let Some(t) = &shared.telemetry {
                            // Peer abandoned a half-sent request.
                            t.http.peer_resets.inc();
                        }
                        return Disposition::Closed;
                    }
                    Fill::Err(error) => {
                        classify_io_error(&error, shared);
                        return Disposition::Closed;
                    }
                }
            }
            Parsed::Fail(status, message) => {
                // Earlier pipelined responses still go out before the error.
                if flush_staged_blocking(&conn, &mut outq, &mut guards, shared).is_err() {
                    return Disposition::Closed;
                }
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                let response = Response::error(status, &message);
                if let Some(t) = &shared.telemetry {
                    trace.status = status;
                    t.finish_request(&trace, (shared.now_fn)());
                }
                let mut writer = NonblockingWriter::new(&conn.sock, shared.read_timeout);
                let _ = write_response_with(&mut writer, response, false, false, scratch, None);
                return Disposition::Closed;
            }
            Parsed::Complete(request, consumed) => {
                conn.inbuf.drain(..consumed);
                // Parsed and about to be handled: in flight until the
                // response write finishes (shutdown drains these) — the
                // guard rides inside the write state across parks.
                let in_flight = InFlightGuard::enter(&shared.in_flight);
                let keep_alive = request.wants_keep_alive() && !shared.stop.load(Ordering::SeqCst);
                let head_only = request.method == Method::Head;
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                if conn.served > 0 {
                    if let Some(t) = &shared.telemetry {
                        t.http.keepalive_reuse.inc();
                    }
                }
                conn.served += 1;

                let response = shared.handler.handle(
                    request,
                    RequestContext {
                        peer: None,
                        trace: &mut trace,
                        scratch,
                    },
                );
                if response.status >= 500 {
                    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                }
                trace.status = response.status;
                // Coalescing fast path: more requests are already buffered
                // and this response is plain bytes, so stage it and keep
                // parsing instead of waking the peer per response.
                if keep_alive
                    && !head_only
                    && !conn.inbuf.is_empty()
                    && outq.len() < MAX_STAGED_BYTES
                    && matches!(response.body, Body::Bytes(_))
                {
                    let staged = trace.span(Phase::Write, || {
                        clarens_faults::check_io(clarens_faults::sites::HTTPD_WRITE)
                            .and_then(|()| stage_response(response, &mut outq, scratch))
                    });
                    if let Some(t) = &shared.telemetry {
                        t.http
                            .buffer_pool_reuse
                            .add(scratch.reuses().wrapping_sub(reuses_before));
                        t.finish_request(&trace, (shared.now_fn)());
                    }
                    match staged {
                        Ok(()) => {
                            guards.push(in_flight);
                            continue;
                        }
                        Err(error) => {
                            classify_io_error(&error, shared);
                            return Disposition::Closed;
                        }
                    }
                }
                // Not coalescible (file/stream body, HEAD, close, or the
                // staging cap): anything staged leaves first, in order.
                if flush_staged_blocking(&conn, &mut outq, &mut guards, shared).is_err() {
                    return Disposition::Closed;
                }
                let progress = trace.span(Phase::Write, || {
                    match clarens_faults::check_io(clarens_faults::sites::HTTPD_WRITE).and_then(
                        |()| {
                            WriteState::new(
                                response,
                                keep_alive,
                                head_only,
                                Some(in_flight),
                                scratch,
                            )
                        },
                    ) {
                        Ok(state) => advance_pending(&mut conn, state),
                        Err(error) => WriteProgress::Failed(error),
                    }
                });
                if let Some(t) = &shared.telemetry {
                    if let WriteProgress::Done(state) = &progress {
                        let (total, via_sendfile) = state.accounted();
                        t.http.bytes_out.add(total);
                        t.http.bytes_sendfile.add(via_sendfile);
                    }
                    t.http
                        .buffer_pool_reuse
                        .add(scratch.reuses().wrapping_sub(reuses_before));
                    t.finish_request(&trace, (shared.now_fn)());
                }
                match progress {
                    WriteProgress::Done(state) => {
                        state.recycle_into(scratch);
                    }
                    WriteProgress::Parked => {
                        // Socket full mid-response: the state (cursor and
                        // sendfile offset included) is saved on the
                        // connection; the poller waits for EPOLLOUT.
                        return Disposition::Park(conn);
                    }
                    WriteProgress::Failed(error) => {
                        classify_io_error(&error, shared);
                        return Disposition::Closed;
                    }
                }
                if !keep_alive {
                    return Disposition::Closed;
                }
            }
        }
    }
}

/// Try to parse one request out of the accumulated bytes. Runs the exact
/// parser the blocking path uses, over an in-memory cursor: running out of
/// buffered bytes mid-message surfaces as `UnexpectedEof`, which here means
/// "incomplete", not "error".
fn try_parse(inbuf: &[u8], max_body: usize, scratch: &mut Scratch) -> Parsed {
    if inbuf.is_empty() {
        return Parsed::Incomplete;
    }
    let mut cursor = Cursor::new(inbuf);
    match read_request_pooled(&mut cursor, max_body, scratch) {
        Ok(request) => Parsed::Complete(request, cursor.position() as usize),
        Err(ParseError::Eof) | Err(ParseError::Io(_)) => Parsed::Incomplete,
        Err(ParseError::Protocol(status, message)) => Parsed::Fail(status, message),
    }
}

/// Pull whatever the socket has without blocking.
fn fill(conn: &mut Conn, scratch: &mut Scratch) -> Fill {
    if let Err(e) = clarens_faults::check_io(clarens_faults::sites::HTTPD_READ) {
        return Fill::Err(e);
    }
    let mut chunk = scratch.take();
    chunk.resize(READ_CHUNK, 0);
    let mut appended = 0usize;
    let outcome = loop {
        match (&conn.sock).read(&mut chunk) {
            Ok(0) => break Fill::Eof,
            Ok(n) => {
                conn.inbuf.extend_from_slice(&chunk[..n]);
                appended += n;
                if n < chunk.len() || appended >= MAX_FILL_BURST {
                    break Fill::Progress;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                break if appended > 0 {
                    Fill::Progress
                } else {
                    Fill::Park
                };
            }
            Err(e) => break Fill::Err(e),
        }
    };
    scratch.recycle(chunk);
    outcome
}

/// `Write` adapter over a non-blocking socket: on `WouldBlock` it waits for
/// writability (bounded by `timeout`) and retries, so the shared response
/// serializer behaves exactly as it does on a blocking socket — including
/// the vectored head+body write.
pub(crate) struct NonblockingWriter<'a> {
    sock: &'a TcpStream,
    timeout: Duration,
}

impl<'a> NonblockingWriter<'a> {
    pub(crate) fn new(sock: &'a TcpStream, timeout: Duration) -> NonblockingWriter<'a> {
        NonblockingWriter { sock, timeout }
    }

    fn wait_writable(&self) -> io::Result<()> {
        wait_writable(self.sock, self.timeout)
    }
}

#[cfg(unix)]
fn wait_writable(sock: &TcpStream, timeout: Duration) -> io::Result<()> {
    use std::os::unix::io::AsRawFd;
    poller::wait_writable(sock.as_raw_fd(), timeout)
}

#[cfg(not(unix))]
fn wait_writable(_sock: &TcpStream, _timeout: Duration) -> io::Result<()> {
    // The event path never runs here: Poller construction fails on
    // non-Unix hosts and the server stays on the blocking path.
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "readiness polling unsupported on this platform",
    ))
}

impl Write for NonblockingWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            match (&mut &*self.sock).write(buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.wait_writable()?,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => return other,
            }
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        loop {
            match (&mut &*self.sock).write_vectored(bufs) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.wait_writable()?,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => return other,
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // TCP sockets have no userspace buffer to flush.
        Ok(())
    }
}

/// Raw fd of a socket, for poller registration.
#[cfg(unix)]
pub(crate) fn raw_fd(sock: &TcpStream) -> poller::RawFd {
    use std::os::unix::io::AsRawFd;
    sock.as_raw_fd()
}

#[cfg(not(unix))]
pub(crate) fn raw_fd(_sock: &TcpStream) -> poller::RawFd {
    -1
}

/// Raw fd of a listener, for the acceptor's wakeable poll loop.
#[cfg(unix)]
pub(crate) fn raw_fd_listener(listener: &std::net::TcpListener) -> poller::RawFd {
    use std::os::unix::io::AsRawFd;
    listener.as_raw_fd()
}

#[cfg(not(unix))]
pub(crate) fn raw_fd_listener(_listener: &std::net::TcpListener) -> poller::RawFd {
    -1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_parse_states() {
        let mut scratch = Scratch::new();
        // Empty and prefix buffers are incomplete, not errors.
        assert!(matches!(
            try_parse(b"", 1024, &mut scratch),
            Parsed::Incomplete
        ));
        assert!(matches!(
            try_parse(b"GET / HT", 1024, &mut scratch),
            Parsed::Incomplete
        ));
        assert!(matches!(
            try_parse(b"GET / HTTP/1.1\r\nHost: h\r\n", 1024, &mut scratch),
            Parsed::Incomplete
        ));
        // Partial body: still incomplete.
        assert!(matches!(
            try_parse(
                b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
                1024,
                &mut scratch
            ),
            Parsed::Incomplete
        ));
        // A complete request reports exactly the bytes it consumed.
        let wire = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b";
        match try_parse(wire, 1024, &mut scratch) {
            Parsed::Complete(request, consumed) => {
                assert_eq!(request.target, "/a");
                assert_eq!(&wire[consumed..], b"GET /b");
            }
            _ => panic!("expected a complete request"),
        }
        // Garbage is a protocol failure.
        assert!(matches!(
            try_parse(b"NONSENSE\r\n\r\n", 1024, &mut scratch),
            Parsed::Fail(400, _)
        ));
        // An oversized declared body fails fast without needing the bytes.
        assert!(matches!(
            try_parse(
                b"POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n",
                1024,
                &mut scratch
            ),
            Parsed::Fail(413, _)
        ));
    }
}
