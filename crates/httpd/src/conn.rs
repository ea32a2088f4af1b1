//! The per-connection state machine of the event-driven scheduler.
//!
//! A connection is an explicit object — socket, accumulated input bytes,
//! request count, the secure channel's server end on a TLS server,
//! budget/shutdown guards — that shuttles between a worker (while there is
//! CPU work to do) and the poller (while waiting for bytes). A worker
//! *drives* the connection: parse whatever is buffered, serve complete
//! requests, read more without blocking, and hand the connection back to
//! the poller the moment the socket runs dry.
//!
//! On a TLS connection the [`SecureChannel`] sits between the socket and
//! the parse buffer: `fill` feeds it what the socket had and it appends
//! opened plaintext to `inbuf`, so parsing, pipelining and coalescing never
//! see the difference; responses are sealed where bytes meet the socket.
//! The handshake is the same loop with an empty parse buffer — its replies
//! leave as a pending write, its RSA runs on whichever worker is driving,
//! and a peer that stalls in the middle of it is a parked connection under
//! the deadline wheel like any other.
//!
//! Invariant: a connection is only ever parked when its input buffer holds
//! no complete request (either empty or a strict prefix of one) and its
//! secure channel holds at most a strict prefix of one frame (`feed`
//! consumes every whole frame eagerly), so a readiness event is always the
//! correct wake condition and pipelined requests can never stall in a
//! buffer.

use std::io::{self, Cursor, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use clarens_pki::SecureChannel;
use clarens_telemetry::{Phase, RequestTrace};

use crate::parse::{
    encode_head, read_file_at, read_request_pooled, truncated, write_response_with, ParseError,
    COPY_BUFFER,
};
use crate::poller;
use crate::scratch::Scratch;
use crate::server::{
    classify_io_error, BudgetGuard, Handler, InFlightGuard, LiveGuard, PeerInfo, RequestContext,
    WorkerShared,
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

/// The server end of one connection's secure channel.
pub(crate) struct Tls {
    pub(crate) channel: SecureChannel,
    /// Who the handshake authenticated; `None` while it is still running.
    pub(crate) peer: Option<PeerInfo>,
}

/// One keep-alive connection. Owns the (non-blocking) socket and every
/// piece of per-connection state that must survive a park/resume cycle.
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
    /// Handshake replies leave the same way.
    pub(crate) pending_write: Option<WriteState>,
    /// The secure channel; `None` on a plaintext server.
    pub(crate) tls: Option<Box<Tls>>,
    /// Connection-budget slot, released when the connection drops.
    pub(crate) _budget: Option<BudgetGuard>,
    /// Shutdown registration: force-closed by `HttpServer::shutdown` so
    /// in-flight writes fail fast.
    pub(crate) _live: Option<LiveGuard>,
}

impl Conn {
    /// On a TLS connection, replace the plaintext in `buf` with its sealed
    /// records; a plaintext connection sends `buf` as it is.
    fn seal(&mut self, buf: &mut Vec<u8>, scratch: &mut Scratch) {
        if let Some(tls) = &mut self.tls {
            seal_in_place(&mut tls.channel, buf, scratch);
        }
    }
}

/// What a worker does with a connection after driving it as far as the
/// buffered bytes and the socket allow.
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
    /// Transport error, or bytes the secure channel rejects.
    Err(io::Error),
}

/// A response mid-flight on a nonblocking socket: everything needed to
/// resume after the socket's send buffer drains. Holds the in-flight guard
/// so graceful shutdown waits (bounded by `drain_timeout`) for parked
/// writers just as it does for running handlers.
pub(crate) struct WriteState {
    /// Encoded status line + headers (scratch-pooled; recycled at
    /// completion). On a TLS connection: sealed, in-memory body included.
    head: Vec<u8>,
    /// Bytes of `head` already on the socket.
    head_pos: usize,
    /// The body and its cursor.
    body: PendingBody,
    /// `chunk[chunk_pos..chunk_len]`: file or stream body bytes already
    /// consumed from their source — and sealed, under TLS — but not yet
    /// accepted by the socket. Survives parks.
    chunk: Vec<u8>,
    chunk_pos: usize,
    chunk_len: usize,
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
    /// File segment `[pos, end)`. `use_sendfile` starts set on a plaintext
    /// connection (sealed bytes cannot be spliced) and stays set until the
    /// kernel refuses `sendfile(2)` for this fd pair; from then on the
    /// segment is staged through the chunk.
    File {
        file: std::fs::File,
        pos: u64,
        end: u64,
        use_sendfile: bool,
    },
    /// Opaque reader with `remaining` bytes promised, staged through the
    /// chunk.
    Stream {
        reader: Box<dyn Read + Send>,
        remaining: u64,
    },
}

impl WriteState {
    /// Encode the response head and capture the body with a zeroed cursor.
    /// Buffers come from `scratch` so the steady state allocates nothing.
    /// With a `channel`, the head leaves sealed, an in-memory body in the
    /// same records; file and stream bodies are sealed chunk by chunk as
    /// [`WriteState::advance`] stages them.
    fn new(
        response: Response,
        keep_alive: bool,
        head_only: bool,
        in_flight: Option<InFlightGuard>,
        scratch: &mut Scratch,
        channel: Option<&mut SecureChannel>,
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
                Body::Bytes(buf) if channel.is_some() => {
                    head.extend_from_slice(&buf);
                    scratch.recycle(buf);
                    PendingBody::None
                }
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
                    use_sendfile: channel.is_none(),
                },
                Body::Stream { reader, len } => PendingBody::Stream {
                    reader,
                    remaining: len,
                },
            }
        };
        if let Some(channel) = channel {
            seal_in_place(channel, &mut head, scratch);
        }
        let mut state = WriteState::staged(head, in_flight.into_iter().collect());
        state.body = body;
        state.keep_alive = keep_alive;
        Ok(state)
    }

    /// Wrap a buffer of bytes ready for the socket — coalesced pipelined
    /// responses, handshake replies — as a write in flight: all head, no
    /// body, connection stays open.
    fn staged(head: Vec<u8>, in_flight: Vec<InFlightGuard>) -> WriteState {
        WriteState {
            head,
            head_pos: 0,
            body: PendingBody::None,
            chunk: Vec::new(),
            chunk_pos: 0,
            chunk_len: 0,
            keep_alive: true,
            written: 0,
            sendfile: 0,
            _in_flight: in_flight,
        }
    }

    /// Push bytes at the socket until the response completes (`Ok(true)`),
    /// the socket pushes back (`Ok(false)` — park with write interest), or
    /// the transfer fails. Never blocks the calling thread.
    fn advance(
        &mut self,
        sock: &TcpStream,
        mut channel: Option<&mut SecureChannel>,
        scratch: &mut Scratch,
    ) -> io::Result<bool> {
        // Head first — vectored with an in-memory body so small responses
        // still leave in one syscall.
        while self.head_pos < self.head.len() {
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
                    if let PendingBody::Bytes { pos, .. } = &mut self.body {
                        *pos += n - from_head;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        loop {
            // Staged bytes drain before anything else (they are already
            // consumed from their source).
            let staged = &self.chunk[..self.chunk_len];
            if !write_some(sock, staged, &mut self.chunk_pos, &mut self.written)? {
                return Ok(false);
            }
            // What is left of the body, and how to stage its next chunk (a
            // positioned read for files: the cursor stays parked-safe).
            let (left, staged) = match &mut self.body {
                PendingBody::None | PendingBody::Stream { remaining: 0, .. } => return Ok(true),
                PendingBody::File { pos, end, .. } if pos == end => return Ok(true),
                PendingBody::Bytes { buf, pos } => {
                    return write_some(sock, buf, pos, &mut self.written)
                }
                #[cfg(unix)]
                PendingBody::File {
                    file,
                    pos,
                    end,
                    use_sendfile,
                } if *use_sendfile && crate::zerocopy::available() => {
                    use std::os::unix::io::AsRawFd;
                    let want = (*end - *pos) as usize;
                    match crate::zerocopy::send_file(raw_fd(sock), file.as_raw_fd(), pos, want) {
                        Ok(0) => return Err(truncated(*end - *pos)),
                        Ok(n) => {
                            self.written += n as u64;
                            self.sendfile += n as u64;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        // Kernel refused this fd pair: finish the segment
                        // through the staging chunk.
                        Err(e) if e.kind() == io::ErrorKind::Unsupported => *use_sendfile = false,
                        Err(e) => return Err(e),
                    }
                    continue;
                }
                PendingBody::File { file, pos, end, .. } => {
                    let left = *end - *pos;
                    let read = |buf: &mut [u8]| read_file_at(file, buf, *pos);
                    let staged =
                        stage(&mut self.chunk, left, channel.as_deref_mut(), scratch, read);
                    if let Ok((n, _)) = staged {
                        *pos += n as u64;
                    }
                    (left, staged)
                }
                PendingBody::Stream { reader, remaining } => {
                    let left = *remaining;
                    let read = |buf: &mut [u8]| reader.read(buf);
                    let staged =
                        stage(&mut self.chunk, left, channel.as_deref_mut(), scratch, read);
                    if let Ok((n, _)) = staged {
                        *remaining -= n as u64;
                    }
                    (left, staged)
                }
            };
            match staged {
                Ok((0, _)) => return Err(truncated(left)),
                Ok((_, staged)) => (self.chunk_pos, self.chunk_len) = (0, staged),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
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
        scratch.recycle(self.chunk);
        if let PendingBody::Bytes { buf, .. } = self.body {
            scratch.recycle(buf);
        }
    }
}

/// Write `buf[*pos..]` to the socket: `Ok(true)` once it is all out,
/// `Ok(false)` when the socket pushes back first.
fn write_some(
    sock: &TcpStream,
    buf: &[u8],
    pos: &mut usize,
    written: &mut u64,
) -> io::Result<bool> {
    while *pos < buf.len() {
        match (&mut &*sock).write(&buf[*pos..]) {
            Ok(0) => return Err(write_zero()),
            Ok(n) => {
                *pos += n;
                *written += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read the next chunk — up to `COPY_BUFFER` of the `left` body bytes —
/// into `chunk`, ready for the socket: as it is on a plaintext connection,
/// sealed on a TLS one (the plaintext passes through a pooled buffer, so at
/// most `COPY_BUFFER` of it plus its record overhead is ever staged).
/// Returns `(body bytes read, bytes staged)`.
fn stage(
    chunk: &mut Vec<u8>,
    left: u64,
    channel: Option<&mut SecureChannel>,
    scratch: &mut Scratch,
    read: impl FnOnce(&mut [u8]) -> io::Result<usize>,
) -> io::Result<(usize, usize)> {
    let want = left.min(COPY_BUFFER as u64) as usize;
    let Some(channel) = channel else {
        if chunk.len() < COPY_BUFFER {
            chunk.resize(COPY_BUFFER, 0);
        }
        let n = read(&mut chunk[..want])?;
        return Ok((n, n));
    };
    let mut plain = scratch.take();
    plain.resize(want, 0);
    let n = read(&mut plain);
    chunk.clear();
    if let Ok(n) = n {
        channel.seal(&plain[..n], chunk);
    }
    scratch.recycle(plain);
    Ok((n?, chunk.len()))
}

/// Replace the plaintext in `buf` with its sealed records.
fn seal_in_place(channel: &mut SecureChannel, buf: &mut Vec<u8>, scratch: &mut Scratch) {
    let mut sealed = scratch.take();
    channel.seal(buf, &mut sealed);
    std::mem::swap(buf, &mut sealed);
    scratch.recycle(sealed);
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
fn advance_pending(conn: &mut Conn, mut state: WriteState, scratch: &mut Scratch) -> WriteProgress {
    let channel = conn.tls.as_mut().map(|tls| &mut tls.channel);
    match state.advance(&conn.sock, channel, scratch) {
        Ok(true) => WriteProgress::Done(state),
        Ok(false) => {
            conn.pending_write = Some(state);
            WriteProgress::Parked
        }
        Err(error) => WriteProgress::Failed(error),
    }
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

/// Blocking-ish flush for the paths that cannot park (a non-coalescible
/// response queued behind staged ones, protocol failure, shutdown):
/// bounded by the read timeout.
fn flush_staged_blocking<H: Handler>(
    conn: &mut Conn,
    outq: &mut Vec<u8>,
    guards: &mut Vec<InFlightGuard>,
    shared: &WorkerShared<H>,
    scratch: &mut Scratch,
) -> io::Result<()> {
    let result = if outq.is_empty() {
        Ok(())
    } else {
        conn.seal(outq, scratch);
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

/// Drive `conn` until it parks, closes, or fails: the one place requests
/// on a connection are looped over. Reads never block — they either make
/// progress or return the connection to the poller.
/// Pipelined requests get their responses *coalesced*: while the
/// input buffer still holds more requests, each in-memory response is
/// staged instead of written, and the whole batch leaves in one syscall
/// when the buffer runs dry — one peer wakeup per batch, not per response.
pub(crate) fn drive<H: Handler>(
    mut conn: Box<Conn>,
    shared: &WorkerShared<H>,
    scratch: &mut Scratch,
) -> Disposition {
    // Staging buffer for coalesced pipelined responses. Lazily grown: the
    // non-pipelined steady state never touches it, and a pipelined batch
    // amortizes its one allocation over the whole batch.
    let mut outq: Vec<u8> = Vec::new();
    let mut guards: Vec<InFlightGuard> = Vec::new();
    loop {
        // A write in flight — a response parked mid-write, or handshake
        // replies `fill` just produced — goes before anything else, even
        // during shutdown, so graceful drain can finish it.
        if let Some(state) = conn.pending_write.take() {
            match advance_pending(&mut conn, state, scratch) {
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
        if shared.stop.load(Ordering::SeqCst) {
            let _ = flush_staged_blocking(&mut conn, &mut outq, &mut guards, shared, scratch);
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
                // exactly those responses. They go as a write in flight:
                // if the socket pushes back, the remainder (guards
                // included) parks and the poller waits for writability.
                if !outq.is_empty() {
                    conn.seal(&mut outq, scratch);
                    let batch = std::mem::take(&mut outq);
                    conn.pending_write =
                        Some(WriteState::staged(batch, std::mem::take(&mut guards)));
                    continue;
                }
                // The trace never finishes and records nothing. Pull more
                // bytes or park.
                let handshaking = conn.tls.as_ref().is_some_and(|tls| tls.peer.is_none());
                match fill(&mut conn, scratch) {
                    Fill::Progress => continue,
                    Fill::Park => return Disposition::Park(conn),
                    Fill::Eof => {
                        // EOF exactly at a message boundary — of the secure
                        // channel's frames and of HTTP — is a clean close.
                        let cut = conn
                            .tls
                            .as_ref()
                            .is_some_and(|tls| !tls.channel.at_frame_boundary());
                        if let Some(t) = &shared.telemetry {
                            if cut && handshaking {
                                t.http.handshake_failures.inc();
                            } else if cut || !conn.inbuf.is_empty() {
                                // Stream cut inside a record, or the peer
                                // abandoned a half-sent request.
                                t.http.peer_resets.inc();
                            }
                        }
                        return Disposition::Closed;
                    }
                    Fill::Err(error) if handshaking => {
                        if let Some(t) = &shared.telemetry {
                            t.http.handshake_failures.inc();
                        }
                        clarens_telemetry::debug!("TLS handshake failed: {error}");
                        return Disposition::Closed;
                    }
                    Fill::Err(error) => {
                        classify_io_error(&error, shared);
                        return Disposition::Closed;
                    }
                }
            }
            Parsed::Fail(status, message) => {
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = &shared.telemetry {
                    trace.status = status;
                    t.finish_request(&trace, (shared.now_fn)());
                }
                // The error leaves behind any earlier pipelined responses.
                let response = Response::error(status, &message);
                let _ = write_response_with(&mut outq, response, false, false, scratch);
                let _ = flush_staged_blocking(&mut conn, &mut outq, &mut guards, shared, scratch);
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
                        peer: conn.tls.as_ref().and_then(|tls| tls.peer.as_ref()),
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
                if flush_staged_blocking(&mut conn, &mut outq, &mut guards, shared, scratch)
                    .is_err()
                {
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
                                conn.tls.as_mut().map(|tls| &mut tls.channel),
                            )
                        },
                    ) {
                        Ok(state) => advance_pending(&mut conn, state, scratch),
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

/// Try to parse one request out of the accumulated bytes. Runs the public
/// blocking parser over an in-memory cursor: running out of buffered bytes
/// mid-message surfaces as `UnexpectedEof`, which here means "incomplete",
/// not "error".
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

/// Pull whatever the socket has without blocking — through the secure
/// channel on a TLS connection, whose handshake replies are left in
/// `pending_write` for the caller's next turn of the loop.
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
                match &mut conn.tls {
                    None => conn.inbuf.extend_from_slice(&chunk[..n]),
                    Some(tls) => {
                        let fed = tls.channel.feed(&chunk[..n], &mut conn.inbuf);
                        if let Some(mut peer) = tls.channel.take_peer() {
                            tls.peer = Some(PeerInfo {
                                certificate: peer.chain.swap_remove(0),
                                identity: peer.identity,
                            });
                        }
                        if let Err(e) = fed {
                            break Fill::Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                e.to_string(),
                            ));
                        }
                    }
                }
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
    if let Some(tls) = &mut conn.tls {
        let replies = tls.channel.take_output();
        if !replies.is_empty() {
            conn.pending_write = Some(WriteState::staged(replies, Vec::new()));
        }
    }
    outcome
}

/// `Write` adapter over a non-blocking socket: on `WouldBlock` it waits for
/// writability (bounded by `timeout`) and retries, so `write_all` behaves
/// as it does on a blocking socket.
pub(crate) struct NonblockingWriter<'a> {
    sock: &'a TcpStream,
    timeout: Duration,
}

impl<'a> NonblockingWriter<'a> {
    pub(crate) fn new(sock: &'a TcpStream, timeout: Duration) -> NonblockingWriter<'a> {
        NonblockingWriter { sock, timeout }
    }
}

#[cfg(unix)]
fn wait_writable(sock: &TcpStream, timeout: Duration) -> io::Result<()> {
    use std::os::unix::io::AsRawFd;
    poller::wait_writable(sock.as_raw_fd(), timeout)
}

#[cfg(not(unix))]
fn wait_writable(_sock: &TcpStream, _timeout: Duration) -> io::Result<()> {
    // Never runs: `Poller::new` fails off Unix, and with it `bind`.
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "readiness polling unsupported on this platform",
    ))
}

impl Write for NonblockingWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            match (&mut &*self.sock).write(buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    wait_writable(self.sock, self.timeout)?
                }
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
