//! The per-connection state machine of the event-driven scheduler.
//!
//! A connection is an explicit object — stream (a TCP socket, or a
//! socketpair end a pipe serves), accumulated input bytes, request count,
//! the secure channel's server end on a TLS server, budget slot — that
//! shuttles between a worker (while there is CPU work to do) and the
//! poller (while waiting for bytes). `drive` is the one loop over it,
//! for a worker and a pipe alike: scan what is buffered, serve complete
//! requests, read more without blocking, and park the moment the stream
//! runs dry. The connection keeps the scan of the request at the front of
//! its buffer (`parse::Scan`), so each read scans only the bytes that are
//! new, and a request arriving in pieces costs what it costs whole.
//!
//! On a TLS connection the [`SecureChannel`] sits between the socket and
//! the parse buffer: `fill` feeds it what the socket had and it appends
//! opened plaintext to `inbuf`, so parsing, pipelining and coalescing never
//! see the difference; responses are sealed where bytes meet the socket.
//! The handshake is the same loop with an empty parse buffer — its replies
//! leave as a pending write, its RSA runs on whichever worker is driving,
//! and a peer that stalls in the middle of it is a parked connection whose
//! deadline closes it like any other.
//!
//! Responses to pipelined requests are coalesced: while more requests are
//! buffered, each in-memory response is staged instead of written, and
//! the staged batch rides the next write in flight — alone when the input
//! runs dry, in front of the next response that cannot be staged, or in
//! front of a protocol error's answer (or at shutdown) as the last write.
//! Every socket write is [`WriteState::advance`], which never blocks: on
//! `EWOULDBLOCK` the connection parks with write interest, and a peer that
//! never drains expires at its deadline as a `write_stall`.
//!
//! Invariant: a connection is only ever parked when its input buffer holds
//! no complete request (either empty or a strict prefix of one) and its
//! secure channel holds at most a strict prefix of one frame (`feed`
//! consumes every whole frame eagerly), so a readiness event is always the
//! correct wake condition and pipelined requests can never stall in a
//! buffer.

use std::io::{self, IoSlice, Read, Write};
use std::os::unix::fs::FileExt;
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::Instant;

use clarens_pki::SecureChannel;
use clarens_telemetry::{HttpCounters, Phase, RequestTrace};

use crate::event_loop::Wait;
use crate::parse::{
    encode_head, truncated, write_response_with, Scan, Scanned, COPY_BUFFER, DEFAULT_MAX_BODY,
};
use crate::scratch::Scratch;
use crate::server::{
    classify_io_error, BudgetGuard, Handler, InFlightGuard, PeerInfo, RequestContext, Serve,
};
use crate::stream::Stream;
use crate::types::{Body, Held, Method, Request, Response};

/// Bytes pulled off the socket per `read` call while filling.
const READ_CHUNK: usize = 16 * 1024;
/// Cap on bytes absorbed in one fill burst before re-parsing, so one
/// fire-hose peer cannot monopolize a worker between parse attempts.
const MAX_FILL_BURST: usize = 256 * 1024;
/// Cap on coalesced response bytes staged for pipelined requests: past it
/// the next response is written with the batch in front of it, so a client
/// that never stops pipelining cannot grow the staging buffer without
/// bound.
const MAX_STAGED_BYTES: usize = 64 * 1024;

/// The server end of one connection's secure channel.
pub(crate) struct Tls {
    pub(crate) channel: SecureChannel,
    /// Who the handshake authenticated; `None` while it is still running.
    pub(crate) peer: Option<PeerInfo>,
}

/// One keep-alive connection. Owns the (non-blocking) stream and every
/// piece of per-connection state that must survive a park/resume cycle.
pub(crate) struct Conn {
    /// The non-blocking stream.
    pub(crate) stream: Stream,
    /// Bytes read but not yet consumed by the parser (at most a strict
    /// prefix of one request whenever the connection parks).
    pub(crate) inbuf: Vec<u8>,
    /// How far the scan of the request at the front of `inbuf` has got,
    /// so each read scans only the bytes that are new.
    pub(crate) scan: Scan,
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
    /// When the connection expires if it stays parked: stamped by the
    /// worker each time it parks, and kept across a hand-back from a
    /// worker to the poller.
    pub(crate) deadline: Instant,
    /// The secure channel; `None` on a plaintext server.
    pub(crate) tls: Option<Box<Tls>>,
    /// A reply its handler held, waiting to be answered.
    pub(crate) held: Option<Box<HeldReply>>,
    /// What wakes the event loop for this connection's held replies:
    /// built at its first, kept for the rest, so what they wait on holds
    /// one entry per connection however many fall due at their deadlines.
    pub(crate) waker: Option<Waker>,
    /// Connection-budget slot, released when the connection drops.
    pub(crate) _budget: Option<BudgetGuard>,
}

impl Conn {
    /// What the connection parks for, and until when: a write in flight
    /// goes before a held reply.
    pub(crate) fn wait(&self) -> (Wait, Instant) {
        match (&self.pending_write, &self.held) {
            (Some(_), _) => (Wait::Write, self.deadline),
            (None, Some(held)) => (Wait::Held, held.held.deadline),
            (None, None) => (Wait::Read, self.deadline),
        }
    }

    /// Make the staged batch — sealed, on a TLS connection — the write in
    /// flight, with the in-flight guards of the requests it answers. With
    /// `keep_alive` false the connection closes once the batch is out.
    fn send_staged(
        &mut self,
        outq: &mut Vec<u8>,
        guards: &mut Vec<InFlightGuard>,
        keep_alive: bool,
        scratch: &mut Scratch,
    ) {
        let mut batch = std::mem::take(outq);
        if let Some(tls) = self.tls.as_mut().filter(|_| !batch.is_empty()) {
            seal_in_place(&mut tls.channel, &mut batch, scratch);
        }
        let guards = std::mem::take(guards);
        self.pending_write = Some(WriteState::staged(batch, guards, keep_alive));
    }
}

/// A held reply ([`Held`]) riding on its connection while it waits, with
/// what answering it takes: the request's in-flight guard (a stopping
/// server drains it), its keep-alive and HEAD flags, and its trace,
/// finished when the reply is answered so its latency includes the wait.
pub(crate) struct HeldReply {
    held: Held,
    /// Answer it at the next drive: it was seen ready, or its deadline
    /// passed.
    pub(crate) due: bool,
    keep_alive: bool,
    head_only: bool,
    trace: RequestTrace,
    in_flight: InFlightGuard,
}

impl HeldReply {
    /// Its readiness check, registering `waker`.
    pub(crate) fn ready(&mut self, waker: &Waker) -> bool {
        (self.held.ready)(waker)
    }

    /// Wait on this thread until it is ready or its deadline passes, then
    /// mark it due: a pipe's pump, which has no event loop. `waker`
    /// unparks this thread.
    pub(crate) fn wait(&mut self, waker: &Waker) {
        loop {
            let left = self.held.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.ready(waker) {
                break;
            }
            std::thread::park_timeout(left);
        }
        self.due = true;
    }
}

/// Wakes the thread a pipe's held reply waits on.
pub(crate) struct Unpark(pub(crate) std::thread::Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
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
/// resume after the socket's send buffer drains. Holds the in-flight guard,
/// so a stopping server's event loop keeps dispatching the connection until
/// the response is out (or `DRAIN_TIMEOUT` passes), just as it waits for
/// running handlers.
pub(crate) struct WriteState {
    /// Encoded status line + headers (scratch-pooled; recycled at
    /// completion). On a TLS connection: sealed, in-memory body included.
    head: Vec<u8>,
    /// Bytes of `head` already on the socket.
    head_pos: usize,
    /// The body and its cursor.
    body: PendingBody,
    /// `chunk[chunk_pos..chunk_len]`: file body bytes already
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
    /// Keeps the server's event loop draining until the response(s) are
    /// out — one guard per request for a coalesced batch of pipelined
    /// responses.
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
}

impl WriteState {
    /// Encode the response head and capture the body with a zeroed cursor,
    /// behind `batch` — the pipelined responses staged before this one,
    /// which leave first — and holding the in-flight guards of every
    /// request the write answers. Both are taken only once the response
    /// is known to be sendable; on an error they stay with the caller.
    /// Buffers come from `scratch` so the steady state allocates nothing.
    /// With a `channel`, the batch and then the head leave sealed, an
    /// in-memory body in the head's records; a file body is sealed chunk
    /// by chunk as [`WriteState::advance`] stages them.
    fn new(
        response: Response,
        keep_alive: bool,
        head_only: bool,
        batch: &mut Vec<u8>,
        in_flight: &mut Vec<InFlightGuard>,
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
                Body::Sized(_) | Body::Held(_) => {
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
            }
        };
        let head = match channel {
            Some(channel) => {
                let mut sealed = scratch.take();
                channel.seal(batch, &mut sealed);
                channel.seal(&head, &mut sealed);
                batch.clear();
                scratch.recycle(head);
                sealed
            }
            None if batch.is_empty() => head,
            None => {
                batch.extend_from_slice(&head);
                scratch.recycle(head);
                std::mem::take(batch)
            }
        };
        let mut state = WriteState::staged(head, std::mem::take(in_flight), keep_alive);
        state.body = body;
        Ok(state)
    }

    /// Wrap a buffer of bytes ready for the socket — coalesced pipelined
    /// responses, handshake replies — as a write in flight: all head, no
    /// body.
    fn staged(head: Vec<u8>, in_flight: Vec<InFlightGuard>, keep_alive: bool) -> WriteState {
        WriteState {
            head,
            head_pos: 0,
            body: PendingBody::None,
            chunk: Vec::new(),
            chunk_pos: 0,
            chunk_len: 0,
            keep_alive,
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
        sock: &mut Stream,
        mut channel: Option<&mut SecureChannel>,
        scratch: &mut Scratch,
    ) -> io::Result<bool> {
        // Head first — vectored with an in-memory body so small responses
        // still leave in one syscall.
        while self.head_pos < self.head.len() {
            let head_rest = &self.head[self.head_pos..];
            let body_rest = match &self.body {
                PendingBody::Bytes { buf, pos } => &buf[*pos..],
                _ => &[],
            };
            let both = [IoSlice::new(head_rest), IoSlice::new(body_rest)];
            let Some(n) = write_step(sock, &both)? else {
                return Ok(false);
            };
            let from_head = n.min(head_rest.len());
            self.head_pos += from_head;
            self.written += n as u64;
            if let PendingBody::Bytes { pos, .. } = &mut self.body {
                *pos += n - from_head;
            }
        }
        loop {
            // Staged bytes drain before anything else (they are already
            // consumed from their source).
            let staged = &self.chunk[..self.chunk_len];
            if !write_some(sock, staged, &mut self.chunk_pos, &mut self.written)? {
                return Ok(false);
            }
            // What is left of the body: a file segment not going by
            // sendfile stages its next chunk by a positioned read, so the
            // cursor stays parked-safe.
            let (file, left, pos) = match &mut self.body {
                PendingBody::None => return Ok(true),
                PendingBody::File { pos, end, .. } if pos == end => return Ok(true),
                PendingBody::Bytes { buf, pos } => {
                    return write_some(sock, buf, pos, &mut self.written)
                }
                PendingBody::File {
                    file,
                    pos,
                    end,
                    use_sendfile,
                } if *use_sendfile => {
                    let want = (*end - *pos) as usize;
                    match sock.send_file(file, pos, want) {
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
                PendingBody::File { file, pos, end, .. } => (file, *end - *pos, pos),
            };
            let read = |buf: &mut [u8]| file.read_at(buf, *pos);
            match stage(&mut self.chunk, left, channel.as_deref_mut(), scratch, read) {
                Ok((0, _)) => return Err(truncated(left)),
                Ok((n, staged)) => {
                    *pos += n as u64;
                    (self.chunk_pos, self.chunk_len) = (0, staged);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Count the response's bytes: all of them, and those `sendfile` moved.
    fn count(&self, http: &HttpCounters) {
        http.bytes_out.add(self.written);
        http.bytes_sendfile.add(self.sendfile);
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
    sock: &mut Stream,
    buf: &[u8],
    pos: &mut usize,
    written: &mut u64,
) -> io::Result<bool> {
    while *pos < buf.len() {
        let Some(n) = write_step(sock, &[IoSlice::new(&buf[*pos..])])? else {
            return Ok(false);
        };
        *pos += n;
        *written += n as u64;
    }
    Ok(true)
}

/// One write of `bufs`: how many bytes the socket took, or `None` when it
/// pushes back.
fn write_step(sock: &mut Stream, bufs: &[IoSlice<'_>]) -> io::Result<Option<usize>> {
    loop {
        match sock.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => return Ok(Some(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
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
    match state.advance(&mut conn.stream, channel, scratch) {
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

/// Drive `conn` until it parks, closes, or fails: the one place requests
/// on a connection are looped over, for a worker and a pipe alike. Reads
/// never block — they either make progress or park the connection, which
/// comes back to wait on its peer; `None` means it closed (clean close,
/// error, or shutdown) and its socket with it.
/// Pipelined requests get their responses *coalesced*: while the
/// input buffer still holds more requests, each in-memory response is
/// staged instead of written, and the whole batch leaves with the next
/// write — one peer wakeup per batch, not per response.
pub(crate) fn drive<H: Handler + ?Sized>(
    mut conn: Box<Conn>,
    serve: &Serve<H>,
    scratch: &mut Scratch,
) -> Option<Box<Conn>> {
    // Staging buffer for coalesced pipelined responses. Lazily grown: the
    // non-pipelined steady state never touches it, and a pipelined batch
    // amortizes its one allocation over the whole batch.
    let mut outq: Vec<u8> = Vec::new();
    let mut guards: Vec<InFlightGuard> = Vec::new();
    let telemetry = &*serve.telemetry;
    let http = &telemetry.http;
    loop {
        // A write in flight — a response parked mid-write, or handshake
        // replies `fill` just produced — goes before anything else, even
        // during shutdown, so graceful drain can finish it.
        if let Some(state) = conn.pending_write.take() {
            match advance_pending(&mut conn, state, scratch) {
                WriteProgress::Done(state) => {
                    state.count(http);
                    let keep_alive = state.keep_alive;
                    state.recycle_into(scratch);
                    if !keep_alive {
                        return None;
                    }
                }
                WriteProgress::Parked => return Some(conn),
                WriteProgress::Failed(error) => {
                    classify_io_error(&error, http);
                    return None;
                }
            }
        }
        // Then a held reply: it waits on the event loop until it is due,
        // and nothing behind it is read before it is answered.
        if conn.held.as_ref().is_some_and(|held| !held.due) {
            return Some(conn);
        }
        let reuses_before = scratch.reuses();
        let (response, keep_alive, head_only, mut trace) = match conn.held.take() {
            Some(held) => {
                let HeldReply {
                    held,
                    keep_alive,
                    head_only,
                    mut trace,
                    in_flight,
                    ..
                } = *held;
                guards.push(in_flight);
                let response = (held.answer)(&mut trace, scratch);
                (response, keep_alive, head_only, trace)
            }
            None => {
                if serve.stop.requested() {
                    // Anything staged still leaves, as the last write.
                    conn.send_staged(&mut outq, &mut guards, false, scratch);
                    continue;
                }
                let mut trace = telemetry.begin_request();
                let scanned = trace.span(Phase::Parse, || {
                    conn.scan
                        .scan::<Request>(&conn.inbuf, DEFAULT_MAX_BODY, scratch)
                });
                match scanned {
                    Scanned::Need(need) => {
                        debug_assert!(need > conn.inbuf.len(), "a strict prefix");
                        // Not a request yet: the pipeline (if any) has run
                        // dry, so the staged responses must leave before
                        // this connection waits on its peer — which is
                        // almost certainly blocked on exactly those
                        // responses. They go as a write in flight: if the
                        // socket pushes back, the remainder (guards
                        // included) parks and the poller waits for
                        // writability.
                        if !outq.is_empty() {
                            conn.send_staged(&mut outq, &mut guards, true, scratch);
                            continue;
                        }
                        // The trace never finishes and records nothing.
                        // Pull more bytes or park.
                        let handshaking = conn.tls.as_ref().is_some_and(|tls| tls.peer.is_none());
                        match fill(&mut conn, scratch) {
                            Fill::Progress => continue,
                            Fill::Park => return Some(conn),
                            Fill::Eof => {
                                // EOF exactly at a message boundary — of the
                                // secure channel's frames and of HTTP — is a
                                // clean close.
                                let cut = conn
                                    .tls
                                    .as_ref()
                                    .is_some_and(|tls| !tls.channel.at_frame_boundary());
                                if cut && handshaking {
                                    http.handshake_failures.inc();
                                } else if cut || !conn.inbuf.is_empty() {
                                    // Stream cut inside a record, or the peer
                                    // abandoned a half-sent request.
                                    http.peer_resets.inc();
                                }
                                return None;
                            }
                            Fill::Err(_) if handshaking => {
                                http.handshake_failures.inc();
                                return None;
                            }
                            Fill::Err(error) => {
                                classify_io_error(&error, http);
                                return None;
                            }
                        }
                    }
                    Scanned::Fail(status, message) => {
                        trace.status = status;
                        telemetry.finish_request(&trace, (serve.now_fn)());
                        // The error leaves behind any earlier pipelined
                        // responses, as the last write.
                        let response = Response::error(status, &message);
                        let _ = write_response_with(&mut outq, response, false, false, scratch);
                        conn.send_staged(&mut outq, &mut guards, false, scratch);
                        continue;
                    }
                    Scanned::Complete(request, consumed) => {
                        conn.inbuf.drain(..consumed);
                        // Parsed and about to be handled: in flight until
                        // the response write finishes (shutdown drains
                        // these) — the guard rides inside the write state,
                        // or the held reply, across parks.
                        let in_flight = InFlightGuard::enter(&serve.stop);
                        let keep_alive = request.wants_keep_alive() && !serve.stop.requested();
                        let head_only = request.method == Method::Head;
                        if conn.served > 0 {
                            http.keepalive_reuse.inc();
                        }
                        conn.served += 1;

                        let response = serve.handler.handle(
                            request,
                            RequestContext {
                                peer: conn.tls.as_ref().and_then(|tls| tls.peer.as_ref()),
                                trace: &mut trace,
                                scratch,
                            },
                        );
                        if let Body::Held(held) = response.body {
                            // What is staged leaves first; the reply waits.
                            if !outq.is_empty() {
                                conn.send_staged(&mut outq, &mut guards, true, scratch);
                            }
                            conn.held = Some(Box::new(HeldReply {
                                held,
                                due: false,
                                keep_alive,
                                head_only,
                                trace,
                                in_flight,
                            }));
                            continue;
                        }
                        trace.status = response.status;
                        // Coalescing fast path: more requests are already
                        // buffered and this response is plain bytes, so
                        // stage it and keep parsing instead of waking the
                        // peer per response.
                        if keep_alive
                            && !head_only
                            && !conn.inbuf.is_empty()
                            && outq.len() < MAX_STAGED_BYTES
                            && matches!(response.body, Body::Bytes(_))
                        {
                            let staged = trace.span(Phase::Write, || {
                                stage_response(response, &mut outq, scratch)
                            });
                            http.buffer_pool_reuse
                                .add(scratch.reuses().wrapping_sub(reuses_before));
                            telemetry.finish_request(&trace, (serve.now_fn)());
                            match staged {
                                Ok(()) => {
                                    guards.push(in_flight);
                                    continue;
                                }
                                Err(error) => {
                                    classify_io_error(&error, http);
                                    return None;
                                }
                            }
                        }
                        guards.push(in_flight);
                        (response, keep_alive, head_only, trace)
                    }
                }
            }
        };
        trace.status = response.status;
        // Not coalescible (file body, HEAD, close, the staging cap, or a
        // held reply's answer): the response leaves behind anything
        // staged, in one write in flight.
        let progress = trace.span(Phase::Write, || {
            match WriteState::new(
                response,
                keep_alive,
                head_only,
                &mut outq,
                &mut guards,
                scratch,
                conn.tls.as_mut().map(|tls| &mut tls.channel),
            ) {
                Ok(state) => advance_pending(&mut conn, state, scratch),
                Err(error) => WriteProgress::Failed(error),
            }
        });
        if let WriteProgress::Done(state) = &progress {
            state.count(http);
        }
        http.buffer_pool_reuse
            .add(scratch.reuses().wrapping_sub(reuses_before));
        telemetry.finish_request(&trace, (serve.now_fn)());
        match progress {
            WriteProgress::Done(state) => {
                state.recycle_into(scratch);
            }
            WriteProgress::Parked => {
                // Socket full mid-response: the state (cursor and
                // sendfile offset included) is saved on the connection;
                // the poller waits for EPOLLOUT.
                return Some(conn);
            }
            WriteProgress::Failed(error) => {
                // A response that cannot be sent still lets the batch
                // staged before it out, as the last write.
                classify_io_error(&error, http);
                conn.send_staged(&mut outq, &mut guards, false, scratch);
                continue;
            }
        }
        if !keep_alive {
            return None;
        }
    }
}

/// Pull whatever the socket has without blocking — through the secure
/// channel on a TLS connection, whose handshake replies are left in
/// `pending_write` for the caller's next turn of the loop.
fn fill(conn: &mut Conn, scratch: &mut Scratch) -> Fill {
    let chunk = scratch.read_buffer(READ_CHUNK);
    let mut appended = 0usize;
    let outcome = loop {
        match conn.stream.read(chunk) {
            Ok(0) => break Fill::Eof,
            Ok(n) => {
                // Once the peer has sent half of a `Content-Length`
                // request, the buffer grows straight to its end rather than
                // doubling past it. A head or a chunked body has no known
                // end, so there the buffer doubles.
                let len = conn.inbuf.len() + n;
                let end = conn.scan.body_end().unwrap_or(0);
                if len > conn.inbuf.capacity() && (len..=2 * len).contains(&end) {
                    conn.inbuf.reserve_exact(end - conn.inbuf.len());
                }
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
    if let Some(tls) = &mut conn.tls {
        let replies = tls.channel.take_output();
        if !replies.is_empty() {
            conn.pending_write = Some(WriteState::staged(replies, Vec::new(), true));
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One scan of `wire` from its first byte, as `drive` starts one.
    fn scan(wire: &[u8], scratch: &mut Scratch) -> Scanned<Request> {
        Scan::default().scan(wire, 1024, scratch)
    }

    #[test]
    fn try_parse_states() {
        let mut scratch = Scratch::new();
        let need = |wire: &[u8], scratch: &mut Scratch| match scan(wire, scratch) {
            Scanned::Need(need) => need,
            _ => panic!("expected an incomplete request"),
        };
        // Empty and prefix buffers are incomplete, not errors; one more
        // byte may end a head.
        assert_eq!(need(b"", &mut scratch), 1);
        assert_eq!(need(b"GET / HT", &mut scratch), 9);
        let head = b"GET / HTTP/1.1\r\nHost: h\r\n";
        assert_eq!(need(head, &mut scratch), head.len() + 1);
        // Partial body: still incomplete, until the whole body is in.
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert_eq!(need(wire, &mut scratch), wire.len() + 7);
        // Partial chunk: until the chunk's data is in.
        let wire = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nab";
        assert_eq!(need(wire, &mut scratch), wire.len() + 1);
        // A complete request reports exactly the bytes it consumed.
        let wire = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b";
        match scan(wire, &mut scratch) {
            Scanned::Complete(request, consumed) => {
                assert_eq!(request.target, "/a");
                assert_eq!(&wire[consumed..], b"GET /b");
            }
            _ => panic!("expected a complete request"),
        }
        // Garbage is a protocol failure.
        assert!(matches!(
            scan(b"NONSENSE\r\n\r\n", &mut scratch),
            Scanned::Fail(400, _)
        ));
        // An oversized declared body fails fast without needing the bytes.
        assert!(matches!(
            scan(
                b"POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n",
                &mut scratch
            ),
            Scanned::Fail(413, _)
        ));
    }

    /// A chunked body arriving piece by piece: each attempt says what it
    /// needs next, the walk keeps its place between attempts, and the
    /// body is decoded once it is whole — or refused as soon as its
    /// framing is wrong.
    #[test]
    fn a_chunked_body_is_walked_in_place_and_decoded_once() {
        let mut scratch = Scratch::new();
        let wire: &[u8] = b"POST /c HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
            5;ext=1\r\nhello\r\n3\r\n, w\r\n0\r\nx-sum: 8\r\n\r\nGET /next";
        let head = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        let hello = head + b"5;ext=1\r\n".len();
        let mut state = Scan::default();
        let mut attempt = |len: usize| state.scan(&wire[..len], 1024, &mut scratch);
        let need = |scanned: Scanned<Request>| match scanned {
            Scanned::Need(need) => need,
            _ => panic!("expected an incomplete request"),
        };
        // Inside the head, one more byte may end it.
        assert_eq!(need(attempt(head - 1)), head);
        // Inside a chunk's data: its end.
        assert_eq!(need(attempt(hello + 2)), hello + 5);
        // Inside a size line, its terminator, or the trailer: one more.
        for len in [hello + 6, hello + 9, wire.len() - 13, wire.len() - 10] {
            assert_eq!(need(attempt(len)), len + 1, "at {len}");
        }
        match attempt(wire.len()) {
            Scanned::Complete(request, consumed) => {
                assert_eq!(request.body, b"hello, w");
                assert_eq!(&wire[consumed..], b"GET /next");
            }
            _ => panic!("expected a complete request"),
        }

        // Bad framing fails at once.
        let bad = b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n2\r\nabX";
        let mut state = Scan::default();
        let short = &bad[..bad.len() - 2];
        assert!(matches!(
            state.scan::<Request>(short, 1024, &mut scratch),
            Scanned::Need(_)
        ));
        assert!(matches!(
            state.scan::<Request>(&[bad.as_slice(), b"\r\n"].concat(), 1024, &mut scratch),
            Scanned::Fail(400, _)
        ));
        let big = b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n10\r\n0123456789abcdef\r\n800\r\n";
        assert!(matches!(scan(big, &mut scratch), Scanned::Fail(413, _)));
    }
}
