//! The HTTP server: a worker pool fed by an event-driven connection
//! scheduler.
//!
//! Architecturally this plays the role of "Apache + mod_python" in Figure 1
//! of the paper: it accepts connections, does SSL "transparently... with no
//! special coding needed in [the service layer] to decrypt (encrypt)
//! requests (responses)", and hands parsed requests to a [`Handler`].
//!
//! The concurrency model (see DESIGN.md "Concurrency model") decouples
//! connections from threads. Workers are pure CPU executors pulling
//! connections off one queue; the acceptor feeds fresh connections into
//! that queue; and a poller thread ([`crate::poller`]) holds every idle
//! keep-alive connection *parked* on an epoll set, re-dispatching each one
//! to the queue when bytes arrive and expiring it through a deadline wheel
//! when the keep-alive idle timeout lapses. An idle connection therefore
//! costs a few hundred bytes of state instead of a blocked worker thread —
//! the difference between concurrency capped at `workers` (the Apache
//! prefork shape the paper measured, which is what Figure 4 tops out on)
//! and concurrency capped at `max_connections`.
//!
//! TLS servers run on the same scheduler: the secure channel is a state
//! machine each connection carries (`crate::conn`), so an encrypted
//! connection parks on socket readiness — mid-handshake included — exactly
//! as a plaintext one does.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use clarens_telemetry::{RequestTrace, Telemetry};

use clarens_pki::cert::{Certificate, Credential};
use clarens_pki::dn::DistinguishedName;
use clarens_pki::SecureChannel;

use crate::conn::{self, Conn, Disposition, Tls};
use crate::poller::{DeadlineWheel, Event, Poller};
use crate::scratch::Scratch;
use crate::types::{Request, Response};

/// Information about an authenticated peer, available when the connection
/// came in over the secure channel.
#[derive(Debug, Clone)]
pub struct PeerInfo {
    /// Effective identity (end-entity DN below any proxy certs).
    pub identity: DistinguishedName,
    /// The leaf certificate presented.
    pub certificate: Certificate,
}

/// What the server hands a [`Handler`] alongside each request.
pub struct RequestContext<'a> {
    /// The authenticated peer; `Some` only on TLS connections.
    pub peer: Option<&'a PeerInfo>,
    /// The request's trace, for handlers that time their internal phases
    /// (auth, ACL walk, dispatch, serialization).
    pub trace: &'a mut RequestTrace,
    /// The worker's scratch arena: encode the response body into a buffer
    /// taken from it (and recycle the request body once decoded) to keep
    /// the steady state allocation-free.
    pub scratch: &'a mut Scratch,
}

/// The application-side request handler.
pub trait Handler: Send + Sync + 'static {
    /// Handle one request.
    fn handle(&self, request: Request, ctx: RequestContext<'_>) -> Response;
}

impl<F> Handler for F
where
    F: Fn(Request, Option<&PeerInfo>) -> Response + Send + Sync + 'static,
{
    fn handle(&self, request: Request, ctx: RequestContext<'_>) -> Response {
        self(request, ctx.peer)
    }
}

/// TLS settings for the server side.
pub struct TlsConfig {
    /// Server credential presented to clients.
    pub credential: Credential,
    /// Trust roots used to validate client certificates.
    pub roots: Vec<Certificate>,
}

/// Server configuration.
pub struct ServerConfig {
    /// Number of worker threads: pure CPU executors, sized to cores. They
    /// parse, run handlers, do the secure channel's crypto and write; a
    /// connection waiting on its peer holds none of them.
    pub workers: usize,
    /// Maximum decoded request body.
    pub max_body: usize,
    /// Socket read timeout for keep-alive connections (parked connections
    /// idle past this are expired by the deadline wheel).
    pub read_timeout: Duration,
    /// Enable the secure channel. `None` = plaintext HTTP.
    pub tls: Option<TlsConfig>,
    /// Clock used for certificate validation (overridable in tests).
    pub now_fn: Arc<dyn Fn() -> i64 + Send + Sync>,
    /// Telemetry plane to record into. `None` = untraced (tests, tools).
    pub telemetry: Option<Arc<Telemetry>>,
    /// Cap on simultaneously live connections (queued + active + parked).
    /// Connections beyond the cap are shed with `503` +
    /// `Connection: close` instead of growing the queue without bound.
    pub max_connections: usize,
    /// How long `shutdown()` waits for in-flight requests to complete
    /// before force-closing their connections. Idle (parked or between-
    /// request) connections are closed immediately either way.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 16,
            max_body: crate::parse::DEFAULT_MAX_BODY,
            read_timeout: Duration::from_secs(30),
            tls: None,
            now_fn: Arc::new(|| {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs() as i64)
                    .unwrap_or(0)
            }),
            telemetry: None,
            max_connections: 4096,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Monotonic server counters (exposed so benches can report served
/// request totals like the paper's "316 million requests ... completed").
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests served (any status).
    pub requests: AtomicU64,
    /// Requests that produced 5xx responses.
    pub errors: AtomicU64,
}

/// RAII slot in the live-connection budget.
pub(crate) struct BudgetGuard {
    count: Arc<AtomicUsize>,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        self.count.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The worker side of the park channel: where to send a connection that
/// ran out of bytes, and how to nudge the poller to pick it up.
pub(crate) struct Parker {
    tx: Sender<Box<Conn>>,
    poller: Arc<Poller>,
}

/// A running HTTP server.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    poller_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stats: Arc<ServerStats>,
    /// Raw handles of live connections, force-closed on shutdown so that
    /// overrunning writes fail fast and parked sockets see HUP.
    live: Arc<LiveConnections>,
    /// The acceptor's own poller, purely for a wakeable accept loop.
    accept_poller: Arc<Poller>,
    conn_poller: Arc<Poller>,
    /// Requests currently between parse-complete and write-complete;
    /// shutdown drains this to zero (bounded) before force-closing.
    in_flight: Arc<AtomicUsize>,
    drain_timeout: Duration,
}

/// RAII marker for a request being actively processed (parsed, handled,
/// written). Shutdown waits for these to finish before it starts tearing
/// sockets out from under workers.
pub(crate) struct InFlightGuard {
    count: Arc<AtomicUsize>,
}

impl InFlightGuard {
    pub(crate) fn enter(count: &Arc<AtomicUsize>) -> InFlightGuard {
        count.fetch_add(1, Ordering::AcqRel);
        InFlightGuard {
            count: Arc::clone(count),
        }
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.count.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Registry of raw socket handles for live connections. Entries are
/// removed (and the clone dropped) when their connection finishes, so the
/// peer observes EOF normally; on server shutdown all remaining handles
/// are force-closed.
#[derive(Default)]
pub(crate) struct LiveConnections {
    next_id: AtomicU64,
    sockets: parking_lot::Mutex<std::collections::HashMap<u64, TcpStream>>,
}

impl LiveConnections {
    fn register(self: &Arc<Self>, sock: &TcpStream) -> Option<LiveGuard> {
        let clone = sock.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.sockets.lock().insert(id, clone);
        Some(LiveGuard {
            id,
            live: Arc::clone(self),
        })
    }

    fn close_all(&self) {
        for (_, sock) in self.sockets.lock().drain() {
            let _ = sock.shutdown(std::net::Shutdown::Both);
        }
    }
}

pub(crate) struct LiveGuard {
    id: u64,
    live: Arc<LiveConnections>,
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.live.sockets.lock().remove(&self.id);
    }
}

impl HttpServer {
    /// Bind and start serving on `addr` (e.g. `"127.0.0.1:0"`). Fails with
    /// the readiness backend's error where there is none (`Unsupported`
    /// off Unix): there is no other scheduler to fall back to.
    pub fn bind<H: Handler>(
        addr: &str,
        config: ServerConfig,
        handler: Arc<H>,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let live = Arc::new(LiveConnections::default());
        let conn_count = Arc::new(AtomicUsize::new(0));
        let (tx, rx): (Sender<Box<Conn>>, Receiver<Box<Conn>>) = unbounded();
        let conn_poller = Arc::new(Poller::new()?);
        // The acceptor's own poller makes its loop wakeable: the listener
        // is non-blocking and registered level-triggered, so `wait` returns
        // whenever connections are pending or `wake()` is called.
        let accept_poller = Arc::new(Poller::new()?);
        listener.set_nonblocking(true)?;
        accept_poller.add(conn::raw_fd_listener(&listener), 0, false)?;
        let (park_tx, park_rx): (Sender<Box<Conn>>, Receiver<Box<Conn>>) = unbounded();

        let in_flight = Arc::new(AtomicUsize::new(0));
        let shared = Arc::new(WorkerShared {
            handler,
            max_body: config.max_body,
            read_timeout: config.read_timeout,
            now_fn: Arc::clone(&config.now_fn),
            telemetry: config.telemetry,
            stop: Arc::clone(&stop),
            stats: Arc::clone(&stats),
            in_flight: Arc::clone(&in_flight),
            parker: Parker {
                tx: park_tx,
                poller: Arc::clone(&conn_poller),
            },
        });

        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers.max(1) {
            let rx = rx.clone();
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("clarens-worker-{i}"))
                    .spawn(move || worker_loop(rx, shared))
                    .expect("spawn worker"),
            );
        }

        let poller_thread = {
            let poller = Arc::clone(&conn_poller);
            let work_tx = tx.clone();
            let stop = Arc::clone(&stop);
            let telemetry = shared.telemetry.clone();
            let read_timeout = config.read_timeout;
            std::thread::Builder::new()
                .name("clarens-poller".into())
                .spawn(move || poller_loop(poller, park_rx, work_tx, stop, telemetry, read_timeout))
                .expect("spawn poller")
        };

        let accept = AcceptLoop {
            listener,
            poller: Arc::clone(&accept_poller),
            stop: Arc::clone(&stop),
            stats: Arc::clone(&stats),
            telemetry: shared.telemetry.clone(),
            live: Arc::clone(&live),
            conn_count,
            max_connections: config.max_connections.max(1),
            tls: config
                .tls
                .map(|tls| (Arc::new(tls.credential), tls.roots.into())),
            now_fn: config.now_fn,
            tx,
        };
        // Dropping the acceptor's (and later the poller's) sender lets
        // workers drain and exit.
        let acceptor = std::thread::Builder::new()
            .name("clarens-acceptor".into())
            .spawn(move || accept_loop(accept))
            .expect("spawn acceptor");

        Ok(HttpServer {
            addr: local_addr,
            stop,
            acceptor: Some(acceptor),
            poller_thread: Some(poller_thread),
            workers,
            stats,
            live,
            accept_poller,
            conn_poller,
            in_flight,
            drain_timeout: config.drain_timeout,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Stop accepting and join all threads. Outstanding keep-alive
    /// connections are closed after their current request. Deterministic
    /// under zero traffic: both the acceptor and the poller are woken
    /// explicitly (no dummy connection, no timeout race).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.accept_poller.wake();
        self.conn_poller.wake();
        // Graceful drain: requests already past the parser get a bounded
        // window to finish handling and write their response. Connections
        // that are merely idle hold no in-flight marker, so a quiet server
        // still shuts down instantly.
        let drain_deadline = Instant::now() + self.drain_timeout;
        while self.in_flight.load(Ordering::Acquire) > 0 && Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Force-close remaining live connections (overrunning writes
        // return immediately; parked sockets see HUP).
        self.live.close_all();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(poller) = self.poller_thread.take() {
            let _ = poller.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

pub(crate) struct WorkerShared<H: Handler> {
    pub(crate) handler: Arc<H>,
    pub(crate) max_body: usize,
    pub(crate) read_timeout: Duration,
    pub(crate) now_fn: Arc<dyn Fn() -> i64 + Send + Sync>,
    pub(crate) telemetry: Option<Arc<Telemetry>>,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) in_flight: Arc<AtomicUsize>,
    pub(crate) parker: Parker,
}

struct AcceptLoop {
    listener: TcpListener,
    poller: Arc<Poller>,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    telemetry: Option<Arc<Telemetry>>,
    live: Arc<LiveConnections>,
    conn_count: Arc<AtomicUsize>,
    max_connections: usize,
    /// What each connection's secure channel is built from; `None` on a
    /// plaintext server.
    tls: Option<(Arc<Credential>, Arc<[Certificate]>)>,
    now_fn: Arc<dyn Fn() -> i64 + Send + Sync>,
    tx: Sender<Box<Conn>>,
}

fn accept_loop(ctx: AcceptLoop) {
    // The acceptor is the sole allocator of connection ids (poller tokens).
    let mut next_id: u64 = 0;
    let mut admit = |sock: TcpStream| -> bool {
        // Fault injection: a failed accept behaves like ECONNABORTED —
        // the connection is dropped before any accounting sees it.
        if matches!(
            clarens_faults::eval(clarens_faults::sites::HTTPD_ACCEPT),
            Some(clarens_faults::Injected::Err) | Some(clarens_faults::Injected::ShortWrite(_))
        ) {
            drop(sock);
            return true;
        }
        ctx.stats.connections.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &ctx.telemetry {
            t.http.connections.inc();
        }
        // Budget check: `fetch_add` claims a slot; over-budget claims are
        // rolled back and the connection shed instead of queued.
        let prev = ctx.conn_count.fetch_add(1, Ordering::AcqRel);
        if prev >= ctx.max_connections {
            ctx.conn_count.fetch_sub(1, Ordering::AcqRel);
            shed(sock, &ctx.telemetry);
            return true;
        }
        let budget = BudgetGuard {
            count: Arc::clone(&ctx.conn_count),
        };
        if sock.set_nonblocking(true).is_err() {
            // A socket that cannot be driven without blocking is dropped.
            return true;
        }
        sock.set_nodelay(true).ok();
        let id = next_id;
        next_id += 1;
        let tls = ctx.tls.as_ref().map(|(credential, roots)| {
            let (credential, roots) = (Arc::clone(credential), Arc::clone(roots));
            let channel =
                SecureChannel::server(credential, roots, (ctx.now_fn)(), &mut rand::rng());
            Box::new(Tls {
                channel,
                peer: None,
            })
        });
        let conn = Box::new(Conn {
            _live: ctx.live.register(&sock),
            sock,
            inbuf: Vec::new(),
            served: 0,
            id,
            registered: false,
            pending_write: None,
            tls,
            _budget: Some(budget),
        });
        if let Some(t) = &ctx.telemetry {
            t.http.queue_depth.inc();
        }
        ctx.tx.send(conn).is_ok()
    };

    let mut events: Vec<Event> = Vec::new();
    loop {
        if ctx.stop.load(Ordering::SeqCst) {
            return;
        }
        events.clear();
        let _ = ctx.poller.wait(None, &mut events);
        if ctx.stop.load(Ordering::SeqCst) {
            return;
        }
        loop {
            match ctx.listener.accept() {
                Ok((sock, _)) => {
                    if !admit(sock) {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // transient (e.g. ECONNABORTED)
            }
        }
    }
}

/// Answer an over-budget connection with `503` + `Connection: close` and
/// drop it, without ever reading the request (the peer may not have sent
/// one yet, and we will not hold a slot waiting for it).
fn shed(mut sock: TcpStream, telemetry: &Option<Arc<Telemetry>>) {
    if let Some(t) = telemetry {
        t.http.sheds.inc();
    }
    sock.set_nonblocking(false).ok();
    sock.set_write_timeout(Some(Duration::from_secs(1))).ok();
    let _ = crate::parse::write_response(
        &mut sock,
        Response::error(503, "connection limit reached, retry later"),
        false,
        false,
    );
}

/// The poller thread: owns every parked connection, its epoll set, and the
/// deadline wheel. Three duties per iteration: absorb newly parked
/// connections from the park channel, re-dispatch readable ones to the
/// worker queue, and expire those idle past the keep-alive timeout.
fn poller_loop(
    poller: Arc<Poller>,
    park_rx: Receiver<Box<Conn>>,
    work_tx: Sender<Box<Conn>>,
    stop: Arc<AtomicBool>,
    telemetry: Option<Arc<Telemetry>>,
    read_timeout: Duration,
) {
    struct Parked {
        conn: Box<Conn>,
        deadline: Instant,
        seq: u64,
        /// Waiting for the socket to become writable (response parked
        /// mid-write) rather than readable (idle keep-alive).
        writer: bool,
    }

    let mut parked: HashMap<u64, Parked> = HashMap::new();
    let mut wheel = DeadlineWheel::new(read_timeout);
    let mut events: Vec<Event> = Vec::new();
    let mut due: Vec<(u64, u64)> = Vec::new();
    // Park sequence numbers distinguish a connection's current park from
    // stale wheel candidates left by its earlier parks.
    let mut seq: u64 = 0;
    // Writers among `parked` (for the parked_writers gauge and the
    // write_stall expiry class).
    let mut writers: usize = 0;

    loop {
        while let Some(mut conn) = park_rx.try_recv() {
            let fd = conn::raw_fd(&conn.sock);
            let writer = conn.pending_write.is_some();
            let armed = if conn.registered {
                if writer {
                    poller.rearm_writable(fd, conn.id)
                } else {
                    poller.rearm(fd, conn.id)
                }
            } else {
                let added = if writer {
                    poller.add_writable(fd, conn.id)
                } else {
                    poller.add(fd, conn.id, true)
                };
                if added.is_ok() {
                    conn.registered = true;
                }
                added
            };
            if armed.is_err() {
                // Cannot watch it → cannot ever wake it; close now.
                continue;
            }
            seq += 1;
            let deadline = Instant::now() + read_timeout;
            wheel.insert(conn.id, seq, deadline);
            if writer {
                writers += 1;
            }
            parked.insert(
                conn.id,
                Parked {
                    conn,
                    deadline,
                    seq,
                    writer,
                },
            );
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if let Some(t) = &telemetry {
            t.http.parked.set(parked.len() as u64);
            t.http.parked_writers.set(writers as u64);
        }

        // With nothing parked there is no deadline to honor: sleep until a
        // wake (new park or shutdown). Otherwise sleep to the next wheel
        // tick.
        let timeout = if parked.is_empty() {
            None
        } else {
            Some(wheel.next_tick_in(Instant::now()))
        };
        events.clear();
        if poller.wait(timeout, &mut events).is_err() {
            // Defensive: never spin hot on a persistent backend error.
            std::thread::sleep(Duration::from_millis(1));
        }

        for event in events.drain(..) {
            if let Some(p) = parked.remove(&event.token) {
                if p.writer {
                    writers -= 1;
                }
                if let Some(t) = &telemetry {
                    t.http.poll_wakeups.inc();
                    t.http.queue_depth.inc();
                }
                if work_tx.send(p.conn).is_err() {
                    return;
                }
            }
        }

        let now = Instant::now();
        due.clear();
        wheel.advance(now, &mut due);
        for &(token, candidate_seq) in &due {
            let verdict = match parked.get(&token) {
                Some(p) if p.seq == candidate_seq => Some(now >= p.deadline),
                _ => None, // stale candidate from an earlier park
            };
            match verdict {
                Some(true) => {
                    if let Some(p) = parked.remove(&token) {
                        if p.writer {
                            writers -= 1;
                        }
                        if let Some(t) = &telemetry {
                            if p.writer {
                                // A consumer too slow to drain its response
                                // within the deadline: a stalled writer, not
                                // keep-alive churn.
                                t.http.write_stalls.inc();
                            } else {
                                // The server's own idle timeout, not a peer
                                // reset.
                                t.http.idle_timeouts.inc();
                            }
                        }
                    }
                }
                Some(false) => {
                    // Early candidate (wheel tick granularity); requeue.
                    let deadline = parked[&token].deadline;
                    wheel.insert(token, candidate_seq, deadline);
                }
                None => {}
            }
        }
    }
    // Shutdown: dropping the map closes every parked socket.
    if let Some(t) = &telemetry {
        t.http.parked.set(0);
    }
}

fn worker_loop<H: Handler>(rx: Receiver<Box<Conn>>, shared: Arc<WorkerShared<H>>) {
    // The worker's scratch arena lives as long as the thread: buffers
    // recycle across requests *and* connections.
    let mut scratch = Scratch::new();
    while let Ok(conn) = rx.recv() {
        if let Some(t) = &shared.telemetry {
            t.http.queue_depth.dec();
        }
        if shared.stop.load(Ordering::SeqCst) {
            // Drain and drop: queued sockets close unserved.
            continue;
        }
        match conn::drive(conn, &shared, &mut scratch) {
            Disposition::Park(conn) => {
                if shared.parker.tx.send(conn).is_ok() {
                    shared.parker.poller.wake();
                }
            }
            Disposition::Closed => {}
        }
    }
}

/// Classify a keep-alive read/write I/O failure: the server's own idle
/// timeout firing is normal churn, while everything else means the peer
/// tore the connection down under us.
pub(crate) fn classify_io_error<H: Handler>(error: &io::Error, shared: &WorkerShared<H>) {
    if crate::parse::is_truncation(error) {
        // The body source under-delivered against its declared
        // Content-Length — a server-side framing hazard, not peer churn.
        if let Some(t) = &shared.telemetry {
            t.http.stream_truncations.inc();
        }
        clarens_telemetry::debug!("response body truncated: {error}");
        return;
    }
    let idle = matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    );
    if let Some(t) = &shared.telemetry {
        if idle {
            t.http.idle_timeouts.inc();
        } else {
            t.http.peer_resets.inc();
        }
    }
    if !idle {
        clarens_telemetry::debug!("connection reset by peer: {error}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::read_response;
    use crate::test_modes::{send, Mode, BOTH_MODES, CLIENT_DN};
    use std::io::{BufReader, Read};

    fn echo_handler() -> Arc<impl Handler> {
        Arc::new(|req: Request, peer: Option<&PeerInfo>| {
            let who = peer
                .map(|p| p.identity.to_string())
                .unwrap_or_else(|| "anonymous".to_string());
            Response::ok(
                "text/plain",
                format!(
                    "{} {} {} {}",
                    req.method.as_str(),
                    req.target,
                    who,
                    req.body.len()
                ),
            )
        })
    }

    /// Who the echo handler sees on the other end under `mode`.
    fn who(mode: Mode) -> &'static str {
        match mode {
            Mode::Plain => "anonymous",
            Mode::Tls => CLIENT_DN,
        }
    }

    /// Short keep-alive timeout so `shutdown()` joins quickly in tests.
    /// Every scenario runs over both transports — with and without the
    /// secure channel the server must be indistinguishable from the wire.
    fn test_config(mode: Mode) -> ServerConfig {
        mode.server_config(ServerConfig {
            read_timeout: Duration::from_millis(200),
            ..Default::default()
        })
    }

    fn start(mode: Mode) -> HttpServer {
        HttpServer::bind("127.0.0.1:0", test_config(mode), echo_handler()).unwrap()
    }

    fn raw_roundtrip(mode: Mode, addr: SocketAddr, request: &str) -> (u16, Vec<u8>) {
        let mut reader = BufReader::new(mode.request(addr, request).unwrap());
        let resp = read_response(&mut reader, usize::MAX).unwrap();
        (resp.status, resp.body)
    }

    #[test]
    fn serves_get() {
        for mode in BOTH_MODES {
            let server = start(mode);
            let (status, body) = raw_roundtrip(
                mode,
                server.local_addr(),
                "GET /x HTTP/1.1\r\nHost: h\r\n\r\n",
            );
            assert_eq!(status, 200);
            assert_eq!(body, format!("GET /x {} 0", who(mode)).as_bytes());
            server.shutdown();
        }
    }

    #[test]
    fn keep_alive_multiple_requests() {
        for mode in BOTH_MODES {
            let server = start(mode);
            let batch: String = (0..5)
                .map(|i| format!("GET /r{i} HTTP/1.1\r\nHost: h\r\n\r\n"))
                .collect();
            let sock = mode.request(server.local_addr(), batch).unwrap();
            let mut reader = BufReader::new(sock);
            for i in 0..5 {
                let resp = read_response(&mut reader, usize::MAX).unwrap();
                assert_eq!(resp.status, 200);
                assert_eq!(resp.body, format!("GET /r{i} {} 0", who(mode)).as_bytes());
                assert!(resp.keep_alive);
            }
            assert_eq!(server.stats().requests.load(Ordering::Relaxed), 5);
            assert_eq!(server.stats().connections.load(Ordering::Relaxed), 1);
            server.shutdown();
        }
    }

    #[test]
    fn post_body_delivered() {
        for mode in BOTH_MODES {
            let server = start(mode);
            let (status, body) = raw_roundtrip(
                mode,
                server.local_addr(),
                "POST /rpc HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd",
            );
            assert_eq!(status, 200);
            assert_eq!(body, format!("POST /rpc {} 4", who(mode)).as_bytes());
            server.shutdown();
        }
    }

    #[test]
    fn bad_request_answered_not_dropped() {
        for mode in BOTH_MODES {
            let server = start(mode);
            let (status, _) = raw_roundtrip(mode, server.local_addr(), "NONSENSE\r\n\r\n");
            assert_eq!(status, 400);
            let (status, _) = raw_roundtrip(
                mode,
                server.local_addr(),
                "BREW / HTTP/1.1\r\nHost: h\r\n\r\n",
            );
            assert_eq!(status, 501);
            server.shutdown();
        }
    }

    #[test]
    fn connection_close_honored() {
        for mode in BOTH_MODES {
            let server = start(mode);
            let request = "GET / HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
            let sock = mode.request(server.local_addr(), request).unwrap();
            let mut reader = BufReader::new(sock);
            let resp = read_response(&mut reader, usize::MAX).unwrap();
            assert!(!resp.keep_alive);
            // Server must actually close: next read returns EOF.
            let mut probe = [0u8; 1];
            assert_eq!(reader.read(&mut probe).unwrap(), 0);
            server.shutdown();
        }
    }

    #[test]
    fn concurrent_clients() {
        for mode in BOTH_MODES {
            let server = start(mode);
            let addr = server.local_addr();
            let mut handles = Vec::new();
            for t in 0..8 {
                handles.push(std::thread::spawn(move || {
                    for i in 0..20 {
                        let (status, body) = raw_roundtrip(
                            mode,
                            addr,
                            &format!(
                                "GET /t{t}-{i} HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n"
                            ),
                        );
                        assert_eq!(status, 200);
                        assert_eq!(body, format!("GET /t{t}-{i} {} 0", who(mode)).as_bytes());
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(server.stats().requests.load(Ordering::Relaxed), 160);
            server.shutdown();
        }
    }

    #[test]
    fn oversized_body_rejected() {
        for mode in BOTH_MODES {
            let config = ServerConfig {
                max_body: 10,
                ..test_config(mode)
            };
            let server = HttpServer::bind("127.0.0.1:0", config, echo_handler()).unwrap();
            let (status, _) = raw_roundtrip(
                mode,
                server.local_addr(),
                "POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 1000\r\n\r\n",
            );
            assert_eq!(status, 413);
            server.shutdown();
        }
    }

    #[test]
    fn io_errors_classified_idle_vs_reset() {
        for mode in BOTH_MODES {
            let telemetry = Telemetry::enabled();
            let config = ServerConfig {
                telemetry: Some(Arc::clone(&telemetry)),
                ..test_config(mode)
            };
            let server = HttpServer::bind("127.0.0.1:0", config, echo_handler()).unwrap();

            // Idle past the read timeout: the deadline wheel expires it,
            // counted as an idle timeout.
            let idle_sock = mode.connect(server.local_addr()).unwrap();
            std::thread::sleep(Duration::from_millis(400));
            drop(idle_sock);

            // Close mid-request (truncated body → UnexpectedEof): counted
            // as a peer reset, not a clean close.
            let partial = "POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 100\r\n\r\npartial";
            drop(mode.request(server.local_addr(), partial).unwrap());
            std::thread::sleep(Duration::from_millis(100));

            assert_eq!(telemetry.http.idle_timeouts.get(), 1, "{mode:?}");
            assert_eq!(telemetry.http.peer_resets.get(), 1, "{mode:?}");
            // Neither path counts as a completed request.
            assert_eq!(telemetry.http.requests.get(), 0, "{mode:?}");
            assert_eq!(telemetry.http.connections.get(), 2, "{mode:?}");
            server.shutdown();
        }
    }

    #[test]
    fn telemetry_counts_requests_and_keepalive_reuse() {
        for mode in BOTH_MODES {
            let telemetry = Telemetry::enabled();
            let config = ServerConfig {
                telemetry: Some(Arc::clone(&telemetry)),
                ..test_config(mode)
            };
            let server = HttpServer::bind("127.0.0.1:0", config, echo_handler()).unwrap();
            let mut reader = BufReader::new(mode.connect(server.local_addr()).unwrap());
            // Strictly request-response paced, so each request is one
            // trace and the two after the first are keep-alive reuse.
            for i in 0..3 {
                let req = format!("GET /r{i} HTTP/1.1\r\nHost: h\r\n\r\n");
                send(&mut **reader.get_mut(), req.as_bytes()).unwrap();
                assert_eq!(read_response(&mut reader, usize::MAX).unwrap().status, 200);
            }
            drop(reader);
            server.shutdown();
            assert_eq!(telemetry.http.requests.get(), 3, "{mode:?}");
            assert_eq!(telemetry.http.keepalive_reuse.get(), 2, "{mode:?}");
            // Every request was timed end to end. (The parse phase works
            // from memory and can round to the zero microseconds the phase
            // histograms drop, so only the total is pinned.)
            let phases = telemetry.phase_snapshots();
            assert_eq!(phases.last().unwrap().1.count, 3, "{mode:?}");
        }
    }

    #[test]
    fn graceful_shutdown_drains_in_flight_requests() {
        for mode in BOTH_MODES {
            let handler = Arc::new(|_req: Request, _peer: Option<&PeerInfo>| {
                std::thread::sleep(Duration::from_millis(300));
                Response::ok("text/plain", "slow done")
            });
            let server = HttpServer::bind("127.0.0.1:0", test_config(mode), handler).unwrap();
            let addr = server.local_addr();
            let (sent_tx, sent_rx) = std::sync::mpsc::channel();
            let client = std::thread::spawn(move || {
                let sock = mode
                    .request(addr, "GET /slow HTTP/1.1\r\nHost: h\r\n\r\n")
                    .unwrap();
                sent_tx.send(()).unwrap();
                let mut reader = BufReader::new(sock);
                read_response(&mut reader, usize::MAX)
                    .map(|r| (r.status, r.body))
                    .ok()
            });
            // Let the request reach the handler, then shut down mid-flight:
            // the drain must let the response complete rather than severing
            // the socket.
            sent_rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(100));
            server.shutdown();
            let result = client.join().unwrap();
            assert_eq!(
                result,
                Some((200, b"slow done".to_vec())),
                "{mode:?}: in-flight request lost on shutdown"
            );
        }
    }

    #[test]
    fn head_omits_body() {
        for mode in BOTH_MODES {
            let server = start(mode);
            let request = "HEAD /h HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
            let sock = mode.request(server.local_addr(), request).unwrap();
            let mut text = String::new();
            BufReader::new(sock).read_to_string(&mut text).unwrap();
            let body = format!("HEAD /h {} 0", who(mode));
            assert!(text.contains(&format!("content-length: {}", body.len())));
            assert!(!text.contains(who(mode)));
            server.shutdown();
        }
    }
}
