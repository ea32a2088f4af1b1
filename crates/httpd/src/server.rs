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
//! connections off one queue; one poller thread runs the server's only
//! event loop on one epoll set (`crate::poller`): it accepts fresh
//! connections into that queue, holds every idle keep-alive connection
//! *parked*, re-dispatches each one to the queue when bytes arrive, and
//! closes it when the keep-alive idle timeout lapses — the loop sleeps
//! exactly until the first of an ordered set of deadlines. An idle
//! connection therefore costs a few hundred bytes of state instead of a
//! blocked worker thread — the difference between concurrency capped at
//! `workers` (the Apache prefork shape the paper measured, which is what
//! Figure 4 tops out on) and concurrency capped at `max_connections`. The
//! one shortcut: a worker with nothing queued keeps the connection it just
//! served, sleeping on that socket and its own wake pipe, so a sequential
//! client's next request skips the poller → queue → worker hop; the first
//! push that finds no idle worker takes it back to the poller.
//!
//! TLS servers run on the same scheduler: the secure channel is a state
//! machine each connection carries (`crate::conn`), so an encrypted
//! connection parks on socket readiness — mid-handshake included — exactly
//! as a plaintext one does.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens_telemetry::{RequestTrace, Telemetry};

use clarens_pki::cert::{Certificate, Credential};
use clarens_pki::dn::DistinguishedName;
use clarens_pki::keystream::SecretRng;
use clarens_pki::SecureChannel;

use crate::conn::{self, Conn, Disposition, Tls};
use crate::poller::{self, Poller, WakePipe};
use crate::scratch::Scratch;
use crate::sys;
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

/// Server configuration. The drain bound ([`DRAIN_TIMEOUT`]) and the body
/// bound ([`crate::parse::DEFAULT_MAX_BODY`]) are fixed.
pub struct ServerConfig {
    /// Number of worker threads: pure CPU executors, sized to cores. They
    /// parse, run handlers, do the secure channel's crypto and write; a
    /// connection waiting on its peer holds none of them.
    pub workers: usize,
    /// Socket read timeout for keep-alive connections (parked connections
    /// idle past this are closed by the poller at their deadline).
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
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 16,
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
        }
    }
}

/// How long `shutdown` lets responses already in flight finish: a peer
/// still not reading by then is closed, counted as a `write_stall`.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

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

impl Parker {
    /// Hand `conn` to the poller (once the poller has exited, it just
    /// closes).
    fn park(&self, conn: Box<Conn>) {
        if self.tx.send(conn).is_ok() {
            self.poller.wake();
        }
    }
}

/// The worker queue: connections waiting for a worker, and the workers
/// asleep waiting for one — idle, or beside a connection they kept.
struct WorkQueue {
    state: parking_lot::Mutex<QueueState>,
    /// One wake pipe per worker, so a push wakes exactly the worker it
    /// picked: no thundering herd however many workers sleep.
    pipes: Vec<WakePipe>,
}

struct QueueState {
    conns: VecDeque<Box<Conn>>,
    /// Sleeping workers by index. A push wakes the idle one that slept
    /// last if there is one, else the keeper that has waited longest —
    /// its connection is the least recently used — which hands its
    /// connection back to the poller.
    idle: Vec<usize>,
    keeping: VecDeque<usize>,
    /// Set by shutdown once nothing pushes any more.
    closed: bool,
}

/// Why a worker stopped sleeping beside its kept connection.
enum Woken {
    /// The connection's own bytes (or hang-up) arrived.
    Bytes,
    /// Work is queued (or the queue closed): the connection goes back to
    /// the poller.
    Work,
    /// The connection's idle deadline passed.
    Deadline,
}

impl WorkQueue {
    fn new(workers: usize) -> io::Result<WorkQueue> {
        Ok(WorkQueue {
            state: parking_lot::Mutex::new(QueueState {
                conns: VecDeque::new(),
                idle: Vec::new(),
                keeping: VecDeque::new(),
                closed: false,
            }),
            pipes: (0..workers)
                .map(|_| WakePipe::new())
                .collect::<io::Result<_>>()?,
        })
    }

    fn push(&self, conn: Box<Conn>) {
        let mut state = self.state.lock();
        state.conns.push_back(conn);
        let sleeper = state.idle.pop().or_else(|| state.keeping.pop_front());
        drop(state);
        if let Some(worker) = sleeper {
            self.pipes[worker].wake();
        }
    }

    /// The next connection for worker `me`, sleeping while there is none;
    /// `None` once the queue is closed and empty.
    fn pop(&self, me: usize) -> Option<Box<Conn>> {
        loop {
            {
                let mut state = self.state.lock();
                state.idle.retain(|&worker| worker != me);
                if let Some(conn) = state.conns.pop_front() {
                    return Some(conn);
                }
                if state.closed {
                    return None;
                }
                state.idle.push(me);
            }
            let _ = poller::wait_readable(None, &self.pipes[me], None);
        }
    }

    /// Worker `me` sleeps beside `conn`, idle and off the poller, until one
    /// of the three things in [`Woken`] happens. A push that picked this
    /// worker counts as work even when the socket woke it at the same
    /// moment: the queue is owed a look.
    fn keep(&self, me: usize, conn: &Conn) -> Woken {
        let pipe = &self.pipes[me];
        loop {
            {
                let mut state = self.state.lock();
                if !state.conns.is_empty() || state.closed {
                    return Woken::Work;
                }
                state.keeping.push_back(me);
            }
            let left = conn.deadline.saturating_duration_since(Instant::now());
            let ready = poller::wait_readable(Some(conn.sock.as_raw_fd()), pipe, Some(left));
            let mut state = self.state.lock();
            match state.keeping.iter().position(|&worker| worker == me) {
                Some(i) => state.keeping.remove(i),
                None => return Woken::Work,
            };
            drop(state);
            match ready {
                Ok(true) => return Woken::Bytes,
                Err(_) => return Woken::Work,
                Ok(false) if Instant::now() >= conn.deadline => return Woken::Deadline,
                Ok(false) => {} // a late wake byte: sleep again
            }
        }
    }

    /// Wake every worker for good: shutdown, after the poller has stopped
    /// pushing.
    fn close(&self) {
        self.state.lock().closed = true;
        for pipe in &self.pipes {
            pipe.wake();
        }
    }
}

/// A running HTTP server.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<Stop>,
    poller_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stats: Arc<ServerStats>,
    queue: Arc<WorkQueue>,
}

/// How a server stops: the flag `shutdown` sets, the requests in flight
/// (parse-complete to write-complete) a stopping event loop waits for, and
/// that loop's poller, which the last of them to finish wakes — so nothing
/// polls the count.
pub(crate) struct Stop {
    requested: AtomicBool,
    in_flight: AtomicUsize,
    poller: Arc<Poller>,
}

impl Stop {
    pub(crate) fn requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }
}

/// RAII marker for a request being actively processed (parsed, handled,
/// written): a stopping server drains these.
pub(crate) struct InFlightGuard {
    stop: Arc<Stop>,
}

impl InFlightGuard {
    pub(crate) fn enter(stop: &Arc<Stop>) -> InFlightGuard {
        stop.in_flight.fetch_add(1, Ordering::SeqCst);
        InFlightGuard {
            stop: Arc::clone(stop),
        }
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        // Sequentially consistent with the loop's read of the flag, then
        // the count: either the loop sees zero or this drop sees the stop.
        if self.stop.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 && self.stop.requested() {
            self.stop.poller.wake();
        }
    }
}

impl HttpServer {
    /// Bind and start serving on `addr` (e.g. `"127.0.0.1:0"`). Fails if
    /// the listener, an epoll instance or a wake pipe cannot be opened.
    pub fn bind<H: Handler>(
        addr: &str,
        config: ServerConfig,
        handler: Arc<H>,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let worker_count = config.workers.max(1);
        let queue = Arc::new(WorkQueue::new(worker_count)?);
        let conn_poller = Arc::new(Poller::new()?);
        // The listener is non-blocking and registered level-triggered, so
        // the event loop's `wait` returns whenever connections are pending.
        listener.set_nonblocking(true)?;
        conn_poller.add(listener.as_raw_fd(), LISTENER, false)?;
        let (park_tx, park_rx) = mpsc::channel();
        let stop = Arc::new(Stop {
            requested: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            poller: Arc::clone(&conn_poller),
        });

        let shared = Arc::new(WorkerShared {
            handler,
            read_timeout: config.read_timeout,
            now_fn: Arc::clone(&config.now_fn),
            telemetry: config.telemetry,
            stop: Arc::clone(&stop),
            stats: Arc::clone(&stats),
            parker: Parker {
                tx: park_tx,
                poller: Arc::clone(&conn_poller),
            },
            queue: Arc::clone(&queue),
        });

        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("clarens-worker-{i}"))
                    .spawn(move || worker_loop(i, shared))
                    .expect("spawn worker"),
            );
        }

        let poller_thread = {
            let shared = Arc::clone(&shared);
            let max_connections = config.max_connections.max(1);
            let tls = config
                .tls
                .map(|tls| (Arc::new(tls.credential), tls.roots.into()));
            std::thread::Builder::new()
                .name("clarens-poller".into())
                .spawn(move || poller_loop(shared, listener, park_rx, max_connections, tls))
                .expect("spawn poller")
        };

        Ok(HttpServer {
            addr: local_addr,
            stop,
            poller_thread: Some(poller_thread),
            workers,
            stats,
            queue,
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

    /// Stop accepting, let what is in flight finish, and join all threads.
    /// The event loop closes the listener at once (a later connect is
    /// refused) and idle keep-alive connections with it, then keeps
    /// running until every request already past the parser has been
    /// answered in full — its handler returned and its response, parked
    /// mid-write or not, written — or [`DRAIN_TIMEOUT`] passes. A quiet
    /// server returns at once: the loop is woken explicitly (no dummy
    /// connection, no timeout race).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.requested.store(true, Ordering::SeqCst);
        self.stop.poller.wake();
        if let Some(poller) = self.poller_thread.take() {
            let _ = poller.join();
        }
        // Nothing pushes any more: workers drain what is queued and exit.
        self.queue.close();
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
    pub(crate) read_timeout: Duration,
    pub(crate) now_fn: Arc<dyn Fn() -> i64 + Send + Sync>,
    pub(crate) telemetry: Option<Arc<Telemetry>>,
    pub(crate) stop: Arc<Stop>,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) parker: Parker,
    queue: Arc<WorkQueue>,
}

/// The listener's poller token: the wake pipe holds `u64::MAX` and
/// connection ids count up from 0.
const LISTENER: u64 = poller::WAKE_TOKEN - 1;

/// The token of the drain deadline, the one entry a stopping loop adds to
/// its deadlines.
const DRAINED: u64 = LISTENER - 1;

/// How long the listener stays out of the epoll set after `accept` failed
/// with the connection still pending (descriptors or memory exhausted):
/// level-triggered, it would otherwise report the same connection at once.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Answer an over-budget connection with `503` + `Connection: close` and
/// drop it, without ever reading the request (the peer may not have sent
/// one yet, and we will not hold a slot waiting for it). One non-blocking
/// write: a fresh socket's send buffer takes the whole answer, and the
/// event loop never waits on a peer.
fn shed(mut sock: TcpStream, telemetry: &Option<Arc<Telemetry>>) {
    if let Some(t) = telemetry {
        t.http.sheds.inc();
    }
    let mut answer = Vec::new();
    let busy = Response::error(503, "connection limit reached, retry later");
    let _ = crate::parse::write_response(&mut answer, busy, false, false);
    let _ = sock.write(&answer);
}

/// The server's one event loop: owns the listener, every parked
/// connection, their epoll set and the ordered set of deadlines. Each
/// iteration absorbs newly parked connections from the park channel,
/// sleeps until readiness or the first deadline, admits new sockets,
/// re-dispatches readable parked ones to the worker queue, and expires
/// those past their deadline (stamped by the worker that parked them, so a
/// connection a worker kept and handed back expires when it would have
/// there).
///
/// It is also how a server stops. On the stop flag it closes the listener
/// and its idle parked connections, adds a [`DRAIN_TIMEOUT`] deadline,
/// and goes on absorbing parks and dispatching writable parked writers
/// until nothing is in flight or that deadline comes due.
fn poller_loop<H: Handler>(
    shared: Arc<WorkerShared<H>>,
    listener: TcpListener,
    park_rx: Receiver<Box<Conn>>,
    max_connections: usize,
    tls: Option<(Arc<Credential>, Arc<[Certificate]>)>,
) {
    struct Parked {
        conn: Box<Conn>,
        /// Waiting for the socket to become writable (response parked
        /// mid-write) rather than readable (idle keep-alive).
        writer: bool,
    }

    let (poller, telemetry) = (&shared.parker.poller, &shared.telemetry);
    // `None` once stopping: closing the listener takes it out of the
    // epoll set, and later connects are refused.
    let mut listener = Some(listener);
    let mut parked: HashMap<u64, Parked> = HashMap::new();
    // Every parked connection's deadline by token, the listener's
    // back-off while it is out of the epoll set, and, once stopping, the
    // drain's.
    let mut deadlines: BTreeSet<(Instant, u64)> = BTreeSet::new();
    let mut events: Vec<u64> = Vec::new();
    // Only this loop claims budget slots; a closing connection frees one.
    let conn_count = Arc::new(AtomicUsize::new(0));
    // The loop is the sole allocator of connection ids (poller tokens).
    let mut next_id: u64 = 0;
    // The gauge a parked connection counts in: `parked_writers`, or
    // `parked`, which workers keeping an idle connection count in too.
    let gauge = |writer: bool| {
        telemetry.as_ref().map(|t| match writer {
            true => &t.http.parked_writers,
            false => &t.http.parked,
        })
    };
    let mut admit = |sock: TcpStream| {
        // Fault injection: a failed accept behaves like ECONNABORTED —
        // the connection is dropped before any accounting sees it.
        if matches!(
            clarens_faults::eval(clarens_faults::sites::HTTPD_ACCEPT),
            Some(clarens_faults::Injected::Err) | Some(clarens_faults::Injected::ShortWrite(_))
        ) {
            return;
        }
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = telemetry {
            t.http.connections.inc();
        }
        if sock.set_nonblocking(true).is_err() {
            // A socket that cannot be driven without blocking is dropped.
            return;
        }
        if conn_count.load(Ordering::Acquire) >= max_connections {
            return shed(sock, telemetry);
        }
        conn_count.fetch_add(1, Ordering::AcqRel);
        let budget = BudgetGuard {
            count: Arc::clone(&conn_count),
        };
        sock.set_nodelay(true).ok();
        let id = next_id;
        next_id += 1;
        let tls = tls.as_ref().map(|(credential, roots)| {
            let (credential, roots) = (Arc::clone(credential), Arc::clone(roots));
            let channel =
                SecureChannel::server(credential, roots, (shared.now_fn)(), &mut SecretRng);
            Box::new(Tls {
                channel,
                peer: None,
            })
        });
        let conn = Box::new(Conn {
            sock,
            inbuf: Vec::new(),
            served: 0,
            id,
            registered: false,
            pending_write: None,
            deadline: Instant::now(),
            tls,
            _budget: Some(budget),
        });
        if let Some(t) = telemetry {
            t.http.queue_depth.inc();
        }
        shared.queue.push(conn);
    };

    'serve: loop {
        while let Ok(mut conn) = park_rx.try_recv() {
            let fd = conn.sock.as_raw_fd();
            let writer = conn.pending_write.is_some();
            if listener.is_none() && !writer {
                continue; // idle while stopping: close
            }
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
            deadlines.insert((conn.deadline, conn.id));
            if let Some(g) = gauge(writer) {
                g.inc();
            }
            parked.insert(conn.id, Parked { conn, writer });
        }
        if listener.is_none() && shared.stop.in_flight.load(Ordering::SeqCst) == 0 {
            break; // drained
        }

        // Sleep until the first deadline; with none, until readiness or a
        // wake (new park or shutdown).
        let timeout = deadlines
            .first()
            .map(|&(at, _)| at.saturating_duration_since(Instant::now()));
        events.clear();
        if poller.wait(timeout, &mut events).is_err() {
            // Defensive: never spin hot on a persistent backend error.
            std::thread::sleep(Duration::from_millis(1));
        }
        if listener.is_some() && shared.stop.requested() {
            // Stopping: no new connections, and idle ones close now.
            listener = None;
            parked.retain(|&token, p| {
                if !p.writer {
                    deadlines.remove(&(p.conn.deadline, token));
                    if let Some(g) = gauge(false) {
                        g.dec();
                    }
                }
                p.writer
            });
            deadlines.insert((Instant::now() + DRAIN_TIMEOUT, DRAINED));
        }

        for &token in &events {
            if token == LISTENER {
                let Some(listener) = &listener else { continue };
                loop {
                    match listener.accept() {
                        Ok((sock, _)) => admit(sock),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => {
                            let code = e.raw_os_error().unwrap_or(0);
                            if sys::ACCEPT_EXHAUSTED.contains(&code)
                                && poller.delete(listener.as_raw_fd()).is_ok()
                            {
                                deadlines.insert((Instant::now() + ACCEPT_BACKOFF, LISTENER));
                            }
                            // `WouldBlock` (drained) or an error that took
                            // its connection with it (e.g. ECONNABORTED).
                            break;
                        }
                    }
                }
            } else if let Some(p) = parked.remove(&token) {
                deadlines.remove(&(p.conn.deadline, token));
                if let Some(g) = gauge(p.writer) {
                    g.dec();
                }
                if let Some(t) = telemetry {
                    t.http.poll_wakeups.inc();
                    t.http.queue_depth.inc();
                }
                shared.queue.push(p.conn);
            }
        }

        let now = Instant::now();
        while let Some(&(at, token)) = deadlines.first().filter(|&&(at, _)| at <= now) {
            deadlines.remove(&(at, token));
            if token == LISTENER {
                let Some(listener) = &listener else { continue };
                if poller.add(listener.as_raw_fd(), LISTENER, false).is_err() {
                    deadlines.insert((now + ACCEPT_BACKOFF, LISTENER));
                }
            } else if token == DRAINED {
                // Peers still not reading what is parked for them.
                if let Some(t) = telemetry {
                    let stalled = parked.values().filter(|p| p.writer).count();
                    t.http.write_stalls.add(stalled as u64);
                }
                break 'serve;
            } else if let Some(p) = parked.remove(&token) {
                if let Some(t) = telemetry {
                    if p.writer {
                        // A consumer too slow to drain its response within
                        // the deadline: a stalled writer, not keep-alive
                        // churn.
                        t.http.parked_writers.dec();
                        t.http.write_stalls.inc();
                    } else {
                        // The server's own idle timeout, not a peer reset.
                        t.http.parked.dec();
                        t.http.idle_timeouts.inc();
                    }
                }
                // Counted before it closes (the drop here), so a peer that
                // sees EOF sees the count.
            }
        }
    }
    // Stopped: dropping the map closes every socket still parked.
    for p in parked.values() {
        if let Some(g) = gauge(p.writer) {
            g.dec();
        }
    }
}

/// One worker: drive connections from the queue, or the one it kept,
/// until shutdown closes the queue. Once the server is stopping it starts
/// no request: a connection with no write in flight closes unserved, and
/// one with a response on its way gets it finished while the event loop
/// drains.
fn worker_loop<H: Handler>(me: usize, shared: Arc<WorkerShared<H>>) {
    // The worker's scratch arena lives as long as the thread: buffers
    // recycle across requests *and* connections.
    let mut scratch = Scratch::new();
    let telemetry = shared.telemetry.as_deref();
    // The idle connection this worker just served and kept, if any.
    let mut kept: Option<Box<Conn>> = None;
    loop {
        let conn = match kept.take() {
            Some(conn) => {
                if let Some(t) = telemetry {
                    t.http.parked.inc();
                }
                let woken = shared.queue.keep(me, &conn);
                if let Some(t) = telemetry {
                    t.http.parked.dec();
                }
                match woken {
                    Woken::Bytes => {
                        if let Some(t) = telemetry {
                            t.http.worker_wakeups.inc();
                        }
                        conn
                    }
                    Woken::Work => {
                        shared.parker.park(conn);
                        continue;
                    }
                    Woken::Deadline => {
                        if let Some(t) = telemetry {
                            t.http.idle_timeouts.inc();
                        }
                        continue; // dropping it closes the socket
                    }
                }
            }
            None => match shared.queue.pop(me) {
                Some(conn) => {
                    if let Some(t) = telemetry {
                        t.http.queue_depth.dec();
                    }
                    conn
                }
                None => return,
            },
        };
        if shared.stop.requested() && conn.pending_write.is_none() {
            // Stopping: a connection with no write in flight closes
            // unserved; one with a response on its way finishes it.
            continue;
        }
        if let Disposition::Park(mut conn) = conn::drive(conn, &shared, &mut scratch) {
            conn.deadline = Instant::now() + shared.read_timeout;
            // An idle connection stays with this worker unless work is
            // queued; one with a write in flight waits on the poller.
            if conn.pending_write.is_none() {
                kept = Some(conn);
            } else {
                shared.parker.park(conn);
            }
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
            let server = start(mode);
            let too_long = crate::parse::DEFAULT_MAX_BODY + 1;
            let (status, _) = raw_roundtrip(
                mode,
                server.local_addr(),
                &format!("POST / HTTP/1.1\r\nHost: h\r\nContent-Length: {too_long}\r\n\r\n"),
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

            // Idle past the read timeout: the poller expires it,
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
