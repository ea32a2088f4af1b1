//! The HTTP server: a worker pool fed by one event loop.
//!
//! Architecturally this plays the role of "Apache + mod_python" in Figure 1
//! of the paper: it accepts connections, does SSL "transparently... with no
//! special coding needed in [the service layer] to decrypt (encrypt)
//! requests (responses)", and hands parsed requests to a [`Handler`].
//!
//! Connections are decoupled from threads (DESIGN.md §4 "Concurrency
//! model"). Workers are CPU executors pulling connections off one queue.
//! One thread runs the event loop: `crate::event_loop::Loop` decides, and
//! `run_loop` here drives it over one epoll set (`crate::poller`). It
//! accepts into the queue, holds each idle or mid-write connection
//! *parked* until its socket is ready or its deadline passes, holds each
//! connection whose handler held its reply (`crate::types::Held`) until
//! what the reply waits on wakes it or its deadline answers it, and is how
//! a server stops. An idle connection costs a few hundred bytes instead of a
//! blocked worker, so concurrency is capped by `max_connections`, not
//! `workers` (the Apache prefork shape Figure 4 tops out on). The one
//! shortcut: a worker with nothing queued keeps the connection it just
//! served, sleeping on that socket and its own wake pipe, until a push
//! finds no idle worker and takes it back to the loop. TLS connections
//! park the same way, mid-handshake included: the secure channel is a
//! state machine each connection carries (`crate::conn`).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Wake, Waker};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use clarens_telemetry::{Gauge, HttpCounters, RequestTrace, Telemetry};

use clarens_pki::cert::{unix_now, Certificate, Credential};
use clarens_pki::dn::DistinguishedName;
use clarens_pki::keystream::SecretRng;
use clarens_pki::SecureChannel;

use crate::conn::{self, Conn, Tls, Unpark};
use crate::event_loop::{Accept, Effect, Input, Listener, Loop, Wait, Why, LISTENER};
use crate::parse::Scan;
use crate::poller::{self, Poller, WakePipe};
use crate::scratch::Scratch;
use crate::stream::Stream;
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
    /// The telemetry plane the server records into: transport counters,
    /// phase timings and the slow-trace ring. A fresh plane by default; a
    /// Clarens core attaches its own.
    pub telemetry: Arc<Telemetry>,
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
            now_fn: Arc::new(unix_now),
            telemetry: Telemetry::enabled(),
            max_connections: 4096,
        }
    }
}

/// How long `shutdown` lets responses already in flight finish: a peer
/// still not reading by then is closed, counted as a `write_stall`.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

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
    state: Mutex<QueueState>,
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
            state: Mutex::new(QueueState {
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

    /// The queue's state, unpoisoned: every critical section leaves it
    /// whole, so a panic in one breaks nothing.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, conn: Box<Conn>) {
        let mut state = self.lock();
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
                let mut state = self.lock();
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
                let mut state = self.lock();
                if !state.conns.is_empty() || state.closed {
                    return Woken::Work;
                }
                state.keeping.push_back(me);
            }
            let left = conn.deadline.saturating_duration_since(Instant::now());
            let ready = poller::wait_readable(Some(conn.stream.as_raw_fd()), pipe, Some(left));
            let mut state = self.lock();
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
        self.lock().closed = true;
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
    queue: Arc<WorkQueue>,
}

/// How a server stops: the flag `shutdown` sets, the requests in flight
/// (parse-complete to write-complete) a stopping event loop waits for, and
/// that loop's poller, which the last of them to finish wakes — so nothing
/// polls the count. A pipe server has no loop and never stops.
pub(crate) struct Stop {
    requested: AtomicBool,
    in_flight: AtomicUsize,
    poller: Option<Arc<Poller>>,
}

impl Stop {
    pub(crate) fn requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    fn wake(&self) {
        if let Some(poller) = &self.poller {
            poller.wake();
        }
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
            self.stop.wake();
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
        let worker_count = config.workers.max(1);
        let queue = Arc::new(WorkQueue::new(worker_count)?);
        let conn_poller = Arc::new(Poller::new()?);
        // The listener is non-blocking and registered level-triggered, so
        // the event loop's `wait` returns whenever connections are pending.
        listener.set_nonblocking(true)?;
        conn_poller.add(listener.as_raw_fd(), LISTENER)?;
        let (park_tx, park_rx) = mpsc::channel();
        let wakes = mpsc::channel();
        let serve = Serve::new(&config, handler, Some(Arc::clone(&conn_poller)));
        let stop = Arc::clone(&serve.stop);

        let shared = Arc::new(WorkerShared {
            serve,
            read_timeout: config.read_timeout,
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
            let tls = server_tls(config.tls);
            std::thread::Builder::new()
                .name("clarens-poller".into())
                .spawn(move || run_loop(shared, listener, park_rx, wakes, max_connections, tls))
                .expect("spawn poller")
        };

        Ok(HttpServer {
            addr: local_addr,
            stop,
            poller_thread: Some(poller_thread),
            workers,
            queue,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
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
        self.stop.wake();
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

/// What driving a connection reads (`conn::drive`).
pub(crate) struct Serve<H: Handler + ?Sized> {
    pub(crate) handler: Arc<H>,
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) stop: Arc<Stop>,
    pub(crate) now_fn: Arc<dyn Fn() -> i64 + Send + Sync>,
}

impl<H: Handler + ?Sized> Serve<H> {
    /// Serve with `config` and `handler`; a stop wakes `poller`.
    fn new(config: &ServerConfig, handler: Arc<H>, poller: Option<Arc<Poller>>) -> Serve<H> {
        let stop = Stop {
            requested: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            poller,
        };
        Serve {
            handler,
            telemetry: Arc::clone(&config.telemetry),
            stop: Arc::new(stop),
            now_fn: Arc::clone(&config.now_fn),
        }
    }
}

/// A TLS server's identity, which every connection's channel presents.
type ServerTls = Option<(Arc<Credential>, Arc<[Certificate]>)>;

fn server_tls(tls: Option<TlsConfig>) -> ServerTls {
    tls.map(|tls| (Arc::new(tls.credential), tls.roots.into()))
}

/// What the workers and the event loop share.
pub(crate) struct WorkerShared<H: Handler> {
    serve: Serve<H>,
    read_timeout: Duration,
    parker: Parker,
    queue: Arc<WorkQueue>,
}

/// Serve `handler` over a [`Pipe`] instead of a port: each connection is a
/// socketpair whose client end holds the server's end and runs
/// `conn::drive` on it, as a worker would, on the client's thread.
/// `config.tls`, `now_fn` and `telemetry` apply; nothing queues or waits,
/// so the rest does not.
pub fn serve_pipe<H: Handler>(config: ServerConfig, handler: Arc<H>) -> Pipe {
    let handler: Arc<dyn Handler> = handler;
    Pipe(Arc::new(Piped {
        serve: Serve::new(&config, handler, None),
        tls: server_tls(config.tls),
    }))
}

/// A server reached over socketpairs instead of a port ([`serve_pipe`]);
/// clones share it.
#[derive(Clone)]
pub struct Pipe(Arc<Piped>);

struct Piped {
    serve: Serve<dyn Handler>,
    tls: ServerTls,
}

impl Pipe {
    /// A new connection: the client end of a fresh socketpair. The server's
    /// end goes with it, driven whenever a read or write on the client end
    /// would block, and on flush; it closes when the client end drops.
    pub fn connect(&self) -> io::Result<Stream> {
        let (mut client, end) = Stream::pair()?;
        let Piped { serve, tls } = &*self.0;
        serve.telemetry.http.connections.inc();
        // No poller ever sees it, so its token is never read.
        let conn = open(end, 0, tls, (serve.now_fn)(), None);
        client.pump = Some(Box::new(Pump {
            pipe: self.clone(),
            conn: Some(conn),
            scratch: Scratch::new(),
            unpark: None,
        }));
        Ok(client)
    }
}

/// The server's end of one pipe connection, held by its client end.
pub(crate) struct Pump {
    pipe: Pipe,
    /// `None` once it closed.
    conn: Option<Box<Conn>>,
    scratch: Scratch,
    /// What unparks the thread that waits out a held reply, built once
    /// per thread, so what the reply waits on holds one entry for it.
    unpark: Option<(ThreadId, Waker)>,
}

impl Pump {
    /// Drive the connection until it waits on its client, or closes. A
    /// held reply is waited out here, on the client's thread.
    pub(crate) fn drive(&mut self) {
        let serve = &self.pipe.0.serve;
        let mut conn = self.conn.take();
        loop {
            conn = conn.and_then(|conn| conn::drive(conn, serve, &mut self.scratch));
            let held = conn.as_mut().filter(|c| c.wait().0 == Wait::Held);
            let Some(held) = held.and_then(|c| c.held.as_mut()) else {
                break;
            };
            let me = std::thread::current();
            let waker = match &mut self.unpark {
                Some((id, waker)) if *id == me.id() => waker,
                unpark => {
                    &unpark
                        .insert((me.id(), Waker::from(Arc::new(Unpark(me)))))
                        .1
                }
            };
            held.wait(waker);
        }
        self.conn = conn;
    }
}

/// Answer an over-budget connection with `503` + `Connection: close` and
/// drop it, without ever reading the request (the peer may not have sent
/// one yet, and we will not hold a slot waiting for it). One non-blocking
/// write: a fresh socket's send buffer takes the whole answer, and the
/// event loop never waits on a peer.
fn shed(sock: Option<Stream>, telemetry: &Telemetry) {
    let Some(mut sock) = sock else { return };
    telemetry.http.sheds.inc();
    let mut answer = Vec::new();
    let busy = Response::error(503, "connection limit reached, retry later");
    let _ = crate::parse::write_response(&mut answer, busy, false, false);
    let _ = sock.write(&answer);
}

/// Wakes held reply `.0`: its token down the waker channel, and the loop.
struct TokenWaker(u64, Sender<u64>, Arc<Poller>);

impl Wake for TokenWaker {
    fn wake(self: Arc<Self>) {
        if self.1.send(self.0).is_ok() {
            self.2.wake();
        }
    }
}

/// The server's one event loop. `event_loop::Loop` makes every decision;
/// this owns the epoll set, the listener, the parked connections, the park
/// and waker channels and the clock, and only translates: readiness,
/// `accept` results, parks and wakes become inputs, and effects become
/// system calls, readiness checks and counters.
fn run_loop<H: Handler>(
    shared: Arc<WorkerShared<H>>,
    listener: TcpListener,
    park_rx: Receiver<Box<Conn>>,
    (wake_tx, wake_rx): (Sender<u64>, Receiver<u64>),
    max_connections: usize,
    tls: ServerTls,
) {
    let (poller, stop) = (&shared.parker.poller, &shared.serve.stop);
    let (mut machine, mut listener, mut sock) = (Loop::new(max_connections), Some(listener), None);
    let mut parked: HashMap<u64, Box<Conn>> = HashMap::new();
    let (mut inputs, mut effects, mut events) = (VecDeque::from([Input::Tick(0)]), vec![], vec![]);
    // Only this loop claims budget slots; a closing connection frees one.
    let live = Arc::new(AtomicUsize::new(0));
    while let Some(input) = inputs.pop_front() {
        machine.step(Instant::now(), input, &mut effects);
        for effect in effects.drain(..) {
            // The machine accepts and moves the listener only while it is open.
            let fd = listener.as_ref().map_or(-1, |l| l.as_raw_fd());
            match effect {
                Effect::Accept => {
                    let accepted = listener.as_ref().map(|l| l.accept());
                    inputs.push_front(Input::Accepted(accept(accepted, &mut sock, &shared, &live)));
                }
                Effect::Admit(id) => admit(sock.take(), id, &live, &shared, &tls),
                Effect::Shed => shed(sock.take(), &shared.serve.telemetry),
                // A full interest list is memory exhausted, as in `accept`.
                Effect::Listener(Listener::Open) if poller.add(fd, LISTENER).is_err() => {
                    inputs.push_front(Input::Accepted(Accept::Exhausted));
                }
                Effect::Listener(Listener::Open) => {}
                Effect::Listener(Listener::Backoff) => poller.delete(fd),
                Effect::Listener(Listener::Closed) => listener = None,
                Effect::Dispatch(token) | Effect::Close(token, _) => {
                    if let Some(conn) = parked.remove(&token) {
                        unparked(conn, effect, &shared);
                    }
                }
                Effect::Check(token) => {
                    let Some(conn) = parked.get_mut(&token) else {
                        continue;
                    };
                    let waker = conn.waker.get_or_insert_with(|| {
                        let waker = TokenWaker(token, wake_tx.clone(), Arc::clone(poller));
                        Waker::from(Arc::new(waker))
                    });
                    if conn.held.as_mut().is_some_and(|held| held.ready(waker)) {
                        inputs.push_front(Input::Ready(token));
                    }
                }
                Effect::Wait(until) => {
                    let timeout = until.map(|at| at.saturating_duration_since(Instant::now()));
                    if poller.wait(timeout, &mut events).is_err() {
                        inputs.push_back(Input::WaitFailed);
                    }
                    if stop.requested() {
                        inputs.push_back(Input::Stop);
                    }
                    inputs.extend(events.iter().map(|&token| match token {
                        LISTENER => Input::ListenerReady,
                        token => Input::Ready(token),
                    }));
                    let parks = park_rx.try_iter();
                    inputs.extend(parks.filter_map(|conn| watch(conn, &mut parked, &shared)));
                    inputs.extend(wake_rx.try_iter().map(Input::Woken));
                    // After the flag: either this read sees the last request
                    // end, or that request's end wakes the loop.
                    inputs.push_back(Input::Tick(stop.in_flight.load(Ordering::SeqCst)));
                }
                Effect::Exit => return,
            }
        }
    }
}

/// One `accept` as the event loop's input. A socket waits in `sock` for the
/// loop's verdict, once it has passed what every accepted socket does.
fn accept<H: Handler>(
    accepted: Option<io::Result<(TcpStream, SocketAddr)>>,
    sock: &mut Option<Stream>,
    shared: &WorkerShared<H>,
    live: &AtomicUsize,
) -> Accept {
    match accepted {
        Some(Ok((accepted, _))) => {
            shared.serve.telemetry.http.connections.inc();
            // A socket that cannot be driven without blocking is dropped.
            if accepted.set_nonblocking(true).is_err() {
                return Accept::Other;
            }
            *sock = Some(Stream::from(accepted));
            Accept::Socket(live.load(Ordering::Acquire))
        }
        Some(Err(e)) if e.kind() == io::ErrorKind::WouldBlock => Accept::WouldBlock,
        Some(Err(e)) if sys::ACCEPT_EXHAUSTED.contains(&e.raw_os_error().unwrap_or(0)) => {
            Accept::Exhausted
        }
        _ => Accept::Other,
    }
}

/// Admit `sock` as connection `id`: claim its budget slot, open it, and
/// queue it for a worker.
fn admit<H: Handler>(
    sock: Option<Stream>,
    id: u64,
    live: &Arc<AtomicUsize>,
    shared: &WorkerShared<H>,
    tls: &ServerTls,
) {
    let Some(sock) = sock else { return };
    live.fetch_add(1, Ordering::AcqRel);
    let budget = BudgetGuard {
        count: Arc::clone(live),
    };
    let conn = open(sock, id, tls, (shared.serve.now_fn)(), Some(budget));
    shared.serve.telemetry.http.queue_depth.inc();
    shared.queue.push(conn);
}

/// Open connection `id` over `stream`, holding its budget slot; on a TLS
/// server, with its channel's server end, validating certificates at
/// `now`. The event loop and a pipe open every connection here.
fn open(
    stream: Stream,
    id: u64,
    tls: &ServerTls,
    now: i64,
    budget: Option<BudgetGuard>,
) -> Box<Conn> {
    let tls = tls.as_ref().map(|(credential, roots)| {
        let (credential, roots) = (Arc::clone(credential), Arc::clone(roots));
        let channel = SecureChannel::server(credential, roots, now, &mut SecretRng);
        Box::new(Tls {
            channel,
            peer: None,
        })
    });
    Box::new(Conn {
        stream,
        inbuf: Vec::new(),
        scan: Scan::default(),
        served: 0,
        id,
        registered: false,
        pending_write: None,
        deadline: Instant::now(),
        tls,
        held: None,
        waker: None,
        _budget: budget,
    })
}

/// Arm a connection a worker parked, one-shot for the bytes or the room it
/// waits on (a held reply waits on no descriptor), and hold it: its input,
/// or `None` if it cannot be watched (it could never wake, so it closes
/// here).
fn watch<H: Handler>(
    mut conn: Box<Conn>,
    parked: &mut HashMap<u64, Box<Conn>>,
    shared: &WorkerShared<H>,
) -> Option<Input> {
    let (token, (wait, deadline)) = (conn.id, conn.wait());
    if wait != Wait::Held {
        let fd = conn.stream.as_raw_fd();
        (shared.parker.poller)
            .arm(fd, token, wait == Wait::Write, conn.registered)
            .ok()?;
        conn.registered = true;
    }
    parked_gauge(&shared.serve.telemetry.http, wait).inc();
    parked.insert(token, conn);
    Some(Input::Parked(token, wait, deadline))
}

/// A connection leaves the event loop's parked set: counted (before a
/// close drops it, so a peer that sees EOF sees the count), and queued for
/// a worker if dispatched — a held reply to be answered.
fn unparked<H: Handler>(mut conn: Box<Conn>, effect: Effect, shared: &WorkerShared<H>) {
    let http = &shared.serve.telemetry.http;
    let wait = conn.wait().0;
    parked_gauge(http, wait).dec();
    match effect {
        Effect::Dispatch(_) => {
            match conn.held.as_mut().filter(|_| wait == Wait::Held) {
                Some(held) => held.due = true,
                None => http.poll_wakeups.inc(),
            }
            http.queue_depth.inc();
            shared.queue.push(conn);
        }
        Effect::Close(_, Why::Idle) => http.idle_timeouts.inc(),
        Effect::Close(_, Why::Stalled) => http.write_stalls.inc(),
        _ => {}
    }
}

/// The gauge a connection parked on the event loop counts in:
/// `parked_writers`, `held_replies`, or `parked`, which workers keeping an
/// idle connection count in too.
fn parked_gauge(http: &HttpCounters, wait: Wait) -> &Gauge {
    match wait {
        Wait::Write => &http.parked_writers,
        Wait::Held => &http.held_replies,
        Wait::Read => &http.parked,
    }
}

/// One worker: drive connections from the queue, or the one it kept,
/// until shutdown closes the queue. Once the server is stopping it starts
/// no request: a connection with no write in flight closes unserved, and
/// one with a response on its way (or a held reply due) gets it finished
/// while the event loop drains.
fn worker_loop<H: Handler>(me: usize, shared: Arc<WorkerShared<H>>) {
    // The worker's scratch arena lives as long as the thread: buffers
    // recycle across requests *and* connections.
    let mut scratch = Scratch::new();
    let http = &shared.serve.telemetry.http;
    // The idle connection this worker just served and kept, if any.
    let mut kept: Option<Box<Conn>> = None;
    loop {
        let conn = match kept.take() {
            Some(conn) => {
                http.parked.inc();
                let woken = shared.queue.keep(me, &conn);
                http.parked.dec();
                match woken {
                    Woken::Bytes => {
                        http.worker_wakeups.inc();
                        conn
                    }
                    Woken::Work => {
                        shared.parker.park(conn);
                        continue;
                    }
                    Woken::Deadline => {
                        http.idle_timeouts.inc();
                        continue; // dropping it closes the socket
                    }
                }
            }
            None => match shared.queue.pop(me) {
                Some(conn) => {
                    http.queue_depth.dec();
                    conn
                }
                None => return,
            },
        };
        let idle = |conn: &Conn| conn.pending_write.is_none() && conn.held.is_none();
        if shared.serve.stop.requested() && idle(&conn) {
            // Stopping: a connection with no write in flight closes
            // unserved; one with a response on its way finishes it.
            continue;
        }
        if let Some(mut conn) = conn::drive(conn, &shared.serve, &mut scratch) {
            conn.deadline = Instant::now() + shared.read_timeout;
            // An idle connection stays with this worker unless work is
            // queued; one with a write in flight or a held reply waits on
            // the poller.
            if idle(&conn) {
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
pub(crate) fn classify_io_error(error: &io::Error, http: &HttpCounters) {
    if crate::parse::is_truncation(error) {
        // The body source under-delivered against its declared
        // Content-Length — a server-side framing hazard, not peer churn.
        http.stream_truncations.inc();
        return;
    }
    let idle = matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    );
    if idle {
        http.idle_timeouts.inc();
    } else {
        http.peer_resets.inc();
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
            let config = test_config(mode);
            let telemetry = Arc::clone(&config.telemetry);
            let server = HttpServer::bind("127.0.0.1:0", config, echo_handler()).unwrap();
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
            // Counted once each response is written: shutdown joins the
            // workers.
            server.shutdown();
            assert_eq!(telemetry.http.requests.get(), 5);
            assert_eq!(telemetry.http.connections.get(), 1);
        }
    }

    /// A bare server built from the default config records all the same:
    /// its connection, requests and 5xx answers land in `config.telemetry`.
    #[test]
    fn default_config_records_into_its_plane() {
        let config = ServerConfig::default();
        let telemetry = Arc::clone(&config.telemetry);
        let handler =
            Arc::new(
                |req: Request, _peer: Option<&PeerInfo>| match req.target.as_str() {
                    "/fail" => Response::error(500, "boom"),
                    _ => Response::ok("text/plain", "ok"),
                },
            );
        let server = HttpServer::bind("127.0.0.1:0", config, handler).unwrap();
        let batch = "GET /a HTTP/1.1\r\nHost: h\r\n\r\n\
                     GET /fail HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
        let sock = Mode::Plain.request(server.local_addr(), batch).unwrap();
        BufReader::new(sock).read_to_end(&mut Vec::new()).unwrap();
        server.shutdown();
        assert_eq!(telemetry.http.connections.get(), 1);
        assert_eq!(telemetry.http.requests.get(), 2);
        assert_eq!(telemetry.http.responses_5xx.get(), 1);
        assert_eq!(telemetry.total_snapshot().count, 2);
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
            let config = test_config(mode);
            let telemetry = Arc::clone(&config.telemetry);
            let server = HttpServer::bind("127.0.0.1:0", config, echo_handler()).unwrap();
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
            server.shutdown();
            assert_eq!(telemetry.http.requests.get(), 160);
            assert_eq!(telemetry.http.connections.get(), 160);
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
            let config = test_config(mode);
            let telemetry = Arc::clone(&config.telemetry);
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
            let config = test_config(mode);
            let telemetry = Arc::clone(&config.telemetry);
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
