//! Station servers and the UDP publication path.
//!
//! "Clarens servers can publish service information using a UDP-based
//! application to so called station servers that in turn republish it to
//! the MonALISA network" (paper §2.4, Figure 3). A [`StationServer`] binds
//! a real UDP socket and ingests [`Publication`] datagrams into its
//! [`Table`]. Every publication the table takes is offered to the
//! subscribers' tables too — the JINI-network role — which the station
//! holds weakly, so a dropped subscriber has unsubscribed. Both threads
//! block, the ingest in `recv_from` and the query listener in `accept`;
//! shutting down wakes each of them once.

use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use crate::schema::{MonitorSample, Publication, ServiceDescriptor, ServiceQuery};
use crate::table::Table;

/// Shared station state.
struct StationState {
    table: RwLock<Table>,
    subscribers: Mutex<Vec<Weak<RwLock<Table>>>>,
    received: AtomicU64,
    rejected: AtomicU64,
}

/// A running station server.
pub struct StationServer {
    /// Human-readable station name.
    pub name: String,
    addr: SocketAddr,
    query_addr: SocketAddr,
    state: Arc<StationState>,
    stop: Arc<AtomicBool>,
    /// The ingest socket, kept to send the datagram that wakes its thread.
    wake: UdpSocket,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl StationServer {
    /// Bind a UDP socket on `addr` (use port 0 for an ephemeral port) and
    /// start the ingest and query threads.
    pub fn spawn(name: impl Into<String>, addr: &str) -> std::io::Result<StationServer> {
        let socket = UdpSocket::bind(addr)?;
        let local = socket.local_addr()?;
        let wake = socket.try_clone()?;
        // TCP query endpoint: the synchronous lookup path a cache-less
        // discovery client has to take (one connection per query, like a
        // 2005-era JINI lookup). Protocol: 4-byte BE length + JSON query
        // in; 4-byte BE length + JSON descriptor array out.
        let query_listener = TcpListener::bind("127.0.0.1:0")?;
        let query_addr = query_listener.local_addr()?;
        let state = Arc::new(StationState {
            table: RwLock::default(),
            subscribers: Mutex::default(),
            received: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));

        let (thread_state, thread_stop) = (Arc::clone(&state), Arc::clone(&stop));
        let ingest_thread = std::thread::Builder::new()
            .name(format!("station-{local}"))
            .spawn(move || {
                let mut buf = vec![0u8; 64 * 1024];
                while let Ok((len, _peer)) = socket.recv_from(&mut buf) {
                    if thread_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match Publication::from_datagram(&buf[..len]) {
                        Ok(publication) => {
                            thread_state.received.fetch_add(1, Ordering::Relaxed);
                            ingest(&thread_state, &publication);
                        }
                        Err(_) => {
                            thread_state.rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
            .expect("spawn station thread");

        let (query_state, query_stop) = (Arc::clone(&state), Arc::clone(&stop));
        let query_thread = std::thread::Builder::new()
            .name(format!("station-query-{query_addr}"))
            .spawn(move || {
                while let Ok((mut sock, _)) = query_listener.accept() {
                    if query_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    sock.set_read_timeout(Some(Duration::from_secs(2))).ok();
                    let _ = serve_query(&query_state, &mut sock);
                }
            })
            .expect("spawn station query thread");

        Ok(StationServer {
            name: name.into(),
            addr: local,
            query_addr,
            state,
            stop,
            wake,
            threads: vec![ingest_thread, query_thread],
        })
    }

    /// The UDP address publishers should send to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The TCP address remote queries connect to.
    pub fn query_addr(&self) -> SocketAddr {
        self.query_addr
    }

    /// Offer every publication this station takes to `subscriber` as well
    /// (the "republish to the MonALISA network" arrow in Figure 3). The
    /// station's state is replayed into it and the subscription registered
    /// under one lock, so nothing published in between is missed. The
    /// station holds `subscriber` weakly: dropping it unsubscribes.
    pub fn subscribe(&self, subscriber: &Arc<RwLock<Table>>) {
        let table = self.state.table.read();
        subscriber.write().merge(&table);
        self.state
            .subscribers
            .lock()
            .push(Arc::downgrade(subscriber));
    }

    /// Direct (synchronous) query against this station's state — what a
    /// discovery server without a local cache has to do per lookup.
    pub fn query(&self, query: &ServiceQuery) -> Vec<ServiceDescriptor> {
        self.state.table.read().query(query).cloned().collect()
    }

    /// Current monitoring value for a metric path, if known.
    pub fn sample(&self, farm: &str, node: &str, key: &str) -> Option<MonitorSample> {
        let path = format!("{farm}/{node}/{key}");
        self.state.table.read().sample(&path).cloned()
    }

    /// Number of live service entries.
    pub fn service_count(&self) -> usize {
        self.state.table.read().service_count()
    }

    /// Datagrams accepted / rejected so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.state.received.load(Ordering::Relaxed),
            self.state.rejected.load(Ordering::Relaxed),
        )
    }

    /// Drop entries older than `ttl_secs` relative to `now`.
    pub fn expire(&self, now: i64, ttl_secs: i64) {
        self.state.table.write().expire(now, ttl_secs);
    }

    /// Inject a publication directly (in-process path used by tests and by
    /// co-located servers, bypassing UDP).
    pub fn publish_local(&self, publication: Publication) {
        self.state.received.fetch_add(1, Ordering::Relaxed);
        ingest(&self.state, &publication);
    }

    /// Stop the ingest and query threads.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for StationServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake each blocked thread once: a datagram to the ingest socket
        // from itself, a connection to the query listener.
        let _ = self.wake.send_to(&[], self.addr);
        let _ = TcpStream::connect(self.query_addr);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Serve one TCP query request.
fn serve_query(state: &StationState, sock: &mut TcpStream) -> std::io::Result<()> {
    use std::io::{Read, Write};
    let mut len_buf = [0u8; 4];
    sock.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > 64 * 1024 {
        return Ok(()); // drop oversized queries
    }
    let mut body = vec![0u8; len];
    sock.read_exact(&mut body)?;
    let query = std::str::from_utf8(&body)
        .ok()
        .and_then(|t| clarens_wire::json::parse(t).ok())
        .and_then(|v| ServiceQuery::from_value(&v).ok())
        .unwrap_or_default();
    let hits = state
        .table
        .read()
        .query(&query)
        .map(ServiceDescriptor::to_value)
        .collect();
    let payload = clarens_wire::json::to_string(&clarens_wire::Value::Array(hits)).into_bytes();
    sock.write_all(&(payload.len() as u32).to_be_bytes())?;
    sock.write_all(&payload)?;
    sock.flush()
}

/// Largest reply [`query_station`] accepts. The length prefix comes from
/// the station, so it is checked before anything is allocated for it.
const MAX_QUERY_REPLY: usize = 16 << 20;

/// Client side of the TCP query protocol: one connection per query.
pub fn query_station(
    addr: SocketAddr,
    query: &ServiceQuery,
) -> std::io::Result<Vec<ServiceDescriptor>> {
    use std::io::{Read, Write};
    let mut sock = TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(Duration::from_secs(2)))?;
    let payload = clarens_wire::json::to_string(&query.to_value()).into_bytes();
    sock.write_all(&(payload.len() as u32).to_be_bytes())?;
    sock.write_all(&payload)?;
    sock.flush()?;
    let mut len_buf = [0u8; 4];
    sock.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_QUERY_REPLY {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("station announces a {len}-byte reply (limit {MAX_QUERY_REPLY})"),
        ));
    }
    let mut body = vec![0u8; len];
    sock.read_exact(&mut body)?;
    let text = std::str::from_utf8(&body)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF8"))?;
    let value = clarens_wire::json::parse(text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let hits = value
        .as_array()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "not an array"))?
        .iter()
        .filter_map(|v| ServiceDescriptor::from_value(v).ok())
        .collect();
    Ok(hits)
}

/// Ask every station `query`: the newest descriptor per key, merged by
/// [`Table::newest`], and whether any station answered (none is blind; an
/// empty answer means "none exists").
pub fn query_stations(
    stations: impl IntoIterator<Item = SocketAddr>,
    query: &ServiceQuery,
) -> (Vec<ServiceDescriptor>, bool) {
    let answers: Vec<_> = stations
        .into_iter()
        .flat_map(|station| query_station(station, query))
        .collect();
    let answered = !answers.is_empty();
    (Table::newest(answers.into_iter().flatten()), answered)
}

/// Take `publication` into the station's table and, if it was taken, into
/// every live subscriber's, pruning the dropped ones — all under the
/// station's lock, which [`StationServer::subscribe`] holds too.
fn ingest(state: &StationState, publication: &Publication) {
    let mut table = state.table.write();
    if table.offer(publication) {
        let mut subscribers = state.subscribers.lock();
        subscribers.retain(|subscriber| {
            let Some(subscriber) = subscriber.upgrade() else {
                return false;
            };
            subscriber.write().offer(publication);
            true
        });
    }
}

/// The publisher side: a Clarens server uses this to announce its services
/// over UDP to one or more stations.
pub struct UdpPublisher {
    socket: UdpSocket,
    stations: Vec<SocketAddr>,
}

impl UdpPublisher {
    /// Create a publisher targeting the given station addresses.
    pub fn new(stations: Vec<SocketAddr>) -> std::io::Result<UdpPublisher> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        Ok(UdpPublisher { socket, stations })
    }

    /// Publish to every station.
    pub fn publish(&self, publication: &Publication) -> std::io::Result<()> {
        let datagram = publication.to_datagram();
        for station in &self.stations {
            self.socket.send_to(&datagram, station)?;
        }
        Ok(())
    }
}

/// Wait (bounded) until `predicate` is true; returns false on timeout.
/// UDP delivery is asynchronous, so tests and examples need this.
pub fn wait_until(timeout: Duration, mut predicate: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    while std::time::Instant::now() < deadline {
        if predicate() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    predicate()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor(service: &str, ts: i64) -> ServiceDescriptor {
        ServiceDescriptor {
            url: "http://h:1/clarens".into(),
            server_dn: "/O=g/CN=h".into(),
            service: service.into(),
            methods: vec![format!("{service}.run")],
            attributes: Default::default(),
            timestamp: ts,
        }
    }

    #[test]
    fn udp_publish_and_query() {
        let station = StationServer::spawn("s1", "127.0.0.1:0").unwrap();
        let publisher = UdpPublisher::new(vec![station.local_addr()]).unwrap();
        publisher
            .publish(&Publication::Service(descriptor("file", 100)))
            .unwrap();
        assert!(wait_until(Duration::from_secs(2), || station
            .service_count()
            == 1));
        let hits = station.query(&ServiceQuery::by_service("file"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].service, "file");
        station.shutdown();
    }

    #[test]
    fn stale_publication_ignored() {
        let station = StationServer::spawn("s1", "127.0.0.1:0").unwrap();
        station.publish_local(Publication::Service(descriptor("file", 200)));
        station.publish_local(Publication::Service(descriptor("file", 100))); // older
        let hits = station.query(&ServiceQuery::by_service("file"));
        assert_eq!(hits[0].timestamp, 200);
        station.shutdown();
    }

    #[test]
    fn garbage_datagram_counted_not_fatal() {
        let station = StationServer::spawn("s1", "127.0.0.1:0").unwrap();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.send_to(b"garbage!!", station.local_addr()).unwrap();
        let publisher = UdpPublisher::new(vec![station.local_addr()]).unwrap();
        publisher
            .publish(&Publication::Service(descriptor("file", 1)))
            .unwrap();
        assert!(wait_until(Duration::from_secs(2), || station
            .service_count()
            == 1));
        let (received, rejected) = station.stats();
        assert_eq!(received, 1);
        assert_eq!(rejected, 1);
        station.shutdown();
    }

    #[test]
    fn subscription_replays_and_streams() {
        let station = StationServer::spawn("s1", "127.0.0.1:0").unwrap();
        station.publish_local(Publication::Service(descriptor("early", 1)));
        let subscriber = Arc::new(RwLock::new(Table::default()));
        station.subscribe(&subscriber);
        let services = |table: &RwLock<Table>| -> Vec<String> {
            let all = ServiceQuery::default();
            table
                .read()
                .query(&all)
                .map(|d| d.service.clone())
                .collect()
        };
        // Replay of pre-existing state, then live updates.
        assert_eq!(services(&subscriber), ["early"]);
        station.publish_local(Publication::Service(descriptor("late", 2)));
        assert_eq!(services(&subscriber), ["early", "late"]);
        // A dropped subscriber is pruned at the next publication.
        drop(subscriber);
        station.publish_local(Publication::Service(descriptor("later", 3)));
        assert!(station.state.subscribers.lock().is_empty());
        station.shutdown();
    }

    #[test]
    fn expiry_drops_stale_entries() {
        let station = StationServer::spawn("s1", "127.0.0.1:0").unwrap();
        station.publish_local(Publication::Service(descriptor("old", 100)));
        station.publish_local(Publication::Service(descriptor("new", 990)));
        station.expire(1000, 60);
        assert_eq!(station.service_count(), 1);
        assert_eq!(station.query(&ServiceQuery::by_service("new")).len(), 1);
        station.shutdown();
    }

    #[test]
    fn samples_stored_by_path() {
        let station = StationServer::spawn("s1", "127.0.0.1:0").unwrap();
        station.publish_local(Publication::Sample(MonitorSample {
            farm: "f".into(),
            node: "n".into(),
            key: "cpu".into(),
            value: 0.5,
            timestamp: 10,
        }));
        assert_eq!(station.sample("f", "n", "cpu").unwrap().value, 0.5);
        assert!(station.sample("f", "n", "mem").is_none());
        station.shutdown();
    }

    #[test]
    fn tcp_query_protocol() {
        let station = StationServer::spawn("s1", "127.0.0.1:0").unwrap();
        station.publish_local(Publication::Service(descriptor("file", 1)));
        station.publish_local(Publication::Service(descriptor("proof", 2)));

        let hits = query_station(station.query_addr(), &ServiceQuery::by_service("file")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].service, "file");
        // Empty query returns everything.
        let all = query_station(station.query_addr(), &ServiceQuery::default()).unwrap();
        assert_eq!(all.len(), 2);
        // No match returns empty.
        let none = query_station(station.query_addr(), &ServiceQuery::by_service("nope")).unwrap();
        assert!(none.is_empty());
        station.shutdown();
    }

    #[test]
    fn an_oversized_reply_is_refused_before_it_is_allocated() {
        use std::io::{Read, Write};
        // A station that answers any query with a u32::MAX length prefix
        // and then holds its socket open, sending nothing more.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done) = std::sync::mpsc::channel::<()>();
        let station = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut len = [0u8; 4];
            sock.read_exact(&mut len).unwrap();
            let mut query = vec![0u8; u32::from_be_bytes(len) as usize];
            sock.read_exact(&mut query).unwrap();
            sock.write_all(&u32::MAX.to_be_bytes()).unwrap();
            let _ = done.recv();
        });
        let started = std::time::Instant::now();
        let err = query_station(addr, &ServiceQuery::default()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        // The read timeout is 2 s: an answer this fast did not wait for a body.
        assert!(started.elapsed() < Duration::from_secs(1));
        done_tx.send(()).unwrap();
        station.join().unwrap();
    }

    #[test]
    fn query_roundtrip_via_value() {
        let q = ServiceQuery::by_method("file.read").with_attribute("site", "caltech");
        let v = q.to_value();
        assert_eq!(ServiceQuery::from_value(&v).unwrap(), q);
    }

    /// A datagram larger than UDP carries is refused at the send: the
    /// error surfaces, and the publisher's next datagram goes through.
    #[test]
    fn an_oversized_datagram_fails_its_send_and_the_next_goes_through() {
        let station = StationServer::spawn("s1", "127.0.0.1:0").unwrap();
        let publisher = UdpPublisher::new(vec![station.local_addr()]).unwrap();
        let mut huge = descriptor("huge", 1);
        huge.attributes.insert("pad".into(), "x".repeat(70_000));
        let err = publisher.publish(&Publication::Service(huge)).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(90), "EMSGSIZE, got {err}");
        publisher
            .publish(&Publication::Service(descriptor("file", 2)))
            .unwrap();
        assert!(wait_until(Duration::from_secs(2), || station
            .service_count()
            == 1));
        station.shutdown();
    }

    #[test]
    fn publish_to_multiple_stations() {
        let s1 = StationServer::spawn("s1", "127.0.0.1:0").unwrap();
        let s2 = StationServer::spawn("s2", "127.0.0.1:0").unwrap();
        let publisher = UdpPublisher::new(vec![s1.local_addr(), s2.local_addr()]).unwrap();
        publisher
            .publish(&Publication::Service(descriptor("file", 1)))
            .unwrap();
        assert!(wait_until(Duration::from_secs(2), || {
            s1.service_count() == 1 && s2.service_count() == 1
        }));
        s1.shutdown();
        s2.shutdown();
    }
}
