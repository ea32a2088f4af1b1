//! HTTP client with keep-alive connection reuse and optional secure
//! channel, mirroring the Python client the paper's Figure-4 test used
//! ("a single process opening connections to the server and completing
//! requests asynchronously").
//!
//! [`HttpClient::request`] is one exchange. It never sends a request twice:
//! a failure says how far the request got ([`ClientError`]), and the caller
//! that knows whether the operation is idempotent decides what happens next
//! (`clarens::client`, DESIGN.md §10.1).

use std::io::{BufReader, ErrorKind};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use clarens_pki::cert::{Certificate, Credential};
use clarens_pki::dn::DistinguishedName;
use clarens_pki::SecureStream;

use crate::parse::{read_response, write_request, ClientResponse, ParseError};
use crate::types::{Method, Request};

/// TLS settings for the client side.
pub struct ClientTls {
    /// Client credential presented to the server.
    pub credential: Credential,
    /// Trust roots used to validate the server certificate.
    pub roots: Vec<Certificate>,
    /// Clock for certificate validation.
    pub now_fn: Box<dyn Fn() -> i64 + Send + Sync>,
}

enum Connection {
    Plain(BufReader<TcpStream>),
    Secure(Box<BufReader<SecureStream<TcpStream>>>),
}

impl Connection {
    fn socket(&self) -> &TcpStream {
        match self {
            Connection::Plain(reader) => reader.get_ref(),
            Connection::Secure(reader) => reader.get_ref().get_ref(),
        }
    }

    /// Is this idle keep-alive connection still usable? Between exchanges
    /// the peer owes us nothing, so a readable socket means it closed the
    /// connection (or broke framing); only "would block" is healthy.
    fn idle_and_open(&self) -> bool {
        let sock = self.socket();
        if sock.set_nonblocking(true).is_err() {
            return false;
        }
        let quiet = matches!(
            sock.peek(&mut [0u8; 1]),
            Err(e) if e.kind() == ErrorKind::WouldBlock
        );
        sock.set_nonblocking(false).is_ok() && quiet
    }
}

/// Why an exchange failed, by how far the request got — which is what
/// decides whether it may be sent again.
#[derive(Debug)]
pub enum ClientError {
    /// Connect, handshake or write failed: the peer never received the
    /// whole request, so it cannot have acted on it.
    NotSent(String),
    /// A reused keep-alive connection was found closed by the liveness
    /// peek before anything was written. The connection is dropped; the
    /// next request opens a new one.
    Stale,
    /// The request was written, but no complete response arrived within
    /// the timeout. The peer may or may not have acted on it.
    TimedOut,
    /// The request was written, but the response was cut short or
    /// malformed. The peer may or may not have acted on it.
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::NotSent(m) => write!(f, "request not sent: {m}"),
            ClientError::Stale => write!(f, "keep-alive connection closed by peer"),
            ClientError::TimedOut => write!(f, "timed out waiting for the response"),
            ClientError::BadResponse(m) => write!(f, "bad response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

fn not_sent(e: impl std::fmt::Display) -> ClientError {
    ClientError::NotSent(e.to_string())
}

/// A failure after the request was written, while reading the response.
fn unanswered(e: ParseError) -> ClientError {
    match e {
        ParseError::Io(io) if matches!(io.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            ClientError::TimedOut
        }
        other => ClientError::BadResponse(other.to_string()),
    }
}

/// A connection-reusing HTTP client bound to one server address.
pub struct HttpClient {
    addr: String,
    tls: Option<ClientTls>,
    connection: Option<Connection>,
    /// Server identity from the TLS handshake (None for plaintext).
    server_identity: Option<DistinguishedName>,
    /// Bound on the connect and on every socket read and write.
    timeout: Duration,
    max_body: usize,
}

impl HttpClient {
    /// A plaintext client.
    pub fn new(addr: impl Into<String>) -> Self {
        HttpClient {
            addr: addr.into(),
            tls: None,
            connection: None,
            server_identity: None,
            timeout: Duration::from_secs(30),
            max_body: crate::parse::DEFAULT_MAX_BODY,
        }
    }

    /// A secure-channel client.
    pub fn new_tls(addr: impl Into<String>, tls: ClientTls) -> Self {
        HttpClient {
            tls: Some(tls),
            ..HttpClient::new(addr)
        }
    }

    /// The server's authenticated identity, once a TLS connection has been
    /// established.
    pub fn server_identity(&self) -> Option<&DistinguishedName> {
        self.server_identity.as_ref()
    }

    /// Whether a keep-alive connection is held, i.e. whether the next
    /// request reuses one instead of connecting.
    pub fn is_connected(&self) -> bool {
        self.connection.is_some()
    }

    /// Change the timeout, applying it to the live connection (if any) as
    /// well as future ones. It bounds the connect and each socket read and
    /// write, so callers with a per-call deadline set this to the
    /// remaining budget before each request and neither an unreachable
    /// nor a stalled server can hang them past the deadline.
    pub fn set_read_timeout(&mut self, timeout: Duration) {
        // A zero timeout is rejected by the socket API; clamp up.
        self.timeout = timeout.max(Duration::from_millis(1));
        if let Some(conn) = &self.connection {
            self.bound(conn.socket());
        }
    }

    /// The currently configured timeout.
    pub fn read_timeout(&self) -> Duration {
        self.timeout
    }

    fn bound(&self, sock: &TcpStream) {
        sock.set_read_timeout(Some(self.timeout)).ok();
        sock.set_write_timeout(Some(self.timeout)).ok();
    }

    fn connect(&mut self) -> Result<(), ClientError> {
        let addrs: Vec<_> = self.addr.to_socket_addrs().map_err(not_sent)?.collect();
        // A name with several addresses shares the one bound among them.
        let each = self.timeout / addrs.len().max(1) as u32;
        let mut result = Err(not_sent(format!("{} resolves to no address", self.addr)));
        for addr in &addrs {
            result = TcpStream::connect_timeout(addr, each).map_err(not_sent);
            if result.is_ok() {
                break;
            }
        }
        let sock = result?;
        self.bound(&sock);
        sock.set_nodelay(true).ok();
        match &self.tls {
            None => {
                self.connection = Some(Connection::Plain(BufReader::new(sock)));
            }
            Some(tls) => {
                let now = (tls.now_fn)();
                let mut rng = rand::rng();
                let stream =
                    SecureStream::connect(sock, &tls.credential, &tls.roots, now, &mut rng)
                        .map_err(not_sent)?;
                self.server_identity = Some(stream.peer_identity().clone());
                self.connection = Some(Connection::Secure(Box::new(BufReader::new(stream))));
            }
        }
        Ok(())
    }

    /// One exchange: send `request` on the kept connection (or a new one)
    /// and read the response. Nothing is ever sent twice; the error says
    /// how far the request got.
    pub fn request(&mut self, request: &Request) -> Result<ClientResponse, ClientError> {
        match &self.connection {
            Some(conn) if !conn.idle_and_open() => {
                self.connection = None;
                return Err(ClientError::Stale);
            }
            Some(_) => {}
            None => self.connect()?,
        }
        let max_body = self.max_body;
        let result = match self.connection.as_mut().expect("connected above") {
            Connection::Plain(reader) => write_request(reader.get_mut(), request)
                .map_err(not_sent)
                .and_then(|()| read_response(reader, max_body).map_err(unanswered)),
            Connection::Secure(reader) => write_request(reader.get_mut(), request)
                .map_err(not_sent)
                .and_then(|()| read_response(reader.as_mut(), max_body).map_err(unanswered)),
        };
        if !matches!(&result, Ok(response) if response.keep_alive) {
            self.connection = None;
        }
        result
    }

    /// Convenience: GET a path.
    pub fn get(&mut self, target: &str) -> Result<ClientResponse, ClientError> {
        let mut req = Request::new(Method::Get, target);
        req.headers.set("host", self.addr.clone());
        self.request(&req)
    }

    /// Convenience: POST a body.
    pub fn post(
        &mut self,
        target: &str,
        content_type: &str,
        body: impl Into<Vec<u8>>,
    ) -> Result<ClientResponse, ClientError> {
        let mut req = Request::new(Method::Post, target);
        req.headers.set("host", self.addr.clone());
        req.headers.set("content-type", content_type);
        req.body = body.into();
        self.request(&req)
    }

    /// Drop the persistent connection (next request reconnects). Used by
    /// the GT3-style baseline comparison, which reconnects per call.
    pub fn close(&mut self) {
        self.connection = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Handler, HttpServer, RequestContext, ServerConfig};
    use crate::test_modes::{client_tls, Mode, CLIENT_DN, SERVER_DN};
    use crate::types::Response;
    use clarens_pki::cert::CertificateAuthority;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Short keep-alive timeout so `shutdown()` joins quickly in tests.
    fn test_config() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_millis(200),
            ..Default::default()
        }
    }

    fn start(config: ServerConfig) -> HttpServer {
        let handler = Arc::new(CountingHandler {
            hits: AtomicU64::new(0),
        });
        HttpServer::bind("127.0.0.1:0", config, handler).unwrap()
    }

    struct CountingHandler {
        hits: AtomicU64,
    }

    impl Handler for CountingHandler {
        fn handle(&self, request: crate::types::Request, ctx: RequestContext<'_>) -> Response {
            let n = self.hits.fetch_add(1, Ordering::Relaxed);
            let who = ctx.peer.map(|p| p.identity.to_string()).unwrap_or_default();
            Response::ok(
                "text/plain",
                format!("hit={n} path={} peer={who}", request.path()),
            )
        }
    }

    #[test]
    fn plaintext_client_reuses_connection() {
        let server = start(test_config());
        let mut client = HttpClient::new(server.local_addr().to_string());
        for i in 0..10 {
            let resp = client.get(&format!("/p{i}")).unwrap();
            assert_eq!(resp.status, 200);
            assert!(String::from_utf8_lossy(&resp.body).contains(&format!("hit={i}")));
        }
        // All ten requests over one connection.
        assert_eq!(server.stats().connections.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn client_reconnects_after_server_close() {
        let server = start(test_config());
        let mut client = HttpClient::new(server.local_addr().to_string());
        assert_eq!(client.get("/a").unwrap().status, 200);
        client.close();
        assert_eq!(client.get("/b").unwrap().status, 200);
        assert_eq!(server.stats().connections.load(Ordering::Relaxed), 2);
        server.shutdown();
    }

    #[test]
    fn a_failed_exchange_is_never_resent_and_says_how_far_it_got() {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (seen_tx, seen) = std::sync::mpsc::channel();
        // Connection 1: read the request, answer nothing, hang up.
        // Connection 2: read it, stall until the client gives up.
        // Connection 3: answer, then close without announcing it.
        // Connection 4: answer.
        let peer = std::thread::spawn(move || {
            for script in ["hang up", "stall", "answer and close", "answer"] {
                let (mut sock, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let n = sock.read(&mut buf).unwrap();
                assert!(buf[..n].ends_with(b"\r\n\r\n"));
                seen_tx.send(script).unwrap();
                match script {
                    "hang up" => {}
                    "stall" => assert_eq!(sock.read(&mut buf).unwrap(), 0),
                    _ => sock
                        .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                        .unwrap(),
                }
            }
        });
        let mut client = HttpClient::new(addr);
        client.set_read_timeout(Duration::from_millis(100));
        assert!(matches!(client.get("/1"), Err(ClientError::BadResponse(_))));
        assert!(matches!(client.get("/2"), Err(ClientError::TimedOut)));
        assert_eq!(client.get("/3").unwrap().body, b"ok");
        // The kept connection is closed under the client: the peek finds
        // out before a byte is written, and only the next request connects.
        peer_closed(&client);
        assert!(matches!(client.get("/4"), Err(ClientError::Stale)));
        assert!(!client.is_connected());
        assert_eq!(client.get("/4").unwrap().body, b"ok");
        peer.join().unwrap();
        assert_eq!(seen.try_iter().count(), 4, "one request per connection");

        // Nothing listens here any more: nothing can have been received.
        assert!(matches!(client.get("/5"), Err(ClientError::Stale)));
        assert!(matches!(client.get("/5"), Err(ClientError::NotSent(_))));
    }

    /// Wait until the peer's close has reached the client's kept socket.
    fn peer_closed(client: &HttpClient) {
        let sock = client.connection.as_ref().unwrap().socket();
        sock.set_read_timeout(None).unwrap();
        assert_eq!(sock.peek(&mut [0u8; 1]).unwrap(), 0);
    }

    #[test]
    fn tls_end_to_end_with_mutual_auth() {
        let server = start(Mode::Tls.server_config(test_config()));
        let mut client = HttpClient::new_tls(server.local_addr().to_string(), client_tls());
        let resp = client.get("/secure").unwrap();
        assert_eq!(resp.status, 200);
        let text = String::from_utf8_lossy(&resp.body).to_string();
        assert!(text.contains(&format!("peer={CLIENT_DN}")), "{text}");
        assert_eq!(client.server_identity().unwrap().to_string(), SERVER_DN);

        // Keep-alive works over TLS too.
        let resp2 = client.get("/secure2").unwrap();
        assert!(String::from_utf8_lossy(&resp2.body).contains("hit=1"));
        assert_eq!(server.stats().connections.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn tls_client_rejects_untrusted_server() {
        let server = start(Mode::Tls.server_config(test_config()));
        // Client only trusts a CA the server's certificate does not chain to.
        let other_ca = CertificateAuthority::new(
            &mut StdRng::seed_from_u64(43),
            DistinguishedName::parse("/O=evil/CN=CA").unwrap(),
            0,
            36500,
        );
        let mut client = HttpClient::new_tls(
            server.local_addr().to_string(),
            ClientTls {
                roots: vec![other_ca.certificate.clone()],
                ..client_tls()
            },
        );
        match client.get("/x") {
            Err(ClientError::NotSent(_)) => {}
            other => panic!("expected a failed handshake, got {other:?}"),
        }
        server.shutdown();
    }
}
