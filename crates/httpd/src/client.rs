//! HTTP client with keep-alive connection reuse and optional secure
//! channel, mirroring the Python client the paper's Figure-4 test used
//! ("a single process opening connections to the server and completing
//! requests asynchronously").

use std::io::{self, BufReader, Read};
use std::net::TcpStream;
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

/// Client errors.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// Malformed response.
    Protocol(String),
    /// Secure channel failure.
    Tls(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O: {e}"),
            ClientError::Protocol(m) => write!(f, "client protocol: {m}"),
            ClientError::Tls(m) => write!(f, "client TLS: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ParseError> for ClientError {
    fn from(e: ParseError) -> Self {
        match e {
            ParseError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// A connection-reusing HTTP client bound to one server address.
pub struct HttpClient {
    addr: String,
    tls: Option<ClientTls>,
    connection: Option<Connection>,
    /// Server identity from the TLS handshake (None for plaintext).
    server_identity: Option<DistinguishedName>,
    read_timeout: Duration,
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
            read_timeout: Duration::from_secs(30),
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

    /// Change the read timeout, applying it to the live connection (if
    /// any) as well as future ones. Callers with a per-call deadline set
    /// this to the remaining budget before each request so a stalled
    /// server cannot hang them past the deadline.
    pub fn set_read_timeout(&mut self, timeout: Duration) {
        // A zero timeout is rejected by the socket API; clamp up.
        self.read_timeout = timeout.max(Duration::from_millis(1));
        if let Some(conn) = &self.connection {
            let sock = match conn {
                Connection::Plain(reader) => reader.get_ref(),
                Connection::Secure(reader) => reader.get_ref().get_ref(),
            };
            sock.set_read_timeout(Some(self.read_timeout)).ok();
        }
    }

    /// The currently configured read timeout.
    pub fn read_timeout(&self) -> Duration {
        self.read_timeout
    }

    fn connect(&mut self) -> Result<(), ClientError> {
        let sock = TcpStream::connect(&self.addr)?;
        sock.set_read_timeout(Some(self.read_timeout)).ok();
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
                        .map_err(|e| ClientError::Tls(e.to_string()))?;
                self.server_identity = Some(stream.peer_identity().clone());
                self.connection = Some(Connection::Secure(Box::new(BufReader::new(stream))));
            }
        }
        Ok(())
    }

    /// Send a request, transparently (re)connecting, and read the response.
    pub fn request(&mut self, request: &Request) -> Result<ClientResponse, ClientError> {
        // One retry: a dead keep-alive connection surfaces as an error on
        // the first write/read, after which we reconnect once.
        for attempt in 0..2 {
            if self.connection.is_none() {
                self.connect()?;
            }
            match self.try_request(request) {
                Ok(resp) => {
                    if !resp.keep_alive {
                        self.connection = None;
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    self.connection = None;
                    if attempt == 1 {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("loop returns on second attempt");
    }

    fn try_request(&mut self, request: &Request) -> Result<ClientResponse, ClientError> {
        let max_body = self.max_body;
        match self.connection.as_mut().expect("connected") {
            Connection::Plain(reader) => {
                write_request(reader.get_mut(), request)?;
                Ok(read_response(reader, max_body)?)
            }
            Connection::Secure(reader) => {
                write_request(reader.get_mut(), request)?;
                Ok(read_response(reader.as_mut(), max_body)?)
            }
        }
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

// The raw-stream read helper is used by tests; quiet the lint when the
// crate is built without them.
#[allow(dead_code)]
fn read_all<R: Read>(mut r: R) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    Ok(buf)
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
            Err(ClientError::Tls(_)) | Err(ClientError::Io(_)) => {}
            other => panic!("expected TLS failure, got {other:?}"),
        }
        server.shutdown();
    }
}
