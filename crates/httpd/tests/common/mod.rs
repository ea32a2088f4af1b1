//! Scenario fixture shared by this crate's unit and integration tests: the
//! two transports a server can speak, and a client that reaches each.
//!
//! Both run the one event-driven scheduler. On a TLS server each
//! connection carries the secure channel's state machine between its
//! socket and its parse buffer, and seals responses on the way out; every
//! scheduler property — parking, pipelining, shedding, draining — must
//! hold with and without it, so scenarios run once per [`Mode`].
#![allow(dead_code)]

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

use clarens_httpd::{ClientTls, ServerConfig, TlsConfig};
use clarens_pki::cert::{unix_now, Certificate, CertificateAuthority, Credential};
use clarens_pki::dn::DistinguishedName;
use clarens_pki::{rsa, SecureStream};
use rand::{rngs::StdRng, SeedableRng};

/// Which transport a scenario's server speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Plaintext HTTP; file bodies leave through `sendfile(2)`.
    Plain,
    /// The secure channel: mutual authentication, every byte in a sealed
    /// record.
    Tls,
}

pub const BOTH_MODES: [Mode; 2] = [Mode::Tls, Mode::Plain];

/// A byte stream to the server, whichever transport carries it.
pub trait Wire: Read + Write + Send {}
impl<T: Read + Write + Send> Wire for T {}

/// Subject of the credential [`Mode::Tls`] clients present.
pub const CLIENT_DN: &str = "/O=grid/OU=People/CN=alice";
/// Subject of the credential [`Mode::Tls`] servers present.
pub const SERVER_DN: &str = "/O=grid/CN=host";

struct Pki {
    root: Certificate,
    server: Credential,
    client: Credential,
}

/// One CA and credential pair per test process: key generation dominates
/// the fixture's cost.
fn pki() -> &'static Pki {
    static PKI: OnceLock<Pki> = OnceLock::new();
    PKI.get_or_init(|| {
        let t = unix_now();
        let mut rng = StdRng::seed_from_u64(0x7157);
        let dn = |text: &str| DistinguishedName::parse(text).unwrap();
        let ca = CertificateAuthority::new(&mut rng, dn("/O=grid/CN=CA"), t - 1000, 3650);
        let mut issue = |subject: &str| {
            let kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
            Credential {
                certificate: ca.issue(dn(subject), &kp.public, t - 1000, 365),
                key: kp.private,
                chain: vec![],
            }
        };
        Pki {
            server: issue(SERVER_DN),
            client: issue(CLIENT_DN),
            root: ca.certificate.clone(),
        }
    })
}

/// Client-side TLS settings a [`Mode::Tls`] server accepts.
pub fn client_tls() -> ClientTls {
    ClientTls {
        credential: pki().client.clone(),
        roots: vec![pki().root.clone()],
        now_fn: Box::new(unix_now),
    }
}

/// The credential [`Mode::Tls`] servers present.
pub fn server_credential() -> Credential {
    pki().server.clone()
}

impl Mode {
    /// `base`, adjusted so the server speaks this mode's transport.
    pub fn server_config(self, base: ServerConfig) -> ServerConfig {
        match self {
            Mode::Plain => base,
            Mode::Tls => ServerConfig {
                tls: Some(TlsConfig {
                    credential: pki().server.clone(),
                    roots: vec![pki().root.clone()],
                }),
                ..base
            },
        }
    }

    /// Connect the way this mode's server expects (for `Tls`, through a
    /// completed handshake). Reads time out after five seconds.
    pub fn connect(self, addr: SocketAddr) -> io::Result<Box<dyn Wire>> {
        let sock = TcpStream::connect(addr)?;
        sock.set_read_timeout(Some(Duration::from_secs(5)))?;
        self.over(sock)
    }

    /// Speak this mode's transport over `sock`, a stream already connected
    /// to the server (for `Tls`, through a completed handshake).
    pub fn over(self, sock: impl Wire + 'static) -> io::Result<Box<dyn Wire>> {
        match self {
            Mode::Plain => Ok(Box::new(sock)),
            Mode::Tls => {
                let pki = pki();
                let stream = SecureStream::connect(
                    sock,
                    &pki.client,
                    std::slice::from_ref(&pki.root),
                    unix_now(),
                    &mut StdRng::seed_from_u64(0xC11E),
                )
                .map_err(|e| io::Error::other(e.to_string()))?;
                Ok(Box::new(stream))
            }
        }
    }

    /// [`Mode::connect`], then [`send`] `request`.
    pub fn request(self, addr: SocketAddr, request: impl AsRef<[u8]>) -> io::Result<Box<dyn Wire>> {
        let mut sock = self.connect(addr)?;
        send(&mut *sock, request.as_ref())?;
        Ok(sock)
    }

    /// One connection per exchange: send the request bytes, return every
    /// (decrypted) byte the server answers until it closes.
    pub fn collect_wire_bytes(self, addr: SocketAddr, exchanges: &[&str]) -> Vec<Vec<u8>> {
        exchanges
            .iter()
            .map(|request| {
                let mut sock = self.request(addr, request).unwrap();
                let mut bytes = Vec::new();
                sock.read_to_end(&mut bytes).unwrap();
                bytes
            })
            .collect()
    }
}

/// Write `bytes` and push them onto the wire (the secure channel buffers
/// writes until flushed).
pub fn send(sock: &mut dyn Wire, bytes: &[u8]) -> io::Result<()> {
    sock.write_all(bytes)?;
    sock.flush()
}
