//! Test/bench/example harness: a one-call miniature grid.
//!
//! Building a working Clarens deployment needs a CA, server and user
//! credentials, a configured core, registered services, and a running
//! server. [`TestGrid`] assembles all of it so integration tests, examples,
//! and the benchmark harness share one canonical setup instead of
//! re-deriving it.
//!
//! A grid listens on a loopback port ([`TestGrid::start_with`]), or is
//! served over pipes ([`TestGrid::piped`]): every connection is then a Unix
//! socketpair whose server end runs the server's own connection code
//! (gate, handler, codec and secure channel) on the thread that uses the
//! client end, so a suite that only checks what crosses the wire binds no
//! port and starts no server thread (`clarens_httpd::serve_pipe`).

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use clarens_db::{FaultyDisk, Store};
use clarens_httpd::{Pipe, Stream, TlsConfig};
use clarens_pki::cert::{Certificate, CertificateAuthority, Credential};
use clarens_pki::dn::DistinguishedName;
use clarens_pki::{pem, rsa};

use crate::client::ClarensClient;
use crate::config::ClarensConfig;
use crate::core::ClarensCore;
use crate::server::{install_permissive_acls, register_builtin_services, ClarensServer};

/// Current wall-clock seconds ([`clarens_pki::cert::unix_now`]).
pub fn now() -> i64 {
    clarens_pki::cert::unix_now()
}

/// Parse a DN, panicking on error (test helper).
pub fn dn(text: &str) -> DistinguishedName {
    DistinguishedName::parse(text).expect("valid DN")
}

/// The private keys of every grid's PKI — CA, server, admin, user — as
/// committed PEM. They are the four keys `rsa::generate` draws in a row
/// from `StdRng::seed_from_u64(0xC1A2E5)` (the tests below check it),
/// committed so that starting a grid searches for no primes (the four
/// searches take 13–20 ms in a release build).
const GRID_KEYS_PEM: &str = include_str!("testkit/grid_keys.pem");

fn grid_keys() -> [rsa::PrivateKey; 4] {
    let keys: Vec<rsa::PrivateKey> = pem::decode_blocks(GRID_KEYS_PEM)
        .expect("grid keys armor")
        .iter()
        .map(|block| pem::decode_private_key(&block.body).expect("grid key"))
        .collect();
    keys.try_into().expect("four grid keys")
}

/// The identities every [`TestGrid`] of a process shares, for fixtures
/// that need them without a running server.
pub struct GridPki {
    /// The root CA.
    pub ca: CertificateAuthority,
    /// The server's credential.
    pub server: Credential,
    /// The administrator (a grid's `admin_dns`).
    pub admin: Credential,
    /// A regular user.
    pub user: Credential,
}

/// This process's [`GridPki`]: the committed keys, certified on first use
/// (four signatures), so every grid of a process hands out the same
/// certificates.
pub fn grid_pki() -> &'static GridPki {
    static PKI: std::sync::OnceLock<GridPki> = std::sync::OnceLock::new();
    PKI.get_or_init(|| {
        let t = now();
        let [ca_key, server_key, admin_key, user_key] = grid_keys();
        let ca = CertificateAuthority::with_keypair(
            rsa::KeyPair {
                public: ca_key.public.clone(),
                private: ca_key,
            },
            dn("/O=doesciencegrid.org/CN=Reproduction CA"),
            t - 3600,
            3650,
        );
        let issue = |key: rsa::PrivateKey, subject: &str| -> Credential {
            Credential {
                certificate: ca.issue(dn(subject), &key.public, t - 3600, 365),
                key,
                chain: vec![],
            }
        };
        let server = issue(
            server_key,
            "/O=doesciencegrid.org/OU=Services/CN=host\\/clarens.test",
        );
        let admin = issue(admin_key, "/O=doesciencegrid.org/OU=People/CN=Ada Admin");
        let user = issue(user_key, "/O=doesciencegrid.org/OU=People/CN=Uma User");
        GridPki {
            ca,
            server,
            admin,
            user,
        }
    })
}

/// A self-contained PKI + server + users fixture.
pub struct TestGrid {
    /// The root CA: this process's [`grid_pki`] CA.
    pub ca: &'static CertificateAuthority,
    /// The server's credential.
    pub server_credential: Credential,
    /// An administrator user (in the configured `admins` group).
    pub admin: Credential,
    /// A regular user.
    pub user: Credential,
    /// The core the server serves.
    core: Arc<ClarensCore>,
    /// The disk under a persistent store.
    disk: FaultyDisk,
    server: Served,
    /// Scratch directory backing the file/shell services.
    pub data_dir: PathBuf,
}

/// How a [`TestGrid`]'s server is reached.
enum Served {
    /// Listening on a loopback port, with its worker and event-loop threads.
    Port(ClarensServer),
    /// Over socketpairs, driven on the thread that uses a client end.
    Pipe(Pipe),
}

/// Options for building a [`TestGrid`].
pub struct GridOptions {
    /// Names this grid's scratch directory (with the process id and a
    /// per-process counter). The credentials do not depend on it: the PKI
    /// is built once per process from committed keys.
    pub seed: u64,
    /// Enable the TLS transport.
    pub tls: bool,
    /// Install the permissive default ACLs.
    pub permissive_acls: bool,
    /// HTTP worker threads.
    pub workers: usize,
    /// Persist the DB at this path, on the grid's [`TestGrid::disk`]
    /// (None = in-memory).
    pub db_path: Option<PathBuf>,
    /// Cap on simultaneously live HTTP connections (beyond it: 503 shed).
    pub max_connections: usize,
    /// Per-request deadline in milliseconds (`0` disables deadlines).
    pub request_deadline_ms: u64,
}

impl Default for GridOptions {
    fn default() -> Self {
        GridOptions {
            seed: 0xC1A2E5,
            tls: false,
            permissive_acls: true,
            workers: 16,
            db_path: None,
            max_connections: 4096,
            request_deadline_ms: 5_000,
        }
    }
}

impl TestGrid {
    /// Build with default options (plaintext, permissive ACLs).
    pub fn start() -> TestGrid {
        TestGrid::start_with(GridOptions::default())
    }

    /// Build with explicit options, listening on a loopback port.
    pub fn start_with(options: GridOptions) -> TestGrid {
        TestGrid::build(options, true)
    }

    /// Build with explicit options, served over pipes: no port is bound
    /// and no server thread starts. Clients and [`TestGrid::connect`]
    /// reach it; it has no [`TestGrid::addr`].
    pub fn piped(options: GridOptions) -> TestGrid {
        TestGrid::build(options, false)
    }

    fn build(options: GridOptions, port: bool) -> TestGrid {
        let pki = grid_pki();
        let ca = &pki.ca;
        let server_credential = pki.server.clone();
        let admin = pki.admin.clone();
        let user = pki.user.clone();

        static GRID_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let grid_id = GRID_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let data_dir = std::env::temp_dir().join(format!(
            "clarens-grid-{}-{}-{}",
            std::process::id(),
            options.seed,
            grid_id
        ));
        let _ = std::fs::remove_dir_all(&data_dir);
        std::fs::create_dir_all(data_dir.join("files")).expect("create data dir");
        std::fs::create_dir_all(data_dir.join("shell")).expect("create shell dir");

        let config = ClarensConfig {
            server_url: "http://clarens.test/clarens".into(),
            admin_dns: vec![admin.certificate.subject.to_string()],
            file_root: Some(data_dir.join("files")),
            shell_root: Some(data_dir.join("shell")),
            shell_user_map: format!("uma: dn={}\nada: group=admins\n", user.certificate.subject),
            workers: options.workers,
            db_path: options.db_path,
            max_connections: options.max_connections,
            request_deadline_ms: options.request_deadline_ms,
            ..Default::default()
        };

        let disk = FaultyDisk::new();
        let store = match &config.db_path {
            Some(path) => Store::open_on(&disk, path, config.db_sync).expect("store"),
            None => Store::in_memory(),
        };
        let roots = vec![ca.certificate.clone()];
        let core = ClarensCore::with_store(config, store, roots, server_credential.clone());
        register_builtin_services(&core, None);
        if options.permissive_acls {
            install_permissive_acls(&core);
        }

        let tls = options.tls.then(|| TlsConfig {
            credential: server_credential.clone(),
            roots: vec![ca.certificate.clone()],
        });
        let server = match port {
            true => {
                let server = ClarensServer::start(Arc::clone(&core), "127.0.0.1:0", tls);
                Served::Port(server.expect("server"))
            }
            false => Served::Pipe(ClarensServer::pipe(Arc::clone(&core), tls)),
        };

        TestGrid {
            ca,
            server_credential,
            admin,
            user,
            core,
            disk,
            server,
            data_dir,
        }
    }

    /// The server's address as a string.
    ///
    /// # Panics
    /// On a grid served over pipes, which has none.
    pub fn addr(&self) -> String {
        match &self.server {
            Served::Port(server) => server.local_addr().to_string(),
            Served::Pipe(_) => panic!("a piped grid has no address"),
        }
    }

    /// A new raw byte stream to the server: a TCP connection, or a pipe's
    /// client end.
    pub fn connect(&self) -> io::Result<Stream> {
        match &self.server {
            Served::Port(server) => {
                std::net::TcpStream::connect(server.local_addr()).map(Stream::from)
            }
            Served::Pipe(pipe) => pipe.connect(),
        }
    }

    /// A client of the server, with `secure`'s credential and roots on the
    /// secure channel.
    fn client_of(&self, secure: Option<(Credential, Vec<Certificate>)>) -> ClarensClient {
        match (&self.server, secure) {
            (Served::Pipe(pipe), secure) => ClarensClient::over_pipe(pipe.clone(), secure),
            (Served::Port(_), None) => ClarensClient::new(self.addr()),
            (Served::Port(_), Some((credential, roots))) => {
                ClarensClient::new_tls(self.addr(), credential, roots)
            }
        }
    }

    /// A plaintext client holding `credential` (not yet logged in).
    pub fn client(&self, credential: &Credential) -> ClarensClient {
        self.client_of(None).with_credential(credential.clone())
    }

    /// A plaintext client already logged in as `credential`.
    pub fn logged_in_client(&self, credential: &Credential) -> ClarensClient {
        let mut client = self.client(credential);
        client.login().expect("login");
        client
    }

    /// A TLS client for `credential` (identity flows from the handshake).
    pub fn tls_client(&self, credential: &Credential) -> ClarensClient {
        self.client_of(Some((
            credential.clone(),
            vec![self.ca.certificate.clone()],
        )))
    }

    /// The shared core of the running server.
    pub fn core(&self) -> &Arc<ClarensCore> {
        &self.core
    }

    /// The disk under the grid's persistent store (`db_path`): arm a
    /// fault on it to fail the store's writes or syncs.
    pub fn disk(&self) -> &FaultyDisk {
        &self.disk
    }

    /// Write a file under the file-service root; returns its virtual path.
    pub fn write_file(&self, virtual_path: &str, contents: &[u8]) -> String {
        let real =
            crate::paths::resolve(&self.data_dir.join("files"), virtual_path).expect("legal path");
        if let Some(parent) = real.parent() {
            std::fs::create_dir_all(parent).expect("mkdir");
        }
        std::fs::write(real, contents).expect("write");
        crate::paths::canonical(virtual_path).expect("canonical")
    }

    /// Remove the scratch directory (call at the end of a test).
    pub fn cleanup(self) {
        let dir = self.data_dir.clone();
        if let Served::Port(server) = self.server {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn committed_keys_are_the_seeded_keys() {
        let mut rng = StdRng::seed_from_u64(0xC1A2E5);
        let seeded: Vec<rsa::PrivateKey> = (0..4)
            .map(|_| rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS).private)
            .collect();
        assert_eq!(grid_keys().to_vec(), seeded);
    }
}
