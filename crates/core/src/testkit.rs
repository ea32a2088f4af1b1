//! Test/bench/example harness: a one-call miniature grid.
//!
//! Building a working Clarens deployment needs a CA, server and user
//! credentials, a configured core, registered services, and a running
//! server. [`TestGrid`] assembles all of it so integration tests, examples,
//! and the benchmark harness share one canonical setup instead of
//! re-deriving it.

use std::path::PathBuf;
use std::sync::Arc;

use clarens_httpd::TlsConfig;
use clarens_pki::cert::{CertificateAuthority, Credential};
use clarens_pki::dn::DistinguishedName;
use clarens_pki::rsa;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::client::ClarensClient;
use crate::config::ClarensConfig;
use crate::core::ClarensCore;
use crate::server::{install_permissive_acls, register_builtin_services, ClarensServer};

/// Current wall-clock seconds.
pub fn now() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0)
}

/// Parse a DN, panicking on error (test helper).
pub fn dn(text: &str) -> DistinguishedName {
    DistinguishedName::parse(text).expect("valid DN")
}

/// A self-contained PKI + server + users fixture.
pub struct TestGrid {
    /// The root CA.
    pub ca: CertificateAuthority,
    /// The server's credential.
    pub server_credential: Credential,
    /// An administrator user (in the configured `admins` group).
    pub admin: Credential,
    /// A regular user.
    pub user: Credential,
    /// The running server.
    pub server: ClarensServer,
    /// Scratch directory backing the file/shell services.
    pub data_dir: PathBuf,
}

/// Options for building a [`TestGrid`].
pub struct GridOptions {
    /// Names this grid's scratch directory (with the process id and a
    /// per-process counter). The credentials do not depend on it: the PKI
    /// is built once per process from a fixed seed.
    pub seed: u64,
    /// Enable the TLS transport.
    pub tls: bool,
    /// Install the permissive default ACLs.
    pub permissive_acls: bool,
    /// HTTP worker threads.
    pub workers: usize,
    /// Persist the DB at this path (None = in-memory).
    pub db_path: Option<PathBuf>,
    /// Accept the negotiated clarens-binary protocol (disable to exercise
    /// the 415 negotiation + client XML-RPC fallback path).
    pub binary_protocol: bool,
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
            binary_protocol: true,
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

    /// Build with explicit options.
    pub fn start_with(options: GridOptions) -> TestGrid {
        // RSA key generation dominates fixture cost, so the PKI (CA +
        // credentials) is built once per process and shared; the seed is
        // fixed because credentials are identity material, not entropy for
        // the scenario under test.
        struct Pki {
            ca: CertificateAuthority,
            server: Credential,
            admin: Credential,
            user: Credential,
        }
        static PKI: std::sync::OnceLock<Pki> = std::sync::OnceLock::new();
        let pki = PKI.get_or_init(|| {
            let t = now();
            let mut rng = StdRng::seed_from_u64(0xC1A2E5);
            let ca = CertificateAuthority::new(
                &mut rng,
                dn("/O=doesciencegrid.org/CN=Reproduction CA"),
                t - 3600,
                3650,
            );
            let issue = |rng: &mut StdRng, subject: &str| -> Credential {
                let kp = rsa::generate(rng, rsa::DEFAULT_KEY_BITS);
                Credential {
                    certificate: ca.issue(dn(subject), &kp.public, t - 3600, 365),
                    key: kp.private,
                    chain: vec![],
                }
            };
            let server = issue(
                &mut rng,
                "/O=doesciencegrid.org/OU=Services/CN=host\\/clarens.test",
            );
            let admin = issue(&mut rng, "/O=doesciencegrid.org/OU=People/CN=Ada Admin");
            let user = issue(&mut rng, "/O=doesciencegrid.org/OU=People/CN=Uma User");
            Pki {
                ca,
                server,
                admin,
                user,
            }
        });
        let ca = CertificateAuthority::with_keypair(
            clarens_pki::rsa::KeyPair {
                public: pki.ca.key.public.clone(),
                private: pki.ca.key.clone(),
            },
            pki.ca.certificate.subject.clone(),
            pki.ca.certificate.not_before,
            (pki.ca.certificate.not_after - pki.ca.certificate.not_before) / 86_400,
        );
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
            binary_protocol: options.binary_protocol,
            max_connections: options.max_connections,
            request_deadline_ms: options.request_deadline_ms,
            ..Default::default()
        };

        let core = ClarensCore::new(
            config,
            vec![ca.certificate.clone()],
            server_credential.clone(),
        )
        .expect("core");
        register_builtin_services(&core, None);
        if options.permissive_acls {
            install_permissive_acls(&core);
        }

        let tls = options.tls.then(|| TlsConfig {
            credential: server_credential.clone(),
            roots: vec![ca.certificate.clone()],
        });
        let server = ClarensServer::start(core, "127.0.0.1:0", tls).expect("server");

        TestGrid {
            ca,
            server_credential,
            admin,
            user,
            server,
            data_dir,
        }
    }

    /// The server's address as a string.
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// A plaintext client holding `credential` (not yet logged in).
    pub fn client(&self, credential: &Credential) -> ClarensClient {
        ClarensClient::new(self.addr()).with_credential(credential.clone())
    }

    /// A plaintext client already logged in as `credential`.
    pub fn logged_in_client(&self, credential: &Credential) -> ClarensClient {
        let mut client = self.client(credential);
        client.login().expect("login");
        client
    }

    /// A TLS client for `credential` (identity flows from the handshake).
    pub fn tls_client(&self, credential: &Credential) -> ClarensClient {
        ClarensClient::new_tls(
            self.addr(),
            credential.clone(),
            vec![self.ca.certificate.clone()],
        )
    }

    /// The shared core of the running server.
    pub fn core(&self) -> &Arc<ClarensCore> {
        &self.server.core
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
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
}
