//! The federation's shared PKI: one CA trusted by every node, one site
//! admin (the replication/heartbeat credential), one regular user, and
//! per-node server credentials.
//!
//! Server DNs must be distinct per node — the discovery table
//! (`monalisa_sim::Table`) treats two descriptors with the same non-empty
//! `(server_dn, service)` under different urls as a restart of one server
//! and drops the older, so a shared server DN would collapse the whole
//! federation into one advertised endpoint. The election's member and
//! lease adverts carry an empty DN, which names no server and supersedes
//! nothing, so every node's advert stays listed.

use std::sync::{Mutex, OnceLock};

use clarens_pki::cert::{CertificateAuthority, Credential};
use clarens_pki::dn::DistinguishedName;
use clarens_pki::rsa;
use rand::{rngs::StdRng, SeedableRng};

fn dn(text: &str) -> DistinguishedName {
    DistinguishedName::parse(text).expect("valid DN")
}

fn now() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0)
}

/// The process-wide federation PKI (RSA key generation dominates fixture
/// cost, so it is built once and shared, like the core testkit's).
pub struct FederationPki {
    /// The root CA every node trusts.
    pub ca: CertificateAuthority,
    /// Site admin on every node (`admin_dns`): heartbeats, replication.
    pub admin: Credential,
    /// A regular grid user.
    pub user: Credential,
    /// Server credentials already issued, by node index.
    servers: Mutex<Vec<Credential>>,
}

impl FederationPki {
    /// The server credential for node `index` (issued on first use; the
    /// DN embeds the index so every node advertises a distinct identity).
    pub fn server_credential(&self, index: usize) -> Credential {
        let mut servers = self.servers.lock().expect("pki lock");
        while servers.len() <= index {
            let i = servers.len();
            let mut rng = StdRng::seed_from_u64(0xFED5EED ^ i as u64);
            let kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
            let t = now();
            servers.push(Credential {
                certificate: self.ca.issue(
                    dn(&format!(
                        "/O=doesciencegrid.org/OU=Services/CN=fed-node-{i}.test"
                    )),
                    &kp.public,
                    t - 3600,
                    365,
                ),
                key: kp.private,
                chain: vec![],
            });
        }
        servers[index].clone()
    }
}

/// The shared PKI instance.
pub fn federation_pki() -> &'static FederationPki {
    static PKI: OnceLock<FederationPki> = OnceLock::new();
    PKI.get_or_init(|| {
        let t = now();
        let mut rng = StdRng::seed_from_u64(0xFEDCA);
        let ca = CertificateAuthority::new(
            &mut rng,
            dn("/O=doesciencegrid.org/CN=Federation CA"),
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
        let admin = issue(&mut rng, "/O=doesciencegrid.org/OU=People/CN=Fed Admin");
        let user = issue(&mut rng, "/O=doesciencegrid.org/OU=People/CN=Fed User");
        FederationPki {
            ca,
            admin,
            user,
            servers: Mutex::new(Vec::new()),
        }
    })
}
