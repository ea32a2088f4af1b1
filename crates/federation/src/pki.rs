//! The federation's shared PKI: the committed grid PKI of
//! [`clarens::testkit::grid_pki`] — its CA trusted by every node, its
//! admin as the site admin (the replication credential), its
//! user as the regular user — plus one server certificate per node over
//! the grid's committed server key. No process searches for a key.
//!
//! Server DNs must be distinct per node — the discovery table
//! (`monalisa_sim::Table`) treats two descriptors with the same non-empty
//! `(server_dn, service)` under different urls as a restart of one server
//! and drops the older, so a shared server DN would collapse the whole
//! federation into one advertised endpoint. The election's member and
//! lease adverts carry an empty DN, which names no server and supersedes
//! nothing, so every node's advert stays listed.

use std::sync::{Mutex, OnceLock};

use clarens::testkit::grid_pki;
use clarens_pki::cert::{Credential, DAY};
use clarens_pki::dn::DistinguishedName;

/// The process-wide federation PKI, built once from the grid PKI. Every
/// node trusts the grid's CA, which issues the node certificates too.
pub struct FederationPki {
    /// Site admin on every node (`admin_dns`): replication.
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
        let grid = grid_pki();
        let server = &grid.server;
        while servers.len() <= index {
            let subject = format!(
                "/O=doesciencegrid.org/OU=Services/CN=fed-node-{}.test",
                servers.len()
            );
            let subject = DistinguishedName::parse(&subject).expect("valid DN");
            let issued = &server.certificate;
            let days = (issued.not_after - issued.not_before) / DAY;
            servers.push(Credential {
                certificate: grid
                    .ca
                    .issue(subject, &server.key.public, issued.not_before, days),
                key: server.key.clone(),
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
        let grid = grid_pki();
        FederationPki {
            admin: grid.admin.clone(),
            user: grid.user.clone(),
            servers: Mutex::new(Vec::new()),
        }
    })
}
