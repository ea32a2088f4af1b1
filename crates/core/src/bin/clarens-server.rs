//! `clarens-server` — run a Clarens server from configuration files.
//!
//! ```text
//! clarens-server --cred server.cred --roots ca.cert \
//!                [--config clarens.conf] [--listen 0.0.0.0:8080] [--tls] \
//!                [--permissive-acls]
//! ```
//!
//! The config file uses the `key: value` format of
//! [`clarens::ClarensConfig::parse`] (admin DNs, file/shell roots, session
//! TTL, DB path...). Without `--permissive-acls` the server starts locked
//! down: only `system.auth`/`system.ping`/`system.version`/`proxy.login`
//! answer until an admin installs ACLs via the `acl` service.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::process::exit;

use clarens::{register_builtin_services, ClarensConfig, ClarensCore, ClarensServer};
use clarens_httpd::TlsConfig;
use clarens_pki::pem;

fn usage() -> ! {
    eprintln!(
        "usage: clarens-server --cred FILE --roots FILE [--config FILE] \
         [--listen ADDR] [--tls] [--permissive-acls]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut switches: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let Some(name) = args[i].strip_prefix("--") else {
            usage()
        };
        match name {
            "tls" | "permissive-acls" => {
                switches.push(name.to_owned());
                i += 1;
            }
            _ => {
                let Some(value) = args.get(i + 1) else {
                    usage()
                };
                flags.insert(name.to_owned(), value.clone());
                i += 2;
            }
        }
    }
    let Some(cred_path) = flags.get("cred") else {
        usage()
    };
    let Some(roots_path) = flags.get("roots") else {
        usage()
    };
    let listen = flags
        .get("listen")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:8080");

    let credential =
        pem::decode_credential(&std::fs::read_to_string(cred_path).unwrap_or_else(|e| {
            eprintln!("cannot read {cred_path}: {e}");
            exit(1);
        }))
        .unwrap_or_else(|e| {
            eprintln!("bad server credential: {e}");
            exit(1);
        });
    let roots =
        pem::decode_certificates(&std::fs::read_to_string(roots_path).unwrap_or_else(|e| {
            eprintln!("cannot read {roots_path}: {e}");
            exit(1);
        }))
        .unwrap_or_else(|e| {
            eprintln!("bad trust roots: {e}");
            exit(1);
        });

    let config = match flags.get("config") {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                exit(1);
            });
            ClarensConfig::parse(&text).unwrap_or_else(|e| {
                eprintln!("bad config: {e}");
                exit(1);
            })
        }
        None => ClarensConfig::default(),
    };
    // A federation member is kept current by a replicator thread and led
    // by an election thread; both live in `clarens-federation`, which this
    // binary does not link. Started anyway, the node would fence every
    // replicated write forever and never catch up.
    if config.leader_lease_ms > 0 {
        eprintln!(
            "clarens-server cannot honour a non-zero `leader_lease_ms`: it starts no \
             replicator and no election thread. Start such a node with \
             clarens_federation::FederationNode; this binary serves standalone nodes."
        );
        exit(2);
    }

    let core = ClarensCore::new(config, roots.clone(), credential.clone()).unwrap_or_else(|e| {
        eprintln!("cannot open store: {e}");
        exit(1);
    });
    register_builtin_services(&core, None);
    if switches.iter().any(|s| s == "permissive-acls") {
        clarens::install_permissive_acls(&core);
        eprintln!("permissive ACLs installed (every authenticated DN may call everything)");
    }

    let tls = switches.iter().any(|s| s == "tls").then(|| TlsConfig {
        credential: credential.clone(),
        roots,
    });
    let secure = tls.is_some();
    let server = ClarensServer::start(core, listen, tls).unwrap_or_else(|e| {
        eprintln!("cannot bind {listen}: {e}");
        exit(1);
    });
    eprintln!(
        "{} listening on {}{} ({} methods registered)",
        credential.certificate.subject,
        server.local_addr(),
        if secure { " (secure channel)" } else { "" },
        server.core.store.len(clarens::registry::METHODS_BUCKET),
    );
    println!("press Ctrl-C to stop");
    loop {
        std::thread::park();
    }
}
