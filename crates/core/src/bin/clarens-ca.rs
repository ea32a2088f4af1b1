//! `clarens-ca` — PKI management CLI: create a certificate authority,
//! issue user/server credentials, and delegate proxy credentials, all as
//! PEM-style files a deployment can carry around.
//!
//! ```text
//! clarens-ca init  --dn /O=myorg/CN=MyCA --out ./ca [--days 3650]
//! clarens-ca issue --ca ./ca --dn "/O=myorg/OU=People/CN=Pat" --out pat.cred [--days 365]
//! clarens-ca proxy --cred pat.cred --out pat-proxy.cred [--hours 12]
//! clarens-ca show  --file pat.cred
//! ```

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::exit;

use clarens_pki::cert::{unix_now, CertificateAuthority, Credential};
use clarens_pki::dn::DistinguishedName;
use clarens_pki::keystream::SecretRng;
use clarens_pki::{pem, rsa};

fn usage() -> ! {
    eprintln!(
        "usage:\n  clarens-ca init  --dn DN --out DIR [--days N]\n  \
         clarens-ca issue --ca DIR --dn DN --out FILE [--days N]\n  \
         clarens-ca proxy --cred FILE --out FILE [--hours N]\n  \
         clarens-ca show  --file FILE"
    );
    exit(2);
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(name) = args[i].strip_prefix("--") else {
            eprintln!("unexpected argument {:?}", args[i]);
            usage();
        };
        let Some(value) = args.get(i + 1) else {
            eprintln!("flag --{name} needs a value");
            usage();
        };
        flags.insert(name.to_owned(), value.clone());
        i += 2;
    }
    flags
}

fn require<'a>(flags: &'a HashMap<String, String>, name: &str) -> &'a str {
    match flags.get(name) {
        Some(v) => v,
        None => {
            eprintln!("missing required flag --{name}");
            usage();
        }
    }
}

fn parse_dn(text: &str) -> DistinguishedName {
    DistinguishedName::parse(text).unwrap_or_else(|e| {
        eprintln!("invalid DN: {e}");
        exit(2);
    })
}

fn write(path: &Path, contents: &str) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        exit(1);
    });
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        exit(1);
    })
}

fn load_ca(dir: &Path) -> CertificateAuthority {
    let credential = pem::decode_credential(&read(&dir.join("ca.cred"))).unwrap_or_else(|e| {
        eprintln!("cannot parse CA credential: {e}");
        exit(1);
    });
    let cert = credential.certificate;
    let kp = rsa::KeyPair {
        public: credential.key.public.clone(),
        private: credential.key,
    };
    // Rebuild the CA around the stored self-signed certificate.
    let mut ca = CertificateAuthority::with_keypair(
        kp,
        cert.subject.clone(),
        cert.not_before,
        (cert.not_after - cert.not_before) / 86_400,
    );
    ca.certificate = cert;
    // Restore the serial counter so serials stay unique across invocations.
    let serial = std::fs::read_to_string(dir.join("ca.serial"))
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(1);
    ca.set_next_serial(serial);
    ca
}

fn save_serial(dir: &Path, ca: &CertificateAuthority) {
    write(&dir.join("ca.serial"), &format!("{}\n", ca.next_serial()));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage()
    };
    let flags = parse_flags(rest);
    match command.as_str() {
        "init" => {
            let dn = parse_dn(require(&flags, "dn"));
            let out = PathBuf::from(require(&flags, "out"));
            let days: i64 = flags
                .get("days")
                .map(|d| d.parse().unwrap_or(3650))
                .unwrap_or(3650);
            eprintln!("generating CA key pair...");
            let ca = CertificateAuthority::new(&mut SecretRng, dn, unix_now() - 300, days);
            let credential = Credential {
                certificate: ca.certificate.clone(),
                key: ca.key.clone(),
                chain: vec![],
            };
            write(&out.join("ca.cred"), &pem::encode_credential(&credential));
            write(
                &out.join("ca.cert"),
                &pem::encode_certificate(&ca.certificate),
            );
            println!("CA created: {}", ca.certificate.subject);
            println!(
                "  credential (keep secret): {}",
                out.join("ca.cred").display()
            );
            println!(
                "  trust root (distribute):  {}",
                out.join("ca.cert").display()
            );
        }
        "issue" => {
            let ca_dir = PathBuf::from(require(&flags, "ca"));
            let dn = parse_dn(require(&flags, "dn"));
            let out = PathBuf::from(require(&flags, "out"));
            let days: i64 = flags
                .get("days")
                .map(|d| d.parse().unwrap_or(365))
                .unwrap_or(365);
            let ca = load_ca(&ca_dir);
            eprintln!("generating subject key pair...");
            let kp = rsa::generate(&mut SecretRng, rsa::DEFAULT_KEY_BITS);
            let cert = ca.issue(dn, &kp.public, unix_now() - 300, days);
            save_serial(&ca_dir, &ca);
            let credential = Credential {
                certificate: cert,
                key: kp.private,
                chain: vec![],
            };
            write(&out, &pem::encode_credential(&credential));
            println!(
                "issued {} (serial {})",
                credential.certificate.subject, credential.certificate.serial
            );
            println!("  credential: {}", out.display());
        }
        "proxy" => {
            let cred_path = PathBuf::from(require(&flags, "cred"));
            let out = PathBuf::from(require(&flags, "out"));
            let hours: i64 = flags
                .get("hours")
                .map(|h| h.parse().unwrap_or(12))
                .unwrap_or(12);
            let credential = pem::decode_credential(&read(&cred_path)).unwrap_or_else(|e| {
                eprintln!("cannot parse credential: {e}");
                exit(1);
            });
            eprintln!("generating proxy key pair...");
            let proxy = credential.delegate_proxy(&mut SecretRng, unix_now() - 60, hours * 3600);
            write(&out, &pem::encode_credential(&proxy));
            println!(
                "proxy for {} valid {}h: {}",
                proxy.identity(),
                hours,
                out.display()
            );
        }
        "show" => {
            let path = PathBuf::from(require(&flags, "file"));
            let text = read(&path);
            match pem::decode_credential(&text) {
                Ok(credential) => {
                    let cert = &credential.certificate;
                    println!("credential: {}", cert.subject);
                    println!("  issuer:   {}", cert.issuer);
                    println!("  serial:   {}", cert.serial);
                    println!("  kind:     {:?}", cert.kind);
                    println!("  validity: {} .. {}", cert.not_before, cert.not_after);
                    println!("  chain:    {} link(s)", credential.chain.len());
                    println!("  identity: {}", credential.identity());
                }
                Err(_) => match pem::decode_certificates(&text) {
                    Ok(certs) => {
                        for cert in certs {
                            println!(
                                "certificate: {} (issuer {}, serial {}, kind {:?})",
                                cert.subject, cert.issuer, cert.serial, cert.kind
                            );
                        }
                    }
                    Err(e) => {
                        eprintln!("not a credential or certificate bundle: {e}");
                        exit(1);
                    }
                },
            }
        }
        _ => usage(),
    }
}
