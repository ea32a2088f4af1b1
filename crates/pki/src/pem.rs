//! PEM-style on-disk serialization for certificates, keys, and
//! credentials.
//!
//! Deployments need credentials as *files* (the paper's users carried
//! OpenSSL PEM certificates and key files; grid proxies lived in
//! `/tmp/x509up_u<uid>`). This module provides the equivalent for the
//! reproduction's formats: labelled blocks with the familiar
//! `-----BEGIN ...-----` armor, holding the crate's text encodings
//! (certificates as their canonical text form, keys as hex fields).

use std::fmt;

use crate::bigint::BigUint;
use crate::cert::{CertError, Certificate, Credential};
use crate::rsa::{PrivateKey, PublicKey};

/// Armor label for certificates.
pub const CERT_LABEL: &str = "CLARENS CERTIFICATE";
/// Armor label for private keys.
pub const KEY_LABEL: &str = "CLARENS PRIVATE KEY";

/// Errors from PEM parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PemError(pub String);

impl fmt::Display for PemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PEM error: {}", self.0)
    }
}

impl std::error::Error for PemError {}

impl From<CertError> for PemError {
    fn from(e: CertError) -> Self {
        PemError(e.to_string())
    }
}

/// One armored block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The label between BEGIN/END.
    pub label: String,
    /// The body text (verbatim lines between the armor).
    pub body: String,
}

/// Wrap a body in armor.
pub fn encode_block(label: &str, body: &str) -> String {
    let mut out = format!("-----BEGIN {label}-----\n");
    out.push_str(body.trim_end());
    out.push_str(&format!("\n-----END {label}-----\n"));
    out
}

/// Parse all armored blocks in a document (text outside blocks is
/// ignored, like OpenSSL does).
pub fn decode_blocks(text: &str) -> Result<Vec<Block>, PemError> {
    let mut blocks = Vec::new();
    let mut current: Option<(String, String)> = None;
    for line in text.lines() {
        let trimmed = line.trim();
        if let Some(rest) = trimmed.strip_prefix("-----BEGIN ") {
            let label = rest
                .strip_suffix("-----")
                .ok_or_else(|| PemError(format!("malformed BEGIN line {trimmed:?}")))?;
            if current.is_some() {
                return Err(PemError("nested BEGIN".into()));
            }
            current = Some((label.to_owned(), String::new()));
        } else if let Some(rest) = trimmed.strip_prefix("-----END ") {
            let label = rest
                .strip_suffix("-----")
                .ok_or_else(|| PemError(format!("malformed END line {trimmed:?}")))?;
            match current.take() {
                Some((open_label, body)) if open_label == label => {
                    blocks.push(Block {
                        label: open_label,
                        body,
                    });
                }
                Some((open_label, _)) => {
                    return Err(PemError(format!(
                        "END {label:?} does not match BEGIN {open_label:?}"
                    )))
                }
                None => return Err(PemError("END without BEGIN".into())),
            }
        } else if let Some((_, body)) = current.as_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    if current.is_some() {
        return Err(PemError("unterminated block".into()));
    }
    Ok(blocks)
}

/// Serialize a certificate as an armored block.
pub fn encode_certificate(cert: &Certificate) -> String {
    encode_block(CERT_LABEL, &cert.to_text())
}

/// Serialize a private key as an armored block.
pub fn encode_private_key(key: &PrivateKey) -> String {
    let body = format!(
        "n: {}\ne: {}\nd: {}\np: {}\nq: {}\n",
        key.public.n().to_hex(),
        key.public.e().to_hex(),
        key.d().to_hex(),
        key.p().to_hex(),
        key.q().to_hex(),
    );
    encode_block(KEY_LABEL, &body)
}

/// Reconstruct a private key from its block body (recomputing the CRT
/// parameters from d, p, q).
pub fn decode_private_key(body: &str) -> Result<PrivateKey, PemError> {
    let mut fields = std::collections::BTreeMap::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once(": ")
            .ok_or_else(|| PemError(format!("bad key line {line:?}")))?;
        fields.insert(k.to_owned(), v.to_owned());
    }
    let field = |name: &str| -> Result<BigUint, PemError> {
        let hex = fields
            .get(name)
            .ok_or_else(|| PemError(format!("key missing field {name}")))?;
        BigUint::from_hex(hex).ok_or_else(|| PemError(format!("bad hex in field {name}")))
    };
    let n = field("n")?;
    let e = field("e")?;
    let d = field("d")?;
    let p = field("p")?;
    let q = field("q")?;
    // Consistency: p·q must equal n.
    if p.mul(&q) != n {
        return Err(PemError("inconsistent key: p*q != n".into()));
    }
    PrivateKey::new(PublicKey::new(n, e), d, p, q)
        .ok_or_else(|| PemError("inconsistent key: no CRT parameters for p, q".into()))
}

/// Serialize a credential: the leaf certificate, its chain, and the key.
pub fn encode_credential(credential: &Credential) -> String {
    let mut out = encode_certificate(&credential.certificate);
    for link in &credential.chain {
        out.push_str(&encode_certificate(link));
    }
    out.push_str(&encode_private_key(&credential.key));
    out
}

/// Parse a credential file (first certificate block is the leaf, the rest
/// are the chain; exactly one key block).
pub fn decode_credential(text: &str) -> Result<Credential, PemError> {
    let blocks = decode_blocks(text)?;
    let mut certs = Vec::new();
    let mut key = None;
    for block in blocks {
        match block.label.as_str() {
            CERT_LABEL => certs.push(Certificate::from_text(&block.body)?),
            KEY_LABEL => {
                if key.is_some() {
                    return Err(PemError("multiple key blocks".into()));
                }
                key = Some(decode_private_key(&block.body)?);
            }
            other => return Err(PemError(format!("unexpected block {other:?}"))),
        }
    }
    if certs.is_empty() {
        return Err(PemError("no certificate block".into()));
    }
    let key = key.ok_or_else(|| PemError("no key block".into()))?;
    // The key must match the leaf certificate.
    let leaf = certs.remove(0);
    if key.public != leaf.public_key {
        return Err(PemError("key does not match leaf certificate".into()));
    }
    Ok(Credential {
        certificate: leaf,
        key,
        chain: certs,
    })
}

/// Parse every certificate block in a file (trust-root bundles).
pub fn decode_certificates(text: &str) -> Result<Vec<Certificate>, PemError> {
    let mut certs = Vec::new();
    for block in decode_blocks(text)? {
        if block.label == CERT_LABEL {
            certs.push(Certificate::from_text(&block.body)?);
        }
    }
    if certs.is_empty() {
        return Err(PemError("no certificate blocks".into()));
    }
    Ok(certs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use crate::dn::DistinguishedName;
    use crate::rsa;
    use rand::{rngs::StdRng, SeedableRng};

    const NOW: i64 = 1_118_836_800;

    fn fixture() -> (CertificateAuthority, Credential) {
        let mut rng = StdRng::seed_from_u64(0xBEE);
        let ca = CertificateAuthority::new(
            &mut rng,
            DistinguishedName::parse("/O=g/CN=CA").unwrap(),
            NOW,
            3650,
        );
        let kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
        let cert = ca.issue(
            DistinguishedName::parse("/O=g/OU=People/CN=pat").unwrap(),
            &kp.public,
            NOW,
            365,
        );
        (
            ca,
            Credential {
                certificate: cert,
                key: kp.private,
                chain: vec![],
            },
        )
    }

    #[test]
    fn block_roundtrip() {
        let text = encode_block("TEST", "line one\nline two");
        let blocks = decode_blocks(&text).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].label, "TEST");
        assert_eq!(blocks[0].body, "line one\nline two\n");
    }

    #[test]
    fn multiple_blocks_with_noise() {
        let text = format!(
            "leading comment\n{}between blocks\n{}trailing",
            encode_block("A", "aaa"),
            encode_block("B", "bbb"),
        );
        let blocks = decode_blocks(&text).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].label, "A");
        assert_eq!(blocks[1].label, "B");
    }

    #[test]
    fn malformed_blocks_rejected() {
        assert!(decode_blocks("-----BEGIN A-----\n").is_err()); // unterminated
        assert!(decode_blocks("-----END A-----\n").is_err()); // end without begin
        assert!(decode_blocks("-----BEGIN A-----\n-----END B-----\n").is_err()); // mismatch
        assert!(decode_blocks(
            "-----BEGIN A-----\n-----BEGIN B-----\n-----END B-----\n-----END A-----\n"
        )
        .is_err()); // nested
    }

    #[test]
    fn private_key_roundtrip() {
        let (_, cred) = fixture();
        let pem = encode_private_key(&cred.key);
        let blocks = decode_blocks(&pem).unwrap();
        let decoded = decode_private_key(&blocks[0].body).unwrap();
        assert_eq!(decoded, cred.key);
        // Signatures made with the reloaded key verify.
        let sig = decoded.sign(b"msg");
        cred.key.public.verify(b"msg", &sig).unwrap();
    }

    #[test]
    fn corrupted_key_rejected() {
        let (_, cred) = fixture();
        let pem = encode_private_key(&cred.key);
        // Swap p's hex for q's: p*q still equals n => passes that check;
        // instead corrupt n itself.
        let tampered = pem.replace("n: ", "n: f");
        let blocks = decode_blocks(&tampered).unwrap();
        assert!(decode_private_key(&blocks[0].body).is_err());
        assert!(decode_private_key("garbage").is_err());
        assert!(decode_private_key("n: zz\n").is_err());
    }

    #[test]
    fn credential_roundtrip() {
        let (ca, cred) = fixture();
        let pem = encode_credential(&cred);
        let decoded = decode_credential(&pem).unwrap();
        assert_eq!(decoded.certificate, cred.certificate);
        assert_eq!(decoded.key, cred.key);
        assert!(decoded.chain.is_empty());
        decoded
            .certificate
            .verify_signature(&ca.certificate.public_key)
            .unwrap();
    }

    #[test]
    fn proxy_credential_with_chain_roundtrips() {
        let (_, cred) = fixture();
        let mut rng = StdRng::seed_from_u64(0xFACE);
        let proxy = cred.delegate_proxy(&mut rng, NOW + 1, 3600);
        let pem = encode_credential(&proxy);
        let decoded = decode_credential(&pem).unwrap();
        assert_eq!(decoded.certificate, proxy.certificate);
        assert_eq!(decoded.chain, proxy.chain);
        assert_eq!(decoded.identity(), proxy.identity());
    }

    #[test]
    fn mismatched_key_and_cert_rejected() {
        let (_, cred) = fixture();
        let mut rng = StdRng::seed_from_u64(0xD00);
        let other = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
        let mut pem = encode_certificate(&cred.certificate);
        pem.push_str(&encode_private_key(&other.private));
        assert!(decode_credential(&pem).is_err());
    }

    #[test]
    fn root_bundle_parsing() {
        let (ca, cred) = fixture();
        let bundle = format!(
            "{}{}",
            encode_certificate(&ca.certificate),
            encode_certificate(&cred.certificate)
        );
        let certs = decode_certificates(&bundle).unwrap();
        assert_eq!(certs.len(), 2);
        assert!(decode_certificates("no blocks here").is_err());
    }
}
