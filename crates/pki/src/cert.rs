//! X.509-style certificates, certificate authorities, and proxy
//! certificates.
//!
//! Clarens authenticates every connection with "X509 certificate-based
//! authentication" (paper §2) and supports *proxy certificates* — "a
//! temporary certificate (public key) and unencrypted private key that can
//! be used to log into remote servers" with delegation (§2.6).
//!
//! Instead of ASN.1/DER this module uses a deterministic line-based
//! to-be-signed (TBS) encoding — the trust semantics (issuer signatures,
//! validity windows, CA flags, proxy subject-extension rules) are the part
//! of X.509 the rest of the stack depends on, and those are implemented
//! faithfully.

use std::fmt;

use rand::{Rng, RngExt};

use crate::bigint::BigUint;
use crate::dn::{AttributeType, DistinguishedName};
use crate::rsa::{self, KeyPair, PrivateKey, PublicKey, RsaError};

/// Seconds per day, for validity helpers.
pub const DAY: i64 = 86_400;

/// Wall-clock seconds since the Unix epoch (0 before it): the clock that
/// validity windows are issued from and checked against.
pub fn unix_now() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0)
}

/// Certificate kind: affects what the subject key may sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertKind {
    /// A certificate authority (can issue end-entity and CA certs).
    Authority,
    /// An end entity (user or server).
    EndEntity,
    /// A proxy certificate (issued by an end entity's own key).
    Proxy,
}

impl CertKind {
    fn label(self) -> &'static str {
        match self {
            CertKind::Authority => "authority",
            CertKind::EndEntity => "end-entity",
            CertKind::Proxy => "proxy",
        }
    }

    fn from_label(label: &str) -> Option<Self> {
        match label {
            "authority" => Some(CertKind::Authority),
            "end-entity" => Some(CertKind::EndEntity),
            "proxy" => Some(CertKind::Proxy),
            _ => None,
        }
    }
}

/// A signed certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Serial number, unique per issuer.
    pub serial: u64,
    /// Subject distinguished name.
    pub subject: DistinguishedName,
    /// Issuer distinguished name.
    pub issuer: DistinguishedName,
    /// Validity start (Unix seconds, inclusive).
    pub not_before: i64,
    /// Validity end (Unix seconds, exclusive).
    pub not_after: i64,
    /// Subject public key.
    pub public_key: PublicKey,
    /// What this certificate is.
    pub kind: CertKind,
    /// RSA signature over [`Certificate::tbs_bytes`] by the issuer key.
    pub signature: Vec<u8>,
}

/// Certificate validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// Signature did not verify.
    BadSignature,
    /// Certificate outside its validity window.
    Expired,
    /// Chain structure invalid (order, kinds, name chaining).
    InvalidChain(String),
    /// Serialized form unparseable.
    Malformed(String),
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::BadSignature => write!(f, "certificate signature invalid"),
            CertError::Expired => write!(f, "certificate expired or not yet valid"),
            CertError::InvalidChain(m) => write!(f, "invalid certificate chain: {m}"),
            CertError::Malformed(m) => write!(f, "malformed certificate: {m}"),
        }
    }
}

impl std::error::Error for CertError {}

impl From<RsaError> for CertError {
    fn from(_: RsaError) -> Self {
        CertError::BadSignature
    }
}

impl Certificate {
    /// Deterministic TBS encoding, the input to the issuer's signature.
    pub fn tbs_bytes(
        serial: u64,
        subject: &DistinguishedName,
        issuer: &DistinguishedName,
        not_before: i64,
        not_after: i64,
        public_key: &PublicKey,
        kind: CertKind,
    ) -> Vec<u8> {
        format!(
            "version: 1\nserial: {serial}\nsubject: {subject}\nissuer: {issuer}\n\
             not-before: {not_before}\nnot-after: {not_after}\n\
             key-n: {}\nkey-e: {}\nkind: {}\n",
            public_key.n().to_hex(),
            public_key.e().to_hex(),
            kind.label(),
        )
        .into_bytes()
    }

    /// This certificate's own TBS bytes.
    pub fn tbs(&self) -> Vec<u8> {
        Certificate::tbs_bytes(
            self.serial,
            &self.subject,
            &self.issuer,
            self.not_before,
            self.not_after,
            &self.public_key,
            self.kind,
        )
    }

    /// Verify this certificate's signature against an issuer public key.
    pub fn verify_signature(&self, issuer_key: &PublicKey) -> Result<(), CertError> {
        issuer_key
            .verify(&self.tbs(), &self.signature)
            .map_err(|_| CertError::BadSignature)
    }

    /// Is `now` inside the validity window?
    pub fn valid_at(&self, now: i64) -> bool {
        now >= self.not_before && now < self.not_after
    }

    /// Is this a self-signed certificate (subject == issuer)?
    pub fn is_self_signed(&self) -> bool {
        self.subject == self.issuer
    }

    /// Serialize to the storable text form (TBS plus signature line).
    pub fn to_text(&self) -> String {
        let mut text = String::from_utf8(self.tbs()).expect("TBS is UTF-8");
        text.push_str(&format!(
            "signature: {}\n",
            crate::sha256::to_hex(&self.signature)
        ));
        text
    }

    /// Parse the text form produced by [`Certificate::to_text`].
    pub fn from_text(text: &str) -> Result<Self, CertError> {
        let mut serial = None;
        let mut subject = None;
        let mut issuer = None;
        let mut not_before = None;
        let mut not_after = None;
        let mut key_n = None;
        let mut key_e = None;
        let mut kind = None;
        let mut signature = None;

        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (field, value) = line
                .split_once(": ")
                .ok_or_else(|| CertError::Malformed(format!("bad line {line:?}")))?;
            match field {
                "version" => {
                    if value != "1" {
                        return Err(CertError::Malformed(format!("unknown version {value}")));
                    }
                }
                "serial" => {
                    serial = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| CertError::Malformed(format!("bad serial {value:?}")))?,
                    )
                }
                "subject" => {
                    subject = Some(
                        DistinguishedName::parse(value)
                            .map_err(|e| CertError::Malformed(e.to_string()))?,
                    )
                }
                "issuer" => {
                    issuer = Some(
                        DistinguishedName::parse(value)
                            .map_err(|e| CertError::Malformed(e.to_string()))?,
                    )
                }
                "not-before" => {
                    not_before =
                        Some(value.parse::<i64>().map_err(|_| {
                            CertError::Malformed(format!("bad not-before {value:?}"))
                        })?)
                }
                "not-after" => {
                    not_after =
                        Some(value.parse::<i64>().map_err(|_| {
                            CertError::Malformed(format!("bad not-after {value:?}"))
                        })?)
                }
                "key-n" => {
                    key_n = Some(
                        BigUint::from_hex(value)
                            .ok_or_else(|| CertError::Malformed("bad key-n".to_string()))?,
                    )
                }
                "key-e" => {
                    key_e = Some(
                        BigUint::from_hex(value)
                            .ok_or_else(|| CertError::Malformed("bad key-e".to_string()))?,
                    )
                }
                "kind" => {
                    kind = Some(
                        CertKind::from_label(value)
                            .ok_or_else(|| CertError::Malformed(format!("bad kind {value:?}")))?,
                    )
                }
                "signature" => {
                    signature = Some(
                        hex_to_bytes(value)
                            .ok_or_else(|| CertError::Malformed("bad signature hex".into()))?,
                    )
                }
                other => {
                    return Err(CertError::Malformed(format!("unknown field {other:?}")));
                }
            }
        }

        let missing = |name: &str| CertError::Malformed(format!("missing field {name}"));
        Ok(Certificate {
            serial: serial.ok_or_else(|| missing("serial"))?,
            subject: subject.ok_or_else(|| missing("subject"))?,
            issuer: issuer.ok_or_else(|| missing("issuer"))?,
            not_before: not_before.ok_or_else(|| missing("not-before"))?,
            not_after: not_after.ok_or_else(|| missing("not-after"))?,
            public_key: PublicKey::new(
                key_n.ok_or_else(|| missing("key-n"))?,
                key_e.ok_or_else(|| missing("key-e"))?,
            ),
            kind: kind.ok_or_else(|| missing("kind"))?,
            signature: signature.ok_or_else(|| missing("signature"))?,
        })
    }
}

fn hex_to_bytes(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(text.len() / 2);
    for pair in text.as_bytes().chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

/// A certificate authority: a self-signed certificate plus its private key.
pub struct CertificateAuthority {
    /// The CA's self-signed certificate.
    pub certificate: Certificate,
    /// The CA signing key.
    pub key: PrivateKey,
    next_serial: std::sync::atomic::AtomicU64,
}

impl CertificateAuthority {
    /// Create a new root CA with a fresh key pair.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        name: DistinguishedName,
        now: i64,
        validity_days: i64,
    ) -> Self {
        let kp = rsa::generate(rng, rsa::DEFAULT_KEY_BITS);
        Self::with_keypair(kp, name, now, validity_days)
    }

    /// Create a root CA around an existing key pair (deterministic tests).
    pub fn with_keypair(
        kp: KeyPair,
        name: DistinguishedName,
        now: i64,
        validity_days: i64,
    ) -> Self {
        let tbs = Certificate::tbs_bytes(
            0,
            &name,
            &name,
            now,
            now + validity_days * DAY,
            &kp.public,
            CertKind::Authority,
        );
        let signature = kp.private.sign(&tbs);
        let certificate = Certificate {
            serial: 0,
            subject: name.clone(),
            issuer: name,
            not_before: now,
            not_after: now + validity_days * DAY,
            public_key: kp.public,
            kind: CertKind::Authority,
            signature,
        };
        CertificateAuthority {
            certificate,
            key: kp.private,
            next_serial: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// The serial number the next issued certificate will get.
    pub fn next_serial(&self) -> u64 {
        self.next_serial.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Set the next serial number (CAs persisted across processes restore
    /// their counter so serials stay unique per issuer).
    pub fn set_next_serial(&self, serial: u64) {
        self.next_serial
            .store(serial, std::sync::atomic::Ordering::Relaxed);
    }

    /// Issue an end-entity (user or server) certificate.
    pub fn issue(
        &self,
        subject: DistinguishedName,
        subject_key: &PublicKey,
        now: i64,
        validity_days: i64,
    ) -> Certificate {
        self.issue_kind(
            subject,
            subject_key,
            now,
            validity_days,
            CertKind::EndEntity,
        )
    }

    /// Issue an intermediate CA certificate.
    pub fn issue_ca(
        &self,
        subject: DistinguishedName,
        subject_key: &PublicKey,
        now: i64,
        validity_days: i64,
    ) -> Certificate {
        self.issue_kind(
            subject,
            subject_key,
            now,
            validity_days,
            CertKind::Authority,
        )
    }

    fn issue_kind(
        &self,
        subject: DistinguishedName,
        subject_key: &PublicKey,
        now: i64,
        validity_days: i64,
        kind: CertKind,
    ) -> Certificate {
        let serial = self
            .next_serial
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let not_after = now + validity_days * DAY;
        let tbs = Certificate::tbs_bytes(
            serial,
            &subject,
            &self.certificate.subject,
            now,
            not_after,
            subject_key,
            kind,
        );
        Certificate {
            serial,
            subject,
            issuer: self.certificate.subject.clone(),
            not_before: now,
            not_after,
            public_key: subject_key.clone(),
            kind,
            signature: self.key.sign(&tbs),
        }
    }
}

/// A credential: a certificate plus the matching private key (what a user
/// or server holds; also the payload the proxy service stores).
#[derive(Debug, Clone)]
pub struct Credential {
    /// The certificate.
    pub certificate: Certificate,
    /// The matching private key.
    pub key: PrivateKey,
    /// The issuing chain, leaf-first, excluding `certificate` itself and
    /// excluding the trust root (empty for directly CA-issued certs).
    pub chain: Vec<Certificate>,
}

impl Credential {
    /// Create a proxy credential from this one (paper §2.6): generates a
    /// fresh short-lived key pair whose certificate is signed by *this*
    /// credential's key, with the subject extended by `/CN=proxy`.
    pub fn delegate_proxy<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        now: i64,
        validity_secs: i64,
    ) -> Credential {
        let kp = rsa::generate(rng, rsa::DEFAULT_KEY_BITS);
        let subject = self
            .certificate
            .subject
            .with_component(AttributeType::CommonName, "proxy");
        let serial = rng.random::<u64>();
        let tbs = Certificate::tbs_bytes(
            serial,
            &subject,
            &self.certificate.subject,
            now,
            now + validity_secs,
            &kp.public,
            CertKind::Proxy,
        );
        let certificate = Certificate {
            serial,
            subject,
            issuer: self.certificate.subject.clone(),
            not_before: now,
            not_after: now + validity_secs,
            public_key: kp.public,
            kind: CertKind::Proxy,
            signature: self.key.sign(&tbs),
        };
        let mut chain = vec![self.certificate.clone()];
        chain.extend(self.chain.iter().cloned());
        Credential {
            certificate,
            key: kp.private,
            chain,
        }
    }

    /// The *effective identity* of this credential: for proxies, the DN of
    /// the end entity at the bottom of the delegation chain (ACLs and VO
    /// membership are evaluated against the user, not the proxy — this is
    /// the whole point of delegation).
    pub fn identity(&self) -> &DistinguishedName {
        for link in &self.chain {
            if link.kind == CertKind::EndEntity {
                return &link.subject;
            }
        }
        &self.certificate.subject
    }
}

/// Validate a certificate chain against a set of trust roots.
///
/// `chain` is leaf-first: `chain[0]` is the presented certificate, each
/// subsequent entry is its issuer, and the last entry must chain to (or be)
/// one of `roots`. Proxy rules: a proxy's issuer must be the end entity (or
/// previous proxy) whose subject prefixes the proxy's subject; proxies can
/// issue further proxies but never CA or end-entity certificates.
///
/// On success returns the *effective identity* DN (the end entity below any
/// proxies).
pub fn verify_chain(
    chain: &[Certificate],
    roots: &[Certificate],
    now: i64,
) -> Result<DistinguishedName, CertError> {
    if chain.is_empty() {
        return Err(CertError::InvalidChain("empty chain".into()));
    }
    // Every certificate must be in-validity.
    for cert in chain {
        if !cert.valid_at(now) {
            return Err(CertError::Expired);
        }
    }
    // Walk leaf -> root.
    for i in 0..chain.len() {
        let cert = &chain[i];
        let issuer_cert: &Certificate = if i + 1 < chain.len() {
            &chain[i + 1]
        } else {
            // Last link: must be signed by a trust root (or be one).
            let root = roots
                .iter()
                .find(|r| r.subject == cert.issuer)
                .ok_or_else(|| {
                    CertError::InvalidChain(format!("no trust root for issuer {}", cert.issuer))
                })?;
            if !root.valid_at(now) {
                return Err(CertError::Expired);
            }
            cert.verify_signature(&root.public_key)?;
            continue;
        };
        if issuer_cert.subject != cert.issuer {
            return Err(CertError::InvalidChain(format!(
                "issuer name mismatch: cert issued by {}, next link is {}",
                cert.issuer, issuer_cert.subject
            )));
        }
        // Kind rules.
        match (cert.kind, issuer_cert.kind) {
            (CertKind::Proxy, CertKind::EndEntity) | (CertKind::Proxy, CertKind::Proxy) => {
                if !cert.subject.has_prefix(&issuer_cert.subject) {
                    return Err(CertError::InvalidChain(
                        "proxy subject must extend issuer subject".into(),
                    ));
                }
            }
            (CertKind::EndEntity, CertKind::Authority)
            | (CertKind::Authority, CertKind::Authority) => {}
            (kind, issuer_kind) => {
                return Err(CertError::InvalidChain(format!(
                    "{} certificate cannot be issued by {} certificate",
                    kind.label(),
                    issuer_kind.label()
                )));
            }
        }
        cert.verify_signature(&issuer_cert.public_key)?;
    }

    // Effective identity: the first end entity from the leaf down.
    for cert in chain {
        if cert.kind == CertKind::EndEntity {
            return Ok(cert.subject.clone());
        }
    }
    Ok(chain[0].subject.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    const NOW: i64 = 1_118_836_800; // 2005-06-15

    fn dn(text: &str) -> DistinguishedName {
        DistinguishedName::parse(text).unwrap()
    }

    fn test_ca(seed: u64) -> CertificateAuthority {
        let mut rng = StdRng::seed_from_u64(seed);
        CertificateAuthority::new(&mut rng, dn("/O=doesciencegrid.org/CN=Test CA"), NOW, 3650)
    }

    fn user_credential(ca: &CertificateAuthority, name: &str, seed: u64) -> Credential {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
        let cert = ca.issue(dn(name), &kp.public, NOW, 365);
        Credential {
            certificate: cert,
            key: kp.private,
            chain: vec![],
        }
    }

    #[test]
    fn ca_self_signed() {
        let ca = test_ca(1);
        assert!(ca.certificate.is_self_signed());
        ca.certificate
            .verify_signature(&ca.certificate.public_key)
            .unwrap();
        assert_eq!(ca.certificate.kind, CertKind::Authority);
    }

    #[test]
    fn issue_and_verify_user_cert() {
        let ca = test_ca(2);
        let user = user_credential(
            &ca,
            "/O=doesciencegrid.org/OU=People/CN=John Smith 12345",
            3,
        );
        user.certificate
            .verify_signature(&ca.certificate.public_key)
            .unwrap();
        let id = verify_chain(
            std::slice::from_ref(&user.certificate),
            std::slice::from_ref(&ca.certificate),
            NOW + DAY,
        )
        .unwrap();
        assert_eq!(id, user.certificate.subject);
    }

    #[test]
    fn expired_cert_rejected() {
        let ca = test_ca(4);
        let user = user_credential(&ca, "/O=x/CN=u", 5);
        let roots = [ca.certificate.clone()];
        assert_eq!(
            verify_chain(
                std::slice::from_ref(&user.certificate),
                &roots,
                NOW + 366 * DAY
            ),
            Err(CertError::Expired)
        );
        assert_eq!(
            verify_chain(std::slice::from_ref(&user.certificate), &roots, NOW - 1),
            Err(CertError::Expired)
        );
    }

    #[test]
    fn unknown_issuer_rejected() {
        let ca1 = test_ca(6);
        let user = user_credential(&ca1, "/O=x/CN=u", 8);
        // A root with a different subject: no candidate issuer at all.
        let mut rng = StdRng::seed_from_u64(7);
        let other_ca = CertificateAuthority::new(&mut rng, dn("/O=cern.ch/CN=Other CA"), NOW, 3650);
        match verify_chain(
            std::slice::from_ref(&user.certificate),
            &[other_ca.certificate],
            NOW + 1,
        ) {
            Err(CertError::InvalidChain(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
        // A root with the *same* subject but a different key: the name
        // matches, the signature must not.
        let impostor = test_ca(7); // same DN as test_ca(6)
        match verify_chain(&[user.certificate], &[impostor.certificate], NOW + 1) {
            Err(CertError::BadSignature) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn forged_signature_rejected() {
        let ca = test_ca(9);
        let mut user = user_credential(&ca, "/O=x/CN=u", 10);
        user.certificate.subject = dn("/O=x/CN=admin"); // tamper
        assert!(verify_chain(&[user.certificate], &[ca.certificate], NOW + 1).is_err());
    }

    #[test]
    fn proxy_delegation() {
        let ca = test_ca(11);
        let user = user_credential(&ca, "/O=org/OU=People/CN=alice", 12);
        let mut rng = StdRng::seed_from_u64(13);
        let proxy = user.delegate_proxy(&mut rng, NOW + 10, 12 * 3600);

        assert_eq!(
            proxy.certificate.subject.to_string(),
            "/O=org/OU=People/CN=alice/CN=proxy"
        );
        assert_eq!(proxy.certificate.kind, CertKind::Proxy);
        // Chain: proxy -> user -> CA root.
        let mut chain = vec![proxy.certificate.clone()];
        chain.extend(proxy.chain.clone());
        let id = verify_chain(&chain, std::slice::from_ref(&ca.certificate), NOW + 20).unwrap();
        // The effective identity is the *user*, not the proxy.
        assert_eq!(id, user.certificate.subject);
        assert_eq!(proxy.identity(), &user.certificate.subject);
    }

    #[test]
    fn second_level_proxy() {
        let ca = test_ca(14);
        let user = user_credential(&ca, "/O=org/CN=bob", 15);
        let mut rng = StdRng::seed_from_u64(16);
        let p1 = user.delegate_proxy(&mut rng, NOW, 3600);
        let p2 = p1.delegate_proxy(&mut rng, NOW, 1800);
        assert_eq!(
            p2.certificate.subject.to_string(),
            "/O=org/CN=bob/CN=proxy/CN=proxy"
        );
        let mut chain = vec![p2.certificate.clone()];
        chain.extend(p2.chain.clone());
        let id = verify_chain(&chain, std::slice::from_ref(&ca.certificate), NOW + 5).unwrap();
        assert_eq!(id, user.certificate.subject);
    }

    #[test]
    fn proxy_expires_before_user_cert() {
        let ca = test_ca(17);
        let user = user_credential(&ca, "/O=org/CN=carol", 18);
        let mut rng = StdRng::seed_from_u64(19);
        let proxy = user.delegate_proxy(&mut rng, NOW, 3600);
        let mut chain = vec![proxy.certificate.clone()];
        chain.extend(proxy.chain.clone());
        // After the proxy lifetime but well within the user cert lifetime.
        assert_eq!(
            verify_chain(&chain, std::slice::from_ref(&ca.certificate), NOW + 7200),
            Err(CertError::Expired)
        );
    }

    #[test]
    fn proxy_cannot_issue_end_entity() {
        let ca = test_ca(20);
        let user = user_credential(&ca, "/O=org/CN=dave", 21);
        let mut rng = StdRng::seed_from_u64(22);
        let proxy = user.delegate_proxy(&mut rng, NOW, 3600);

        // Hand-craft an end-entity cert "issued" by the proxy key.
        let kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
        let subject = dn("/O=org/CN=mallory");
        let tbs = Certificate::tbs_bytes(
            99,
            &subject,
            &proxy.certificate.subject,
            NOW,
            NOW + DAY,
            &kp.public,
            CertKind::EndEntity,
        );
        let rogue = Certificate {
            serial: 99,
            subject,
            issuer: proxy.certificate.subject.clone(),
            not_before: NOW,
            not_after: NOW + DAY,
            public_key: kp.public,
            kind: CertKind::EndEntity,
            signature: proxy.key.sign(&tbs),
        };
        let mut chain = vec![rogue, proxy.certificate.clone()];
        chain.extend(proxy.chain.clone());
        match verify_chain(&chain, std::slice::from_ref(&ca.certificate), NOW + 1) {
            Err(CertError::InvalidChain(msg)) => {
                assert!(msg.contains("cannot be issued"), "{msg}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn proxy_subject_must_extend_issuer() {
        let ca = test_ca(23);
        let user = user_credential(&ca, "/O=org/CN=erin", 24);
        let mut rng = StdRng::seed_from_u64(25);
        // Craft a proxy whose subject is NOT an extension of the user DN.
        let kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
        let subject = dn("/O=org/CN=impostor/CN=proxy");
        let tbs = Certificate::tbs_bytes(
            7,
            &subject,
            &user.certificate.subject,
            NOW,
            NOW + 3600,
            &kp.public,
            CertKind::Proxy,
        );
        let bad_proxy = Certificate {
            serial: 7,
            subject,
            issuer: user.certificate.subject.clone(),
            not_before: NOW,
            not_after: NOW + 3600,
            public_key: kp.public,
            kind: CertKind::Proxy,
            signature: user.key.sign(&tbs),
        };
        let chain = vec![bad_proxy, user.certificate.clone()];
        match verify_chain(&chain, std::slice::from_ref(&ca.certificate), NOW + 1) {
            Err(CertError::InvalidChain(msg)) => assert!(msg.contains("extend"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn intermediate_ca_chain() {
        let root = test_ca(26);
        let mut rng = StdRng::seed_from_u64(27);
        let inter_kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
        let inter_cert = root.issue_ca(dn("/O=org/CN=Intermediate CA"), &inter_kp.public, NOW, 730);
        let inter = CertificateAuthority::with_keypair(
            KeyPair {
                public: inter_kp.public.clone(),
                private: inter_kp.private.clone(),
            },
            dn("/O=org/CN=Intermediate CA"),
            NOW,
            730,
        );
        // Re-issue via the intermediate (with_keypair made it self-signed;
        // we use its key but present the root-issued cert in the chain).
        let user_kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
        let user_cert = inter.issue(dn("/O=org/CN=frank"), &user_kp.public, NOW, 365);
        let chain = vec![user_cert, inter_cert];
        let id = verify_chain(&chain, std::slice::from_ref(&root.certificate), NOW + 1).unwrap();
        assert_eq!(id.to_string(), "/O=org/CN=frank");
    }

    #[test]
    fn text_roundtrip() {
        let ca = test_ca(28);
        let user = user_credential(&ca, "/O=org/OU=People/CN=grace", 29);
        let text = user.certificate.to_text();
        let parsed = Certificate::from_text(&text).unwrap();
        assert_eq!(parsed, user.certificate);
        // Signature still verifies after round-trip.
        parsed.verify_signature(&ca.certificate.public_key).unwrap();
    }

    #[test]
    fn malformed_text_rejected() {
        assert!(Certificate::from_text("").is_err());
        assert!(Certificate::from_text("version: 2\n").is_err());
        assert!(Certificate::from_text("nonsense").is_err());
        let ca = test_ca(30);
        let text = ca.certificate.to_text();
        // Drop the signature line.
        let without_sig: String = text
            .lines()
            .filter(|l| !l.starts_with("signature"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(matches!(
            Certificate::from_text(&without_sig),
            Err(CertError::Malformed(_))
        ));
    }

    #[test]
    fn serial_numbers_increment() {
        let ca = test_ca(31);
        let mut rng = StdRng::seed_from_u64(32);
        let kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
        let c1 = ca.issue(dn("/O=o/CN=a"), &kp.public, NOW, 1);
        let c2 = ca.issue(dn("/O=o/CN=b"), &kp.public, NOW, 1);
        assert_ne!(c1.serial, c2.serial);
    }

    #[test]
    fn empty_chain_rejected() {
        let ca = test_ca(33);
        assert!(verify_chain(&[], std::slice::from_ref(&ca.certificate), NOW).is_err());
    }
}
