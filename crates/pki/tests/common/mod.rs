//! Fixture shared by the secure-channel integration tests: one fixed PKI,
//! one fixed conversation, and the SHA-256 of the bytes that conversation
//! puts on the wire.
#![allow(dead_code)]

use clarens_pki::cert::{Certificate, CertificateAuthority, Credential};
use clarens_pki::dn::DistinguishedName;
use clarens_pki::rsa;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 2005-06-15, the validity anchor of every certificate below.
pub const NOW: i64 = 1_118_836_800;
/// Seed of the rng the client end draws its hello random, premaster and RSA
/// padding from — in that order; the order is part of the wire format.
pub const CLIENT_SEED: u64 = 2000;
/// Seed of the rng the server end draws its hello random from.
pub const SERVER_SEED: u64 = 1000;

/// SHA-256 over `client-to-server bytes || server-to-client bytes` of the
/// conversation below, recorded at commit `4bde7e3` (the last one whose
/// `SecureStream` owned its socket). Any build that reproduces it speaks
/// to that commit's clients and servers.
pub const GOLDEN_SHA256: &str = "4aa640f331238e7e9f50a15e55f3b8f4455f12f250be1d77d36e6b3cf791b0e2";

/// SHA-256 over the armored private-key blocks (`n`, `e`, `d`, `p`, `q`) of
/// four 512-bit keys generated in a row from
/// `StdRng::seed_from_u64(0xC1A2E5)`, recorded at commit `33a3c7b`
/// (division-based `modpow`, `BigUint` trial division).
pub const GOLDEN_KEYS_SHA256: &str =
    "bd375f52acd837e3b5a1c1b814b2bcccd9f769018dfb661bfa27e5a733def98d";

pub struct Pki {
    pub root: Certificate,
    pub server: Credential,
    pub client: Credential,
}

pub fn pki() -> Pki {
    let mut rng = StdRng::seed_from_u64(0x601D);
    let dn = |text: &str| DistinguishedName::parse(text).unwrap();
    let ca = CertificateAuthority::new(&mut rng, dn("/O=golden/CN=CA"), NOW, 3650);
    let mut issue = |subject: &str| {
        let kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
        Credential {
            certificate: ca.issue(dn(subject), &kp.public, NOW, 365),
            key: kp.private,
            chain: vec![],
        }
    };
    Pki {
        server: issue("/O=golden/OU=Services/CN=host"),
        client: issue("/O=golden/OU=People/CN=alice"),
        root: ca.certificate.clone(),
    }
}

/// What the client sends after the handshake, one record per message.
pub fn client_messages() -> [Vec<u8>; 3] {
    [
        b"GET /clarens HTTP/1.1\r\nHost: golden\r\n\r\n".to_vec(),
        vec![0x5A; 1],
        (0..9000u32).map(|i| (i % 251) as u8).collect(),
    ]
}

/// What the server answers, one record per message.
pub fn server_messages() -> [Vec<u8>; 3] {
    [
        b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n".to_vec(),
        (0..16_384u32).map(|i| (i % 239) as u8).collect(),
        vec![0xA5; 77],
    ]
}
