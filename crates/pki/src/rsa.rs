//! Textbook RSA with PKCS#1 v1.5-style padding, on [`crate::bigint`].
//!
//! This is the asymmetric primitive behind certificates, proxy delegation,
//! and the secure-channel handshake. Key generation uses Miller–Rabin
//! primes; private-key operations use the CRT optimization. Signatures are
//! RSASSA-PKCS1-v1_5 over SHA-256; encryption is RSAES-PKCS1-v1_5.
//!
//! **Security disclaimer** (also in DESIGN.md): this implementation is not
//! constant-time and uses short keys by default so that test suites and
//! benchmarks run quickly. It simulates the *cost structure and semantics*
//! of the paper's X.509/SSL stack; it must not protect real data.

use rand::{Rng, RngExt};

use crate::bigint::{BigUint, Modulus};
use crate::sha256::sha256;

/// Default modulus size for generated keys (bits). 512 keeps handshakes
/// affordable in tests; benchmarks can request larger sizes.
pub const DEFAULT_KEY_BITS: usize = 512;

/// The public exponent, the conventional F4.
pub const PUBLIC_EXPONENT: u64 = 65_537;

/// RSA errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// Message too long for the modulus.
    MessageTooLong,
    /// Ciphertext or signature does not match the modulus size.
    InvalidLength,
    /// Padding check failed on decryption.
    PaddingError,
    /// Signature verification failed.
    BadSignature,
}

impl std::fmt::Display for RsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsaError::MessageTooLong => write!(f, "message too long for RSA modulus"),
            RsaError::InvalidLength => write!(f, "input length does not match modulus"),
            RsaError::PaddingError => write!(f, "PKCS#1 padding check failed"),
            RsaError::BadSignature => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for RsaError {}

/// An RSA public key. The modulus is held prepared for exponentiation
/// ([`Modulus`]), so the per-modulus constants are computed once per key,
/// not once per operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicKey {
    n: Modulus,
    e: BigUint,
}

/// An RSA private key (with CRT parameters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrivateKey {
    /// The public half.
    pub public: PublicKey,
    d: BigUint,
    p: Modulus,
    q: Modulus,
    /// `d mod (p-1)`.
    dp: BigUint,
    /// `d mod (q-1)`.
    dq: BigUint,
    /// `q^{-1} mod p`.
    qinv: BigUint,
}

/// A generated key pair.
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// Public key.
    pub public: PublicKey,
    /// Private key.
    pub private: PrivateKey,
}

impl PublicKey {
    /// A key from its modulus and public exponent. Anything is accepted (a
    /// peer's certificate supplies both); a nonsensical key verifies nothing.
    pub fn new(n: BigUint, e: BigUint) -> PublicKey {
        PublicKey {
            n: Modulus::new(n),
            e,
        }
    }

    /// Modulus.
    pub fn n(&self) -> &BigUint {
        self.n.value()
    }

    /// Public exponent.
    pub fn e(&self) -> &BigUint {
        &self.e
    }

    /// Modulus size in bytes.
    pub fn modulus_len(&self) -> usize {
        self.n().bit_length().div_ceil(8)
    }

    /// Raw RSA public operation `m^e mod n`.
    fn raw(&self, m: &BigUint) -> BigUint {
        self.n.pow(m, &self.e)
    }

    /// Encrypt with RSAES-PKCS1-v1_5 (type 2 padding).
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        message: &[u8],
    ) -> Result<Vec<u8>, RsaError> {
        let k = self.modulus_len();
        if message.len() + 11 > k {
            return Err(RsaError::MessageTooLong);
        }
        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.push(0x02);
        for _ in 0..(k - message.len() - 3) {
            // Nonzero random padding bytes.
            loop {
                let b: u8 = rng.random();
                if b != 0 {
                    em.push(b);
                    break;
                }
            }
        }
        em.push(0x00);
        em.extend_from_slice(message);
        let c = self.raw(&BigUint::from_bytes_be(&em));
        Ok(c.to_bytes_be_padded(k))
    }

    /// Verify an RSASSA-PKCS1-v1_5 SHA-256 signature.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), RsaError> {
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(RsaError::InvalidLength);
        }
        let s = BigUint::from_bytes_be(signature);
        if &s >= self.n() {
            return Err(RsaError::InvalidLength);
        }
        let em = self.raw(&s).to_bytes_be_padded(k);
        let expected = emsa_pkcs1_v15(message, k)?;
        if em == expected {
            Ok(())
        } else {
            Err(RsaError::BadSignature)
        }
    }
}

impl PrivateKey {
    /// A key from its public half, private exponent and primes; the CRT
    /// parameters are derived here. `None` when they do not exist (`p` or `q`
    /// below two, or `q` not invertible modulo `p`).
    pub fn new(public: PublicKey, d: BigUint, p: BigUint, q: BigUint) -> Option<PrivateKey> {
        let one = BigUint::one();
        if p <= one || q <= one {
            return None;
        }
        let dp = d.rem(&p.sub(&one));
        let dq = d.rem(&q.sub(&one));
        let qinv = q.modinv(&p)?;
        Some(PrivateKey {
            public,
            d,
            p: Modulus::new(p),
            q: Modulus::new(q),
            dp,
            dq,
            qinv,
        })
    }

    /// Private exponent.
    pub fn d(&self) -> &BigUint {
        &self.d
    }

    /// First prime.
    pub fn p(&self) -> &BigUint {
        self.p.value()
    }

    /// Second prime.
    pub fn q(&self) -> &BigUint {
        self.q.value()
    }

    /// Raw RSA private operation using the CRT.
    fn raw(&self, c: &BigUint) -> BigUint {
        // m1 = c^dp mod p ; m2 = c^dq mod q
        let m1 = self.p.pow(c, &self.dp);
        let m2 = self.q.pow(c, &self.dq);
        // h = qinv * (m1 - m2) mod p, as the difference of two products
        // already reduced, so no step can go negative.
        let h1 = self.p.mul(&self.qinv, &m1);
        let h2 = self.p.mul(&self.qinv, &m2);
        let h = if h1 >= h2 {
            h1.sub(&h2)
        } else {
            h1.add(self.p()).sub(&h2)
        };
        // m = m2 + h*q
        m2.add(&h.mul(self.q()))
    }

    /// Decrypt RSAES-PKCS1-v1_5.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, RsaError> {
        let k = self.public.modulus_len();
        if ciphertext.len() != k {
            return Err(RsaError::InvalidLength);
        }
        let c = BigUint::from_bytes_be(ciphertext);
        if &c >= self.public.n() {
            return Err(RsaError::InvalidLength);
        }
        let em = self.raw(&c).to_bytes_be_padded(k);
        if em.len() < 11 || em[0] != 0x00 || em[1] != 0x02 {
            return Err(RsaError::PaddingError);
        }
        // Find the 0x00 separator after at least 8 padding bytes.
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(RsaError::PaddingError)?;
        if sep < 8 {
            return Err(RsaError::PaddingError);
        }
        Ok(em[2 + sep + 1..].to_vec())
    }

    /// Sign with RSASSA-PKCS1-v1_5 over SHA-256.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let k = self.public.modulus_len();
        let em = emsa_pkcs1_v15(message, k).expect("modulus too small for SHA-256 signature");
        let m = BigUint::from_bytes_be(&em);
        self.raw(&m).to_bytes_be_padded(k)
    }
}

/// EMSA-PKCS1-v1_5 encoding: `00 01 FF..FF 00 <DigestInfo(SHA-256)> <hash>`.
fn emsa_pkcs1_v15(message: &[u8], k: usize) -> Result<Vec<u8>, RsaError> {
    /// DER prefix for a SHA-256 DigestInfo.
    const SHA256_PREFIX: [u8; 19] = [
        0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01,
        0x05, 0x00, 0x04, 0x20,
    ];
    let digest = sha256(message);
    let t_len = SHA256_PREFIX.len() + digest.len();
    if k < t_len + 11 {
        return Err(RsaError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xFF);
    em.push(0x00);
    em.extend_from_slice(&SHA256_PREFIX);
    em.extend_from_slice(&digest);
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

/// Generate a key pair with the given modulus size in bits.
pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> KeyPair {
    assert!(bits >= 384, "modulus too small for SHA-256 signatures");
    let e = BigUint::from_u64(PUBLIC_EXPONENT);
    loop {
        let p = BigUint::random_prime(rng, bits / 2);
        let q = BigUint::random_prime(rng, bits - bits / 2);
        if p == q {
            continue;
        }
        let n = p.mul(&q);
        if n.bit_length() != bits {
            continue;
        }
        let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
        let d = match e.modinv(&phi) {
            Some(d) => d,
            None => continue, // gcd(e, phi) != 1; rare — pick new primes
        };
        let public = PublicKey::new(n, e.clone());
        if let Some(private) = PrivateKey::new(public.clone(), d, p, q) {
            return KeyPair { public, private };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn keypair() -> KeyPair {
        let mut rng = StdRng::seed_from_u64(20050615);
        generate(&mut rng, DEFAULT_KEY_BITS)
    }

    #[test]
    fn keygen_invariants() {
        let kp = keypair();
        assert_eq!(kp.public.n().bit_length(), DEFAULT_KEY_BITS);
        assert_eq!(kp.public.e(), &BigUint::from_u64(PUBLIC_EXPONENT));
        // d·e ≡ 1 (mod φ)
        let (p, q) = (kp.private.p(), kp.private.q());
        let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
        assert_eq!(kp.private.d().mulmod(kp.public.e(), &phi), BigUint::one());
        // p·q = n
        assert_eq!(&p.mul(q), kp.public.n());
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(1);
        for msg in [&b""[..], b"x", b"premaster-secret-0123456789abcdef"] {
            let ct = kp.public.encrypt(&mut rng, msg).unwrap();
            assert_eq!(ct.len(), kp.public.modulus_len());
            assert_eq!(kp.private.decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn encryption_randomized() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(2);
        let a = kp.public.encrypt(&mut rng, b"same message").unwrap();
        let b = kp.public.encrypt(&mut rng, b"same message").unwrap();
        assert_ne!(a, b, "PKCS#1 type 2 padding must randomize ciphertexts");
    }

    #[test]
    fn message_too_long_rejected() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(3);
        let too_long = vec![0u8; kp.public.modulus_len() - 10];
        assert_eq!(
            kp.public.encrypt(&mut rng, &too_long),
            Err(RsaError::MessageTooLong)
        );
    }

    #[test]
    fn tampered_ciphertext_fails_padding() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(4);
        let mut ct = kp.public.encrypt(&mut rng, b"secret").unwrap();
        ct[5] ^= 0xFF;
        // Either padding fails or (vanishingly unlikely) garbage decrypts;
        // padding failure is the expected outcome.
        assert!(kp.private.decrypt(&ct).is_err() || kp.private.decrypt(&ct).unwrap() != b"secret");
        assert_eq!(kp.private.decrypt(&ct[1..]), Err(RsaError::InvalidLength));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair();
        let msg = b"certificate to-be-signed bytes";
        let sig = kp.private.sign(msg);
        assert_eq!(sig.len(), kp.public.modulus_len());
        kp.public.verify(msg, &sig).unwrap();
    }

    #[test]
    fn verify_rejects_wrong_message_and_tampering() {
        let kp = keypair();
        let sig = kp.private.sign(b"original");
        assert_eq!(
            kp.public.verify(b"forged", &sig),
            Err(RsaError::BadSignature)
        );
        let mut bad = sig.clone();
        bad[0] ^= 1;
        assert!(kp.public.verify(b"original", &bad).is_err());
        assert_eq!(
            kp.public.verify(b"original", &sig[1..]),
            Err(RsaError::InvalidLength)
        );
    }

    #[test]
    fn verify_rejects_other_key() {
        let kp1 = keypair();
        let mut rng = StdRng::seed_from_u64(99);
        let kp2 = generate(&mut rng, DEFAULT_KEY_BITS);
        let sig = kp1.private.sign(b"msg");
        assert!(kp2.public.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let m = BigUint::random_below(&mut rng, kp.public.n());
            let crt = kp.private.raw(&m);
            let plain = m.modpow_by_division(kp.private.d(), kp.public.n());
            assert_eq!(crt, plain);
        }
    }

    #[test]
    fn signature_deterministic() {
        let kp = keypair();
        assert_eq!(kp.private.sign(b"m"), kp.private.sign(b"m"));
    }
}
