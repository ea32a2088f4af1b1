//! HMAC-SHA256 (RFC 2104) and an HKDF-style key expansion.
//!
//! The secure channel ([`crate::channel`]) MACs every record with
//! HMAC-SHA256 and derives its directional keys with the expansion
//! implemented here (modelled on TLS's PRF/HKDF-Expand).

use crate::sha256::{sha256, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Compute `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC-SHA256.
///
/// A value that has absorbed no message yet is the *keyed midstate*: both
/// hashes have compressed their pad block, so a clone of it starts a MAC
/// under the same key for the price of a copy. The record layer keys one per
/// direction and clones it per record.
#[derive(Clone)]
pub struct HmacSha256 {
    /// `H(key ^ ipad ‖ …`, absorbing the message.
    inner: Sha256,
    /// `H(key ^ opad ‖ …`, waiting for the inner digest.
    outer: Sha256,
}

impl HmacSha256 {
    /// Initialize with a key of any length.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut hash = Sha256::new();
            hash.update(&key_block.map(|byte| byte ^ pad));
            hash
        };
        HmacSha256 {
            inner: keyed(0x36),
            outer: keyed(0x5c),
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produce the MAC.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        self.outer.update(&self.inner.finalize());
        self.outer.finalize()
    }
}

/// Constant-time comparison of two MACs.
pub fn verify_mac(expected: &[u8], actual: &[u8]) -> bool {
    if expected.len() != actual.len() {
        return false;
    }
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(actual) {
        diff |= a ^ b;
    }
    diff == 0
}

/// HKDF-Expand-style derivation: produce `len` bytes of key material from
/// `secret`, bound to `label` and `context`.
pub fn derive_key(secret: &[u8], label: &str, context: &[u8], len: usize) -> Vec<u8> {
    let keyed = HmacSha256::new(secret);
    let mut out = Vec::with_capacity(len.next_multiple_of(DIGEST_LEN));
    // Each block is chained to the one before it; the first to nothing.
    let mut previous = [0u8; DIGEST_LEN];
    let mut counter = 1u8;
    while out.len() < len {
        let mut mac = keyed.clone();
        if !out.is_empty() {
            mac.update(&previous);
        }
        mac.update(label.as_bytes());
        mac.update(context);
        mac.update(&[counter]);
        previous = mac.finalize();
        out.extend_from_slice(&previous);
        counter = counter.wrapping_add(1);
    }
    out.truncate(len);
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sha256::tests::reference_sha256;
    use crate::sha256::to_hex;

    /// RFC 2104 as written — `H((K ^ opad) ‖ H((K ^ ipad) ‖ message))`, the
    /// key schedule redone per call — over the loop-form SHA-256: no line
    /// shared with the kernels it checks.
    pub(crate) fn reference_hmac(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block[..DIGEST_LEN].copy_from_slice(&reference_sha256(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let mut inner = block.map(|b| b ^ 0x36).to_vec();
        inner.extend_from_slice(message);
        let mut outer = block.map(|b| b ^ 0x5c).to_vec();
        outer.extend_from_slice(&reference_sha256(&inner));
        reference_sha256(&outer)
    }

    /// RFC 4231 test vectors for HMAC-SHA256.
    #[test]
    fn rfc4231_vectors() {
        // Case 1
        let key = [0x0b; 20];
        assert_eq!(
            to_hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Case 2
        assert_eq!(
            to_hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // Case 3
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        assert_eq!(
            to_hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
        // Case 6: key longer than block size
        let key = [0xaa; 131];
        assert_eq!(
            to_hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
        // Case 7: key and data longer than block size
        let msg = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        assert_eq!(
            to_hex(&hmac_sha256(&key, msg)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"session-key";
        let msg = b"a record payload of moderate size for the channel";
        let oneshot = hmac_sha256(key, msg);
        let mut mac = HmacSha256::new(key);
        for chunk in msg.chunks(7) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), oneshot);
    }

    /// A keyed value that has absorbed nothing is a midstate: each clone of
    /// it MACs one message as a fresh `HmacSha256::new(key)` would. Keys on
    /// both sides of the block size, RFC 4231 case 2 among them.
    #[test]
    fn cloned_midstate_matches_a_fresh_key_schedule() {
        let keyed = HmacSha256::new(b"Jefe");
        let mut mac = keyed.clone();
        mac.update(b"what do ya want ");
        mac.update(b"for nothing?");
        assert_eq!(
            to_hex(&mac.finalize()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        for key_len in [0usize, 1, 32, 63, 64, 65, 131, 200] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 3 + 1) as u8).collect();
            let keyed = HmacSha256::new(&key);
            for msg_len in [0usize, 1, 55, 56, 64, 119, 300] {
                let msg: Vec<u8> = (0..msg_len).map(|i| (i * 7) as u8).collect();
                let expect = reference_hmac(&key, &msg);
                let mut mac = keyed.clone();
                mac.update(&msg);
                assert_eq!(mac.finalize(), expect, "key {key_len}, message {msg_len}");
                assert_eq!(hmac_sha256(&key, &msg), expect);
            }
        }
    }

    /// The expansion chains each block to the one before it; its output is
    /// pinned so the chaining (and the 76-byte direction material cut from
    /// it) cannot drift.
    #[test]
    fn derive_key_output_is_pinned() {
        let first = hmac_sha256(b"secret", b"labelctx\x01");
        let mut second_input = first.to_vec();
        second_input.extend_from_slice(b"labelctx\x02");
        let second = hmac_sha256(b"secret", &second_input);
        let mut third_input = second.to_vec();
        third_input.extend_from_slice(b"labelctx\x03");
        let third = hmac_sha256(b"secret", &third_input);
        let expect = [first, second, third].concat();
        assert_eq!(derive_key(b"secret", "label", b"ctx", 76), expect[..76]);
        assert_eq!(derive_key(b"secret", "label", b"ctx", 96), expect);
        assert!(derive_key(b"secret", "label", b"ctx", 0).is_empty());
    }

    #[test]
    fn verify_mac_behaviour() {
        let a = [1u8, 2, 3];
        assert!(verify_mac(&a, &[1, 2, 3]));
        assert!(!verify_mac(&a, &[1, 2, 4]));
        assert!(!verify_mac(&a, &[1, 2]));
        assert!(verify_mac(&[], &[]));
    }

    #[test]
    fn derive_key_properties() {
        let k1 = derive_key(b"secret", "client write", b"ctx", 32);
        let k2 = derive_key(b"secret", "server write", b"ctx", 32);
        let k3 = derive_key(b"secret", "client write", b"ctx", 32);
        let k4 = derive_key(b"other", "client write", b"ctx", 32);
        assert_eq!(k1, k3); // deterministic
        assert_ne!(k1, k2); // label-separated
        assert_ne!(k1, k4); // secret-separated
        assert_eq!(derive_key(b"s", "l", b"c", 100).len(), 100);
        // Prefix property does NOT hold across lengths by construction of
        // counter-mode expansion; but same length always matches.
        assert_eq!(
            derive_key(b"s", "l", b"c", 7),
            derive_key(b"s", "l", b"c", 7)
        );
    }
}
