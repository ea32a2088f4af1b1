//! ChaCha20 stream cipher (RFC 8439), from scratch.
//!
//! The secure channel uses ChaCha20 for record encryption — it stands in for
//! the symmetric ciphers a 2005 SSL stack would negotiate (RC4/3DES/AES),
//! reproducing the per-byte encryption cost that the paper's informal "SSL
//! reduces performance by up to 50%" measurement reflects.

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;
/// Keystream block size.
const BLOCK_LEN: usize = 64;

/// A ChaCha20 cipher instance positioned at a block counter.
pub struct ChaCha20 {
    state: [u32; 16],
    /// The block a ragged `apply` stopped in the middle of.
    keystream: [u8; BLOCK_LEN],
    /// Offset into `keystream` of the next unused byte (BLOCK_LEN = empty).
    offset: usize,
}

/// The quarter round of RFC 8439 §2.1 on four of the sixteen locals.
macro_rules! quarter_round {
    ($a:ident, $b:ident, $c:ident, $d:ident) => {
        $a = $a.wrapping_add($b);
        $d = ($d ^ $a).rotate_left(16);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_left(12);
        $a = $a.wrapping_add($b);
        $d = ($d ^ $a).rotate_left(8);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_left(7);
    };
}

impl ChaCha20 {
    /// Create a cipher with the given key and nonce, starting at block
    /// `counter` (0 for the start of the stream).
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        let mut state = [0u32; 16];
        // "expand 32-byte k"
        state[..4].copy_from_slice(&[0x61707865, 0x3320646e, 0x79622d32, 0x6b206574]);
        for (word, bytes) in state[4..12].iter_mut().zip(key.as_chunks::<4>().0) {
            *word = u32::from_le_bytes(*bytes);
        }
        state[12] = counter;
        for (word, bytes) in state[13..].iter_mut().zip(nonce.as_chunks::<4>().0) {
            *word = u32::from_le_bytes(*bytes);
        }
        ChaCha20 {
            state,
            keystream: [0; BLOCK_LEN],
            offset: BLOCK_LEN,
        }
    }

    /// The next keystream block as sixteen words, advancing the counter
    /// (which wraps within its own word, as in the RFC).
    #[inline]
    fn next_block(&mut self) -> [u32; 16] {
        let [s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15] = self.state;
        let (mut x0, mut x1, mut x2, mut x3) = (s0, s1, s2, s3);
        let (mut x4, mut x5, mut x6, mut x7) = (s4, s5, s6, s7);
        let (mut x8, mut x9, mut x10, mut x11) = (s8, s9, s10, s11);
        let (mut x12, mut x13, mut x14, mut x15) = (s12, s13, s14, s15);
        for _ in 0..10 {
            // Column rounds.
            quarter_round!(x0, x4, x8, x12);
            quarter_round!(x1, x5, x9, x13);
            quarter_round!(x2, x6, x10, x14);
            quarter_round!(x3, x7, x11, x15);
            // Diagonal rounds.
            quarter_round!(x0, x5, x10, x15);
            quarter_round!(x1, x6, x11, x12);
            quarter_round!(x2, x7, x8, x13);
            quarter_round!(x3, x4, x9, x14);
        }
        self.state[12] = s12.wrapping_add(1);
        [
            x0.wrapping_add(s0),
            x1.wrapping_add(s1),
            x2.wrapping_add(s2),
            x3.wrapping_add(s3),
            x4.wrapping_add(s4),
            x5.wrapping_add(s5),
            x6.wrapping_add(s6),
            x7.wrapping_add(s7),
            x8.wrapping_add(s8),
            x9.wrapping_add(s9),
            x10.wrapping_add(s10),
            x11.wrapping_add(s11),
            x12.wrapping_add(s12),
            x13.wrapping_add(s13),
            x14.wrapping_add(s14),
            x15.wrapping_add(s15),
        ]
    }

    /// XOR the keystream into `data` in place (encryption == decryption):
    /// whole blocks a word at a time, and byte by byte only what is left of
    /// a block an earlier call stopped in, and this call's own tail.
    pub fn apply(&mut self, data: &mut [u8]) {
        let head = (BLOCK_LEN - self.offset).min(data.len());
        let (head, data) = data.split_at_mut(head);
        self.apply_buffered(head);

        let (blocks, tail) = data.as_chunks_mut::<BLOCK_LEN>();
        for block in blocks {
            let keystream = self.next_block();
            for (bytes, word) in block.as_chunks_mut::<4>().0.iter_mut().zip(keystream) {
                *bytes = (u32::from_le_bytes(*bytes) ^ word).to_le_bytes();
            }
        }

        if !tail.is_empty() {
            let keystream = self.next_block();
            for (bytes, word) in self
                .keystream
                .as_chunks_mut::<4>()
                .0
                .iter_mut()
                .zip(keystream)
            {
                *bytes = word.to_le_bytes();
            }
            self.offset = 0;
            self.apply_buffered(tail);
        }
    }

    /// XOR `data`, no longer than what the buffered block has left, with it.
    fn apply_buffered(&mut self, data: &mut [u8]) {
        let keystream = &self.keystream[self.offset..self.offset + data.len()];
        for (byte, key) in data.iter_mut().zip(keystream) {
            *byte ^= key;
        }
        self.offset += data.len();
    }
}

/// One-shot convenience: encrypt/decrypt `data` with a fresh cipher.
pub fn xor_stream(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
    ChaCha20::new(key, nonce, counter).apply(data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    /// RFC 8439 §2.3.2 test vector (block function) via §2.4.2 encryption.
    #[test]
    fn rfc8439_encryption_vector() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        xor_stream(&key, &nonce, 1, &mut data);
        assert_eq!(
            to_hex(&data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let original: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let mut data = original.clone();
        xor_stream(&key, &nonce, 0, &mut data);
        assert_ne!(data, original);
        xor_stream(&key, &nonce, 0, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut oneshot = vec![0u8; 300];
        xor_stream(&key, &nonce, 5, &mut oneshot);

        let mut cipher = ChaCha20::new(&key, &nonce, 5);
        let mut streamed = vec![0u8; 300];
        for chunk in streamed.chunks_mut(17) {
            cipher.apply(chunk);
        }
        assert_eq!(streamed, oneshot);
    }

    #[test]
    fn every_chunking_matches_the_bytewise_reference() {
        use crate::fuzz::reference_chacha20;
        let key: [u8; 32] = std::array::from_fn(|i| (i * 11 + 5) as u8);
        let nonce: [u8; 12] = std::array::from_fn(|i| (i * 17 + 1) as u8);
        let plain: Vec<u8> = (0..1100u32).map(|i| (i * 13 % 256) as u8).collect();
        // A counter that wraps three blocks in, too.
        for counter in [0, 7, u32::MAX - 2] {
            let mut expect = plain.clone();
            reference_chacha20(&key, &nonce, counter, &mut expect);
            for size in [1usize, 3, 63, 64, 65, 127, 128, 129, 255, 256, 257] {
                let mut cipher = ChaCha20::new(&key, &nonce, counter);
                let mut data = plain.clone();
                for chunk in data.chunks_mut(size) {
                    cipher.apply(chunk);
                }
                assert_eq!(data, expect, "counter {counter}, chunks of {size}");
            }
            // Uneven pieces: a ragged head, whole blocks, a ragged tail.
            let mut cipher = ChaCha20::new(&key, &nonce, counter);
            let mut data = plain.clone();
            let (head, rest) = data.split_at_mut(5);
            let (middle, tail) = rest.split_at_mut(59 + 4 * 64 + 9);
            for piece in [head, middle, tail] {
                cipher.apply(piece);
            }
            assert_eq!(data, expect, "counter {counter}, uneven pieces");
        }
    }

    #[test]
    fn different_keys_nonces_counters_differ() {
        let base = (vec![0u8; 64], [0u8; 32], [0u8; 12]);
        let mut a = base.0.clone();
        xor_stream(&base.1, &base.2, 0, &mut a);

        let mut key2 = base.1;
        key2[0] = 1;
        let mut b = base.0.clone();
        xor_stream(&key2, &base.2, 0, &mut b);
        assert_ne!(a, b);

        let mut nonce2 = base.2;
        nonce2[0] = 1;
        let mut c = base.0.clone();
        xor_stream(&base.1, &nonce2, 0, &mut c);
        assert_ne!(a, c);

        let mut d = base.0.clone();
        xor_stream(&base.1, &base.2, 1, &mut d);
        assert_ne!(a, d);
    }

    #[test]
    fn empty_input_ok() {
        let mut data: Vec<u8> = vec![];
        xor_stream(&[0; 32], &[0; 12], 0, &mut data);
        assert!(data.is_empty());
    }
}
