//! SHA-256 (FIPS 180-4), implemented from scratch for the PKI substrate.
//!
//! Used by RSA signatures ([`crate::rsa`]), HMAC ([`crate::hmac`]), the
//! secure channel key derivation ([`crate::channel`]), and session-id
//! generation in the Clarens core.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (needed by HMAC).
pub const BLOCK_LEN: usize = 64;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Whole blocks are compressed where they lie.
        let (blocks, rest) = data.as_chunks::<BLOCK_LEN>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros to 56 mod 64, the bit length big-endian — in
        // this block if eight bytes are left after the 0x80, else the next.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[self.buffer_len] = 0x80;
        self.buffer[self.buffer_len + 1..].fill(0);
        if self.buffer_len + 1 > BLOCK_LEN - 8 {
            compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One round of FIPS 180-4 §6.2.2 on message word `$w`. The eight working
/// variables are not shuffled: each round names them one place further
/// round, and only `d` and `h` are written. `Ch` and `Maj` are in their
/// three-operation forms.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
     $k:expr, $w:expr) => {
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add($g ^ ($e & ($f ^ $g)))
            .wrapping_add($k)
            .wrapping_add($w);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) | ($c & ($a | $b)));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    };
}

/// Message word `$i` of rounds 16..64, written over the word sixteen rounds
/// back: the schedule lives in a sixteen-word ring.
macro_rules! schedule {
    ($w:ident, $i:expr) => {{
        let w15 = $w[($i + 1) % 16];
        let w2 = $w[($i + 14) % 16];
        $w[$i % 16] = $w[$i % 16]
            .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
            .wrapping_add($w[($i + 9) % 16])
            .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
        $w[$i % 16]
    }};
}

/// Eight rounds, after which the working variables are back in place.
macro_rules! rounds {
    ($next:ident, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
     $w:ident, $i:expr, [$k0:expr, $k1:expr, $k2:expr, $k3:expr, $k4:expr, $k5:expr, $k6:expr, $k7:expr]) => {
        round!($a, $b, $c, $d, $e, $f, $g, $h, $k0, $next!($w, $i));
        round!($h, $a, $b, $c, $d, $e, $f, $g, $k1, $next!($w, $i + 1));
        round!($g, $h, $a, $b, $c, $d, $e, $f, $k2, $next!($w, $i + 2));
        round!($f, $g, $h, $a, $b, $c, $d, $e, $k3, $next!($w, $i + 3));
        round!($e, $f, $g, $h, $a, $b, $c, $d, $k4, $next!($w, $i + 4));
        round!($d, $e, $f, $g, $h, $a, $b, $c, $k5, $next!($w, $i + 5));
        round!($c, $d, $e, $f, $g, $h, $a, $b, $k6, $next!($w, $i + 6));
        round!($b, $c, $d, $e, $f, $g, $h, $a, $k7, $next!($w, $i + 7));
    };
}

/// Rounds 0..16 take the block's own words.
macro_rules! loaded {
    ($w:ident, $i:expr) => {
        $w[$i]
    };
}

/// The compression function over one block, borrowed from wherever it lies:
/// all 64 rounds written out, every index a constant, the round constants
/// (FIPS 180-4 §4.2.2) inline.
#[rustfmt::skip]
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    rounds!(loaded, a, b, c, d, e, f, g, h, w, 0, [0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5]);
    rounds!(loaded, a, b, c, d, e, f, g, h, w, 8, [0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174]);
    rounds!(schedule, a, b, c, d, e, f, g, h, w, 16, [0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da]);
    rounds!(schedule, a, b, c, d, e, f, g, h, w, 24, [0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967]);
    rounds!(schedule, a, b, c, d, e, f, g, h, w, 32, [0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85]);
    rounds!(schedule, a, b, c, d, e, f, g, h, w, 40, [0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070]);
    rounds!(schedule, a, b, c, d, e, f, g, h, w, 48, [0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3]);
    rounds!(schedule, a, b, c, d, e, f, g, h, w, 56, [0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2]);

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// One-shot digest.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hex rendering of a digest (used for session ids and `file.md5`-style
/// integrity strings).
pub fn to_hex(digest: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(digest.len() * 2);
    for &b in digest {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xF) as usize] as char);
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// FIPS 180-4 §6.2 as written: a 64-word schedule, a 64-iteration loop
    /// that shuffles all eight working variables, over a message padded up
    /// front, the round constants derived rather than tabled. What the
    /// unrolled [`compress`] and the two-write padding of
    /// [`Sha256::finalize`] are held to (and, through the record layer's
    /// cross-check, every tag on the wire).
    pub(crate) fn reference_sha256(message: &[u8]) -> [u8; DIGEST_LEN] {
        // K[i] = the first 32 fractional bits of the cube root of the i-th
        // prime, by integer cube root of p << 96.
        let mut k = Vec::new();
        let mut candidate = 2u128;
        while k.len() < 64 {
            if (2..candidate).all(|d| !candidate.is_multiple_of(d)) {
                let target = candidate << 96;
                let (mut lo, mut hi) = (0u128, 1u128 << 36);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if mid * mid * mid <= target {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                k.push(lo as u32);
            }
            candidate += 1;
        }
        let mut padded = message.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(message.len() as u64).wrapping_mul(8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(BLOCK_LEN) {
            let mut w: Vec<u32> = block
                .chunks_exact(4)
                .map(|b| u32::from_be_bytes(b.try_into().unwrap()))
                .collect();
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w.push(
                    w[i - 16]
                        .wrapping_add(s0)
                        .wrapping_add(w[i - 7])
                        .wrapping_add(s1),
                );
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(k[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                (h, g, f, e, d, c, b, a) = (
                    g,
                    f,
                    e,
                    d.wrapping_add(t1),
                    c,
                    b,
                    a,
                    t1.wrapping_add(s0.wrapping_add(maj)),
                );
            }
            for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *word = word.wrapping_add(add);
            }
        }
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn every_split_of_three_blocks_and_a_tail_matches_the_reference() {
        let data: Vec<u8> = (0..3 * BLOCK_LEN as u32 + 37)
            .map(|i| (i * 29 % 253) as u8)
            .collect();
        let expect = reference_sha256(&data);
        assert_eq!(sha256(&data), expect);
        for at in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..at]);
            h.update(&data[at..]);
            assert_eq!(h.finalize(), expect, "split at {at}");
        }
    }

    #[test]
    fn padding_lengths_match_the_reference() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 121, 127, 128] {
            let data: Vec<u8> = (0..len).map(|i| (i * 5 + 1) as u8).collect();
            assert_eq!(sha256(&data), reference_sha256(&data), "len={len}");
        }
    }

    /// Official FIPS / NIST test vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(to_hex(&sha256(input)), *expect);
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1025u32).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256(&data);
        // Feed in awkward chunk sizes.
        for chunk_size in [1usize, 3, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk_size={chunk_size}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise the padding branch around the 55/56/64 byte boundaries.
        for len in 50..70usize {
            let data = vec![0xAB; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), d1, "len={len}");
        }
    }

    #[test]
    fn hex_helper() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x1a]), "00ff1a");
        assert_eq!(to_hex(&[]), "");
    }
}
