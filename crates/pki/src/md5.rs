//! MD5 (RFC 1321), implemented from scratch.
//!
//! The paper's file service exposes `file.md5()` "to obtain a hash file for
//! checking file integrity" (§2.3); this module provides exactly that. MD5
//! is cryptographically broken and is used here only for the integrity
//! checksum the historical interface specified — signatures use SHA-256.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 16;
/// Block size in bytes.
pub const BLOCK_LEN: usize = 64;

/// Incremental MD5 state.
#[derive(Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Fresh state.
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
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
        // Padding: 0x80, zeros to 56 mod 64, the bit length little-endian —
        // in this block if eight bytes are left after the 0x80, else the next.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[self.buffer_len] = 0x80;
        self.buffer[self.buffer_len + 1..].fill(0);
        if self.buffer_len + 1 > BLOCK_LEN - 8 {
            compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_le_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

/// One step of RFC 1321 §3.4: `a = b + ((a + f(b,c,d) + m + k) <<< s)`. The
/// `b` is the value the previous step produced, so what is written here is
/// what keeps it off the critical path longest: `F = d ^ (b & (c ^ d))` for
/// `(b & c) | (!b & d)`, and `G = (d & b) + (!d & c)` — the two terms share
/// no bit, so the `|` may be an addition, and `!d & c` then folds into the
/// sum that does not wait for `b`.
macro_rules! step {
    (F, $b:ident, $c:ident, $d:ident) => {
        $d ^ ($b & ($c ^ $d))
    };
    (G, $b:ident, $c:ident, $d:ident) => {
        ($d & $b).wrapping_add(!$d & $c)
    };
    (H, $b:ident, $c:ident, $d:ident) => {
        $b ^ $c ^ $d
    };
    (I, $b:ident, $c:ident, $d:ident) => {
        $c ^ ($b | !$d)
    };
    ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $s:expr, $k:expr) => {
        $a = $b.wrapping_add(
            $a.wrapping_add(step!($f, $b, $c, $d))
                .wrapping_add($m)
                .wrapping_add($k)
                .rotate_left($s),
        )
    };
}

/// Four steps: the working variables rotate one place per step, so after
/// four they are back where they started.
macro_rules! steps {
    ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:ident,
     [$i0:expr, $i1:expr, $i2:expr, $i3:expr], [$s0:expr, $s1:expr, $s2:expr, $s3:expr],
     [$k0:expr, $k1:expr, $k2:expr, $k3:expr]) => {
        step!($f, $a, $b, $c, $d, $m[$i0], $s0, $k0);
        step!($f, $d, $a, $b, $c, $m[$i1], $s1, $k1);
        step!($f, $c, $d, $a, $b, $m[$i2], $s2, $k2);
        step!($f, $b, $c, $d, $a, $m[$i3], $s3, $k3);
    };
}

/// The compression function over one block, borrowed from wherever it lies:
/// all 64 steps written out, message words indexed by constants, the
/// sine-derived addends (RFC 1321 §3.4) inline.
#[rustfmt::skip]
fn compress(state: &mut [u32; 4], block: &[u8; BLOCK_LEN]) {
    let mut m = [0u32; 16];
    for (word, bytes) in m.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_le_bytes(*bytes);
    }
    let [mut a, mut b, mut c, mut d] = *state;

    steps!(F, a, b, c, d, m, [0, 1, 2, 3], [7, 12, 17, 22], [0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee]);
    steps!(F, a, b, c, d, m, [4, 5, 6, 7], [7, 12, 17, 22], [0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501]);
    steps!(F, a, b, c, d, m, [8, 9, 10, 11], [7, 12, 17, 22], [0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be]);
    steps!(F, a, b, c, d, m, [12, 13, 14, 15], [7, 12, 17, 22], [0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821]);

    steps!(G, a, b, c, d, m, [1, 6, 11, 0], [5, 9, 14, 20], [0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa]);
    steps!(G, a, b, c, d, m, [5, 10, 15, 4], [5, 9, 14, 20], [0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8]);
    steps!(G, a, b, c, d, m, [9, 14, 3, 8], [5, 9, 14, 20], [0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed]);
    steps!(G, a, b, c, d, m, [13, 2, 7, 12], [5, 9, 14, 20], [0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a]);

    steps!(H, a, b, c, d, m, [5, 8, 11, 14], [4, 11, 16, 23], [0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c]);
    steps!(H, a, b, c, d, m, [1, 4, 7, 10], [4, 11, 16, 23], [0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70]);
    steps!(H, a, b, c, d, m, [13, 0, 3, 6], [4, 11, 16, 23], [0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05]);
    steps!(H, a, b, c, d, m, [9, 12, 15, 2], [4, 11, 16, 23], [0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665]);

    steps!(I, a, b, c, d, m, [0, 7, 14, 5], [6, 10, 15, 21], [0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039]);
    steps!(I, a, b, c, d, m, [12, 3, 10, 1], [6, 10, 15, 21], [0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1]);
    steps!(I, a, b, c, d, m, [8, 15, 6, 13], [6, 10, 15, 21], [0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1]);
    steps!(I, a, b, c, d, m, [4, 11, 2, 9], [6, 10, 15, 21], [0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391]);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// One-shot digest.
pub fn md5(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// One-shot digest as lowercase hex (the `file.md5()` wire format).
pub fn md5_hex(data: &[u8]) -> String {
    crate::sha256::to_hex(&md5(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(md5_hex(input), *expect);
        }
    }

    /// RFC 1321 as its §3.4 pseudocode reads: a 64-iteration loop choosing
    /// the round function and message index per step, over a message padded
    /// up front. What the unrolled [`compress`] and the two-write padding of
    /// [`Md5::finalize`] are held to.
    fn reference_md5(message: &[u8]) -> [u8; DIGEST_LEN] {
        const S: [u32; 16] = [7, 12, 17, 22, 5, 9, 14, 20, 4, 11, 16, 23, 6, 10, 15, 21];
        let mut padded = message.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(message.len() as u64).wrapping_mul(8).to_le_bytes());
        let mut state = [0x67452301u32, 0xefcdab89, 0x98badcfe, 0x10325476];
        for block in padded.chunks_exact(BLOCK_LEN) {
            let m: Vec<u32> = block
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
                .collect();
            let [mut a, mut b, mut c, mut d] = state;
            for i in 0..64 {
                let (f, g) = match i / 16 {
                    0 => ((b & c) | (!b & d), i),
                    1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    2 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                // K[i] = floor(2^32 · |sin(i + 1)|)
                let k = ((i as f64 + 1.0).sin().abs() * 4_294_967_296.0) as u32;
                let rotated = a
                    .wrapping_add(f)
                    .wrapping_add(k)
                    .wrapping_add(m[g])
                    .rotate_left(S[i / 16 * 4 + i % 4]);
                (a, d, c, b) = (d, c, b, b.wrapping_add(rotated));
            }
            for (word, add) in state.iter_mut().zip([a, b, c, d]) {
                *word = word.wrapping_add(add);
            }
        }
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    #[test]
    fn every_split_of_three_blocks_and_a_tail_matches_the_reference() {
        let data: Vec<u8> = (0..3 * BLOCK_LEN as u32 + 37)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        let expect = reference_md5(&data);
        assert_eq!(md5(&data), expect);
        for at in 0..=data.len() {
            let mut h = Md5::new();
            h.update(&data[..at]);
            h.update(&data[at..]);
            assert_eq!(h.finalize(), expect, "split at {at}");
        }
    }

    #[test]
    fn padding_lengths_match_the_reference() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 121, 127, 128] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            assert_eq!(md5(&data), reference_md5(&data), "len={len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 256) as u8).collect();
        let oneshot = md5(&data);
        for chunk_size in [1usize, 7, 64, 65, 100] {
            let mut h = Md5::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk_size={chunk_size}");
        }
    }

    #[test]
    fn padding_boundaries() {
        for len in 54..66usize {
            let data = vec![0x5A; len];
            let whole = md5(&data);
            let mut h = Md5::new();
            h.update(&data[..1]);
            h.update(&data[1..]);
            assert_eq!(h.finalize(), whole, "len={len}");
        }
    }
}
