//! The seeded generator every workload input comes from — session picks,
//! method/protocol mix, payloads, Poisson gaps: `vendor/rand`'s `StdRng`
//! (the one the secure-channel handshakes already use), with sub-streams
//! and the few draws the plan needs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone)]
pub struct Rng64(StdRng);

impl Rng64 {
    pub fn new(seed: u64) -> Rng64 {
        Rng64(StdRng::seed_from_u64(seed))
    }

    /// An independent generator for sub-stream `stream` of `seed` (one per
    /// connection, one for payloads, ...).
    pub fn stream(seed: u64, stream: u64) -> Rng64 {
        Rng64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F).rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for every
    /// `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest);
    }

    /// `len` characters of `[a-z0-9]`: text that no codec has to escape.
    pub fn alnum(&mut self, len: usize) -> String {
        const ALPHABET: &[u8; 36] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..len)
            .map(|_| ALPHABET[self.below(36) as usize] as char)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let draws = |mut rng: Rng64| -> Vec<u64> { (0..8).map(|_| rng.next_u64()).collect() };
        assert_eq!(draws(Rng64::new(7)), draws(Rng64::new(7)));
        assert_ne!(
            Rng64::stream(7, 0).next_u64(),
            Rng64::stream(7, 1).next_u64()
        );
        assert_ne!(Rng64::new(7).next_u64(), Rng64::new(8).next_u64());
    }
}
