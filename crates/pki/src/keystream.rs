//! The one source of secret bytes: a per-thread ChaCha20 keystream.
//!
//! Session ids, RSA keys, handshake randoms and premasters, proxy-store
//! nonces and the client's backoff seed are all drawn here, through
//! [`fill`] or through [`SecretRng`], which hands the same stream to any
//! API that takes an [`Rng`]. A deterministic generator such as the
//! vendored `StdRng` (xoshiro256**) does not qualify for any of them: its
//! whole state can be solved from a few outputs, so a secret drawn after a
//! value the peer sees — a premaster after a hello random — is no secret.
//! Seeded `StdRng` stays what tests, fuzzers and benchmarks pass on purpose.
//!
//! Each thread keys its stream once, on its first draw, with 32 bytes read
//! from `/dev/urandom`. There is no fallback: if the device cannot be read,
//! that draw panics. The stream re-keys itself from its own output every
//! `REKEY_BYTES`, so the 32-bit block counter never wraps and a captured
//! state does not reveal bytes drawn before the last re-key.

use std::cell::RefCell;
use std::io::Read;

use rand::Rng;

use crate::chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};

/// Where every thread's key comes from.
const DEVICE: &str = "/dev/urandom";

/// Output bytes between re-keys.
const REKEY_BYTES: usize = 1 << 16;

struct Keystream {
    cipher: ChaCha20,
    /// Bytes this key may still emit.
    left: usize,
}

impl Keystream {
    fn new(key: &[u8; KEY_LEN]) -> Keystream {
        Keystream {
            cipher: ChaCha20::new(key, &[0; NONCE_LEN], 0),
            left: REKEY_BYTES,
        }
    }

    /// A stream keyed from `device`; panics, naming it, if it cannot be read.
    fn keyed_from(device: &str) -> Keystream {
        let mut key = [0u8; KEY_LEN];
        std::fs::File::open(device)
            .and_then(|mut f| f.read_exact(&mut key))
            .unwrap_or_else(|e| panic!("cannot read {device} to key the secret keystream: {e}"));
        Keystream::new(&key)
    }

    fn fill(&mut self, out: &mut [u8]) {
        if self.left < out.len() {
            let mut key = [0u8; KEY_LEN];
            self.cipher.apply(&mut key);
            *self = Keystream::new(&key);
        }
        out.fill(0);
        self.cipher.apply(out);
        // A fill longer than the window just uses its key for longer; the
        // counter is good for 256 GiB.
        self.left = self.left.saturating_sub(out.len());
    }
}

thread_local! {
    static STREAM: RefCell<Keystream> = RefCell::new(Keystream::keyed_from(DEVICE));
}

/// Overwrite `out` with the next bytes of the calling thread's keystream.
pub fn fill(out: &mut [u8]) {
    STREAM.with(|stream| stream.borrow_mut().fill(out));
}

/// The calling thread's keystream as an [`Rng`]: what every production
/// site that draws key material, a nonce or a handshake random passes.
#[derive(Clone, Copy, Debug)]
pub struct SecretRng;

impl Rng for SecretRng {
    fn next_u64(&mut self) -> u64 {
        let mut bytes = [0u8; 8];
        fill(&mut bytes);
        u64::from_le_bytes(bytes)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill(dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha20::xor_stream;

    #[test]
    fn stream_is_chacha20_of_the_key_until_the_rekey() {
        let key = [9u8; KEY_LEN];
        let mut expected = vec![0u8; REKEY_BYTES];
        xor_stream(&key, &[0; NONCE_LEN], 0, &mut expected);

        let mut stream = Keystream::new(&key);
        let mut got = vec![0xAAu8; REKEY_BYTES];
        for chunk in got.chunks_mut(32) {
            stream.fill(chunk);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn rekeys_from_its_own_output_and_keeps_going() {
        let key = [9u8; KEY_LEN];
        let mut stream = Keystream::new(&key);
        let mut first = vec![0u8; REKEY_BYTES];
        stream.fill(&mut first);

        // The next key is the 32 keystream bytes that follow the window.
        let mut tail = vec![0u8; REKEY_BYTES + KEY_LEN];
        xor_stream(&key, &[0; NONCE_LEN], 0, &mut tail);
        let next_key: [u8; KEY_LEN] = tail[REKEY_BYTES..].try_into().unwrap();
        let mut expected = [0u8; 32];
        xor_stream(&next_key, &[0; NONCE_LEN], 0, &mut expected);

        let mut got = [0u8; 32];
        stream.fill(&mut got);
        assert_eq!(got, expected);
        assert_ne!(got[..], first[..32]);
    }

    #[test]
    fn threads_have_independent_streams() {
        let mut here = [0u8; 32];
        fill(&mut here);
        let there = std::thread::spawn(|| {
            let mut there = [0u8; 32];
            fill(&mut there);
            there
        })
        .join()
        .unwrap();
        assert_ne!(here, there);
        let mut again = [0u8; 32];
        fill(&mut again);
        assert_ne!(here, again);
    }

    #[test]
    fn secret_rng_and_fill_draw_one_stream() {
        let key = [9u8; KEY_LEN];
        let mut expected = [0u8; 64];
        xor_stream(&key, &[0; NONCE_LEN], 0, &mut expected);
        let got = std::thread::spawn(move || {
            STREAM.with(|stream| *stream.borrow_mut() = Keystream::new(&key));
            let mut got = [0u8; 64];
            got[..8].copy_from_slice(&SecretRng.next_u64().to_le_bytes());
            SecretRng.fill_bytes(&mut got[8..40]);
            fill(&mut got[40..]);
            got
        })
        .join()
        .unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "cannot read /nonexistent/urandom")]
    fn an_unreadable_device_fails_closed() {
        Keystream::keyed_from("/nonexistent/urandom");
    }
}
