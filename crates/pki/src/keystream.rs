//! A per-thread ChaCha20 keystream for unguessable identifiers.
//!
//! Session ids are bearer tokens, so the bytes behind them must not be
//! predictable from ids an attacker has already seen. The process PRNG
//! (`rand::rng()`, xoshiro256**) does not qualify: its whole state can be
//! solved from a few outputs. A ChaCha20 keystream under a secret key does,
//! and costs one block function per two 32-byte ids.
//!
//! Each thread derives its key once, as `sha256(32 bytes of /dev/urandom,
//! if readable ‖ 32 bytes of rand::rng())`. That is one derivation over
//! whatever entropy exists rather than a primary source with a fallback:
//! where the OS pool is missing the first half stays zero and the key rests
//! on the process generator alone, as every id did before this module.
//! The stream re-keys itself from its own output every `REKEY_BYTES`, so
//! the 32-bit block counter never wraps and a captured state does not
//! reveal ids minted before the last re-key.

use std::cell::RefCell;
use std::io::Read;

use rand::Rng;

use crate::chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};
use crate::sha256::sha256;

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

    fn seeded() -> Keystream {
        let mut seed = [0u8; 2 * KEY_LEN];
        let (os, process) = seed.split_at_mut(KEY_LEN);
        let _ = std::fs::File::open("/dev/urandom").and_then(|mut f| f.read_exact(os));
        rand::rng().fill_bytes(process);
        Keystream::new(&sha256(&seed))
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
    static STREAM: RefCell<Keystream> = RefCell::new(Keystream::seeded());
}

/// Overwrite `out` with the next bytes of the calling thread's keystream.
pub fn fill(out: &mut [u8]) {
    STREAM.with(|stream| stream.borrow_mut().fill(out));
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
}
