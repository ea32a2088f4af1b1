//! Wire compatibility with commit `4bde7e3`: the blocking `SecureStream`
//! surface, seeded on both ends, must put exactly the recorded bytes on
//! the wire; and key compatibility with commit `33a3c7b`: a seeded rng must
//! yield exactly the recorded keys. This file uses nothing those commits
//! lack, so it can be copied there and run to re-derive
//! [`common::GOLDEN_SHA256`] and [`common::GOLDEN_KEYS_SHA256`].

mod common;

use std::io::{self, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use clarens_pki::sha256::{sha256, to_hex};
use clarens_pki::SecureStream;
use rand::rngs::StdRng;
use rand::SeedableRng;

use common::{
    client_messages, pki, server_messages, CLIENT_SEED, GOLDEN_KEYS_SHA256, GOLDEN_SHA256, NOW,
    SERVER_SEED,
};

/// One end of an in-process duplex: blocking reads from the peer's writes,
/// every written byte appended to `log`.
struct Pipe {
    rx: Receiver<Vec<u8>>,
    tx: Sender<Vec<u8>>,
    pending: Vec<u8>,
    log: Arc<Mutex<Vec<u8>>>,
}

fn duplex() -> (Pipe, Pipe) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    let end = |rx, tx| Pipe {
        rx,
        tx,
        pending: Vec::new(),
        log: Arc::default(),
    };
    (end(a_rx, a_tx), end(b_rx, b_tx))
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pending.is_empty() {
            match self.rx.recv() {
                Ok(bytes) => self.pending = bytes,
                Err(_) => return Ok(0), // peer dropped its end
            }
        }
        let n = buf.len().min(self.pending.len());
        buf[..n].copy_from_slice(&self.pending[..n]);
        self.pending.drain(..n);
        Ok(n)
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.log.lock().unwrap().extend_from_slice(buf);
        let _ = self.tx.send(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn seeded_conversation_matches_the_recorded_transcript() {
    let pki = pki();
    let (client_end, server_end) = duplex();
    let (client_log, server_log) = (Arc::clone(&client_end.log), Arc::clone(&server_end.log));
    let roots = vec![pki.root.clone()];

    let server = {
        let (credential, roots) = (pki.server.clone(), roots.clone());
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(SERVER_SEED);
            let (mut stream, chain) =
                SecureStream::accept(server_end, &credential, &roots, NOW, &mut rng).unwrap();
            assert_eq!(chain.len(), 1);
            assert_eq!(
                stream.peer_identity().to_string(),
                "/O=golden/OU=People/CN=alice"
            );
            for (theirs, ours) in client_messages().iter().zip(server_messages()) {
                let mut got = vec![0u8; theirs.len()];
                stream.read_exact(&mut got).unwrap();
                assert_eq!(&got, theirs);
                stream.write_all(&ours).unwrap();
                stream.flush().unwrap();
            }
        })
    };

    let mut rng = StdRng::seed_from_u64(CLIENT_SEED);
    let mut stream = SecureStream::connect(client_end, &pki.client, &roots, NOW, &mut rng).unwrap();
    assert_eq!(
        stream.peer_identity().to_string(),
        "/O=golden/OU=Services/CN=host"
    );
    for (ours, theirs) in client_messages().iter().zip(server_messages()) {
        stream.write_all(ours).unwrap();
        stream.flush().unwrap();
        let mut got = vec![0u8; theirs.len()];
        stream.read_exact(&mut got).unwrap();
        assert_eq!(got, theirs);
    }
    server.join().unwrap();

    let mut transcript = client_log.lock().unwrap().clone();
    transcript.extend_from_slice(&server_log.lock().unwrap());
    assert_eq!(to_hex(&sha256(&transcript)), GOLDEN_SHA256);
}

/// `BigUint::random_prime` consumes rng draws per candidate and per
/// Miller–Rabin witness, so the sieve, the round count and the draw order
/// decide which key a seed yields. Every fixture in the tree (this one, the
/// benchmark's, `TestGrid`'s) is such a seeded key: they must not move.
#[test]
fn seeded_key_generation_matches_the_recorded_keys() {
    let mut rng = StdRng::seed_from_u64(0xC1A2E5);
    let mut armored = String::new();
    for _ in 0..4 {
        let key = clarens_pki::rsa::generate(&mut rng, 512).private;
        armored.push_str(&clarens_pki::pem::encode_private_key(&key));
    }
    assert_eq!(to_hex(&sha256(armored.as_bytes())), GOLDEN_KEYS_SHA256);
}
