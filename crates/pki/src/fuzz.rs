//! Shared fuzz entry point for the secure channel's record machine.
//!
//! Same contract as `clarens_wire::fuzz`: raw bytes in — whatever a peer
//! (or whoever sits on the path) put on the socket — and the machine must
//! reject or accept them gracefully. Driven by the cargo-fuzz target in
//! `fuzz/fuzz_targets/`, the in-tree `repro fuzz` harness, and a bounded
//! pass in `cargo test`.

use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cert::{Certificate, CertificateAuthority, Credential};
use crate::channel::{ChannelError, SecureChannel};
use crate::dn::DistinguishedName;
use crate::rsa;

const NOW: i64 = 1_118_836_800;
/// The accepting end's rng seed: fixed, so [`handshake_transcript`] stays
/// a transcript this end completes.
const SERVER_SEED: u64 = 1;

struct Fixture {
    roots: Arc<[Certificate]>,
    server: Arc<Credential>,
    client: Arc<Credential>,
}

/// One CA and two credentials per process: key generation is the
/// expensive part.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xF022);
        let dn = |text: &str| DistinguishedName::parse(text).expect("fixture DN");
        let ca = CertificateAuthority::new(&mut rng, dn("/O=fuzz/CN=CA"), NOW, 3650);
        let mut issue = |subject: &str| {
            let kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
            Arc::new(Credential {
                certificate: ca.issue(dn(subject), &kp.public, NOW, 365),
                key: kp.private,
                chain: vec![],
            })
        };
        Fixture {
            server: issue("/O=fuzz/CN=host"),
            client: issue("/O=fuzz/CN=alice"),
            roots: vec![ca.certificate.clone()].into(),
        }
    })
}

fn accepting_end() -> SecureChannel {
    let f = fixture();
    let mut rng = StdRng::seed_from_u64(SERVER_SEED);
    SecureChannel::server(Arc::clone(&f.server), Arc::clone(&f.roots), NOW, &mut rng)
}

/// Two established ends keyed for each other, without the RSA.
fn established_pair() -> (SecureChannel, SecureChannel) {
    let (a, b) = ([0x11; 76], [0x22; 76]);
    (
        SecureChannel::with_keys(&a, &b),
        SecureChannel::with_keys(&b, &a),
    )
}

/// Feed `data` in uneven slices (sizes taken from the data), checking the
/// buffering bound after each. Returns the first error; feeding goes on
/// past it, because a dead channel must stay dead.
fn feed_in_slices(
    end: &mut SecureChannel,
    mut data: &[u8],
    plaintext: &mut Vec<u8>,
) -> Result<(), ChannelError> {
    let mut outcome = Ok(());
    while let Some(&first) = data.first() {
        let (piece, rest) = data.split_at((1 + first as usize % 61).min(data.len()));
        data = rest;
        let before = plaintext.len();
        match end.feed(piece, plaintext) {
            Ok(()) => assert!(outcome.is_ok(), "a failed channel accepted more input"),
            Err(error) => {
                // The failing feed may have opened records that verified
                // ahead of the bad one; a dead channel opens nothing.
                assert!(
                    outcome.is_ok() || plaintext.len() == before,
                    "a dead channel surfaced plaintext"
                );
                outcome = outcome.and(Err(error));
            }
        }
        assert!(
            end.buffered() < 4 + end.frame_limit(),
            "machine holds {} bytes of one frame",
            end.buffered()
        );
    }
    outcome
}

/// The client-to-server bytes of one complete handshake with the fuzz
/// fixture's accepting end, followed by one record: a corpus seed that
/// takes mutations past the hello and into the key exchange.
pub fn handshake_transcript() -> Vec<u8> {
    let f = fixture();
    let mut rng = StdRng::seed_from_u64(2);
    let mut client =
        SecureChannel::client(Arc::clone(&f.client), Arc::clone(&f.roots), NOW, &mut rng);
    let mut server = accepting_end();
    let (mut transcript, mut sink) = (Vec::new(), Vec::new());
    while !client.is_established() {
        let to_server = client.take_output();
        transcript.extend_from_slice(&to_server);
        server
            .feed(&to_server, &mut sink)
            .expect("fixture handshake");
        client
            .feed(&server.take_output(), &mut sink)
            .expect("fixture handshake");
    }
    transcript.extend_from_slice(&client.take_output());
    client.seal(b"GET / HTTP/1.1\r\n\r\n", &mut transcript);
    transcript
}

/// Arbitrary bytes fed to a fresh accepting end and to an established one
/// never panic, never make it hold more than one frame's worth, and never
/// surface plaintext that was not sealed under the right keys; then, with
/// `data` as the plaintext, a sealed stream round-trips and any one-byte
/// corruption of it stops the stream at the corrupted record.
pub fn secure_records(data: &[u8]) {
    let mut plaintext = Vec::new();

    let mut fresh = accepting_end();
    let _ = feed_in_slices(&mut fresh, data, &mut plaintext);
    // (The peer stays on offer even if a later record killed the channel.)
    assert!(
        plaintext.is_empty() || fresh.take_peer().is_some(),
        "plaintext surfaced before the handshake completed"
    );

    plaintext.clear();
    let (_, mut receiver) = established_pair();
    let _ = feed_in_slices(&mut receiver, data, &mut plaintext);
    assert!(plaintext.is_empty(), "unauthenticated bytes surfaced");

    if data.is_empty() {
        return;
    }
    let (mut sender, mut receiver) = established_pair();
    let mut stream = Vec::new();
    for record in data.chunks(1 + data.len() / 3) {
        sender.seal(record, &mut stream);
    }
    feed_in_slices(&mut receiver, &stream, &mut plaintext).expect("a sealed stream opens");
    assert_eq!(plaintext, data, "round trip changed the plaintext");
    assert!(receiver.at_frame_boundary());

    // Corrupt one byte, chosen by the data.
    let sum = data
        .iter()
        .fold(0usize, |acc, &b| acc.wrapping_mul(31) + b as usize);
    let at = sum % stream.len();
    stream[at] ^= 1 << (sum % 8);
    plaintext.clear();
    let (_, mut receiver) = established_pair();
    match feed_in_slices(&mut receiver, &stream, &mut plaintext) {
        // A tag that no longer verifies, or a length prefix past the limit.
        Err(ChannelError::BadRecord) | Err(ChannelError::Handshake(_)) => {}
        Err(other) => panic!("unexpected error {other}"),
        // A length prefix that grew: the machine is waiting for bytes that
        // will never come, and the stream's end will read as a truncation.
        Ok(()) => assert!(!receiver.at_frame_boundary(), "corruption went unnoticed"),
    }
    assert!(
        plaintext.len() < data.len() && data.starts_with(&plaintext),
        "plaintext surfaced from or after the corrupted record"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_accepts_valid_and_garbage_inputs() {
        secure_records(b"");
        secure_records(b"x");
        secure_records(&[0xff; 300]);
        secure_records(&vec![7u8; 40_000]);
        // A frame announcing more than any handshake message may carry.
        secure_records(&u32::MAX.to_be_bytes());
        let transcript = handshake_transcript();
        secure_records(&transcript);
        secure_records(&transcript[..transcript.len() - 1]);
    }

    #[test]
    fn the_transcript_seed_completes_the_handshake() {
        let mut server = accepting_end();
        let mut plaintext = Vec::new();
        server
            .feed(&handshake_transcript(), &mut plaintext)
            .unwrap();
        assert!(server.is_established());
        assert_eq!(plaintext, b"GET / HTTP/1.1\r\n\r\n");
    }
}
