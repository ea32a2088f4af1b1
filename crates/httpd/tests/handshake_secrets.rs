//! A passive observer of one handshake must not learn the session.
//!
//! `SecureChannel::client` draws the hello random and then the premaster
//! from one generator, and the hello random crosses the wire in the clear.
//! Fed a seeded xoshiro256** (`StdRng`), the first eight bytes of that
//! random give the seed away: xoshiro's first output is `rotl(s1·5, 7)·9`,
//! and `s1 = mix(seed + 2γ)`, SplitMix64's finaliser. Undo both, replay the
//! stream, and out comes the premaster, from which every record key is
//! derived. The control shows the inversion does recover a seeded client's
//! premaster; the other test shows it does not recover `HttpClient`'s.

mod common;

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;

use clarens_httpd::HttpClient;
use clarens_pki::cert::{Certificate, Credential};
use clarens_pki::SecureChannel;
use rand::{rngs::StdRng, Rng, RngExt, SeedableRng};

use common::{client_tls, server_credential};

/// SplitMix64's increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The inverse of odd `a` modulo 2^64 (each Newton step doubles the
/// correct low bits, from 3).
fn inverse(a: u64) -> u64 {
    let mut x = a;
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x
}

/// The inverse of `x ^ (x >> shift)`.
fn unxorshift(y: u64, shift: u32) -> u64 {
    let mut x = y;
    for _ in 0..64 / shift {
        x = y ^ (x >> shift);
    }
    x
}

/// The `seed` of a `StdRng::seed_from_u64(seed)` whose first output is `out`.
fn seed_of(out: u64) -> u64 {
    let s1 = out
        .wrapping_mul(inverse(9))
        .rotate_right(7)
        .wrapping_mul(inverse(5));
    let z = unxorshift(s1, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
    let z = unxorshift(z, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
    unxorshift(z, 30).wrapping_sub(GAMMA.wrapping_mul(2))
}

/// The premaster a client that drew `hello_random` from a seeded `StdRng`
/// drew next.
fn predict_premaster(hello_random: &[u8; 32]) -> [u8; 48] {
    let first = u64::from_le_bytes(hello_random[..8].try_into().unwrap());
    let mut rng = StdRng::seed_from_u64(seed_of(first));
    rng.fill_bytes(&mut [0u8; 32]);
    rng.random()
}

/// Split one length-prefixed frame off the front of `bytes`.
fn frame(bytes: &[u8]) -> (&[u8], &[u8]) {
    let (len, rest) = bytes.split_first_chunk::<4>().expect("length prefix");
    rest.split_at(u32::from_be_bytes(*len) as usize)
}

/// From the bytes a client sent: the hello random, and the premaster its
/// key exchange carries, decrypted with the server's key.
fn observe(client_bytes: &[u8], server: &Credential) -> ([u8; 32], Vec<u8>) {
    let (hello, rest) = frame(client_bytes);
    let (exchange, _) = frame(rest);
    let (encrypted, _) = frame(exchange);
    let premaster = server.key.decrypt(encrypted).unwrap();
    (hello[8..40].try_into().unwrap(), premaster)
}

#[test]
fn the_inversion_recovers_a_seeded_clients_premaster() {
    let server = Arc::new(server_credential());
    let tls = client_tls();
    let roots: Arc<[Certificate]> = tls.roots.into();
    let now = (tls.now_fn)();
    let credential = Arc::new(tls.credential);
    for seed in [0, 1, 0xC11E, u64::MAX] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut client = SecureChannel::client(credential.clone(), roots.clone(), now, &mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let mut server_end = SecureChannel::server(server.clone(), roots.clone(), now, &mut rng);
        let mut plaintext = Vec::new();
        let hello = client.take_output();
        server_end.feed(&hello, &mut plaintext).unwrap();
        client
            .feed(&server_end.take_output(), &mut plaintext)
            .unwrap();
        let exchange = client.take_output();
        server_end.feed(&exchange, &mut plaintext).unwrap();

        let (random, premaster) = observe(&[hello, exchange].concat(), &server);
        assert_eq!(predict_premaster(&random)[..], premaster[..], "seed {seed}");
    }
}

#[test]
fn an_observed_hello_does_not_give_away_http_clients_premaster() {
    let server = server_credential();
    let tls = client_tls();
    let roots: Arc<[Certificate]> = tls.roots.clone().into();
    let now = (tls.now_fn)();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let credential = Arc::new(server.clone());
    // The server end records every byte the client sends, as an observer
    // on the path would, and answers one request.
    let peer = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut channel = SecureChannel::server(credential, roots, now, &mut rng);
        let (mut seen, mut request, mut buf) = (Vec::new(), Vec::new(), [0u8; 16 * 1024]);
        while !request.ends_with(b"\r\n\r\n") {
            sock.write_all(&channel.take_output()).unwrap();
            let n = sock.read(&mut buf).unwrap();
            assert!(n > 0, "the client hung up before its request");
            seen.extend_from_slice(&buf[..n]);
            channel.feed(&buf[..n], &mut request).unwrap();
        }
        let mut response = Vec::new();
        channel.seal(
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok",
            &mut response,
        );
        sock.write_all(&response).unwrap();
        seen
    });
    let mut client = HttpClient::new_tls(addr.to_string(), tls);
    assert_eq!(client.get("/").unwrap().body, b"ok");

    let (random, premaster) = observe(&peer.join().unwrap(), &server);
    assert_ne!(
        predict_premaster(&random)[..],
        premaster[..],
        "the premaster was recovered from the client's hello random"
    );
}
