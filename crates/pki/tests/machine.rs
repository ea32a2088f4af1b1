//! The secure channel's state machine on its own: two [`SecureChannel`]s
//! joined by two `Vec<u8>`s, no sockets and no threads.

mod common;

use std::sync::Arc;

use clarens_pki::channel::Peer;
use clarens_pki::sha256::{sha256, to_hex};
use clarens_pki::SecureChannel;
use rand::{rngs::StdRng, Rng, SeedableRng};

use common::{
    client_messages, pki, server_messages, Pki, CLIENT_SEED, GOLDEN_SHA256, NOW, SERVER_SEED,
};

fn client_end(pki: &Pki) -> SecureChannel {
    let mut rng = StdRng::seed_from_u64(CLIENT_SEED);
    SecureChannel::client(
        Arc::new(pki.client.clone()),
        vec![pki.root.clone()].into(),
        NOW,
        &mut rng,
    )
}

fn server_end(pki: &Pki) -> SecureChannel {
    let mut rng = StdRng::seed_from_u64(SERVER_SEED);
    SecureChannel::server(
        Arc::new(pki.server.clone()),
        vec![pki.root.clone()].into(),
        NOW,
        &mut rng,
    )
}

/// Everything observable about one end after a conversation.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Every byte the end wanted written: handshake output, then `send`
    /// sealed one record per message.
    wire: Vec<u8>,
    /// Every plaintext byte it opened.
    plaintext: Vec<u8>,
    identity: String,
    chain_len: usize,
}

/// Drive `end` with the peer's bytes arriving as `pieces`, then seal `send`.
fn run_end<'a>(
    mut end: SecureChannel,
    pieces: impl Iterator<Item = &'a [u8]>,
    send: &[Vec<u8>],
) -> Observed {
    let mut wire = end.take_output();
    let mut plaintext = Vec::new();
    let mut peer: Option<Peer> = None;
    for piece in pieces {
        end.feed(piece, &mut plaintext).unwrap();
        wire.extend_from_slice(&end.take_output());
        if let Some(p) = end.take_peer() {
            assert!(peer.replace(p).is_none(), "peer yielded twice");
        }
    }
    assert!(end.is_established() && end.at_frame_boundary());
    for message in send {
        end.seal(message, &mut wire);
    }
    let peer = peer.expect("handshake completed");
    Observed {
        wire,
        plaintext,
        identity: peer.identity.to_string(),
        chain_len: peer.chain.len(),
    }
}

/// The reference run: both ends in lock step, each fed whatever the other
/// just produced, whole. Returns what (client, server) observed.
fn converse(pki: &Pki, from_client: &[Vec<u8>], from_server: &[Vec<u8>]) -> (Observed, Observed) {
    let (mut client, mut server) = (client_end(pki), server_end(pki));
    let (mut c2s, mut s2c) = (Vec::new(), Vec::new());
    let mut sink = Vec::new();
    while !(client.is_established() && server.is_established()) {
        let out = client.take_output();
        server.feed(&out, &mut sink).unwrap();
        c2s.extend_from_slice(&out);
        let out = server.take_output();
        client.feed(&out, &mut sink).unwrap();
        s2c.extend_from_slice(&out);
    }
    assert!(sink.is_empty(), "the handshake carries no plaintext");
    for message in from_client {
        client.seal(message, &mut c2s);
    }
    for message in from_server {
        server.seal(message, &mut s2c);
    }
    // Each end replayed against the other's complete byte stream must
    // reproduce its half of the lock-step run.
    let as_client = run_end(client_end(pki), std::iter::once(&s2c[..]), from_client);
    let as_server = run_end(server_end(pki), std::iter::once(&c2s[..]), from_server);
    assert_eq!(as_client.wire, c2s);
    assert_eq!(as_server.wire, s2c);
    (as_client, as_server)
}

#[test]
fn machines_reproduce_the_recorded_transcript() {
    let pki = pki();
    let (client, server) = converse(&pki, &client_messages(), &server_messages());
    assert_eq!(client.plaintext, server_messages().concat());
    assert_eq!(server.plaintext, client_messages().concat());
    assert_eq!(client.identity, "/O=golden/OU=Services/CN=host");
    assert_eq!(server.identity, "/O=golden/OU=People/CN=alice");
    let transcript = [client.wire, server.wire].concat();
    assert_eq!(to_hex(&sha256(&transcript)), GOLDEN_SHA256);
}

#[test]
fn any_slicing_of_the_byte_stream_is_equivalent_to_feeding_it_whole() {
    let pki = pki();
    // Short messages keep the streams (and with them the number of split
    // points, each of which costs a handshake) small.
    let from_client = [b"GET / HTTP/1.1\r\n\r\n".to_vec(), vec![9], vec![0x5A; 200]];
    let from_server = [vec![0xA5; 1], vec![7; 300], b"bye".to_vec()];
    let (client, server) = converse(&pki, &from_client, &from_server);
    assert_eq!(server.plaintext, from_client.concat());
    assert_eq!(client.plaintext, from_server.concat());

    let mut rng = StdRng::seed_from_u64(0x51CE);
    for (whole, peer_wire, end, send) in [
        (
            &server,
            &client.wire,
            server_end as fn(&Pki) -> SecureChannel,
            &from_server,
        ),
        (&client, &server.wire, client_end, &from_client),
    ] {
        for cut in 0..=peer_wire.len() {
            let (head, tail) = peer_wire.split_at(cut);
            let split = run_end(end(&pki), [head, tail].into_iter(), send);
            assert_eq!(&split, whole, "split at {cut}");
        }
        for _ in 0..8 {
            let mut sizes = Vec::new();
            let mut total = 0;
            while total < peer_wire.len() {
                let n = (1 + rng.next_u64() as usize % 7).min(peer_wire.len() - total);
                sizes.push(n);
                total += n;
            }
            let mut rest = &peer_wire[..];
            let pieces = sizes.iter().map(|&n| {
                let (piece, tail) = rest.split_at(n);
                rest = tail;
                piece
            });
            assert_eq!(
                &run_end(end(&pki), pieces, send),
                whole,
                "1..=7-byte slices"
            );
        }
    }
}
