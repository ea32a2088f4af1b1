//! Shared fuzz entry points for the secure channel's record machine, for
//! the arithmetic and cipher kernels under it, and for DN text.
//!
//! Same contract as `clarens_wire::fuzz`: raw bytes in — whatever a peer
//! (or whoever sits on the path) put on the socket — and the machine must
//! reject or accept them gracefully; the kernels must agree with their
//! references on whatever operands the bytes spell. Driven by the
//! cargo-fuzz targets in `fuzz/fuzz_targets/`, the in-tree `repro fuzz`
//! harness, and that harness's bounded pass in `cargo test`
//! (`crates/bench/tests/fuzz_smoke.rs`).

use std::sync::{Arc, OnceLock};

use rand::{rngs::StdRng, SeedableRng};

use crate::bigint::{BigUint, Modulus};
use crate::cert::{Certificate, CertificateAuthority, Credential};
use crate::chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};
use crate::channel::{ChannelError, SecureChannel};
use crate::dn::{Attribute, AttributeType, DistinguishedName, DnError};
use crate::md5::{self, Md5};
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

/// ChaCha20 as RFC 8439 §2.3–2.4 spells it — the state an array, one
/// keystream byte per data byte: the reference [`ChaCha20::apply`] is held
/// to, here and in the unit tests.
pub(crate) fn reference_chacha20(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    counter: u32,
    data: &mut [u8],
) {
    fn quarter_round(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(16);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(12);
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(8);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(7);
    }
    let word = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().expect("four bytes"));
    let mut state = [
        0x61707865, 0x3320646e, 0x79622d32, 0x6b206574, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ];
    for i in 0..8 {
        state[4 + i] = word(&key[4 * i..4 * i + 4]);
    }
    for i in 0..3 {
        state[13 + i] = word(&nonce[4 * i..4 * i + 4]);
    }
    for (block, chunk) in data.chunks_mut(64).enumerate() {
        state[12] = counter.wrapping_add(block as u32);
        let mut x = state;
        for _ in 0..10 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (i, byte) in chunk.iter_mut().enumerate() {
            *byte ^= x[i / 4].wrapping_add(state[i / 4]).to_le_bytes()[i % 4];
        }
    }
}

/// MD5 as RFC 1321 §3.4's pseudocode reads: a 64-iteration loop choosing
/// the round function and message index per step, the addends computed
/// from the sine, over a message padded up front. The reference the
/// unrolled [`Md5`] and its two-write padding are held to, here, in its
/// unit tests and in the property tests.
pub fn reference_md5(message: &[u8]) -> [u8; md5::DIGEST_LEN] {
    const S: [u32; 16] = [7, 12, 17, 22, 5, 9, 14, 20, 4, 11, 16, 23, 6, 10, 15, 21];
    let mut padded = message.to_vec();
    padded.push(0x80);
    while padded.len() % md5::BLOCK_LEN != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&(message.len() as u64).wrapping_mul(8).to_le_bytes());
    let mut state = [0x67452301u32, 0xefcdab89, 0x98badcfe, 0x10325476];
    for block in padded.chunks_exact(md5::BLOCK_LEN) {
        let m: Vec<u32> = block
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().expect("four bytes")))
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
    let mut out = [0u8; md5::DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// DN parsing as a character loop that unescapes the whole line into owned
/// components first, then splits each at its first `=` and upper-cases the
/// type to name it: the reference [`DistinguishedName::parse`] is held to,
/// error messages included.
pub(crate) fn reference_parse(text: &str) -> Result<DistinguishedName, DnError> {
    let text = text.trim();
    if !text.starts_with('/') {
        return Err(DnError(format!("must start with '/': {text:?}")));
    }
    let mut attributes = Vec::new();
    // Split on unescaped '/'.
    let mut components: Vec<String> = Vec::new();
    let mut current = String::new();
    let mut chars = text[1..].chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some(escaped) => current.push(escaped),
                None => return Err(DnError("trailing backslash".into())),
            },
            '/' => {
                components.push(std::mem::take(&mut current));
            }
            c => current.push(c),
        }
    }
    components.push(current);

    for comp in components {
        if comp.is_empty() {
            return Err(DnError("empty component".into()));
        }
        let (tag, value) = comp
            .split_once('=')
            .ok_or_else(|| DnError(format!("component {comp:?} has no '='")))?;
        if tag.is_empty() {
            return Err(DnError(format!("component {comp:?} has empty type")));
        }
        let kind = match tag.to_ascii_uppercase().as_str() {
            "C" => AttributeType::Country,
            "ST" => AttributeType::State,
            "L" => AttributeType::Locality,
            "O" => AttributeType::Organization,
            "OU" => AttributeType::OrganizationalUnit,
            "CN" => AttributeType::CommonName,
            "EMAIL" | "EMAILADDRESS" | "E" => AttributeType::Email,
            "DC" => AttributeType::DomainComponent,
            _ => AttributeType::Other(tag.to_owned()),
        };
        attributes.push(Attribute {
            kind,
            value: value.to_owned(),
        });
    }
    if attributes.is_empty() {
        return Err(DnError("no components".into()));
    }
    Ok(DistinguishedName { attributes })
}

/// The longest valid UTF-8 prefix of `data`, as DN text: `parse` ≡
/// [`reference_parse`], and a DN that parses reads back from its own text.
fn dn_text(data: &[u8]) {
    let valid = std::str::from_utf8(data).map_or_else(|e| e.valid_up_to(), str::len);
    let text = std::str::from_utf8(&data[..valid]).expect("a valid prefix");
    let parsed = DistinguishedName::parse(text);
    assert_eq!(parsed, reference_parse(text), "parse({text:?})");
    if let Ok(dn) = parsed {
        let shown = dn.to_string();
        assert_eq!(
            DistinguishedName::parse(&shown),
            Ok(dn),
            "{text:?} shown as {shown:?}"
        );
    }
}

/// Front of `data`, at most `len` bytes of it, split off.
fn take<'a>(data: &mut &'a [u8], len: usize) -> &'a [u8] {
    let (front, rest) = data.split_at(len.min(data.len()));
    *data = rest;
    front
}

/// Like [`take`], zero-padded to exactly `N` bytes.
fn take_array<const N: usize>(data: &mut &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    let front = take(data, N);
    out[..front.len()].copy_from_slice(front);
    out
}

/// The kernels agree with their references on operands spelled by `data`:
///
/// * three length bytes, then that many bytes each of base (≤ 2 × 17 limbs),
///   exponent (≤ 128 bits, both sides of the window switch) and modulus
///   (≤ 17 limbs, its low bit forced unless the first length byte's top bit
///   says otherwise): [`Modulus::pow`] and [`Modulus::mul`] ≡ the
///   division-based ladder and `mulmod`;
/// * then key, nonce, block counter, and the rest as the plaintext, whose own
///   bytes cut it into `apply` calls of 1..=200 bytes: [`ChaCha20`] ≡
///   `reference_chacha20`, and the same pieces fed to [`Md5::update`] give
///   [`reference_md5`]'s digest;
/// * and the whole input's valid UTF-8 prefix as DN text:
///   [`DistinguishedName::parse`] ≡ `reference_parse`, and what parses
///   survives `parse(to_string())`.
pub fn pki_kernels(mut data: &[u8]) {
    dn_text(data);
    let data = &mut data;
    let [base_len, exponent_len, modulus_len] = take_array::<3>(data);
    let base = BigUint::from_bytes_be(take(data, base_len as usize % 128 * 17 / 8));
    let exponent = BigUint::from_bytes_be(take(data, exponent_len as usize % 17));
    let mut modulus = take(data, modulus_len as usize % (17 * 8 + 1)).to_vec();
    if base_len < 0x80 {
        if let Some(low) = modulus.last_mut() {
            *low |= 1;
        }
    }
    let modulus = BigUint::from_bytes_be(&modulus);
    if !modulus.is_zero() {
        let prepared = Modulus::new(modulus.clone());
        assert_eq!(
            prepared.pow(&base, &exponent),
            base.modpow_by_division(&exponent, &modulus),
            "{base}^{exponent} mod {modulus}"
        );
        assert_eq!(
            prepared.mul(&base, &exponent),
            base.mulmod(&exponent, &modulus),
            "{base}*{exponent} mod {modulus}"
        );
    }

    let key = take_array::<KEY_LEN>(data);
    let nonce = take_array::<NONCE_LEN>(data);
    let counter = u32::from_le_bytes(take_array(data));
    let mut expected = data.to_vec();
    reference_chacha20(&key, &nonce, counter, &mut expected);
    let mut got = data.to_vec();
    let mut cipher = ChaCha20::new(&key, &nonce, counter);
    let mut digest = Md5::new();
    let mut rest = &mut got[..];
    while let Some(&first) = rest.first() {
        let (piece, after) = rest.split_at_mut((1 + first as usize % 200).min(rest.len()));
        digest.update(piece);
        cipher.apply(piece);
        rest = after;
    }
    assert_eq!(
        got, expected,
        "key {key:?} nonce {nonce:?} counter {counter}"
    );
    assert_eq!(
        digest.finalize(),
        reference_md5(data),
        "md5 of {} bytes",
        data.len()
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

    /// The DN leg on text the parser and its reference must agree on: the
    /// paper's DNs, escapes of `/`, `\` and `=`, a type with an escape,
    /// every error, and multi-byte text cut mid-character.
    #[test]
    fn dn_leg_agrees_with_the_reference() {
        for text in [
            "/O=doesciencegrid.org/OU=Services/CN=host\\/www.mysite.edu",
            "  /DC=org/DC=doegrids/OU=People/CN=Joe User ",
            "/CN=a\\\\b/emailAddress=x\\=y=z/C\\N=c/e=\\\\",
            "/CN\\=v/uid=/x\\/y=1",
            "/O=a/\\==v",
            "/O=a//CN=b",
            "/O=a/",
            "/Oa",
            "/=v",
            "/O=a\\",
            "/O=a\\\\\\",
            "no-slash",
            "",
            "/CN=é€中 x/OU=\\é",
        ] {
            dn_text(text.as_bytes());
        }
        dn_text(&"/CN=中".as_bytes()[..6]);
    }

    #[test]
    fn kernel_entry_accepts_short_and_long_inputs() {
        pki_kernels(b"");
        pki_kernels(&[0xff; 2]);
        pki_kernels(&[0x7f; 700]);
        // An even modulus, and a counter one block short of wrapping.
        let mut input = vec![0x80 | 16, 9, 16];
        input.extend_from_slice(&[0xA6; 16 * 17 / 8 + 9 + 16]);
        input.extend_from_slice(&[3; KEY_LEN + NONCE_LEN]);
        input.extend_from_slice(&u32::MAX.to_le_bytes());
        input.extend_from_slice(&[0x55; 300]);
        pki_kernels(&input);
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
