//! A TLS-like secure channel with mutual X.509-style authentication.
//!
//! PClarens delegated SSL to Apache; our from-scratch server needs its own
//! encrypted transport, so this module implements a miniature handshake +
//! record protocol with the same *shape* as SSL 3.0/TLS 1.0 (the protocols
//! the paper's "SSL/TLS-encrypted network connections... reduce performance
//! by up to 50%" measurement used):
//!
//! * **Handshake** — hellos with nonces, server certificate chain, RSA key
//!   transport of a premaster secret, client certificate chain plus a
//!   transcript signature (mutual auth — Clarens requires "certificate
//!   based authentication when establishing a connection").
//! * **Record layer** — length-framed records encrypted with ChaCha20 and
//!   authenticated with HMAC-SHA256; sequence numbers prevent replay and
//!   reordering.
//!
//! [`SecureChannel`] is the protocol as a state machine that owns no
//! socket: the caller feeds it whatever bytes arrived, writes whatever
//! bytes it hands back, and may stop between any two calls — which is what
//! lets the HTTP server park an encrypted connection on socket readiness
//! like a plaintext one. [`SecureStream`] is the blocking adapter over it
//! for clients: it implements [`std::io::Read`] and [`std::io::Write`].

use std::io::{self, Read, Write};
use std::sync::Arc;

use rand::{Rng, RngExt};

use crate::cert::{verify_chain, CertError, Certificate, Credential};
use crate::chacha20::ChaCha20;
use crate::dn::DistinguishedName;
use crate::hmac::{derive_key, hmac_sha256, verify_mac, HmacSha256};
use crate::sha256::Sha256;

/// Maximum plaintext bytes per record (SSL records are ≤ 16 KiB too).
pub const MAX_RECORD: usize = 16 * 1024;
/// Maximum serialized handshake message (bounds allocation on hostile
/// peers).
const MAX_HANDSHAKE: usize = 256 * 1024;
/// Maximum sealed record a peer may send.
const MAX_SEALED: usize = MAX_RECORD + MAC_LEN + 16;
/// Protocol magic for hello messages.
const MAGIC: &[u8; 8] = b"CLARENS1";
/// MAC length on each record.
const MAC_LEN: usize = 32;
/// Every frame starts with its payload length, big-endian.
const PREFIX_LEN: usize = 4;
/// The first record each side seals, proving it derived the same keys.
const FINISHED: &[u8] = b"finished";
/// The premaster secret the client transports under the server's RSA key.
const PREMASTER_LEN: usize = 48;
/// PKCS#1 padding bytes a client draws up front; enough for a server key
/// of `8 * (MAX_RSA_PADDING + PREMASTER_LEN + 3)` bits.
const MAX_RSA_PADDING: usize = 1024;

/// Channel establishment or I/O errors.
#[derive(Debug)]
pub enum ChannelError {
    /// Underlying socket error.
    Io(io::Error),
    /// Peer violated the handshake protocol.
    Handshake(String),
    /// Certificate problem.
    Cert(CertError),
    /// Record MAC check failed (tampering or key mismatch).
    BadRecord,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::Io(e) => write!(f, "channel I/O error: {e}"),
            ChannelError::Handshake(m) => write!(f, "handshake failed: {m}"),
            ChannelError::Cert(e) => write!(f, "certificate error: {e}"),
            ChannelError::BadRecord => write!(f, "record authentication failed"),
        }
    }
}

impl std::error::Error for ChannelError {}

impl From<io::Error> for ChannelError {
    fn from(e: io::Error) -> Self {
        ChannelError::Io(e)
    }
}

impl From<CertError> for ChannelError {
    fn from(e: CertError) -> Self {
        ChannelError::Cert(e)
    }
}

fn handshake_error(message: impl Into<String>) -> ChannelError {
    ChannelError::Handshake(message.into())
}

/// Append `payload` to `out` as one length-prefixed frame.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
}

/// Payload length announced by a frame's prefix, checked against `limit`.
fn frame_len(prefix: &[u8], limit: usize) -> Result<usize, ChannelError> {
    let len = u32::from_be_bytes(prefix[..PREFIX_LEN].try_into().unwrap()) as usize;
    if len > limit {
        return Err(handshake_error(format!(
            "frame of {len} bytes exceeds limit"
        )));
    }
    Ok(len)
}

/// Split one `u32`-length-prefixed field off the front of `data`.
fn take_field<'a>(data: &mut &'a [u8], what: &str) -> Result<&'a [u8], ChannelError> {
    let truncated = || handshake_error(format!("truncated {what}"));
    let (len, rest) = data.split_first_chunk::<4>().ok_or_else(truncated)?;
    let len = u32::from_be_bytes(*len) as usize;
    if rest.len() < len {
        return Err(truncated());
    }
    let (field, rest) = rest.split_at(len);
    *data = rest;
    Ok(field)
}

/// Serialize a certificate chain (leaf first) for the wire.
fn encode_chain(out: &mut Vec<u8>, leaf: &Certificate, rest: &[Certificate]) {
    out.extend_from_slice(&(1 + rest.len() as u32).to_be_bytes());
    for cert in std::iter::once(leaf).chain(rest) {
        push_frame(out, cert.to_text().as_bytes());
    }
}

/// Parse a chain off the front of `data`, leaving what follows it.
fn decode_chain(data: &mut &[u8]) -> Result<Vec<Certificate>, ChannelError> {
    let (count, rest) = data
        .split_first_chunk::<4>()
        .ok_or_else(|| handshake_error("truncated chain"))?;
    *data = rest;
    let count = u32::from_be_bytes(*count) as usize;
    if count == 0 || count > 16 {
        return Err(handshake_error(format!("implausible chain length {count}")));
    }
    let mut chain = Vec::with_capacity(count);
    for _ in 0..count {
        let text = std::str::from_utf8(take_field(data, "certificate")?)
            .map_err(|_| handshake_error("certificate not UTF-8"))?;
        chain.push(Certificate::from_text(text)?);
    }
    Ok(chain)
}

/// One direction of the record protocol.
struct Direction {
    key: [u8; 32],
    nonce_base: [u8; 12],
    /// HMAC keyed with the direction's MAC key, no message absorbed: every
    /// record's tag starts from a clone of it.
    mac: HmacSha256,
    sequence: u64,
}

impl Direction {
    fn from_material(material: &[u8]) -> Self {
        Direction {
            key: material[0..32].try_into().unwrap(),
            nonce_base: material[32..44].try_into().unwrap(),
            mac: HmacSha256::new(&material[44..76]),
            sequence: 0,
        }
    }

    /// Per-record nonce: base XORed with the sequence number (like TLS 1.3).
    fn record_nonce(&self) -> [u8; 12] {
        let mut nonce = self.nonce_base;
        let seq = self.sequence.to_be_bytes();
        for i in 0..8 {
            nonce[4 + i] ^= seq[i];
        }
        nonce
    }

    fn tag(&self, ciphertext: &[u8]) -> [u8; MAC_LEN] {
        let mut mac = self.mac.clone();
        mac.update(&self.sequence.to_be_bytes());
        mac.update(&(ciphertext.len() as u32).to_be_bytes());
        mac.update(ciphertext);
        mac.finalize()
    }

    /// Append `plaintext` to `out` as one sealed, framed record.
    fn seal(&mut self, plaintext: &[u8], out: &mut Vec<u8>) {
        debug_assert!(plaintext.len() <= MAX_RECORD);
        out.extend_from_slice(&((plaintext.len() + MAC_LEN) as u32).to_be_bytes());
        let start = out.len();
        out.extend_from_slice(plaintext);
        ChaCha20::new(&self.key, &self.record_nonce(), 0).apply(&mut out[start..]);
        let tag = self.tag(&out[start..]);
        out.extend_from_slice(&tag);
        self.sequence += 1;
    }

    /// Authenticate `record` (a frame's payload) and append what it carries
    /// to `plaintext`; nothing is appended unless the tag verifies.
    fn open(&mut self, record: &[u8], plaintext: &mut Vec<u8>) -> Result<(), ChannelError> {
        let split = record
            .len()
            .checked_sub(MAC_LEN)
            .ok_or(ChannelError::BadRecord)?;
        let (ciphertext, tag) = record.split_at(split);
        if !verify_mac(&self.tag(ciphertext), tag) {
            return Err(ChannelError::BadRecord);
        }
        let start = plaintext.len();
        plaintext.extend_from_slice(ciphertext);
        ChaCha20::new(&self.key, &self.record_nonce(), 0).apply(&mut plaintext[start..]);
        self.sequence += 1;
        Ok(())
    }
}

/// Record keys for both directions, as this end uses them.
struct Keys {
    send: Direction,
    recv: Direction,
}

impl Keys {
    /// `context` is the two hello randoms, client's first.
    fn derive(premaster: &[u8], context: &[u8; 64], client: bool) -> Keys {
        let master = hmac_sha256(premaster, context);
        let direction = |label| Direction::from_material(&derive_key(&master, label, context, 76));
        let (send, recv) = match client {
            true => ("client write", "server write"),
            false => ("server write", "client write"),
        };
        Keys {
            send: direction(send),
            recv: direction(recv),
        }
    }
}

/// Who is on the other end of an established channel.
#[derive(Debug, Clone)]
pub struct Peer {
    /// Effective identity: for a client, the end-entity DN below any proxy
    /// certificates; for a server, its leaf subject.
    pub identity: DistinguishedName,
    /// The chain the peer presented, leaf first.
    pub chain: Vec<Certificate>,
}

/// What the handshake is waiting for. `context` collects the two hello
/// randoms, client's first, as each becomes known.
enum Step {
    /// Client: hello sent. The premaster and the PKCS#1 padding around it
    /// are drawn already, so no rng is needed once the server's key is in.
    ServerHello {
        context: [u8; 64],
        premaster: [u8; PREMASTER_LEN],
        padding: Vec<u8>,
    },
    /// Server: nothing received yet.
    ClientHello { context: [u8; 64] },
    /// Server: hello sent, waiting for the key exchange.
    KeyExchange { context: [u8; 64] },
    /// Keys derived; the peer's first record must be [`FINISHED`]. The
    /// client answers it with its own, the server has sent its already.
    Finished { peer: Peer, reply: bool },
}

/// Everything only the handshake needs; dropped on establishment.
struct Handshake {
    credential: Arc<Credential>,
    roots: Arc<[Certificate]>,
    now: i64,
    /// Running hash of the handshake messages; the client signs it.
    transcript: Sha256,
    step: Step,
}

impl Handshake {
    /// Queue one handshake message and fold it into the transcript.
    fn send(&mut self, output: &mut Vec<u8>, message: &[u8]) {
        self.transcript.update(message);
        push_frame(output, message);
    }
}

/// Feeds pre-drawn bytes to [`crate::rsa::PublicKey::encrypt`], which draws
/// its padding one `u8` at a time.
struct Replay<'a>(std::slice::Iter<'a, u8>);

impl Rng for Replay<'_> {
    fn next_u64(&mut self) -> u64 {
        u64::from(*self.0.next().expect("padding sized to the key"))
    }
}

/// One end of a secure channel, as a state machine that owns no socket.
///
/// [`feed`](Self::feed) it the bytes that arrived, in slices of any size:
/// it consumes every whole handshake frame and record — appending opened
/// plaintext to the caller's buffer — and keeps at most a strict prefix of
/// one frame (the length prefix plus fewer than `MAX_HANDSHAKE` payload
/// bytes before keys are derived, fewer than `MAX_RECORD + MAC_LEN + 16`
/// after). Write whatever [`take_output`](Self::take_output) returns.
/// [`take_peer`](Self::take_peer) yields the authenticated peer once, when
/// the handshake completes; from then on [`seal`](Self::seal) turns
/// plaintext into records. When the byte stream ends,
/// [`at_frame_boundary`](Self::at_frame_boundary) tells a clean close from
/// a truncation.
pub struct SecureChannel {
    /// `Some` until the handshake completes.
    handshake: Option<Box<Handshake>>,
    /// `Some` from key derivation on; `None` again after a failed feed.
    keys: Option<Keys>,
    /// Set on establishment, until taken.
    peer: Option<Peer>,
    /// A strict prefix of the next frame, length prefix included.
    partial: Vec<u8>,
    /// Handshake bytes not yet taken for writing.
    output: Vec<u8>,
}

impl SecureChannel {
    /// The connecting end: verifies the server against `roots` and
    /// presents `credential`. Draws the hello random, the premaster and
    /// the RSA padding from `rng`, in that order, and queues the hello.
    pub fn client<R: Rng + ?Sized>(
        credential: Arc<Credential>,
        roots: Arc<[Certificate]>,
        now: i64,
        rng: &mut R,
    ) -> SecureChannel {
        let mut hello = [0u8; 40];
        hello[..8].copy_from_slice(MAGIC);
        rng.fill_bytes(&mut hello[8..]);
        let mut context = [0u8; 64];
        context[..32].copy_from_slice(&hello[8..]);
        let premaster: [u8; PREMASTER_LEN] = rng.random();
        // PKCS#1 type-2 padding is the next non-zero bytes of the stream.
        // How many the server's key needs is unknown until its hello, so
        // draw for the largest key accepted.
        let mut padding = Vec::with_capacity(MAX_RSA_PADDING);
        while padding.len() < MAX_RSA_PADDING {
            let byte: u8 = rng.random();
            if byte != 0 {
                padding.push(byte);
            }
        }
        let step = Step::ServerHello {
            context,
            premaster,
            padding,
        };
        let mut channel = SecureChannel::handshaking(credential, roots, now, step);
        let handshake = channel.handshake.as_mut().expect("just built");
        handshake.send(&mut channel.output, &hello);
        channel
    }

    /// The accepting end: presents `credential` and verifies the client
    /// against `roots`. Draws the hello random from `rng`.
    pub fn server<R: Rng + ?Sized>(
        credential: Arc<Credential>,
        roots: Arc<[Certificate]>,
        now: i64,
        rng: &mut R,
    ) -> SecureChannel {
        let mut context = [0u8; 64];
        rng.fill_bytes(&mut context[32..]);
        SecureChannel::handshaking(credential, roots, now, Step::ClientHello { context })
    }

    fn handshaking(
        credential: Arc<Credential>,
        roots: Arc<[Certificate]>,
        now: i64,
        step: Step,
    ) -> SecureChannel {
        let transcript = Sha256::new();
        let handshake = Handshake {
            credential,
            roots,
            now,
            transcript,
            step,
        };
        SecureChannel::new(Some(Box::new(handshake)), None)
    }

    /// An established end with keys cut straight from `send` and `recv`
    /// material, for the fuzz entry: no RSA on the way in.
    pub(crate) fn with_keys(send: &[u8; 76], recv: &[u8; 76]) -> SecureChannel {
        let keys = Keys {
            send: Direction::from_material(send),
            recv: Direction::from_material(recv),
        };
        SecureChannel::new(None, Some(keys))
    }

    fn new(handshake: Option<Box<Handshake>>, keys: Option<Keys>) -> SecureChannel {
        SecureChannel {
            handshake,
            keys,
            peer: None,
            partial: Vec::new(),
            output: Vec::new(),
        }
    }

    /// Has the handshake completed?
    pub fn is_established(&self) -> bool {
        self.handshake.is_none() && self.keys.is_some()
    }

    /// The authenticated peer: `Some` once, after the feed that completed
    /// the handshake.
    pub fn take_peer(&mut self) -> Option<Peer> {
        self.peer.take()
    }

    /// Handshake bytes this end wants written (empty when there are none).
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.output)
    }

    /// Is the machine between frames? When the byte stream ends, `true`
    /// means the peer closed cleanly and `false` that the stream was cut
    /// inside a length prefix, a handshake message or a record.
    pub fn at_frame_boundary(&self) -> bool {
        self.partial.is_empty()
    }

    /// Bytes of the incomplete frame held back, length prefix included.
    pub(crate) fn buffered(&self) -> usize {
        self.partial.len()
    }

    /// Largest frame payload the peer may send in the current state.
    pub(crate) fn frame_limit(&self) -> usize {
        if self.keys.is_some() {
            MAX_SEALED
        } else {
            MAX_HANDSHAKE
        }
    }

    /// Consume `input`: every whole frame in it is processed — handshake
    /// messages advance the handshake, records are opened and their
    /// plaintext appended to `plaintext` — and a trailing partial frame is
    /// kept for the next call. After an error the channel is dead: nothing
    /// further is ever appended.
    pub fn feed(&mut self, input: &[u8], plaintext: &mut Vec<u8>) -> Result<(), ChannelError> {
        if self.handshake.is_none() && self.keys.is_none() {
            return Err(handshake_error("channel already failed"));
        }
        let result = self.feed_frames(input, plaintext);
        if result.is_err() {
            self.handshake = None;
            self.keys = None;
        }
        result
    }

    fn feed_frames(
        &mut self,
        mut input: &[u8],
        plaintext: &mut Vec<u8>,
    ) -> Result<(), ChannelError> {
        loop {
            // The frame at the head of the stream starts in `partial` if
            // one is held back, in `input` otherwise; its span is known
            // once its length prefix is in.
            let head = match self.partial.is_empty() {
                true => input,
                false => &self.partial,
            };
            let span = match head.len() >= PREFIX_LEN {
                true => Some(PREFIX_LEN + frame_len(head, self.frame_limit())?),
                false => None,
            };
            match span {
                // Whole in the caller's slice: processed in place, no copy.
                Some(span) if self.partial.is_empty() && input.len() >= span => {
                    let (frame, rest) = input.split_at(span);
                    input = rest;
                    self.on_frame(&frame[PREFIX_LEN..], plaintext)?;
                }
                Some(span) if self.partial.len() == span => {
                    let frame = std::mem::take(&mut self.partial);
                    let result = self.on_frame(&frame[PREFIX_LEN..], plaintext);
                    self.partial = frame;
                    self.partial.clear();
                    result?;
                }
                // Hold back exactly what the frame still lacks — its
                // prefix first, then its payload — and no byte more.
                _ if input.is_empty() => return Ok(()),
                _ => {
                    let lacking = span.unwrap_or(PREFIX_LEN) - self.partial.len();
                    let (taken, rest) = input.split_at(lacking.min(input.len()));
                    self.partial.extend_from_slice(taken);
                    input = rest;
                }
            }
        }
    }

    fn on_frame(&mut self, frame: &[u8], plaintext: &mut Vec<u8>) -> Result<(), ChannelError> {
        match self.handshake.take() {
            Some(handshake) => self.on_handshake_frame(handshake, frame, plaintext),
            None => {
                let keys = self.keys.as_mut().expect("established");
                keys.recv.open(frame, plaintext)
            }
        }
    }

    /// Advance the handshake by one message. `scratch` is any buffer: the
    /// Finished record is opened onto its end and taken off again.
    fn on_handshake_frame(
        &mut self,
        mut hs: Box<Handshake>,
        frame: &[u8],
        scratch: &mut Vec<u8>,
    ) -> Result<(), ChannelError> {
        hs.step = match hs.step {
            Step::ClientHello { mut context } => {
                if frame.len() != 40 || &frame[..8] != MAGIC {
                    return Err(handshake_error("bad client hello"));
                }
                hs.transcript.update(frame);
                context[..32].copy_from_slice(&frame[8..]);
                // -> ServerHello { random, chain }
                let mut hello = MAGIC.to_vec();
                hello.extend_from_slice(&context[32..]);
                encode_chain(&mut hello, &hs.credential.certificate, &hs.credential.chain);
                hs.send(&mut self.output, &hello);
                Step::KeyExchange { context }
            }
            Step::ServerHello {
                mut context,
                premaster,
                padding,
            } => {
                hs.transcript.update(frame);
                if frame.len() < 40 || &frame[..8] != MAGIC {
                    return Err(handshake_error("bad server hello"));
                }
                context[32..].copy_from_slice(&frame[8..40]);
                let chain = decode_chain(&mut &frame[40..])?;
                verify_chain(&chain, &hs.roots, hs.now)?;
                let server_key = &chain[0].public_key;
                if server_key.modulus_len() > padding.len() + PREMASTER_LEN + 3 {
                    return Err(handshake_error("server key too large"));
                }
                // -> ClientKeyExchange { E_server(premaster), chain, sig }
                let encrypted = server_key
                    .encrypt(&mut Replay(padding.iter()), &premaster)
                    .map_err(|e| handshake_error(format!("premaster encryption: {e}")))?;
                let mut msg = Vec::new();
                push_frame(&mut msg, &encrypted);
                encode_chain(&mut msg, &hs.credential.certificate, &hs.credential.chain);
                // Sign the transcript so far plus the premaster ciphertext:
                // binds the client identity to this session.
                let mut to_sign = hs.transcript.clone();
                to_sign.update(&encrypted);
                push_frame(&mut msg, &hs.credential.key.sign(&to_sign.finalize()));
                push_frame(&mut self.output, &msg);
                self.keys = Some(Keys::derive(&premaster, &context, true));
                let peer = Peer {
                    identity: chain[0].subject.clone(),
                    chain,
                };
                Step::Finished { peer, reply: true }
            }
            Step::KeyExchange { context } => {
                let mut rest = frame;
                let encrypted = take_field(&mut rest, "premaster")?;
                let premaster = hs
                    .credential
                    .key
                    .decrypt(encrypted)
                    .map_err(|e| handshake_error(format!("premaster decryption: {e}")))?;
                if premaster.len() != PREMASTER_LEN {
                    return Err(handshake_error("bad premaster length"));
                }
                let chain = decode_chain(&mut rest)?;
                let signature = take_field(&mut rest, "signature")?;
                let identity = verify_chain(&chain, &hs.roots, hs.now)?;
                let mut to_sign = hs.transcript.clone();
                to_sign.update(encrypted);
                chain[0]
                    .public_key
                    .verify(&to_sign.finalize(), signature)
                    .map_err(|_| handshake_error("client transcript signature invalid"))?;
                let keys = self.keys.insert(Keys::derive(&premaster, &context, false));
                keys.send.seal(FINISHED, &mut self.output);
                let peer = Peer { identity, chain };
                Step::Finished { peer, reply: false }
            }
            Step::Finished { peer, reply } => {
                let keys = self.keys.as_mut().expect("keys precede Finished");
                let start = scratch.len();
                keys.recv.open(frame, scratch)?;
                let finished = &scratch[start..] == FINISHED;
                scratch.truncate(start);
                if !finished {
                    return Err(handshake_error("bad finished message"));
                }
                if reply {
                    keys.send.seal(FINISHED, &mut self.output);
                }
                self.peer = Some(peer);
                return Ok(());
            }
        };
        self.handshake = Some(hs);
        Ok(())
    }

    /// Seal `plaintext` into `out` as framed records of at most
    /// [`MAX_RECORD`] bytes each; an empty `plaintext` appends nothing.
    ///
    /// # Panics
    /// If the handshake has not completed.
    pub fn seal(&mut self, plaintext: &[u8], out: &mut Vec<u8>) {
        let keys = match &mut self.keys {
            Some(keys) if self.handshake.is_none() => keys,
            _ => panic!("seal on a channel that is not established"),
        };
        out.reserve(
            plaintext.len() + plaintext.len().div_ceil(MAX_RECORD) * (PREFIX_LEN + MAC_LEN),
        );
        for record in plaintext.chunks(MAX_RECORD) {
            keys.send.seal(record, out);
        }
    }
}

/// An established, mutually-authenticated encrypted stream: the blocking
/// adapter that drives a [`SecureChannel`] over a `Read + Write` socket.
pub struct SecureStream<S> {
    stream: S,
    channel: SecureChannel,
    peer: Peer,
    /// Opened plaintext not yet consumed by `read`.
    read_buffer: Vec<u8>,
    read_offset: usize,
    /// Why the channel died, held back until the plaintext that was
    /// authenticated before it has been read.
    read_error: Option<io::Error>,
    /// Plaintext pending encryption on flush.
    write_buffer: Vec<u8>,
    /// Ciphertext staging, allocated once: `inbound` is what one socket
    /// read can fill, `outbound` the records of one write.
    inbound: Vec<u8>,
    outbound: Vec<u8>,
}

/// `read` that retries on `Interrupted`, as `read_exact` would.
fn read_some<S: Read>(stream: &mut S, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match stream.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

impl<S: Read + Write> SecureStream<S> {
    /// Client side: connect over `stream`, verifying the server against
    /// `roots` and presenting `credential`.
    pub fn connect<R: Rng + ?Sized>(
        stream: S,
        credential: &Credential,
        roots: &[Certificate],
        now: i64,
        rng: &mut R,
    ) -> Result<Self, ChannelError> {
        let channel = SecureChannel::client(Arc::new(credential.clone()), roots.into(), now, rng);
        Self::establish(stream, channel)
    }

    /// Server side: accept a connection, presenting `credential` and
    /// verifying the client against `roots`. Returns the stream and the
    /// full client chain (the session layer stores it for delegation).
    pub fn accept<R: Rng + ?Sized>(
        stream: S,
        credential: &Credential,
        roots: &[Certificate],
        now: i64,
        rng: &mut R,
    ) -> Result<(Self, Vec<Certificate>), ChannelError> {
        let channel = SecureChannel::server(Arc::new(credential.clone()), roots.into(), now, rng);
        let secure = Self::establish(stream, channel)?;
        let chain = secure.peer.chain.clone();
        Ok((secure, chain))
    }

    /// Run the handshake to completion: write what the machine wants
    /// written, read, feed, repeat.
    fn establish(mut stream: S, mut channel: SecureChannel) -> Result<Self, ChannelError> {
        let mut read_buffer = Vec::new();
        let mut inbound = vec![0u8; PREFIX_LEN + MAX_SEALED];
        loop {
            let output = channel.take_output();
            if !output.is_empty() {
                stream.write_all(&output)?;
                stream.flush()?;
            }
            if let Some(peer) = channel.take_peer() {
                return Ok(SecureStream {
                    stream,
                    channel,
                    peer,
                    read_buffer,
                    read_offset: 0,
                    read_error: None,
                    write_buffer: Vec::new(),
                    inbound,
                    outbound: Vec::new(),
                });
            }
            let n = read_some(&mut stream, &mut inbound)?;
            if n == 0 {
                return Err(ChannelError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended during the handshake",
                )));
            }
            channel.feed(&inbound[..n], &mut read_buffer)?;
        }
    }

    /// The peer's effective identity DN (end entity below any proxies).
    pub fn peer_identity(&self) -> &DistinguishedName {
        &self.peer.identity
    }

    /// Unwrap the inner stream (for shutdown).
    pub fn into_inner(self) -> S {
        self.stream
    }

    /// Borrow the inner stream (e.g. to set socket options).
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Seal the first `len` buffered plaintext bytes and write the records.
    fn write_records(&mut self, len: usize) -> io::Result<()> {
        self.outbound.clear();
        self.channel
            .seal(&self.write_buffer[..len], &mut self.outbound);
        self.write_buffer.drain(..len);
        self.stream
            .write_all(&self.outbound)
            .map_err(|e| io::Error::new(io::ErrorKind::BrokenPipe, e))
    }
}

impl<S: Read + Write> Read for SecureStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // A record may carry no plaintext, so keep reading until one does.
        while self.read_offset == self.read_buffer.len() {
            if let Some(error) = self.read_error.take() {
                return Err(error);
            }
            self.read_buffer.clear();
            self.read_offset = 0;
            let n = read_some(&mut self.stream, &mut self.inbound)?;
            if n == 0 {
                // EOF on a frame boundary is a clean close; anywhere else
                // the stream was cut and the record layer must say so.
                return if self.channel.at_frame_boundary() {
                    Ok(0)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream ended inside a record",
                    ))
                };
            }
            if let Err(e) = self.channel.feed(&self.inbound[..n], &mut self.read_buffer) {
                self.read_error = Some(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
        }
        let n = buf.len().min(self.read_buffer.len() - self.read_offset);
        buf[..n].copy_from_slice(&self.read_buffer[self.read_offset..self.read_offset + n]);
        self.read_offset += n;
        Ok(n)
    }
}

impl<S: Read + Write> Write for SecureStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_buffer.extend_from_slice(buf);
        // Flush full records eagerly to bound memory.
        let full = self.write_buffer.len() / MAX_RECORD * MAX_RECORD;
        if full > 0 {
            self.write_records(full)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.write_buffer.is_empty() {
            self.write_records(self.write_buffer.len())?;
        }
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use crate::dn::DistinguishedName;
    use crate::rsa;
    use rand::{rngs::StdRng, SeedableRng};
    use std::os::unix::net::UnixStream;

    const NOW: i64 = 1_118_836_800;

    fn dn(text: &str) -> DistinguishedName {
        DistinguishedName::parse(text).unwrap()
    }

    struct TestPki {
        ca: CertificateAuthority,
        server: Credential,
        client: Credential,
    }

    fn test_pki(seed: u64) -> TestPki {
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = CertificateAuthority::new(&mut rng, dn("/O=test/CN=CA"), NOW, 3650);
        let server_kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
        let server_cert = ca.issue(
            dn("/O=test/OU=Services/CN=host\\/www.mysite.edu"),
            &server_kp.public,
            NOW,
            365,
        );
        let client_kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
        let client_cert = ca.issue(
            dn("/O=test/OU=People/CN=alice"),
            &client_kp.public,
            NOW,
            365,
        );
        TestPki {
            ca,
            server: Credential {
                certificate: server_cert,
                key: server_kp.private,
                chain: vec![],
            },
            client: Credential {
                certificate: client_cert,
                key: client_kp.private,
                chain: vec![],
            },
        }
    }

    type ClientResult = Result<SecureStream<UnixStream>, ChannelError>;
    type ServerResult = Result<(SecureStream<UnixStream>, Vec<Certificate>), ChannelError>;

    /// Run client and server handshakes over the two ends of a socketpair.
    fn handshake_pair(
        pki: &TestPki,
        client_cred: &Credential,
        now: i64,
    ) -> (ClientResult, ServerResult) {
        let (sock, server_sock) = UnixStream::pair().unwrap();
        let roots = vec![pki.ca.certificate.clone()];
        let server_cred = pki.server.clone();
        let server_roots = roots.clone();
        let server = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(1000);
            SecureStream::accept(server_sock, &server_cred, &server_roots, now, &mut rng)
        });
        let mut rng = StdRng::seed_from_u64(2000);
        let client = SecureStream::connect(sock, client_cred, &roots, now, &mut rng);
        (client, server.join().unwrap())
    }

    #[test]
    fn mutual_authentication_and_data_flow() {
        let pki = test_pki(1);
        let (client, server) = handshake_pair(&pki, &pki.client, NOW + 10);
        let mut client = client.unwrap();
        let (mut server, chain) = server.unwrap();

        assert_eq!(
            server.peer_identity().to_string(),
            "/O=test/OU=People/CN=alice"
        );
        assert_eq!(
            client.peer_identity().to_string(),
            "/O=test/OU=Services/CN=host\\/www.mysite.edu"
        );
        assert_eq!(chain.len(), 1);

        // Client -> server.
        client.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        client.flush().unwrap();
        let mut buf = [0u8; 18];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"GET / HTTP/1.1\r\n\r\n");

        // Server -> client, multiple records.
        let big = vec![0x42u8; MAX_RECORD * 2 + 100];
        server.write_all(&big).unwrap();
        server.flush().unwrap();
        let mut received = vec![0u8; big.len()];
        client.read_exact(&mut received).unwrap();
        assert_eq!(received, big);
    }

    #[test]
    fn proxy_credential_authenticates_as_user() {
        let pki = test_pki(2);
        let mut rng = StdRng::seed_from_u64(77);
        let proxy = pki.client.delegate_proxy(&mut rng, NOW, 3600);
        let (client, server) = handshake_pair(&pki, &proxy, NOW + 10);
        client.unwrap();
        let (server, chain) = server.unwrap();
        // Effective identity is alice, not the proxy DN.
        assert_eq!(
            server.peer_identity().to_string(),
            "/O=test/OU=People/CN=alice"
        );
        assert_eq!(
            chain[0].subject.to_string(),
            "/O=test/OU=People/CN=alice/CN=proxy"
        );
    }

    #[test]
    fn expired_client_cert_rejected() {
        let pki = test_pki(3);
        let (client, server) = handshake_pair(&pki, &pki.client, NOW + 400 * 86_400);
        assert!(server.is_err());
        // The client may fail at various points (server cert also expired
        // at this time) — the important part is no channel establishes.
        assert!(client.is_err());
    }

    #[test]
    fn untrusted_client_rejected() {
        let pki = test_pki(4);
        // A client with a credential from a different CA.
        let rogue_pki = test_pki(5);
        let (_client, server) = handshake_pair(&pki, &rogue_pki.client, NOW + 10);
        match server {
            Err(ChannelError::Cert(_))
            | Err(ChannelError::Handshake(_))
            | Err(ChannelError::Io(_)) => {}
            Ok(_) => panic!("rogue client must not authenticate"),
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn tampered_record_detected() {
        let pki = test_pki(6);
        let (client, server) = handshake_pair(&pki, &pki.client, NOW + 10);
        let mut client = client.unwrap();
        let (server, _) = server.unwrap();
        // Write a record, then corrupt the raw stream by writing garbage
        // directly to the underlying socket.
        client.write_all(b"hello").unwrap();
        client.flush().unwrap();
        let mut raw = client.into_inner();
        // A fake "record": length prefix + garbage.
        raw.write_all(&20u32.to_be_bytes()).unwrap();
        raw.write_all(&[0u8; 20]).unwrap();
        raw.flush().unwrap();

        let mut server = server;
        let mut buf = [0u8; 5];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        let mut more = [0u8; 1];
        let err = server.read(&mut more).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A socket whose writes can be diverted into a buffer instead of
    /// reaching the peer, to get at the raw bytes of a sealed record.
    struct Tap {
        sock: UnixStream,
        held: std::sync::Arc<std::sync::Mutex<Option<Vec<u8>>>>,
    }

    impl Read for Tap {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.sock.read(buf)
        }
    }

    impl Write for Tap {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match &mut *self.held.lock().unwrap() {
                Some(held) => {
                    held.extend_from_slice(buf);
                    Ok(buf.len())
                }
                None => self.sock.write(buf),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The record layer exists to tell a cut stream from a closed one: a
    /// byte stream that ends anywhere inside a record — its length prefix
    /// included — must not read as a clean EOF.
    #[test]
    fn truncation_inside_a_record_is_not_a_clean_close() {
        let pki = test_pki(9);
        let roots = vec![pki.ca.certificate.clone()];
        let mut cut = 0;
        loop {
            let (sock, server_sock) = UnixStream::pair().unwrap();
            let (server_cred, server_roots) = (pki.server.clone(), roots.clone());
            let server = std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000);
                let (mut stream, _) = SecureStream::accept(
                    server_sock,
                    &server_cred,
                    &server_roots,
                    NOW + 10,
                    &mut rng,
                )
                .unwrap();
                let mut plaintext = Vec::new();
                stream.read_to_end(&mut plaintext).map(|_| plaintext)
            });
            let held = std::sync::Arc::new(std::sync::Mutex::new(None));
            let tap = Tap {
                sock,
                held: std::sync::Arc::clone(&held),
            };
            let mut rng = StdRng::seed_from_u64(2000);
            let mut client =
                SecureStream::connect(tap, &pki.client, &roots, NOW + 10, &mut rng).unwrap();
            // Seal one record into the tap, then put only its first `cut`
            // bytes on the wire and close.
            *held.lock().unwrap() = Some(Vec::new());
            client.write_all(b"hello").unwrap();
            client.flush().unwrap();
            let record = held.lock().unwrap().take().unwrap();
            let mut sock = client.into_inner().sock;
            sock.write_all(&record[..cut]).unwrap();
            drop(sock);

            let outcome = server.join().unwrap();
            if cut == 0 {
                assert_eq!(outcome.unwrap(), b"");
            } else if cut == record.len() {
                assert_eq!(outcome.unwrap(), b"hello");
                return;
            } else {
                let error = outcome.expect_err("a cut record read as a clean close");
                assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
            }
            cut += 1;
        }
    }

    /// A record may carry no plaintext; that is not the end of the stream.
    #[test]
    fn zero_length_record_is_not_eof() {
        let (a, b) = ([1u8; 76], [2u8; 76]);
        let mut sender = SecureChannel::with_keys(&a, &b);
        let mut wire = Vec::new();
        let keys = sender.keys.as_mut().unwrap();
        keys.send.seal(b"", &mut wire);
        keys.send.seal(b"after", &mut wire);
        assert_eq!(wire.len(), 2 * (PREFIX_LEN + MAC_LEN) + 5);

        let mut receiver = SecureChannel::with_keys(&b, &a);
        let mut plaintext = Vec::new();
        receiver
            .feed(&wire[..PREFIX_LEN + MAC_LEN], &mut plaintext)
            .unwrap();
        assert!(plaintext.is_empty() && receiver.at_frame_boundary());

        // Through the adapter: the first `read` skips the empty record
        // instead of reporting end-of-stream.
        let mut stream = SecureStream {
            stream: io::Cursor::new(wire),
            channel: SecureChannel::with_keys(&b, &a),
            peer: Peer {
                identity: dn("/CN=peer"),
                chain: vec![],
            },
            read_buffer: Vec::new(),
            read_offset: 0,
            read_error: None,
            write_buffer: Vec::new(),
            inbound: vec![0; 64],
            outbound: Vec::new(),
        };
        let mut buf = [0u8; 16];
        assert_eq!(stream.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"after");
        assert_eq!(stream.read(&mut buf).unwrap(), 0);
    }

    /// The record format through the reference kernels only: byte-wise
    /// RFC 8439 ChaCha20, and HMAC by its RFC 2104 definition over the
    /// looped FIPS 180-4 SHA-256, key schedule redone per record.
    fn reference_seal(material: &[u8; 76], sequence: u64, plaintext: &[u8]) -> Vec<u8> {
        let mut nonce: [u8; 12] = material[32..44].try_into().unwrap();
        for (n, s) in nonce[4..].iter_mut().zip(sequence.to_be_bytes()) {
            *n ^= s;
        }
        let mut ciphertext = plaintext.to_vec();
        crate::fuzz::reference_chacha20(
            material[..32].try_into().unwrap(),
            &nonce,
            0,
            &mut ciphertext,
        );
        let mut authenticated = sequence.to_be_bytes().to_vec();
        authenticated.extend_from_slice(&(ciphertext.len() as u32).to_be_bytes());
        authenticated.extend_from_slice(&ciphertext);
        let tag = crate::hmac::tests::reference_hmac(&material[44..], &authenticated);
        let mut record = ((ciphertext.len() + MAC_LEN) as u32).to_be_bytes().to_vec();
        record.extend_from_slice(&ciphertext);
        record.extend_from_slice(&tag);
        record
    }

    /// Same bytes on the wire: for every record size, what the kernels seal
    /// is byte for byte what the reference kernels seal — so either side
    /// opens the other's records — and a stream of reference-sealed records
    /// opens under the kernels.
    #[test]
    fn records_match_the_reference_kernels_at_every_size() {
        let material: [u8; 76] = std::array::from_fn(|i| (i * 37 + 11) as u8);
        let mut sender = SecureChannel::with_keys(&material, &[0; 76]);
        let mut receiver = SecureChannel::with_keys(&[0; 76], &material);
        let (mut sealed, mut opened) = (Vec::new(), Vec::new());
        for (sequence, size) in (0..=MAX_RECORD).step_by(251).enumerate() {
            let plaintext: Vec<u8> = (0..size).map(|i| (i * 7 + sequence) as u8).collect();
            let reference = reference_seal(&material, sequence as u64, &plaintext);
            sealed.clear();
            sender.seal(&plaintext, &mut sealed);
            // An empty `seal` appends no record; the direction does.
            if size == 0 {
                let keys = sender.keys.as_mut().unwrap();
                keys.send.seal(&plaintext, &mut sealed);
            }
            assert_eq!(sealed, reference, "record of {size} bytes");
            opened.clear();
            receiver.feed(&reference, &mut opened).unwrap();
            assert_eq!(opened, plaintext, "record of {size} bytes");
        }
    }

    #[test]
    fn garbage_hello_rejected() {
        let pki = test_pki(7);
        let (mut sock, server_sock) = UnixStream::pair().unwrap();
        let roots = vec![pki.ca.certificate.clone()];
        let cred = pki.server.clone();
        let server = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(1);
            SecureStream::accept(server_sock, &cred, &roots, NOW, &mut rng)
        });
        sock.write_all(&40u32.to_be_bytes()).unwrap();
        sock.write_all(&[0xAB; 40]).unwrap();
        assert!(matches!(
            server.join().unwrap(),
            Err(ChannelError::Handshake(_))
        ));
    }

    #[test]
    fn oversized_handshake_frame_rejected() {
        let pki = test_pki(8);
        let (mut sock, server_sock) = UnixStream::pair().unwrap();
        let roots = vec![pki.ca.certificate.clone()];
        let cred = pki.server.clone();
        let server = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(1);
            SecureStream::accept(server_sock, &cred, &roots, NOW, &mut rng)
        });
        sock.write_all(&(u32::MAX).to_be_bytes()).unwrap();
        assert!(matches!(
            server.join().unwrap(),
            Err(ChannelError::Handshake(_))
        ));
    }
}
