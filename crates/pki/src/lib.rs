//! # clarens-pki — a from-scratch PKI substrate for the Clarens reproduction
//!
//! The Clarens framework (van Lingen et al., ICPPW 2005) rests on
//! "SSL/TLS (RFC 2246) encryption and X509 (RFC 3280) certificate-based
//! authentication". This crate rebuilds the pieces of that stack the
//! framework actually depends on, with no external crypto dependencies:
//!
//! * [`bigint`] — multi-precision arithmetic (Knuth division, Montgomery
//!   exponentiation, Miller–Rabin),
//! * [`sha256`], [`md5`], [`hmac`] — digest and MAC primitives with official
//!   test vectors,
//! * [`chacha20`] — the record cipher for the secure channel,
//! * [`keystream`] — a per-thread ChaCha20 keystream that session ids are
//!   cut from,
//! * [`rsa`] — key generation, PKCS#1 v1.5 signing and encryption with CRT,
//! * [`dn`] — slash-form distinguished names with the prefix-matching rule
//!   VO management uses,
//! * [`cert`] — certificates, CAs, *proxy certificates* with delegation
//!   chains (paper §2.6),
//! * [`channel`] — a miniature mutually-authenticated TLS-like transport:
//!   [`channel::SecureChannel`] is the handshake and record protocol as a
//!   state machine that owns no socket, [`channel::SecureStream`] the
//!   blocking `Read`/`Write` adapter over it.
//!
//! ## Security disclaimer
//!
//! This is a **simulation** of the paper's security stack, built so the
//! reproduction exercises the same code paths (handshakes, per-byte record
//! crypto, chain validation) with the same cost structure. It is neither
//! constant-time nor side-channel hardened, and defaults to short RSA keys
//! for test speed. Do not use it to protect real data.

pub mod bigint;
pub mod cert;
pub mod chacha20;
pub mod channel;
pub mod dn;
pub mod fuzz;
pub mod hmac;
pub mod keystream;
pub mod md5;
pub mod pem;
pub mod rsa;
pub mod sha256;

pub use cert::{CertKind, Certificate, CertificateAuthority, Credential};
pub use channel::{ChannelError, SecureChannel, SecureStream};
pub use dn::DistinguishedName;
