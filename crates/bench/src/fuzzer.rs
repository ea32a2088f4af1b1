//! In-tree deterministic mutation fuzzer for the wire, HTTP, WAL and
//! secure-channel decoders, and for the pki kernels.
//!
//! The container this reproduction builds in has no nightly toolchain and
//! no `cargo-fuzz`, so coverage-guided libFuzzer runs happen elsewhere
//! (the targets under `fuzz/fuzz_targets/` call the same entry points).
//! This module is the harness CI actually executes: a seeded
//! corpus-mutation loop in plain stable Rust, reproducible from `--seed`,
//! driving the shared entries in `clarens_wire::fuzz`,
//! `clarens_httpd::fuzz`, `clarens_db::fuzz` and `clarens_pki::fuzz`.
//!
//! The corpus seeds mirror the property-test generators: every protocol's
//! encoder output over a spread of [`Value`] shapes, plus hand-picked
//! valid/malformed HTTP requests, a short write-ahead log and one complete
//! secure-channel handshake. Mutations
//! are the classic byte-level set — bit flips, byte splats, truncation,
//! duplication, cross-splice, random insertion — applied 1-4 times per
//! iteration. A property violation panics inside the entry (decoder vs
//! DOM oracle divergence, round-trip non-idempotence, parser crash), which
//! aborts the harness with a reproducible seed in the message.

use std::time::{Duration, Instant};

use clarens_wire::datetime::DateTime;
use clarens_wire::fault::Fault;
use clarens_wire::{Protocol, RpcCall, RpcResponse, Value};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Which decoder a fuzz run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzTarget {
    /// The streaming XML-RPC and SOAP call and response decoders vs their
    /// DOM oracles in `clarens_wire::dom`.
    XmlrpcDivergence,
    /// The clarens-binary frame/CBOR decoders (+ round-trip idempotence).
    BinaryFrame,
    /// The HTTP/1.1 request parser.
    HttpParser,
    /// The WAL frame reader behind recovery and replication chunks.
    WalFrames,
    /// The secure channel's handshake and record machine.
    SecureRecords,
    /// Montgomery `modpow`, block-wise ChaCha20, MD5 and DN parsing
    /// against their references.
    PkiKernels,
}

impl FuzzTarget {
    /// Every target, in the order CI runs them.
    pub const ALL: [FuzzTarget; 6] = [
        FuzzTarget::XmlrpcDivergence,
        FuzzTarget::BinaryFrame,
        FuzzTarget::HttpParser,
        FuzzTarget::WalFrames,
        FuzzTarget::SecureRecords,
        FuzzTarget::PkiKernels,
    ];

    /// Stable name used on the `repro fuzz` command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            FuzzTarget::XmlrpcDivergence => "xmlrpc-divergence",
            FuzzTarget::BinaryFrame => "binary-frame",
            FuzzTarget::HttpParser => "http-parser",
            FuzzTarget::WalFrames => "wal-frames",
            FuzzTarget::SecureRecords => "secure-records",
            FuzzTarget::PkiKernels => "pki-kernels",
        }
    }

    /// Parse a command-line target name.
    pub fn parse(name: &str) -> Option<FuzzTarget> {
        FuzzTarget::ALL.iter().copied().find(|t| t.name() == name)
    }

    fn entry(self) -> fn(&[u8]) {
        match self {
            FuzzTarget::XmlrpcDivergence => clarens_wire::fuzz::xmlrpc_divergence,
            FuzzTarget::BinaryFrame => clarens_wire::fuzz::binary_frame,
            FuzzTarget::HttpParser => clarens_httpd::fuzz::http_request,
            FuzzTarget::WalFrames => clarens_db::fuzz::wal_frames,
            FuzzTarget::SecureRecords => clarens_pki::fuzz::secure_records,
            FuzzTarget::PkiKernels => clarens_pki::fuzz::pki_kernels,
        }
    }
}

/// Outcome of one fuzz run (reaching this at all means no finding — a
/// property violation panics out of [`run`]).
#[derive(Debug)]
pub struct FuzzReport {
    /// The target driven.
    pub target: FuzzTarget,
    /// Mutated inputs executed.
    pub iterations: u64,
    /// Seed-corpus entries the mutations started from.
    pub corpus: usize,
    /// Wall-clock duration of the loop.
    pub elapsed: Duration,
}

/// A spread of `Value` shapes matching the property-test generators: every
/// scalar variant at boundary points, nesting, and the struct-heavy
/// `file.ls`-style entry the binproto ablation uses.
fn seed_values() -> Vec<Value> {
    vec![
        Value::Nil,
        Value::Bool(true),
        Value::Int(0),
        Value::Int(-1),
        Value::Int(i64::MAX),
        Value::Int(i64::MIN),
        Value::Double(0.0),
        Value::Double(-2.5e10),
        Value::Str("hello & <world> \"quoted\"".into()),
        Value::Str("héllo wörld \u{0416}".into()),
        Value::Bytes((0..=255u8).collect()),
        Value::DateTime(DateTime::new(2005, 6, 15, 14, 8, 55).unwrap()),
        Value::array([Value::Int(1), Value::from("two"), Value::Nil]),
        Value::structure([
            ("name", Value::from("pythia_run7.root")),
            ("size", Value::Int(7 << 30)),
            ("mtime", Value::Int(1_118_845_735)),
            ("is_dir", Value::Bool(false)),
            ("md5", Value::from("d41d8cd98f00b204e9800998ecf8427e")),
        ]),
        Value::array([Value::structure([(
            "nested",
            Value::array([Value::structure([("deep", Value::Int(1))])]),
        )])]),
    ]
}

/// Build the seed corpus for a target.
fn seed_corpus(target: FuzzTarget) -> Vec<Vec<u8>> {
    let mut corpus: Vec<Vec<u8>> = Vec::new();
    let calls: Vec<RpcCall> = seed_values()
        .into_iter()
        .enumerate()
        .map(|(i, v)| RpcCall {
            method: ["echo.echo", "file.ls", "system.list_methods"][i % 3].into(),
            params: vec![v, Value::Int(i as i64)],
            id: (i % 2 == 0).then_some(Value::Int(i as i64)),
        })
        .collect();
    let responses: Vec<RpcResponse> = seed_values()
        .into_iter()
        .map(RpcResponse::Success)
        .chain([RpcResponse::Fault(Fault::new(4, "access denied"))])
        .collect();
    match target {
        FuzzTarget::XmlrpcDivergence => {
            for protocol in [Protocol::XmlRpc, Protocol::Soap] {
                for call in &calls {
                    corpus.push(clarens_wire::encode_call(protocol, call));
                }
                for resp in &responses {
                    corpus.push(clarens_wire::encode_response(protocol, resp, None));
                }
            }
            // Edge-of-grammar snippets the mutator struggles to reach from
            // well-formed documents: constructs no mainstream client emits,
            // which the decoder must still read as the DOM does.
            for snippet in [
                &b"<?xml version=\"1.0\"?><methodCall><methodName>a.b</methodName></methodCall>"[..],
                &b"<methodCall><params><param><value><int>1</int></value></param></params></methodCall>"[..],
                &b"<methodCall><methodName>a</methodName><params></params></methodCall>"[..],
                &b"<methodCall><!-- comment --><methodName><![CDATA[x.y]]></methodName></methodCall>"[..],
                &b"<!DOCTYPE methodCall [<!ELEMENT methodCall ANY>]><x:methodCall xmlns:x=\"urn:x\"><x:methodName>m</x:methodName></x:methodCall>"[..],
                &b"<methodCall a=\"1\"><params><param><value><?pi x?><!-- c --><i4><![CDATA[12]]></i4></value></param></params><methodName>m</methodName></methodCall>"[..],
                &b"<methodCall><junk/><methodName>a</methodName><methodName>b</methodName><params><param><x/><value>1</value><value><i4>x</i4></value></param></params></methodCall>"[..],
                &b"<methodCall><methodName>m</methodName><params><param><value><struct><member><value><i4>1</i4></value><junk/><name>k</name><name>j</name></member></struct></value></param></params></methodCall>"[..],
                &b"<methodCall><methodName>m</methodName><params><param><value><array>a<data>b<value>1</value>c<value><string a=\"b\">x</string></value></data></array></value></param></params></methodCall>"[..],
                // A <fault> after a <params> that does not decode still wins.
                &b"<methodResponse><params><param/></params><fault><value><struct><member><name>faultCode</name><value><i4>4</i4></value></member></struct></value></fault></methodResponse>"[..],
                // SOAP's lenient parameters: bare text is a string, empty is nil.
                &b"<soap:Envelope xmlns:soap=\"urn:s\"><soap:Header/><soap:Body><ns:a_DOT_b xmlns:ns=\"urn:c\"><a>plain</a><b/><c>x<junk/><value><i4>1</i4></value></c></ns:a_DOT_b></soap:Body></soap:Envelope>"[..],
                &b"<Envelope><Body><r><return>plain</return></r></Body></Envelope>"[..],
                &b"<Envelope><Body><r><return/></r></Body></Envelope>"[..],
                &b"<Envelope><Body><Fault><faultstring>a<b/>c</faultstring><faultcode>Client.7</faultcode></Fault></Body></Envelope>"[..],
            ] {
                corpus.push(snippet.to_vec());
            }
            // Arrays nested one level past `xml::MAX_DEPTH`: each adds three
            // elements, so 85 inside a `<param>` is the shallowest rejection.
            corpus.push(
                format!(
                    "<methodCall><methodName>m</methodName><params><param>{}{}</param></params></methodCall>",
                    "<value><array><data>".repeat(85),
                    "</data></array></value>".repeat(85)
                )
                .into_bytes(),
            );
        }
        FuzzTarget::BinaryFrame => {
            for call in &calls {
                corpus.push(clarens_wire::encode_call(Protocol::Binary, call));
            }
            for resp in &responses {
                corpus.push(clarens_wire::encode_response(Protocol::Binary, resp, None));
            }
        }
        FuzzTarget::HttpParser => {
            for req in [
                &b"GET /clarens?session=abc HTTP/1.1\r\nHost: h\r\n\r\n"[..],
                &b"POST /clarens HTTP/1.1\r\nContent-Type: text/xml\r\nContent-Length: 5\r\n\r\nhello"[..],
                &b"POST /clarens HTTP/1.1\r\nContent-Type: application/x-clarens-cbor\r\nContent-Length: 0\r\n\r\n"[..],
                &b"GET /file/data.root HTTP/1.1\r\nRange: bytes=0-1023\r\nConnection: keep-alive\r\n\r\n"[..],
                &b"HEAD / HTTP/1.0\r\n\r\n"[..],
                &b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"[..],
            ] {
                corpus.push(req.to_vec());
            }
        }
        FuzzTarget::WalFrames => {
            use clarens_db::log::{encode_record, LogOp};
            let records: Vec<Vec<u8>> = [
                LogOp::Put {
                    bucket: "sessions".into(),
                    key: "0123abcd".into(),
                    value: br#"{"dn":"/O=Grid/CN=alice","expires":1234567890}"#.to_vec(),
                },
                LogOp::EpochFence { epoch: 2 },
                LogOp::Delete {
                    bucket: "sessions".into(),
                    key: "0123abcd".into(),
                },
                LogOp::Put {
                    bucket: "vo".into(),
                    key: String::new(),
                    value: Vec::new(),
                },
            ]
            .iter()
            .map(encode_record)
            .collect();
            // Each record alone, then the whole log for the mutator's
            // truncations and slice removals to tear.
            corpus.extend(records.iter().cloned());
            corpus.push(records.concat());
        }
        FuzzTarget::SecureRecords => {
            // A transcript the entry's accepting end completes (mutations
            // of it reach the key exchange and the first record), a lone
            // hello, and short plaintexts for the sealed-stream half.
            let transcript = clarens_pki::fuzz::handshake_transcript();
            corpus.push(transcript[..44].to_vec());
            corpus.push(transcript);
            corpus.push(b"GET /clarens HTTP/1.1\r\nHost: h\r\n\r\n".to_vec());
            corpus.push(vec![0xA5; 3 * 1024]);
        }
        FuzzTarget::PkiKernels => {
            // Layout: three length bytes, base, exponent, modulus, then
            // key, nonce, counter and plaintext (ciphered and hashed; see
            // the entry). An
            // RSA-half-sized odd modulus under a full-window exponent and a
            // double-width base; an even modulus; a 17-limb one under a
            // short exponent; and a block counter that wraps mid-message.
            let operands = |base: u8, exponent: u8, modulus: u8, fill: u8| {
                let mut input = vec![base, exponent, modulus];
                let len = base as usize % 128 * 17 / 8 + exponent as usize + modulus as usize;
                input.extend((0..len).map(|i| fill.wrapping_mul(i as u8 | 1).wrapping_add(i as u8)));
                input
            };
            corpus.push(operands(30, 16, 32, 0x6D));
            corpus.push(operands(0x80 | 15, 16, 32, 0x42));
            corpus.push(operands(64, 3, 136, 0xB7));
            let mut wrapping = operands(4, 2, 8, 0x11);
            wrapping.extend_from_slice(&[0x5C; 32 + 12]);
            wrapping.extend_from_slice(&(u32::MAX - 1).to_le_bytes());
            wrapping.extend((0..400u32).map(|i| (i % 253) as u8));
            corpus.push(wrapping);
            // DN text for the DN leg, which reads the input's UTF-8 prefix.
            for dn in [
                "/O=doesciencegrid.org/OU=Services/CN=host\\/www.mysite.edu",
                "/DC=org/DC=doegrids/OU=People/CN=Joe User/emailAddress=joe@x\\=y",
                "/CN=a\\\\b/uid=é€中 x/C=\\\\",
            ] {
                corpus.push(dn.as_bytes().to_vec());
            }
        }
    }
    corpus
}

/// Apply one random mutation to `data` in place.
fn mutate(data: &mut Vec<u8>, rng: &mut StdRng) {
    // Mutating an empty input can only insert.
    let op = if data.is_empty() {
        5
    } else {
        rng.next_u64() % 6
    };
    match op {
        // Bit flip.
        0 => {
            let i = (rng.next_u64() as usize) % data.len();
            data[i] ^= 1 << (rng.next_u64() % 8);
        }
        // Byte splat.
        1 => {
            let i = (rng.next_u64() as usize) % data.len();
            data[i] = rng.next_u64() as u8;
        }
        // Truncate.
        2 => {
            let keep = (rng.next_u64() as usize) % (data.len() + 1);
            data.truncate(keep);
        }
        // Duplicate a slice onto the end (grows length fields out of sync).
        3 => {
            let start = (rng.next_u64() as usize) % data.len();
            let len = ((rng.next_u64() as usize) % (data.len() - start)).min(64);
            let slice = data[start..start + len].to_vec();
            data.extend_from_slice(&slice);
        }
        // Remove an interior slice.
        4 => {
            let start = (rng.next_u64() as usize) % data.len();
            let len = (rng.next_u64() as usize) % (data.len() - start);
            data.drain(start..start + len);
        }
        // Insert random bytes.
        _ => {
            let at = (rng.next_u64() as usize) % (data.len() + 1);
            let n = 1 + (rng.next_u64() as usize) % 8;
            let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            data.splice(at..at, bytes);
        }
    }
}

/// Fuzz `target` for `duration`, deterministically from `seed`. Panics
/// (with the violating input's provenance in the entry's message) on any
/// property violation; returns iteration statistics otherwise.
pub fn run(target: FuzzTarget, seed: u64, duration: Duration) -> FuzzReport {
    let corpus = seed_corpus(target);
    let entry = target.entry();
    // Every seed must pass unmutated — a failure here is a codec bug, not
    // a fuzz finding.
    for input in &corpus {
        entry(input);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    let mut iterations = 0u64;
    while t0.elapsed() < duration {
        // Check the clock once per batch, not per input.
        for _ in 0..512 {
            let base = (rng.next_u64() as usize) % corpus.len();
            let mut input = corpus[base].clone();
            let rounds = 1 + rng.next_u64() % 4;
            for _ in 0..rounds {
                mutate(&mut input, &mut rng);
            }
            entry(&input);
            iterations += 1;
        }
    }
    FuzzReport {
        target,
        iterations,
        corpus: corpus.len(),
        elapsed: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_names_parse() {
        for target in FuzzTarget::ALL {
            assert_eq!(FuzzTarget::parse(target.name()), Some(target));
        }
        assert_eq!(FuzzTarget::parse("nope"), None);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(FuzzTarget::BinaryFrame, 7, Duration::from_millis(120));
        let b = run(FuzzTarget::BinaryFrame, 7, Duration::from_millis(120));
        // Same seed, same corpus: iteration counts may differ by timing,
        // but both must complete without findings (the property asserted
        // inside the entries).
        assert!(a.iterations > 0 && b.iterations > 0);
    }
}
