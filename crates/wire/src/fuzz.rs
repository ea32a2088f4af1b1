//! Shared fuzz entry points for the wire decoders.
//!
//! Each function takes raw attacker-controlled bytes and must never panic,
//! abort, or allocate unboundedly — any other outcome is a bug. They are the
//! single source of truth for three harnesses:
//!
//! 1. `fuzz/fuzz_targets/*.rs` — cargo-fuzz/libFuzzer targets (coverage
//!    guided; run where a nightly toolchain and `cargo-fuzz` are available),
//! 2. `repro fuzz` — the in-tree deterministic seeded mutation harness that
//!    CI runs (job `drills`), which needs no extra tooling,
//! 3. `crates/bench/tests/fuzz_smoke.rs` — a short bounded pass of that
//!    harness inside `cargo test` so the entries can never bit-rot.
//!
//! Beyond "don't crash", the entries assert semantic properties: each
//! streaming XML decoder against its tree oracle in [`crate::dom`] (the
//! two must be indistinguishable), and re-encode/re-decode idempotence for
//! the binary frame codec.

use std::fmt::Debug;

use crate::{binary, dom, soap, xmlrpc, WireError};

/// Fuzz the streaming XML decoders against their DOM oracles.
///
/// `xmlrpc::decode_call`, `xmlrpc::decode_response`, `soap::decode_call`
/// and `soap::decode_response` read the XML reader's events with the rules
/// their twins in [`crate::dom`] apply to the tree, so for every input each
/// pair must agree on success/failure and on the decoded value. A
/// divergence means a decoder accepted something the DOM rejects, rejected
/// something it accepts, or decoded it differently.
pub fn xmlrpc_divergence(data: &[u8]) {
    let Ok(text) = std::str::from_utf8(data) else {
        return;
    };
    agree(xmlrpc::decode_call, dom::xmlrpc::decode_call, text);
    agree(xmlrpc::decode_response, dom::xmlrpc::decode_response, text);
    agree(soap::decode_call, dom::soap::decode_call, text);
    agree(soap::decode_response, dom::soap::decode_response, text);
}

type Decoder<T> = fn(&str) -> Result<T, WireError>;

/// Both reject `text`, or both accept it as the same value. A
/// `<double>NaN</double>` decodes unequal to itself, so equal `Debug`
/// forms count as equal.
fn agree<T: PartialEq + Debug>(streamed: Decoder<T>, dom: Decoder<T>, text: &str) {
    let (streamed, dom) = (streamed(text).ok(), dom(text).ok());
    let same = streamed == dom || format!("{streamed:?}") == format!("{dom:?}");
    assert!(same, "decoder and DOM diverge: {streamed:?} vs {dom:?}");
}

/// Fuzz the binary (CBOR) frame decoders.
///
/// Both directions must reject garbage gracefully; anything they *accept*
/// must re-encode to a canonical form that is a byte-level fixpoint:
/// decode → encode → decode → encode yields identical bytes even when the
/// fuzzer found a non-minimal (but legal) encoding. The comparison is on
/// the canonical bytes, not on `Value` equality — a mutated float64
/// payload can be NaN, which round-trips bit-exactly but is `!=` itself.
pub fn binary_frame(data: &[u8]) {
    if let Ok(call) = binary::decode_call(data) {
        let bytes = binary::encode_call(&call);
        let again = binary::decode_call(&bytes).expect("re-encoded call must decode");
        assert_eq!(
            bytes,
            binary::encode_call(&again),
            "binary call canonical encoding is not a fixpoint"
        );
    }
    if let Ok(resp) = binary::decode_response(data) {
        let mut bytes = Vec::new();
        binary::encode_response_into(&resp, &mut bytes);
        let again = binary::decode_response(&bytes).expect("re-encoded response must decode");
        let mut bytes2 = Vec::new();
        binary::encode_response_into(&again, &mut bytes2);
        assert_eq!(
            bytes, bytes2,
            "binary response canonical encoding is not a fixpoint"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, RpcCall, Value};

    #[test]
    fn entries_accept_valid_seeds() {
        let call = RpcCall::new("echo.echo", vec![Value::Int(1), Value::from("x")]);
        for protocol in [Protocol::XmlRpc, Protocol::Soap] {
            xmlrpc_divergence(&crate::encode_call(protocol, &call));
            for response in [
                crate::RpcResponse::Success(Value::from("ok")),
                crate::RpcResponse::Fault(crate::Fault::new(4, "no")),
            ] {
                xmlrpc_divergence(&crate::encode_response(protocol, &response, None));
            }
        }
        binary_frame(&crate::encode_call(Protocol::Binary, &call));
        binary_frame(&crate::encode_response(
            Protocol::Binary,
            &crate::RpcResponse::Success(Value::from("ok")),
            None,
        ));
    }

    /// Fuzz finding, kept as a regression: a mutated float64 payload can
    /// be NaN, which is bit-exact across the round trip but compares
    /// unequal to itself — the property must judge canonical bytes, not
    /// `Value` equality.
    #[test]
    fn nan_double_payload_is_a_fixpoint() {
        binary_frame(&crate::encode_call(
            Protocol::Binary,
            &RpcCall::new("echo.echo", vec![Value::Double(f64::NAN)]),
        ));
        binary_frame(&crate::encode_response(
            Protocol::Binary,
            &crate::RpcResponse::Success(Value::Double(-f64::NAN)),
            None,
        ));
    }

    /// A `<double>NaN</double>` decodes to a NaN on each side of a
    /// comparison, which the property must not count as a divergence.
    #[test]
    fn nan_double_decodes_alike() {
        let value = "<value><double>NaN</double></value>";
        xmlrpc_divergence(
            format!("<methodResponse><params><param>{value}</param></params></methodResponse>")
                .as_bytes(),
        );
        xmlrpc_divergence(
            format!("<Envelope><Body><m><p>{value}</p></m></Body></Envelope>").as_bytes(),
        );
    }

    #[test]
    fn entries_tolerate_garbage() {
        for data in [
            &b""[..],
            &b"\x00\x00\x00\x01\x10"[..],
            &b"<methodCall>"[..],
            &[0xff; 64][..],
        ] {
            xmlrpc_divergence(data);
            binary_frame(data);
        }
    }
}
