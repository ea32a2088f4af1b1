//! Byte-identity property tests for the streaming encoders.
//!
//! The allocation-lean `encode_response_into` paths and the call encoders
//! must emit exactly the bytes the DOM/`to_string` reference encoders of
//! `clarens_wire::dom` emit — same escaping, same
//! empty-element forms (`<string></string>` vs `<nil/>`), same double
//! formatting, same JSON key order. Any divergence is a wire-compatibility
//! bug, so the corpus covers every `Value` variant including nested
//! structs/arrays, non-ASCII strings, and the degenerate empties.

mod common;

use clarens_search::{search, Rng};

use clarens_wire::{Fault, Protocol, RpcCall, RpcResponse, Value};
use common::{response, uniform, value, wire_string};

/// Check property `test` of this file on seeds `0..64`; seed `n` is its
/// case `n`, replayed alone by `SEARCH_SEED=<n>`.
fn property(test: &str, check: impl Fn(&mut Rng) + Sync) {
    let name = format!("clarens-wire --test stream_identity -- --exact {test}");
    search(&name, 0..64, |seed| {
        check(&mut Rng::new(seed));
        Ok(())
    });
}

/// Doubles for identity testing: unlike the round-trip tests this may
/// include values whose text form is ugly — we only compare encoder output
/// against encoder output, so anything finite goes, plus the non-finite
/// specials both paths must map to the same placeholder.
fn identity_double(rng: &mut Rng) -> f64 {
    match rng.below(10) {
        0 => uniform(rng, -1e300, 1e300),
        1 => uniform(rng, -1e12, 1e12),
        2 => uniform(rng, -1.0, 1.0) * 1e-12,
        3 => f64::NAN,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        6 => 0.0,
        7 => -0.0,
        8 => 1.0e-9,
        _ => 3.0,
    }
}

fn id(rng: &mut Rng) -> Option<Value> {
    match rng.below(4) {
        0 => None,
        1 => Some(Value::Int(rng.next_u64() as i64)),
        2 => Some(Value::Str(wire_string(rng))),
        _ => Some(Value::Nil),
    }
}

/// Calls with any method text (the SOAP operation name is written raw
/// by both encoders), any parameters, and every id shape.
fn call(rng: &mut Rng) -> RpcCall {
    let method = wire_string(rng);
    let params = (0..rng.below(4))
        .map(|_| value(rng, identity_double, 7))
        .collect();
    RpcCall {
        method,
        params,
        id: id(rng),
    }
}

/// The per-protocol DOM (or `Value`-tree) call encoder: the reference.
fn call_reference(protocol: Protocol, call: &RpcCall) -> Vec<u8> {
    match protocol {
        Protocol::XmlRpc => clarens_wire::dom::xmlrpc::encode_call(call).into_bytes(),
        Protocol::Soap => clarens_wire::dom::soap::encode_call(call).into_bytes(),
        Protocol::JsonRpc => clarens_wire::dom::jsonrpc::encode_call(call).into_bytes(),
        Protocol::Binary => unreachable!("clarens-binary has one encoder"),
    }
}

/// The per-protocol DOM (or `Value`-tree) encoder: the reference.
fn reference(protocol: Protocol, response: &RpcResponse, id: Option<&Value>) -> Vec<u8> {
    match protocol {
        Protocol::XmlRpc => clarens_wire::dom::xmlrpc::encode_response(response).into_bytes(),
        Protocol::Soap => clarens_wire::dom::soap::encode_response(response).into_bytes(),
        Protocol::JsonRpc => clarens_wire::dom::jsonrpc::encode_response(response, id).into_bytes(),
        Protocol::Binary => unreachable!("clarens-binary has one encoder"),
    }
}

fn streamed(protocol: Protocol, response: &RpcResponse, id: Option<&Value>) -> Vec<u8> {
    let mut out = Vec::new();
    clarens_wire::encode_response_into(protocol, response, id, &mut out);
    out
}

#[test]
fn xmlrpc_stream_matches_dom() {
    property("xmlrpc_stream_matches_dom", |rng| {
        let resp = response(rng, identity_double);
        let dom = clarens_wire::dom::xmlrpc::encode_response(&resp).into_bytes();
        assert_eq!(streamed(Protocol::XmlRpc, &resp, None), dom);
    });
}

#[test]
fn soap_stream_matches_dom() {
    property("soap_stream_matches_dom", |rng| {
        let resp = response(rng, identity_double);
        let dom = clarens_wire::dom::soap::encode_response(&resp).into_bytes();
        assert_eq!(streamed(Protocol::Soap, &resp, None), dom);
    });
}

#[test]
fn jsonrpc_stream_matches_reference() {
    property("jsonrpc_stream_matches_reference", |rng| {
        let (resp, id) = (response(rng, identity_double), id(rng));
        let reference =
            clarens_wire::dom::jsonrpc::encode_response(&resp, id.as_ref()).into_bytes();
        assert_eq!(streamed(Protocol::JsonRpc, &resp, id.as_ref()), reference);
    });
}

#[test]
fn dispatcher_matches_dom_for_all_protocols() {
    property("dispatcher_matches_dom_for_all_protocols", |rng| {
        let resp = response(rng, identity_double);
        for proto in [Protocol::XmlRpc, Protocol::Soap, Protocol::JsonRpc] {
            let dispatched = clarens_wire::encode_response(proto, &resp, None);
            assert_eq!(dispatched, reference(proto, &resp, None));
        }
    });
}

#[test]
fn streaming_appends_after_existing_bytes() {
    property("streaming_appends_after_existing_bytes", |rng| {
        // Recycled buffers arrive cleared but the contract is "append":
        // pre-existing content must be preserved untouched.
        let resp = RpcResponse::Success(value(rng, identity_double, 7));
        let mut out = b"PREFIX".to_vec();
        clarens_wire::encode_response_into(Protocol::XmlRpc, &resp, None, &mut out);
        assert_eq!(&out[..6], b"PREFIX");
        let dom = clarens_wire::dom::xmlrpc::encode_response(&resp).into_bytes();
        assert_eq!(&out[6..], &dom[..]);
    });
}

#[test]
fn call_encoders_match_dom() {
    property("call_encoders_match_dom", |rng| {
        let call = call(rng);
        for proto in [Protocol::XmlRpc, Protocol::Soap, Protocol::JsonRpc] {
            assert_eq!(
                clarens_wire::encode_call(proto, &call),
                call_reference(proto, &call),
                "{:?}",
                proto
            );
        }
    });
}

/// Calls the strategy may under-sample: no parameters (`<params/>` and a
/// self-closing SOAP operation), an empty method, escapes in the method.
#[test]
fn call_edge_cases_match_dom() {
    let calls = [
        RpcCall::new("system.list_methods", vec![]),
        RpcCall::new("", vec![Value::Str(String::new())]),
        RpcCall::new("a<b>&c\u{1}", vec![Value::Array(Vec::new())]),
        RpcCall {
            method: "echo.echo".into(),
            params: vec![Value::from("hello")],
            id: Some(Value::from("q")),
        },
    ];
    for call in &calls {
        for proto in [Protocol::XmlRpc, Protocol::Soap, Protocol::JsonRpc] {
            assert_eq!(
                clarens_wire::encode_call(proto, call),
                call_reference(proto, call),
                "{proto:?} {call:?}"
            );
        }
    }
}

/// Deterministic edge cases the strategies may under-sample: empty
/// containers render as self-closing elements while empty strings do not.
#[test]
fn empty_forms_match_dom() {
    let cases = [
        Value::Str(String::new()),
        Value::Bytes(Vec::new()),
        Value::Array(Vec::new()),
        Value::Struct(Default::default()),
        Value::array([Value::Array(Vec::new()), Value::Str(String::new())]),
        Value::structure([("", Value::Nil)]),
    ];
    for v in cases {
        let resp = RpcResponse::Success(v);
        for proto in [Protocol::XmlRpc, Protocol::Soap, Protocol::JsonRpc] {
            assert_eq!(
                streamed(proto, &resp, None),
                reference(proto, &resp, None),
                "{proto:?}"
            );
        }
    }
    // Sanity-check the exact empty forms (documents the invariant the
    // streaming encoder hardcodes).
    let doc = String::from_utf8(streamed(
        Protocol::XmlRpc,
        &RpcResponse::Success(Value::array([
            Value::Str(String::new()),
            Value::Array(Vec::new()),
            Value::Struct(Default::default()),
        ])),
        None,
    ))
    .unwrap();
    assert!(doc.contains("<string></string>"), "{doc}");
    assert!(doc.contains("<array><data/></array>"), "{doc}");
    assert!(doc.contains("<struct/>"), "{doc}");
}

#[test]
fn fault_with_empty_message_matches() {
    let resp = RpcResponse::Fault(Fault::new(0, ""));
    for proto in [Protocol::XmlRpc, Protocol::Soap, Protocol::JsonRpc] {
        assert_eq!(
            streamed(proto, &resp, None),
            reference(proto, &resp, None),
            "{proto:?}"
        );
    }
}

#[test]
fn int_width_boundaries_match() {
    for i in [
        0,
        i64::from(i32::MAX),
        i64::from(i32::MAX) + 1,
        i64::from(i32::MIN),
        i64::from(i32::MIN) - 1,
        i64::MAX,
        i64::MIN,
    ] {
        let resp = RpcResponse::Success(Value::Int(i));
        assert_eq!(
            streamed(Protocol::XmlRpc, &resp, None),
            reference(Protocol::XmlRpc, &resp, None),
            "{i}"
        );
    }
}

#[test]
fn control_chars_escape_identically() {
    // XML numeric references and JSON \u escapes, byte-wise vs char-wise.
    let s = Value::Str("\u{01}a\u{1f}\u{7f}\nok\t".into());
    let resp = RpcResponse::Success(s);
    for proto in [Protocol::XmlRpc, Protocol::Soap, Protocol::JsonRpc] {
        assert_eq!(
            streamed(proto, &resp, None),
            reference(proto, &resp, None),
            "{proto:?}"
        );
    }
}
