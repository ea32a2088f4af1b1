//! Byte-identity property tests for the streaming encoders.
//!
//! The allocation-lean `encode_response_into` paths and the call encoders
//! must emit exactly the bytes the DOM/`to_string` reference encoders of
//! `clarens_wire::dom` emit — same escaping, same
//! empty-element forms (`<string></string>` vs `<nil/>`), same double
//! formatting, same JSON key order. Any divergence is a wire-compatibility
//! bug, so the corpus covers every `Value` variant including nested
//! structs/arrays, non-ASCII strings, and the degenerate empties.

use proptest::prelude::*;

use clarens_wire::datetime::DateTime;
use clarens_wire::{Fault, Protocol, RpcCall, RpcResponse, Value};

/// Strings valid in all our codecs (see `proptests.rs`); includes multibyte
/// UTF-8 (Latin-1 supplement + Cyrillic) and XML-special characters.
fn wire_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range(' ', '~'),
            Just('\n'),
            Just('\t'),
            proptest::char::range('¡', 'ÿ'),
            proptest::char::range('А', 'я'),
        ],
        0..24,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn datetime_strategy() -> impl Strategy<Value = DateTime> {
    (1970i32..2100, 1u8..=12, 1u8..=28, 0u8..24, 0u8..60, 0u8..60)
        .prop_map(|(y, mo, d, h, mi, s)| DateTime::new(y, mo, d, h, mi, s).unwrap())
}

/// Doubles for identity testing: unlike the round-trip tests this may
/// include values whose text form is ugly — we only compare encoder output
/// against encoder output, so anything finite goes, plus the non-finite
/// specials both paths must map to the same placeholder.
fn identity_double() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1e300f64..1e300).prop_filter("finite", |d| d.is_finite()),
        (-1e12f64..1e12).prop_filter("finite", |d| d.is_finite()),
        (-1.0f64..1.0).prop_map(|d| d * 1e-12),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        Just(-0.0),
        Just(1.0e-9),
        Just(3.0),
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Nil),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        identity_double().prop_map(Value::Double),
        wire_string().prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        datetime_strategy().prop_map(Value::DateTime),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            proptest::collection::btree_map(wire_string(), inner, 0..4).prop_map(Value::Struct),
        ]
    })
}

fn response_strategy() -> impl Strategy<Value = RpcResponse> {
    prop_oneof![
        value_strategy().prop_map(RpcResponse::Success),
        (any::<i64>(), wire_string())
            .prop_map(|(code, msg)| RpcResponse::Fault(Fault::new(code, msg))),
    ]
}

fn id_strategy() -> impl Strategy<Value = Option<Value>> {
    prop_oneof![
        Just(None),
        any::<i64>().prop_map(|i| Some(Value::Int(i))),
        wire_string().prop_map(|s| Some(Value::Str(s))),
        Just(Some(Value::Nil)),
    ]
}

/// Calls with any method text (the SOAP operation name is written raw
/// by both encoders), any parameters, and every id shape.
fn call_strategy() -> impl Strategy<Value = RpcCall> {
    (
        wire_string(),
        proptest::collection::vec(value_strategy(), 0..4),
        id_strategy(),
    )
        .prop_map(|(method, params, id)| RpcCall { method, params, id })
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

proptest! {
    #[test]
    fn xmlrpc_stream_matches_dom(resp in response_strategy()) {
        let dom = clarens_wire::dom::xmlrpc::encode_response(&resp).into_bytes();
        prop_assert_eq!(streamed(Protocol::XmlRpc, &resp, None), dom);
    }

    #[test]
    fn soap_stream_matches_dom(resp in response_strategy()) {
        let dom = clarens_wire::dom::soap::encode_response(&resp).into_bytes();
        prop_assert_eq!(streamed(Protocol::Soap, &resp, None), dom);
    }

    #[test]
    fn jsonrpc_stream_matches_reference(resp in response_strategy(), id in id_strategy()) {
        let reference = clarens_wire::dom::jsonrpc::encode_response(&resp, id.as_ref()).into_bytes();
        prop_assert_eq!(streamed(Protocol::JsonRpc, &resp, id.as_ref()), reference);
    }

    #[test]
    fn dispatcher_matches_dom_for_all_protocols(resp in response_strategy()) {
        for proto in [Protocol::XmlRpc, Protocol::Soap, Protocol::JsonRpc] {
            let dispatched = clarens_wire::encode_response(proto, &resp, None);
            prop_assert_eq!(dispatched, reference(proto, &resp, None));
        }
    }

    #[test]
    fn streaming_appends_after_existing_bytes(v in value_strategy()) {
        // Recycled buffers arrive cleared but the contract is "append":
        // pre-existing content must be preserved untouched.
        let resp = RpcResponse::Success(v);
        let mut out = b"PREFIX".to_vec();
        clarens_wire::encode_response_into(Protocol::XmlRpc, &resp, None, &mut out);
        prop_assert_eq!(&out[..6], b"PREFIX");
        let dom = clarens_wire::dom::xmlrpc::encode_response(&resp).into_bytes();
        prop_assert_eq!(&out[6..], &dom[..]);
    }
}

proptest! {
    #[test]
    fn call_encoders_match_dom(call in call_strategy()) {
        for proto in [Protocol::XmlRpc, Protocol::Soap, Protocol::JsonRpc] {
            prop_assert_eq!(
                clarens_wire::encode_call(proto, &call),
                call_reference(proto, &call),
                "{:?}",
                proto
            );
        }
    }
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
