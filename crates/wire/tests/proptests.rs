//! Property-based round-trip tests for the wire codecs.
//!
//! Strategy: generate arbitrary [`Value`] trees and assert that every
//! protocol encoder/decoder pair is the identity on them, and that the
//! byte-level codecs (base64, percent) round-trip arbitrary byte strings.

use proptest::prelude::*;

use clarens_wire::datetime::DateTime;
use clarens_wire::{base64, json, percent, Protocol, RpcCall, RpcResponse, Value};

/// Strategy for strings that are valid in all our codecs (XML 1.0 cannot
/// carry arbitrary control characters even escaped — the parser rejects
/// NUL — so keep to printable + common whitespace; coverage for control
/// characters is in the unit tests).
fn wire_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range(' ', '~'),
            Just('\n'),
            Just('\t'),
            proptest::char::range('¡', 'ÿ'),
            proptest::char::range('А', 'я'), // Cyrillic block exercises multibyte UTF-8
        ],
        0..24,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn datetime_strategy() -> impl Strategy<Value = DateTime> {
    (1970i32..2100, 1u8..=12, 1u8..=28, 0u8..24, 0u8..60, 0u8..60)
        .prop_map(|(y, mo, d, h, mi, s)| DateTime::new(y, mo, d, h, mi, s).unwrap())
}

/// Doubles that survive text round-trips exactly (finite, no signed zero
/// ambiguity concerns for equality).
fn wire_double() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1e12f64..1e12).prop_filter("finite", |d| d.is_finite()),
        Just(0.0),
        Just(-2.5),
        Just(1.0e-9),
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Nil),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        wire_double().prop_map(Value::Double),
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

/// JSON cannot represent Bytes/DateTime distinctly; restrict to the JSON
/// image of the algebra for the JSON round-trip test.
fn json_value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Nil),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        wire_double().prop_map(Value::Double),
        wire_string().prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            proptest::collection::btree_map(wire_string(), inner, 0..4).prop_map(Value::Struct),
        ]
    })
}

/// Successes over the whole algebra, and faults.
fn response_strategy() -> impl Strategy<Value = RpcResponse> {
    prop_oneof![
        value_strategy().prop_map(RpcResponse::Success),
        (any::<i64>(), wire_string()).prop_map(|(code, message)| RpcResponse::Fault(
            clarens_wire::Fault::new(code, message)
        )),
    ]
}

fn method_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}(\\.[a-z][a-z0-9_]{0,8}){0,2}"
}

/// `doc` (canonical `encode_call` output) decorated where `mask` says: a
/// prefix on the root, and at each tag an attribute, a comment before it,
/// or its preceding text re-written as a CDATA section.
fn decorate(doc: &str, mask: u64) -> String {
    let on = |i: usize, kind: usize| mask.rotate_right((3 * i + kind) as u32 % 64) & 1 == 1;
    let doc = if mask >> 63 == 1 {
        doc.replace("<methodCall>", "<p:methodCall xmlns:p=\"urn:p\">")
            .replace("</methodCall>", "</p:methodCall>")
    } else {
        doc.to_owned()
    };
    let mut out = String::new();
    let mut rest = doc.as_str();
    for i in 0.. {
        let Some(lt) = rest.find('<') else { break };
        let text = &rest[..lt];
        let raw = text
            .replace("&lt;", "<")
            .replace("&gt;", ">")
            .replace("&amp;", "&");
        if !text.trim().is_empty() && on(i, 0) && !raw.contains("]]>") {
            out.push_str(&format!("<![CDATA[{raw}]]>"));
        } else {
            out.push_str(text);
        }
        if on(i, 1) {
            out.push_str("<!-- c -->");
        }
        let gt = lt + rest[lt..].find('>').expect("tags close");
        let tag = &rest[lt..=gt];
        let start = !tag.starts_with("</") && !tag.starts_with("<?");
        if start && on(i, 2) {
            let name_end = tag.find(['/', '>', ' ']).expect("tags close");
            out.push_str(&tag[..name_end]);
            out.push_str(" a=\"x &amp; y\"");
            out.push_str(&tag[name_end..]);
        } else {
            out.push_str(tag);
        }
        rest = &rest[gt + 1..];
    }
    out.push_str(rest);
    out
}

proptest! {
    #[test]
    fn base64_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let encoded = base64::encode(&data);
        prop_assert_eq!(base64::decode(&encoded).unwrap(), data);
    }

    #[test]
    fn percent_roundtrip(s in wire_string()) {
        prop_assert_eq!(percent::decode_str(&percent::encode(&s)), s);
    }

    #[test]
    fn json_roundtrip(v in json_value_strategy()) {
        let text = json::to_string(&v);
        prop_assert_eq!(json::parse(&text).unwrap(), v);
    }

    #[test]
    fn json_pretty_roundtrip(v in json_value_strategy()) {
        let text = json::to_string_pretty(&v);
        prop_assert_eq!(json::parse(&text).unwrap(), v);
    }

    #[test]
    fn xmlrpc_call_roundtrip(
        method in method_name(),
        params in proptest::collection::vec(value_strategy(), 0..4),
    ) {
        let call = RpcCall::new(method, params);
        let doc = clarens_wire::xmlrpc::encode_call(&call);
        prop_assert_eq!(clarens_wire::xmlrpc::decode_call(&doc).unwrap(), call);
    }

    /// The streaming call decoder and the DOM oracle agree on every
    /// document our encoder emits.
    #[test]
    fn xmlrpc_call_decoder_matches_dom(
        method in method_name(),
        params in proptest::collection::vec(value_strategy(), 0..4),
    ) {
        let call = RpcCall::new(method, params);
        let doc = clarens_wire::xmlrpc::encode_call(&call);
        prop_assert_eq!(
            clarens_wire::xmlrpc::decode_call(&doc).unwrap(),
            clarens_wire::dom::xmlrpc::decode_call(&doc).unwrap()
        );
    }

    /// ... and on those documents decorated as other clients might write
    /// them, which still mean the same call.
    #[test]
    fn xmlrpc_decorated_call_decodes_as_dom(
        method in method_name(),
        params in proptest::collection::vec(value_strategy(), 0..4),
        mask in any::<u64>(),
    ) {
        let call = RpcCall::new(method, params);
        let doc = decorate(&clarens_wire::xmlrpc::encode_call(&call), mask);
        let decoded = clarens_wire::xmlrpc::decode_call(&doc);
        prop_assert_eq!(&decoded, &clarens_wire::dom::xmlrpc::decode_call(&doc), "{}", doc);
        prop_assert_eq!(decoded.unwrap(), call);
    }

    /// The streaming response decoder and the DOM oracle agree on
    /// canonical responses, successes and faults, decorated the same way
    /// (the prefix goes on `<methodResponse>`).
    #[test]
    fn xmlrpc_decorated_response_decodes_as_dom(
        resp in response_strategy(),
        mask in any::<u64>(),
    ) {
        let doc = String::from_utf8(clarens_wire::encode_response(Protocol::XmlRpc, &resp, None))
            .unwrap();
        let doc = if mask >> 63 == 1 {
            doc.replace("<methodResponse>", "<p:methodResponse xmlns:p=\"urn:p\">")
                .replace("</methodResponse>", "</p:methodResponse>")
        } else {
            doc
        };
        let doc = decorate(&doc, mask);
        let decoded = clarens_wire::xmlrpc::decode_response(&doc);
        prop_assert_eq!(&decoded, &clarens_wire::dom::xmlrpc::decode_response(&doc), "{}", doc);
        prop_assert_eq!(decoded.unwrap(), resp);
    }

    /// The streaming SOAP decoders and their DOM oracles agree on decorated
    /// canonical call and response envelopes, which mean what they did.
    #[test]
    fn soap_decorated_envelopes_decode_as_dom(
        method in method_name(),
        params in proptest::collection::vec(value_strategy(), 0..4),
        resp in response_strategy(),
        mask in any::<u64>(),
    ) {
        let call = RpcCall::new(method, params);
        let doc = decorate(&clarens_wire::soap::encode_call(&call), mask);
        let decoded = clarens_wire::soap::decode_call(&doc);
        prop_assert_eq!(&decoded, &clarens_wire::dom::soap::decode_call(&doc), "{}", doc);
        prop_assert_eq!(decoded.unwrap(), call);
        let doc = String::from_utf8(clarens_wire::encode_response(Protocol::Soap, &resp, None))
            .unwrap();
        let doc = decorate(&doc, mask.rotate_left(17));
        let decoded = clarens_wire::soap::decode_response(&doc);
        prop_assert_eq!(&decoded, &clarens_wire::dom::soap::decode_response(&doc), "{}", doc);
        prop_assert_eq!(decoded.unwrap(), resp);
    }

    #[test]
    fn xmlrpc_response_roundtrip(v in value_strategy()) {
        let resp = RpcResponse::Success(v);
        let doc = clarens_wire::dom::xmlrpc::encode_response(&resp);
        prop_assert_eq!(clarens_wire::xmlrpc::decode_response(&doc).unwrap(), resp);
    }

    #[test]
    fn soap_call_roundtrip(
        method in method_name(),
        params in proptest::collection::vec(value_strategy(), 0..4),
    ) {
        let call = RpcCall::new(method, params);
        let doc = clarens_wire::soap::encode_call(&call);
        prop_assert_eq!(clarens_wire::soap::decode_call(&doc).unwrap(), call);
    }

    #[test]
    fn jsonrpc_call_roundtrip(
        method in method_name(),
        params in proptest::collection::vec(json_value_strategy(), 0..4),
    ) {
        let call = RpcCall { method, params, id: Some(Value::Int(3)) };
        let text = clarens_wire::jsonrpc::encode_call(&call);
        prop_assert_eq!(clarens_wire::jsonrpc::decode_call(&text).unwrap(), call);
    }

    #[test]
    fn protocol_generic_roundtrip(
        method in method_name(),
        params in proptest::collection::vec(json_value_strategy(), 0..3),
    ) {
        // The JSON-compatible subset must round-trip through *every* protocol
        // and be correctly sniffed.
        let call = RpcCall { method, params, id: Some(Value::Int(1)) };
        for proto in [
            Protocol::XmlRpc,
            Protocol::Soap,
            Protocol::JsonRpc,
            Protocol::Binary,
        ] {
            let bytes = clarens_wire::encode_call(proto, &call);
            prop_assert_eq!(Protocol::sniff(&bytes), Some(proto));
            let back = clarens_wire::decode_call(proto, &bytes).unwrap();
            prop_assert_eq!(&back.method, &call.method);
            prop_assert_eq!(&back.params, &call.params);
        }
    }

    #[test]
    fn binary_call_roundtrip(
        method in method_name(),
        params in proptest::collection::vec(value_strategy(), 0..4),
    ) {
        let call = RpcCall::new(method, params);
        let bytes = clarens_wire::binary::encode_call(&call);
        prop_assert_eq!(Protocol::sniff(&bytes), Some(Protocol::Binary));
        prop_assert_eq!(clarens_wire::binary::decode_call(&bytes).unwrap(), call);
        // The zero-copy view agrees with the owned decode.
        let view = clarens_wire::binary::decode_call_view(&bytes).unwrap();
        prop_assert_eq!(view.method, call.method.as_str());
        prop_assert_eq!(&view.params, &call.params);
    }

    /// Value-model equivalence against the XML-RPC DOM: the same `Value`
    /// pushed through the binary codec and through the DOM reference codec
    /// must come back as the same `Value` — the binary protocol is a
    /// different wire image of the *same* algebra, not a dialect.
    #[test]
    fn binary_response_equivalent_to_xmlrpc_dom(v in value_strategy()) {
        let resp = RpcResponse::Success(v);
        let bin = clarens_wire::binary::encode_response(&resp);
        let via_binary = clarens_wire::binary::decode_response(&bin).unwrap();
        let xml = clarens_wire::dom::xmlrpc::encode_response(&resp);
        let via_dom = clarens_wire::dom::xmlrpc::decode_response(&xml).unwrap();
        prop_assert_eq!(&via_binary, &via_dom);
        prop_assert_eq!(&via_binary, &resp);
    }

    #[test]
    fn binary_call_equivalent_to_xmlrpc_dom(
        method in method_name(),
        params in proptest::collection::vec(value_strategy(), 0..4),
    ) {
        let call = RpcCall::new(method, params);
        let via_binary =
            clarens_wire::binary::decode_call(&clarens_wire::binary::encode_call(&call)).unwrap();
        let via_dom = clarens_wire::dom::xmlrpc::decode_call(
            &clarens_wire::dom::xmlrpc::encode_call(&call),
        ).unwrap();
        prop_assert_eq!(via_binary, via_dom);
    }

    #[test]
    fn binary_fault_roundtrip(code in -1000i64..1000, message in wire_string()) {
        let resp = RpcResponse::Fault(clarens_wire::Fault::new(code, message));
        let bytes = clarens_wire::binary::encode_response(&resp);
        prop_assert_eq!(clarens_wire::binary::decode_response(&bytes).unwrap(), resp);
    }

    #[test]
    fn binary_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = clarens_wire::binary::decode_call(&data);
        let _ = clarens_wire::binary::decode_response(&data);
    }

    #[test]
    fn json_parser_never_panics(s in "\\PC{0,64}") {
        let _ = json::parse(&s);
    }

    #[test]
    fn xml_parser_never_panics(s in "\\PC{0,64}") {
        let _ = clarens_wire::dom::parse(&s);
    }

    #[test]
    fn base64_decoder_never_panics(s in "\\PC{0,64}") {
        let _ = base64::decode(&s);
    }

    #[test]
    fn datetime_unix_roundtrip(secs in -4_000_000_000i64..4_000_000_000) {
        prop_assert_eq!(DateTime::from_unix(secs).to_unix(), secs);
    }

    #[test]
    fn datetime_text_roundtrip(dt in datetime_strategy()) {
        prop_assert_eq!(DateTime::parse(&dt.to_string()).unwrap(), dt);
    }
}
