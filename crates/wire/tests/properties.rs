//! Property-based round-trip tests for the wire codecs.
//!
//! Generate arbitrary [`Value`] trees and assert that every protocol
//! encoder/decoder pair is the identity on them, and that the byte-level
//! codecs (base64, percent) round-trip arbitrary byte strings. Each
//! property is a search on the shared runner: seed `n` is its case `n`,
//! replayed alone by `SEARCH_SEED=<n>`.

mod common;

use clarens_search::{search, Rng};

use clarens_wire::datetime::DateTime;
use clarens_wire::{base64, json, percent, Protocol, RpcCall, RpcResponse, Value};
use common::{datetime, response, uniform, value, wire_string};

/// Check property `test` of this file on seeds `0..64`.
fn property(test: &str, check: impl Fn(&mut Rng) + Sync) {
    let name = format!("clarens-wire --test properties -- --exact {test}");
    search(&name, 0..64, |seed| {
        check(&mut Rng::new(seed));
        Ok(())
    });
}

/// Doubles that survive text round-trips exactly (finite, no signed zero
/// ambiguity concerns for equality).
fn wire_double(rng: &mut Rng) -> f64 {
    match rng.below(4) {
        0 => uniform(rng, -1e12, 1e12),
        1 => 0.0,
        2 => -2.5,
        _ => 1.0e-9,
    }
}

/// Any `Value` tree.
fn any_value(rng: &mut Rng) -> Value {
    value(rng, wire_double, 7)
}

/// JSON cannot represent Bytes/DateTime distinctly; restrict to the JSON
/// image of the algebra for the JSON round-trip test.
fn json_value(rng: &mut Rng) -> Value {
    value(rng, wire_double, 5)
}

/// Up to `max` parameters, each from `value`.
fn params(rng: &mut Rng, max: usize, value: fn(&mut Rng) -> Value) -> Vec<Value> {
    (0..rng.below(max + 1)).map(|_| value(rng)).collect()
}

/// Dotted lower-case names of one to three segments, as `a_1.b.c`.
fn method_name(rng: &mut Rng) -> String {
    let segment = |rng: &mut Rng| {
        let tail = ['a'..='z', '0'..='9', '_'..='_'];
        String::from(rng.char(&['a'..='z'])) + &rng.string(&tail, 0..9)
    };
    let mut name = segment(rng);
    for _ in 0..rng.below(3) {
        name = name + "." + &segment(rng);
    }
    name
}

/// A call of a generated name with up to three parameters of any kind.
fn call(rng: &mut Rng) -> RpcCall {
    let method = method_name(rng);
    RpcCall::new(method, params(rng, 3, any_value))
}

/// Up to `max` non-control chars: 16 in 20 printable ASCII, then Latin-1,
/// Cyrillic and wider ones.
fn printable(rng: &mut Rng, max: u64) -> String {
    (0..rng.pick(0, max))
        .map(|_| match rng.below(20) {
            0..=15 => rng.char(&[' '..='~']),
            16 | 17 => rng.char(&['¡'..='ÿ']),
            18 => rng.char(&['А'..='я']),
            _ => *rng.choose(&['§', '€', '→', '中', '𝒳']),
        })
        .collect()
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

#[test]
fn base64_roundtrip() {
    property("base64_roundtrip", |rng| {
        let data = rng.bytes(0..256);
        let encoded = base64::encode(&data);
        assert_eq!(base64::decode(&encoded).unwrap(), data);
    });
}

#[test]
fn percent_roundtrip() {
    property("percent_roundtrip", |rng| {
        let s = wire_string(rng);
        assert_eq!(percent::decode_str(&percent::encode(&s)), s);
    });
}

#[test]
fn json_roundtrip() {
    property("json_roundtrip", |rng| {
        let v = json_value(rng);
        let text = json::to_string(&v);
        assert_eq!(json::parse(&text).unwrap(), v);
    });
}

#[test]
fn json_pretty_roundtrip() {
    property("json_pretty_roundtrip", |rng| {
        let v = json_value(rng);
        let text = json::to_string_pretty(&v);
        assert_eq!(json::parse(&text).unwrap(), v);
    });
}

#[test]
fn xmlrpc_call_roundtrip() {
    property("xmlrpc_call_roundtrip", |rng| {
        let call = call(rng);
        let doc = clarens_wire::xmlrpc::encode_call(&call);
        assert_eq!(clarens_wire::xmlrpc::decode_call(&doc).unwrap(), call);
    });
}

/// The streaming call decoder and the DOM oracle agree on every
/// document our encoder emits.
#[test]
fn xmlrpc_call_decoder_matches_dom() {
    property("xmlrpc_call_decoder_matches_dom", |rng| {
        let doc = clarens_wire::xmlrpc::encode_call(&call(rng));
        assert_eq!(
            clarens_wire::xmlrpc::decode_call(&doc).unwrap(),
            clarens_wire::dom::xmlrpc::decode_call(&doc).unwrap()
        );
    });
}

/// ... and on those documents decorated as other clients might write
/// them, which still mean the same call.
#[test]
fn xmlrpc_decorated_call_decodes_as_dom() {
    property("xmlrpc_decorated_call_decodes_as_dom", |rng| {
        let (call, mask) = (call(rng), rng.next_u64());
        let doc = decorate(&clarens_wire::xmlrpc::encode_call(&call), mask);
        let decoded = clarens_wire::xmlrpc::decode_call(&doc);
        assert_eq!(
            &decoded,
            &clarens_wire::dom::xmlrpc::decode_call(&doc),
            "{}",
            doc
        );
        assert_eq!(decoded.unwrap(), call);
    });
}

/// The streaming response decoder and the DOM oracle agree on
/// canonical responses, successes and faults, decorated the same way
/// (the prefix goes on `<methodResponse>`).
#[test]
fn xmlrpc_decorated_response_decodes_as_dom() {
    property("xmlrpc_decorated_response_decodes_as_dom", |rng| {
        let (resp, mask) = (response(rng, wire_double), rng.next_u64());
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
        assert_eq!(
            &decoded,
            &clarens_wire::dom::xmlrpc::decode_response(&doc),
            "{}",
            doc
        );
        assert_eq!(decoded.unwrap(), resp);
    });
}

/// The streaming SOAP decoders and their DOM oracles agree on decorated
/// canonical call and response envelopes, which mean what they did.
#[test]
fn soap_decorated_envelopes_decode_as_dom() {
    property("soap_decorated_envelopes_decode_as_dom", |rng| {
        let (call, resp, mask) = (call(rng), response(rng, wire_double), rng.next_u64());
        let doc = decorate(&clarens_wire::soap::encode_call(&call), mask);
        let decoded = clarens_wire::soap::decode_call(&doc);
        assert_eq!(
            &decoded,
            &clarens_wire::dom::soap::decode_call(&doc),
            "{}",
            doc
        );
        assert_eq!(decoded.unwrap(), call);
        let doc =
            String::from_utf8(clarens_wire::encode_response(Protocol::Soap, &resp, None)).unwrap();
        let doc = decorate(&doc, mask.rotate_left(17));
        let decoded = clarens_wire::soap::decode_response(&doc);
        assert_eq!(
            &decoded,
            &clarens_wire::dom::soap::decode_response(&doc),
            "{}",
            doc
        );
        assert_eq!(decoded.unwrap(), resp);
    });
}

#[test]
fn xmlrpc_response_roundtrip() {
    property("xmlrpc_response_roundtrip", |rng| {
        let resp = RpcResponse::Success(any_value(rng));
        let doc = clarens_wire::dom::xmlrpc::encode_response(&resp);
        assert_eq!(clarens_wire::xmlrpc::decode_response(&doc).unwrap(), resp);
    });
}

#[test]
fn soap_call_roundtrip() {
    property("soap_call_roundtrip", |rng| {
        let call = call(rng);
        let doc = clarens_wire::soap::encode_call(&call);
        assert_eq!(clarens_wire::soap::decode_call(&doc).unwrap(), call);
    });
}

#[test]
fn jsonrpc_call_roundtrip() {
    property("jsonrpc_call_roundtrip", |rng| {
        let (method, params) = (method_name(rng), params(rng, 3, json_value));
        let call = RpcCall {
            method,
            params,
            id: Some(Value::Int(3)),
        };
        let text = clarens_wire::jsonrpc::encode_call(&call);
        assert_eq!(clarens_wire::jsonrpc::decode_call(&text).unwrap(), call);
    });
}

#[test]
fn protocol_generic_roundtrip() {
    property("protocol_generic_roundtrip", |rng| {
        // The JSON-compatible subset must round-trip through *every* protocol
        // and be correctly sniffed.
        let (method, params) = (method_name(rng), params(rng, 2, json_value));
        let call = RpcCall {
            method,
            params,
            id: Some(Value::Int(1)),
        };
        for proto in [
            Protocol::XmlRpc,
            Protocol::Soap,
            Protocol::JsonRpc,
            Protocol::Binary,
        ] {
            let bytes = clarens_wire::encode_call(proto, &call);
            assert_eq!(Protocol::sniff(&bytes), Some(proto));
            let back = clarens_wire::decode_call(proto, &bytes).unwrap();
            assert_eq!(&back.method, &call.method);
            assert_eq!(&back.params, &call.params);
        }
    });
}

#[test]
fn binary_call_roundtrip() {
    property("binary_call_roundtrip", |rng| {
        let call = call(rng);
        let bytes = clarens_wire::binary::encode_call(&call);
        assert_eq!(Protocol::sniff(&bytes), Some(Protocol::Binary));
        assert_eq!(clarens_wire::binary::decode_call(&bytes).unwrap(), call);
        // The zero-copy view agrees with the owned decode.
        let view = clarens_wire::binary::decode_call_view(&bytes).unwrap();
        assert_eq!(view.method, call.method.as_str());
        assert_eq!(&view.params, &call.params);
    });
}

/// Value-model equivalence against the XML-RPC DOM: the same `Value`
/// pushed through the binary codec and through the DOM reference codec
/// must come back as the same `Value` — the binary protocol is a
/// different wire image of the *same* algebra, not a dialect.
#[test]
fn binary_response_equivalent_to_xmlrpc_dom() {
    property("binary_response_equivalent_to_xmlrpc_dom", |rng| {
        let resp = RpcResponse::Success(any_value(rng));
        let bin = clarens_wire::binary::encode_response(&resp);
        let via_binary = clarens_wire::binary::decode_response(&bin).unwrap();
        let xml = clarens_wire::dom::xmlrpc::encode_response(&resp);
        let via_dom = clarens_wire::dom::xmlrpc::decode_response(&xml).unwrap();
        assert_eq!(&via_binary, &via_dom);
        assert_eq!(&via_binary, &resp);
    });
}

#[test]
fn binary_call_equivalent_to_xmlrpc_dom() {
    property("binary_call_equivalent_to_xmlrpc_dom", |rng| {
        let call = call(rng);
        let via_binary =
            clarens_wire::binary::decode_call(&clarens_wire::binary::encode_call(&call)).unwrap();
        let via_dom =
            clarens_wire::dom::xmlrpc::decode_call(&clarens_wire::dom::xmlrpc::encode_call(&call))
                .unwrap();
        assert_eq!(via_binary, via_dom);
    });
}

#[test]
fn binary_fault_roundtrip() {
    property("binary_fault_roundtrip", |rng| {
        let (code, message) = (rng.below(2000) as i64 - 1000, wire_string(rng));
        let resp = RpcResponse::Fault(clarens_wire::Fault::new(code, message));
        let bytes = clarens_wire::binary::encode_response(&resp);
        assert_eq!(clarens_wire::binary::decode_response(&bytes).unwrap(), resp);
    });
}

#[test]
fn binary_decoder_never_panics() {
    property("binary_decoder_never_panics", |rng| {
        let data = rng.bytes(0..128);
        let _ = clarens_wire::binary::decode_call(&data);
        let _ = clarens_wire::binary::decode_response(&data);
    });
}

#[test]
fn json_parser_never_panics() {
    property("json_parser_never_panics", |rng| {
        let _ = json::parse(&printable(rng, 64));
    });
}

#[test]
fn xml_parser_never_panics() {
    property("xml_parser_never_panics", |rng| {
        let _ = clarens_wire::dom::parse(&printable(rng, 64));
    });
}

#[test]
fn base64_decoder_never_panics() {
    property("base64_decoder_never_panics", |rng| {
        let _ = base64::decode(&printable(rng, 64));
    });
}

#[test]
fn datetime_unix_roundtrip() {
    property("datetime_unix_roundtrip", |rng| {
        let secs = rng.below(8_000_000_000) as i64 - 4_000_000_000;
        assert_eq!(DateTime::from_unix(secs).to_unix(), secs);
    });
}

#[test]
fn datetime_text_roundtrip() {
    property("datetime_text_roundtrip", |rng| {
        let dt = datetime(rng);
        assert_eq!(DateTime::parse(&dt.to_string()).unwrap(), dt);
    });
}
