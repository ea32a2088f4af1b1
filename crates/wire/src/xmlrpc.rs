//! XML-RPC codec (<http://www.xmlrpc.com>), the primary Clarens protocol.
//!
//! The paper's Figure 4 benchmark serializes "more than 30 strings as an
//! array response in XML-RPC"; this module is that hot path in the
//! reproduction. Supported types: `i4`/`int`/`i8`, `boolean`, `string`
//! (including bare text inside `<value>`), `double`, `dateTime.iso8601`,
//! `base64`, `struct`, `array`, and the widely-implemented `<nil/>`
//! extension.
//!
//! One codec per direction, client and server alike: streaming writers
//! that share [`encode_value_into`], and decoders that read the XML
//! reader's events. [`crate::dom::xmlrpc`] is their reference and oracle.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::datetime::DateTime;
use crate::fault::{Fault, WireError};
use crate::value::Value;
use crate::xml::{self, Event, Reader};
use crate::{RpcCall, RpcResponse};

/// Encode a method call as an XML-RPC `<methodCall>` document.
pub fn encode_call(call: &RpcCall) -> String {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<methodCall><methodName>");
    xml::escape_text_into(&call.method, &mut out);
    out.extend_from_slice(b"</methodName>");
    if call.params.is_empty() {
        out.extend_from_slice(b"<params/>");
    } else {
        out.extend_from_slice(b"<params>");
        for param in &call.params {
            out.extend_from_slice(b"<param>");
            encode_value_into(param, &mut out);
            out.extend_from_slice(b"</param>");
        }
        out.extend_from_slice(b"</params>");
    }
    out.extend_from_slice(b"</methodCall>");
    crate::utf8(out)
}

/// Encode a response directly into `out` with no intermediate element
/// tree or per-field `String`s.
///
/// Byte-identical to [`crate::dom::xmlrpc::encode_response`], the tree
/// encoder kept as its reference (property-tested in
/// `tests/stream_identity.rs`).
pub fn encode_response_into(response: &RpcResponse, out: &mut Vec<u8>) {
    out.extend_from_slice(b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    match response {
        RpcResponse::Success(value) => {
            out.extend_from_slice(b"<methodResponse><params><param>");
            encode_value_into(value, out);
            out.extend_from_slice(b"</param></params></methodResponse>");
        }
        RpcResponse::Fault(fault) => {
            // The fault detail struct has exactly two members; BTreeMap
            // ordering in the DOM path puts faultCode before faultString.
            out.extend_from_slice(
                b"<methodResponse><fault><value><struct><member><name>faultCode</name>",
            );
            encode_value_into(&Value::Int(fault.code), out);
            out.extend_from_slice(b"</member><member><name>faultString</name><value><string>");
            xml::escape_text_into(&fault.message, out);
            out.extend_from_slice(
                b"</string></value></member></struct></value></fault></methodResponse>",
            );
        }
    }
}

/// Encode one `<value>` element directly into `out` (see
/// [`encode_response_into`]).
pub fn encode_value_into(value: &Value, out: &mut Vec<u8>) {
    use std::io::Write as _;
    out.extend_from_slice(b"<value>");
    match value {
        Value::Nil => out.extend_from_slice(b"<nil/>"),
        Value::Bool(b) => {
            out.extend_from_slice(if *b {
                b"<boolean>1</boolean>"
            } else {
                b"<boolean>0</boolean>"
            });
        }
        Value::Int(i) => {
            if i32::try_from(*i).is_ok() {
                let _ = write!(out, "<i4>{i}</i4>");
            } else {
                let _ = write!(out, "<i8>{i}</i8>");
            }
        }
        Value::Double(d) => {
            out.extend_from_slice(b"<double>");
            format_double_into(*d, out);
            out.extend_from_slice(b"</double>");
        }
        Value::Str(s) => {
            out.extend_from_slice(b"<string>");
            xml::escape_text_into(s, out);
            out.extend_from_slice(b"</string>");
        }
        Value::Bytes(b) => {
            out.extend_from_slice(b"<base64>");
            crate::base64::encode_into(b, out);
            out.extend_from_slice(b"</base64>");
        }
        Value::DateTime(dt) => {
            // The ISO form is digits/'T'/':' only — nothing to escape.
            let _ = write!(out, "<dateTime.iso8601>{dt}</dateTime.iso8601>");
        }
        Value::Array(items) => {
            if items.is_empty() {
                out.extend_from_slice(b"<array><data/></array>");
            } else {
                out.extend_from_slice(b"<array><data>");
                for item in items {
                    encode_value_into(item, out);
                }
                out.extend_from_slice(b"</data></array>");
            }
        }
        Value::Struct(map) => {
            if map.is_empty() {
                out.extend_from_slice(b"<struct/>");
            } else {
                out.extend_from_slice(b"<struct>");
                for (k, v) in map {
                    out.extend_from_slice(b"<member><name>");
                    xml::escape_text_into(k, out);
                    out.extend_from_slice(b"</name>");
                    encode_value_into(v, out);
                    out.extend_from_slice(b"</member>");
                }
                out.extend_from_slice(b"</struct>");
            }
        }
    }
    out.extend_from_slice(b"</value>");
}

/// Streaming twin of [`format_double`]: identical output, no intermediate
/// `String`. The rare scientific-notation case rewrites in place by
/// truncating back to the field start.
fn format_double_into(d: f64, out: &mut Vec<u8>) {
    use std::io::Write as _;
    if !d.is_finite() {
        out.extend_from_slice(b"0.0");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{d}");
    if out[start..].iter().any(|&b| b == b'e' || b == b'E') {
        out.truncate(start);
        let _ = write!(out, "{d:.17}");
    } else if !out[start..].contains(&b'.') {
        out.extend_from_slice(b".0");
    }
}

/// Decode a `<methodCall>` document from the XML reader's events, with no
/// element tree, by [`crate::dom::xmlrpc::decode_call`]'s rules: local
/// names, the first child of each name, direct text only, a `<value>`'s
/// first child element as its type; any other child, attribute or text is
/// ignored.
pub fn decode_call(text: &str) -> Result<RpcCall, WireError> {
    let mut xml = Reader::new(text);
    let root = xml.root()?;
    if root.local != "methodCall" {
        return Err(WireError::protocol(format!(
            "expected <methodCall>, found <{}>",
            root.name
        )));
    }
    let (mut method, mut params) = (None, None);
    while let Some(name) = xml.child()? {
        match name {
            "methodName" if method.is_none() => method = Some(xml.text()?),
            "params" if params.is_none() => params = Some(read_params(&mut xml)?),
            _ => xml.skip()?,
        }
    }
    let method = method
        .ok_or_else(|| WireError::protocol("missing <methodName>"))?
        .trim()
        .to_owned();
    if method.is_empty() {
        return Err(WireError::protocol("empty methodName"));
    }
    Ok(RpcCall {
        method,
        params: params.unwrap_or_default(),
        id: None,
    })
}

/// The values of an open `<params>`' `<param>`s.
fn read_params(xml: &mut Reader<'_>) -> Result<Vec<Value>, WireError> {
    let mut params = Vec::new();
    while let Some(name) = xml.child()? {
        if name != "param" {
            xml.skip()?;
            continue;
        }
        let value = read_first_value(xml)?;
        params.push(value.ok_or_else(|| WireError::protocol("<param> without <value>"))?);
    }
    Ok(params)
}

/// The value of the open element's first `<value>`; the rest is skipped.
fn read_first_value(xml: &mut Reader<'_>) -> Result<Option<Value>, WireError> {
    let mut value = None;
    while let Some(name) = xml.child()? {
        match name {
            "value" if value.is_none() => value = Some(read_value(xml)?),
            _ => xml.skip()?,
        }
    }
    Ok(value)
}

/// The value of an open `<value>`: its first child element is the type
/// and the rest is ignored; with no child element, its text is a string.
pub(crate) fn read_value(xml: &mut Reader<'_>) -> Result<Value, WireError> {
    let mut bare = Cow::Borrowed("");
    let kind = loop {
        match xml.next()? {
            Event::Start(tag) => break tag.local,
            Event::Text(text) => bare = text,
            Event::End => return Ok(Value::Str(bare.into_owned())),
        }
    };
    let value = match kind {
        "array" => {
            let mut items = None;
            while let Some(name) = xml.child()? {
                if items.is_some() || name != "data" {
                    xml.skip()?;
                    continue;
                }
                let mut values = Vec::new();
                while let Some(name) = xml.child()? {
                    match name {
                        "value" => values.push(read_value(xml)?),
                        _ => xml.skip()?,
                    }
                }
                items = Some(values);
            }
            Value::Array(items.ok_or_else(|| WireError::protocol("<array> without <data>"))?)
        }
        "struct" => {
            let mut map = BTreeMap::new();
            while let Some(name) = xml.child()? {
                if name != "member" {
                    xml.skip()?;
                    continue;
                }
                let (mut key, mut value) = (None, None);
                while let Some(name) = xml.child()? {
                    match name {
                        "name" if key.is_none() => key = Some(xml.text()?),
                        "value" if value.is_none() => value = Some(read_value(xml)?),
                        _ => xml.skip()?,
                    }
                }
                let key = key.ok_or_else(|| WireError::protocol("<member> without <name>"))?;
                let value = value.ok_or_else(|| WireError::protocol("<member> without <value>"))?;
                map.insert(key.into_owned(), value);
            }
            Value::Struct(map)
        }
        kind => scalar(kind, xml.text()?)?,
    };
    xml.skip()?;
    Ok(value)
}

/// Decode a `<methodResponse>` document from the XML reader's events, by
/// [`crate::dom::xmlrpc::decode_response`]'s rules: the first `<fault>`
/// wherever it stands, else the first `<params>`, which holds one value.
pub fn decode_response(text: &str) -> Result<RpcResponse, WireError> {
    let mut xml = Reader::new(text);
    let root = xml.root()?;
    if root.local != "methodResponse" {
        return Err(WireError::protocol(format!(
            "expected <methodResponse>, found <{}>",
            root.name
        )));
    }
    let mut params = None;
    while let Some(name) = xml.child()? {
        match name {
            "fault" => return read_fault(xml),
            "params" if params.is_none() => match read_params(&mut xml) {
                Ok(values) => params = Some(values),
                // A `<fault>` further on would still be the answer, and the
                // reader stopped at the error: look for one from the start.
                Err(e) => return first_fault(text)?.ok_or(e),
            },
            _ => xml.skip()?,
        }
    }
    let mut params = params.unwrap_or_default();
    match params.len() {
        1 => Ok(RpcResponse::Success(params.remove(0))),
        0 => Err(WireError::protocol(
            "response has no <params> and no <fault>",
        )),
        n => Err(WireError::protocol(format!(
            "response has {n} params, expected 1"
        ))),
    }
}

/// The document's first `<fault>`, if it has one.
fn first_fault(text: &str) -> Result<Option<RpcResponse>, WireError> {
    let mut xml = Reader::new(text);
    xml.root()?;
    while let Some(name) = xml.child()? {
        if name == "fault" {
            return read_fault(xml).map(Some);
        }
        xml.skip()?;
    }
    Ok(None)
}

/// The fault an open `<fault>` holds; the rest of the document is read.
fn read_fault(mut xml: Reader<'_>) -> Result<RpcResponse, WireError> {
    let detail = read_first_value(&mut xml)?;
    xml.finish()?;
    let detail = detail.ok_or_else(|| WireError::protocol("<fault> without <value>"))?;
    let code = detail
        .get("faultCode")
        .and_then(Value::as_int)
        .ok_or_else(|| WireError::protocol("fault missing faultCode"))?;
    let message = detail
        .get("faultString")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_owned();
    Ok(RpcResponse::Fault(Fault::new(code, message)))
}

/// A scalar of XML-RPC type `kind` from its element's direct text.
pub(crate) fn scalar(kind: &str, text: Cow<'_, str>) -> Result<Value, WireError> {
    match kind {
        "string" => Ok(Value::Str(text.into_owned())),
        "nil" => Ok(Value::Nil),
        "boolean" => match text.trim() {
            "1" | "true" => Ok(Value::Bool(true)),
            "0" | "false" => Ok(Value::Bool(false)),
            other => Err(WireError::parse(format!("invalid boolean {other:?}"))),
        },
        "i4" | "int" | "i8" => text
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| WireError::parse(format!("invalid integer {text:?}"))),
        "double" => text
            .trim()
            .parse::<f64>()
            .map(Value::Double)
            .map_err(|_| WireError::parse(format!("invalid double {text:?}"))),
        "base64" => crate::base64::decode(&text)
            .map(Value::Bytes)
            .map_err(|e| WireError::parse(format!("invalid base64: {e}"))),
        "dateTime.iso8601" => DateTime::parse(&text)
            .map(Value::DateTime)
            .map_err(|e| WireError::parse(e.to_string())),
        other => Err(WireError::protocol(format!(
            "unknown XML-RPC type <{other}>"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::xmlrpc::decode_call as decode_call_dom;

    fn encode_response(response: &RpcResponse) -> String {
        let mut out = Vec::new();
        encode_response_into(response, &mut out);
        String::from_utf8(out).unwrap()
    }

    /// The `<value>` element the response for `v` carries.
    fn encode_value(v: &Value) -> String {
        let doc = encode_response(&RpcResponse::Success(v.clone()));
        let start = doc.find("<value>").unwrap();
        doc[start..doc.rfind("</param>").unwrap()].to_owned()
    }

    fn roundtrip_value(v: Value) {
        let doc = encode_response(&RpcResponse::Success(v.clone()));
        assert_eq!(
            decode_response(&doc).unwrap(),
            RpcResponse::Success(v.clone()),
            "value {v:?}"
        );
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip_value(Value::Nil);
        roundtrip_value(Value::Bool(true));
        roundtrip_value(Value::Bool(false));
        roundtrip_value(Value::Int(0));
        roundtrip_value(Value::Int(i64::from(i32::MAX)));
        roundtrip_value(Value::Int(i64::from(i32::MIN)));
        roundtrip_value(Value::Int(i64::MAX));
        roundtrip_value(Value::Int(i64::MIN));
        roundtrip_value(Value::Double(0.5));
        roundtrip_value(Value::Double(-123.456));
        roundtrip_value(Value::Double(3.0));
        roundtrip_value(Value::Str("".into()));
        roundtrip_value(Value::Str("hello <world> & \"friends\"".into()));
        roundtrip_value(Value::Bytes(vec![0, 1, 2, 255]));
        roundtrip_value(Value::DateTime(
            DateTime::new(2005, 6, 15, 1, 2, 3).unwrap(),
        ));
    }

    #[test]
    fn composite_roundtrips() {
        roundtrip_value(Value::Array(vec![]));
        roundtrip_value(Value::array([
            Value::Int(1),
            Value::from("two"),
            Value::Nil,
        ]));
        roundtrip_value(Value::Struct(Default::default()));
        roundtrip_value(Value::structure([
            ("list", Value::array([Value::Bool(true)])),
            ("nested", Value::structure([("x", Value::Double(1.25))])),
        ]));
    }

    #[test]
    fn i4_vs_i8_selection() {
        let small = encode_value(&Value::Int(42));
        assert!(small.contains("<i4>42</i4>"), "{small}");
        let big = encode_value(&Value::Int(5_000_000_000));
        assert!(big.contains("<i8>5000000000</i8>"), "{big}");
    }

    #[test]
    fn double_has_no_exponent() {
        let doc = encode_value(&Value::Double(1e-9));
        assert!(!doc.contains('e') || !doc.contains("e-"), "{doc}");
        let back = decode_response(&encode_response(&RpcResponse::Success(Value::Double(1e-9))))
            .unwrap()
            .into_result()
            .unwrap()
            .as_double()
            .unwrap();
        assert!((back - 1e-9).abs() < 1e-18);
    }

    #[test]
    fn call_roundtrip() {
        let call = RpcCall::new(
            "file.read",
            vec![
                Value::from("/data/f.root"),
                Value::Int(0),
                Value::Int(65536),
            ],
        );
        let doc = encode_call(&call);
        let back = decode_call(&doc).unwrap();
        assert_eq!(back, call);
    }

    #[test]
    fn call_without_params() {
        let doc = "<?xml version=\"1.0\"?><methodCall><methodName>system.list_methods</methodName></methodCall>";
        let call = decode_call(doc).unwrap();
        assert_eq!(call.method, "system.list_methods");
        assert!(call.params.is_empty());
    }

    #[test]
    fn response_roundtrip() {
        let ok = RpcResponse::Success(Value::array([Value::from("m1"), Value::from("m2")]));
        assert_eq!(decode_response(&encode_response(&ok)).unwrap(), ok);
        let fault = RpcResponse::Fault(Fault::new(4, "access denied"));
        assert_eq!(decode_response(&encode_response(&fault)).unwrap(), fault);
    }

    #[test]
    fn bare_text_value_is_string() {
        let doc =
            "<methodResponse><params><param><value>plain</value></param></params></methodResponse>";
        match decode_response(doc).unwrap() {
            RpcResponse::Success(Value::Str(s)) => assert_eq!(s, "plain"),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Everything our own encoder emits decodes to the call it encodes,
    /// as the DOM reference decodes it.
    #[test]
    fn canonical_documents_decode_as_dom() {
        let calls = [
            RpcCall::new("system.list_methods", vec![]),
            RpcCall::new("echo.echo", vec![Value::Int(42)]),
            RpcCall::new(
                "file.read",
                vec![
                    Value::from("/data/f.root"),
                    Value::Int(0),
                    Value::Int(65536),
                ],
            ),
            RpcCall::new(
                "kitchen.sink",
                vec![
                    Value::Nil,
                    Value::Bool(true),
                    Value::Bool(false),
                    Value::Int(i64::MIN),
                    Value::Int(i64::MAX),
                    Value::Double(-123.456),
                    Value::Str(String::new()),
                    Value::Str("hello <world> & \"friends\"".into()),
                    Value::Bytes(vec![]),
                    Value::Bytes(vec![0, 1, 2, 255]),
                    Value::DateTime(DateTime::new(2005, 6, 15, 1, 2, 3).unwrap()),
                    Value::Array(vec![]),
                    Value::array([Value::Int(1), Value::from("two"), Value::Nil]),
                    Value::Struct(Default::default()),
                    Value::structure([
                        ("list", Value::array([Value::Bool(true)])),
                        ("nested", Value::structure([("x", Value::Double(1.25))])),
                    ]),
                ],
            ),
        ];
        for call in calls {
            let doc = encode_call(&call);
            assert_eq!(decode_call(&doc).unwrap(), call, "{doc}");
            assert_eq!(decode_call_dom(&doc).unwrap(), call, "{doc}");
        }
    }

    /// Whitespace between tags (pretty-printed clients) is ignored, and
    /// bare whitespace inside `<value>` is a literal, untrimmed string.
    #[test]
    fn indented_documents_decode_as_dom() {
        let doc = "<?xml version=\"1.0\"?>\n<methodCall>\n  <methodName>echo.echo</methodName>\n  <params>\n    <param>\n      <value><i4>7</i4></value>\n    </param>\n    <param>\n      <value>  </value>\n    </param>\n  </params>\n</methodCall>\n";
        let call = decode_call(doc).unwrap();
        assert_eq!(call, decode_call_dom(doc).unwrap());
        assert_eq!(call.params[0], Value::Int(7));
        assert_eq!(call.params[1], Value::Str("  ".into()));
    }

    /// Documents no mainstream client emits decode exactly as the DOM
    /// reference decodes them, and malformed ones are rejected by both.
    #[test]
    fn off_profile_documents_decode_as_dom() {
        let call = |params: &str| {
            format!("<methodCall><methodName>m</methodName><params><param>{params}</param></params></methodCall>")
        };
        let off_profile = [
            // Comments and DOCTYPE in the prolog.
            "<!-- hi --><methodCall><methodName>m</methodName></methodCall>".to_owned(),
            "<!DOCTYPE methodCall [<!ELEMENT methodCall ANY>]><methodCall><methodName>m</methodName></methodCall>".to_owned(),
            // Attributes anywhere.
            "<methodCall x=\"1\"><methodName>m</methodName></methodCall>".to_owned(),
            call("<value><string a=\"b\">x</string></value>"),
            // A namespace-prefixed root and children.
            "<x:methodCall xmlns:x=\"urn:x\"><x:methodName>m</x:methodName><x:params><x:param><x:value><x:i4>3</x:i4></x:value></x:param></x:params></x:methodCall>".to_owned(),
            // CDATA sections, in text-typed and number-typed elements.
            call("<value><string><![CDATA[x]]></string></value>"),
            call("<value><i4><![CDATA[12]]></i4></value>"),
            "<methodCall><methodName><![CDATA[a.b]]></methodName></methodCall>".to_owned(),
            // A PI and a comment inside <value>, beside a type and in text.
            call("<value><?pi x?><!-- c --><i4>1</i4></value>"),
            call("<value>a<!-- c -->b<?pi?>c</value>"),
            // Struct member with <value> before <name>.
            call("<value><struct><member><value><i4>1</i4></value><name>k</name></member></struct></value>"),
            // Text mixed with a typed element inside <value>.
            call("<value>junk<i4>1</i4></value>"),
            // Unknown and duplicate children: the first of each name counts.
            "<methodCall><junk/><methodName>a</methodName><methodName>b</methodName><params><param><value>1</value></param></params><params><param><value><i4>x</i4></value></param></params></methodCall>".to_owned(),
            call("<junk>1</junk><value><i4>1</i4></value><value><i4>not a number</i4></value>"),
            call("<value><struct><member><junk/><name>k</name><name>j</name><value><i4>1</i4></value><value><bogus/></value></member></struct></value>"),
            // <params> before <methodName>.
            "<methodCall><params><param><value><i4>1</i4></value></param></params><methodName>m</methodName></methodCall>".to_owned(),
            // Text beside <data>'s values, and a second <data>.
            call("<value><array>a<data>b<value><i4>1</i4></value>c<junk/><value>d</value></data><data><value><bogus/></value></data></array></value>"),
            // Child elements inside text-typed elements are skipped.
            call("<value><string>a<b>x</b>c</string></value>"),
            "<methodCall><methodName>a<b/>.c</methodName></methodCall>".to_owned(),
        ];
        for doc in &off_profile {
            let dom = decode_call_dom(doc).unwrap_or_else(|e| panic!("DOM rejects {doc}: {e}"));
            assert_eq!(decode_call(doc).unwrap(), dom, "{doc}");
        }
        let malformed = [
            "<methodCall><methodName>m</methodName>".to_owned(),
            "<methodCall><methodName></methodName></methodCall>".to_owned(),
            call("<value><i4>NaN</i4></value>"),
            "<methodCall><methodName>m</methodName></methodCall><!-- unterminated".to_owned(),
            "<methodCall><methodName>m</methodName></methodCall><!DOCTYPE x>".to_owned(),
            "<methodCall><methodName>m</methodName></methodcall>".to_owned(),
            "<methodCall a=\"&bogus;\"><methodName>m</methodName></methodCall>".to_owned(),
            call("<value><array><data>&bogus;</data></array></value>"),
            call("<junk><a></b></junk><value>1</value>"),
        ];
        for doc in &malformed {
            assert!(decode_call_dom(doc).is_err(), "DOM accepts {doc}");
            assert!(decode_call(doc).is_err(), "accepted {doc}");
        }
    }

    /// Nesting is bounded by element depth, as in the DOM: each array or
    /// struct adds three elements, so 85 levels inside a `<param>` go past
    /// `xml::MAX_DEPTH` and 84 do not.
    #[test]
    fn nesting_limit_matches_dom() {
        let call = |open: &str, inner: &str, close: &str, levels: usize| {
            format!(
                "<methodCall><methodName>m</methodName><params><param>{}{inner}{}</param></params></methodCall>",
                open.repeat(levels),
                close.repeat(levels)
            )
        };
        let arrays = |levels| {
            call(
                "<value><array><data>",
                "",
                "</data></array></value>",
                levels,
            )
        };
        let structs = |levels| {
            call(
                "<value><struct><member><name>k</name>",
                "<value/>",
                "</member></struct></value>",
                levels,
            )
        };
        for doc in [arrays(85), structs(85)] {
            assert!(decode_call_dom(&doc).is_err());
            assert!(decode_call(&doc).is_err(), "accepted past MAX_DEPTH");
            crate::fuzz::xmlrpc_divergence(doc.as_bytes());
        }
        for doc in [arrays(84), structs(84)] {
            assert_eq!(decode_call(&doc).unwrap(), decode_call_dom(&doc).unwrap());
        }
    }

    #[test]
    fn int_spelled_int_accepted() {
        let doc = "<methodCall><methodName>m</methodName><params><param><value><int>7</int></value></param></params></methodCall>";
        assert_eq!(decode_call(doc).unwrap().params, vec![Value::Int(7)]);
    }

    #[test]
    fn boolean_lenient_forms() {
        for (text, expect) in [("1", true), ("true", true), ("0", false), ("false", false)] {
            let doc = format!(
                "<methodCall><methodName>m</methodName><params><param><value><boolean>{text}</boolean></value></param></params></methodCall>"
            );
            assert_eq!(decode_call(&doc).unwrap().params, vec![Value::Bool(expect)]);
        }
        let bad = "<methodCall><methodName>m</methodName><params><param><value><boolean>yes</boolean></value></param></params></methodCall>";
        assert!(decode_call(bad).is_err());
    }

    #[test]
    fn malformed_rejected() {
        assert!(decode_call("<methodCall/>").is_err()); // no methodName
        assert!(decode_call("<methodResponse/>").is_err()); // wrong root
        assert!(decode_response("<methodResponse/>").is_err()); // empty
        assert!(decode_response(
            "<methodResponse><params><param><value><i4>1</i4></value></param><param><value><i4>2</i4></value></param></params></methodResponse>"
        )
        .is_err()); // two params
        assert!(decode_call(
            "<methodCall><methodName>m</methodName><params><param></param></params></methodCall>"
        )
        .is_err()); // param without value
    }

    #[test]
    fn unknown_type_rejected() {
        let doc = "<methodCall><methodName>m</methodName><params><param><value><float>1</float></value></param></params></methodCall>";
        assert!(decode_call(doc).is_err());
    }

    /// Responses decode exactly as the DOM reference decodes them: the
    /// first `<fault>` wins wherever it stands, even after a `<params>`
    /// that does not decode, and malformed documents are rejected by both.
    #[test]
    fn responses_decode_as_dom() {
        use crate::dom::xmlrpc::decode_response as dom;
        let response = |body: &str| format!("<methodResponse>{body}</methodResponse>");
        let fault = "<fault><value><struct><member><name>faultCode</name><value><i4>4</i4></value></member><member><name>faultString</name><value>no</value></member></struct></value></fault>";
        let accepted = [
            response("<params><param><value>x</value></param></params>"),
            response(&format!("<params><param><value>x</value></param></params>{fault}")),
            response(&format!("<params><param/></params>{fault}")),
            response(&format!("<params><param><value><i4>z</i4></value></param></params>{fault}")),
            response(&format!("<params><param><value><bogus/></value></param></params><junk/>{fault}")),
            response(&format!("{fault}<params><param/></params>")),
            response(&format!("{fault}<fault/>")),
            response("<fault><junk/><value><struct><member><name>faultCode</name><value><i4>1</i4></value></member></struct></value><value/></fault>"),
            response("<fault><value><struct><member><name>faultCode</name><value><i4>1</i4></value></member><member><name>faultString</name><value><i4>2</i4></value></member></struct></value></fault>"),
            response("<params><param><value>x</value></param></params><params/>"),
            response("<!-- c --><params a=\"1\"><junk/><param><value><![CDATA[x]]></value></param></params>"),
            "<r:methodResponse xmlns:r=\"urn:r\"><r:params><r:param><r:value><r:i4>1</r:i4></r:value></r:param></r:params></r:methodResponse>".to_owned(),
        ];
        for doc in &accepted {
            let expected = dom(doc).unwrap_or_else(|e| panic!("DOM rejects {doc}: {e}"));
            assert_eq!(decode_response(doc).unwrap(), expected, "{doc}");
        }
        let rejected = [
            response(""),
            response("<params/>"),
            response("<params><param/></params>"),
            response(
                "<params><param><value>1</value></param><param><value>2</value></param></params>",
            ),
            response("<fault/><params><param><value>x</value></param></params>"),
            response("<fault><value><i4>1</i4></value></fault>"),
            response(&format!("<params><param/></params>{fault}<junk>")),
            response(&format!("{fault}</junk>")),
            format!("{}<!DOCTYPE x>", response(fault)),
            "<methodCall><methodName>m</methodName></methodCall>".to_owned(),
        ];
        for doc in &rejected {
            assert!(dom(doc).is_err(), "DOM accepts {doc}");
            assert!(decode_response(doc).is_err(), "accepted {doc}");
        }
    }

    #[test]
    fn fault_missing_code_rejected() {
        let doc = "<methodResponse><fault><value><struct><member><name>faultString</name><value>x</value></member></struct></value></fault></methodResponse>";
        assert!(decode_response(doc).is_err());
    }

    #[test]
    fn thirty_string_array_like_figure4() {
        // The exact workload of Figure 4: a >30-element string array.
        let methods: Vec<Value> = (0..32)
            .map(|i| Value::from(format!("module{i}.method{i}")))
            .collect();
        let resp = RpcResponse::Success(Value::Array(methods.clone()));
        let doc = encode_response(&resp);
        match decode_response(&doc).unwrap() {
            RpcResponse::Success(Value::Array(items)) => assert_eq!(items, methods),
            other => panic!("unexpected {other:?}"),
        }
    }
}
