//! SOAP 1.1 RPC subset.
//!
//! JClarens exposed its services over SOAP via Apache AXIS; this module
//! implements the interoperable subset Clarens needed: RPC-style bodies with
//! SOAP-Section-5 style typed parameters (we reuse the XML-RPC type lexicon
//! via `xsi:type`-free positional encoding), and `<SOAP-ENV:Fault>` for
//! errors. Method names ride in the body element's local name with the `.`
//! hierarchy encoded as `_DOT_` (SOAP element names cannot contain dots).
//!
//! The encoding here is self-consonant (our encoder's output is accepted by
//! our decoder and carries the full [`Value`] algebra) and the decoder is
//! additionally lenient about namespace prefixes so that hand-written
//! envelopes from tests and third-party-style clients parse.
//!
//! One codec per direction, sharing [`crate::xmlrpc`]'s value writer and
//! value reader. [`crate::dom::soap`] is their reference and oracle.

use std::borrow::Cow;

use crate::fault::{Fault, WireError};
use crate::value::Value;
use crate::xml::{self, Event, Reader};
use crate::xmlrpc::{encode_value_into, read_value};
use crate::{RpcCall, RpcResponse};

/// Everything before the body's content, in every envelope.
const ENVELOPE_OPEN: &[u8] = b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
    <SOAP-ENV:Envelope xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\">\
    <SOAP-ENV:Body>";

/// Everything after the body's content.
const ENVELOPE_CLOSE: &[u8] = b"</SOAP-ENV:Body></SOAP-ENV:Envelope>";

/// Dots cannot appear in XML element names used for RPC operation names.
pub(crate) fn mangle_method(method: &str) -> String {
    method.replace('.', "_DOT_")
}

pub(crate) fn demangle_method(name: &str) -> String {
    name.replace("_DOT_", ".")
}

/// Encode a call as a SOAP envelope: parameter `i` is `<p{i}>` holding an
/// XML-RPC `<value>`.
pub fn encode_call(call: &RpcCall) -> String {
    use std::io::Write as _;
    let mut out = Vec::with_capacity(384);
    out.extend_from_slice(ENVELOPE_OPEN);
    let op = mangle_method(&call.method);
    let _ = write!(out, "<m:{op} xmlns:m=\"urn:clarens\"");
    if call.params.is_empty() {
        out.extend_from_slice(b"/>");
    } else {
        out.push(b'>');
        for (i, param) in call.params.iter().enumerate() {
            let _ = write!(out, "<p{i}>");
            encode_value_into(param, &mut out);
            let _ = write!(out, "</p{i}>");
        }
        let _ = write!(out, "</m:{op}>");
    }
    out.extend_from_slice(ENVELOPE_CLOSE);
    crate::utf8(out)
}

/// Encode a response envelope directly into `out` — byte-identical to
/// [`crate::dom::soap::encode_response`] (property-tested in
/// `tests/stream_identity.rs`).
pub fn encode_response_into(response: &RpcResponse, out: &mut Vec<u8>) {
    use std::io::Write as _;
    out.extend_from_slice(ENVELOPE_OPEN);
    match response {
        RpcResponse::Success(value) => {
            out.extend_from_slice(b"<m:Response xmlns:m=\"urn:clarens\"><return>");
            encode_value_into(value, out);
            out.extend_from_slice(b"</return></m:Response>");
        }
        RpcResponse::Fault(fault) => {
            let _ = write!(
                out,
                "<SOAP-ENV:Fault><faultcode>SOAP-ENV:Server.{}</faultcode><faultstring>",
                fault.code
            );
            xml::escape_text_into(&fault.message, out);
            out.extend_from_slice(b"</faultstring></SOAP-ENV:Fault>");
        }
    }
    out.extend_from_slice(ENVELOPE_CLOSE);
}

/// Read an envelope up to its first `Body`'s first child element, whose
/// local name this returns.
fn open_body<'a>(xml: &mut Reader<'a>) -> Result<&'a str, WireError> {
    let root = xml.root()?;
    if root.local != "Envelope" {
        return Err(WireError::protocol(format!(
            "expected SOAP Envelope, found <{}>",
            root.name
        )));
    }
    while let Some(name) = xml.child()? {
        if name == "Body" {
            return xml
                .child()?
                .ok_or_else(|| WireError::protocol("SOAP Body is empty"));
        }
        xml.skip()?;
    }
    Err(WireError::protocol("envelope has no Body"))
}

/// The value of an open parameter element `<name>`: its first `<value>`.
/// Lenient mode: with no child element at all, its text is a string, or
/// nil if it has none.
fn read_param(xml: &mut Reader<'_>, name: &str) -> Result<Value, WireError> {
    let (mut value, mut text, mut elements) = (None, Cow::Borrowed(""), false);
    loop {
        match xml.next()? {
            Event::Start(tag) if tag.local == "value" && value.is_none() => {
                value = Some(read_value(xml)?)
            }
            Event::Start(_) => {
                elements = true;
                xml.skip()?
            }
            // With no child element there is one text event at most.
            Event::Text(more) => text = more,
            Event::End => break,
        }
    }
    match value {
        Some(value) => Ok(value),
        None if elements => Err(WireError::protocol(format!(
            "SOAP parameter <{name}> has unrecognized content"
        ))),
        None if text.is_empty() => Ok(Value::Nil),
        None => Ok(Value::Str(text.into_owned())),
    }
}

/// Decode a call envelope from the XML reader's events, by
/// [`crate::dom::soap::decode_call`]'s rules: the first `Body`'s first
/// element is the operation, and each of its child elements a parameter.
pub fn decode_call(text: &str) -> Result<RpcCall, WireError> {
    let mut xml = Reader::new(text);
    let op = open_body(&mut xml)?;
    if op == "Fault" {
        return Err(WireError::protocol("Fault in request body"));
    }
    let mut params = Vec::new();
    while let Some(name) = xml.child()? {
        params.push(read_param(&mut xml, name)?);
    }
    xml.finish()?;
    Ok(RpcCall {
        method: demangle_method(op),
        params,
        id: None,
    })
}

/// Decode a response envelope from the XML reader's events, by
/// [`crate::dom::soap::decode_response`]'s rules.
pub fn decode_response(text: &str) -> Result<RpcResponse, WireError> {
    let mut xml = Reader::new(text);
    let response = if open_body(&mut xml)? == "Fault" {
        let (mut code, mut message) = (None, None);
        while let Some(name) = xml.child()? {
            match name {
                "faultcode" if code.is_none() => code = Some(xml.text()?),
                "faultstring" if message.is_none() => message = Some(xml.text()?),
                _ => xml.skip()?,
            }
        }
        // Our encoder writes "SOAP-ENV:Server.<code>"; extract the numeric
        // tail when present, otherwise default to 0.
        let code = code.and_then(|text| text.rsplit('.').next()?.parse().ok());
        let message = message.map(Cow::into_owned).unwrap_or_default();
        RpcResponse::Fault(Fault::new(code.unwrap_or(0), message))
    } else {
        let name = (xml.child()?)
            .ok_or_else(|| WireError::protocol("SOAP response has no return parameter"))?;
        RpcResponse::Success(read_param(&mut xml, name)?)
    };
    xml.finish()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_response(response: &RpcResponse) -> String {
        let mut out = Vec::new();
        encode_response_into(response, &mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn call_roundtrip() {
        let call = RpcCall::new(
            "file.read",
            vec![Value::from("/a/b"), Value::Int(10), Value::Int(1 << 40)],
        );
        let doc = encode_call(&call);
        assert!(doc.contains("file_DOT_read"));
        assert_eq!(decode_call(&doc).unwrap(), call);
    }

    #[test]
    fn method_name_mangling() {
        assert_eq!(mangle_method("a.b.c"), "a_DOT_b_DOT_c");
        assert_eq!(demangle_method("a_DOT_b_DOT_c"), "a.b.c");
        let call = RpcCall::new("system.list_methods", vec![]);
        assert_eq!(
            decode_call(&encode_call(&call)).unwrap().method,
            "system.list_methods"
        );
    }

    #[test]
    fn response_roundtrip() {
        let ok = RpcResponse::Success(Value::structure([
            ("size", Value::Int(1024)),
            ("name", Value::from("f.root")),
        ]));
        assert_eq!(decode_response(&encode_response(&ok)).unwrap(), ok);
    }

    #[test]
    fn fault_roundtrip() {
        let fault = RpcResponse::Fault(Fault::new(4, "access denied"));
        let doc = encode_response(&fault);
        assert!(doc.contains("SOAP-ENV:Server.4"));
        assert_eq!(decode_response(&doc).unwrap(), fault);
    }

    #[test]
    fn foreign_prefix_accepted() {
        let doc = r#"<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/">
            <soapenv:Body>
              <ns1:echo_DOT_echo xmlns:ns1="urn:clarens">
                <arg><value><string>hi</string></value></arg>
              </ns1:echo_DOT_echo>
            </soapenv:Body>
          </soapenv:Envelope>"#;
        let call = decode_call(doc).unwrap();
        assert_eq!(call.method, "echo.echo");
        assert_eq!(call.params, vec![Value::from("hi")]);
    }

    #[test]
    fn bare_text_param_is_string() {
        let doc = r#"<Envelope><Body><m><a>plain</a><b/></m></Body></Envelope>"#;
        let call = decode_call(doc).unwrap();
        assert_eq!(call.params, vec![Value::from("plain"), Value::Nil]);
    }

    #[test]
    fn missing_body_rejected() {
        assert!(decode_call("<Envelope/>").is_err());
        assert!(decode_call("<Envelope><Body/></Envelope>").is_err());
        assert!(decode_call("<NotEnvelope><Body><m/></Body></NotEnvelope>").is_err());
    }

    /// Envelopes decode exactly as the DOM reference decodes them, and
    /// malformed ones are rejected by both.
    #[test]
    fn envelopes_decode_as_dom() {
        use crate::dom::soap as dom;
        let envelope = |body: &str| format!("<Envelope><Body>{body}</Body></Envelope>");
        let calls = [
            envelope("<m><a>plain</a><b/><c><value><i4>1</i4></value></c></m>"),
            envelope("text<m>x<a><junk/><value><i4>1</i4></value><value><bogus/></value></a>y</m><n/>"),
            envelope("<m><a>t<!-- c -->u<![CDATA[v]]></a><b>  </b><c>&lt;&amp;</c></m>"),
            "<s:Envelope xmlns:s=\"urn:s\"><s:Header><x/></s:Header><s:Body><ns:a_DOT_b xmlns:ns=\"urn:c\"/></s:Body><s:Body><Fault/></s:Body></s:Envelope>".to_owned(),
            "<Envelope><junk>1</junk><Body a=\"1\"><m><p><value><struct><member><name>k</name><value>v</value></member></struct></value></p></m></Body></Envelope>".to_owned(),
            // The first child named `Body`, not one nested deeper or merely ending so.
            "<Envelope><Head><Body/></Head><NoBody><m/></NoBody><Body><n/></Body></Envelope>".to_owned(),
        ];
        for doc in &calls {
            let expected =
                dom::decode_call(doc).unwrap_or_else(|e| panic!("DOM rejects {doc}: {e}"));
            assert_eq!(decode_call(doc).unwrap(), expected, "{doc}");
        }
        let responses = [
            envelope("<m:Response><return>plain</return></m:Response>"),
            envelope("<r><x/><y>z</y></r>"),
            envelope("<r><ret><junk/><value><i4>5</i4></value></ret><ret2><bogus/></ret2></r>"),
            envelope("<Fault><faultcode>Client</faultcode><faultstring>oops</faultstring></Fault>"),
            envelope("<Fault><faultstring>a<b/>c</faultstring><faultcode>x.7</faultcode><faultcode>x.8</faultcode></Fault>"),
            envelope("<SOAP-ENV:Fault/>"),
        ];
        for doc in &responses {
            let expected =
                dom::decode_response(doc).unwrap_or_else(|e| panic!("DOM rejects {doc}: {e}"));
            assert_eq!(decode_response(doc).unwrap(), expected, "{doc}");
        }
        let malformed = [
            envelope(""),
            envelope("text"),
            envelope("<Fault/>"),
            envelope("<m><a><b/></a></m>"),
            envelope("<m><a><value><i4>x</i4></value></a></m>"),
            "<Envelope><Body><m/></Envelope>".to_owned(),
            "<Envelope><Head/></Envelope>".to_owned(),
            "<Other><Body><m/></Body></Other>".to_owned(),
            format!("{}<junk/>", envelope("<m/>")),
        ];
        for doc in &malformed {
            assert!(dom::decode_call(doc).is_err(), "DOM accepts {doc}");
            assert!(decode_call(doc).is_err(), "accepted {doc}");
        }
        for doc in [
            envelope(""),
            envelope("<r/>"),
            envelope("<r><p><x/></p></r>"),
        ] {
            assert!(dom::decode_response(&doc).is_err(), "DOM accepts {doc}");
            assert!(decode_response(&doc).is_err(), "accepted {doc}");
        }
    }

    #[test]
    fn fault_without_numeric_code() {
        let doc = r#"<Envelope><Body><Fault><faultcode>Client</faultcode><faultstring>oops</faultstring></Fault></Body></Envelope>"#;
        match decode_response(doc).unwrap() {
            RpcResponse::Fault(f) => {
                assert_eq!(f.code, 0);
                assert_eq!(f.message, "oops");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn all_value_types_survive() {
        use crate::datetime::DateTime;
        let call = RpcCall::new(
            "t.m",
            vec![
                Value::Nil,
                Value::Bool(true),
                Value::Int(-5),
                Value::Double(2.5),
                Value::from("s"),
                Value::Bytes(vec![9, 8, 7]),
                Value::DateTime(DateTime::new(2005, 1, 1, 0, 0, 0).unwrap()),
                Value::array([Value::Int(1)]),
                Value::structure([("k", Value::from("v"))]),
            ],
        );
        assert_eq!(decode_call(&encode_call(&call)).unwrap(), call);
    }
}
