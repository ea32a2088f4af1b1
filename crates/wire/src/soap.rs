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

use crate::fault::{Fault, WireError};
use crate::value::Value;
use crate::xml::{self, Element};
use crate::{RpcCall, RpcResponse};

const ENVELOPE_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";

/// Dots cannot appear in XML element names used for RPC operation names.
fn mangle_method(method: &str) -> String {
    method.replace('.', "_DOT_")
}

fn demangle_method(name: &str) -> String {
    name.replace("_DOT_", ".")
}

/// Encode a call as a SOAP envelope.
pub fn encode_call(call: &RpcCall) -> String {
    let mut op =
        Element::new(format!("m:{}", mangle_method(&call.method))).attr("xmlns:m", "urn:clarens");
    for (i, param) in call.params.iter().enumerate() {
        op = op.child(encode_param(&format!("p{i}"), param));
    }
    Element::new("SOAP-ENV:Envelope")
        .attr("xmlns:SOAP-ENV", ENVELOPE_NS)
        .child(Element::new("SOAP-ENV:Body").child(op))
        .to_document()
}

/// Encode a response envelope (the reference for [`encode_response_into`]).
pub fn encode_response(response: &RpcResponse) -> String {
    let body_child = match response {
        RpcResponse::Success(value) => Element::new("m:Response")
            .attr("xmlns:m", "urn:clarens")
            .child(encode_param("return", value)),
        RpcResponse::Fault(fault) => Element::new("SOAP-ENV:Fault")
            .child(Element::new("faultcode").text(format!("SOAP-ENV:Server.{}", fault.code)))
            .child(Element::new("faultstring").text(fault.message.clone())),
    };
    Element::new("SOAP-ENV:Envelope")
        .attr("xmlns:SOAP-ENV", ENVELOPE_NS)
        .child(Element::new("SOAP-ENV:Body").child(body_child))
        .to_document()
}

/// Encode a response envelope directly into `out` — byte-identical to
/// [`encode_response`]`.into_bytes()` (property-tested in
/// `tests/stream_identity.rs`); the DOM form stays as the reference.
pub fn encode_response_into(response: &RpcResponse, out: &mut Vec<u8>) {
    use std::io::Write as _;
    out.extend_from_slice(
        b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
          <SOAP-ENV:Envelope xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\">\
          <SOAP-ENV:Body>",
    );
    match response {
        RpcResponse::Success(value) => {
            out.extend_from_slice(b"<m:Response xmlns:m=\"urn:clarens\"><return>");
            crate::xmlrpc::encode_value_into(value, out);
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
    out.extend_from_slice(b"</SOAP-ENV:Body></SOAP-ENV:Envelope>");
}

/// Encode one named parameter. The child structure reuses the XML-RPC value
/// element lexicon, which keeps the two XML protocols' type systems aligned.
fn encode_param(name: &str, value: &Value) -> Element {
    Element::new(name).child(crate::xmlrpc::encode_value(value))
}

fn decode_param(el: &Element) -> Result<Value, WireError> {
    match el.find("value") {
        Some(value_el) => crate::xmlrpc::decode_value(value_el),
        // Lenient mode: a parameter with bare text is a string; an empty
        // parameter is nil.
        None => {
            if el.elements().next().is_none() {
                let text = el.text_content();
                if text.is_empty() {
                    Ok(Value::Nil)
                } else {
                    Ok(Value::Str(text))
                }
            } else {
                Err(WireError::protocol(format!(
                    "SOAP parameter <{}> has unrecognized content",
                    el.name
                )))
            }
        }
    }
}

fn find_body(root: &Element) -> Result<&Element, WireError> {
    if root.local_name() != "Envelope" {
        return Err(WireError::protocol(format!(
            "expected SOAP Envelope, found <{}>",
            root.name
        )));
    }
    root.find("Body")
        .ok_or_else(|| WireError::protocol("envelope has no Body"))
}

/// Decode a call envelope.
pub fn decode_call(text: &str) -> Result<RpcCall, WireError> {
    let root = xml::parse(text)?;
    let body = find_body(&root)?;
    let op = body
        .elements()
        .next()
        .ok_or_else(|| WireError::protocol("SOAP Body is empty"))?;
    if op.local_name() == "Fault" {
        return Err(WireError::protocol("Fault in request body"));
    }
    let method = demangle_method(op.local_name());
    let mut params = Vec::new();
    for param_el in op.elements() {
        params.push(decode_param(param_el)?);
    }
    Ok(RpcCall {
        method,
        params,
        id: None,
    })
}

/// Decode a response envelope.
pub fn decode_response(text: &str) -> Result<RpcResponse, WireError> {
    let root = xml::parse(text)?;
    let body = find_body(&root)?;
    let first = body
        .elements()
        .next()
        .ok_or_else(|| WireError::protocol("SOAP Body is empty"))?;
    if first.local_name() == "Fault" {
        let code_text = first
            .find("faultcode")
            .map(|e| e.text_content())
            .unwrap_or_default();
        // Our encoder writes "SOAP-ENV:Server.<code>"; extract the numeric
        // tail when present, otherwise default to 0.
        let code = code_text
            .rsplit('.')
            .next()
            .and_then(|tail| tail.parse::<i64>().ok())
            .unwrap_or(0);
        let message = first
            .find("faultstring")
            .map(|e| e.text_content())
            .unwrap_or_default();
        return Ok(RpcResponse::Fault(Fault::new(code, message)));
    }
    let ret = first
        .elements()
        .next()
        .ok_or_else(|| WireError::protocol("SOAP response has no return parameter"))?;
    Ok(RpcResponse::Success(decode_param(ret)?))
}

#[cfg(test)]
mod tests {
    use super::*;

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
