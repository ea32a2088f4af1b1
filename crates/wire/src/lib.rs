//! # clarens-wire — wire formats for the Clarens framework
//!
//! Clarens (van Lingen et al., ICPPW 2005) speaks several RPC protocols over
//! HTTP: XML-RPC, a SOAP 1.1 subset, and JSON-RPC. All of them marshal the
//! same small value algebra. This crate implements that algebra
//! ([`Value`]) together with self-contained codecs:
//!
//! * [`json`] — a JSON parser and writer (RFC 8259 subset, no external deps),
//! * [`xml`] — a small XML 1.0 pull reader and escaper (elements,
//!   attributes, text, CDATA, comments; no DTDs — enough for RPC payloads),
//! * [`xmlrpc`] — XML-RPC `methodCall` / `methodResponse` / `fault`,
//! * [`soap`] — SOAP 1.1 RPC-style envelopes and `Fault` elements,
//! * [`jsonrpc`] — JSON-RPC 1.0/2.0 requests and responses,
//! * [`binary`] — clarens-binary, the protocol nodes speak to each other,
//! * [`base64`] and [`percent`] — the byte-level codecs the above need,
//! * [`datetime`] — the ISO 8601 `dateTime.iso8601` flavour XML-RPC uses.
//!
//! Each protocol has one codec per direction, client and server alike:
//! streaming writers, and for XML one pull reader. [`dom`]'s element tree
//! is kept only for the GT3 baseline and as the tests' reference.
//!
//! Everything in this crate is deterministic and allocation-conscious; the
//! codecs are exercised by unit tests (including round-trip property tests in
//! the crate's `tests/` directory) because every byte on the wire in the
//! reproduction flows through here.

#![forbid(unsafe_code)]

pub mod base64;
pub mod binary;
pub mod datetime;
pub mod dom;
pub mod fault;
pub mod fuzz;
pub mod json;
pub mod jsonrpc;
pub mod percent;
pub mod soap;
pub mod value;
pub mod xml;
pub mod xmlrpc;

pub use fault::{Fault, WireError};
pub use value::Value;

/// Which RPC protocol a request used. The Clarens server answers in the same
/// protocol the client spoke (paper §2: "XML-RPC or SOAP encoded POST
/// requests return a similarly encoded response").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// XML-RPC (`text/xml` with a `<methodCall>` root).
    XmlRpc,
    /// SOAP 1.1 (`text/xml` with an `Envelope` root).
    Soap,
    /// JSON-RPC 1.0/2.0 (`application/json`).
    JsonRpc,
    /// clarens-binary: length-prefixed CBOR frames
    /// (`application/x-clarens-cbor`) for machine-to-machine grid traffic
    /// where XML envelope cost dominates. See [`binary`].
    Binary,
}

impl Protocol {
    /// The preferred `Content-Type` header value for this protocol.
    pub fn content_type(self) -> &'static str {
        match self {
            Protocol::XmlRpc | Protocol::Soap => "text/xml",
            Protocol::JsonRpc => "application/json",
            Protocol::Binary => binary::CONTENT_TYPE,
        }
    }

    /// Sniff the protocol from a request body (used when the Content-Type is
    /// ambiguous, e.g. both XML-RPC and SOAP arrive as `text/xml`).
    pub fn sniff(body: &[u8]) -> Option<Protocol> {
        if binary::is_frame(body) {
            return Some(Protocol::Binary);
        }
        let text = std::str::from_utf8(body).ok()?;
        let trimmed = text.trim_start();
        if trimmed.starts_with('{') || trimmed.starts_with('[') {
            return Some(Protocol::JsonRpc);
        }
        if trimmed.starts_with('<') {
            // Skip an XML declaration if present.
            let after = if let Some(rest) = trimmed.strip_prefix("<?") {
                match rest.find("?>") {
                    Some(pos) => rest[pos + 2..].trim_start(),
                    None => return None,
                }
            } else {
                trimmed
            };
            if !after.starts_with('<') {
                return None;
            }
            if after.starts_with("<methodCall") || after.starts_with("<methodResponse") {
                return Some(Protocol::XmlRpc);
            }
            // SOAP roots are namespace-prefixed: <SOAP-ENV:Envelope ...> or
            // <soap:Envelope> or plain <Envelope>.
            let name_end = after[1..]
                .find(|c: char| c.is_whitespace() || c == '>' || c == '/')
                .map(|i| i + 1)
                .unwrap_or(after.len());
            let root = &after[1..name_end];
            let local = root.rsplit(':').next().unwrap_or(root);
            if local == "Envelope" {
                return Some(Protocol::Soap);
            }
            // Any other XML root: assume XML-RPC-style payload is invalid,
            // but be permissive and let the XML-RPC decoder produce the error.
            return Some(Protocol::XmlRpc);
        }
        None
    }
}

/// An RPC call, independent of the protocol it arrived in.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcCall {
    /// Dotted hierarchical method name, e.g. `file.read` or
    /// `system.list_methods` (paper §2.2: "Methods have a natural
    /// hierarchical structure").
    pub method: String,
    /// Positional parameters.
    pub params: Vec<Value>,
    /// JSON-RPC id (echoed in the response); `None` for XML-RPC/SOAP.
    pub id: Option<Value>,
}

impl RpcCall {
    /// Convenience constructor.
    pub fn new(method: impl Into<String>, params: Vec<Value>) -> Self {
        RpcCall {
            method: method.into(),
            params,
            id: None,
        }
    }
}

/// An RPC response: either a result value or a fault.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcResponse {
    /// Successful invocation with the returned value.
    Success(Value),
    /// Fault with code and description.
    Fault(Fault),
}

impl RpcResponse {
    /// Unwrap a success value, converting faults to [`WireError::Fault`].
    pub fn into_result(self) -> Result<Value, WireError> {
        match self {
            RpcResponse::Success(v) => Ok(v),
            RpcResponse::Fault(f) => Err(WireError::Fault(f)),
        }
    }
}

/// Encode a call in the given protocol.
pub fn encode_call(protocol: Protocol, call: &RpcCall) -> Vec<u8> {
    match protocol {
        Protocol::XmlRpc => xmlrpc::encode_call(call).into_bytes(),
        Protocol::Soap => soap::encode_call(call).into_bytes(),
        Protocol::JsonRpc => jsonrpc::encode_call(call).into_bytes(),
        Protocol::Binary => binary::encode_call(call),
    }
}

/// Decode a call in the given protocol.
pub fn decode_call(protocol: Protocol, body: &[u8]) -> Result<RpcCall, WireError> {
    match protocol {
        Protocol::XmlRpc => xmlrpc::decode_call(text(body)?),
        Protocol::Soap => soap::decode_call(text(body)?),
        Protocol::JsonRpc => jsonrpc::decode_call(text(body)?),
        Protocol::Binary => binary::decode_call(body),
    }
}

fn text(body: &[u8]) -> Result<&str, WireError> {
    std::str::from_utf8(body).map_err(|_| WireError::parse("body is not UTF-8"))
}

/// Encode a response in the given protocol (`id` is echoed for JSON-RPC)
/// into a new buffer, with the server's encoder, [`encode_response_into`].
pub fn encode_response(protocol: Protocol, response: &RpcResponse, id: Option<&Value>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(protocol, response, id, &mut out);
    out
}

/// Encode a response in the given protocol directly into `out`, appending.
///
/// No element tree, no intermediate `String`s, base64 streamed straight
/// from `Value::Bytes` into the buffer. Output is byte-identical to the
/// per-protocol encoders of [`dom`] (property-tested in
/// `tests/stream_identity.rs`); the server passes a recycled buffer to make
/// the serialize phase allocation-free in steady state.
pub fn encode_response_into(
    protocol: Protocol,
    response: &RpcResponse,
    id: Option<&Value>,
    out: &mut Vec<u8>,
) {
    match protocol {
        Protocol::XmlRpc => xmlrpc::encode_response_into(response, out),
        Protocol::Soap => soap::encode_response_into(response, out),
        Protocol::JsonRpc => jsonrpc::encode_response_into(response, id, out),
        Protocol::Binary => binary::encode_response_into(response, out),
    }
}

/// A text encoder's output: ASCII markup, and text copied from `str`s.
fn utf8(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("the text encoders write UTF-8")
}

/// Decode a response in the given protocol.
pub fn decode_response(protocol: Protocol, body: &[u8]) -> Result<RpcResponse, WireError> {
    match protocol {
        Protocol::XmlRpc => xmlrpc::decode_response(text(body)?),
        Protocol::Soap => soap::decode_response(text(body)?),
        Protocol::JsonRpc => jsonrpc::decode_response(text(body)?),
        Protocol::Binary => binary::decode_response(body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sniff_json() {
        assert_eq!(
            Protocol::sniff(b"  {\"method\":\"a\"}"),
            Some(Protocol::JsonRpc)
        );
        assert_eq!(Protocol::sniff(b"[1,2]"), Some(Protocol::JsonRpc));
    }

    #[test]
    fn sniff_xmlrpc() {
        assert_eq!(
            Protocol::sniff(b"<?xml version=\"1.0\"?>\n<methodCall></methodCall>"),
            Some(Protocol::XmlRpc)
        );
        assert_eq!(
            Protocol::sniff(b"<methodResponse/>"),
            Some(Protocol::XmlRpc)
        );
    }

    #[test]
    fn sniff_soap() {
        assert_eq!(
            Protocol::sniff(b"<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"x\"/>"),
            Some(Protocol::Soap)
        );
        assert_eq!(Protocol::sniff(b"<Envelope/>"), Some(Protocol::Soap));
        assert_eq!(Protocol::sniff(b"<soap:Envelope>"), Some(Protocol::Soap));
    }

    #[test]
    fn sniff_garbage() {
        assert_eq!(Protocol::sniff(b"hello"), None);
        assert_eq!(Protocol::sniff(&[0xff, 0xfe]), None);
        assert_eq!(Protocol::sniff(b"<?xml version=\"1.0\""), None);
    }

    #[test]
    fn roundtrip_all_protocols() {
        let call = RpcCall {
            method: "system.list_methods".into(),
            params: vec![Value::Int(3), Value::from("abc")],
            id: Some(Value::Int(7)),
        };
        for proto in [
            Protocol::XmlRpc,
            Protocol::Soap,
            Protocol::JsonRpc,
            Protocol::Binary,
        ] {
            let bytes = encode_call(proto, &call);
            assert_eq!(Protocol::sniff(&bytes), Some(proto), "sniff {proto:?}");
            let decoded = decode_call(proto, &bytes).unwrap();
            assert_eq!(decoded.method, call.method);
            assert_eq!(decoded.params, call.params);
        }
    }

    #[test]
    fn response_into_result() {
        assert_eq!(
            RpcResponse::Success(Value::Int(1)).into_result().unwrap(),
            Value::Int(1)
        );
        let fault = Fault::new(3, "nope");
        match RpcResponse::Fault(fault.clone()).into_result() {
            Err(WireError::Fault(f)) => assert_eq!(f, fault),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
