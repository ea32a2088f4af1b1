//! JSON-RPC codec (1.0 wire shape with 2.0 compatibility).
//!
//! Clarens added JSON-RPC as a lightweight protocol for JavaScript portal
//! clients (paper §2 "Multiple protocols", §3 portal). We emit the 1.0
//! shape the 2005-era `jsonrpc` library used (`{"method", "params", "id"}`)
//! and accept 2.0 requests/responses (`"jsonrpc":"2.0"`, error objects with
//! `code`/`message`).
//!
//! The encoders write into a buffer with no intermediate [`Value`] tree
//! ([`crate::dom::jsonrpc`]'s are their reference); the decoders move the
//! members out of the one they parse.

use std::collections::BTreeMap;

use crate::fault::{Fault, WireError};
use crate::json::{write_into, write_string_into};
use crate::value::Value;
use crate::{RpcCall, RpcResponse};

/// Encode a call. If `call.id` is `None`, an id of `1` is used (JSON-RPC 1.0
/// requires an id for calls that expect a response). Members are written
/// in key order, as a `Value::Struct` renders them.
pub fn encode_call(call: &RpcCall) -> String {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(b"{\"id\":");
    write_into(&mut out, call.id.as_ref().unwrap_or(&Value::Int(1)));
    out.extend_from_slice(b",\"method\":");
    write_string_into(&mut out, &call.method);
    out.extend_from_slice(b",\"params\":[");
    for (i, param) in call.params.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_into(&mut out, param);
    }
    out.extend_from_slice(b"]}");
    crate::utf8(out)
}

/// The JSON object `text` holds, or what is wrong with it.
fn object(text: &str, what: &str) -> Result<BTreeMap<String, Value>, WireError> {
    match crate::json::parse(text)? {
        Value::Struct(obj) => Ok(obj),
        _ => Err(WireError::protocol(format!(
            "JSON-RPC {what} must be an object"
        ))),
    }
}

/// Decode a call (accepts both 1.0 and 2.0 shapes).
pub fn decode_call(text: &str) -> Result<RpcCall, WireError> {
    let mut obj = object(text, "request")?;
    if let Some(version) = obj.get("jsonrpc") {
        if version.as_str() != Some("2.0") {
            return Err(WireError::protocol("unsupported jsonrpc version"));
        }
    }
    let method = match obj.remove("method") {
        Some(Value::Str(method)) if !method.is_empty() => method,
        Some(Value::Str(_)) => return Err(WireError::protocol("empty method")),
        _ => return Err(WireError::protocol("missing method")),
    };
    let params = match obj.remove("params") {
        None => Vec::new(),
        Some(Value::Array(items)) => items,
        // 2.0 named params: pass the object through as a single struct param.
        Some(v @ Value::Struct(_)) => vec![v],
        Some(other) => {
            return Err(WireError::protocol(format!(
                "params must be array or object, found {}",
                other.type_name()
            )))
        }
    };
    let id = obj.remove("id");
    Ok(RpcCall { method, params, id })
}

/// [`encode_response_into`] a new `String`.
pub fn encode_response(response: &RpcResponse, id: Option<&Value>) -> String {
    let mut out = Vec::new();
    encode_response_into(response, id, &mut out);
    crate::utf8(out)
}

/// Encode a response directly into `out` without building the intermediate
/// response `Value::Struct` (and its clones of the result value).
///
/// Byte-identical to [`crate::dom::jsonrpc::encode_response`], which
/// renders a `BTreeMap`, whose iteration order for the three members is
/// `error` < `id` < `result` (and `code` < `message` inside the error
/// object) — enforced by property tests in `tests/stream_identity.rs`.
pub fn encode_response_into(response: &RpcResponse, id: Option<&Value>, out: &mut Vec<u8>) {
    use std::io::Write as _;
    let default_id = Value::Int(1);
    let id = id.unwrap_or(&default_id);
    out.extend_from_slice(b"{\"error\":");
    match response {
        RpcResponse::Success(_) => out.extend_from_slice(b"null"),
        RpcResponse::Fault(fault) => {
            let _ = write!(out, "{{\"code\":{},\"message\":", fault.code);
            crate::json::write_string_into(out, &fault.message);
            out.push(b'}');
        }
    }
    out.extend_from_slice(b",\"id\":");
    crate::json::write_into(out, id);
    out.extend_from_slice(b",\"result\":");
    match response {
        RpcResponse::Success(value) => crate::json::write_into(out, value),
        RpcResponse::Fault(_) => out.extend_from_slice(b"null"),
    }
    out.push(b'}');
}

/// Decode a response (accepts both 1.0 and 2.0 shapes).
pub fn decode_response(text: &str) -> Result<RpcResponse, WireError> {
    let mut obj = object(text, "response")?;
    match obj.get("error") {
        Some(err) if !err.is_nil() => {
            // 2.0-style error object, or a bare string (some 1.0 impls).
            if let Some(emap) = err.as_struct() {
                let code = emap.get("code").and_then(Value::as_int).unwrap_or(0);
                let message = emap
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned();
                return Ok(RpcResponse::Fault(Fault::new(code, message)));
            }
            if let Some(msg) = err.as_str() {
                return Ok(RpcResponse::Fault(Fault::new(0, msg)));
            }
            return Err(WireError::protocol("error member must be object or string"));
        }
        _ => {}
    }
    match obj.remove("result") {
        Some(result) => Ok(RpcResponse::Success(result)),
        None => Err(WireError::protocol("response has neither result nor error")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_roundtrip() {
        let call = RpcCall {
            method: "vo.add_member".into(),
            params: vec![Value::from("groupA"), Value::from("/O=org/CN=Jo")],
            id: Some(Value::Int(9)),
        };
        let text = encode_call(&call);
        assert_eq!(decode_call(&text).unwrap(), call);
    }

    #[test]
    fn call_default_id() {
        let call = RpcCall::new("m", vec![]);
        let decoded = decode_call(&encode_call(&call)).unwrap();
        assert_eq!(decoded.id, Some(Value::Int(1)));
    }

    #[test]
    fn v2_call_accepted() {
        let text = r#"{"jsonrpc":"2.0","method":"sum","params":[1,2],"id":"abc"}"#;
        let call = decode_call(text).unwrap();
        assert_eq!(call.method, "sum");
        assert_eq!(call.params, vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(call.id, Some(Value::from("abc")));
    }

    #[test]
    fn v2_named_params_become_single_struct() {
        let text = r#"{"jsonrpc":"2.0","method":"m","params":{"a":1},"id":1}"#;
        let call = decode_call(text).unwrap();
        assert_eq!(call.params.len(), 1);
        assert_eq!(call.params[0].get("a").unwrap().as_int(), Some(1));
    }

    #[test]
    fn bad_version_rejected() {
        assert!(decode_call(r#"{"jsonrpc":"3.0","method":"m","id":1}"#).is_err());
    }

    #[test]
    fn missing_method_rejected() {
        assert!(decode_call(r#"{"id":1}"#).is_err());
        assert!(decode_call(r#"{"method":"","id":1}"#).is_err());
        assert!(decode_call(r#"[1,2]"#).is_err());
        assert!(decode_call(r#"{"method":"m","params":"str","id":1}"#).is_err());
    }

    #[test]
    fn response_roundtrip() {
        let ok = RpcResponse::Success(Value::array([Value::Int(1)]));
        assert_eq!(
            decode_response(&encode_response(&ok, Some(&Value::Int(5)))).unwrap(),
            ok
        );
        let fault = RpcResponse::Fault(Fault::new(4, "denied"));
        assert_eq!(
            decode_response(&encode_response(&fault, None)).unwrap(),
            fault
        );
    }

    #[test]
    fn success_null_result_allowed() {
        let ok = RpcResponse::Success(Value::Nil);
        assert_eq!(decode_response(&encode_response(&ok, None)).unwrap(), ok);
    }

    #[test]
    fn id_echoed() {
        let text = encode_response(
            &RpcResponse::Success(Value::Int(2)),
            Some(&Value::from("q")),
        );
        let obj = crate::json::parse(&text).unwrap();
        assert_eq!(obj.get("id").unwrap().as_str(), Some("q"));
    }

    #[test]
    fn bare_string_error_accepted() {
        let resp = decode_response(r#"{"result":null,"error":"boom","id":1}"#).unwrap();
        assert_eq!(resp, RpcResponse::Fault(Fault::new(0, "boom")));
    }

    #[test]
    fn empty_object_rejected() {
        assert!(decode_response("{}").is_err());
        assert!(decode_response("[]").is_err());
        assert!(decode_response(r#"{"error":1,"id":1}"#).is_err());
    }
}
