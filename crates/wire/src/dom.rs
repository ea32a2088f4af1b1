//! The element tree: the second XML codec, kept where a tree is the point.
//!
//! No request path, client or server, builds a tree: they stream. What is
//! left of the tree codec lives here, unchanged, for three users only: the
//! GT3 baseline (`crates/baseline`), slow on purpose; the reference
//! encoders `tests/stream_identity.rs` holds the streaming ones
//! byte-identical to; and the oracles [`crate::fuzz::xmlrpc_divergence`]
//! and the property tests hold the event decoders equal to. Nothing else
//! imports this module.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::xml::{escape_into, Cursor, Event, Reader, Tag};
use crate::{Fault, RpcCall, RpcResponse, Value, WireError};

/// An XML element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Tag name as written, possibly namespace-prefixed.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

/// A node in the parsed tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Child element.
    Element(Element),
    /// Character data (entities decoded, CDATA merged).
    Text(String),
}

impl Element {
    /// Create an empty element.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder: add an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Builder: add a child element.
    pub fn child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder: add text content.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// The name with any namespace prefix removed.
    pub fn local_name(&self) -> &str {
        self.name.rsplit(':').next().unwrap_or(&self.name)
    }

    /// Attribute lookup by exact name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Iterate over child elements.
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// First child element with the given *local* name.
    pub fn find(&self, local: &str) -> Option<&Element> {
        self.elements().find(|e| e.local_name() == local)
    }

    /// All child elements with the given local name.
    pub fn find_all<'a>(&'a self, local: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.elements().filter(move |e| e.local_name() == local)
    }

    /// The first *element* child, if any (XML-RPC `<value>` content).
    pub fn first_element(&self) -> Option<&Element> {
        self.elements().next()
    }

    /// Concatenated text content of this element (direct children only).
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        for node in &self.children {
            if let Node::Text(t) = node {
                out.push_str(t);
            }
        }
        out
    }

    /// Serialize this element as a document with an XML declaration.
    pub fn to_document(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        self.write(&mut out);
        out
    }

    /// Serialize this element (no declaration).
    pub fn write(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(v, out, true);
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for child in &self.children {
            match child {
                Node::Element(e) => e.write(out),
                Node::Text(t) => escape_into(t, out, false),
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }
}

/// Parse an XML document and return the root element.
pub fn parse(text: &str) -> Result<Element, WireError> {
    let mut reader = Reader::new(text);
    let root = reader.root()?;
    build(&mut reader, root)
}

/// The element `tag` opened, read up to its end tag.
fn build(reader: &mut Reader<'_>, tag: Tag<'_>) -> Result<Element, WireError> {
    let mut attrs = Cursor {
        text: tag.attrs,
        pos: 0,
    };
    let mut element = Element {
        name: tag.name.to_owned(),
        attributes: std::iter::from_fn(|| attrs.attribute().ok().flatten())
            .map(|(k, v)| (k.to_owned(), v.into_owned()))
            .collect(),
        children: Vec::new(),
    };
    loop {
        match reader.next()? {
            Event::Start(child) => element.children.push(Node::Element(build(reader, child)?)),
            Event::Text(text) => element.children.push(Node::Text(text.into_owned())),
            Event::End => return Ok(element),
        }
    }
}

/// The XML-RPC tree encoders and decoders.
pub mod xmlrpc {
    use super::*;
    use crate::xmlrpc::scalar;

    /// Encode a method call as an XML-RPC `<methodCall>` document: the
    /// reference for [`crate::xmlrpc::encode_call`].
    pub fn encode_call(call: &RpcCall) -> String {
        let mut params = Element::new("params");
        for param in &call.params {
            params = params.child(Element::new("param").child(encode_value(param)));
        }
        Element::new("methodCall")
            .child(Element::new("methodName").text(call.method.clone()))
            .child(params)
            .to_document()
    }

    /// Encode a response (`<params>` on success, `<fault>` on failure): the
    /// reference for [`crate::xmlrpc::encode_response_into`].
    pub fn encode_response(response: &RpcResponse) -> String {
        let root = match response {
            RpcResponse::Success(value) => Element::new("methodResponse").child(
                Element::new("params").child(Element::new("param").child(encode_value(value))),
            ),
            RpcResponse::Fault(fault) => {
                let detail = Value::structure([
                    ("faultCode", Value::Int(fault.code)),
                    ("faultString", Value::Str(fault.message.clone())),
                ]);
                Element::new("methodResponse")
                    .child(Element::new("fault").child(encode_value(&detail)))
            }
        };
        root.to_document()
    }

    /// Encode one value as a `<value>` element.
    pub fn encode_value(value: &Value) -> Element {
        let inner = match value {
            Value::Nil => Element::new("nil"),
            Value::Bool(b) => Element::new("boolean").text(if *b { "1" } else { "0" }),
            Value::Int(i) => {
                if i32::try_from(*i).is_ok() {
                    Element::new("i4").text(i.to_string())
                } else {
                    Element::new("i8").text(i.to_string())
                }
            }
            Value::Double(d) => Element::new("double").text(format_double(*d)),
            Value::Str(s) => Element::new("string").text(s.clone()),
            Value::Bytes(b) => Element::new("base64").text(crate::base64::encode(b)),
            Value::DateTime(dt) => Element::new("dateTime.iso8601").text(dt.to_string()),
            Value::Array(items) => {
                let mut data = Element::new("data");
                for item in items {
                    data = data.child(encode_value(item));
                }
                Element::new("array").child(data)
            }
            Value::Struct(map) => {
                let mut st = Element::new("struct");
                for (k, v) in map {
                    st = st.child(
                        Element::new("member")
                            .child(Element::new("name").text(k.clone()))
                            .child(encode_value(v)),
                    );
                }
                st
            }
        };
        Element::new("value").child(inner)
    }

    /// XML-RPC requires a decimal representation for doubles (no exponents).
    fn format_double(d: f64) -> String {
        if !d.is_finite() {
            // The spec has no representation for non-finite doubles; emit 0 with
            // a marker impossible in legit traffic rather than invalid XML.
            return "0.0".to_string();
        }
        let s = format!("{d}");
        if s.contains('e') || s.contains('E') {
            // Expand scientific notation into plain decimal.
            format!("{d:.17}")
        } else if !s.contains('.') {
            format!("{s}.0")
        } else {
            s
        }
    }

    /// Decode a `<methodCall>` document: the oracle of
    /// [`crate::xmlrpc::decode_call`].
    pub fn decode_call(text: &str) -> Result<RpcCall, WireError> {
        let root = parse(text)?;
        if root.local_name() != "methodCall" {
            return Err(WireError::protocol(format!(
                "expected <methodCall>, found <{}>",
                root.name
            )));
        }
        let method = root
            .find("methodName")
            .ok_or_else(|| WireError::protocol("missing <methodName>"))?
            .text_content()
            .trim()
            .to_owned();
        if method.is_empty() {
            return Err(WireError::protocol("empty methodName"));
        }
        let params = decode_params(&root)?;
        Ok(RpcCall {
            method,
            params,
            id: None,
        })
    }

    fn decode_params(root: &Element) -> Result<Vec<Value>, WireError> {
        let mut out = Vec::new();
        if let Some(params) = root.find("params") {
            for param in params.find_all("param") {
                let value = param
                    .find("value")
                    .ok_or_else(|| WireError::protocol("<param> without <value>"))?;
                out.push(decode_value(value)?);
            }
        }
        Ok(out)
    }

    /// Decode a `<methodResponse>` document: the oracle of
    /// [`crate::xmlrpc::decode_response`].
    pub fn decode_response(text: &str) -> Result<RpcResponse, WireError> {
        let root = parse(text)?;
        if root.local_name() != "methodResponse" {
            return Err(WireError::protocol(format!(
                "expected <methodResponse>, found <{}>",
                root.name
            )));
        }
        if let Some(fault) = root.find("fault") {
            let value = fault
                .find("value")
                .ok_or_else(|| WireError::protocol("<fault> without <value>"))?;
            let detail = decode_value(value)?;
            let code = detail
                .get("faultCode")
                .and_then(Value::as_int)
                .ok_or_else(|| WireError::protocol("fault missing faultCode"))?;
            let message = detail
                .get("faultString")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned();
            return Ok(RpcResponse::Fault(Fault::new(code, message)));
        }
        let params = decode_params(&root)?;
        match params.len() {
            1 => Ok(RpcResponse::Success(params.into_iter().next().unwrap())),
            0 => Err(WireError::protocol(
                "response has no <params> and no <fault>",
            )),
            n => Err(WireError::protocol(format!(
                "response has {n} params, expected 1"
            ))),
        }
    }

    /// Decode one `<value>` element.
    pub fn decode_value(value_el: &Element) -> Result<Value, WireError> {
        if value_el.local_name() != "value" {
            return Err(WireError::protocol(format!(
                "expected <value>, found <{}>",
                value_el.name
            )));
        }
        let typed = match value_el.first_element() {
            Some(el) => el,
            // Bare text inside <value> is a string per the spec.
            None => return Ok(Value::Str(value_el.text_content())),
        };
        match typed.local_name() {
            "array" => {
                let data = typed
                    .find("data")
                    .ok_or_else(|| WireError::protocol("<array> without <data>"))?;
                let items: Result<_, _> = data.find_all("value").map(decode_value).collect();
                items.map(Value::Array)
            }
            "struct" => {
                let mut map = BTreeMap::new();
                for member in typed.find_all("member") {
                    let name = member
                        .find("name")
                        .ok_or_else(|| WireError::protocol("<member> without <name>"))?
                        .text_content();
                    let value = member
                        .find("value")
                        .ok_or_else(|| WireError::protocol("<member> without <value>"))?;
                    map.insert(name, decode_value(value)?);
                }
                Ok(Value::Struct(map))
            }
            kind => scalar(kind, Cow::Owned(typed.text_content())),
        }
    }
}

/// The SOAP tree encoders and decoders.
pub mod soap {
    use super::*;
    use crate::soap::{demangle_method, mangle_method};

    const ENVELOPE_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";

    /// Encode a call as a SOAP envelope: the reference for
    /// [`crate::soap::encode_call`].
    pub fn encode_call(call: &RpcCall) -> String {
        let mut op = Element::new(format!("m:{}", mangle_method(&call.method)))
            .attr("xmlns:m", "urn:clarens");
        for (i, param) in call.params.iter().enumerate() {
            op = op.child(encode_param(&format!("p{i}"), param));
        }
        Element::new("SOAP-ENV:Envelope")
            .attr("xmlns:SOAP-ENV", ENVELOPE_NS)
            .child(Element::new("SOAP-ENV:Body").child(op))
            .to_document()
    }

    /// Encode a response envelope: the reference for
    /// [`crate::soap::encode_response_into`], and the GT3 baseline's.
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

    /// Encode one named parameter. The child structure reuses the XML-RPC value
    /// element lexicon, which keeps the two XML protocols' type systems aligned.
    fn encode_param(name: &str, value: &Value) -> Element {
        Element::new(name).child(super::xmlrpc::encode_value(value))
    }

    fn decode_param(el: &Element) -> Result<Value, WireError> {
        match el.find("value") {
            Some(value_el) => super::xmlrpc::decode_value(value_el),
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

    /// Decode a call envelope: the oracle of [`crate::soap::decode_call`],
    /// and the GT3 baseline's decoder.
    pub fn decode_call(text: &str) -> Result<RpcCall, WireError> {
        let root = parse(text)?;
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

    /// Decode a response envelope: the oracle of
    /// [`crate::soap::decode_response`].
    pub fn decode_response(text: &str) -> Result<RpcResponse, WireError> {
        let root = parse(text)?;
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
}

/// The JSON-RPC encoders that build a [`Value`] tree first.
pub mod jsonrpc {
    use super::*;

    /// Encode a call (id `1` if `call.id` is `None`): the reference for
    /// [`crate::jsonrpc::encode_call`].
    pub fn encode_call(call: &RpcCall) -> String {
        let obj = Value::structure([
            ("method", Value::Str(call.method.clone())),
            ("params", Value::Array(call.params.clone())),
            ("id", call.id.clone().unwrap_or(Value::Int(1))),
        ]);
        crate::json::to_string(&obj)
    }

    /// Encode a response, echoing `id` (default `1`): the reference for
    /// [`crate::jsonrpc::encode_response_into`].
    pub fn encode_response(response: &RpcResponse, id: Option<&Value>) -> String {
        let id = id.cloned().unwrap_or(Value::Int(1));
        let obj = match response {
            RpcResponse::Success(value) => {
                Value::structure([("result", value.clone()), ("error", Value::Nil), ("id", id)])
            }
            RpcResponse::Fault(fault) => Value::structure([
                ("result", Value::Nil),
                (
                    "error",
                    Value::structure([
                        ("code", Value::Int(fault.code)),
                        ("message", Value::Str(fault.message.clone())),
                    ]),
                ),
                ("id", id),
            ]),
        };
        crate::json::to_string(&obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xml::MAX_DEPTH;

    #[test]
    fn basic_document() {
        let root = parse("<?xml version=\"1.0\"?><a><b x=\"1\">hi</b><c/></a>").unwrap();
        assert_eq!(root.name, "a");
        assert_eq!(root.elements().count(), 2);
        let b = root.find("b").unwrap();
        assert_eq!(b.attribute("x"), Some("1"));
        assert_eq!(b.text_content(), "hi");
        assert!(root.find("c").unwrap().children.is_empty());
        assert!(root.find("zzz").is_none());
    }

    #[test]
    fn entities_decoded() {
        let root = parse("<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;</a>").unwrap();
        assert_eq!(root.text_content(), "<>&'\"AB");
    }

    #[test]
    fn unknown_entity_rejected() {
        assert!(parse("<a>&nbsp;</a>").is_err());
        assert!(parse("<a>&unterminated</a>").is_err());
    }

    #[test]
    fn cdata() {
        let root = parse("<a><![CDATA[<raw> & text]]></a>").unwrap();
        assert_eq!(root.text_content(), "<raw> & text");
        // CDATA merges with adjacent text.
        let root = parse("<a>x<![CDATA[y]]>z</a>").unwrap();
        assert_eq!(root.text_content(), "xyz");
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn comments_and_pis_skipped() {
        let root = parse("<!-- hi --><?pi data?><a><!-- inner --><b/><?x?>text</a>").unwrap();
        assert_eq!(root.elements().count(), 1);
        assert_eq!(root.text_content(), "text");
    }

    #[test]
    fn doctype_skipped_not_expanded() {
        let doc = "<!DOCTYPE lolz [<!ENTITY lol \"lol\">]><a>safe</a>";
        let root = parse(doc).unwrap();
        assert_eq!(root.text_content(), "safe");
        // But references to DTD-defined entities still fail (no expansion).
        assert!(parse("<!DOCTYPE l [<!ENTITY lol \"lol\">]><a>&lol;</a>").is_err());
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(parse("<a><b></a></b>").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a></a><b></b>").is_err());
    }

    #[test]
    fn attributes_with_entities_and_quotes() {
        let root = parse("<a x=\"&lt;v&gt;\" y='single \"double\"'/>").unwrap();
        assert_eq!(root.attribute("x"), Some("<v>"));
        assert_eq!(root.attribute("y"), Some("single \"double\""));
    }

    #[test]
    fn namespace_prefixes() {
        let root = parse("<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"uri\"/>").unwrap();
        assert_eq!(root.name, "SOAP-ENV:Envelope");
        assert_eq!(root.local_name(), "Envelope");
    }

    #[test]
    fn writer_roundtrip() {
        let el = Element::new("methodCall")
            .child(Element::new("methodName").text("file.read"))
            .child(Element::new("params").child(Element::new("param").child(
                Element::new("value").child(Element::new("string").text("a<b>&c \"quoted\"")),
            )));
        let doc = el.to_document();
        let reparsed = parse(&doc).unwrap();
        assert_eq!(reparsed, el);
    }

    #[test]
    fn control_chars_roundtrip_via_numeric_refs() {
        let el = Element::new("a").text("\u{01}ok\u{1f}");
        let doc = el.to_document();
        assert!(doc.contains("&#1;"));
        assert_eq!(parse(&doc).unwrap().text_content(), "\u{01}ok\u{1f}");
    }

    #[test]
    fn depth_bounded() {
        let deep = "<a>".repeat(MAX_DEPTH + 2) + &"</a>".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn whitespace_preserved_in_text() {
        let root = parse("<a>  spaced  </a>").unwrap();
        assert_eq!(root.text_content(), "  spaced  ");
    }

    #[test]
    fn self_closing_with_space() {
        let root = parse("<a />").unwrap();
        assert_eq!(root.name, "a");
    }

    #[test]
    fn find_all_filters_by_local_name() {
        let root = parse("<a><m>1</m><n/><m>2</m></a>").unwrap();
        let texts: Vec<String> = root.find_all("m").map(|e| e.text_content()).collect();
        assert_eq!(texts, vec!["1", "2"]);
    }
}
