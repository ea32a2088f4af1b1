//! GLUE-style schema objects for the monitoring / discovery network.
//!
//! "Information provided to MonALISA is usually arranged roughly as
//! described by the so-called GLUE schema, as a hierarchy of servers,
//! farms, nodes and key/numerical value pairs" (paper §2.4). These types
//! are that hierarchy, plus the service descriptor Clarens servers publish
//! so that clients can discover them.

use std::collections::BTreeMap;

use clarens_wire::{json, Value, WireError};

/// A published web-service descriptor: where a service lives and what it
/// offers. This is what the Clarens discovery service registers and what
/// clients query for, enabling "service calls that are location
/// independent".
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDescriptor {
    /// The server's base URL, e.g. `http://tier2.caltech.edu:8080/clarens`.
    pub url: String,
    /// Server distinguished name (host certificate subject).
    pub server_dn: String,
    /// Service (module) name, e.g. `file` or `proof`.
    pub service: String,
    /// Methods the service exports, e.g. `["file.read", "file.ls"]`.
    pub methods: Vec<String>,
    /// Free-form attributes (version, site, experiment, ...).
    pub attributes: BTreeMap<String, String>,
    /// Publication timestamp (Unix seconds); stations expire stale entries.
    pub timestamp: i64,
}

impl ServiceDescriptor {
    /// Unique registry key: a service instance is (url, service).
    pub fn key(&self) -> String {
        format!("{}|{}", self.url, self.service)
    }

    /// The `host:port` part of [`url`](Self::url), e.g. `tier2.caltech.edu:8080`
    /// — what a client connects to. `None` for a url it cannot route.
    pub fn host_port(&self) -> Option<&str> {
        let rest = self
            .url
            .strip_prefix("http://")
            .or_else(|| self.url.strip_prefix("https://"))?;
        let hp = &rest[..rest.find('/').unwrap_or(rest.len())];
        (!hp.is_empty()).then_some(hp)
    }

    /// The published `p95_us` latency attribute — the load signal balanced
    /// clients and `proxy.call` steer by. A server that published none
    /// ranks last.
    pub fn p95_us(&self) -> u64 {
        self.attributes
            .get("p95_us")
            .and_then(|v| v.parse().ok())
            .unwrap_or(u64::MAX)
    }

    /// Encode to the wire value (JSON object on the UDP datagram).
    pub fn to_value(&self) -> Value {
        Value::structure([
            ("kind", Value::from("service")),
            ("url", Value::from(self.url.clone())),
            ("server_dn", Value::from(self.server_dn.clone())),
            ("service", Value::from(self.service.clone())),
            (
                "methods",
                Value::Array(self.methods.iter().cloned().map(Value::from).collect()),
            ),
            (
                "attributes",
                Value::Struct(
                    self.attributes
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(v.clone())))
                        .collect(),
                ),
            ),
            ("timestamp", Value::Int(self.timestamp)),
        ])
    }

    /// Decode from the wire value.
    pub fn from_value(value: &Value) -> Result<Self, WireError> {
        let get_str = |k: &str| -> Result<String, WireError> {
            value
                .get(k)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| WireError::protocol(format!("descriptor missing {k}")))
        };
        let methods = value
            .get("methods")
            .and_then(Value::as_array)
            .ok_or_else(|| WireError::protocol("descriptor missing methods"))?
            .iter()
            .filter_map(|m| m.as_str().map(str::to_owned))
            .collect();
        let attributes = value
            .get("attributes")
            .and_then(Value::as_struct)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_owned())))
                    .collect()
            })
            .unwrap_or_default();
        Ok(ServiceDescriptor {
            url: get_str("url")?,
            server_dn: get_str("server_dn")?,
            service: get_str("service")?,
            methods,
            attributes,
            timestamp: value
                .get("timestamp")
                .and_then(Value::as_int)
                .ok_or_else(|| WireError::protocol("descriptor missing timestamp"))?,
        })
    }

    /// Serialize for a UDP datagram.
    pub fn to_datagram(&self) -> Vec<u8> {
        json::to_string(&self.to_value()).into_bytes()
    }
}

/// A numeric monitoring sample: `farm / node / key = value` — the
/// "key/numerical value pairs" level of the GLUE hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSample {
    /// Computing farm (site).
    pub farm: String,
    /// Node within the farm.
    pub node: String,
    /// Metric name, e.g. `cpu_load` or `free_disk_mb`.
    pub key: String,
    /// Metric value.
    pub value: f64,
    /// Sample timestamp (Unix seconds).
    pub timestamp: i64,
}

impl MonitorSample {
    /// Registry key.
    pub fn key_path(&self) -> String {
        format!("{}/{}/{}", self.farm, self.node, self.key)
    }

    /// Encode for the UDP datagram.
    pub fn to_value(&self) -> Value {
        Value::structure([
            ("kind", Value::from("sample")),
            ("farm", Value::from(self.farm.clone())),
            ("node", Value::from(self.node.clone())),
            ("key", Value::from(self.key.clone())),
            ("value", Value::Double(self.value)),
            ("timestamp", Value::Int(self.timestamp)),
        ])
    }

    /// Decode from the wire value.
    pub fn from_value(value: &Value) -> Result<Self, WireError> {
        let get_str = |k: &str| -> Result<String, WireError> {
            value
                .get(k)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| WireError::protocol(format!("sample missing {k}")))
        };
        Ok(MonitorSample {
            farm: get_str("farm")?,
            node: get_str("node")?,
            key: get_str("key")?,
            value: value
                .get("value")
                .and_then(Value::as_double)
                .ok_or_else(|| WireError::protocol("sample missing value"))?,
            timestamp: value
                .get("timestamp")
                .and_then(Value::as_int)
                .ok_or_else(|| WireError::protocol("sample missing timestamp"))?,
        })
    }

    /// Serialize for a UDP datagram.
    pub fn to_datagram(&self) -> Vec<u8> {
        json::to_string(&self.to_value()).into_bytes()
    }
}

/// Anything a station can receive.
#[derive(Debug, Clone, PartialEq)]
pub enum Publication {
    /// A service descriptor.
    Service(ServiceDescriptor),
    /// A monitoring sample.
    Sample(MonitorSample),
}

impl Publication {
    /// Decode a datagram into a publication (dispatch on `kind`).
    pub fn from_datagram(data: &[u8]) -> Result<Publication, WireError> {
        let text =
            std::str::from_utf8(data).map_err(|_| WireError::parse("datagram is not UTF-8"))?;
        let value = json::parse(text)?;
        match value.get("kind").and_then(Value::as_str) {
            Some("service") => Ok(Publication::Service(ServiceDescriptor::from_value(&value)?)),
            Some("sample") => Ok(Publication::Sample(MonitorSample::from_value(&value)?)),
            other => Err(WireError::protocol(format!(
                "unknown publication kind {other:?}"
            ))),
        }
    }

    /// Serialize to a datagram.
    pub fn to_datagram(&self) -> Vec<u8> {
        match self {
            Publication::Service(s) => s.to_datagram(),
            Publication::Sample(s) => s.to_datagram(),
        }
    }
}

/// A query over the service registry. All present fields must match.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceQuery {
    /// Exact service (module) name.
    pub service: Option<String>,
    /// Method that must be exported (exact match).
    pub method: Option<String>,
    /// Attribute equality constraints.
    pub attributes: BTreeMap<String, String>,
}

impl ServiceQuery {
    /// Query by service name only.
    pub fn by_service(name: impl Into<String>) -> Self {
        ServiceQuery {
            service: Some(name.into()),
            ..Default::default()
        }
    }

    /// Query by exported method.
    pub fn by_method(method: impl Into<String>) -> Self {
        ServiceQuery {
            method: Some(method.into()),
            ..Default::default()
        }
    }

    /// Add an attribute constraint.
    pub fn with_attribute(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.insert(key.into(), value.into());
        self
    }

    /// Encode for the TCP query protocol.
    pub fn to_value(&self) -> Value {
        Value::structure([
            (
                "service",
                self.service.clone().map(Value::from).unwrap_or(Value::Nil),
            ),
            (
                "method",
                self.method.clone().map(Value::from).unwrap_or(Value::Nil),
            ),
            (
                "attributes",
                Value::Struct(
                    self.attributes
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }

    /// Decode from the TCP query protocol.
    pub fn from_value(value: &Value) -> Result<Self, WireError> {
        let attributes = value
            .get("attributes")
            .and_then(Value::as_struct)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_owned())))
                    .collect()
            })
            .unwrap_or_default();
        Ok(ServiceQuery {
            service: value
                .get("service")
                .and_then(|v| v.as_str().map(str::to_owned)),
            method: value
                .get("method")
                .and_then(|v| v.as_str().map(str::to_owned)),
            attributes,
        })
    }

    /// Does a descriptor match?
    pub fn matches(&self, descriptor: &ServiceDescriptor) -> bool {
        if let Some(service) = &self.service {
            if &descriptor.service != service {
                return false;
            }
        }
        if let Some(method) = &self.method {
            if !descriptor.methods.iter().any(|m| m == method) {
                return false;
            }
        }
        self.attributes
            .iter()
            .all(|(k, v)| descriptor.attributes.get(k) == Some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor() -> ServiceDescriptor {
        ServiceDescriptor {
            url: "http://tier2.example.edu:8080/clarens".into(),
            server_dn: "/O=grid/CN=host/tier2.example.edu".into(),
            service: "file".into(),
            methods: vec!["file.read".into(), "file.ls".into()],
            attributes: [("site".to_string(), "caltech".to_string())].into(),
            timestamp: 1_118_836_800,
        }
    }

    #[test]
    fn host_port_parses_descriptor_urls() {
        let host_port = |url: &str| {
            let d = ServiceDescriptor {
                url: url.into(),
                ..descriptor()
            };
            d.host_port().map(str::to_owned)
        };
        assert_eq!(
            host_port("http://127.0.0.1:8080/clarens").as_deref(),
            Some("127.0.0.1:8080")
        );
        assert_eq!(host_port("https://host:1/x").as_deref(), Some("host:1"));
        assert_eq!(host_port("http://bare-host").as_deref(), Some("bare-host"));
        assert_eq!(host_port("ftp://x"), None);
        assert_eq!(host_port("http:///path"), None);
    }

    #[test]
    fn descriptor_roundtrip() {
        let d = descriptor();
        let datagram = d.to_datagram();
        match Publication::from_datagram(&datagram).unwrap() {
            Publication::Service(back) => assert_eq!(back, d),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sample_roundtrip() {
        let s = MonitorSample {
            farm: "caltech-tier2".into(),
            node: "node042".into(),
            key: "cpu_load".into(),
            value: 0.75,
            timestamp: 1_118_836_800,
        };
        let datagram = s.to_datagram();
        match Publication::from_datagram(&datagram).unwrap() {
            Publication::Sample(back) => assert_eq!(back, s),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.key_path(), "caltech-tier2/node042/cpu_load");
    }

    #[test]
    fn bad_datagrams_rejected() {
        assert!(Publication::from_datagram(b"not json").is_err());
        assert!(Publication::from_datagram(b"{}").is_err());
        assert!(Publication::from_datagram(b"{\"kind\":\"other\"}").is_err());
        assert!(Publication::from_datagram(b"{\"kind\":\"service\"}").is_err());
        assert!(Publication::from_datagram(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn query_matching() {
        let d = descriptor();
        assert!(ServiceQuery::by_service("file").matches(&d));
        assert!(!ServiceQuery::by_service("proof").matches(&d));
        assert!(ServiceQuery::by_method("file.read").matches(&d));
        assert!(!ServiceQuery::by_method("file.write").matches(&d));
        assert!(ServiceQuery::by_service("file")
            .with_attribute("site", "caltech")
            .matches(&d));
        assert!(!ServiceQuery::by_service("file")
            .with_attribute("site", "cern")
            .matches(&d));
        assert!(ServiceQuery::default().matches(&d)); // empty query matches all
    }

    #[test]
    fn key_uniqueness() {
        let d = descriptor();
        let mut d2 = d.clone();
        d2.service = "proof".into();
        assert_ne!(d.key(), d2.key());
    }
}
