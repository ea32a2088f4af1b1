//! Web Service Deployment Descriptor (WSDD) simulation.
//!
//! Globus Toolkit 3 deployed services through Axis-style WSDD documents;
//! the container parsed and validated deployment metadata when
//! instantiating a service — and GT3's OGSI model instantiated *per call*
//! (transient service instances). This module generates a realistic
//! descriptor for a configurable number of services and implements the
//! parse + validate pass the baseline performs on every invocation.

use clarens_wire::dom::{Element, Node};

/// Generate a WSDD-like document describing `service_count` services, each
/// with a handler pipeline and typemapping entries (the shape of real Axis
/// WSDDs).
pub fn generate(service_count: usize) -> String {
    let mut deployment = Element::new("deployment")
        .attr("xmlns", "http://xml.apache.org/axis/wsdd/")
        .attr(
            "xmlns:java",
            "http://xml.apache.org/axis/wsdd/providers/java",
        );
    for i in 0..service_count {
        let mut service = Element::new("service")
            .attr("name", format!("Service{i}"))
            .attr("provider", "java:RPC")
            .attr("style", "rpc")
            .attr("use", "encoded");
        service = service
            .child(
                Element::new("parameter")
                    .attr("name", "className")
                    .attr("value", format!("org.globus.ogsa.impl.Service{i}Impl")),
            )
            .child(
                Element::new("parameter")
                    .attr("name", "allowedMethods")
                    .attr(
                        "value",
                        "createService findServiceData requestTerminationAfter",
                    ),
            )
            .child(
                Element::new("parameter")
                    .attr("name", "instance-deactivation")
                    .attr("value", "session"),
            );
        for t in 0..4 {
            service = service.child(
                Element::new("typeMapping")
                    .attr("qname", format!("ns{i}:Type{t}"))
                    .attr("type", format!("java:org.globus.ogsa.types.Type{i}x{t}"))
                    .attr(
                        "serializer",
                        "org.apache.axis.encoding.ser.BeanSerializerFactory",
                    )
                    .attr(
                        "deserializer",
                        "org.apache.axis.encoding.ser.BeanDeserializerFactory",
                    )
                    .attr("encodingStyle", "http://schemas.xmlsoap.org/soap/encoding/"),
            );
        }
        let handlers = Element::new("requestFlow")
            .child(
                Element::new("handler")
                    .attr("type", "java:org.globus.ogsa.handlers.RPCURIProvider"),
            )
            .child(
                Element::new("handler")
                    .attr("type", "java:org.globus.ogsa.handlers.DescriptorHandler"),
            );
        service = service.child(handlers);
        deployment = deployment.child(service);
    }
    deployment.to_document()
}

/// Validation report from one container-boot pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationReport {
    /// Services found.
    pub services: usize,
    /// Type mappings checked.
    pub type_mappings: usize,
    /// Handlers resolved.
    pub handlers: usize,
}

/// Parse and validate a WSDD document — the work GT3's container performed
/// when activating a service instance. Returns a report or a description
/// of the first violation.
pub fn parse_and_validate(document: &str) -> Result<ValidationReport, String> {
    let root = clarens_wire::dom::parse(document).map_err(|e| e.to_string())?;
    if root.local_name() != "deployment" {
        return Err(format!("root must be <deployment>, found <{}>", root.name));
    }
    let mut report = ValidationReport {
        services: 0,
        type_mappings: 0,
        handlers: 0,
    };
    for service in root.find_all("service") {
        report.services += 1;
        let name = service
            .attribute("name")
            .ok_or_else(|| "service missing name".to_string())?;
        if service.attribute("provider").is_none() {
            return Err(format!("service {name} missing provider"));
        }
        let mut has_class = false;
        for parameter in service.find_all("parameter") {
            match parameter.attribute("name") {
                Some("className") => {
                    let class = parameter
                        .attribute("value")
                        .ok_or_else(|| format!("{name}: className without value"))?;
                    // "Classpath" check: package segments must be valid
                    // identifiers (the container resolved these by
                    // reflection).
                    if !class.split('.').all(|seg| {
                        !seg.is_empty()
                            && seg.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    }) {
                        return Err(format!("{name}: invalid class {class}"));
                    }
                    has_class = true;
                }
                Some(_) => {}
                None => return Err(format!("{name}: parameter without name")),
            }
        }
        if !has_class {
            return Err(format!("service {name} missing className"));
        }
        for mapping in service.find_all("typeMapping") {
            report.type_mappings += 1;
            for required in [
                "qname",
                "type",
                "serializer",
                "deserializer",
                "encodingStyle",
            ] {
                if mapping.attribute(required).is_none() {
                    return Err(format!("{name}: typeMapping missing {required}"));
                }
            }
        }
        for flow in service.find_all("requestFlow") {
            for node in &flow.children {
                if let Node::Element(handler) = node {
                    if handler.local_name() == "handler" {
                        report.handlers += 1;
                        if handler.attribute("type").is_none() {
                            return Err(format!("{name}: handler missing type"));
                        }
                    }
                }
            }
        }
    }
    if report.services == 0 {
        return Err("deployment contains no services".to_string());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_descriptor_validates() {
        let doc = generate(10);
        let report = parse_and_validate(&doc).unwrap();
        assert_eq!(report.services, 10);
        assert_eq!(report.type_mappings, 40);
        assert_eq!(report.handlers, 20);
    }

    #[test]
    fn large_descriptor_realistic_size() {
        // GT3 shipped hundreds of services; the document is tens of KB.
        let doc = generate(200);
        assert!(doc.len() > 100_000, "descriptor only {} bytes", doc.len());
        assert!(parse_and_validate(&doc).is_ok());
    }

    #[test]
    fn violations_detected() {
        assert!(parse_and_validate("<notdeployment/>").is_err());
        assert!(parse_and_validate("<deployment/>").is_err());
        let bad = "<deployment><service name=\"s\" provider=\"p\"><parameter name=\"className\" value=\"bad-class!\"/></service></deployment>";
        assert!(parse_and_validate(bad).is_err());
        let missing = "<deployment><service name=\"s\" provider=\"p\"/></deployment>";
        assert!(parse_and_validate(missing).is_err());
    }
}
