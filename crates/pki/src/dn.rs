//! X.509-style distinguished names in the slash-separated OpenSSL one-line
//! format the paper uses throughout:
//!
//! ```text
//! /O=doesciencegrid.org/OU=People/CN=John Smith 12345
//! /DC=org/DC=doegrids/OU=People/CN=Joe User
//! ```
//!
//! Two properties of DNs matter to Clarens (paper §2.1):
//!
//! 1. DNs are ordered attribute lists — the same attribute type (`DC`, `OU`)
//!    can repeat.
//! 2. "the hierarchical information in the DNs may also be used to define
//!    membership, so that only the initial significant part of the DN need
//!    be specified" — [`DistinguishedName::has_prefix`] implements that
//!    prefix-matching rule, which the VO manager builds on.

use std::fmt;

/// Recognized attribute types (free-form types are preserved as
/// [`AttributeType::Other`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AttributeType {
    /// Country.
    Country,
    /// State or province.
    State,
    /// Locality/city.
    Locality,
    /// Organization.
    Organization,
    /// Organizational unit.
    OrganizationalUnit,
    /// Common name.
    CommonName,
    /// Email address.
    Email,
    /// Domain component.
    DomainComponent,
    /// Anything else, with the raw type string.
    Other(String),
}

impl AttributeType {
    /// Parse the short attribute tag.
    pub fn from_tag(tag: &str) -> Self {
        match tag.to_ascii_uppercase().as_str() {
            "C" => AttributeType::Country,
            "ST" => AttributeType::State,
            "L" => AttributeType::Locality,
            "O" => AttributeType::Organization,
            "OU" => AttributeType::OrganizationalUnit,
            "CN" => AttributeType::CommonName,
            "EMAIL" | "EMAILADDRESS" | "E" => AttributeType::Email,
            "DC" => AttributeType::DomainComponent,
            _ => AttributeType::Other(tag.to_owned()),
        }
    }

    /// The canonical short tag.
    pub fn tag(&self) -> &str {
        match self {
            AttributeType::Country => "C",
            AttributeType::State => "ST",
            AttributeType::Locality => "L",
            AttributeType::Organization => "O",
            AttributeType::OrganizationalUnit => "OU",
            AttributeType::CommonName => "CN",
            AttributeType::Email => "Email",
            AttributeType::DomainComponent => "DC",
            AttributeType::Other(s) => s,
        }
    }
}

/// One `TYPE=value` component of a DN.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// The attribute type.
    pub kind: AttributeType,
    /// The attribute value (verbatim; escaped `\/` unescaped).
    pub value: String,
}

/// An ordered distinguished name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DistinguishedName {
    /// Components in certificate order (most significant first).
    pub attributes: Vec<Attribute>,
}

/// DN parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnError(pub String);

impl fmt::Display for DnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid DN: {}", self.0)
    }
}

impl std::error::Error for DnError {}

impl DistinguishedName {
    /// Parse a one-line slash-separated DN. Values may contain escaped
    /// slashes (`\/`).
    pub fn parse(text: &str) -> Result<Self, DnError> {
        let text = text.trim();
        if !text.starts_with('/') {
            return Err(DnError(format!("must start with '/': {text:?}")));
        }
        let mut attributes = Vec::new();
        // Split on unescaped '/'.
        let mut components: Vec<String> = Vec::new();
        let mut current = String::new();
        let mut chars = text[1..].chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some(escaped) => current.push(escaped),
                    None => return Err(DnError("trailing backslash".into())),
                },
                '/' => {
                    components.push(std::mem::take(&mut current));
                }
                c => current.push(c),
            }
        }
        components.push(current);

        for comp in components {
            if comp.is_empty() {
                return Err(DnError("empty component".into()));
            }
            let (tag, value) = comp
                .split_once('=')
                .ok_or_else(|| DnError(format!("component {comp:?} has no '='")))?;
            if tag.is_empty() {
                return Err(DnError(format!("component {comp:?} has empty type")));
            }
            attributes.push(Attribute {
                kind: AttributeType::from_tag(tag),
                value: value.to_owned(),
            });
        }
        if attributes.is_empty() {
            return Err(DnError("no components".into()));
        }
        Ok(DistinguishedName { attributes })
    }

    /// Build a DN programmatically.
    pub fn builder() -> DnBuilder {
        DnBuilder {
            dn: DistinguishedName::default(),
        }
    }

    /// The common name (last CN component), if any.
    pub fn common_name(&self) -> Option<&str> {
        self.attributes
            .iter()
            .rev()
            .find(|a| a.kind == AttributeType::CommonName)
            .map(|a| a.value.as_str())
    }

    /// Does `self` start with all the components of `prefix`, in order?
    ///
    /// This is the paper's rule that
    /// `/O=doesciencegrid.org/OU=People` matches every individual the DOE
    /// Science Grid CA issued. A DN is trivially a prefix of itself.
    pub fn has_prefix(&self, prefix: &DistinguishedName) -> bool {
        if prefix.attributes.len() > self.attributes.len() {
            return false;
        }
        self.attributes
            .iter()
            .zip(&prefix.attributes)
            .all(|(mine, theirs)| mine == theirs)
    }

    /// Append a component, returning a new DN (used to derive proxy
    /// certificate subjects: `<subject>/CN=proxy`).
    pub fn with_component(&self, kind: AttributeType, value: impl Into<String>) -> Self {
        let mut dn = self.clone();
        dn.attributes.push(Attribute {
            kind,
            value: value.into(),
        });
        dn
    }
}

impl fmt::Display for DistinguishedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for attr in &self.attributes {
            write!(f, "/{}={}", attr.kind.tag(), attr.value.replace('/', "\\/"))?;
        }
        Ok(())
    }
}

impl std::str::FromStr for DistinguishedName {
    type Err = DnError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DistinguishedName::parse(s)
    }
}

/// Fluent builder for [`DistinguishedName`].
pub struct DnBuilder {
    dn: DistinguishedName,
}

impl DnBuilder {
    fn push(mut self, kind: AttributeType, value: impl Into<String>) -> Self {
        self.dn.attributes.push(Attribute {
            kind,
            value: value.into(),
        });
        self
    }

    /// Add a country component.
    pub fn country(self, v: impl Into<String>) -> Self {
        self.push(AttributeType::Country, v)
    }

    /// Add an organization component.
    pub fn organization(self, v: impl Into<String>) -> Self {
        self.push(AttributeType::Organization, v)
    }

    /// Add an organizational-unit component.
    pub fn organizational_unit(self, v: impl Into<String>) -> Self {
        self.push(AttributeType::OrganizationalUnit, v)
    }

    /// Add a common-name component.
    pub fn common_name(self, v: impl Into<String>) -> Self {
        self.push(AttributeType::CommonName, v)
    }

    /// Finish; panics if no component was added (empty DNs are invalid).
    pub fn build(self) -> DistinguishedName {
        assert!(
            !self.dn.attributes.is_empty(),
            "DN must have at least one component"
        );
        self.dn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_examples() {
        // The person DN from §2.1.
        let person =
            DistinguishedName::parse("/O=doesciencegrid.org/OU=People/CN=John Smith 12345")
                .unwrap();
        assert_eq!(person.attributes.len(), 3);
        assert_eq!(person.common_name(), Some("John Smith 12345"));
        assert_eq!(
            person.to_string(),
            "/O=doesciencegrid.org/OU=People/CN=John Smith 12345"
        );

        // The server DN from §2.1 (CN contains an escaped slash).
        let server =
            DistinguishedName::parse("/O=doesciencegrid.org/OU=Services/CN=host\\/www.mysite.edu")
                .unwrap();
        assert_eq!(server.common_name(), Some("host/www.mysite.edu"));
        // Re-serialization re-escapes.
        assert_eq!(
            server.to_string(),
            "/O=doesciencegrid.org/OU=Services/CN=host\\/www.mysite.edu"
        );

        // The shell-service user-map DN from §2.5.
        let joe = DistinguishedName::parse("/DC=org/DC=doegrids/OU=People/CN=Joe User").unwrap();
        assert_eq!(joe.attributes[0].kind, AttributeType::DomainComponent);
        assert_eq!(joe.attributes[1].value, "doegrids");
    }

    #[test]
    fn prefix_matching_as_in_paper() {
        // "To add all individuals to a particular group, only
        //  /O=doesciencegrid.org/OU=People need be specified"
        let prefix = DistinguishedName::parse("/O=doesciencegrid.org/OU=People").unwrap();
        let john = DistinguishedName::parse("/O=doesciencegrid.org/OU=People/CN=John Smith 12345")
            .unwrap();
        let service =
            DistinguishedName::parse("/O=doesciencegrid.org/OU=Services/CN=host").unwrap();
        let other = DistinguishedName::parse("/O=cern.ch/OU=People/CN=X").unwrap();

        assert!(john.has_prefix(&prefix));
        assert!(!service.has_prefix(&prefix));
        assert!(!other.has_prefix(&prefix));
        assert!(john.has_prefix(&john)); // reflexive
        assert!(!prefix.has_prefix(&john)); // shorter can't have longer prefix
    }

    #[test]
    fn parse_errors() {
        assert!(DistinguishedName::parse("").is_err());
        assert!(DistinguishedName::parse("no-slash").is_err());
        assert!(DistinguishedName::parse("/").is_err());
        assert!(DistinguishedName::parse("/O=a//CN=b").is_err());
        assert!(DistinguishedName::parse("/Oa").is_err());
        assert!(DistinguishedName::parse("/=v").is_err());
        assert!(DistinguishedName::parse("/O=a\\").is_err());
    }

    #[test]
    fn attribute_tags() {
        for (tag, kind) in [
            ("C", AttributeType::Country),
            ("ST", AttributeType::State),
            ("L", AttributeType::Locality),
            ("O", AttributeType::Organization),
            ("OU", AttributeType::OrganizationalUnit),
            ("CN", AttributeType::CommonName),
            ("DC", AttributeType::DomainComponent),
            ("Email", AttributeType::Email),
        ] {
            assert_eq!(AttributeType::from_tag(tag), kind);
            assert_eq!(AttributeType::from_tag(&tag.to_lowercase()), kind);
        }
        assert_eq!(
            AttributeType::from_tag("UID"),
            AttributeType::Other("UID".into())
        );
        assert_eq!(AttributeType::Other("UID".into()).tag(), "UID");
    }

    #[test]
    fn builder() {
        let dn = DistinguishedName::builder()
            .country("US")
            .organization("caltech")
            .organizational_unit("hep")
            .common_name("conrad")
            .build();
        assert_eq!(dn.to_string(), "/C=US/O=caltech/OU=hep/CN=conrad");
        let parsed = DistinguishedName::parse(&dn.to_string()).unwrap();
        assert_eq!(parsed, dn);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_builder_panics() {
        let _ = DistinguishedName::builder().build();
    }

    #[test]
    fn with_component_for_proxies() {
        let user = DistinguishedName::parse("/O=org/CN=alice").unwrap();
        let proxy = user.with_component(AttributeType::CommonName, "proxy");
        assert_eq!(proxy.to_string(), "/O=org/CN=alice/CN=proxy");
        assert!(proxy.has_prefix(&user));
        assert_eq!(proxy.common_name(), Some("proxy"));
        assert_eq!(user.common_name(), Some("alice"));
    }

    #[test]
    fn value_with_equals_sign() {
        // Only the first '=' splits type from value.
        let dn = DistinguishedName::parse("/CN=a=b").unwrap();
        assert_eq!(dn.attributes[0].value, "a=b");
    }

    #[test]
    fn fromstr_impl() {
        let dn: DistinguishedName = "/O=x/CN=y".parse().unwrap();
        assert_eq!(dn.common_name(), Some("y"));
        assert!("garbage".parse::<DistinguishedName>().is_err());
    }
}
