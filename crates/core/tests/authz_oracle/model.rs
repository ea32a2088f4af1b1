//! A naive model of the paper's §2 authorization rules, written from the
//! rules and not from the code it checks. It shares nothing with
//! `clarens::{acl, vo, session}` or with `clarens_pki::dn`: it has its own
//! DN components, escaping writer and prefix test, its own hierarchy
//! walks, its own JSON record writer, and keeps what it knows as plain
//! values — it never parses. What a record *means* is known because the
//! model wrote it; a record it wrote as junk means nothing.
//!
//! The rules, in the paper's words where it has them:
//!
//! * a DN is an ordered list of `TYPE=value` components; `/` and `\` are
//!   escaped by a backslash when written; the known types compare without
//!   regard to case (`E`, `EMAIL` and `EMAILADDRESS` all name `Email`);
//!   other types compare exactly;
//! * an entry names a DN *prefix* — "only the initial significant part of
//!   the DN need be specified"; in an ACL, `*` matches every DN; an entry
//!   that is not a DN matches nothing;
//! * a method ACL walk runs `a.b.c` → `a.b` → `a`, a file ACL walk
//!   `/a/b` → `/a` → `/`, and the lowest level that says anything about
//!   the caller decides; at one level, `allow,deny` lets a deny override
//!   an allow and `deny,allow` the reverse; no grant anywhere is a deny;
//! * membership is inherited downward (`A` members are `A.1` members), a
//!   group's admins count as its members, and a group's admins administer
//!   its subgroups;
//! * members and admins of the root `admins` group are site admins, and
//!   site admins are members and admins of every group;
//! * a session resolves while `now < expires`; one seen expired is gone.

use std::collections::BTreeMap;

use clarens_pki::dn::{Attribute, AttributeType, DistinguishedName};

/// The root group.
pub const ADMINS: &str = "admins";

/// One `TYPE=value` DN component, the type as spelled.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Rdn {
    pub tag: String,
    pub value: String,
}

/// A DN: its components, most significant first.
pub type Dn = Vec<Rdn>;

/// The known attribute types: canonical spelling, then every spelling
/// that names it (compared without regard to case).
const KNOWN_TAGS: &[(&str, &[&str])] = &[
    ("C", &["C"]),
    ("ST", &["ST"]),
    ("L", &["L"]),
    ("O", &["O"]),
    ("OU", &["OU"]),
    ("CN", &["CN"]),
    ("Email", &["EMAIL", "EMAILADDRESS", "E"]),
    ("DC", &["DC"]),
];

/// The canonical spelling of a type.
pub fn canonical(tag: &str) -> &str {
    for (name, spellings) in KNOWN_TAGS {
        for spelling in *spellings {
            if spelling.eq_ignore_ascii_case(tag) {
                return name;
            }
        }
    }
    tag
}

fn same_rdn(a: &Rdn, b: &Rdn) -> bool {
    a.value == b.value && (a.tag == b.tag || canonical(&a.tag) == canonical(&b.tag))
}

/// Does `dn` begin with every component of `prefix`, in order?
pub fn has_prefix(dn: &[Rdn], prefix: &[Rdn]) -> bool {
    if prefix.len() > dn.len() {
        return false;
    }
    for i in 0..prefix.len() {
        if !same_rdn(&dn[i], &prefix[i]) {
            return false;
        }
    }
    true
}

fn escape_into(out: &mut String, text: &str) {
    for c in text.chars() {
        if c == '/' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
}

/// The one-line text of `dn`, types spelled as they are.
pub fn write_dn(dn: &[Rdn]) -> String {
    let mut out = String::new();
    for rdn in dn {
        out.push('/');
        escape_into(&mut out, &rdn.tag);
        out.push('=');
        escape_into(&mut out, &rdn.value);
    }
    out
}

/// The one-line text of `dn` with every type in its canonical spelling:
/// what a session stores for the identity it was created for.
pub fn render_dn(dn: &[Rdn]) -> String {
    let canonical: Dn = dn
        .iter()
        .map(|rdn| Rdn {
            tag: canonical(&rdn.tag).to_owned(),
            value: rdn.value.clone(),
        })
        .collect();
    write_dn(&canonical)
}

/// The real type for `dn`, built component by component (not parsed).
pub fn to_real(dn: &[Rdn]) -> DistinguishedName {
    let kind = |tag: &str| match canonical(tag) {
        "C" => AttributeType::Country,
        "ST" => AttributeType::State,
        "L" => AttributeType::Locality,
        "O" => AttributeType::Organization,
        "OU" => AttributeType::OrganizationalUnit,
        "CN" => AttributeType::CommonName,
        "Email" => AttributeType::Email,
        "DC" => AttributeType::DomainComponent,
        other => AttributeType::Other(other.to_owned()),
    };
    DistinguishedName {
        attributes: dn
            .iter()
            .map(|rdn| Attribute {
                kind: kind(&rdn.tag),
                value: rdn.value.clone(),
            })
            .collect(),
    }
}

/// One entry of an ACL's or a group's DN list.
#[derive(Clone, Debug, PartialEq)]
pub enum Entry {
    /// A DN prefix.
    Dn(Dn),
    /// `*`: every DN in an ACL; not a DN, so nothing in a group.
    Star,
    /// Text that is not a DN.
    Junk(&'static str),
}

impl Entry {
    /// The entry as stored.
    pub fn text(&self) -> String {
        match self {
            Entry::Dn(dn) => write_dn(dn),
            Entry::Star => "*".to_owned(),
            Entry::Junk(text) => (*text).to_owned(),
        }
    }
}

fn acl_matches(entries: &[Entry], dn: &[Rdn]) -> bool {
    entries.iter().any(|entry| match entry {
        Entry::Star => true,
        Entry::Dn(prefix) => has_prefix(dn, prefix),
        Entry::Junk(_) => false,
    })
}

fn group_matches(entries: &[Entry], dn: &[Rdn]) -> bool {
    entries
        .iter()
        .any(|entry| matches!(entry, Entry::Dn(prefix) if has_prefix(dn, prefix)))
}

/// A stored record: one the model knows the meaning of, or junk.
#[derive(Clone, Debug)]
pub enum Record<T> {
    Valid(T),
    Junk(&'static str),
}

impl<T> Record<T> {
    pub fn valid(&self) -> Option<&T> {
        match self {
            Record::Valid(value) => Some(value),
            Record::Junk(_) => None,
        }
    }
}

/// `text` as a JSON string.
pub fn json_str(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list<'a>(items: impl Iterator<Item = &'a str>) -> String {
    let items: Vec<String> = items.map(json_str).collect();
    format!("[{}]", items.join(","))
}

/// One ACL level's lists.
#[derive(Clone, Debug, Default)]
pub struct Acl {
    /// `deny,allow` (allow wins a double match) rather than `allow,deny`.
    pub deny_first: bool,
    pub allow_dns: Vec<Entry>,
    pub allow_groups: Vec<String>,
    pub deny_dns: Vec<Entry>,
    pub deny_groups: Vec<String>,
}

impl Acl {
    pub fn order(&self) -> &'static str {
        if self.deny_first {
            "deny,allow"
        } else {
            "allow,deny"
        }
    }

    /// The record a leader writes, keys in an order of the model's own.
    pub fn json(&self) -> String {
        let texts = |entries: &[Entry]| entries.iter().map(Entry::text).collect::<Vec<_>>();
        let (allow, deny) = (texts(&self.allow_dns), texts(&self.deny_dns));
        format!(
            "{{\"deny_groups\":{},\"order\":{},\"allow_dns\":{},\"deny_dns\":{},\"allow_groups\":{}}}",
            json_list(self.deny_groups.iter().map(String::as_str)),
            json_str(self.order()),
            json_list(allow.iter().map(String::as_str)),
            json_list(deny.iter().map(String::as_str)),
            json_list(self.allow_groups.iter().map(String::as_str)),
        )
    }
}

/// A VO group's lists.
#[derive(Clone, Debug, Default)]
pub struct Group {
    pub members: Vec<Entry>,
    pub admins: Vec<Entry>,
}

impl Group {
    pub fn json(&self) -> String {
        let texts = |entries: &[Entry]| entries.iter().map(Entry::text).collect::<Vec<_>>();
        let (admins, members) = (texts(&self.admins), texts(&self.members));
        format!(
            "{{\"admins\":{},\"members\":{}}}",
            json_list(admins.iter().map(String::as_str)),
            json_list(members.iter().map(String::as_str)),
        )
    }
}

/// The record of a file ACL: `[read, write]`.
pub fn file_acl_json(acl: &[Acl; 2]) -> String {
    format!("{{\"write\":{},\"read\":{}}}", acl[1].json(), acl[0].json())
}

/// `a.b.c` → `a.b.c`, `a.b`, `a`.
pub fn dotted_levels(name: &str) -> Vec<String> {
    let parts: Vec<&str> = name.split('.').collect();
    (1..=parts.len())
        .rev()
        .map(|n| parts[..n].join("."))
        .collect()
}

/// `/a/b` (or `a/b`) → `/a/b`, `/a`, `/`.
pub fn path_levels(path: &str) -> Vec<String> {
    let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
    (0..=parts.len())
        .rev()
        .map(|n| format!("/{}", parts[..n].join("/")))
        .collect()
}

/// Why the model expects a VO mutation to be refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    BadGroup,
    Conflict,
    NotAuthorized,
}

/// A VO member or admin list edit.
#[derive(Clone, Copy, Debug)]
pub enum Edit {
    AddMember,
    RemoveMember,
    AddAdmin,
    RemoveAdmin,
}

/// The group tree and both ACL trees.
#[derive(Default)]
pub struct Authz {
    pub groups: BTreeMap<String, Record<Group>>,
    pub methods: BTreeMap<String, Record<Acl>>,
    pub files: BTreeMap<String, Record<[Acl; 2]>>,
}

impl Authz {
    /// The state a fresh server starts in: `admins` holds `admin_dns` as
    /// both its members and its admins.
    pub fn new(admin_dns: &[Entry]) -> Authz {
        let mut authz = Authz::default();
        let root = Group {
            members: admin_dns.to_vec(),
            admins: admin_dns.to_vec(),
        };
        authz.groups.insert(ADMINS.to_owned(), Record::Valid(root));
        authz
    }

    fn group(&self, name: &str) -> Option<&Group> {
        self.groups.get(name).and_then(Record::valid)
    }

    pub fn site_admin(&self, dn: &[Rdn]) -> bool {
        self.group(ADMINS)
            .is_some_and(|g| group_matches(&g.members, dn) || group_matches(&g.admins, dn))
    }

    pub fn member(&self, group: &str, dn: &[Rdn]) -> bool {
        self.site_admin(dn)
            || dotted_levels(group).iter().any(|level| {
                self.group(level)
                    .is_some_and(|g| group_matches(&g.members, dn) || group_matches(&g.admins, dn))
            })
    }

    pub fn admin(&self, group: &str, dn: &[Rdn]) -> bool {
        self.site_admin(dn)
            || dotted_levels(group).iter().any(|level| {
                self.group(level)
                    .is_some_and(|g| group_matches(&g.admins, dn))
            })
    }

    /// Whether `dn` matches an ACL level's allow lists, and its deny lists.
    fn matches(&self, acl: &Acl, dn: &[Rdn]) -> (bool, bool) {
        let allowed =
            acl_matches(&acl.allow_dns, dn) || acl.allow_groups.iter().any(|g| self.member(g, dn));
        let denied =
            acl_matches(&acl.deny_dns, dn) || acl.deny_groups.iter().any(|g| self.member(g, dn));
        (allowed, denied)
    }

    /// What one ACL level says about `dn`: `None` when it says nothing.
    fn level(&self, acl: &Acl, dn: &[Rdn]) -> Option<bool> {
        match self.matches(acl, dn) {
            (false, false) => None,
            (true, true) => Some(acl.deny_first),
            (allowed, _) => Some(allowed),
        }
    }

    /// Is the method question decided by a level that both allows and
    /// denies `dn` (so its order decides)?
    pub fn double_match(&self, method: &str, dn: &[Rdn]) -> bool {
        dotted_levels(method)
            .iter()
            .filter_map(|level| self.methods.get(level).and_then(Record::valid))
            .map(|acl| self.matches(acl, dn))
            .find(|&(allowed, denied)| allowed || denied)
            .is_some_and(|(allowed, denied)| allowed && denied)
    }

    pub fn may_call(&self, method: &str, dn: &[Rdn]) -> bool {
        for level in dotted_levels(method) {
            if let Some(acl) = self.methods.get(&level).and_then(Record::valid) {
                if let Some(decision) = self.level(acl, dn) {
                    return decision;
                }
            }
        }
        false
    }

    pub fn may_access(&self, path: &str, write: bool, dn: &[Rdn]) -> bool {
        for level in path_levels(path) {
            if let Some(acl) = self.files.get(&level).and_then(Record::valid) {
                if let Some(decision) = self.level(&acl[write as usize], dn) {
                    return decision;
                }
            }
        }
        false
    }

    fn valid_name(name: &str) -> bool {
        name != ADMINS
            && name.split('.').all(|segment| {
                !segment.is_empty()
                    && segment
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            })
    }

    fn parent(name: &str) -> Option<&str> {
        name.rfind('.').map(|dot| &name[..dot])
    }

    pub fn create_group(&mut self, actor: &[Rdn], name: &str) -> Result<(), Refusal> {
        if !Authz::valid_name(name) {
            return Err(Refusal::BadGroup);
        }
        if self.group(name).is_some() {
            return Err(Refusal::Conflict);
        }
        match Authz::parent(name) {
            None if !self.site_admin(actor) => return Err(Refusal::NotAuthorized),
            None => {}
            Some(parent) if self.group(parent).is_none() => return Err(Refusal::BadGroup),
            Some(parent) if !self.admin(parent, actor) => return Err(Refusal::NotAuthorized),
            Some(_) => {}
        }
        self.groups
            .insert(name.to_owned(), Record::Valid(Group::default()));
        Ok(())
    }

    /// Deleting a group deletes every record below it, junk included.
    pub fn delete_group(&mut self, actor: &[Rdn], name: &str) -> Result<(), Refusal> {
        if name == ADMINS {
            return Err(Refusal::BadGroup);
        }
        if self.group(name).is_none() {
            return Err(Refusal::Conflict);
        }
        let allowed = match Authz::parent(name) {
            None => self.site_admin(actor),
            Some(parent) => self.admin(parent, actor),
        };
        if !allowed {
            return Err(Refusal::NotAuthorized);
        }
        let below = format!("{name}.");
        self.groups
            .retain(|key, _| key != name && !key.starts_with(&below));
        Ok(())
    }

    pub fn edit_group(
        &mut self,
        actor: &[Rdn],
        name: &str,
        edit: Edit,
        entry: &Entry,
    ) -> Result<(), Refusal> {
        if name == ADMINS && !self.site_admin(actor) {
            return Err(Refusal::NotAuthorized);
        }
        if self.group(name).is_none() {
            return Err(Refusal::Conflict);
        }
        if name != ADMINS && !self.admin(name, actor) {
            return Err(Refusal::NotAuthorized);
        }
        let Some(Record::Valid(group)) = self.groups.get_mut(name) else {
            unreachable!("checked above");
        };
        let list = match edit {
            Edit::AddMember | Edit::RemoveMember => &mut group.members,
            Edit::AddAdmin | Edit::RemoveAdmin => &mut group.admins,
        };
        match edit {
            Edit::AddMember | Edit::AddAdmin => {
                if !list.contains(entry) {
                    list.push(entry.clone());
                }
            }
            Edit::RemoveMember | Edit::RemoveAdmin => list.retain(|e| e != entry),
        }
        Ok(())
    }
}

/// A session as the model knows it.
#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    /// The stored DN text.
    pub dn: String,
    /// What the text names; `None` when it is not a DN.
    pub identity: Option<Dn>,
    pub created: i64,
    pub expires: i64,
    pub proxy: Option<String>,
}

impl Session {
    /// The record a leader writes, keys in an order of the model's own.
    pub fn json(&self) -> String {
        let proxy = self.proxy.as_deref().map_or("null".to_owned(), json_str);
        format!(
            "{{\"proxy\":{proxy},\"expires\":{},\"dn\":{},\"created\":{}}}",
            self.expires,
            json_str(&self.dn),
            self.created
        )
    }
}

/// The sessions bucket.
#[derive(Default)]
pub struct Sessions {
    pub records: BTreeMap<String, Record<Session>>,
}

impl Sessions {
    /// The session `id` names at `now`, if it is live; one seen expired is
    /// dropped, junk stays as it is.
    pub fn resolve(&mut self, id: &str, now: i64) -> Option<Session> {
        let session = self.records.get(id)?.valid()?.clone();
        if now < session.expires {
            return Some(session);
        }
        self.records.remove(id);
        None
    }

    /// Attach `proxy` to a live session, renewing it for `ttl`.
    pub fn attach(&mut self, id: &str, proxy: &str, now: i64, ttl: i64) -> Option<Session> {
        let mut session = self.resolve(id, now)?;
        session.proxy = Some(proxy.to_owned());
        session.expires = now + ttl;
        self.records
            .insert(id.to_owned(), Record::Valid(session.clone()));
        Some(session)
    }

    /// Whether a record (of any kind) was there to drop.
    pub fn logout(&mut self, id: &str) -> bool {
        self.records.remove(id).is_some()
    }

    /// Drop expired sessions and junk; how many went.
    pub fn sweep(&mut self, now: i64) -> usize {
        let before = self.records.len();
        self.records
            .retain(|_, record| record.valid().is_some_and(|s| now < s.expires));
        before - self.records.len()
    }
}
