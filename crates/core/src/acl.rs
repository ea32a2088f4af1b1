//! Hierarchical access control lists (paper §2.2, §2.3).
//!
//! "Execution of Web Service methods ... is controlled by a set of
//! hierarchical ACLs ... modelled after the access control (.htaccess)
//! files used by Apache." An ACL names an evaluation order (`allow,deny` or
//! `deny,allow`) and four lists: DNs allowed, groups allowed, DNs denied,
//! groups denied. ACLs attach to nodes of the dotted method hierarchy
//! (`file`, `file.read`) or the slashed file hierarchy (`/data`,
//! `/data/cms`); evaluation runs "from the lowest applicable level to the
//! highest": a grant at a higher level applies "unless specifically denied
//! at the lower level".
//!
//! File ACLs extend method ACLs "with two extra fields: read and write" —
//! [`FileAcl`] carries an [`Acl`] per access kind.
//!
//! Both hierarchies are one `Tree`, and one walk (`Tree::decide`) answers
//! methods and files alike. A tree reads its nodes through a
//! `crate::cache::Records` — stored ACLs *compiled* once per bucket
//! generation, DN-prefix entries parsed into [`DistinguishedName`]s — and
//! memoizes decisions per `(list, node, DN)` tagged with its own and the
//! VO bucket's generations, so a grant or revocation anywhere in either
//! tree is visible on the very next check.

use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt::{Display, Write as _};
use std::io;
use std::sync::Arc;

use clarens_db::Store;
use clarens_pki::dn::DistinguishedName;
use clarens_wire::{json, Value};

use crate::cache::{CacheStats, Records, Sharded};
use crate::vo::VoManager;

/// DB bucket for method ACLs.
pub const METHOD_ACL_BUCKET: &str = "acl.methods";
/// DB bucket for file ACLs.
pub const FILE_ACL_BUCKET: &str = "acl.files";

/// Evaluation order, after Apache's `Order` directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Order {
    /// `allow,deny`: a deny match overrides an allow match at this level.
    #[default]
    AllowDeny,
    /// `deny,allow`: an allow match overrides a deny match at this level.
    DenyAllow,
}

impl Order {
    fn label(self) -> &'static str {
        match self {
            Order::AllowDeny => "allow,deny",
            Order::DenyAllow => "deny,allow",
        }
    }

    pub(crate) fn from_label(label: &str) -> Option<Order> {
        match label.replace(' ', "").as_str() {
            "allow,deny" => Some(Order::AllowDeny),
            "deny,allow" => Some(Order::DenyAllow),
            _ => None,
        }
    }
}

/// One access-control list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Acl {
    /// Evaluation order.
    pub order: Order,
    /// DN prefixes allowed.
    pub allow_dns: Vec<String>,
    /// VO groups allowed.
    pub allow_groups: Vec<String>,
    /// DN prefixes denied.
    pub deny_dns: Vec<String>,
    /// VO groups denied.
    pub deny_groups: Vec<String>,
}

/// The decision one ACL level yields for a caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LevelDecision {
    /// This level grants access.
    Allow,
    /// This level explicitly denies access.
    Deny,
    /// This level says nothing about the caller — continue upward.
    Silent,
}

impl Acl {
    /// Convenience: allow a single DN prefix.
    pub fn allow_dn(dn: impl Into<String>) -> Acl {
        Acl {
            allow_dns: vec![dn.into()],
            ..Default::default()
        }
    }

    /// Convenience: allow a single group.
    pub fn allow_group(group: impl Into<String>) -> Acl {
        Acl {
            allow_groups: vec![group.into()],
            ..Default::default()
        }
    }

    /// Convenience: deny a single DN prefix.
    pub fn deny_dn(dn: impl Into<String>) -> Acl {
        Acl {
            deny_dns: vec![dn.into()],
            ..Default::default()
        }
    }

    /// The RPC struct form (`acl.get_method`) and the stored record.
    pub(crate) fn to_value(&self) -> Value {
        let list = |v: &[String]| Value::Array(v.iter().cloned().map(Value::from).collect());
        Value::structure([
            ("order", Value::from(self.order.label())),
            ("allow_dns", list(&self.allow_dns)),
            ("allow_groups", list(&self.allow_groups)),
            ("deny_dns", list(&self.deny_dns)),
            ("deny_groups", list(&self.deny_groups)),
        ])
    }

    fn from_value(value: &Value) -> Option<Acl> {
        let list = |k: &str| -> Vec<String> {
            value
                .get(k)
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|v| v.as_str().map(str::to_owned))
                        .collect()
                })
                .unwrap_or_default()
        };
        Some(Acl {
            order: Order::from_label(value.get("order")?.as_str()?)?,
            allow_dns: list("allow_dns"),
            allow_groups: list("allow_groups"),
            deny_dns: list("deny_dns"),
            deny_groups: list("deny_groups"),
        })
    }
}

/// The wildcard entry matching every authenticated DN (used by permissive
/// default ACL sets; there is no anonymous access — a DN must exist).
pub const ANY_DN: &str = "*";

/// One compiled DN entry: the wildcard, or a parsed prefix.
#[derive(Debug, Clone)]
enum DnEntry {
    /// [`ANY_DN`] — matches every authenticated DN.
    Any,
    /// A DN prefix, parsed once at compile time.
    Prefix(DistinguishedName),
}

/// Parse a DN entry list once. Unparseable entries are dropped: an entry
/// that does not parse matches nothing.
fn compile_entries(entries: &[String]) -> Vec<DnEntry> {
    entries
        .iter()
        .filter_map(|entry| {
            if entry == ANY_DN {
                Some(DnEntry::Any)
            } else {
                DistinguishedName::parse(entry).ok().map(DnEntry::Prefix)
            }
        })
        .collect()
}

fn compiled_match(dn: &DistinguishedName, entries: &[DnEntry]) -> bool {
    entries.iter().any(|entry| match entry {
        DnEntry::Any => true,
        DnEntry::Prefix(prefix) => dn.has_prefix(prefix),
    })
}

/// An [`Acl`] with its DN-prefix entries pre-parsed, so a cached node
/// evaluates without re-parsing every entry on every request.
#[derive(Debug, Clone)]
struct CompiledAcl {
    order: Order,
    allow_dns: Vec<DnEntry>,
    allow_groups: Vec<String>,
    deny_dns: Vec<DnEntry>,
    deny_groups: Vec<String>,
}

impl CompiledAcl {
    fn compile(acl: &Acl) -> CompiledAcl {
        CompiledAcl {
            order: acl.order,
            allow_dns: compile_entries(&acl.allow_dns),
            allow_groups: acl.allow_groups.clone(),
            deny_dns: compile_entries(&acl.deny_dns),
            deny_groups: acl.deny_groups.clone(),
        }
    }

    fn evaluate(&self, dn: &DistinguishedName, vo: &VoManager) -> LevelDecision {
        let allowed = compiled_match(dn, &self.allow_dns)
            || self.allow_groups.iter().any(|g| vo.is_member(g, dn));
        let denied = compiled_match(dn, &self.deny_dns)
            || self.deny_groups.iter().any(|g| vo.is_member(g, dn));
        match (allowed, denied) {
            (false, false) => LevelDecision::Silent,
            (true, false) => LevelDecision::Allow,
            (false, true) => LevelDecision::Deny,
            (true, true) => match self.order {
                Order::AllowDeny => LevelDecision::Deny,
                Order::DenyAllow => LevelDecision::Allow,
            },
        }
    }
}

/// A file ACL: separate lists per access kind (paper §2.3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileAcl {
    /// Controls `file.read`, `file.ls`, `file.stat`, `file.md5`, GET.
    pub read: Acl,
    /// Controls uploads, deletes, and other mutations.
    pub write: Acl,
}

/// The kind of file access being checked; it indexes a compiled file
/// ACL's lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileAccess {
    /// Read-type access.
    Read = 0,
    /// Write-type access.
    Write = 1,
}

impl FileAcl {
    fn to_value(&self) -> Value {
        Value::structure([
            ("read", self.read.to_value()),
            ("write", self.write.to_value()),
        ])
    }

    fn from_value(value: &Value) -> Option<FileAcl> {
        Some(FileAcl {
            read: Acl::from_value(value.get("read")?)?,
            write: Acl::from_value(value.get("write")?)?,
        })
    }
}

/// The level above a dotted name (`a.b.c` → `a.b` → `a` → none): a
/// method's module, or a VO group's parent.
pub(crate) fn dotted_parent(name: &str) -> Option<&str> {
    name.rfind('.').map(|pos| &name[..pos])
}

/// The level above a rooted path (`/a/b` → `/a` → `/` → none).
fn path_parent(path: &str) -> Option<&str> {
    let pos = path.rfind('/')?;
    (path != "/").then(|| &path[..pos.max(1)])
}

/// `node` and every level above it, lowest first. Borrows from the input
/// — no per-request allocation.
pub(crate) fn levels(node: &str, parent: fn(&str) -> Option<&str>) -> impl Iterator<Item = &str> {
    std::iter::successors(Some(node), move |level| parent(level))
}

/// Ensure a file path starts with `/`, borrowing when it already does
/// (the common case: callers pass canonicalized paths).
fn rooted(path: &str) -> Cow<'_, str> {
    if path.starts_with('/') {
        Cow::Borrowed(path)
    } else {
        Cow::Owned(format!("/{path}"))
    }
}

/// One ACL hierarchy whose nodes carry `N` lists each (a method node one,
/// a file node one per [`FileAccess`]): its compiled records, how to climb
/// it, and its decision memo, tagged with the hierarchy's and the VO's
/// generations.
struct Tree<const N: usize> {
    records: Records<[CompiledAcl; N]>,
    parent: fn(&str) -> Option<&str>,
    decisions: Sharded<String, bool, (u64, u64)>,
}

impl<const N: usize> Tree<N> {
    fn new(
        store: Arc<Store>,
        bucket: &'static str,
        compile: fn(&Value) -> Option<[CompiledAcl; N]>,
        parent: fn(&str) -> Option<&str>,
    ) -> Self {
        Tree {
            records: Records::new(store, bucket, compile),
            parent,
            decisions: Sharded::new(),
        }
    }

    /// The one authorization walk (paper §2.2–2.3): list `side` of each
    /// level of `node`, lowest first; the first level that is not silent
    /// decides; no decision anywhere ⇒ deny. The answer is memoized under
    /// `(side, node, dn_key)`, its key built in a per-thread buffer, so a
    /// memoized answer allocates nothing; only a miss clones the key.
    fn decide(
        &self,
        node: &str,
        side: usize,
        dn: &DistinguishedName,
        dn_key: impl Display,
        vo: &VoManager,
    ) -> bool {
        thread_local! {
            static KEY: RefCell<String> = const { RefCell::new(String::new()) };
        }
        KEY.with(|key| {
            let mut key = key.borrow_mut();
            key.clear();
            // Length-prefixed, so no crafted node collides with another
            // caller's entry.
            let _ = write!(key, "{side}\u{1f}{}\u{1f}{node}\u{1f}{dn_key}", node.len());
            // Both generations are loaded before any record is read, so
            // the answer is at worst tagged with a superseded epoch (a
            // spurious miss next time), never a stale grant.
            let tag = (self.records.generation(), vo.generation());
            if let Some(decision) = self.decisions.get(key.as_str(), tag) {
                return decision;
            }
            let decision = levels(node, self.parent)
                .filter_map(|level| self.records.get(level, tag.0))
                .map(|acls| acls[side].evaluate(dn, vo))
                .find(|level| *level != LevelDecision::Silent)
                == Some(LevelDecision::Allow);
            self.decisions.insert(key.clone(), tag, decision);
            decision
        })
    }
}

/// The ACL engine: stores ACLs in the DB and answers access questions.
///
/// Each hierarchy keeps two layers of epoch-invalidated state: compiled
/// per-node records tagged with its bucket's generation, and
/// `(node, DN) → bool` decisions tagged with that generation and the VO
/// bucket's. Any `put`/`delete` to either bucket moves the corresponding
/// generation, so no stale grant can survive a revocation.
pub struct AclEngine {
    store: Arc<Store>,
    methods: Tree<1>,
    files: Tree<2>,
}

impl AclEngine {
    /// Create an engine over the shared store.
    pub fn new(store: Arc<Store>) -> Self {
        let methods = Tree::new(
            Arc::clone(&store),
            METHOD_ACL_BUCKET,
            |value| Some([CompiledAcl::compile(&Acl::from_value(value)?)]),
            dotted_parent,
        );
        let files = Tree::new(
            Arc::clone(&store),
            FILE_ACL_BUCKET,
            |value| {
                let acl = FileAcl::from_value(value)?;
                Some([&acl.read, &acl.write].map(CompiledAcl::compile))
            },
            path_parent,
        );
        AclEngine {
            store,
            methods,
            files,
        }
    }

    /// Hit/miss counters of the compiled-node caches (method + file).
    pub fn node_cache_stats(&self) -> CacheStats {
        let files = self.files.records.stats();
        self.methods.records.stats().merged(files)
    }

    /// Hit/miss counters of the decision caches (method + file).
    pub fn decision_cache_stats(&self) -> CacheStats {
        let files = self.files.decisions.stats();
        self.methods.decisions.stats().merged(files)
    }

    /// Attach an ACL to a method-hierarchy node. Fails, changing nothing,
    /// when the store refuses the write (a degraded store).
    pub fn set_method_acl(&self, node: &str, acl: &Acl) -> io::Result<()> {
        self.store.put(
            METHOD_ACL_BUCKET,
            node,
            json::to_string(&acl.to_value()).into_bytes(),
        )
    }

    /// Remove a method ACL node.
    pub fn clear_method_acl(&self, node: &str) -> io::Result<()> {
        self.store.delete(METHOD_ACL_BUCKET, node).map(drop)
    }

    /// Read back a method ACL node.
    pub fn method_acl(&self, node: &str) -> Option<Acl> {
        Acl::from_value(&self.methods.records.read(node)?)
    }

    /// List all method ACL nodes.
    pub fn method_acl_nodes(&self) -> Vec<String> {
        self.store.keys(METHOD_ACL_BUCKET)
    }

    /// Attach a file ACL to a path node. Fails, changing nothing, when the
    /// store refuses the write.
    pub fn set_file_acl(&self, node: &str, acl: &FileAcl) -> io::Result<()> {
        self.store.put(
            FILE_ACL_BUCKET,
            node,
            json::to_string(&acl.to_value()).into_bytes(),
        )
    }

    /// Remove a file ACL node.
    pub fn clear_file_acl(&self, node: &str) -> io::Result<()> {
        self.store.delete(FILE_ACL_BUCKET, node).map(drop)
    }

    /// Read back a file ACL node.
    pub fn file_acl(&self, node: &str) -> Option<FileAcl> {
        FileAcl::from_value(&self.files.records.read(node)?)
    }

    /// May `dn` invoke `method`? Evaluated lowest level first; the first
    /// non-silent level decides; no decision anywhere ⇒ deny (there must be
    /// an explicit grant somewhere up the tree). This is the second of the
    /// paper's two per-request checks ("whether the client has access to
    /// the particular method being called").
    pub fn check_method(&self, method: &str, dn: &DistinguishedName, vo: &VoManager) -> bool {
        self.methods.decide(method, 0, dn, dn, vo)
    }

    /// Same as [`AclEngine::check_method`], but with the caller supplying
    /// `dn_key`: a pre-rendered form of `dn` (the session's stored DN
    /// string), used verbatim in the decision-cache key so the hot request
    /// path does not re-render the DN on every call.
    pub fn check_method_keyed(
        &self,
        method: &str,
        dn: &DistinguishedName,
        dn_key: impl Display,
        vo: &VoManager,
    ) -> bool {
        self.methods.decide(method, 0, dn, dn_key, vo)
    }

    /// May `dn` access `path` for `access`? The same walk over the path
    /// hierarchy, reading each level's list for `access`.
    pub fn check_file(
        &self,
        path: &str,
        access: FileAccess,
        dn: &DistinguishedName,
        vo: &VoManager,
    ) -> bool {
        self.files
            .decide(&rooted(path), access as usize, dn, dn, vo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(text: &str) -> DistinguishedName {
        DistinguishedName::parse(text).unwrap()
    }

    fn setup() -> (AclEngine, VoManager, DistinguishedName) {
        let store = Arc::new(Store::in_memory());
        let admin = "/O=grid/CN=admin";
        let vo = VoManager::new(Arc::clone(&store), &[admin.to_owned()]);
        (AclEngine::new(store), vo, dn(admin))
    }

    #[test]
    fn method_level_splitting() {
        let method_levels = |m| levels(m, dotted_parent).collect::<Vec<_>>();
        assert_eq!(
            method_levels("module.submodule.method"),
            vec!["module.submodule.method", "module.submodule", "module"]
        );
        assert_eq!(method_levels("echo"), vec!["echo"]);
    }

    #[test]
    fn path_level_splitting() {
        let path_levels = |p| levels(p, path_parent).collect::<Vec<_>>();
        assert_eq!(path_levels("/a/b/c"), vec!["/a/b/c", "/a/b", "/a", "/"]);
        assert_eq!(path_levels("/"), vec!["/"]);
        // Unrooted paths are normalized first (allocating only then).
        assert_eq!(rooted("a"), "/a");
        assert_eq!(path_levels(&rooted("a")), vec!["/a", "/"]);
        assert!(matches!(rooted("/already"), Cow::Borrowed(_)));
    }

    #[test]
    fn default_is_deny() {
        let (acl, vo, _) = setup();
        assert!(!acl.check_method("file.read", &dn("/O=x/CN=u"), &vo));
        assert!(!acl.check_file("/data/f", FileAccess::Read, &dn("/O=x/CN=u"), &vo));
    }

    #[test]
    fn higher_level_grant_applies_to_lower_methods() {
        let (engine, vo, _) = setup();
        let alice = dn("/O=grid/OU=People/CN=alice");
        // Grant at the module level...
        engine
            .set_method_acl("file", &Acl::allow_dn("/O=grid/OU=People/CN=alice"))
            .unwrap();
        // ..."automatically has access to a lower level method".
        assert!(engine.check_method("file.read", &alice, &vo));
        assert!(engine.check_method("file.ls", &alice, &vo));
        assert!(engine.check_method("file", &alice, &vo));
        // Other modules stay denied.
        assert!(!engine.check_method("shell.cmd", &alice, &vo));
    }

    #[test]
    fn lower_level_deny_overrides_higher_grant() {
        let (engine, vo, _) = setup();
        let alice = dn("/O=grid/OU=People/CN=alice");
        engine
            .set_method_acl("file", &Acl::allow_dn("/O=grid/OU=People/CN=alice"))
            .unwrap();
        // "unless specifically denied at the lower level"
        engine
            .set_method_acl("file.delete", &Acl::deny_dn("/O=grid/OU=People/CN=alice"))
            .unwrap();
        assert!(engine.check_method("file.read", &alice, &vo));
        assert!(!engine.check_method("file.delete", &alice, &vo));
    }

    #[test]
    fn lower_allow_beats_higher_deny() {
        let (engine, vo, _) = setup();
        let bob = dn("/O=grid/CN=bob");
        engine
            .set_method_acl("admin", &Acl::deny_dn("/O=grid/CN=bob"))
            .unwrap();
        engine
            .set_method_acl("admin.status", &Acl::allow_dn("/O=grid/CN=bob"))
            .unwrap();
        // Lowest applicable level decides first.
        assert!(engine.check_method("admin.status", &bob, &vo));
        assert!(!engine.check_method("admin.shutdown", &bob, &vo));
    }

    #[test]
    fn group_based_acl_with_vo() {
        let (engine, vo, admin) = setup();
        vo.create_group(&admin, "cms").unwrap();
        vo.create_group(&admin, "cms.analysis").unwrap();
        let alice = dn("/O=grid/CN=alice");
        vo.add_member(&admin, "cms", &alice.to_string()).unwrap();

        engine
            .set_method_acl("proof", &Acl::allow_group("cms.analysis"))
            .unwrap();
        // alice is a member of cms, hence (hierarchically) of cms.analysis.
        assert!(engine.check_method("proof.query", &alice, &vo));
        let outsider = dn("/O=other/CN=eve");
        assert!(!engine.check_method("proof.query", &outsider, &vo));
    }

    #[test]
    fn order_resolves_conflicts_at_same_level() {
        let (engine, vo, _) = setup();
        let user = dn("/O=grid/CN=dual");
        // User matches both allow and deny at the same node.
        let both_allowdeny = Acl {
            order: Order::AllowDeny,
            allow_dns: vec!["/O=grid".into()],
            deny_dns: vec!["/O=grid/CN=dual".into()],
            ..Default::default()
        };
        engine.set_method_acl("m1", &both_allowdeny).unwrap();
        assert!(!engine.check_method("m1.x", &user, &vo)); // deny wins

        let both_denyallow = Acl {
            order: Order::DenyAllow,
            ..both_allowdeny.clone()
        };
        engine.set_method_acl("m2", &both_denyallow).unwrap();
        assert!(engine.check_method("m2.x", &user, &vo)); // allow wins
    }

    #[test]
    fn file_acl_read_write_distinct() {
        let (engine, vo, _) = setup();
        let alice = dn("/O=grid/CN=alice");
        engine
            .set_file_acl(
                "/data",
                &FileAcl {
                    read: Acl::allow_dn("/O=grid"),
                    write: Acl::allow_dn("/O=grid/CN=librarian"),
                },
            )
            .unwrap();
        assert!(engine.check_file("/data/run1/f.root", FileAccess::Read, &alice, &vo));
        assert!(!engine.check_file("/data/run1/f.root", FileAccess::Write, &alice, &vo));
        let librarian = dn("/O=grid/CN=librarian");
        assert!(engine.check_file("/data/x", FileAccess::Write, &librarian, &vo));
    }

    #[test]
    fn file_acl_subdir_deny() {
        let (engine, vo, _) = setup();
        let alice = dn("/O=grid/CN=alice");
        engine
            .set_file_acl(
                "/",
                &FileAcl {
                    read: Acl::allow_dn("/O=grid"),
                    ..Default::default()
                },
            )
            .unwrap();
        engine
            .set_file_acl(
                "/private",
                &FileAcl {
                    read: Acl::deny_dn("/O=grid/CN=alice"),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(engine.check_file("/public/f", FileAccess::Read, &alice, &vo));
        assert!(!engine.check_file("/private/f", FileAccess::Read, &alice, &vo));
    }

    #[test]
    fn acl_persistence_roundtrip() {
        let (engine, _, _) = setup();
        let acl = Acl {
            order: Order::DenyAllow,
            allow_dns: vec!["/O=a".into()],
            allow_groups: vec!["g1".into(), "g2".into()],
            deny_dns: vec!["/O=b/CN=x".into()],
            deny_groups: vec!["g3".into()],
        };
        engine.set_method_acl("mod.sub", &acl).unwrap();
        assert_eq!(engine.method_acl("mod.sub").unwrap(), acl);
        assert_eq!(engine.method_acl_nodes(), vec!["mod.sub"]);
        engine.clear_method_acl("mod.sub").unwrap();
        assert!(engine.method_acl("mod.sub").is_none());

        let facl = FileAcl {
            read: Acl::allow_group("g"),
            write: Acl::deny_dn("/O=x"),
        };
        engine.set_file_acl("/d", &facl).unwrap();
        assert_eq!(engine.file_acl("/d").unwrap(), facl);
        engine.clear_file_acl("/d").unwrap();
        assert!(engine.file_acl("/d").is_none());
    }

    #[test]
    fn wildcard_matches_any_authenticated_dn() {
        let (engine, vo, _) = setup();
        engine.set_method_acl("open", &Acl::allow_dn("*")).unwrap();
        assert!(engine.check_method("open.anything", &dn("/O=anywhere/CN=anyone"), &vo));
        // A lower-level deny still overrides the wildcard grant.
        engine
            .set_method_acl("open.secret", &Acl::deny_dn("/O=anywhere/CN=anyone"))
            .unwrap();
        assert!(!engine.check_method("open.secret", &dn("/O=anywhere/CN=anyone"), &vo));
    }

    #[test]
    fn decision_cache_hits_on_repeat_checks() {
        let (engine, vo, _) = setup();
        let alice = dn("/O=grid/CN=alice");
        engine
            .set_method_acl("file", &Acl::allow_dn("/O=grid"))
            .unwrap();
        assert!(engine.check_method("file.read", &alice, &vo));
        let first = engine.decision_cache_stats();
        assert_eq!(first.hits, 0);
        assert!(engine.check_method("file.read", &alice, &vo));
        let second = engine.decision_cache_stats();
        assert_eq!(second.hits, 1);
        assert_eq!(second.misses, first.misses);
    }

    #[test]
    fn keyed_check_shares_cache_entries_with_plain_check() {
        let (engine, vo, _) = setup();
        let alice = dn("/O=grid/CN=alice");
        let rendered = alice.to_string();
        engine
            .set_method_acl("file", &Acl::allow_dn("/O=grid"))
            .unwrap();
        // A keyed check (session path: pre-rendered DN string) lands on
        // the same cache entry as a plain check of the same identity.
        assert!(engine.check_method("file.read", &alice, &vo));
        assert!(engine.check_method_keyed("file.read", &alice, &rendered, &vo));
        assert_eq!(engine.decision_cache_stats().hits, 1);
        // Revocation applies to the keyed path too.
        engine.clear_method_acl("file").unwrap();
        assert!(!engine.check_method_keyed("file.read", &alice, &rendered, &vo));
    }

    #[test]
    fn revocation_invalidates_cached_decision() {
        let (engine, vo, _) = setup();
        let alice = dn("/O=grid/CN=alice");
        engine
            .set_method_acl("file", &Acl::allow_dn("/O=grid/CN=alice"))
            .unwrap();
        // Warm both cache layers.
        assert!(engine.check_method("file.read", &alice, &vo));
        assert!(engine.check_method("file.read", &alice, &vo));
        // Revoke: the very next check must see it (no stale-grant window).
        engine.clear_method_acl("file").unwrap();
        assert!(!engine.check_method("file.read", &alice, &vo));
        // And re-granting is equally immediate.
        engine
            .set_method_acl("file", &Acl::allow_dn("/O=grid/CN=alice"))
            .unwrap();
        assert!(engine.check_method("file.read", &alice, &vo));
    }

    #[test]
    fn vo_change_invalidates_cached_decision() {
        let (engine, vo, admin) = setup();
        let alice = dn("/O=grid/CN=alice");
        vo.create_group(&admin, "cms").unwrap();
        engine
            .set_method_acl("proof", &Acl::allow_group("cms"))
            .unwrap();
        assert!(!engine.check_method("proof.query", &alice, &vo));
        // A VO-side grant flips the cached deny immediately...
        vo.add_member(&admin, "cms", &alice.to_string()).unwrap();
        assert!(engine.check_method("proof.query", &alice, &vo));
        // ...and a VO-side revocation flips it back.
        vo.remove_member(&admin, "cms", &alice.to_string()).unwrap();
        assert!(!engine.check_method("proof.query", &alice, &vo));
    }

    #[test]
    fn file_decision_cache_keeps_read_write_distinct() {
        let (engine, vo, _) = setup();
        let alice = dn("/O=grid/CN=alice");
        engine
            .set_file_acl(
                "/data",
                &FileAcl {
                    read: Acl::allow_dn("/O=grid"),
                    write: Acl::default(),
                },
            )
            .unwrap();
        // Repeat each check so both answers come from the decision cache.
        for _ in 0..2 {
            assert!(engine.check_file("/data/f", FileAccess::Read, &alice, &vo));
            assert!(!engine.check_file("/data/f", FileAccess::Write, &alice, &vo));
        }
        // File-side revocation is immediate too.
        engine.clear_file_acl("/data").unwrap();
        assert!(!engine.check_file("/data/f", FileAccess::Read, &alice, &vo));
    }

    #[test]
    fn malformed_stored_acl_ignored() {
        let (engine, vo, _) = setup();
        // Write garbage where an ACL should be.
        let store = Arc::new(Store::in_memory());
        let engine2 = AclEngine::new(Arc::clone(&store));
        store
            .put(METHOD_ACL_BUCKET, "m", b"not json".to_vec())
            .unwrap();
        assert!(engine2.method_acl("m").is_none());
        assert!(!engine2.check_method("m.x", &dn("/O=a/CN=b"), &vo));
        drop(engine);
    }
}
