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
//! The engine layers epoch-invalidated caches over the store (see
//! [`crate::cache`]): stored ACL records are *compiled* once — DN-prefix
//! entries parsed into [`DistinguishedName`]s — and memoized per node
//! tagged with the ACL bucket's generation, and full authorization
//! decisions are memoized per `(node, DN)` tagged with the ACL *and* VO
//! bucket generations, so a grant or revocation anywhere in either tree is
//! visible on the very next check.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clarens_db::Store;
use clarens_pki::dn::DistinguishedName;
use clarens_wire::{json, Value};

use crate::cache::{CacheStats, Sharded};
use crate::vo::{VoManager, VO_BUCKET};

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

/// A compiled [`FileAcl`].
#[derive(Debug, Clone)]
struct CompiledFileAcl {
    read: CompiledAcl,
    write: CompiledAcl,
}

/// A file ACL: separate lists per access kind (paper §2.3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileAcl {
    /// Controls `file.read`, `file.ls`, `file.stat`, `file.md5`, GET.
    pub read: Acl,
    /// Controls uploads, deletes, and other mutations.
    pub write: Acl,
}

/// The kind of file access being checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileAccess {
    /// Read-type access.
    Read,
    /// Write-type access.
    Write,
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

/// Walk a method name's hierarchy, most specific first:
/// `module.submodule.method` → `module.submodule.method`,
/// `module.submodule`, `module`. Borrows from the input — no per-request
/// allocation.
fn method_levels(method: &str) -> impl Iterator<Item = &str> {
    std::iter::successors(Some(method), |m| m.rfind('.').map(|pos| &m[..pos]))
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

/// Walk a rooted file path's hierarchy, most specific first:
/// `/a/b/c` → `/a/b/c`, `/a/b`, `/a`, `/`. Borrows from the input; the
/// path must start with `/` (see [`rooted`]).
fn path_levels(path: &str) -> impl Iterator<Item = &str> {
    debug_assert!(path.starts_with('/'));
    std::iter::successors(Some(path), |p| match p.rfind('/') {
        Some(0) => (*p != "/").then_some("/"),
        Some(pos) => Some(&p[..pos]),
        None => None,
    })
}

/// The ACL engine: stores ACLs in the DB and answers access questions.
///
/// The engine keeps two layers of epoch-invalidated state: compiled
/// per-node records tagged with the ACL bucket generation, and
/// `(node, DN) → bool` decisions tagged with the ACL and VO bucket
/// generations. Any `put`/`delete` to either bucket moves the
/// corresponding generation, so no stale grant can survive a revocation.
pub struct AclEngine {
    store: Arc<Store>,
    method_gen: Arc<AtomicU64>,
    file_gen: Arc<AtomicU64>,
    vo_gen: Arc<AtomicU64>,
    compiled_methods: Sharded<String, Option<Arc<CompiledAcl>>>,
    compiled_files: Sharded<String, Option<Arc<CompiledFileAcl>>>,
    method_decisions: Sharded<String, bool, (u64, u64)>,
    file_decisions: Sharded<String, bool, (u64, u64)>,
}

impl AclEngine {
    /// Create an engine over the shared store.
    pub fn new(store: Arc<Store>) -> Self {
        let method_gen = store.generation_handle(METHOD_ACL_BUCKET);
        let file_gen = store.generation_handle(FILE_ACL_BUCKET);
        let vo_gen = store.generation_handle(VO_BUCKET);
        AclEngine {
            store,
            method_gen,
            file_gen,
            vo_gen,
            compiled_methods: Sharded::new(),
            compiled_files: Sharded::new(),
            method_decisions: Sharded::new(),
            file_decisions: Sharded::new(),
        }
    }

    /// Hit/miss counters of the compiled-node caches (method + file).
    pub fn node_cache_stats(&self) -> CacheStats {
        self.compiled_methods
            .stats()
            .merged(self.compiled_files.stats())
    }

    /// Hit/miss counters of the decision caches (method + file).
    pub fn decision_cache_stats(&self) -> CacheStats {
        self.method_decisions
            .stats()
            .merged(self.file_decisions.stats())
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
        let bytes = self.store.get(METHOD_ACL_BUCKET, node)?;
        Acl::from_value(&json::parse(std::str::from_utf8(&bytes).ok()?).ok()?)
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
        let bytes = self.store.get(FILE_ACL_BUCKET, node)?;
        FileAcl::from_value(&json::parse(std::str::from_utf8(&bytes).ok()?).ok()?)
    }

    /// May `dn` invoke `method`? Evaluated lowest level first; the first
    /// non-silent level decides; no decision anywhere ⇒ deny (there must be
    /// an explicit grant somewhere up the tree). This is the second of the
    /// paper's two per-request checks ("whether the client has access to
    /// the particular method being called").
    pub fn check_method(&self, method: &str, dn: &DistinguishedName, vo: &VoManager) -> bool {
        self.decide_method(method, dn, dn, vo)
    }

    /// Same as [`AclEngine::check_method`], but with the caller supplying
    /// `dn_key`: a pre-rendered form of `dn` (the session's stored DN
    /// string), used verbatim in the decision-cache key so the hot request
    /// path does not re-render the DN on every call.
    pub fn check_method_keyed(
        &self,
        method: &str,
        dn: &DistinguishedName,
        dn_key: &str,
        vo: &VoManager,
    ) -> bool {
        self.decide_method(method, dn, dn_key, vo)
    }

    fn decide_method(
        &self,
        method: &str,
        dn: &DistinguishedName,
        dn_key: impl std::fmt::Display,
        vo: &VoManager,
    ) -> bool {
        // The decision key is built in a per-thread reusable buffer: on the
        // steady-state hit path the probe allocates nothing; only a miss
        // clones the key for insertion.
        thread_local! {
            static KEY_BUF: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
        }
        KEY_BUF.with(|buf| {
            let mut key = buf.borrow_mut();
            key.clear();
            let _ = write!(key, "{}\u{1f}{method}\u{1f}{dn_key}", method.len());
            // Generations are loaded BEFORE any record is read: a
            // concurrent write bumps its generation inside the store's
            // write-lock scope, so the decision cached below can at worst
            // be tagged with a superseded epoch (a spurious miss next
            // time), never be a stale grant under a current one.
            let tag = (
                self.method_gen.load(Ordering::SeqCst),
                self.vo_gen.load(Ordering::SeqCst),
            );
            if let Some(decision) = self.method_decisions.get(key.as_str(), tag) {
                return decision;
            }
            let gen = tag.0;
            let mut decision = false;
            for level in method_levels(method) {
                if let Some(acl) = self.compiled_method_acl(level, gen) {
                    match acl.evaluate(dn, vo) {
                        LevelDecision::Allow => {
                            decision = true;
                            break;
                        }
                        LevelDecision::Deny => break,
                        LevelDecision::Silent => continue,
                    }
                }
            }
            self.method_decisions.insert(key.clone(), tag, decision);
            decision
        })
    }

    /// Compiled record for one method node, read through the node cache.
    /// `None` (the absence of an ACL) is cached too — most hierarchy
    /// levels have no ACL attached.
    fn compiled_method_acl(&self, node: &str, gen: u64) -> Option<Arc<CompiledAcl>> {
        if let Some(cached) = self.compiled_methods.get(node, gen) {
            return cached;
        }
        let compiled = self
            .method_acl(node)
            .map(|acl| Arc::new(CompiledAcl::compile(&acl)));
        self.compiled_methods
            .insert(node.to_owned(), gen, compiled.clone());
        compiled
    }

    /// May `dn` access `path` for `access`? Same lowest-first evaluation
    /// over the path hierarchy.
    pub fn check_file(
        &self,
        path: &str,
        access: FileAccess,
        dn: &DistinguishedName,
        vo: &VoManager,
    ) -> bool {
        let path = rooted(path);
        let tag = (
            self.file_gen.load(Ordering::SeqCst),
            self.vo_gen.load(Ordering::SeqCst),
        );
        let access_mark = match access {
            FileAccess::Read => "r",
            FileAccess::Write => "w",
        };
        let mut key = decision_key(&path, dn);
        key.push('\u{1f}');
        key.push_str(access_mark);
        if let Some(decision) = self.file_decisions.get(&key, tag) {
            return decision;
        }
        let gen = tag.0;
        let mut decision = false;
        for level in path_levels(&path) {
            if let Some(file_acl) = self.compiled_file_acl(level, gen) {
                let acl = match access {
                    FileAccess::Read => &file_acl.read,
                    FileAccess::Write => &file_acl.write,
                };
                match acl.evaluate(dn, vo) {
                    LevelDecision::Allow => {
                        decision = true;
                        break;
                    }
                    LevelDecision::Deny => break,
                    LevelDecision::Silent => continue,
                }
            }
        }
        self.file_decisions.insert(key, tag, decision);
        decision
    }

    /// Compiled record for one file node, read through the node cache.
    fn compiled_file_acl(&self, node: &str, gen: u64) -> Option<Arc<CompiledFileAcl>> {
        if let Some(cached) = self.compiled_files.get(node, gen) {
            return cached;
        }
        let compiled = self.file_acl(node).map(|file_acl| {
            Arc::new(CompiledFileAcl {
                read: CompiledAcl::compile(&file_acl.read),
                write: CompiledAcl::compile(&file_acl.write),
            })
        });
        self.compiled_files
            .insert(node.to_owned(), gen, compiled.clone());
        compiled
    }
}

/// Decision-cache key for `(node, DN)`, used by the file-decision cache
/// (method decisions build the same shape into a reusable buffer, see
/// `decide_method`). Length-prefixed so no crafted method or path
/// string can collide with another caller's entry.
fn decision_key(node: &str, dn: impl std::fmt::Display) -> String {
    let mut key = String::with_capacity(node.len() + 48);
    let _ = write!(key, "{}\u{1f}{node}\u{1f}{dn}", node.len());
    key
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
        assert_eq!(
            method_levels("module.submodule.method").collect::<Vec<_>>(),
            vec!["module.submodule.method", "module.submodule", "module"]
        );
        assert_eq!(method_levels("echo").collect::<Vec<_>>(), vec!["echo"]);
    }

    #[test]
    fn path_level_splitting() {
        assert_eq!(
            path_levels("/a/b/c").collect::<Vec<_>>(),
            vec!["/a/b/c", "/a/b", "/a", "/"]
        );
        assert_eq!(path_levels("/").collect::<Vec<_>>(), vec!["/"]);
        // Unrooted paths are normalized first (allocating only then).
        assert_eq!(rooted("a"), "/a");
        assert_eq!(
            path_levels(&rooted("a")).collect::<Vec<_>>(),
            vec!["/a", "/"]
        );
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
