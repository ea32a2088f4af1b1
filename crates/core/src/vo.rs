//! Virtual Organization management (paper §2.1).
//!
//! Each server manages "a tree-like Virtual Organization structure ...
//! rooted in a list of administrators". Groups are named hierarchically
//! (`A`, `A.1`, `A.2`, ...) and each carries two DN lists — members and
//! admins. The rules implemented here are exactly the paper's:
//!
//! * the root `admins` group is populated statically from the server
//!   configuration on each restart and may create/delete groups at all
//!   levels;
//! * group administrators may add/delete members and manage groups at
//!   lower levels in their branch;
//! * membership is hierarchical *downward*: "group members of higher level
//!   groups are automatically members of lower level groups in the same
//!   branch";
//! * member entries are DN *prefixes*: `/O=doesciencegrid.org/OU=People`
//!   admits every individual under that CA branch.
//!
//! Membership checks sit on the per-request authorization path (every
//! group-based ACL consults them), so the manager reads its groups through
//! a `crate::cache::Records`: records *compiled* once — entries parsed
//! into [`DistinguishedName`] prefixes at load instead of on every check —
//! and tagged with the `vo.groups` bucket generation. Any group write makes
//! every cached record stale on its next lookup, so revocations are
//! visible on the very next check.

use std::io;
use std::sync::Arc;

use clarens_db::Store;
use clarens_pki::dn::DistinguishedName;
use clarens_wire::{json, Value};

use crate::acl::{dotted_parent, levels};
use crate::cache::{CacheStats, Records};

/// DB bucket for group records.
pub const VO_BUCKET: &str = "vo.groups";
/// The reserved root group.
pub const ADMINS_GROUP: &str = "admins";

/// A VO group record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Group {
    /// Member DN (prefix) strings.
    pub members: Vec<String>,
    /// Administrator DN (prefix) strings.
    pub admins: Vec<String>,
}

impl Group {
    fn to_value(&self) -> Value {
        Value::structure([
            (
                "members",
                Value::Array(self.members.iter().cloned().map(Value::from).collect()),
            ),
            (
                "admins",
                Value::Array(self.admins.iter().cloned().map(Value::from).collect()),
            ),
        ])
    }

    fn from_value(value: &Value) -> Option<Group> {
        let list = |k: &str| -> Option<Vec<String>> {
            Some(
                value
                    .get(k)?
                    .as_array()?
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_owned))
                    .collect(),
            )
        };
        Some(Group {
            members: list("members")?,
            admins: list("admins")?,
        })
    }
}

/// VO errors.
#[derive(Debug)]
pub enum VoError {
    /// Actor lacks the privilege for the operation.
    NotAuthorized(String),
    /// Group name invalid or parent missing.
    BadGroup(String),
    /// Group already exists / does not exist.
    Conflict(String),
    /// The store refused the write (a degraded store is read-only).
    Store(io::Error),
}

impl std::fmt::Display for VoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VoError::NotAuthorized(m) => write!(f, "not authorized: {m}"),
            VoError::BadGroup(m) => write!(f, "bad group: {m}"),
            VoError::Conflict(m) => write!(f, "conflict: {m}"),
            VoError::Store(e) => write!(f, "vo store: {e}"),
        }
    }
}

impl std::error::Error for VoError {}

impl From<io::Error> for VoError {
    fn from(e: io::Error) -> Self {
        VoError::Store(e)
    }
}

/// A group with its DN-prefix entries parsed once at load. Unparseable
/// entries are dropped: an entry that fails to parse matches nothing.
struct CompiledGroup {
    members: Vec<DistinguishedName>,
    admins: Vec<DistinguishedName>,
}

impl CompiledGroup {
    fn compile(group: &Group) -> CompiledGroup {
        let parse = |entries: &[String]| {
            entries
                .iter()
                .filter_map(|e| DistinguishedName::parse(e).ok())
                .collect()
        };
        CompiledGroup {
            members: parse(&group.members),
            admins: parse(&group.admins),
        }
    }
}

fn compiled_matches(dn: &DistinguishedName, prefixes: &[DistinguishedName]) -> bool {
    prefixes.iter().any(|prefix| dn.has_prefix(prefix))
}

/// Admins count as members.
fn admits(group: &CompiledGroup, dn: &DistinguishedName) -> bool {
    compiled_matches(dn, &group.members) || compiled_matches(dn, &group.admins)
}

fn valid_group_name(name: &str) -> bool {
    !name.is_empty()
        && name != ADMINS_GROUP
        && name.split('.').all(|segment| {
            !segment.is_empty()
                && segment
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        })
}

/// The VO manager.
pub struct VoManager {
    store: Arc<Store>,
    /// Compiled group records of [`VO_BUCKET`].
    groups: Records<CompiledGroup>,
}

impl VoManager {
    /// Create the manager and (re)populate the root `admins` group from the
    /// configured DNs — "populated statically ... on each server restart".
    pub fn new(store: Arc<Store>, admin_dns: &[String]) -> Self {
        let groups = Records::new(Arc::clone(&store), VO_BUCKET, |value| {
            Some(CompiledGroup::compile(&Group::from_value(value)?))
        });
        let manager = VoManager { store, groups };
        let root = Group {
            members: admin_dns.to_vec(),
            admins: admin_dns.to_vec(),
        };
        // A store that refuses this write is degraded: it refuses every
        // later one as well, and those surface the error.
        let _ = manager.save(ADMINS_GROUP, &root);
        manager
    }

    /// Hit/miss counters of the compiled-group cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.groups.stats()
    }

    /// The generation of [`VO_BUCKET`]: every group write moves it, so
    /// every answer that read a group is tagged with it.
    pub(crate) fn generation(&self) -> u64 {
        self.groups.generation()
    }

    /// Does `test` hold for `group_name` or one of its ancestors?
    fn up_from(&self, group_name: &str, test: impl Fn(&CompiledGroup) -> bool) -> bool {
        let generation = self.groups.generation();
        levels(group_name, dotted_parent)
            .any(|name| self.groups.get(name, generation).is_some_and(|g| test(&g)))
    }

    fn save(&self, name: &str, group: &Group) -> io::Result<()> {
        self.store.put(
            VO_BUCKET,
            name,
            json::to_string(&group.to_value()).into_bytes(),
        )
    }

    /// Load a group record.
    pub fn group(&self, name: &str) -> Option<Group> {
        Group::from_value(&self.groups.read(name)?)
    }

    /// All group names (sorted).
    pub fn list_groups(&self) -> Vec<String> {
        self.store.keys(VO_BUCKET)
    }

    /// Is `dn` a site administrator (member of the root `admins` group,
    /// which has no ancestors)?
    pub fn is_site_admin(&self, dn: &DistinguishedName) -> bool {
        self.up_from(ADMINS_GROUP, |g| admits(g, dn))
    }

    /// Is `dn` an administrator of `group` (directly, via an ancestor
    /// group, or as a site admin)?
    pub fn is_admin(&self, group_name: &str, dn: &DistinguishedName) -> bool {
        self.is_site_admin(dn) || self.up_from(group_name, |g| compiled_matches(dn, &g.admins))
    }

    /// Is `dn` a member of `group`? Membership is inherited downward from
    /// ancestor groups, admins count as members, and site admins are
    /// members of everything.
    pub fn is_member(&self, group_name: &str, dn: &DistinguishedName) -> bool {
        self.is_site_admin(dn) || self.up_from(group_name, |g| admits(g, dn))
    }

    /// Create a group. Top-level groups require site admin; subgroups
    /// require admin of the parent (or any ancestor).
    pub fn create_group(&self, actor: &DistinguishedName, name: &str) -> Result<(), VoError> {
        if !valid_group_name(name) {
            return Err(VoError::BadGroup(format!("invalid group name {name:?}")));
        }
        if self.group(name).is_some() {
            return Err(VoError::Conflict(format!("group {name:?} exists")));
        }
        match name.rfind('.') {
            None => {
                if !self.is_site_admin(actor) {
                    return Err(VoError::NotAuthorized(
                        "only site admins may create top-level groups".into(),
                    ));
                }
            }
            Some(pos) => {
                let parent = &name[..pos];
                if self.group(parent).is_none() {
                    return Err(VoError::BadGroup(format!(
                        "parent {parent:?} does not exist"
                    )));
                }
                if !self.is_admin(parent, actor) {
                    return Err(VoError::NotAuthorized(format!(
                        "{actor} is not an admin of {parent:?}"
                    )));
                }
            }
        }
        Ok(self.save(name, &Group::default())?)
    }

    /// Delete a group and all its subgroups. Requires admin of the group's
    /// parent branch (deleting `A.1` needs admin of `A` or higher; deleting
    /// a top-level group needs site admin).
    pub fn delete_group(&self, actor: &DistinguishedName, name: &str) -> Result<(), VoError> {
        if name == ADMINS_GROUP {
            return Err(VoError::BadGroup("cannot delete the admins group".into()));
        }
        if self.group(name).is_none() {
            return Err(VoError::Conflict(format!("group {name:?} does not exist")));
        }
        let authorized = match name.rfind('.') {
            None => self.is_site_admin(actor),
            Some(pos) => self.is_admin(&name[..pos], actor),
        };
        if !authorized {
            return Err(VoError::NotAuthorized(format!(
                "{actor} may not delete {name:?}"
            )));
        }
        // Delete the group and every subgroup beneath it, stopping at the
        // first delete the store refuses.
        self.store.delete(VO_BUCKET, name)?;
        let prefix = format!("{name}.");
        for (key, _) in self.store.scan_prefix(VO_BUCKET, &prefix) {
            self.store.delete(VO_BUCKET, &key)?;
        }
        Ok(())
    }

    /// Add a member DN (prefix) to a group. Requires group admin.
    pub fn add_member(
        &self,
        actor: &DistinguishedName,
        group_name: &str,
        member: &str,
    ) -> Result<(), VoError> {
        self.modify(actor, group_name, |g| {
            if !g.members.contains(&member.to_owned()) {
                g.members.push(member.to_owned());
            }
        })
    }

    /// Remove a member DN from a group. Requires group admin.
    pub fn remove_member(
        &self,
        actor: &DistinguishedName,
        group_name: &str,
        member: &str,
    ) -> Result<(), VoError> {
        self.modify(actor, group_name, |g| g.members.retain(|m| m != member))
    }

    /// Add an administrator DN to a group. Requires group admin.
    pub fn add_admin(
        &self,
        actor: &DistinguishedName,
        group_name: &str,
        admin: &str,
    ) -> Result<(), VoError> {
        self.modify(actor, group_name, |g| {
            if !g.admins.contains(&admin.to_owned()) {
                g.admins.push(admin.to_owned());
            }
        })
    }

    /// Remove an administrator DN from a group. Requires group admin.
    pub fn remove_admin(
        &self,
        actor: &DistinguishedName,
        group_name: &str,
        admin: &str,
    ) -> Result<(), VoError> {
        self.modify(actor, group_name, |g| g.admins.retain(|a| a != admin))
    }

    fn modify(
        &self,
        actor: &DistinguishedName,
        group_name: &str,
        mutate: impl FnOnce(&mut Group),
    ) -> Result<(), VoError> {
        if group_name == ADMINS_GROUP && !self.is_site_admin(actor) {
            return Err(VoError::NotAuthorized(
                "only site admins may edit admins".into(),
            ));
        }
        let mut group = self
            .group(group_name)
            .ok_or_else(|| VoError::Conflict(format!("group {group_name:?} does not exist")))?;
        if group_name != ADMINS_GROUP && !self.is_admin(group_name, actor) {
            return Err(VoError::NotAuthorized(format!(
                "{actor} is not an admin of {group_name:?}"
            )));
        }
        mutate(&mut group);
        Ok(self.save(group_name, &group)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(text: &str) -> DistinguishedName {
        DistinguishedName::parse(text).unwrap()
    }

    fn setup() -> (VoManager, DistinguishedName) {
        let admin = "/O=grid/OU=People/CN=root-admin";
        let manager = VoManager::new(Arc::new(Store::in_memory()), &[admin.to_owned()]);
        (manager, dn(admin))
    }

    #[test]
    fn admins_group_populated_from_config() {
        let (vo, admin) = setup();
        assert!(vo.is_site_admin(&admin));
        assert!(!vo.is_site_admin(&dn("/O=grid/OU=People/CN=nobody")));
        let group = vo.group(ADMINS_GROUP).unwrap();
        assert_eq!(group.members.len(), 1);
    }

    #[test]
    fn admins_repopulated_on_restart() {
        let store = Arc::new(Store::in_memory());
        {
            let vo = VoManager::new(Arc::clone(&store), &["/O=g/CN=old".to_owned()]);
            assert!(vo.is_site_admin(&dn("/O=g/CN=old")));
        }
        // "Restart" with a different config: old admin must be gone.
        let vo = VoManager::new(store, &["/O=g/CN=new".to_owned()]);
        assert!(!vo.is_site_admin(&dn("/O=g/CN=old")));
        assert!(vo.is_site_admin(&dn("/O=g/CN=new")));
    }

    #[test]
    fn paper_tree_structure() {
        // The example in Figure 2: top-level A, B, C; second level A.1-A.3.
        let (vo, admin) = setup();
        for name in ["A", "B", "C"] {
            vo.create_group(&admin, name).unwrap();
        }
        for name in ["A.1", "A.2", "A.3"] {
            vo.create_group(&admin, name).unwrap();
        }
        let mut groups = vo.list_groups();
        groups.retain(|g| g != ADMINS_GROUP);
        assert_eq!(groups, vec!["A", "A.1", "A.2", "A.3", "B", "C"]);
    }

    #[test]
    fn hierarchical_membership_downward() {
        let (vo, admin) = setup();
        vo.create_group(&admin, "A").unwrap();
        vo.create_group(&admin, "A.1").unwrap();
        vo.create_group(&admin, "B").unwrap();
        let alice = dn("/O=grid/OU=People/CN=alice");
        vo.add_member(&admin, "A", &alice.to_string()).unwrap();

        // "group members of higher level groups are automatically members
        //  of lower level groups in the same branch"
        assert!(vo.is_member("A", &alice));
        assert!(vo.is_member("A.1", &alice));
        assert!(!vo.is_member("B", &alice));

        // Not the other way around.
        let bob = dn("/O=grid/OU=People/CN=bob");
        vo.add_member(&admin, "A.1", &bob.to_string()).unwrap();
        assert!(vo.is_member("A.1", &bob));
        assert!(!vo.is_member("A", &bob));
    }

    #[test]
    fn dn_prefix_membership() {
        let (vo, admin) = setup();
        vo.create_group(&admin, "people").unwrap();
        // The paper's example: add all DOE Science Grid individuals.
        vo.add_member(&admin, "people", "/O=doesciencegrid.org/OU=People")
            .unwrap();
        assert!(vo.is_member(
            "people",
            &dn("/O=doesciencegrid.org/OU=People/CN=John Smith 12345")
        ));
        assert!(!vo.is_member("people", &dn("/O=doesciencegrid.org/OU=Services/CN=host")));
        assert!(!vo.is_member("people", &dn("/O=cern.ch/OU=People/CN=X")));
    }

    #[test]
    fn group_admin_privileges() {
        let (vo, admin) = setup();
        vo.create_group(&admin, "A").unwrap();
        let lead = dn("/O=grid/OU=People/CN=lead");
        vo.add_admin(&admin, "A", &lead.to_string()).unwrap();

        // Group admins manage members and subgroups...
        let member = dn("/O=grid/OU=People/CN=worker");
        vo.add_member(&lead, "A", &member.to_string()).unwrap();
        vo.create_group(&lead, "A.sub").unwrap();
        vo.delete_group(&lead, "A.sub").unwrap();
        vo.remove_member(&lead, "A", &member.to_string()).unwrap();
        assert!(!vo.is_member("A", &member));

        // ...but cannot create top-level groups or touch other branches.
        assert!(matches!(
            vo.create_group(&lead, "D"),
            Err(VoError::NotAuthorized(_))
        ));
        vo.create_group(&admin, "B").unwrap();
        assert!(matches!(
            vo.add_member(&lead, "B", "/O=x/CN=y"),
            Err(VoError::NotAuthorized(_))
        ));
    }

    #[test]
    fn ancestor_admins_manage_subgroups() {
        let (vo, admin) = setup();
        vo.create_group(&admin, "A").unwrap();
        let lead = dn("/O=grid/CN=lead");
        vo.add_admin(&admin, "A", &lead.to_string()).unwrap();
        vo.create_group(&lead, "A.1").unwrap();
        // lead is admin of A, hence effectively of A.1 as well.
        assert!(vo.is_admin("A.1", &lead));
        vo.add_member(&lead, "A.1", "/O=grid/CN=someone").unwrap();
    }

    #[test]
    fn non_admin_rejected() {
        let (vo, admin) = setup();
        vo.create_group(&admin, "A").unwrap();
        let mallory = dn("/O=grid/CN=mallory");
        assert!(matches!(
            vo.create_group(&mallory, "A.evil"),
            Err(VoError::NotAuthorized(_))
        ));
        assert!(matches!(
            vo.add_member(&mallory, "A", &mallory.to_string()),
            Err(VoError::NotAuthorized(_))
        ));
        assert!(matches!(
            vo.delete_group(&mallory, "A"),
            Err(VoError::NotAuthorized(_))
        ));
        assert!(matches!(
            vo.add_admin(&mallory, ADMINS_GROUP, &mallory.to_string()),
            Err(VoError::NotAuthorized(_))
        ));
    }

    #[test]
    fn group_validation() {
        let (vo, admin) = setup();
        assert!(matches!(
            vo.create_group(&admin, ""),
            Err(VoError::BadGroup(_))
        ));
        assert!(matches!(
            vo.create_group(&admin, "has space"),
            Err(VoError::BadGroup(_))
        ));
        assert!(matches!(
            vo.create_group(&admin, "a..b"),
            Err(VoError::BadGroup(_))
        ));
        assert!(matches!(
            vo.create_group(&admin, ADMINS_GROUP),
            Err(VoError::BadGroup(_))
        ));
        // Subgroup of a nonexistent parent.
        assert!(matches!(
            vo.create_group(&admin, "nope.sub"),
            Err(VoError::BadGroup(_))
        ));
        vo.create_group(&admin, "A").unwrap();
        assert!(matches!(
            vo.create_group(&admin, "A"),
            Err(VoError::Conflict(_))
        ));
        assert!(matches!(
            vo.delete_group(&admin, "ghost"),
            Err(VoError::Conflict(_))
        ));
        assert!(matches!(
            vo.delete_group(&admin, ADMINS_GROUP),
            Err(VoError::BadGroup(_))
        ));
    }

    #[test]
    fn recursive_group_deletion() {
        let (vo, admin) = setup();
        vo.create_group(&admin, "A").unwrap();
        vo.create_group(&admin, "A.1").unwrap();
        vo.create_group(&admin, "A.1.x").unwrap();
        // Sibling that must NOT be caught by the prefix delete.
        vo.create_group(&admin, "A2").unwrap();
        vo.delete_group(&admin, "A").unwrap();
        assert!(vo.group("A").is_none());
        assert!(vo.group("A.1").is_none());
        assert!(vo.group("A.1.x").is_none());
        assert!(vo.group("A2").is_some());
    }

    #[test]
    fn site_admin_is_member_of_everything() {
        let (vo, admin) = setup();
        vo.create_group(&admin, "A").unwrap();
        assert!(vo.is_member("A", &admin));
        assert!(vo.is_admin("A", &admin));
    }

    #[test]
    fn membership_changes_visible_through_cache() {
        let (vo, admin) = setup();
        vo.create_group(&admin, "A").unwrap();
        let alice = dn("/O=grid/CN=alice");
        // Warm the compiled cache with the deny answer.
        assert!(!vo.is_member("A", &alice));
        assert!(!vo.is_member("A", &alice));
        assert!(vo.cache_stats().hits > 0);
        // Granting and revoking must each be visible on the next check.
        vo.add_member(&admin, "A", &alice.to_string()).unwrap();
        assert!(vo.is_member("A", &alice));
        vo.remove_member(&admin, "A", &alice.to_string()).unwrap();
        assert!(!vo.is_member("A", &alice));
    }

    #[test]
    fn unparseable_entries_never_match() {
        let (vo, admin) = setup();
        vo.create_group(&admin, "A").unwrap();
        // "*" is an ACL wildcard, but VO groups have no wildcard
        // entries — and garbage entries are simply inert.
        vo.add_member(&admin, "A", "*").unwrap();
        vo.add_member(&admin, "A", "not a dn").unwrap();
        assert!(!vo.is_member("A", &dn("/O=grid/CN=alice")));
    }
}
