//! Cached authorization ≡ the paper's rules, searched: one seeded,
//! single-threaded walk interleaves mutations through the managers' APIs,
//! raw `Store::put`/`Store::delete` of ACL, group and session records
//! (written as a follower's applier writes a leader's bytes: behind the
//! managers' backs), clock moves and queries, and after every query
//! asserts that `AclEngine`, `VoManager` and `SessionManager` answer
//! exactly as the naive model in `authz_oracle/model.rs` does.
//!
//! The model shares no code with what it checks (see its module docs), so
//! a fault in a DN parser, prefix test, level walk, record decoder or
//! cache tag shows here as a divergence, reported with its seed and step.

#[path = "authz_oracle/model.rs"]
mod model;

use std::collections::HashSet;
use std::sync::Arc;

use clarens::acl::{self, AclEngine, FileAccess, FILE_ACL_BUCKET, METHOD_ACL_BUCKET};
use clarens::session::{SessionManager, SESSIONS_BUCKET};
use clarens::vo::{self, VoError, VoManager, VO_BUCKET};
use clarens_db::Store;
use clarens_pki::dn::DistinguishedName;
use clarens_search::Rng;

use model::{Acl, Authz, Dn, Edit, Entry, Group, Rdn, Record, Refusal, Session, Sessions};

/// Steps per seed: enough distinct (method, caller) questions that the
/// decision cache (16 shards × 4 096 entries) must overflow a shard.
const STEPS: usize = 100_000;
/// Session lifetime, in the model's clock units.
const TTL: i64 = 500;

const ORGS: &[&str] = &["grid", "cern.ch", "a/b", "x\\y", "k=v"];
const UNITS: &[&str] = &["People", "Services", "=", "hosts/www"];
const NAMES: &[&str] = &[
    "alice", "bob", "e\\", "c/d", "carol", "dave", "=eve", "frank", "u/0", "v\\1",
];
/// Other spellings of the types the population uses. `uid` is not one:
/// unknown types compare exactly, so it names a different type.
const SPELLINGS: &[(&str, &[&str])] = &[
    ("O", &["o"]),
    ("DC", &["dc", "Dc"]),
    ("OU", &["ou"]),
    ("CN", &["cn", "Cn"]),
    ("Email", &["E", "emailAddress", "EMAIL"]),
    ("UID", &["uid"]),
];
/// Entries that are not DNs.
const JUNK_DNS: &[&str] = &[
    "not a dn",
    "/O=a//CN=b",
    "/O=x\\",
    "/Oa",
    "/=v",
    "",
    "/",
    "O=grid",
];
/// Records that decode as nothing: not JSON, the wrong shape, an order
/// that is neither spelling, a file ACL without a `write` side, a group
/// without `admins`, a session without `expires`.
const JUNK_RECORDS: &[&str] = &[
    "not json",
    "[1,2]",
    "{\"order\":\"allow;deny\",\"allow_dns\":[\"*\"]}",
    "{\"read\":{\"order\":\"allow,deny\",\"allow_dns\":[\"*\"]}}",
    "{\"members\":[\"/O=grid\"]}",
    "{\"dn\":\"/O=grid/CN=alice\",\"created\":1}",
    "{\"order\":\"allow,deny\",\"allow_dns\":[\"*\"]",
    "",
];
const TOP: &[&str] = &["file", "echo", "proof", "vo", "shell", "m0", "m1", "m2"];
const SUB: &[&str] = &["read", "ls", "stat", "a", "b", "c", "d", "e"];
const LEAF: &[&str] = &["x", "y", "z", "w", "p", "q", "r", "s"];
const TIP: &[&str] = &["0", "1", "2", "3", "4", "5", "6", "7"];
const DIRS: [&[&str]; 4] = [
    &["d0", "d1", "d2", "d3"],
    &["e0", "e1", "e2"],
    &["f0", "f1"],
    &["x", "y"],
];
const GROUP_TOP: &[&str] = &["A", "B", "C", "cms"];
const GROUP_MID: &[&str] = &["1", "2", "x"];
const GROUP_LOW: &[&str] = &["a", "b"];
const BAD_GROUPS: &[&str] = &["", "a..b", "has space", ".x", "A.", "admins"];

/// The caller population: every combination of the lists above, half
/// rooted at `O`, half at `DC`, some with a `UID`, `Email` or proxy tail.
fn population() -> Vec<Dn> {
    let rdn = |tag: &str, value: &str| Rdn {
        tag: tag.to_owned(),
        value: value.to_owned(),
    };
    let mut dns = Vec::new();
    for (o, org) in ORGS.iter().enumerate() {
        for first in ["O", "DC"] {
            for (u, unit) in UNITS.iter().enumerate() {
                for (n, name) in NAMES.iter().enumerate() {
                    let mut dn = vec![rdn(first, org), rdn("OU", unit), rdn("CN", name)];
                    match (o + u + n) % 6 {
                        0 => dn.push(rdn("CN", "proxy")),
                        1 => dn.insert(2, rdn("UID", name)),
                        2 => dn.push(rdn("Email", &format!("{name}@{org}"))),
                        _ => {}
                    }
                    dns.push(dn);
                }
            }
        }
    }
    dns
}

fn group_names() -> Vec<String> {
    let mut names = Vec::new();
    for top in GROUP_TOP {
        names.push(top.to_string());
        for mid in GROUP_MID {
            names.push(format!("{top}.{mid}"));
            for low in GROUP_LOW {
                names.push(format!("{top}.{mid}.{low}"));
            }
        }
    }
    names
}

fn texts(entries: &[Entry]) -> Vec<String> {
    entries.iter().map(Entry::text).collect()
}

fn real_acl(acl: &Acl) -> acl::Acl {
    acl::Acl {
        order: if acl.deny_first {
            acl::Order::DenyAllow
        } else {
            acl::Order::AllowDeny
        },
        allow_dns: texts(&acl.allow_dns),
        allow_groups: acl.allow_groups.clone(),
        deny_dns: texts(&acl.deny_dns),
        deny_groups: acl.deny_groups.clone(),
    }
}

fn refusal(result: Result<(), VoError>) -> Result<(), Refusal> {
    result.map_err(|error| match error {
        VoError::BadGroup(_) => Refusal::BadGroup,
        VoError::Conflict(_) => Refusal::Conflict,
        VoError::NotAuthorized(_) => Refusal::NotAuthorized,
        VoError::Store(e) => panic!("an in-memory store refused a write: {e}"),
    })
}

/// What one search covered.
#[derive(Debug, Default)]
struct Coverage {
    distinct_method_questions: usize,
    method_decision_hits: u64,
    session_hits: u64,
    /// Resolves made at exactly a live session's `expires`.
    resolves_at_expiry: usize,
    /// Questions decided by a level that both allowed and denied.
    double_matches: usize,
    /// Hot file questions whose read and write answers differ.
    read_write_splits: usize,
    vo_mutations_accepted: usize,
    vo_mutations_refused: usize,
}

struct Search {
    seed: u64,
    step: usize,
    rng: Rng,
    store: Arc<Store>,
    vo: VoManager,
    acl: AclEngine,
    sessions: SessionManager,
    authz: Authz,
    model_sessions: Sessions,
    now: i64,
    dns: Vec<Dn>,
    reals: Vec<DistinguishedName>,
    rendered: Vec<String>,
    /// The configured site admins, and the population indices they admit.
    admin_entries: Vec<Entry>,
    site_admins: Vec<usize>,
    groups: Vec<String>,
    /// A few methods and callers asked about again and again, so cached
    /// decisions are re-read after the writes that should retire them.
    hot_methods: Vec<String>,
    hot_dns: Vec<usize>,
    /// A few paths asked about again and again by the hot callers, for
    /// both access kinds, so a memoized read answer is asked as a write.
    hot_paths: Vec<String>,
    asked: HashSet<(String, usize)>,
    /// Every session id ever seen, live or not; most recent last.
    ids: Vec<String>,
    coverage: Coverage,
}

impl Search {
    fn new(seed: u64) -> Search {
        let mut rng = Rng::new(seed);
        let dns = population();
        let admin_entries = vec![
            Entry::Dn(dns[0][..2].to_vec()),
            Entry::Dn(dns[rng.below(dns.len())].clone()),
        ];
        let store = Arc::new(Store::in_memory());
        let admin_texts = texts(&admin_entries);
        let vo = VoManager::new(Arc::clone(&store), &admin_texts);
        let authz = Authz::new(&admin_entries);
        let site_admins = (0..dns.len())
            .filter(|&i| authz.site_admin(&dns[i]))
            .collect();
        let mut hot_methods = Vec::new();
        for _ in 0..4 {
            let depth = 2 + rng.below(3);
            hot_methods.push(method_at(&mut rng, depth));
        }
        let hot_dns = (0..6).map(|_| rng.below(dns.len())).collect();
        let hot_paths = (0..3)
            .map(|_| {
                let depth = 1 + rng.below(4);
                path_at(&mut rng, depth)
            })
            .collect();
        Search {
            seed,
            step: 0,
            rng,
            acl: AclEngine::new(Arc::clone(&store)),
            sessions: SessionManager::new(Arc::clone(&store), TTL),
            store,
            vo,
            authz,
            model_sessions: Sessions::default(),
            now: 1_000_000,
            reals: dns.iter().map(|dn| model::to_real(dn)).collect(),
            rendered: dns.iter().map(|dn| model::render_dn(dn)).collect(),
            dns,
            admin_entries,
            site_admins,
            groups: group_names(),
            hot_methods,
            hot_dns,
            hot_paths,
            asked: HashSet::new(),
            ids: Vec::new(),
            coverage: Coverage::default(),
        }
    }

    fn at(&self) -> String {
        format!("seed {:#x}, step {}", self.seed, self.step)
    }

    // --- generators --------------------------------------------------

    fn caller(&mut self) -> usize {
        self.rng.below(self.dns.len())
    }

    /// A DN prefix of some caller, types sometimes respelled.
    fn prefix_entry(&mut self) -> Dn {
        let who = self.caller();
        let len = 1 + self.rng.below(self.dns[who].len());
        let mut prefix = self.dns[who][..len].to_vec();
        for rdn in &mut prefix {
            if self.rng.chance(25) {
                if let Some((_, others)) = SPELLINGS.iter().find(|(tag, _)| *tag == rdn.tag) {
                    rdn.tag = self.rng.choose(others).to_string();
                }
            }
        }
        prefix
    }

    fn entry(&mut self) -> Entry {
        match self.rng.below(24) {
            0 => Entry::Star,
            1 | 2 => Entry::Junk(self.rng.choose::<&str>(JUNK_DNS)),
            3 => Entry::Dn(vec![
                Rdn {
                    tag: "O".into(),
                    value: "elsewhere".into(),
                },
                Rdn {
                    tag: "CN".into(),
                    value: self.rng.choose(NAMES).to_string(),
                },
            ]),
            _ => Entry::Dn(self.prefix_entry()),
        }
    }

    fn entries(&mut self, most: usize) -> Vec<Entry> {
        let n = self.rng.below(most + 1);
        (0..n).map(|_| self.entry()).collect()
    }

    fn group_name(&mut self) -> String {
        if self.rng.chance(5) {
            return self.rng.choose(BAD_GROUPS).to_string();
        }
        self.rng.choose(&self.groups).clone()
    }

    fn group_refs(&mut self) -> Vec<String> {
        let n = self.rng.below(2) + usize::from(self.rng.chance(25));
        (0..n).map(|_| self.group_name()).collect()
    }

    fn acl(&mut self) -> Acl {
        Acl {
            deny_first: self.rng.chance(50),
            allow_dns: self.entries(2),
            allow_groups: self.group_refs(),
            deny_dns: self.entries(2),
            deny_groups: self.group_refs(),
        }
    }

    fn group(&mut self) -> Group {
        Group {
            members: self.entries(3),
            admins: self.entries(2),
        }
    }

    /// A method ACL node: depth 1 to 3.
    fn method_node(&mut self) -> String {
        let depth = 1 + self.rng.below(3);
        method_at(&mut self.rng, depth)
    }

    /// A file ACL node: `/` or a directory of depth 1 to 3.
    fn file_node(&mut self) -> String {
        let depth = self.rng.below(4);
        path_at(&mut self.rng, depth)
    }

    fn live_id(&mut self) -> Option<String> {
        if self.ids.is_empty() {
            return None;
        }
        // Half the time one of the newest, so cached entries are re-read.
        let n = self.ids.len();
        let pick = match self.rng.chance(50) {
            true => n - 1 - self.rng.below(n.min(4)),
            false => self.rng.below(n),
        };
        Some(self.ids[pick].clone())
    }

    // --- queries -----------------------------------------------------

    fn ask_method(&mut self, method: String, who: usize) {
        let real = if self.rng.chance(50) {
            self.acl.check_method(&method, &self.reals[who], &self.vo)
        } else {
            self.acl
                .check_method_keyed(&method, &self.reals[who], &self.rendered[who], &self.vo)
        };
        let expected = self.authz.may_call(&method, &self.dns[who]);
        assert_eq!(
            real,
            expected,
            "{}: may {} call {method}?",
            self.at(),
            self.rendered[who]
        );
        if self.rng.chance(25) && self.authz.double_match(&method, &self.dns[who]) {
            self.coverage.double_matches += 1;
        }
        self.asked.insert((method, who));
    }

    fn ask_file(&mut self) {
        let depth = self.rng.below(5);
        let mut path = path_at(&mut self.rng, depth);
        if self.rng.chance(12) && path.len() > 1 {
            path.remove(0);
        }
        let write = self.rng.chance(50);
        let who = self.caller();
        self.ask_file_about(&path, write, who);
    }

    /// A hot path and caller, asked for both access kinds in either order.
    fn ask_hot_file(&mut self) {
        let path = self.rng.choose(&self.hot_paths).clone();
        let who = *self.rng.choose(&self.hot_dns);
        let first = self.rng.chance(50);
        let answers = [first, !first].map(|write| self.ask_file_about(&path, write, who));
        self.coverage.read_write_splits += usize::from(answers[0] != answers[1]);
    }

    fn ask_file_about(&mut self, path: &str, write: bool, who: usize) -> bool {
        let access = if write {
            FileAccess::Write
        } else {
            FileAccess::Read
        };
        let real = self
            .acl
            .check_file(path, access, &self.reals[who], &self.vo);
        let expected = self.authz.may_access(path, write, &self.dns[who]);
        assert_eq!(
            real,
            expected,
            "{}: may {} {access:?} {path:?}?",
            self.at(),
            self.rendered[who]
        );
        expected
    }

    fn ask_membership(&mut self) {
        let group = self.group_name();
        let who = if self.rng.chance(25) && !self.site_admins.is_empty() {
            *self.rng.choose(&self.site_admins)
        } else {
            self.caller()
        };
        let (dn, real) = (&self.dns[who], &self.reals[who]);
        let at = self.at();
        let name = &self.rendered[who];
        assert_eq!(
            self.vo.is_member(&group, real),
            self.authz.member(&group, dn),
            "{at}: is {name} a member of {group:?}?"
        );
        assert_eq!(
            self.vo.is_admin(&group, real),
            self.authz.admin(&group, dn),
            "{at}: is {name} an admin of {group:?}?"
        );
        assert_eq!(
            self.vo.is_site_admin(real),
            self.authz.site_admin(dn),
            "{at}: is {name} a site admin?"
        );
    }

    /// Read a record back through its manager.
    fn ask_record(&mut self) {
        let at = self.at();
        if self.rng.chance(50) {
            let node = self.method_node();
            let expected = self.authz.methods.get(&node).and_then(Record::valid);
            assert_eq!(
                self.acl.method_acl(&node),
                expected.map(real_acl),
                "{at}: method ACL {node:?}"
            );
        } else {
            let name = self.group_name();
            let expected = self.authz.groups.get(&name).and_then(Record::valid);
            let expected = expected.map(|g| vo::Group {
                members: texts(&g.members),
                admins: texts(&g.admins),
            });
            assert_eq!(self.vo.group(&name), expected, "{at}: group {name:?}");
        }
    }

    fn check_session(
        &self,
        id: &str,
        real: Option<clarens::session::ResolvedSession>,
        model: Option<Session>,
    ) {
        let at = self.at();
        match (real, model) {
            (None, None) => {}
            (Some(real), Some(model)) => {
                let s = &real.session;
                assert_eq!(
                    (&s.id, &s.dn, s.created, s.expires, &s.proxy),
                    (
                        &id.to_owned(),
                        &model.dn,
                        model.created,
                        model.expires,
                        &model.proxy
                    ),
                    "{at}: session {id}"
                );
                assert_eq!(
                    real.identity.as_deref(),
                    model.identity.as_deref().map(model::to_real).as_ref(),
                    "{at}: identity of session {id}"
                );
            }
            (real, model) => panic!("{at}: session {id}: real {real:?}, model {model:?}"),
        }
    }

    fn resolve(&mut self, id: &str) {
        let now = self.now;
        let record = self.model_sessions.records.get(id).and_then(Record::valid);
        let at_expiry = record.is_some_and(|s| s.expires == now);
        self.coverage.resolves_at_expiry += usize::from(at_expiry);
        if self.rng.chance(33) {
            let fields = |s: Session| (s.dn, s.created, s.expires, s.proxy);
            let real = self.sessions.validate(id, now);
            let real = real.map(|s| (s.dn, s.created, s.expires, s.proxy));
            let model = self.model_sessions.resolve(id, now).map(fields);
            assert_eq!(real, model, "{}: validate {id}", self.at());
        } else {
            let real = self.sessions.resolve(id, now);
            let model = self.model_sessions.resolve(id, now);
            self.check_session(id, real, model);
        }
    }

    // --- mutations ---------------------------------------------------

    fn session_op(&mut self) {
        let now = self.now;
        match self.rng.below(20) {
            0..=4 => {
                let who = self.caller();
                let created = self.sessions.create(&self.reals[who], now);
                let id = created.id.clone();
                assert!(
                    id.len() == 64 && !self.model_sessions.records.contains_key(&id),
                    "{}: fresh id {id}",
                    self.at()
                );
                let model = Session {
                    dn: self.rendered[who].clone(),
                    identity: Some(self.dns[who].clone()),
                    created: now,
                    expires: now + TTL,
                    proxy: None,
                };
                assert_eq!(
                    (
                        &created.dn,
                        created.created,
                        created.expires,
                        &created.proxy
                    ),
                    (&model.dn, model.created, model.expires, &model.proxy),
                    "{}: created session",
                    self.at()
                );
                self.model_sessions
                    .records
                    .insert(id.clone(), Record::Valid(model));
                self.ids.push(id);
            }
            5..=12 => {
                if let Some(id) = self.live_id() {
                    self.resolve(&id);
                    if self.rng.chance(50) {
                        self.resolve(&id);
                    }
                }
            }
            13..=14 => {
                if let Some(id) = self.live_id() {
                    let proxy = format!("proxy \"{}\"\n\\", self.step);
                    let real = self.sessions.attach_proxy(&id, &proxy, now);
                    let model = self.model_sessions.attach(&id, &proxy, now, TTL);
                    let real = real.map(|s| (s.dn, s.created, s.expires, s.proxy));
                    let model = model.map(|s| (s.dn, s.created, s.expires, s.proxy));
                    assert_eq!(real, model, "{}: attach to {id}", self.at());
                }
            }
            15..=16 => {
                if let Some(id) = self.live_id() {
                    assert_eq!(
                        self.sessions.logout(&id),
                        self.model_sessions.logout(&id),
                        "{}: logout {id}",
                        self.at()
                    );
                }
            }
            17 => assert_eq!(
                self.sessions.sweep(now),
                self.model_sessions.sweep(now),
                "{}: sweep",
                self.at()
            ),
            _ => {
                let real = self.sessions.resolve("no-such-session", now);
                assert!(real.is_none(), "{}: a session nobody made", self.at());
            }
        }
        assert_eq!(
            self.sessions.count(),
            self.model_sessions.records.len(),
            "{}: session count",
            self.at()
        );
    }

    fn acl_op(&mut self) {
        match self.rng.below(4) {
            0 | 1 => {
                let (node, acl) = (self.method_node(), self.acl());
                self.acl.set_method_acl(&node, &real_acl(&acl)).unwrap();
                self.authz.methods.insert(node, Record::Valid(acl));
            }
            2 => {
                let (node, read, write) = (self.file_node(), self.acl(), self.acl());
                let file_acl = acl::FileAcl {
                    read: real_acl(&read),
                    write: real_acl(&write),
                };
                self.acl.set_file_acl(&node, &file_acl).unwrap();
                self.authz.files.insert(node, Record::Valid([read, write]));
            }
            _ => {
                if self.rng.chance(50) {
                    let node = self.method_node();
                    self.acl.clear_method_acl(&node).unwrap();
                    self.authz.methods.remove(&node);
                } else {
                    let node = self.file_node();
                    self.acl.clear_file_acl(&node).unwrap();
                    self.authz.files.remove(&node);
                }
            }
        }
    }

    fn vo_op(&mut self) {
        let actor = match self.rng.below(3) {
            0 if !self.site_admins.is_empty() => *self.rng.choose(&self.site_admins),
            1 => *self.rng.choose(&self.hot_dns),
            _ => self.caller(),
        };
        let (dn, real) = (self.dns[actor].clone(), self.reals[actor].clone());
        // Mostly a group that exists, so edits get past the lookup.
        let existing: Vec<&String> = self.authz.groups.keys().collect();
        let name = match self.rng.below(3) {
            0 => self.group_name(),
            _ => self.rng.choose(&existing).to_string(),
        };
        let (real, expected, what) = match self.rng.below(10) {
            0..=2 => (
                refusal(self.vo.create_group(&real, &name)),
                self.authz.create_group(&dn, &name),
                "create",
            ),
            3 => (
                refusal(self.vo.delete_group(&real, &name)),
                self.authz.delete_group(&dn, &name),
                "delete",
            ),
            op => {
                let entry = if self.rng.chance(33) {
                    // Often the actor's own DN or a prefix of a hot
                    // caller: edits that flip cached decisions.
                    let who = *self.rng.choose(&self.hot_dns);
                    let len = 1 + self.rng.below(self.dns[who].len());
                    Entry::Dn(self.dns[who][..len].to_vec())
                } else {
                    self.entry()
                };
                let text = entry.text();
                let (result, edit) = match op {
                    4 | 5 => (self.vo.add_member(&real, &name, &text), Edit::AddMember),
                    6 | 7 => (
                        self.vo.remove_member(&real, &name, &text),
                        Edit::RemoveMember,
                    ),
                    8 => (self.vo.add_admin(&real, &name, &text), Edit::AddAdmin),
                    _ => (self.vo.remove_admin(&real, &name, &text), Edit::RemoveAdmin),
                };
                (
                    refusal(result),
                    self.authz.edit_group(&dn, &name, edit, &entry),
                    "edit",
                )
            }
        };
        assert_eq!(
            real,
            expected,
            "{}: {what} {name:?} as {}",
            self.at(),
            self.rendered[actor]
        );
        match real {
            Ok(()) => self.coverage.vo_mutations_accepted += 1,
            Err(_) => self.coverage.vo_mutations_refused += 1,
        }
    }

    /// A replicated write: record bytes put (or a key deleted) straight
    /// into the store, as a follower applies its leader's log.
    fn raw_op(&mut self) {
        let junk = self.rng.chance(20);
        let junk_text = *self.rng.choose(JUNK_RECORDS);
        match self.rng.below(12) {
            0..=2 => {
                let node = self.method_node();
                let record = match junk {
                    true => Record::Junk(junk_text),
                    false => Record::Valid(self.acl()),
                };
                let bytes = match &record {
                    Record::Valid(acl) => acl.json(),
                    Record::Junk(text) => text.to_string(),
                };
                self.store.put(METHOD_ACL_BUCKET, &node, bytes).unwrap();
                self.authz.methods.insert(node, record);
            }
            3 | 4 => {
                let node = self.file_node();
                let record = match junk {
                    true => Record::Junk(junk_text),
                    false => Record::Valid([self.acl(), self.acl()]),
                };
                let bytes = match &record {
                    Record::Valid(acl) => model::file_acl_json(acl),
                    Record::Junk(text) => text.to_string(),
                };
                self.store.put(FILE_ACL_BUCKET, &node, bytes).unwrap();
                self.authz.files.insert(node, record);
            }
            5..=7 => {
                // The leader's `admins` carries its configured admins and
                // maybe more; any other group may be junk.
                let (name, record) = match self.rng.chance(4) {
                    true => {
                        let mut group = self.group();
                        group.members.extend(self.admin_entries.iter().cloned());
                        group.admins.extend(self.admin_entries.iter().cloned());
                        (model::ADMINS.to_owned(), Record::Valid(group))
                    }
                    false if junk => (
                        self.rng.choose(&self.groups).clone(),
                        Record::Junk(junk_text),
                    ),
                    false => (
                        self.rng.choose(&self.groups).clone(),
                        Record::Valid(self.group()),
                    ),
                };
                let bytes = match &record {
                    Record::Valid(group) => group.json(),
                    Record::Junk(text) => text.to_string(),
                };
                self.store.put(VO_BUCKET, &name, bytes).unwrap();
                self.authz.groups.insert(name, record);
            }
            8 | 9 => {
                let id = match self.live_id() {
                    Some(id) if self.rng.chance(50) => id,
                    _ => format!("replica-{}", self.step),
                };
                let record = match junk {
                    true => Record::Junk(junk_text),
                    false => Record::Valid(self.replicated_session()),
                };
                let bytes = match &record {
                    Record::Valid(session) => session.json(),
                    Record::Junk(text) => text.to_string(),
                };
                self.store.put(SESSIONS_BUCKET, &id, bytes).unwrap();
                self.model_sessions.records.insert(id.clone(), record);
                self.ids.push(id);
            }
            _ => {
                let (bucket, key, existed) = match self.rng.below(4) {
                    0 => {
                        let node = self.method_node();
                        let existed = self.authz.methods.remove(&node).is_some();
                        (METHOD_ACL_BUCKET, node, existed)
                    }
                    1 => {
                        let node = self.file_node();
                        let existed = self.authz.files.remove(&node).is_some();
                        (FILE_ACL_BUCKET, node, existed)
                    }
                    2 => {
                        let name = self.rng.choose(&self.groups).clone();
                        let existed = self.authz.groups.remove(&name).is_some();
                        (VO_BUCKET, name, existed)
                    }
                    _ => {
                        let Some(id) = self.live_id() else { return };
                        let existed = self.model_sessions.records.remove(&id).is_some();
                        (SESSIONS_BUCKET, id, existed)
                    }
                };
                assert_eq!(
                    self.store.delete(bucket, &key).unwrap(),
                    existed,
                    "{}: replicated delete of {bucket}/{key}",
                    self.at()
                );
            }
        }
    }

    fn replicated_session(&mut self) -> Session {
        let who = self.caller();
        let (dn, identity) = match self.rng.below(6) {
            0 => (self.rng.choose(JUNK_DNS).to_string(), None),
            1 => {
                // The same identity with other type spellings.
                let mut spelled = self.dns[who].clone();
                for rdn in &mut spelled {
                    if let Some((_, others)) = SPELLINGS.iter().find(|(tag, _)| *tag == rdn.tag) {
                        if rdn.tag != "UID" {
                            rdn.tag = self.rng.choose(others).to_string();
                        }
                    }
                }
                (model::write_dn(&spelled), Some(self.dns[who].clone()))
            }
            _ => (self.rendered[who].clone(), Some(self.dns[who].clone())),
        };
        let expires = self.now + self.rng.below(2 * TTL as usize) as i64 - TTL / 2;
        let proxy = self.rng.chance(33).then(|| format!("p\u{1}{}", self.step));
        Session {
            dn,
            identity,
            created: self.now,
            expires,
            proxy,
        }
    }

    /// The clock moves forward: a little, past every session, or onto
    /// exactly the expiry of a live one (the newest ones most often).
    fn tick(&mut self) {
        match self.rng.below(10) {
            0..=3 => {
                let now = self.now;
                let live: Vec<i64> = self
                    .ids
                    .iter()
                    .rev()
                    .take(8)
                    .filter_map(|id| self.model_sessions.records.get(id)?.valid())
                    .map(|s| s.expires)
                    .filter(|&expires| expires > now)
                    .collect();
                if !live.is_empty() {
                    self.now = *self.rng.choose(&live);
                }
            }
            4..=8 => self.now += self.rng.below(100) as i64,
            _ => self.now += TTL + 1,
        }
    }

    fn step(&mut self) {
        self.step += 1;
        match self.rng.below(1000) {
            0..=749 => {
                let depth = if self.rng.chance(10) {
                    1 + self.rng.below(3)
                } else {
                    4
                };
                let method = method_at(&mut self.rng, depth);
                let who = self.caller();
                self.ask_method(method, who);
            }
            750..=849 => {
                let method = self.rng.choose(&self.hot_methods).clone();
                let who = *self.rng.choose(&self.hot_dns);
                self.ask_method(method, who);
            }
            850..=869 => self.ask_file(),
            870..=889 => self.ask_hot_file(),
            890..=904 => self.ask_membership(),
            905..=909 => self.ask_record(),
            910..=939 => self.session_op(),
            940..=954 => self.acl_op(),
            955..=969 => self.vo_op(),
            970..=984 => self.raw_op(),
            _ => self.tick(),
        }
    }

    fn run(mut self, steps: usize) -> Coverage {
        for _ in 0..steps {
            self.step();
        }
        let mut coverage = self.coverage;
        coverage.distinct_method_questions = self.asked.len();
        coverage.method_decision_hits = self.acl.decision_cache_stats().hits;
        coverage.session_hits = self.sessions.cache_stats().hits;
        coverage
    }
}

/// A method name of `depth` dotted levels.
fn method_at(rng: &mut Rng, depth: usize) -> String {
    let mut name = rng.choose(TOP).to_string();
    for level in [SUB, LEAF, TIP].iter().take(depth - 1) {
        name.push('.');
        name.push_str(rng.choose::<&str>(level));
    }
    name
}

/// A rooted path of `depth` directories (`/` for 0).
fn path_at(rng: &mut Rng, depth: usize) -> String {
    if depth == 0 {
        return "/".to_owned();
    }
    DIRS.iter()
        .take(depth)
        .map(|level| format!("/{}", rng.choose(level)))
        .collect()
}

/// Two seeds, searched side by side.
#[test]
fn cached_authorization_answers_as_the_model_does() {
    let seeds = [0x0c1a_2e45, 0x5eed_0002];
    clarens_search::search("clarens --test authz_oracle", seeds, |seed| {
        let coverage = Search::new(seed).run(STEPS);
        println!("seed {seed:#x}: {coverage:?}");
        // More distinct questions than the decision cache has slots: by
        // pigeonhole one shard fills and clears.
        assert!(coverage.distinct_method_questions >= 70_000, "{coverage:?}");
        assert!(coverage.method_decision_hits > 1000, "{coverage:?}");
        assert!(coverage.session_hits > 50, "{coverage:?}");
        assert!(coverage.resolves_at_expiry > 10, "{coverage:?}");
        assert!(coverage.double_matches > 100, "{coverage:?}");
        assert!(coverage.read_write_splits > 100, "{coverage:?}");
        assert!(
            coverage.vo_mutations_accepted > 100 && coverage.vo_mutations_refused > 100,
            "{coverage:?}"
        );
        Ok(())
    });
}

/// The model's own pieces, pinned on the paper's examples so the oracle
/// is not merely self-consistent.
#[test]
fn the_model_reads_the_paper_examples_as_the_paper_does() {
    let rdn = |tag: &str, value: &str| Rdn {
        tag: tag.into(),
        value: value.into(),
    };
    let person = vec![
        rdn("O", "doesciencegrid.org"),
        rdn("OU", "People"),
        rdn("CN", "John Smith 12345"),
    ];
    let people = vec![rdn("o", "doesciencegrid.org"), rdn("OU", "People")];
    assert!(model::has_prefix(&person, &people));
    assert!(!model::has_prefix(&people, &person));
    let server = vec![rdn("CN", "host/www.mysite.edu")];
    assert_eq!(model::write_dn(&server), "/CN=host\\/www.mysite.edu");
    assert_eq!(model::render_dn(&people), "/O=doesciencegrid.org/OU=People");
    assert_eq!(
        model::dotted_levels("module.submodule.method"),
        ["module.submodule.method", "module.submodule", "module"]
    );
    assert_eq!(model::path_levels("/a/b"), ["/a/b", "/a", "/"]);
    assert_eq!(model::path_levels("a"), ["/a", "/"]);
    assert_eq!(model::path_levels("/"), ["/"]);
    let parsed = DistinguishedName::parse(&model::write_dn(&person)).unwrap();
    assert_eq!(parsed, model::to_real(&person));
}
