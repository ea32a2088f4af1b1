//! Property tests for the core security machinery: ACL evaluation
//! invariants, VO hierarchy laws, and path normalization safety. Each
//! property is a search on the shared runner: seed `n` is its case `n`,
//! replayed alone by `SEARCH_SEED=<n>`.

use std::sync::Arc;

use clarens_search::{search, Rng};

use clarens::acl::{Acl, AclEngine, Order};
use clarens::paths;
use clarens::vo::VoManager;
use clarens_db::Store;
use clarens_pki::dn::DistinguishedName;

/// Check property `test` of this file on seeds `0..64`.
fn property(test: &str, check: impl Fn(&mut Rng) + Sync) {
    let name = format!("clarens --test properties -- --exact {test}");
    search(&name, 0..64, |seed| {
        check(&mut Rng::new(seed));
        Ok(())
    });
}

/// `/O=…`, then `/OU=…`, then `/CN=…`s: one to three alphanumeric parts.
fn dn(rng: &mut Rng) -> DistinguishedName {
    let text: String = (0..rng.pick(1, 3))
        .map(|i| {
            let tag = match i {
                0 => "O",
                1 => "OU",
                _ => "CN",
            };
            let part = rng.string(&['A'..='Z', 'a'..='z', '0'..='9'], 1..7);
            format!("/{tag}={part}")
        })
        .collect();
    DistinguishedName::parse(&text).unwrap()
}

/// A lower-case method segment, `[a-z]{1,5}`.
fn segment(rng: &mut Rng) -> String {
    rng.string(&['a'..='z'], 1..6)
}

/// One to `max` segments joined by dots.
fn method(rng: &mut Rng, max: u64) -> String {
    let segments: Vec<String> = (0..rng.pick(1, max)).map(|_| segment(rng)).collect();
    segments.join(".")
}

/// Up to 40 chars of `[a-zA-Z0-9./_-]`.
fn path(rng: &mut Rng) -> String {
    let alphabet = [
        'a'..='z',
        'A'..='Z',
        '0'..='9',
        '.'..='.',
        '/'..='/',
        '_'..='_',
        '-'..='-',
    ];
    rng.string(&alphabet, 0..41)
}

/// Up to `max` non-control chars: 16 in 20 printable ASCII, then Latin-1,
/// Cyrillic and wider ones.
fn printable(rng: &mut Rng, max: u64) -> String {
    (0..rng.pick(0, max))
        .map(|_| match rng.below(20) {
            0..=15 => rng.char(&[' '..='~']),
            16 | 17 => rng.char(&['¡'..='ÿ']),
            18 => rng.char(&['А'..='я']),
            _ => *rng.choose(&['§', '€', '→', '中', '𝒳']),
        })
        .collect()
}

fn fresh_engine() -> (AclEngine, VoManager) {
    let store = Arc::new(Store::in_memory());
    let vo = VoManager::new(Arc::clone(&store), &[]);
    (AclEngine::new(store), vo)
}

/// Default deny: with no ACLs installed, nobody may call anything.
#[test]
fn no_acl_means_deny() {
    property("no_acl_means_deny", |rng| {
        let (dn, method) = (dn(rng), method(rng, 3));
        let (engine, vo) = fresh_engine();
        assert!(!engine.check_method(&method, &dn, &vo));
    });
}

/// A deny entry at the most specific level always wins, regardless of
/// what grants exist at higher levels (the paper's "unless
/// specifically denied at the lower level").
#[test]
fn specific_deny_always_wins() {
    property("specific_deny_always_wins", |rng| {
        let (dn, method) = (dn(rng), method(rng, 3));
        let (engine, vo) = fresh_engine();
        // Grant everything at every ancestor level...
        let mut node = method.clone();
        while let Some(pos) = node.rfind('.') {
            node = node[..pos].to_owned();
            engine.set_method_acl(&node, &Acl::allow_dn("*")).unwrap();
        }
        engine.set_method_acl(&method, &Acl::allow_dn("*")).unwrap();
        assert!(engine.check_method(&method, &dn, &vo));
        // ...then deny this DN at the exact method.
        engine
            .set_method_acl(
                &method,
                &Acl {
                    deny_dns: vec![dn.to_string()],
                    allow_dns: vec!["*".into()],
                    order: Order::AllowDeny,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(!engine.check_method(&method, &dn, &vo));
    });
}

/// Granting at a prefix node grants every method beneath it.
#[test]
fn prefix_grant_covers_descendants() {
    property("prefix_grant_covers_descendants", |rng| {
        let (dn, module, suffix) = (dn(rng), segment(rng), method(rng, 2));
        let (engine, vo) = fresh_engine();
        engine
            .set_method_acl(&module, &Acl::allow_dn(dn.to_string()))
            .unwrap();
        let method = format!("{module}.{suffix}");
        assert!(engine.check_method(&method, &dn, &vo));
        // A different module stays denied.
        let unrelated = format!("zz{module}.x");
        assert!(!engine.check_method(&unrelated, &dn, &vo));
    });
}

/// An ACL mentioning only *other* DNs never grants access (no
/// accidental matches from prefix logic).
#[test]
fn unrelated_grant_does_not_leak() {
    property("unrelated_grant_does_not_leak", |rng| {
        let (dn, method) = (dn(rng), method(rng, 3));
        let (engine, vo) = fresh_engine();
        // A DN guaranteed not to be a prefix of `dn`.
        let other = format!("/C=XX/O=unrelated-{}", dn.attributes.len());
        engine
            .set_method_acl(&method, &Acl::allow_dn(other))
            .unwrap();
        assert!(!engine.check_method(&method, &dn, &vo));
    });
}

/// VO hierarchy: membership in a group implies membership in every
/// descendant group, never in siblings or ancestors.
#[test]
fn vo_membership_flows_downward_only() {
    property("vo_membership_flows_downward_only", |rng| {
        let (member, levels) = (dn(rng), rng.pick(1, 3));
        let store = Arc::new(Store::in_memory());
        let admin = DistinguishedName::parse("/O=root/CN=admin").unwrap();
        let vo = VoManager::new(Arc::clone(&store), &[admin.to_string()]);

        // Build a chain g, g.s, g.s.s... plus a sibling branch.
        let mut name = "g".to_string();
        vo.create_group(&admin, &name).unwrap();
        for _ in 0..levels {
            let child = format!("{name}.s");
            vo.create_group(&admin, &child).unwrap();
            name = child;
        }
        vo.create_group(&admin, "other").unwrap();

        // Add the member at the middle of the chain.
        let middle = "g.s";
        if levels >= 1 {
            vo.add_member(&admin, middle, &member.to_string()).unwrap();
            // Member of the middle and everything below it.
            assert!(vo.is_member(middle, &member));
            assert!(vo.is_member(&name, &member)); // deepest
                                                   // Not of the parent, not of the sibling branch.
            assert!(!vo.is_member("g", &member) || member == admin);
            assert!(!vo.is_member("other", &member) || member == admin);
        }
    });
}

/// Path normalization never lets a resolved path escape the root.
#[test]
fn resolved_paths_stay_under_root() {
    property("resolved_paths_stay_under_root", |rng| {
        let path = path(rng);
        let root = std::path::Path::new("/srv/clarens-root");
        if let Some(resolved) = paths::resolve(root, &path) {
            assert!(
                resolved.starts_with(root),
                "{path:?} resolved outside root: {resolved:?}"
            );
            // And no `..` survives in the result.
            assert!(resolved.components().all(|c| c.as_os_str() != ".."));
        }
    });
}

/// Canonicalization is idempotent.
#[test]
fn canonical_idempotent() {
    property("canonical_idempotent", |rng| {
        if let Some(canonical) = paths::canonical(&path(rng)) {
            assert_eq!(paths::canonical(&canonical).unwrap(), canonical);
        }
    });
}

/// The shell tokenizer never panics and round-trips simple tokens.
#[test]
fn shell_tokenizer_total() {
    property("shell_tokenizer_total", |rng| {
        let _ = clarens::services::shell::interp::tokenize(&printable(rng, 60));
    });
}

#[test]
fn shell_tokenizer_plain_words() {
    property("shell_tokenizer_plain_words", |rng| {
        let alphabet = [
            'a'..='z',
            '0'..='9',
            '/'..='/',
            '.'..='.',
            '_'..='_',
            '-'..='-',
        ];
        let words: Vec<String> = (0..rng.pick(1, 5))
            .map(|_| rng.string(&alphabet, 1..9))
            .collect();
        let line = words.join(" ");
        let tokens = clarens::services::shell::interp::tokenize(&line).unwrap();
        assert_eq!(tokens, words);
    });
}

/// Config parser is total (never panics) on arbitrary input.
#[test]
fn config_parser_total() {
    property("config_parser_total", |rng| {
        let _ = clarens::ClarensConfig::parse(&printable(rng, 200));
    });
}
