//! Property tests for the core security machinery: ACL evaluation
//! invariants, VO hierarchy laws, and path normalization safety.

use std::sync::Arc;

use proptest::prelude::*;

use clarens::acl::{Acl, AclEngine, Order};
use clarens::paths;
use clarens::vo::VoManager;
use clarens_db::Store;
use clarens_pki::dn::DistinguishedName;

fn dn_strategy() -> impl Strategy<Value = DistinguishedName> {
    proptest::collection::vec("[A-Za-z0-9]{1,6}", 1..4).prop_map(|parts| {
        let text: String = parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let tag = match i {
                    0 => "O",
                    1 => "OU",
                    _ => "CN",
                };
                format!("/{tag}={p}")
            })
            .collect();
        DistinguishedName::parse(&text).unwrap()
    })
}

fn method_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z]{1,5}", 1..4).prop_map(|parts| parts.join("."))
}

fn fresh_engine() -> (AclEngine, VoManager) {
    let store = Arc::new(Store::in_memory());
    let vo = VoManager::new(Arc::clone(&store), &[]);
    (AclEngine::new(store), vo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Default deny: with no ACLs installed, nobody may call anything.
    #[test]
    fn no_acl_means_deny(dn in dn_strategy(), method in method_strategy()) {
        let (engine, vo) = fresh_engine();
        prop_assert!(!engine.check_method(&method, &dn, &vo));
    }

    /// A deny entry at the most specific level always wins, regardless of
    /// what grants exist at higher levels (the paper's "unless
    /// specifically denied at the lower level").
    #[test]
    fn specific_deny_always_wins(
        dn in dn_strategy(),
        method in method_strategy(),
    ) {
        let (engine, vo) = fresh_engine();
        // Grant everything at every ancestor level...
        let mut node = method.clone();
        while let Some(pos) = node.rfind('.') {
            node = node[..pos].to_owned();
            engine.set_method_acl(&node, &Acl::allow_dn("*")).unwrap();
        }
        engine.set_method_acl(&method, &Acl::allow_dn("*")).unwrap();
        prop_assert!(engine.check_method(&method, &dn, &vo));
        // ...then deny this DN at the exact method.
        engine.set_method_acl(
            &method,
            &Acl { deny_dns: vec![dn.to_string()], allow_dns: vec!["*".into()],
                   order: Order::AllowDeny, ..Default::default() },
        ).unwrap();
        prop_assert!(!engine.check_method(&method, &dn, &vo));
    }

    /// Granting at a prefix node grants every method beneath it.
    #[test]
    fn prefix_grant_covers_descendants(
        dn in dn_strategy(),
        module in "[a-z]{1,5}",
        suffix in proptest::collection::vec("[a-z]{1,5}", 1..3),
    ) {
        let (engine, vo) = fresh_engine();
        engine.set_method_acl(&module, &Acl::allow_dn(dn.to_string())).unwrap();
        let method = format!("{module}.{}", suffix.join("."));
        prop_assert!(engine.check_method(&method, &dn, &vo));
        // A different module stays denied.
        let unrelated = format!("zz{module}.x");
        prop_assert!(!engine.check_method(&unrelated, &dn, &vo));
    }

    /// An ACL mentioning only *other* DNs never grants access (no
    /// accidental matches from prefix logic).
    #[test]
    fn unrelated_grant_does_not_leak(
        dn in dn_strategy(),
        method in method_strategy(),
    ) {
        let (engine, vo) = fresh_engine();
        // A DN guaranteed not to be a prefix of `dn`.
        let other = format!("/C=XX/O=unrelated-{}", dn.attributes.len());
        engine.set_method_acl(&method, &Acl::allow_dn(other)).unwrap();
        prop_assert!(!engine.check_method(&method, &dn, &vo));
    }

    /// VO hierarchy: membership in a group implies membership in every
    /// descendant group, never in siblings or ancestors.
    #[test]
    fn vo_membership_flows_downward_only(
        member in dn_strategy(),
        levels in 1usize..4,
    ) {
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
            prop_assert!(vo.is_member(middle, &member));
            prop_assert!(vo.is_member(&name, &member)); // deepest
            // Not of the parent, not of the sibling branch.
            prop_assert!(!vo.is_member("g", &member) || member == admin);
            prop_assert!(!vo.is_member("other", &member) || member == admin);
        }
    }

    /// Path normalization never lets a resolved path escape the root.
    #[test]
    fn resolved_paths_stay_under_root(path in "[a-zA-Z0-9./_-]{0,40}") {
        let root = std::path::Path::new("/srv/clarens-root");
        if let Some(resolved) = paths::resolve(root, &path) {
            prop_assert!(
                resolved.starts_with(root),
                "{path:?} resolved outside root: {resolved:?}"
            );
            // And no `..` survives in the result.
            prop_assert!(resolved.components().all(|c| c.as_os_str() != ".."));
        }
    }

    /// Canonicalization is idempotent.
    #[test]
    fn canonical_idempotent(path in "[a-zA-Z0-9./_-]{0,40}") {
        if let Some(canonical) = paths::canonical(&path) {
            prop_assert_eq!(paths::canonical(&canonical).unwrap(), canonical);
        }
    }

    /// The shell tokenizer never panics and round-trips simple tokens.
    #[test]
    fn shell_tokenizer_total(line in "\\PC{0,60}") {
        let _ = clarens::services::shell::interp::tokenize(&line);
    }

    #[test]
    fn shell_tokenizer_plain_words(words in proptest::collection::vec("[a-z0-9/._-]{1,8}", 1..6)) {
        let line = words.join(" ");
        let tokens = clarens::services::shell::interp::tokenize(&line).unwrap();
        prop_assert_eq!(tokens, words);
    }

    /// Config parser is total (never panics) on arbitrary input.
    #[test]
    fn config_parser_total(text in "\\PC{0,200}") {
        let _ = clarens::ClarensConfig::parse(&text);
    }
}
