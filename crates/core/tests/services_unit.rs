//! Direct service-dispatch tests: call every service through the registry
//! with synthetic call contexts (no HTTP), covering the parameter-fault
//! and edge paths that the end-to-end suite doesn't reach.

use std::sync::Arc;

use clarens::config::ClarensConfig;
use clarens::core::ClarensCore;
use clarens::registry::{invoke, CallContext};
use clarens::{install_permissive_acls, register_builtin_services};
use clarens_pki::cert::{CertificateAuthority, Credential};
use clarens_pki::dn::DistinguishedName;
use clarens_pki::rsa;
use clarens_telemetry::RequestTrace;
use clarens_wire::fault::codes;
use clarens_wire::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fixture {
    core: Arc<ClarensCore>,
    admin_dn: DistinguishedName,
    user_dn: DistinguishedName,
    data_dir: std::path::PathBuf,
}

fn fixture(name: &str) -> Fixture {
    fixture_with(name, |_| {})
}

fn fixture_with(name: &str, tweak: impl FnOnce(&mut ClarensConfig)) -> Fixture {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_secs() as i64;
    let mut rng = StdRng::seed_from_u64(0x5E41);
    let ca = CertificateAuthority::new(
        &mut rng,
        DistinguishedName::parse("/O=unit/CN=CA").unwrap(),
        now - 3600,
        3650,
    );
    let kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
    let server = Credential {
        certificate: ca.issue(
            DistinguishedName::parse("/O=unit/CN=server").unwrap(),
            &kp.public,
            now - 3600,
            365,
        ),
        key: kp.private,
        chain: vec![],
    };
    let admin_dn = DistinguishedName::parse("/O=unit/OU=People/CN=root").unwrap();
    let user_dn = DistinguishedName::parse("/O=unit/OU=People/CN=plain").unwrap();

    let data_dir = std::env::temp_dir().join(format!(
        "clarens-services-unit-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(data_dir.join("files")).unwrap();
    std::fs::create_dir_all(data_dir.join("shell")).unwrap();

    let mut config = ClarensConfig {
        admin_dns: vec![admin_dn.to_string()],
        file_root: Some(data_dir.join("files")),
        shell_root: Some(data_dir.join("shell")),
        shell_user_map: "plainuser: dn=/O=unit/OU=People/CN=plain\n".into(),
        ..Default::default()
    };
    tweak(&mut config);
    let core = ClarensCore::new(config, vec![ca.certificate.clone()], server).unwrap();
    register_builtin_services(&core, None);
    install_permissive_acls(&core);
    Fixture {
        core,
        admin_dn,
        user_dn,
        data_dir,
    }
}

fn call(
    fixture: &Fixture,
    identity: Option<&DistinguishedName>,
    method: &str,
    params: Vec<Value>,
) -> Result<Value, clarens_wire::Fault> {
    let ctx = CallContext {
        core: &fixture.core,
        identity: identity.cloned().map(std::sync::Arc::new),
        session: None,
        now: fixture.core.now(),
        deadline: None,
        hops: 0,
    };
    // Through the gate, so a wrong-arity or unknown-name assertion tests
    // what a client would see.
    invoke(&ctx, method, &params, &mut RequestTrace::disabled())
}

#[test]
fn system_introspection_paths() {
    let f = fixture("system");
    let user = f.user_dn.clone();

    // get_method_info round-trips the registry record.
    let info = call(
        &f,
        Some(&user),
        "system.get_method_info",
        vec![Value::from("file.read")],
    )
    .unwrap();
    assert!(info
        .get("signature")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("file.read("));
    // Unknown method -> NO_SUCH_METHOD fault.
    let err = call(
        &f,
        Some(&user),
        "system.get_method_info",
        vec![Value::from("no.method")],
    )
    .unwrap_err();
    assert_eq!(err.code, codes::NO_SUCH_METHOD);
    // Param-count errors.
    let err = call(&f, Some(&user), "system.list_methods", vec![Value::Int(1)]).unwrap_err();
    assert_eq!(err.code, codes::BAD_PARAMS);
    // Unknown method within an existing module.
    let err = call(&f, Some(&user), "system.frobnicate", vec![]).unwrap_err();
    assert_eq!(err.code, codes::NO_SUCH_METHOD);
    // whoami needs identity.
    let err = call(&f, None, "system.whoami", vec![]).unwrap_err();
    assert_eq!(err.code, codes::NOT_AUTHENTICATED);
    // session_count is admin-only.
    let err = call(&f, Some(&user), "system.session_count", vec![]).unwrap_err();
    assert_eq!(err.code, codes::ACCESS_DENIED);
    let admin = f.admin_dn.clone();
    let count = call(&f, Some(&admin), "system.session_count", vec![]).unwrap();
    assert_eq!(count, Value::Int(0));
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

#[test]
fn echo_edge_cases() {
    let f = fixture("echo");
    let user = f.user_dn.clone();
    // concat with non-string array items.
    let err = call(
        &f,
        Some(&user),
        "echo.concat",
        vec![Value::array([Value::Int(1)])],
    )
    .unwrap_err();
    assert_eq!(err.code, codes::BAD_PARAMS);
    // concat with a non-array argument.
    let err = call(&f, Some(&user), "echo.concat", vec![Value::Int(1)]).unwrap_err();
    assert_eq!(err.code, codes::BAD_PARAMS);
    // payload size bounds.
    let err = call(&f, Some(&user), "echo.payload", vec![Value::Int(-1)]).unwrap_err();
    assert_eq!(err.code, codes::BAD_PARAMS);
    let err = call(&f, Some(&user), "echo.payload", vec![Value::Int(1 << 40)]).unwrap_err();
    assert_eq!(err.code, codes::BAD_PARAMS);
    // A valid payload returns deterministic bytes.
    let bytes = call(&f, Some(&user), "echo.payload", vec![Value::Int(10)]).unwrap();
    assert_eq!(
        bytes.coerce_bytes().unwrap(),
        (0..10u8).map(|i| i % 251).collect::<Vec<u8>>()
    );
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

#[test]
fn file_service_edges() {
    let f = fixture("file");
    let user = f.user_dn.clone();
    std::fs::write(f.data_dir.join("files/x.txt"), b"0123456789").unwrap();

    // Reading a missing file is a SERVICE fault, not an internal error.
    let err = call(
        &f,
        Some(&user),
        "file.read",
        vec![Value::from("/ghost"), Value::Int(0), Value::Int(4)],
    )
    .unwrap_err();
    assert_eq!(err.code, codes::SERVICE);
    assert!(err.message.contains("not found"), "{}", err.message);

    // Offsets beyond EOF give empty bytes.
    let bytes = call(
        &f,
        Some(&user),
        "file.read",
        vec![Value::from("/x.txt"), Value::Int(100), Value::Int(4)],
    )
    .unwrap();
    assert_eq!(bytes.coerce_bytes().unwrap(), b"");

    // ls on a file is an error.
    let err = call(&f, Some(&user), "file.ls", vec![Value::from("/x.txt")]).unwrap_err();
    assert_eq!(err.code, codes::SERVICE);

    // stat on a directory reports type dir.
    std::fs::create_dir_all(f.data_dir.join("files/sub")).unwrap();
    let stat = call(&f, Some(&user), "file.stat", vec![Value::from("/sub")]).unwrap();
    assert_eq!(stat.get("type").unwrap().as_str(), Some("dir"));

    // put with append extends; rm removes; size reports.
    call(
        &f,
        Some(&user),
        "file.put",
        vec![
            Value::from("/new.bin"),
            Value::Bytes(b"ab".to_vec()),
            Value::Bool(false),
        ],
    )
    .unwrap();
    call(
        &f,
        Some(&user),
        "file.put",
        vec![
            Value::from("/new.bin"),
            Value::Bytes(b"cd".to_vec()),
            Value::Bool(true),
        ],
    )
    .unwrap();
    let size = call(&f, Some(&user), "file.size", vec![Value::from("/new.bin")]).unwrap();
    assert_eq!(size, Value::Int(4));
    call(&f, Some(&user), "file.rm", vec![Value::from("/new.bin")]).unwrap();
    let err = call(&f, Some(&user), "file.size", vec![Value::from("/new.bin")]).unwrap_err();
    assert_eq!(err.code, codes::SERVICE);

    // mkdir then find locates nested names.
    call(&f, Some(&user), "file.mkdir", vec![Value::from("/a/b/c")]).unwrap();
    std::fs::write(f.data_dir.join("files/a/b/c/target.dat"), b"z").unwrap();
    let found = call(
        &f,
        Some(&user),
        "file.find",
        vec![Value::from("/"), Value::from("target")],
    )
    .unwrap();
    assert_eq!(
        found.as_array().unwrap()[0].as_str(),
        Some("/a/b/c/target.dat")
    );
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

#[test]
fn md5_cache_invalidated_by_rewrite() {
    let f = fixture("md5cache");
    let user = f.user_dn.clone();
    let path = f.data_dir.join("files/sum.dat");

    let digest_of = |data: &[u8]| {
        let mut h = clarens_pki::md5::Md5::new();
        h.update(data);
        clarens_pki::sha256::to_hex(&h.finalize())
    };

    std::fs::write(&path, b"first contents").unwrap();
    let first = call(&f, Some(&user), "file.md5", vec![Value::from("/sum.dat")]).unwrap();
    assert_eq!(first.as_str(), Some(digest_of(b"first contents").as_str()));
    // Second call is served from the cache and must agree.
    let again = call(&f, Some(&user), "file.md5", vec![Value::from("/sum.dat")]).unwrap();
    assert_eq!(again, first);

    // Rewrite the file (different length, so even a coarse-mtime
    // filesystem can't alias the key) — the cache must miss.
    std::fs::write(&path, b"entirely different, longer contents").unwrap();
    let second = call(&f, Some(&user), "file.md5", vec![Value::from("/sum.dat")]).unwrap();
    assert_eq!(
        second.as_str(),
        Some(digest_of(b"entirely different, longer contents").as_str())
    );
    assert_ne!(second, first);
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

#[test]
fn file_read_clamps_to_file_length() {
    let f = fixture("readclamp");
    let user = f.user_dn.clone();
    std::fs::write(f.data_dir.join("files/small.bin"), b"0123456789").unwrap();

    // Asking for far more than the file holds returns exactly the file
    // (the read buffer is clamped, not zero-filled to nbytes).
    let bytes = call(
        &f,
        Some(&user),
        "file.read",
        vec![
            Value::from("/small.bin"),
            Value::Int(0),
            Value::Int(4 * 1024 * 1024),
        ],
    )
    .unwrap();
    assert_eq!(bytes.coerce_bytes().unwrap(), b"0123456789");

    // Mid-file offset with an oversized request yields just the tail.
    let tail = call(
        &f,
        Some(&user),
        "file.read",
        vec![
            Value::from("/small.bin"),
            Value::Int(6),
            Value::Int(4 * 1024 * 1024),
        ],
    )
    .unwrap();
    assert_eq!(tail.coerce_bytes().unwrap(), b"6789");
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

#[test]
fn acl_admin_service_roundtrip() {
    let f = fixture("acl");
    let admin = f.admin_dn.clone();
    let user = f.user_dn.clone();

    // set, get, check, list, clear.
    call(
        &f,
        Some(&admin),
        "acl.set_method",
        vec![
            Value::from("special"),
            Value::structure([
                ("order", Value::from("deny,allow")),
                ("allow_dns", Value::array([Value::from(user.to_string())])),
                ("deny_dns", Value::array([Value::from("*")])),
            ]),
        ],
    )
    .unwrap();
    let got = call(
        &f,
        Some(&user),
        "acl.get_method",
        vec![Value::from("special")],
    )
    .unwrap();
    assert_eq!(got.get("order").unwrap().as_str(), Some("deny,allow"));

    let allowed = call(
        &f,
        Some(&user),
        "acl.check",
        vec![Value::from("special.thing"), Value::from(user.to_string())],
    )
    .unwrap();
    assert_eq!(allowed, Value::Bool(true));
    let denied = call(
        &f,
        Some(&user),
        "acl.check",
        vec![
            Value::from("special.thing"),
            Value::from("/O=elsewhere/CN=x"),
        ],
    )
    .unwrap();
    assert_eq!(denied, Value::Bool(false));

    let nodes = call(&f, Some(&user), "acl.list", vec![]).unwrap();
    assert!(nodes
        .as_array()
        .unwrap()
        .iter()
        .any(|v| v.as_str() == Some("special")));

    // Mutations are admin-only.
    let err = call(
        &f,
        Some(&user),
        "acl.clear_method",
        vec![Value::from("special")],
    )
    .unwrap_err();
    assert_eq!(err.code, codes::ACCESS_DENIED);
    call(
        &f,
        Some(&admin),
        "acl.clear_method",
        vec![Value::from("special")],
    )
    .unwrap();
    let got = call(
        &f,
        Some(&user),
        "acl.get_method",
        vec![Value::from("special")],
    )
    .unwrap();
    assert!(got.is_nil());

    // Bad order strings rejected.
    let err = call(
        &f,
        Some(&admin),
        "acl.set_method",
        vec![
            Value::from("x"),
            Value::structure([("order", Value::from("first-come"))]),
        ],
    )
    .unwrap_err();
    assert_eq!(err.code, codes::BAD_PARAMS);
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

#[test]
fn vo_service_edges() {
    let f = fixture("vo");
    let admin = f.admin_dn.clone();
    let user = f.user_dn.clone();

    let err = call(&f, Some(&user), "vo.group_info", vec![Value::from("nope")]).unwrap_err();
    assert_eq!(err.code, codes::SERVICE);
    let err = call(
        &f,
        Some(&user),
        "vo.is_member",
        vec![Value::from("g"), Value::from("not a dn")],
    )
    .unwrap_err();
    assert_eq!(err.code, codes::BAD_PARAMS);

    // Group names validated at the service boundary.
    let err = call(
        &f,
        Some(&admin),
        "vo.create_group",
        vec![Value::from("bad name")],
    )
    .unwrap_err();
    assert_eq!(err.code, codes::BAD_PARAMS);
    // Duplicate creation is a SERVICE conflict.
    call(&f, Some(&admin), "vo.create_group", vec![Value::from("g")]).unwrap();
    let err = call(&f, Some(&admin), "vo.create_group", vec![Value::from("g")]).unwrap_err();
    assert_eq!(err.code, codes::SERVICE);
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

#[test]
fn shell_service_requires_mapping() {
    let f = fixture("shellmap");
    // The admin has no user-map entry — shell access refused even though
    // the ACL allows the module.
    let admin = f.admin_dn.clone();
    let err = call(&f, Some(&admin), "shell.cmd_info", vec![]).unwrap_err();
    assert_eq!(err.code, codes::ACCESS_DENIED);
    assert!(err.message.contains("user_map"), "{}", err.message);

    // The mapped user works and gets the mapped account.
    let user = f.user_dn.clone();
    let info = call(&f, Some(&user), "shell.cmd_info", vec![]).unwrap();
    assert_eq!(info.get("user").unwrap().as_str(), Some("plainuser"));
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

#[test]
fn proxy_service_param_faults() {
    let f = fixture("proxy");
    let user = f.user_dn.clone();
    // Retrieving with nothing stored.
    let err = call(&f, Some(&user), "proxy.retrieve", vec![Value::from("pw")]).unwrap_err();
    assert_eq!(err.code, codes::SERVICE);
    // Storing garbage that is not a certificate payload.
    let err = call(
        &f,
        Some(&user),
        "proxy.store",
        vec![Value::from("pw"), Value::from("not certificates")],
    )
    .unwrap_err();
    assert_eq!(err.code, codes::SERVICE);
    // Attach without a session.
    let err = call(&f, Some(&user), "proxy.attach", vec![Value::from("pw")]).unwrap_err();
    assert_eq!(err.code, codes::NOT_AUTHENTICATED);
    // Remove when nothing stored returns false (not an error).
    let removed = call(&f, Some(&user), "proxy.remove", vec![]).unwrap();
    assert_eq!(removed, Value::Bool(false));
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

#[test]
fn im_service_edges() {
    let f = fixture("im");
    let user = f.user_dn.clone();
    let admin = f.admin_dn.clone();
    // Sending to yourself works (self-notes) and polling drains FIFO.
    for i in 0..3 {
        call(
            &f,
            Some(&user),
            "im.send",
            vec![
                Value::from(user.to_string()),
                Value::from(format!("note{i}")),
            ],
        )
        .unwrap();
    }
    // Peek reads the head of the mailbox in send order without consuming
    // it, and count sees every message; each is one bounded store scan.
    let scans = f.core.store.stats().scans;
    let head = call(&f, Some(&user), "im.peek", vec![Value::Int(2)]).unwrap();
    let bodies: Vec<_> = head
        .as_array()
        .unwrap()
        .iter()
        .map(|m| m.get("body").unwrap().as_str().unwrap().to_owned())
        .collect();
    assert_eq!(bodies, ["note0", "note1"]);
    let none = call(&f, Some(&user), "im.peek", vec![Value::Int(0)]).unwrap();
    assert!(none.as_array().unwrap().is_empty());
    let count = call(&f, Some(&user), "im.count", vec![]).unwrap();
    assert_eq!(count, Value::Int(3));
    assert_eq!(f.core.store.stats().scans, scans + 3);
    let other = call(&f, Some(&admin), "im.count", vec![]).unwrap();
    assert_eq!(other, Value::Int(0));

    let batch = call(&f, Some(&user), "im.poll", vec![Value::Int(2)]).unwrap();
    assert_eq!(batch.as_array().unwrap().len(), 2);
    let rest = call(&f, Some(&user), "im.poll", vec![Value::Int(10)]).unwrap();
    assert_eq!(
        rest.as_array().unwrap()[0].get("body").unwrap().as_str(),
        Some("note2")
    );
    // Empty mailbox polls cleanly.
    let empty = call(&f, Some(&admin), "im.poll", vec![Value::Int(5)]).unwrap();
    assert!(empty.as_array().unwrap().is_empty());
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

#[test]
fn md5_streams_large_files_and_honors_deadlines() {
    let f = fixture("md5stream");
    let user = f.user_dn.clone();
    // Five 64-KiB hash chunks plus a ragged tail: the digest loop must
    // stream, not slurp, and still agree with a one-shot reference hash.
    let payload: Vec<u8> = (0..5 * 64 * 1024 + 4321u32)
        .map(|i| (i % 233) as u8)
        .collect();
    std::fs::write(f.data_dir.join("files/big.dat"), &payload).unwrap();
    let mut reference = clarens_pki::md5::Md5::new();
    reference.update(&payload);
    let expected = clarens_pki::sha256::to_hex(&reference.finalize());

    let got = call(&f, Some(&user), "file.md5", vec![Value::from("/big.dat")]).unwrap();
    assert_eq!(got.as_str(), Some(expected.as_str()));

    // An already-expired budget fails between chunks with the DEADLINE
    // fault — the hash loop never runs to completion on borrowed time.
    // A different file, so the digest cached above cannot short-circuit.
    std::fs::write(f.data_dir.join("files/big2.dat"), &payload[1..]).unwrap();
    let ctx = CallContext {
        core: &f.core,
        identity: Some(std::sync::Arc::new(user)),
        session: None,
        now: f.core.now(),
        deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
        hops: 0,
    };
    // Straight at the handler: the gate's own overrun check would mask
    // whether the hash loop looks at the clock.
    let (_, service) = f.core.registry.read().lookup("file.md5").unwrap();
    let err = service
        .call(&ctx, "file.md5", &[Value::from("/big2.dat")])
        .unwrap_err();
    assert_eq!(err.code, codes::DEADLINE);
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

/// A follower with no leader to replicate from and no election to find one
/// would idle forever, fencing every replicated write with a NOT_LEADER
/// hint that points nowhere: the core refuses to be built that way, however
/// the config was assembled.
#[test]
fn follower_without_leader_or_elections_is_refused() {
    use clarens::config::FederationRole;
    let f = fixture("leaderless");
    let build = |config: ClarensConfig| {
        ClarensCore::new(config, f.core.roots.clone(), f.core.credential.clone())
    };
    let err = build(ClarensConfig {
        federation_role: FederationRole::Follower,
        ..Default::default()
    })
    .err()
    .expect("leaderless follower must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("federation_leader"), "{err}");

    // Leaderless bootstrap under elections stays legal, as does a
    // statically pointed follower.
    assert!(build(ClarensConfig {
        federation_role: FederationRole::Follower,
        leader_lease_ms: 500,
        ..Default::default()
    })
    .is_ok());
    assert!(build(ClarensConfig {
        federation_role: FederationRole::Follower,
        federation_leader: Some("leader.example.org:8080".into()),
        ..Default::default()
    })
    .is_ok());
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

/// A core with every built-in module registered and a log on disk.
fn full_fixture(name: &str) -> Fixture {
    use clarens::services::DiscoveryService;
    use monalisa_sim::DiscoveryAggregator;
    let f = fixture_with(name, |config| {
        // A static leader registers `replication` and fences nothing.
        config.federation_role = clarens::config::FederationRole::Leader;
        let dir = config.file_root.as_ref().unwrap().parent().unwrap();
        config.db_path = Some(dir.join("store.wal"));
    });
    let aggregator = DiscoveryAggregator::new(vec![], Arc::new(clarens_db::Store::in_memory()));
    f.core
        .register(Arc::new(DiscoveryService::new(Arc::new(aggregator), None)));
    f
}

/// The class of every built-in method, against the three lists the
/// records replaced — the public names, the replicated writes and what the
/// client's `is_idempotent` admitted — as they stood at `774a3b5`.
#[test]
fn records_reproduce_the_three_lists() {
    const PUBLIC: [&str; 5] = [
        "system.auth",
        "system.version",
        "system.ping",
        "system.health",
        "proxy.login",
    ];
    const REPLICATED: [&str; 18] = [
        "system.auth",
        "system.logout",
        "proxy.login",
        "proxy.store",
        "proxy.attach",
        "proxy.remove",
        "vo.create_group",
        "vo.delete_group",
        "vo.add_member",
        "vo.remove_member",
        "vo.add_admin",
        "vo.remove_admin",
        "acl.set_method",
        "acl.clear_method",
        "acl.set_file",
        "acl.clear_file",
        "im.send",
        "im.poll",
    ];
    const IDEMPOTENT: [&str; 26] = [
        "file.read",
        "file.ls",
        "file.stat",
        "file.find",
        "file.size",
        "file.md5",
        "system.list_methods",
        "system.get_method_info",
        "system.whoami",
        "system.version",
        "system.ping",
        "system.health",
        "system.session_count",
        "system.stats",
        "system.metrics",
        "system.trace_tail",
        "echo.echo",
        "echo.sum",
        "echo.concat",
        "echo.payload",
        "discovery.find",
        "discovery.find_remote",
        "discovery.status",
        "discovery.publish",
        "replication.fetch",
        "replication.status",
    ];
    let records: Vec<_> = clarens::services::BUILTIN
        .iter()
        .copied()
        .flatten()
        .collect();
    assert_eq!(records.len(), 69);
    for list in [&PUBLIC[..], &REPLICATED[..], &IDEMPOTENT[..]] {
        for name in list {
            assert!(records.iter().any(|m| m.name == *name), "{name} is gone");
        }
    }
    for m in &records {
        assert_eq!(m.public, PUBLIC.contains(&m.name), "{} public", m.name);
        assert_eq!(
            m.replicated,
            REPLICATED.contains(&m.name),
            "{} replicated",
            m.name
        );
        assert_eq!(
            m.idempotent,
            IDEMPOTENT.contains(&m.name),
            "{} idempotent",
            m.name
        );
    }

    // What a fully configured core registers is exactly those records,
    // each name once.
    let f = full_fixture("records");
    let registered = f.core.store.keys(clarens::registry::METHODS_BUCKET);
    assert_eq!(registered.len(), records.len());
    for name in &registered {
        assert_eq!(
            records.iter().filter(|m| m.name == name).count(),
            1,
            "{name}"
        );
        assert!(f.core.registry.read().lookup(name).is_some(), "{name}");
    }
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

/// Who writes the shipped log: a method whose record is not `replicated`
/// leaves `wal_offset` where it was. Each is called once, with arguments
/// it accepts. `srm.stage` and `srm.release` are the two that do not hold
/// (they record the stage request in a store bucket; ROADMAP item 3).
#[test]
fn only_replicated_methods_move_the_shipped_log() {
    let f = full_fixture("shipped-log");
    std::fs::write(f.data_dir.join("files/f.txt"), b"contents").unwrap();
    let dn = Value::from(f.user_dn.to_string());
    let mut token = Value::Nil;
    let mut job = Value::Nil;
    let mut moved = Vec::new();
    for m in clarens::services::BUILTIN.iter().copied().flatten() {
        if m.replicated {
            continue;
        }
        let s = Value::from;
        let args = match m.name {
            "system.get_method_info" => vec![s("echo.echo")],
            "echo.echo" | "echo.payload" | "im.peek" => vec![Value::Int(4)],
            "echo.sum" => vec![Value::Int(1), Value::Int(2)],
            "echo.concat" => vec![Value::Array(vec![s("a"), s("b")])],
            "file.read" => vec![s("/f.txt"), Value::Int(0), Value::Int(4)],
            "file.ls" => vec![s("/")],
            "file.stat" | "file.md5" | "file.size" | "srm.stage" => vec![s("/f.txt")],
            "file.find" => vec![s("/"), s("f")],
            "file.put" => vec![s("/g.txt"), Value::Bytes(vec![1, 2]), Value::Bool(false)],
            "file.mkdir" => vec![s("/d")],
            "file.rm" => vec![s("/g.txt")],
            "vo.group_info" => vec![s("admins")],
            "vo.is_member" => vec![s("admins"), dn.clone()],
            "acl.get_method" => vec![s("echo")],
            "acl.check" => vec![s("echo.echo"), dn.clone()],
            "proxy.retrieve" => vec![s("password")],
            "proxy.call" => vec![s("echo.echo"), Value::Array(vec![Value::Int(1)])],
            "shell.cmd" | "job.submit" => vec![s("echo hi")],
            "srm.status" | "srm.release" => vec![token.clone()],
            "srm.get" => vec![token.clone(), Value::Int(0), Value::Int(4)],
            // Nothing listens there: the transfer fails, which is an answer.
            "srm.pull" => vec![s("http://127.0.0.1:1/file/f.txt"), s("/pulled"), s("")],
            "job.status" | "job.remove" => vec![job.clone()],
            "job.wait" => vec![job.clone(), Value::Int(5_000)],
            "replication.fetch" => vec![Value::Int(0), Value::Int(0), Value::Int(1024)],
            _ => {
                assert_eq!(m.min_params, 0, "{} needs arguments here", m.name);
                vec![]
            }
        };
        // The shell map knows the plain user; the admin passes every
        // other service-level check.
        let who = match m.module() {
            "shell" | "job" => &f.user_dn,
            _ => &f.admin_dn,
        };
        let before = f.core.store.wal_offset();
        let answer = call(&f, Some(who), m.name, args);
        if f.core.store.wal_offset() != before {
            moved.push(m.name);
        }
        // A fault for want of a peer, a publisher or a stored proxy is an
        // answer; one about the call's shape means this table is wrong.
        match &answer {
            Err(fault) => assert!(fault.code == codes::SERVICE, "{}: {fault:?}", m.name),
            Ok(value) if m.name == "srm.stage" => token = value.get("token").unwrap().clone(),
            Ok(value) if m.name == "job.submit" => job = value.clone(),
            Ok(_) => {}
        }
    }
    assert_eq!(moved, ["srm.stage", "srm.release"]);
    let _ = std::fs::remove_dir_all(&f.data_dir);
}
