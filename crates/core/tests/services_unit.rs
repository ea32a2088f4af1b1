//! Direct service-dispatch tests: call every service through the registry
//! with synthetic call contexts (no HTTP), covering the parameter-fault
//! and edge paths that the end-to-end suite doesn't reach.

use std::sync::Arc;

use clarens::config::ClarensConfig;
use clarens::core::ClarensCore;
use clarens::registry::{invoke, Args, CallContext, Service};
use clarens::services::FileService;
use clarens::testkit::grid_pki;
use clarens::{install_permissive_acls, register_builtin_services};
use clarens_pki::dn::DistinguishedName;
use clarens_telemetry::RequestTrace;
use clarens_wire::fault::codes;
use clarens_wire::Value;

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
    let pki = grid_pki();
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
    let core =
        ClarensCore::new(config, vec![pki.ca.certificate.clone()], pki.server.clone()).unwrap();
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
        hold: Default::default(),
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
        hold: Default::default(),
    };
    // Straight at the row's handler: the gate's own overrun check would
    // mask whether the hash loop looks at the clock.
    let row = FileService::METHODS
        .iter()
        .find(|m| m.info.name == "file.md5")
        .unwrap();
    let params = [Value::from("/big2.dat")];
    let args = Args::check(&row.info, &params).unwrap();
    let service = FileService::new(f.data_dir.join("files"));
    let err = (row.run)(&service, &ctx, &args).unwrap_err();
    assert_eq!(err.code, codes::DEADLINE);
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

/// An elected node named leader acks no replicated write before it has
/// renewed a lease: until its election thread's first renewal, the gate
/// fences it like a follower. Once renewed, the same write passes.
#[test]
fn a_leader_writes_only_once_it_has_renewed_a_lease() {
    let f = fixture_with("unrenewed-lease", |config| config.leader_lease_ms = 500);
    let fed = &f.core.federation;
    fed.set_role(clarens::federation::FederationRole::Leader);
    let create = |group: &str| {
        call(
            &f,
            Some(&f.admin_dn),
            "vo.create_group",
            vec![Value::from(group)],
        )
    };
    let fenced = create("early").unwrap_err();
    assert_eq!(fenced.code, codes::NOT_LEADER, "{fenced:?}");
    assert!(f.core.vo.group("early").is_none());

    fed.renew_lease(60_000);
    create("renewed").unwrap();
    assert!(f.core.vo.group("renewed").is_some());
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

/// A core with every built-in module registered and a log on disk.
fn full_fixture(name: &str) -> Fixture {
    use clarens::services::DiscoveryService;
    use monalisa_sim::DiscoveryAggregator;
    let f = fixture_with(name, |config| {
        // An elected node registers `replication`.
        config.leader_lease_ms = 500;
        let dir = config.file_root.as_ref().unwrap().parent().unwrap();
        config.db_path = Some(dir.join("store.wal"));
    });
    // Leading, it serves `replication.fetch`.
    f.core
        .federation
        .set_role(clarens::federation::FederationRole::Leader);
    let aggregator = DiscoveryAggregator::new(vec![]);
    f.core
        .register(Arc::new(DiscoveryService::new(Arc::new(aggregator), None)));
    f
}

/// The class of every built-in method, against the three lists the
/// records replaced — the public names, the replicated writes and what the
/// client's `is_idempotent` admitted — as they stood at `774a3b5`, plus the
/// eleven site-admin checks the handlers made by hand until `7ee9331`.
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
    const ADMIN: [&str; 11] = [
        "system.session_count",
        "system.stats",
        "system.metrics",
        "system.trace_tail",
        "discovery.publish",
        "replication.fetch",
        "replication.status",
        "acl.set_method",
        "acl.clear_method",
        "acl.set_file",
        "acl.clear_file",
    ];
    let records: Vec<_> = clarens::services::records().collect();
    assert_eq!(records.len(), 69);
    for list in [&PUBLIC[..], &REPLICATED[..], &IDEMPOTENT[..], &ADMIN[..]] {
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
        assert_eq!(m.admin, ADMIN.contains(&m.name), "{} admin", m.name);
        // Only a tail of the parameter list may be optional.
        let optional = m.params.iter().skip_while(|p| !p.optional);
        assert!(optional.clone().all(|p| p.optional), "{}", m.name);
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

/// A node restarted with fewer services lists only what it exports now:
/// the methods bucket starts empty on every start, so a persistent store
/// keeps no row from an earlier run (which `system.list_methods`, the
/// portal and `discovery.publish` would advertise as callable).
#[test]
fn a_restart_with_fewer_services_lists_only_its_own() {
    use clarens::registry::METHODS_BUCKET;
    let Fixture { core, data_dir, .. } = fixture_with("restart-methods", |config| {
        let dir = config.file_root.as_ref().unwrap().parent().unwrap();
        config.db_path = Some(dir.join("store.wal"));
    });
    let before = core.store.keys(METHODS_BUCKET);
    assert!(before.iter().any(|name| name == "file.ls"));
    let db_path = core.config.db_path.clone();
    drop(core); // the store's file lock goes with it

    // No file or shell root: the file, srm, shell and job modules are gone.
    let pki = grid_pki();
    let config = ClarensConfig {
        db_path,
        ..Default::default()
    };
    let core =
        ClarensCore::new(config, vec![pki.ca.certificate.clone()], pki.server.clone()).unwrap();
    register_builtin_services(&core, None);
    let listed = core.store.keys(METHODS_BUCKET);
    let registry = core.registry.read();
    assert!(registry.lookup("file.ls").is_none());
    for name in &before {
        let exported = registry.lookup(name).is_some();
        assert_eq!(listed.contains(name), exported, "{name}");
    }
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A stage request lives as long as the process that staged it: a durable
/// node restarted on the same store answers a token from before the
/// restart with the unknown-token fault.
#[test]
fn a_restart_forgets_its_stage_requests() {
    let f = fixture_with("restart-srm", |config| {
        let dir = config.file_root.as_ref().unwrap().parent().unwrap();
        config.db_path = Some(dir.join("store.wal"));
    });
    std::fs::write(f.data_dir.join("files/f.txt"), b"contents").unwrap();
    let staged = call(
        &f,
        Some(&f.user_dn),
        "srm.stage",
        vec![Value::from("/f.txt")],
    );
    let token = staged.unwrap().get("token").unwrap().clone();
    let status = |f: &Fixture| call(f, Some(&f.user_dn), "srm.status", vec![token.clone()]);
    assert!(status(&f).is_ok());

    let Fixture {
        core,
        admin_dn,
        user_dn,
        data_dir,
    } = f;
    let config = core.config.clone();
    drop(core); // the store's file lock goes with it
    let pki = grid_pki();
    let core =
        ClarensCore::new(config, vec![pki.ca.certificate.clone()], pki.server.clone()).unwrap();
    register_builtin_services(&core, None);
    install_permissive_acls(&core);
    let f = Fixture {
        core,
        admin_dn,
        user_dn,
        data_dir,
    };
    let fault = status(&f).unwrap_err();
    assert_eq!(fault.code, codes::SERVICE, "{fault:?}");
    assert_eq!(
        fault.message,
        format!("no such request {}", token.as_str().unwrap())
    );
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

/// The published contract: every derived signature and every doc string,
/// against the literals the rows carried at `7ee9331`. Three signatures
/// change, each to the bracketed optional tail `system.trace_tail([limit])`
/// already used; everything else is byte-identical.
#[test]
fn derived_signatures_match_the_published_ones() {
    const PUBLISHED: [(&str, &str); 69] = [
        ("system.list_methods()", "List all registered method names"),
        ("system.get_method_info(name)", "Signature and documentation for one method"),
        ("system.auth(chain, timestamp, signature)", "Authenticate with a certificate chain and challenge signature; returns a session"),
        ("system.whoami()", "The caller's identity DN"),
        ("system.logout()", "Destroy the current session"),
        ("system.version()", "Server version string"),
        ("system.ping()", "Liveness probe"),
        ("system.health()", "Readiness: role, leader epoch, replication cursor/lag, degraded flag"),
        ("system.session_count()", "Number of live sessions (admin)"),
        ("system.stats()", "DB and authorization-cache counters (admin)"),
        ("system.metrics()", "Full telemetry snapshot: HTTP counters, per-phase and per-method latency (admin)"),
        ("system.trace_tail([limit])", "Most recent slow-request traces, newest first (admin)"),
        ("echo.echo(value)", "Return the argument unchanged"),
        ("echo.sum(a, b)", "Integer addition"),
        ("echo.concat(parts)", "Concatenate an array of strings"),
        ("echo.payload(nbytes)", "Return nbytes of deterministic data (bandwidth testing)"),
        ("file.read(name, offset, nbytes)", "Read up to nbytes from a file at offset; returns base64 bytes"),
        ("file.ls(dir)", "Directory listing with types and sizes"),
        ("file.stat(path)", "File or directory metadata"),
        ("file.md5(path)", "MD5 integrity hash of a file"),
        ("file.find(dir, pattern)", "Recursively find paths whose name contains pattern"),
        ("file.put(name, data, append)", "Write (or append) bytes to a file"),
        ("file.mkdir(dir)", "Create a directory (and parents)"),
        ("file.rm(path)", "Remove a file"),
        ("file.size(path)", "File size in bytes"),
        ("vo.create_group(name)", "Create a VO group"),
        ("vo.delete_group(name)", "Delete a VO group and its subgroups"),
        ("vo.add_member(group, dn)", "Add a member DN (prefix) to a group"),
        ("vo.remove_member(group, dn)", "Remove a member DN from a group"),
        ("vo.add_admin(group, dn)", "Add a group admin"),
        ("vo.remove_admin(group, dn)", "Remove a group admin"),
        ("vo.list_groups()", "All group names"),
        ("vo.group_info(name)", "Members and admins of a group"),
        ("vo.is_member(group, dn)", "Hierarchical membership test"),
        ("acl.set_method(node, acl)", "Attach an ACL to a method-hierarchy node (site admin)"),
        ("acl.clear_method(node)", "Remove a method ACL node (site admin)"),
        ("acl.get_method(node)", "Read a method ACL node"),
        ("acl.list()", "All method ACL nodes"),
        ("acl.set_file(node, read_acl, write_acl)", "Attach a file ACL to a path node (site admin)"),
        ("acl.clear_file(node)", "Remove a file ACL node (site admin)"),
        ("acl.check(method, dn)", "Would the given DN be allowed to call the method?"),
        ("discovery.find(query)", "Find services via the aggregated local database (fast path)"),
        ("discovery.find_remote(query)", "Find services by synchronous fan-out to station servers (slow path)"),
        ("discovery.publish()", "Publish this server's service descriptors to the station network (site admin)"),
        ("discovery.status()", "Aggregation statistics"),
        ("proxy.store(password, payload)", "Store a proxy credential sealed under a password"),
        ("proxy.retrieve(password)", "Retrieve the caller's stored proxy credential"),
        ("proxy.login(dn, password)", "Create a session from a stored proxy, knowing only DN and password"),
        ("proxy.attach(password)", "Attach the stored proxy to the current session (renewal/delegation)"),
        ("proxy.remove()", "Delete the caller's stored proxy"),
        ("proxy.call(method, params)", "Invoke a method on whichever federation node exports it"),
        ("shell.cmd(command)", "Run a sandboxed command as the mapped system user"),
        ("shell.cmd_info()", "The mapped system user and sandbox directory"),
        ("im.send(to_dn, body)", "Queue a message for another identity; returns the sequence number"),
        ("im.poll(max)", "Receive (and consume) up to max queued messages for the caller"),
        ("im.peek(max)", "Read up to max queued messages without consuming them"),
        ("im.count()", "Number of queued messages for the caller"),
        ("srm.stage(path)", "Request a file be staged from mass storage; returns a request token"),
        ("srm.status(token)", "Stage-request status: staging | online | released"),
        ("srm.get(token, offset, nbytes)", "Read from a staged (online) file"),
        ("srm.release(token)", "Release a staged file (it returns to tape)"),
        ("srm.pull(source_url, dest_path, expected_md5)", "Third-party transfer: fetch a remote Clarens file into local storage (MD5-verified, retried)"),
        ("job.submit(command)", "Run a command asynchronously in the caller's sandbox; returns a job id"),
        ("job.status(id)", "Job state plus output once finished"),
        ("job.list()", "The caller's jobs"),
        ("job.wait(id, timeout_ms)", "Block (bounded) until the job finishes; returns its record"),
        ("job.remove(id)", "Forget a finished job"),
        ("replication.fetch(epoch, offset, max_bytes)", "Read framed WAL bytes from the given cursor (site admin)"),
        ("replication.status()", "Leader WAL epoch and committed length (site admin)"),
    ];
    const BRACKETED: [(&str, &str); 3] = [
        ("discovery.find(query)", "discovery.find([query])"),
        (
            "discovery.find_remote(query)",
            "discovery.find_remote([query])",
        ),
        ("proxy.call(method, params)", "proxy.call(method, [params])"),
    ];
    let records: Vec<_> = clarens::services::records().collect();
    assert_eq!(records.len(), PUBLISHED.len());
    for (m, (signature, doc)) in records.iter().zip(PUBLISHED) {
        let expected = BRACKETED
            .iter()
            .find(|(old, _)| *old == signature)
            .map_or(signature, |(_, new)| new);
        assert_eq!(m.signature(), expected);
        assert_eq!(m.doc, doc, "{}", m.name);
    }
}

/// A malformed ACL is refused with `BAD_PARAMS` and leaves the node's
/// rules as they were. Until `7ee9331` `acl_from_value` read a string, or a
/// list that was not an array of strings, as empty: the call answered
/// `true` and the node stopped denying the DN it denied.
#[test]
fn malformed_acls_are_refused_and_leave_the_node_alone() {
    let f = fixture("malformed-acl");
    let (admin, user) = (f.admin_dn.clone(), f.user_dn.clone());
    let node = Value::from("echo.echo");
    let deny_user =
        || Value::structure([("deny_dns", Value::array([Value::from(user.to_string())]))]);
    call(
        &f,
        Some(&admin),
        "acl.set_method",
        vec![node.clone(), deny_user()],
    )
    .unwrap();
    let secret = Value::from("/secret");
    let set_file = vec![secret.clone(), deny_user(), deny_user()];
    call(&f, Some(&admin), "acl.set_file", set_file).unwrap();

    let method_acl = call(&f, Some(&user), "acl.get_method", vec![node.clone()]).unwrap();
    let file_acl = f.core.acl.file_acl("/secret").unwrap();
    let still_denied = || {
        let err = call(&f, Some(&user), "echo.echo", vec![Value::Int(1)]).unwrap_err();
        assert_eq!(err.code, codes::ACCESS_DENIED);
        let err = call(&f, Some(&user), "file.stat", vec![secret.clone()]).unwrap_err();
        assert_eq!(err.code, codes::ACCESS_DENIED);
    };
    still_denied();

    let malformed = [
        Value::from("deny plain"),
        Value::structure([("deny_dns", Value::from(user.to_string()))]),
        Value::structure([("deny_dns", Value::array([Value::Int(7)]))]),
        Value::structure([("order", Value::Int(1))]),
    ];
    for bad in malformed {
        let calls = [
            ("acl.set_method", vec![node.clone(), bad.clone()]),
            (
                "acl.set_file",
                vec![secret.clone(), bad.clone(), deny_user()],
            ),
            (
                "acl.set_file",
                vec![secret.clone(), deny_user(), bad.clone()],
            ),
        ];
        for (method, params) in calls {
            let err = call(&f, Some(&admin), method, params).unwrap_err();
            assert_eq!(err.code, codes::BAD_PARAMS, "{method} {bad}");
        }
        let now = call(&f, Some(&user), "acl.get_method", vec![node.clone()]).unwrap();
        assert_eq!(now, method_acl, "{bad}");
        assert_eq!(f.core.acl.file_acl("/secret").unwrap(), file_acl, "{bad}");
        still_denied();
    }
    let _ = std::fs::remove_dir_all(&f.data_dir);
}

/// Who writes the shipped log: a method whose record is not `replicated`
/// leaves `wal_offset` where it was. Each is called once, with arguments
/// it accepts. `srm.stage` and `srm.release` write too, but into a
/// node-local bucket, which never enters the log.
#[test]
fn only_replicated_methods_move_the_shipped_log() {
    let f = full_fixture("shipped-log");
    std::fs::write(f.data_dir.join("files/f.txt"), b"contents").unwrap();
    let dn = Value::from(f.user_dn.to_string());
    let mut token = Value::Nil;
    let mut job = Value::Nil;
    let mut moved = Vec::new();
    for m in clarens::services::records() {
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
                assert_eq!(m.min_params(), 0, "{} needs arguments here", m.name);
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
    assert!(moved.is_empty(), "{moved:?}");
    let _ = std::fs::remove_dir_all(&f.data_dir);
}
