//! End-to-end integration tests for the Clarens core: real TCP, real
//! protocols, the complete per-request path (session check → ACL check →
//! dispatch), exactly the flow the paper's Figure-4 benchmark exercises.

use clarens::acl::{Acl, FileAcl};
use clarens::testkit::{dn, now, GridOptions, TestGrid};
use clarens::ClientError;
use clarens_pki::rsa;
use clarens_wire::fault::codes;
use clarens_wire::{Protocol, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn public_methods_work_without_auth() {
    let grid = TestGrid::start();
    let mut client = grid.client(&grid.user);
    assert_eq!(
        client.call("system.ping", vec![]).unwrap(),
        Value::from("pong")
    );
    let version = client.call("system.version", vec![]).unwrap();
    assert!(version.as_str().unwrap().starts_with("clarens-rs/"));
    grid.cleanup();
}

#[test]
fn protected_methods_require_auth() {
    let grid = TestGrid::start();
    let mut client = grid.client(&grid.user);
    match client.call("system.list_methods", vec![]) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::NOT_AUTHENTICATED),
        other => panic!("unexpected {other:?}"),
    }
    grid.cleanup();
}

#[test]
fn certificate_login_and_figure4_workload() {
    let grid = TestGrid::start();
    let mut client = grid.logged_in_client(&grid.user);
    assert!(client.session_id().is_some());

    // The exact Figure-4 call: list_methods returning 30+ strings.
    let methods = client.list_methods().unwrap();
    assert!(
        methods.len() > 30,
        "only {} methods registered",
        methods.len()
    );
    assert!(methods.iter().any(|m| m == "system.list_methods"));
    assert!(methods.iter().any(|m| m == "file.read"));

    // whoami reflects the authenticated identity.
    let who = client.call("system.whoami", vec![]).unwrap();
    assert_eq!(
        who.as_str().unwrap(),
        grid.user.certificate.subject.to_string()
    );
    grid.cleanup();
}

#[test]
fn all_three_protocols_serve_the_same_service() {
    let grid = TestGrid::start();
    for protocol in [Protocol::XmlRpc, Protocol::Soap, Protocol::JsonRpc] {
        let mut client = grid.client(&grid.user).with_protocol(protocol);
        client
            .login()
            .unwrap_or_else(|e| panic!("login over {protocol:?}: {e}"));
        let echo = client
            .call("echo.echo", vec![Value::from("grid")])
            .unwrap_or_else(|e| panic!("echo over {protocol:?}: {e}"));
        assert_eq!(echo, Value::from("grid"), "{protocol:?}");
        let sum = client
            .call("echo.sum", vec![Value::Int(20), Value::Int(22)])
            .unwrap();
        assert_eq!(sum, Value::Int(42), "{protocol:?}");
    }
    grid.cleanup();
}

#[test]
fn sessions_are_transferable_and_revocable() {
    let grid = TestGrid::start();
    let mut client = grid.logged_in_client(&grid.user);
    let session = client.session_id().unwrap().to_owned();

    // The session id works from a completely fresh connection (stateless
    // HTTP, state on the server — paper §2).
    let mut other = grid.client(&grid.user);
    other.set_session(session.clone());
    assert!(other.call("system.whoami", vec![]).is_ok());

    // Logout revokes it for everyone.
    assert!(client.logout().unwrap());
    match other.call("system.whoami", vec![]) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::NOT_AUTHENTICATED),
        other => panic!("unexpected {other:?}"),
    }
    grid.cleanup();
}

#[test]
fn expired_auth_challenge_rejected() {
    let grid = TestGrid::start();
    let mut client = grid.client(&grid.user);
    let stale = now() - 10_000;
    let signature = grid
        .user
        .key
        .sign(clarens::services::system::auth_challenge(stale).as_bytes());
    let result = client.call(
        "system.auth",
        vec![
            Value::Array(vec![Value::from(grid.user.certificate.to_text())]),
            Value::Int(stale),
            Value::Bytes(signature),
        ],
    );
    match result {
        Err(ClientError::Fault(f)) => {
            assert_eq!(f.code, codes::NOT_AUTHENTICATED);
            assert!(f.message.contains("timestamp"), "{}", f.message);
        }
        other => panic!("unexpected {other:?}"),
    }
    grid.cleanup();
}

#[test]
fn forged_chain_rejected() {
    let grid = TestGrid::start();
    // Credential signed by a different CA.
    let t = now();
    let mut rng = StdRng::seed_from_u64(999);
    let rogue_ca =
        clarens_pki::CertificateAuthority::new(&mut rng, dn("/O=rogue/CN=CA"), t - 3600, 365);
    let kp = rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS);
    let rogue = clarens_pki::Credential {
        certificate: rogue_ca.issue(dn("/O=rogue/CN=spy"), &kp.public, t - 3600, 30),
        key: kp.private,
        chain: vec![],
    };
    let mut client = grid.client(&rogue);
    match client.login() {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::NOT_AUTHENTICATED),
        other => panic!("unexpected {other:?}"),
    }
    grid.cleanup();
}

#[test]
fn acl_deny_overrides_grant_end_to_end() {
    let grid = TestGrid::start();
    // Deny uma the shell module at the module level (ACL admin via admin).
    let mut admin = grid.logged_in_client(&grid.admin);
    admin
        .call(
            "acl.set_method",
            vec![
                Value::from("shell"),
                Value::structure([
                    ("order", Value::from("allow,deny")),
                    ("allow_dns", Value::Array(vec![Value::from("*")])),
                    (
                        "deny_dns",
                        Value::Array(vec![Value::from(grid.user.certificate.subject.to_string())]),
                    ),
                ]),
            ],
        )
        .unwrap();

    let mut user = grid.logged_in_client(&grid.user);
    match user.call("shell.cmd_info", vec![]) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::ACCESS_DENIED),
        other => panic!("unexpected {other:?}"),
    }
    // Other modules still allowed.
    assert!(user.call("echo.echo", vec![Value::Int(1)]).is_ok());
    // The admin can still use the shell.
    assert!(admin.call("shell.cmd_info", vec![]).is_ok());
    grid.cleanup();
}

#[test]
fn vo_management_over_rpc() {
    let grid = TestGrid::start();
    let mut admin = grid.logged_in_client(&grid.admin);
    admin
        .call("vo.create_group", vec![Value::from("cms")])
        .unwrap();
    admin
        .call("vo.create_group", vec![Value::from("cms.analysis")])
        .unwrap();
    admin
        .call(
            "vo.add_member",
            vec![
                Value::from("cms"),
                Value::from("/O=doesciencegrid.org/OU=People"),
            ],
        )
        .unwrap();

    // Hierarchical membership visible over RPC.
    let is_member = admin
        .call(
            "vo.is_member",
            vec![
                Value::from("cms.analysis"),
                Value::from(grid.user.certificate.subject.to_string()),
            ],
        )
        .unwrap();
    assert_eq!(is_member, Value::Bool(true));

    // A non-admin cannot mutate.
    let mut user = grid.logged_in_client(&grid.user);
    match user.call("vo.create_group", vec![Value::from("rogue")]) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::ACCESS_DENIED),
        other => panic!("unexpected {other:?}"),
    }
    // But can read.
    let groups = user.call("vo.list_groups", vec![]).unwrap();
    let names: Vec<&str> = groups
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|v| v.as_str())
        .collect();
    assert!(names.contains(&"cms"));
    grid.cleanup();
}

#[test]
fn file_service_end_to_end() {
    let grid = TestGrid::start();
    grid.write_file("/data/events.dat", b"0123456789abcdef");
    grid.write_file("/data/run2/more.dat", b"xyz");
    let mut client = grid.logged_in_client(&grid.user);

    // file.read with offset/length (the paper's exact signature).
    assert_eq!(client.file_read("/data/events.dat", 0, 4).unwrap(), b"0123");
    assert_eq!(
        client.file_read("/data/events.dat", 10, 100).unwrap(),
        b"abcdef"
    );
    assert_eq!(client.file_read("/data/events.dat", 16, 4).unwrap(), b"");

    // file.ls
    let listing = client.call("file.ls", vec![Value::from("/data")]).unwrap();
    let names: Vec<String> = listing
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str).map(str::to_owned))
        .collect();
    assert_eq!(names, vec!["events.dat", "run2"]);

    // file.stat
    let stat = client
        .call("file.stat", vec![Value::from("/data/events.dat")])
        .unwrap();
    assert_eq!(stat.get("size").unwrap().as_int(), Some(16));
    assert_eq!(stat.get("type").unwrap().as_str(), Some("file"));

    // file.md5 — verifiable against our own MD5.
    let md5 = client
        .call("file.md5", vec![Value::from("/data/events.dat")])
        .unwrap();
    assert_eq!(
        md5.as_str().unwrap(),
        clarens_pki::md5::md5_hex(b"0123456789abcdef")
    );

    // file.find
    let found = client
        .call("file.find", vec![Value::from("/"), Value::from(".dat")])
        .unwrap();
    let paths: Vec<&str> = found
        .as_array()
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, vec!["/data/events.dat", "/data/run2/more.dat"]);

    // file.put + readback.
    client
        .call(
            "file.put",
            vec![
                Value::from("/data/new.txt"),
                Value::Bytes(b"written".to_vec()),
                Value::Bool(false),
            ],
        )
        .unwrap();
    assert_eq!(
        client.file_read("/data/new.txt", 0, 100).unwrap(),
        b"written"
    );

    // HTTP GET streaming path returns identical bytes.
    assert_eq!(
        client.http_get_file("/data/events.dat").unwrap(),
        b"0123456789abcdef"
    );

    // Escapes rejected at the RPC layer.
    match client.file_read("/../../../etc/passwd", 0, 10) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::BAD_PARAMS),
        other => panic!("unexpected {other:?}"),
    }
    grid.cleanup();
}

#[test]
fn file_acl_enforced_on_get_and_rpc() {
    let grid = TestGrid::start();
    grid.write_file("/secret/keys.txt", b"very secret");
    let core = grid.core();
    // Deny uma read under /secret (overrides the permissive root grant).
    core.acl.set_file_acl(
        "/secret",
        &FileAcl {
            read: Acl::deny_dn(grid.user.certificate.subject.to_string()),
            write: Acl::default(),
        },
    );
    let mut user = grid.logged_in_client(&grid.user);
    match user.file_read("/secret/keys.txt", 0, 10) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::ACCESS_DENIED),
        other => panic!("unexpected {other:?}"),
    }
    match user.http_get_file("/secret/keys.txt") {
        Err(ClientError::Http(403, _)) => {}
        other => panic!("unexpected {other:?}"),
    }
    // Admin unaffected.
    let mut admin = grid.logged_in_client(&grid.admin);
    assert_eq!(
        admin.file_read("/secret/keys.txt", 0, 100).unwrap(),
        b"very secret"
    );
    grid.cleanup();
}

#[test]
fn unauthenticated_get_rejected_and_missing_file_is_xml_error() {
    let grid = TestGrid::start();
    grid.write_file("/a.txt", b"x");
    let mut anon = grid.client(&grid.user); // no login
    match anon.http_get_file("/a.txt") {
        Err(ClientError::Http(401, _)) => {}
        other => panic!("unexpected {other:?}"),
    }
    let mut user = grid.logged_in_client(&grid.user);
    match user.http_get_file("/ghost.txt") {
        Err(ClientError::Http(404, body)) => {
            // Paper: "GET requests return a file or an XML-encoded error".
            assert!(body.contains("<error"), "{body}");
        }
        other => panic!("unexpected {other:?}"),
    }
    grid.cleanup();
}

#[test]
fn shell_service_end_to_end() {
    let grid = TestGrid::start();
    let mut user = grid.logged_in_client(&grid.user);

    // cmd_info reports the mapped system user and sandbox.
    let info = user.call("shell.cmd_info", vec![]).unwrap();
    assert_eq!(info.get("user").unwrap().as_str(), Some("uma"));
    assert_eq!(info.get("sandbox").unwrap().as_str(), Some("/uma"));

    // Commands execute in the sandbox.
    let run = |client: &mut clarens::ClarensClient, cmd: &str| {
        client.call("shell.cmd", vec![Value::from(cmd)]).unwrap()
    };
    assert_eq!(
        run(&mut user, "echo hello").get("stdout").unwrap().as_str(),
        Some("hello\n")
    );
    run(&mut user, "mkdir /work");
    run(&mut user, "echo data > /work/out.txt");
    assert_eq!(
        run(&mut user, "cat /work/out.txt")
            .get("stdout")
            .unwrap()
            .as_str(),
        Some("data\n")
    );

    // Escape attempts fail with nonzero status.
    let escape = run(&mut user, "cat /../../etc/passwd");
    assert_eq!(escape.get("status").unwrap().as_int(), Some(1));

    // The admin maps via the group rule to a *different* sandbox.
    let mut admin = grid.logged_in_client(&grid.admin);
    let info = admin.call("shell.cmd_info", vec![]).unwrap();
    assert_eq!(info.get("user").unwrap().as_str(), Some("ada"));
    let ls = run(&mut admin, "ls /");
    assert!(!ls.get("stdout").unwrap().as_str().unwrap().contains("work"));

    // Sandbox is visible to the file service through the shell root: the
    // file written above exists under <data>/shell/uma/work/out.txt.
    let on_disk = grid.data_dir.join("shell/uma/work/out.txt");
    assert_eq!(std::fs::read_to_string(on_disk).unwrap(), "data\n");
    grid.cleanup();
}

#[test]
fn proxy_store_login_attach_cycle() {
    let grid = TestGrid::start();
    let mut user = grid.logged_in_client(&grid.user);

    // Build a delegation proxy client-side and store it under a password.
    let mut rng = StdRng::seed_from_u64(7);
    let proxy = grid.user.delegate_proxy(&mut rng, now() - 5, 12 * 3600);
    let mut chain = vec![proxy.certificate.clone()];
    chain.extend(proxy.chain.clone());
    let payload = clarens::services::proxy::chain_payload(&chain, "(key withheld in test)");
    user.call(
        "proxy.store",
        vec![Value::from("s3cret"), Value::from(payload.clone())],
    )
    .unwrap();

    // Retrieve round-trips.
    let back = user
        .call("proxy.retrieve", vec![Value::from("s3cret")])
        .unwrap();
    assert_eq!(back.as_str().unwrap(), payload);

    // Wrong password refused.
    match user.call("proxy.retrieve", vec![Value::from("wrong")]) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::NOT_AUTHENTICATED),
        other => panic!("unexpected {other:?}"),
    }

    // proxy.login from a completely fresh, unauthenticated client: "only
    // knowing the certificate distinguished name and password".
    let mut fresh = grid.client(&grid.user);
    let session = fresh
        .login_proxy(&grid.user.certificate.subject.to_string(), "s3cret")
        .unwrap();
    assert!(!session.is_empty());
    let who = fresh.call("system.whoami", vec![]).unwrap();
    assert_eq!(
        who.as_str().unwrap(),
        grid.user.certificate.subject.to_string()
    );

    // Attach to the existing session (renewal).
    assert_eq!(
        user.call("proxy.attach", vec![Value::from("s3cret")])
            .unwrap(),
        Value::Bool(true)
    );

    // Remove, then login fails.
    assert_eq!(
        user.call("proxy.remove", vec![]).unwrap(),
        Value::Bool(true)
    );
    let mut late = grid.client(&grid.user);
    assert!(late
        .login_proxy(&grid.user.certificate.subject.to_string(), "s3cret")
        .is_err());
    grid.cleanup();
}

#[test]
fn tls_transport_authenticates_without_login() {
    let grid = TestGrid::start_with(GridOptions {
        tls: true,
        seed: 0x715,
        ..Default::default()
    });
    let mut client = grid.tls_client(&grid.user);
    // No login() call: identity flows from the TLS handshake.
    let who = client.call("system.whoami", vec![]).unwrap();
    assert_eq!(
        who.as_str().unwrap(),
        grid.user.certificate.subject.to_string()
    );
    let methods = client.list_methods().unwrap();
    assert!(methods.len() > 30);
    grid.cleanup();
}

#[test]
fn proxy_credential_over_tls_acts_as_user() {
    let grid = TestGrid::start_with(GridOptions {
        tls: true,
        seed: 0x716,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(11);
    let proxy = grid.user.delegate_proxy(&mut rng, now() - 5, 3600);
    let mut client = grid.tls_client(&proxy);
    let who = client.call("system.whoami", vec![]).unwrap();
    // Delegation: the proxy acts as the *user*.
    assert_eq!(
        who.as_str().unwrap(),
        grid.user.certificate.subject.to_string()
    );
    grid.cleanup();
}

#[test]
fn portal_pages_render() {
    let grid = TestGrid::start();
    grid.write_file("/data/a.root", b"1234");
    let mut client = grid.logged_in_client(&grid.user);

    let (status, html) = client.get_page("/").unwrap();
    assert_eq!(status, 200);
    assert!(html.contains("Clarens portal"));
    assert!(html.contains("Uma User"), "{html}");

    let (status, html) = client.get_page("/portal/files?path=/data").unwrap();
    assert_eq!(status, 200);
    assert!(html.contains("a.root"), "{html}");

    let (status, html) = client.get_page("/portal/vo").unwrap();
    assert_eq!(status, 200);
    assert!(html.contains("admins"), "{html}");

    let (status, html) = client.get_page("/portal/methods").unwrap();
    assert_eq!(status, 200);
    assert!(html.contains("file.read"), "{html}");

    // The ACL management view lists installed nodes (§3 "access control
    // management").
    let (status, html) = client.get_page("/portal/acl").unwrap();
    assert_eq!(status, 200);
    assert!(
        html.contains("allow,deny") || html.contains("deny,allow"),
        "{html}"
    );
    assert!(html.contains("system"), "{html}");

    // Unauthenticated portal access degrades gracefully.
    let mut anon = grid.client(&grid.user);
    let (status, html) = anon.get_page("/portal/files").unwrap();
    assert_eq!(status, 200);
    assert!(html.contains("Authenticate"), "{html}");

    let (status, _) = client.get_page("/portal/nonsense").unwrap();
    assert_eq!(status, 404);
    grid.cleanup();
}

#[test]
fn sessions_survive_server_restart() {
    // The headline persistence property, over a real restart with a
    // persistent DB.
    let db = std::env::temp_dir().join(format!("clarens-restart-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&db);

    let grid = TestGrid::start_with(GridOptions {
        db_path: Some(db.clone()),
        seed: 0x9999,
        ..Default::default()
    });
    let mut client = grid.logged_in_client(&grid.user);
    let session = client.session_id().unwrap().to_owned();
    assert!(client.call("system.whoami", vec![]).is_ok());
    grid.cleanup(); // full server shutdown

    let grid2 = TestGrid::start_with(GridOptions {
        db_path: Some(db.clone()),
        seed: 0x9999,
        ..Default::default()
    });
    let mut revived = grid2.client(&grid2.user);
    revived.set_session(session);
    // No re-authentication: the old session works on the new server.
    let who = revived.call("system.whoami", vec![]).unwrap();
    assert_eq!(
        who.as_str().unwrap(),
        grid2.user.certificate.subject.to_string()
    );
    grid2.cleanup();
    let _ = std::fs::remove_file(&db);
}

#[test]
fn malformed_bodies_get_parse_faults_not_hangs() {
    let grid = TestGrid::start();
    let mut http = clarens_httpd::HttpClient::new(grid.addr());

    // Unparseable XML-RPC.
    let resp = http
        .post("/clarens", "text/xml", "<methodCall><broken")
        .unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8_lossy(&resp.body);
    assert!(text.contains("<fault>"), "{text}");

    // Unparseable JSON.
    let resp = http
        .post("/clarens", "application/json", "{not json")
        .unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8_lossy(&resp.body);
    assert!(text.contains("error"), "{text}");

    // Undeterminable protocol.
    let resp = http.post("/clarens", "text/plain", "hello").unwrap();
    assert_eq!(resp.status, 400);

    // Unknown method gets a NO_SUCH_METHOD fault (after auth).
    let mut client = grid.logged_in_client(&grid.user);
    match client.call("nonexistent.method", vec![]) {
        Err(ClientError::Fault(f)) => {
            // ACL denies first (no grant for the unknown module) — either
            // fault code is acceptable behaviour; assert it IS a fault.
            assert!(f.code == codes::NO_SUCH_METHOD || f.code == codes::ACCESS_DENIED);
        }
        other => panic!("unexpected {other:?}"),
    }
    grid.cleanup();
}

#[test]
fn concurrent_clients_like_figure4() {
    // A miniature of the Figure-4 setup: N concurrent clients hammering
    // system.list_methods over keep-alive connections.
    let grid = TestGrid::start();
    let addr = grid.addr();
    let session = {
        let client = grid.logged_in_client(&grid.user);
        client.session_id().unwrap().to_owned()
    };
    let mut handles = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        let session = session.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = clarens::ClarensClient::new(addr);
            client.set_session(session);
            for _ in 0..50 {
                let methods = client.list_methods().expect("list_methods");
                assert!(methods.len() > 30);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // 400 RPC requests + 1 auth all served without error.
    assert!(
        grid.server
            .stats()
            .requests
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 401
    );
    grid.cleanup();
}

#[test]
fn im_messaging_between_identities() {
    // The §6 future-work IM extension: asynchronous messages between a
    // "job" (logged in as uma) and a "user" (ada), queued server-side.
    let grid = TestGrid::start();
    let mut job = grid.logged_in_client(&grid.user);
    let mut operator = grid.logged_in_client(&grid.admin);
    let operator_dn = grid.admin.certificate.subject.to_string();
    let job_dn = grid.user.certificate.subject.to_string();

    // The job reports progress; the operator is offline at the time.
    for step in 0..3 {
        let seq = job
            .call(
                "im.send",
                vec![
                    Value::from(operator_dn.clone()),
                    Value::from(format!("step {step} done")),
                ],
            )
            .unwrap();
        assert!(seq.as_int().unwrap() >= 0);
    }

    // The operator polls later and receives everything in order.
    assert_eq!(operator.call("im.count", vec![]).unwrap(), Value::Int(3));
    let peeked = operator.call("im.peek", vec![Value::Int(10)]).unwrap();
    assert_eq!(peeked.as_array().unwrap().len(), 3); // peek does not consume
    let messages = operator.call("im.poll", vec![Value::Int(10)]).unwrap();
    let messages = messages.as_array().unwrap();
    assert_eq!(messages.len(), 3);
    for (i, message) in messages.iter().enumerate() {
        assert_eq!(message.get("from").unwrap().as_str().unwrap(), job_dn);
        assert_eq!(
            message.get("body").unwrap().as_str().unwrap(),
            format!("step {i} done")
        );
    }
    // Queue drained.
    assert_eq!(operator.call("im.count", vec![]).unwrap(), Value::Int(0));

    // Reply path: the operator steers the job.
    operator
        .call(
            "im.send",
            vec![Value::from(job_dn), Value::from("abort step 3")],
        )
        .unwrap();
    let inbox = job.call("im.poll", vec![Value::Int(10)]).unwrap();
    assert_eq!(
        inbox.as_array().unwrap()[0]
            .get("body")
            .unwrap()
            .as_str()
            .unwrap(),
        "abort step 3"
    );

    // Mailboxes are private: uma cannot read ada's queue (polling only
    // ever returns the caller's own messages).
    job.call(
        "im.send",
        vec![
            Value::from(grid.admin.certificate.subject.to_string()),
            Value::from("secret"),
        ],
    )
    .unwrap();
    let own = job.call("im.poll", vec![Value::Int(10)]).unwrap();
    assert!(own.as_array().unwrap().is_empty());

    // Bad recipients and oversized bodies are rejected.
    match job.call("im.send", vec![Value::from("not a dn"), Value::from("x")]) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::BAD_PARAMS),
        other => panic!("unexpected {other:?}"),
    }
    let huge = "x".repeat(65 * 1024);
    match job.call(
        "im.send",
        vec![
            Value::from(grid.admin.certificate.subject.to_string()),
            Value::from(huge),
        ],
    ) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::BAD_PARAMS),
        other => panic!("unexpected {other:?}"),
    }
    grid.cleanup();
}

#[test]
fn srm_staging_lifecycle() {
    // The §6 mass-storage extension: files are notionally on tape until a
    // stage request brings them online (SRM v1 get/getRequestStatus
    // pattern).
    let grid = TestGrid::start();
    grid.write_file("/tape/run9.dat", b"archived events");
    let mut client = grid.logged_in_client(&grid.user);

    let staged = client
        .call("srm.stage", vec![Value::from("/tape/run9.dat")])
        .unwrap();
    let token = staged.get("token").unwrap().as_str().unwrap().to_owned();
    assert!(staged.get("estimated_seconds").unwrap().as_int().unwrap() >= 0);

    // Immediately after the request the file is still staging, and reads
    // are refused with the SRM not-ready error.
    let status = client
        .call("srm.status", vec![Value::from(token.clone())])
        .unwrap();
    assert_eq!(status.get("state").unwrap().as_str(), Some("staging"));
    match client.call(
        "srm.get",
        vec![Value::from(token.clone()), Value::Int(0), Value::Int(100)],
    ) {
        Err(ClientError::Fault(f)) => assert!(f.message.contains("NOT_READY"), "{}", f.message),
        other => panic!("unexpected {other:?}"),
    }

    // Poll until online (simulated tape latency is 2s).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let status = client
            .call("srm.status", vec![Value::from(token.clone())])
            .unwrap();
        if status.get("state").unwrap().as_str() == Some("online") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "staging never completed"
        );
        std::thread::sleep(std::time::Duration::from_millis(200));
    }

    // Online: reads work.
    let bytes = client
        .call(
            "srm.get",
            vec![Value::from(token.clone()), Value::Int(0), Value::Int(100)],
        )
        .unwrap();
    assert_eq!(bytes.coerce_bytes().unwrap(), b"archived events");

    // Another user cannot use our token.
    let mut other = grid.logged_in_client(&grid.admin);
    match other.call(
        "srm.get",
        vec![Value::from(token.clone()), Value::Int(0), Value::Int(10)],
    ) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::ACCESS_DENIED),
        other => panic!("unexpected {other:?}"),
    }

    // Release returns the file to tape.
    assert_eq!(
        client
            .call("srm.release", vec![Value::from(token.clone())])
            .unwrap(),
        Value::Bool(true)
    );
    let status = client.call("srm.status", vec![Value::from(token)]).unwrap();
    assert_eq!(status.get("state").unwrap().as_str(), Some("released"));
    grid.cleanup();
}

#[test]
fn srm_third_party_transfer_between_servers() {
    // Robust file transfer "between different mass storage facilities":
    // server B pulls a file directly from server A's GET endpoint, with
    // MD5 verification, on behalf of the requesting client.
    let site_a = TestGrid::start_with(GridOptions {
        seed: 0x5A,
        ..Default::default()
    });
    let site_b = TestGrid::start_with(GridOptions {
        seed: 0x5B,
        ..Default::default()
    });
    let payload: Vec<u8> = (0..100_000u32).flat_map(|i| i.to_le_bytes()).collect();
    site_a.write_file("/export/big.dat", &payload);
    let md5 = clarens_pki::md5::md5_hex(&payload);

    // A session on site A gives site B's pull a readable URL.
    let session_a = {
        let c = site_a.logged_in_client(&site_a.user);
        c.session_id().unwrap().to_owned()
    };
    let source_url = format!(
        "http://{}/file/export/big.dat?session={session_a}",
        site_a.addr()
    );

    let mut client_b = site_b.logged_in_client(&site_b.user);
    let result = client_b
        .call(
            "srm.pull",
            vec![
                Value::from(source_url),
                Value::from("/imported/big.dat"),
                Value::from(md5.clone()),
            ],
        )
        .unwrap();
    assert_eq!(
        result.get("bytes").unwrap().as_int(),
        Some(payload.len() as i64)
    );
    assert_eq!(result.get("md5").unwrap().as_str(), Some(md5.as_str()));

    // The file is now readable from site B's file service, byte-identical.
    let copied = client_b
        .file_read("/imported/big.dat", 0, payload.len() as i64)
        .unwrap();
    assert_eq!(copied, payload);

    // A transfer with a wrong expected MD5 fails after retries.
    let session_a2 = session_a.clone();
    let bad = client_b.call(
        "srm.pull",
        vec![
            Value::from(format!(
                "http://{}/file/export/big.dat?session={session_a2}",
                site_a.addr()
            )),
            Value::from("/imported/corrupt.dat"),
            Value::from("0".repeat(32)),
        ],
    );
    match bad {
        Err(ClientError::Fault(f)) => assert!(f.message.contains("md5"), "{}", f.message),
        other => panic!("unexpected {other:?}"),
    }

    // A dead source fails cleanly too.
    let dead = client_b.call(
        "srm.pull",
        vec![
            Value::from("http://127.0.0.1:1/file/x"),
            Value::from("/imported/never.dat"),
            Value::from(""),
        ],
    );
    assert!(dead.is_err());

    site_a.cleanup();
    site_b.cleanup();
}

#[test]
fn job_submission_lifecycle() {
    // Portal functionality "job submission" (paper §3): asynchronous
    // sandboxed commands with status polling.
    let grid = TestGrid::start();
    let mut client = grid.logged_in_client(&grid.user);

    // Prepare input in the sandbox via the shell, then process it as a job.
    client
        .call(
            "shell.cmd",
            vec![Value::from("echo event-data > /input.txt")],
        )
        .unwrap();
    let id = client
        .call("job.submit", vec![Value::from("wc /input.txt")])
        .unwrap();
    let id_int = id.as_int().unwrap();

    // Wait for completion (bounded server-side wait).
    let record = client
        .call("job.wait", vec![Value::Int(id_int), Value::Int(5000)])
        .unwrap();
    assert_eq!(record.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(record.get("status").unwrap().as_int(), Some(0));
    assert!(record
        .get("stdout")
        .unwrap()
        .as_str()
        .unwrap()
        .starts_with("1 1 11"));

    // job.list shows it; job.remove cleans up.
    let listing = client.call("job.list", vec![]).unwrap();
    assert_eq!(listing.as_array().unwrap().len(), 1);
    assert_eq!(
        client.call("job.remove", vec![Value::Int(id_int)]).unwrap(),
        Value::Bool(true)
    );
    assert!(client
        .call("job.list", vec![])
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());

    // A failing command reports nonzero status.
    let id2 = client
        .call("job.submit", vec![Value::from("cat /does-not-exist")])
        .unwrap();
    let record = client
        .call("job.wait", vec![id2.clone(), Value::Int(5000)])
        .unwrap();
    assert_eq!(record.get("status").unwrap().as_int(), Some(1));
    assert!(!record.get("stderr").unwrap().as_str().unwrap().is_empty());

    // Jobs are private per identity.
    let mut other = grid.logged_in_client(&grid.admin);
    match other.call("job.status", vec![id2]) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::ACCESS_DENIED),
        other => panic!("unexpected {other:?}"),
    }
    grid.cleanup();
}

trait Wire: std::io::Read + std::io::Write {}
impl<T: std::io::Read + std::io::Write> Wire for T {}

/// The replicated-ack barrier holds a write the only known follower has
/// not fetched — and holds it just the same when the write arrives through
/// `proxy.call`: a lone election-managed leader, lease in hand, whose one
/// observed fetch is behind its log, refuses to acknowledge either.
#[test]
fn ack_barrier_holds_direct_and_proxied_writes_alike() {
    let db = std::env::temp_dir().join(format!("clarens-barrier-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&db);
    let grid = TestGrid::start_with(GridOptions {
        // The barrier compares against the WAL offset: needs a log.
        db_path: Some(db.clone()),
        ..Default::default()
    });
    // Logging in is a replicated write itself: do it before there is a
    // follower to wait for.
    let mut admin = grid.logged_in_client(&grid.admin);
    let fed = &grid.core().federation;
    fed.set_role(clarens::config::FederationRole::Leader);
    fed.manage_lease();
    fed.renew_lease(60_000);
    fed.observe_follower_fetch(0);
    assert!(grid.core().store.wal_offset() > 0);

    let mut held = |method: &str, params: Vec<Value>| {
        let started = std::time::Instant::now();
        match admin.call(method, params) {
            Err(ClientError::Fault(f)) => {
                assert_eq!(f.code, codes::SERVICE, "{f:?}");
                assert!(
                    f.message
                        .contains("applied locally but no follower confirmed replication in time"),
                    "{f:?}"
                );
            }
            other => panic!("{method} acknowledged a write no follower holds: {other:?}"),
        }
        // One lease (unset here: the 100 ms floor), not the 5 s deadline.
        let took = started.elapsed();
        assert!(took >= std::time::Duration::from_millis(100), "{took:?}");
        assert!(took < std::time::Duration::from_secs(2), "{took:?}");
    };
    held("vo.create_group", vec![Value::from("direct")]);
    held(
        "proxy.call",
        vec![
            Value::from("vo.create_group"),
            Value::Array(vec![Value::from("proxied")]),
        ],
    );

    // A follower that has caught up releases both.
    fed.observe_follower_fetch(u64::MAX);
    let member = || vec![Value::from("direct"), Value::from("/O=doesciencegrid.org")];
    assert_eq!(
        admin.call("vo.add_member", member()).unwrap(),
        Value::Bool(true)
    );
    assert_eq!(
        admin
            .call(
                "proxy.call",
                vec![Value::from("vo.remove_member"), Value::Array(member())]
            )
            .unwrap(),
        Value::Bool(true)
    );
    grid.cleanup();
    let _ = std::fs::remove_file(&db);
}

/// Open a raw byte stream to the grid and send `request` down it: a plain
/// socket, or (on a TLS grid) the secure channel with `grid.user`'s
/// credential.
fn send_raw(grid: &TestGrid, tls: bool, request: &str) -> Box<dyn Wire> {
    let sock = std::net::TcpStream::connect(grid.addr()).unwrap();
    let mut wire: Box<dyn Wire> = if tls {
        Box::new(
            clarens_pki::SecureStream::connect(
                sock,
                &grid.user,
                std::slice::from_ref(&grid.ca.certificate),
                now(),
                &mut rand::rng(),
            )
            .unwrap(),
        )
    } else {
        Box::new(sock)
    };
    wire.write_all(request.as_bytes()).unwrap();
    wire.flush().unwrap();
    wire
}

/// Send one raw HTTP/1.1 request and parse the response. `Connection:
/// close` is the caller's job (the server closes, so `read_response`
/// terminates even for bodies it will not see, e.g. HEAD).
fn raw_http(grid: &TestGrid, tls: bool, request: &str) -> clarens_httpd::ClientResponse {
    let mut reader = std::io::BufReader::new(send_raw(grid, tls, request));
    clarens_httpd::parse::read_response(&mut reader, 1 << 24).unwrap()
}

/// HEAD responses carry a Content-Length but no body, which a generic
/// response parser would block on — read the closed connection to EOF and
/// split the head by hand instead.
fn raw_head(grid: &TestGrid, tls: bool, request: &str) -> (u16, clarens_httpd::Headers, usize) {
    let mut sock = send_raw(grid, tls, request);
    let mut wire = Vec::new();
    sock.read_to_end(&mut wire).unwrap();
    let split = wire
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = std::str::from_utf8(&wire[..split]).unwrap();
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let mut headers = clarens_httpd::Headers::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.set(name.trim(), value.trim());
        }
    }
    (status, headers, wire.len() - split - 4)
}

#[test]
fn http_file_downloads_support_head_and_ranges() {
    // The whole matrix runs over plaintext (where file bodies ride
    // sendfile on Linux) and over TLS (the buffered copy loop): Range
    // handling, HEAD metadata answers, and header decoration must be
    // byte-for-byte independent of which copy engine moves the body.
    for tls in [false, true] {
        let grid = TestGrid::start_with(GridOptions {
            tls,
            ..Default::default()
        });
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 241) as u8).collect();
        grid.write_file("/data/blob.bin", &payload);
        // Over TLS the handshake identifies the caller; a plaintext caller
        // presents a session.
        let target = if tls {
            "/file/data/blob.bin".to_owned()
        } else {
            let c = grid.logged_in_client(&grid.user);
            format!("/file/data/blob.bin?session={}", c.session_id().unwrap())
        };
        let get = |extra: &str| {
            raw_http(
                &grid,
                tls,
                &format!(
                    "GET {target} HTTP/1.1\r\n\
                     host: t\r\n{extra}connection: close\r\n\r\n"
                ),
            )
        };

        // HEAD answers from metadata: full length, range advertisement,
        // Last-Modified, and not a single body byte.
        let (status, headers, body_bytes) = raw_head(
            &grid,
            tls,
            &format!("HEAD {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"),
        );
        assert_eq!(status, 200, "tls={tls}");
        assert_eq!(headers.get("content-length"), Some("10000"));
        assert_eq!(headers.get("accept-ranges"), Some("bytes"));
        let lm = headers
            .get("last-modified")
            .expect("last-modified")
            .to_owned();
        assert!(lm.ends_with(" GMT"), "{lm:?}");
        assert_eq!(body_bytes, 0);

        // Whole-entity GET.
        let whole = get("");
        assert_eq!(whole.status, 200);
        assert_eq!(whole.headers.get("accept-ranges"), Some("bytes"));
        assert_eq!(whole.headers.get("last-modified"), Some(lm.as_str()));
        assert_eq!(whole.body, payload);

        // Closed range.
        let mid = get("range: bytes=100-199\r\n");
        assert_eq!(mid.status, 206);
        assert_eq!(
            mid.headers.get("content-range"),
            Some("bytes 100-199/10000")
        );
        assert_eq!(mid.body, &payload[100..200]);

        // Suffix range: the final 100 bytes.
        let tail = get("range: bytes=-100\r\n");
        assert_eq!(tail.status, 206);
        assert_eq!(
            tail.headers.get("content-range"),
            Some("bytes 9900-9999/10000")
        );
        assert_eq!(tail.body, &payload[9_900..]);

        // Open-ended range.
        let from = get("range: bytes=9990-\r\n");
        assert_eq!(from.status, 206);
        assert_eq!(
            from.headers.get("content-range"),
            Some("bytes 9990-9999/10000")
        );
        assert_eq!(from.body, &payload[9_990..]);

        // Start beyond the entity: 416 with the unsatisfied-range form.
        let beyond = get("range: bytes=20000-\r\n");
        assert_eq!(beyond.status, 416);
        assert_eq!(beyond.headers.get("content-range"), Some("bytes */10000"));

        // Syntactically invalid ranges are ignored, not errors.
        let inverted = get("range: bytes=5-2\r\n");
        assert_eq!(inverted.status, 200);
        assert_eq!(inverted.body, payload);

        grid.cleanup();
    }
}
