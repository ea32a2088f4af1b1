//! Degraded mode over RPC: once a WAL failure has made the store
//! read-only, every mutation answers the `DEGRADED` fault (code 9) and
//! changes nothing. An ACL or VO edit that answered `true` here would be
//! an administrator's revocation silently not happening.

use clarens::testkit::{GridOptions, TestGrid};
use clarens::{ClarensClient, ClientError};
use clarens_db::{Call, Fault};
use clarens_wire::fault::codes;
use clarens_wire::Value;

fn assert_degraded(client: &mut ClarensClient, method: &str, params: Vec<Value>) {
    match client.call(method, params) {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::DEGRADED, "{method}: {f:?}"),
        other => panic!("{method} on a degraded store answered {other:?}"),
    }
}

#[test]
fn mutations_on_a_degraded_store_answer_degraded_and_change_nothing() {
    let db = std::env::temp_dir().join(format!("clarens-degraded-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&db);
    let grid = TestGrid::start_with(GridOptions {
        db_path: Some(db.clone()),
        ..Default::default()
    });
    let eve = grid.user.certificate.subject.to_string();
    let mut admin = grid.logged_in_client(&grid.admin);
    let mut user = grid.logged_in_client(&grid.user);
    admin
        .call("vo.create_group", vec![Value::from("cms")])
        .unwrap();
    admin
        .call("vo.create_group", vec![Value::from("cms.sub")])
        .unwrap();
    let member = || vec![Value::from("cms"), Value::from(eve.as_str())];
    admin.call("vo.add_member", member()).unwrap();
    for body in ["one", "two"] {
        let send = vec![Value::from(eve.as_str()), Value::from(body)];
        admin.call("im.send", send).unwrap();
    }
    let acl_before = admin
        .call("acl.get_method", vec![Value::from("echo")])
        .unwrap();

    grid.disk().arm(Call::Write, Fault::Fail, 1);
    assert!(grid.core().store.put("probe", "k", b"v".to_vec()).is_err());
    assert!(grid.core().store.is_degraded());

    // VO: the revocation is refused, and eve is still a member.
    assert_degraded(&mut admin, "vo.remove_member", member());
    let info = admin
        .call("vo.group_info", vec![Value::from("cms")])
        .unwrap();
    assert!(format!("{info:?}").contains(&eve), "{info:?}");
    assert_degraded(&mut admin, "vo.create_group", vec![Value::from("atlas")]);
    assert_degraded(&mut admin, "vo.delete_group", vec![Value::from("cms")]);
    let groups = admin.call("vo.list_groups", vec![]).unwrap();
    for name in ["cms", "cms.sub"] {
        assert!(groups.as_array().unwrap().contains(&Value::from(name)));
    }

    // ACL: the deny is refused, and the node is unchanged.
    let deny = Value::structure([("deny_dns", Value::Array(vec![Value::from(eve.as_str())]))]);
    assert_degraded(
        &mut admin,
        "acl.set_method",
        vec![Value::from("echo"), deny],
    );
    assert_degraded(&mut admin, "acl.clear_method", vec![Value::from("echo")]);
    let acl_after = admin
        .call("acl.get_method", vec![Value::from("echo")])
        .unwrap();
    assert_eq!(acl_after, acl_before);

    // IM: a poll whose first delete is refused delivers nothing and
    // consumes nothing.
    assert_degraded(&mut user, "im.poll", vec![Value::Int(10)]);
    let queued = user.call("im.peek", vec![Value::Int(10)]).unwrap();
    assert_eq!(queued.as_array().unwrap().len(), 2, "{queued:?}");

    grid.cleanup();
    let _ = std::fs::remove_file(&db);
}
