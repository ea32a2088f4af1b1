//! Generated gate conformance: from every registered row, the calls the
//! gate must refuse before a handler runs — each arity violation, each
//! single-parameter type violation, and for an `admin` row a call by a
//! non-admin — sent over XML-RPC, SOAP, JSON-RPC and clarens-binary. All
//! four must answer the same fault code and message, and the shipped log
//! must not move: the handler never ran. The grid is served over pipes
//! (`TestGrid::piped`): the real server code on the test's thread, with no
//! port.

use std::sync::Arc;

use clarens::registry::{MethodInfo, Type, METHODS_BUCKET};
use clarens::services::{DiscoveryService, ReplicationService};
use clarens::testkit::{GridOptions, TestGrid};
use clarens::{ClarensClient, ClientError};
use clarens_wire::fault::codes;
use clarens_wire::{Fault, Protocol, Value};
use monalisa_sim::DiscoveryAggregator;

const ALL_PROTOCOLS: [Protocol; 4] = [
    Protocol::XmlRpc,
    Protocol::Soap,
    Protocol::JsonRpc,
    Protocol::Binary,
];

/// A value of `ty` that every wire carries as that type.
fn valid(ty: Type) -> Value {
    match ty {
        Type::String => Value::from("x"),
        Type::Int | Type::Any => Value::Int(1),
        Type::Boolean => Value::Bool(true),
        Type::Base64 => Value::Bytes(vec![1, 2, 3]),
        Type::Array => Value::array([Value::Int(1)]),
        Type::Struct => Value::structure([("k", Value::Int(1))]),
    }
}

/// A value that is not `ty` on any wire; `None` for `any`, which every
/// value is.
fn violating(ty: Type) -> Option<Value> {
    Some(match ty {
        Type::String | Type::Boolean | Type::Base64 => Value::Int(7),
        Type::Int => Value::from("x"),
        Type::Array => Value::structure([("k", Value::Int(1))]),
        Type::Struct => Value::array([Value::Int(1)]),
        Type::Any => return None,
    })
}

/// One refused call: who sends it, what, and the fault code it must get.
struct Case {
    admin: bool,
    params: Vec<Value>,
    code: i64,
}

fn cases(m: &MethodInfo) -> Vec<Case> {
    let full: Vec<Value> = m.params.iter().map(|p| valid(p.ty)).collect();
    // An admin row's shape checks are reached by an admin only.
    let shape = |params: Vec<Value>| Case {
        admin: m.admin,
        params,
        code: codes::BAD_PARAMS,
    };
    let mut cases = Vec::new();
    if let Some(fewer) = m.min_params().checked_sub(1) {
        cases.push(shape(full[..fewer].to_vec()));
    }
    let mut more = full.clone();
    more.push(Value::Int(1));
    cases.push(shape(more));
    for (i, param) in m.params.iter().enumerate() {
        if let Some(bad) = violating(param.ty) {
            let mut params = full.clone();
            params[i] = bad;
            cases.push(shape(params));
        }
    }
    if m.admin {
        cases.push(Case {
            admin: false,
            params: full,
            code: codes::ACCESS_DENIED,
        });
    }
    cases
}

#[test]
fn every_row_is_refused_alike_on_all_four_protocols() {
    let dir = std::env::temp_dir().join(format!("clarens-gate-conformance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let grid = TestGrid::piped(GridOptions {
        db_path: Some(dir.join("store.wal")),
        ..Default::default()
    });
    // Every module: the two a standalone grid leaves out as well.
    let core = grid.core();
    core.register(Arc::new(ReplicationService));
    let aggregator = DiscoveryAggregator::new(vec![]);
    core.register(Arc::new(DiscoveryService::new(Arc::new(aggregator), None)));

    let login = |credential, protocol| -> ClarensClient {
        grid.logged_in_client(credential).with_protocol(protocol)
    };
    let mut users: Vec<_> = ALL_PROTOCOLS.map(|p| login(&grid.user, p)).into();
    let mut admins: Vec<_> = ALL_PROTOCOLS.map(|p| login(&grid.admin, p)).into();
    assert!(
        core.store.wal_offset() > 0,
        "logins are logged: the check below is live"
    );

    let names = core.store.keys(METHODS_BUCKET);
    assert_eq!(names.len(), 69);
    let mut sent = 0;
    for name in &names {
        let m = core.registry.read().lookup(name).unwrap();
        for case in cases(m) {
            let before = core.store.wal_offset();
            let clients = if case.admin { &mut admins } else { &mut users };
            let faults: Vec<Fault> = clients
                .iter_mut()
                .map(|client| match client.call(name, case.params.clone()) {
                    Err(ClientError::Fault(fault)) => fault,
                    other => panic!(
                        "{name}{:?} over {:?}: {other:?}",
                        case.params,
                        client.protocol()
                    ),
                })
                .collect();
            let reference = &faults[0];
            assert_eq!(
                reference.code, case.code,
                "{name}{:?}: {reference}",
                case.params
            );
            for (fault, protocol) in faults.iter().zip(ALL_PROTOCOLS) {
                assert_eq!(
                    (fault.code, &fault.message),
                    (reference.code, &reference.message),
                    "{name}{:?} over {protocol:?}",
                    case.params
                );
            }
            assert_eq!(
                core.store.wal_offset(),
                before,
                "{name}{:?} ran",
                case.params
            );
            sent += faults.len();
        }
    }
    // 69 rows: at least the max+1 arity case each, four times over.
    assert!(sent >= 69 * 4, "{sent} calls");
    grid.cleanup();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The messages the generated cases pin, spelled out once.
#[test]
fn refusals_have_one_shape() {
    let grid = TestGrid::piped(GridOptions::default());
    let mut user = grid.logged_in_client(&grid.user);
    let fault = |result: Result<Value, ClientError>| match result {
        Err(ClientError::Fault(fault)) => (fault.code, fault.message),
        other => panic!("{other:?}"),
    };
    assert_eq!(
        fault(user.call("echo.sum", vec![Value::from("x"), Value::Int(1)])),
        (
            codes::BAD_PARAMS,
            "echo.sum parameter 0 (a) must be int, got string".into()
        )
    );
    assert_eq!(
        fault(user.call("echo.sum", vec![Value::Int(1)])),
        (
            codes::BAD_PARAMS,
            "echo.sum expects 2 parameter(s), got 1".into()
        )
    );
    assert_eq!(
        fault(user.call("system.stats", vec![])),
        (
            codes::ACCESS_DENIED,
            "system.stats requires site admin".into()
        )
    );
    grid.cleanup();
}
