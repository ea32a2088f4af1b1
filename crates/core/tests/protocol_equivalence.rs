//! Cross-protocol equivalence: every core RPC must behave identically no
//! matter which of the four wire protocols carries it — same `Value`
//! results, same fault codes. XML-RPC is the reference (the paper's
//! default protocol); SOAP, JSON-RPC, and clarens-binary must be
//! indistinguishable from it at the `Value` level.
//!
//! JSON has no native bytes/date-time types (they travel as strings), so
//! the all-protocol suite sticks to the JSON-representable common subset;
//! the lossless-type cases (Bytes, DateTime) run binary-vs-XML-RPC, which
//! both carry the full algebra.
//!
//! Every grid here is served over pipes (`TestGrid::piped`): the real
//! server code on the test's thread, with no port.

use clarens::testkit::{GridOptions, TestGrid};
use clarens::ClientError;
use clarens_wire::fault::codes;
use clarens_wire::{Protocol, Value};

const ALL_PROTOCOLS: [Protocol; 4] = [
    Protocol::XmlRpc,
    Protocol::Soap,
    Protocol::JsonRpc,
    Protocol::Binary,
];

/// The common-subset workload: every core service family, with params
/// covering each JSON-representable `Value` shape.
fn workload() -> Vec<(&'static str, Vec<Value>)> {
    vec![
        ("system.ping", vec![]),
        ("system.version", vec![]),
        ("system.whoami", vec![]),
        ("system.list_methods", vec![]),
        ("echo.echo", vec![Value::Nil]),
        ("echo.echo", vec![Value::Bool(true)]),
        ("echo.echo", vec![Value::Int(-42)]),
        ("echo.echo", vec![Value::Double(-2.5)]),
        ("echo.echo", vec![Value::from("héllo & <wörld>")]),
        (
            "echo.echo",
            vec![Value::array([
                Value::Int(1),
                Value::from("two"),
                Value::structure([("k", Value::Bool(false))]),
            ])],
        ),
        (
            "echo.echo",
            vec![Value::structure([
                ("name", Value::from("pythia.root")),
                ("size", Value::Int(7 << 30)),
                ("entries", Value::array([Value::Int(1), Value::Int(2)])),
            ])],
        ),
        ("echo.sum", vec![Value::Int(40), Value::Int(2)]),
        (
            "echo.concat",
            vec![Value::array([Value::from("a"), Value::from("b")])],
        ),
    ]
}

#[test]
fn identical_results_across_all_four_protocols() {
    let grid = TestGrid::piped(GridOptions::default());
    // Reference run: XML-RPC.
    let mut reference = grid.logged_in_client(&grid.user);
    let baseline: Vec<Value> = workload()
        .into_iter()
        .map(|(method, params)| reference.call(method, params).unwrap())
        .collect();

    for protocol in [Protocol::Soap, Protocol::JsonRpc, Protocol::Binary] {
        let mut client = grid.logged_in_client(&grid.user).with_protocol(protocol);
        for ((method, params), expected) in workload().into_iter().zip(&baseline) {
            let got = client.call(method, params.clone()).unwrap_or_else(|e| {
                panic!("{protocol:?} {method} {params:?} failed: {e}");
            });
            assert_eq!(
                &got, expected,
                "{protocol:?} {method} diverged from the XML-RPC reference"
            );
        }
    }
    grid.cleanup();
}

#[test]
fn identical_fault_codes_across_all_four_protocols() {
    let grid = TestGrid::piped(GridOptions::default());
    for protocol in ALL_PROTOCOLS {
        // Unauthenticated call to a protected method.
        let mut anon = grid.client(&grid.user).with_protocol(protocol);
        match anon.call("system.list_methods", vec![]) {
            Err(ClientError::Fault(f)) => assert_eq!(
                f.code,
                codes::NOT_AUTHENTICATED,
                "{protocol:?} wrong not-authenticated code"
            ),
            other => panic!("{protocol:?}: unexpected {other:?}"),
        }

        let mut client = grid.logged_in_client(&grid.user).with_protocol(protocol);
        // Unknown method on a known module (an unknown module is caught
        // earlier, by the ACL check, as ACCESS_DENIED).
        match client.call("echo.no_such_method", vec![]) {
            Err(ClientError::Fault(f)) => assert_eq!(
                f.code,
                codes::NO_SUCH_METHOD,
                "{protocol:?} wrong no-such-method code"
            ),
            other => panic!("{protocol:?}: unexpected {other:?}"),
        }
        // Parameter faults: generated from every row in gate_conformance.rs.
    }
    grid.cleanup();
}

#[test]
fn binary_matches_xmlrpc_on_lossless_types() {
    // Bytes and DateTime survive XML-RPC and binary as typed values
    // (JSON-RPC flattens them to strings, which is why they are not in
    // the all-protocol suite).
    let grid = TestGrid::piped(GridOptions::default());
    let payloads = [
        Value::Bytes((0..=255u8).collect()),
        Value::DateTime(clarens_wire::datetime::DateTime::new(2005, 6, 15, 14, 8, 55).unwrap()),
        Value::structure([
            ("data", Value::Bytes(vec![0, 159, 146, 150])),
            (
                "stamp",
                Value::DateTime(
                    clarens_wire::datetime::DateTime::new(1998, 7, 17, 0, 0, 1).unwrap(),
                ),
            ),
        ]),
    ];
    let mut xml = grid.logged_in_client(&grid.user);
    let mut bin = grid
        .logged_in_client(&grid.user)
        .with_protocol(Protocol::Binary);
    for payload in payloads {
        let via_xml = xml.call("echo.echo", vec![payload.clone()]).unwrap();
        let via_bin = bin.call("echo.echo", vec![payload.clone()]).unwrap();
        assert_eq!(via_xml, payload);
        assert_eq!(via_bin, payload);
    }
    grid.cleanup();
}

#[test]
fn binary_requests_are_counted_in_telemetry() {
    let grid = TestGrid::piped(GridOptions::default());
    let mut client = grid
        .logged_in_client(&grid.user)
        .with_protocol(Protocol::Binary);
    for i in 0..5 {
        client.call("echo.echo", vec![Value::Int(i)]).unwrap();
    }
    let mut admin = grid.logged_in_client(&grid.admin);
    let (status, body) = admin.get_page("/metrics").unwrap();
    assert_eq!(status, 200);
    let count: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("clarens_protocol_requests_total{protocol=\"binary\"} "))
        .expect("binary protocol counter exported")
        .trim()
        .parse()
        .unwrap();
    assert!(count >= 5, "binary requests under-counted: {count}");
    grid.cleanup();
}
