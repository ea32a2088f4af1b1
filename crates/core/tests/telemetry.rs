//! End-to-end tests for the observability plane: ACL gating of the export
//! surfaces, per-method latency capture under real traffic, slow-trace
//! collection, and the counters-only mode.

use clarens::client::ClientError;
use clarens::testkit::{GridOptions, TestGrid};
use clarens_wire::fault::codes;
use clarens_wire::Value;

fn assert_denied(result: Result<Value, ClientError>) {
    match result {
        Err(ClientError::Fault(f)) => assert_eq!(f.code, codes::ACCESS_DENIED),
        other => panic!("expected access denied, got {other:?}"),
    }
}

/// The server finishes a request's telemetry just after the response bytes
/// reach the socket, so a client can observe counters a moment early —
/// poll briefly instead of asserting instantly.
fn wait_until(mut cond: impl FnMut() -> bool) {
    for _ in 0..200 {
        if cond() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("condition not reached within 1s");
}

/// `GET /metrics` is admin-only: anonymous 401, plain user 403, admin 200
/// with live numbers in the exposition format.
#[test]
fn metrics_endpoint_acl_gated() {
    let grid = TestGrid::start();
    let mut user = grid.logged_in_client(&grid.user);
    for i in 0..4 {
        user.call("echo.echo", vec![Value::Int(i)]).unwrap();
    }

    let mut anonymous = grid.client(&grid.user);
    let (status, _) = anonymous.get_page("/metrics").unwrap();
    assert_eq!(status, 401);

    let (status, _) = user.get_page("/metrics").unwrap();
    assert_eq!(status, 403);

    let mut admin = grid.logged_in_client(&grid.admin);
    let (status, body) = admin.get_page("/metrics").unwrap();
    assert_eq!(status, 200);
    let requests: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("clarens_requests_total "))
        .expect("clarens_requests_total line")
        .parse()
        .unwrap();
    assert!(requests >= 5, "echo traffic + login must be counted");
    assert!(body.contains("clarens_method_calls_total{method=\"echo.echo\"} 4"));
    assert!(body.contains("clarens_phase_latency_us{phase=\"dispatch\",quantile=\"0.5\"}"));
    assert!(body.contains("clarens_db_lookups"));
    grid.cleanup();
}

/// `system.metrics` mirrors the endpoint's gating and reports the full
/// snapshot: HTTP counters, per-protocol counts, phases, methods, gauges.
#[test]
fn system_metrics_rpc_acl_gated_and_complete() {
    let grid = TestGrid::start();
    let mut user = grid.logged_in_client(&grid.user);
    for i in 0..3 {
        user.call("echo.echo", vec![Value::Int(i)]).unwrap();
    }
    assert_denied(user.call("system.metrics", vec![]));

    let mut admin = grid.logged_in_client(&grid.admin);
    let metrics = admin.call("system.metrics", vec![]).unwrap();
    let http = metrics.get("http").unwrap();
    assert!(http.get("requests").unwrap().as_int().unwrap() >= 4);
    let protocols = metrics.get("protocols").unwrap();
    assert!(
        protocols
            .get("xmlrpc")
            .unwrap()
            .get("requests")
            .unwrap()
            .as_int()
            .unwrap()
            > 0
    );
    let phases = metrics.get("phases").unwrap();
    for phase in [
        "parse",
        "auth",
        "acl",
        "dispatch",
        "serialize",
        "write",
        "total",
    ] {
        let snap = phases.get(phase).unwrap();
        assert!(snap.get("count").unwrap().as_int().is_some(), "{phase}");
        assert!(snap.get("p99_us").unwrap().as_int().is_some(), "{phase}");
    }
    let echo = metrics.get("methods").unwrap().get("echo.echo").unwrap();
    assert_eq!(echo.get("calls").unwrap().as_int().unwrap(), 3);
    assert_eq!(echo.get("faults").unwrap().as_int().unwrap(), 0);
    let latency = echo.get("latency").unwrap();
    assert_eq!(latency.get("count").unwrap().as_int().unwrap(), 3);
    assert!(latency.get("max_us").unwrap().as_int().unwrap() > 0);
    let gauges = metrics.get("gauges").unwrap();
    assert!(gauges.get("db.lookups").unwrap().as_int().unwrap() > 0);
    grid.cleanup();
}

/// Phase histograms observe every request and phase sums stay below the
/// end-to-end total (spans nest inside the request window).
#[test]
fn phase_latencies_recorded_under_traffic() {
    let grid = TestGrid::start();
    let mut user = grid.logged_in_client(&grid.user);
    for i in 0..10 {
        user.call("echo.echo", vec![Value::Int(i)]).unwrap();
    }
    let telemetry = &grid.core().telemetry;
    // login (system.auth) + 10 echoes at minimum.
    wait_until(|| telemetry.phase_snapshots().last().unwrap().1.count >= 11);
    let phases = telemetry.phase_snapshots();
    let total = &phases.last().unwrap().1;
    assert!(total.count >= 11);
    // Sub-microsecond phases round to 0µs and are skipped, so dispatch
    // sees at least the RSA-heavy system.auth call, not necessarily all
    // echoes; what is recorded can never exceed the end-to-end total.
    let dispatch = &phases[clarens_telemetry::Phase::Dispatch as usize].1;
    assert!(dispatch.count >= 1);
    assert!(dispatch.sum <= total.sum, "phase sum exceeds total");
    let methods = telemetry.methods_snapshot();
    let echo = methods
        .iter()
        .find(|(name, _)| name == "echo.echo")
        .expect("echo.echo stats");
    assert_eq!(echo.1.calls.get(), 10);
    assert_eq!(echo.1.latency.snapshot().count, 10);
    grid.cleanup();
}

/// With the slow threshold forced to zero every request lands in the
/// ring; `system.trace_tail` returns them newest-first with phase data.
#[test]
fn trace_tail_returns_slow_requests() {
    let grid = TestGrid::start();
    grid.core().telemetry.set_slow_threshold_us(0);
    let mut user = grid.logged_in_client(&grid.user);
    for i in 0..5 {
        user.call("echo.echo", vec![Value::Int(i)]).unwrap();
    }
    assert_denied(user.call("system.trace_tail", vec![]));

    let mut admin = grid.logged_in_client(&grid.admin);
    let tail = admin
        .call("system.trace_tail", vec![Value::Int(3)])
        .unwrap();
    let traces = tail.as_array().unwrap();
    assert_eq!(traces.len(), 3);
    // Newest first: strictly decreasing sequence numbers.
    let seqs: Vec<i64> = traces
        .iter()
        .map(|t| t.get("seq").unwrap().as_int().unwrap())
        .collect();
    assert!(
        seqs.windows(2).all(|w| w[0] > w[1]),
        "not newest-first: {seqs:?}"
    );
    let newest = &traces[0];
    // The newest slow request is the admin's own trace_tail denial or
    // login; all entries carry a method, protocol, and phase breakdown.
    for trace in traces {
        assert!(!trace.get("method").unwrap().as_str().unwrap().is_empty());
        assert_eq!(trace.get("protocol").unwrap().as_str().unwrap(), "xmlrpc");
        assert!(trace.get("phases").unwrap().get("dispatch").is_some());
    }
    assert!(newest.get("total_us").unwrap().as_int().unwrap() >= 0);
    grid.cleanup();
}

/// The migrated `system.stats` keeps its shape and now reports WAL syncs.
#[test]
fn stats_reports_wal_syncs() {
    let db = std::env::temp_dir().join(format!("clarens-telemetry-wal-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&db);
    let grid = TestGrid::start_with(GridOptions {
        db_path: Some(db.clone()),
        ..Default::default()
    });
    let mut admin = grid.logged_in_client(&grid.admin);
    grid.core().store.sync().unwrap();
    let stats = admin.call("system.stats", vec![]).unwrap();
    let db_stats = stats.get("db").unwrap();
    assert!(db_stats.get("wal_syncs").unwrap().as_int().unwrap() > 0);
    assert!(db_stats.get("lookups").unwrap().as_int().unwrap() > 0);
    grid.cleanup();
    let _ = std::fs::remove_file(&db);
}
