//! End-to-end deadline propagation: a handler that overruns the
//! per-request budget answers with the 504-style DEADLINE fault, the
//! keep-alive connection survives for the next request, and the
//! resilience counters record the event.

use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens::acl::Acl;
use clarens::registry::param::int;
use clarens::registry::{Method, Service};
use clarens::testkit::{GridOptions, TestGrid};
use clarens::ClientError;
use clarens_wire::fault::codes;
use clarens_wire::{Fault, Value};

/// A test service with two slow methods: `nap` ignores the budget (the
/// post-dispatch overrun check must catch it), `politenap` checks the
/// deadline cooperatively and bails out early. A third-party module is one
/// table.
struct Sleeper;

impl Service for Sleeper {
    const METHODS: &'static [Method<Self>] = &[
        Method::new(
            "sleeptest.nap",
            "Sleep, ignoring the budget",
            &[int("ms")],
            |_, _, args| {
                let ms = args.int(0)?;
                std::thread::sleep(Duration::from_millis(ms as u64));
                Ok(Value::Int(ms))
            },
        ),
        Method::new(
            "sleeptest.politenap",
            "Sleep in slices, checking the deadline",
            &[int("ms")],
            |_, ctx, args| {
                let ms = args.int(0)?;
                let end = Instant::now() + Duration::from_millis(ms as u64);
                while Instant::now() < end {
                    ctx.check_deadline()?;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(Value::Int(ms))
            },
        ),
    ];
}

fn sleepy_grid() -> TestGrid {
    let grid = TestGrid::start_with(GridOptions {
        workers: 4,
        request_deadline_ms: 250,
        ..Default::default()
    });
    grid.core().register(Arc::new(Sleeper));
    grid.core()
        .acl
        .set_method_acl("sleeptest", &Acl::allow_dn("*"))
        .unwrap();
    grid
}

fn expect_deadline_fault(result: Result<Value, ClientError>) -> Fault {
    match result {
        Err(ClientError::Fault(fault)) => {
            assert_eq!(fault.code, codes::DEADLINE, "fault: {fault}");
            fault
        }
        other => panic!("expected a DEADLINE fault, got {other:?}"),
    }
}

#[test]
fn overrunning_handler_gets_deadline_fault_and_connection_survives() {
    let grid = sleepy_grid();
    let mut client = grid.logged_in_client(&grid.user);

    // Prime the keep-alive connection, then record the connection count:
    // everything after this must reuse the same socket.
    assert_eq!(
        client.call("echo.echo", vec![Value::Int(1)]).unwrap(),
        Value::Int(1)
    );
    let connections = grid.core().telemetry.http.connections.get();
    let exceeded_before = grid.core().telemetry.resilience.deadline_exceeded.get();

    // The handler sleeps well past the 250 ms budget without checking it;
    // the dispatch layer converts the overrun into the 504-style fault.
    expect_deadline_fault(client.call("sleeptest.nap", vec![Value::Int(600)]));

    // The fault was a normal keep-alive response: the very next call runs
    // on the same connection and succeeds.
    assert_eq!(
        client.call("echo.echo", vec![Value::Int(2)]).unwrap(),
        Value::Int(2)
    );
    assert_eq!(
        grid.core().telemetry.http.connections.get(),
        connections,
        "the deadline fault must not cost the client its connection"
    );
    assert!(
        grid.core().telemetry.resilience.deadline_exceeded.get() > exceeded_before,
        "telemetry must record the deadline overrun"
    );
    grid.cleanup();
}

#[test]
fn cooperative_handler_stops_early_at_the_deadline() {
    let grid = sleepy_grid();
    let mut client = grid.logged_in_client(&grid.user);

    // politenap wants 5 s but checks the budget every 10 ms, so the fault
    // comes back right after the 250 ms deadline, not after 5 s.
    let t0 = Instant::now();
    expect_deadline_fault(client.call("sleeptest.politenap", vec![Value::Int(5_000)]));
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "cooperative handler should stop near the 250 ms budget, took {elapsed:?}"
    );

    // Within budget the same method completes normally.
    assert_eq!(
        client
            .call("sleeptest.politenap", vec![Value::Int(50)])
            .unwrap(),
        Value::Int(50)
    );
    grid.cleanup();
}
