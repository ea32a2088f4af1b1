//! Criterion ablation of the Clarens request path (DESIGN.md "Ablation"):
//! what each stage of the per-request pipeline costs, and the protocol
//! comparison.

use clarens_wire::{Protocol, Value};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_ablation(c: &mut Criterion) {
    let grid = clarens_bench::bench_grid();
    let session = clarens_bench::bench_session(&grid);

    let mut group = c.benchmark_group("ablation_request_path");
    group
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(4));

    // Full path: session + ACL + DB scan + 30-string serialization.
    let mut full = clarens::ClarensClient::new(grid.addr());
    full.set_session(session.clone());
    group.bench_function("full_list_methods", |b| {
        b.iter(|| full.call("system.list_methods", vec![]).unwrap())
    });

    // Session + ACL, trivial payload (no DB scan).
    let mut echo = clarens::ClarensClient::new(grid.addr());
    echo.set_session(session.clone());
    group.bench_function("session_acl_echo", |b| {
        b.iter(|| echo.call("echo.echo", vec![Value::Int(1)]).unwrap())
    });

    // Public method, no session header: no session lookup, no ACL walk.
    let mut bare = clarens::ClarensClient::new(grid.addr());
    group.bench_function("no_checks_ping", |b| {
        b.iter(|| bare.call("system.ping", vec![]).unwrap())
    });

    // Protocol comparison on the same method.
    for (name, protocol) in [
        ("proto_xmlrpc", Protocol::XmlRpc),
        ("proto_soap", Protocol::Soap),
        ("proto_jsonrpc", Protocol::JsonRpc),
    ] {
        let mut client = clarens::ClarensClient::new(grid.addr()).with_protocol(protocol);
        client.set_session(session.clone());
        group.bench_function(name, |b| {
            b.iter(|| client.call("echo.echo", vec![Value::Int(1)]).unwrap())
        });
    }
    group.finish();
    grid.cleanup();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
