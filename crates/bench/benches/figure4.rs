//! Criterion bench for Figure 4's workload: one `system.list_methods`
//! round trip over a keep-alive connection, with the full per-request
//! path (session check, ACL check, DB method scan, XML-RPC array).
//!
//! The full client-count sweep lives in the `repro` binary (`repro fig4`);
//! this bench tracks the single-request latency that determines it.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_list_methods(c: &mut Criterion) {
    let grid = clarens_bench::bench_grid();
    let session = clarens_bench::bench_session(&grid);
    let mut client = clarens::ClarensClient::new(grid.addr());
    client.set_session(session);

    let mut group = c.benchmark_group("figure4");
    group
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("list_methods_roundtrip", |b| {
        b.iter(|| {
            let methods = client.call("system.list_methods", vec![]).unwrap();
            assert!(methods.as_array().unwrap().len() > 30);
        })
    });
    group.finish();
    grid.cleanup();
}

criterion_group!(benches, bench_list_methods);
criterion_main!(benches);
