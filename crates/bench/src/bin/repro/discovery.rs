//! Discovery: local aggregated DB vs synchronous station fan-out (§2.4).

use std::sync::Arc;
use std::time::{Duration, Instant};

use monalisa_sim::{
    DiscoveryAggregator, Publication, ServiceDescriptor, ServiceQuery, StationServer,
};

use crate::header;

pub fn run() {
    header("Service discovery — aggregated local DB vs station fan-out (Figure 3)");

    let stations: Vec<Arc<StationServer>> = (0..3)
        .map(|i| Arc::new(StationServer::spawn(format!("s{i}"), "127.0.0.1:0").unwrap()))
        .collect();
    let t = clarens::testkit::now();
    for site in 0..90 {
        for service in ["file", "proof", "runjob"] {
            stations[site % 3].publish_local(Publication::Service(ServiceDescriptor {
                url: format!("http://site{site:02}.example.edu:8080/clarens"),
                server_dn: format!("/O=grid/CN=host{site}"),
                service: service.into(),
                methods: vec![format!("{service}.run")],
                attributes: [("site".to_string(), format!("site{site:02}"))].into(),
                timestamp: t,
            }));
        }
    }
    let store = Arc::new(clarens_db::Store::in_memory());
    // The sweeper evicts descriptors whose stations stop heartbeating;
    // the fresh ones published above are far inside the window.
    let aggregator = DiscoveryAggregator::new(stations.clone(), store)
        .with_ttl(90, Arc::new(clarens::testkit::now));
    assert!(monalisa_sim::station::wait_until(
        Duration::from_secs(5),
        || aggregator.local_service_count() == 270,
    ));

    let query = ServiceQuery::by_service("proof");
    const N: usize = 500;
    let t0 = Instant::now();
    for _ in 0..N {
        let hits = aggregator.query_local(&query);
        assert_eq!(hits.len(), 90);
    }
    let local = t0.elapsed();
    let t0 = Instant::now();
    for _ in 0..N {
        let hits = aggregator.query_remote(&query);
        assert_eq!(hits.len(), 90);
    }
    let remote = t0.elapsed();

    println!(
        "90 sites x 3 services (270 descriptors) across 3 station servers; {N} queries each.\n"
    );
    println!("{:>28} {:>14} {:>14}", "path", "µs/query", "queries/sec");
    println!(
        "{:>28} {:>14.0} {:>14.0}",
        "local DB (aggregated)",
        local.as_micros() as f64 / N as f64,
        N as f64 / local.as_secs_f64()
    );
    println!(
        "{:>28} {:>14.0} {:>14.0}",
        "station fan-out (TCP)",
        remote.as_micros() as f64 / N as f64,
        N as f64 / remote.as_secs_f64()
    );
    println!(
        "\nspeedup {:.1}x — \"able to respond to service searches far more rapidly by\n\
         using the local database\" (§2.4)",
        remote.as_secs_f64() / local.as_secs_f64()
    );
    aggregator.shutdown();
}
