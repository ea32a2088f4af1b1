//! Dynamic service discovery over a MonALISA-style network (paper §2.4,
//! Figure 3): many Clarens "sites" publish their services over UDP to
//! station servers; a discovery server aggregates the network into a local
//! database and answers queries "far more rapidly by using the local
//! database" — which this example measures directly.
//!
//! ```sh
//! cargo run --example discovery_network
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use clarens_pki::cert::unix_now;
use monalisa_sim::station::wait_until;
use monalisa_sim::{
    DiscoveryAggregator, MonitorSample, Publication, ServiceDescriptor, ServiceQuery,
    StationServer, UdpPublisher,
};

fn main() {
    // Three station servers (real UDP sockets on localhost).
    let stations: Vec<Arc<StationServer>> = (0..3)
        .map(|i| Arc::new(StationServer::spawn(format!("station-{i}"), "127.0.0.1:0").unwrap()))
        .collect();
    println!("Station servers:");
    for s in &stations {
        println!("  {} on udp://{}", s.name, s.local_addr());
    }

    // 30 grid sites, each publishing a few services to every station —
    // the MonALISA deployment the paper describes monitored "more than 90
    // sites"; we scale to 30 here for a quick run.
    let publisher = UdpPublisher::new(stations.iter().map(|s| s.local_addr()).collect()).unwrap();
    let t = unix_now();
    let mut published = 0;
    for site in 0..30 {
        for service in ["file", "proof", "runjob"] {
            let descriptor = ServiceDescriptor {
                url: format!("http://tier2-{site:02}.example.edu:8080/clarens"),
                server_dn: format!("/O=grid/OU=Services/CN=host\\/tier2-{site:02}"),
                service: service.into(),
                methods: vec![format!("{service}.status"), format!("{service}.run")],
                attributes: [
                    ("site".to_string(), format!("site-{site:02}")),
                    (
                        "experiment".to_string(),
                        if site % 2 == 0 { "cms" } else { "atlas" }.to_string(),
                    ),
                ]
                .into(),
                timestamp: t,
            };
            publisher
                .publish(&Publication::Service(descriptor))
                .unwrap();
            published += 1;
        }
        // Each site also reports GLUE-style monitoring samples.
        for (key, value) in [("cpu_load", 0.42), ("free_disk_gb", 512.0)] {
            publisher
                .publish(&Publication::Sample(MonitorSample {
                    farm: format!("site-{site:02}"),
                    node: "node001".into(),
                    key: key.into(),
                    value,
                    timestamp: t,
                }))
                .unwrap();
        }
    }
    println!("\nPublished {published} service descriptors (plus monitoring samples) over UDP.");

    // The discovery server subscribes its local table to all stations (the
    // JINI-client role of Figure 3).
    let aggregator = DiscoveryAggregator::new(stations.clone());
    let target = 90; // 30 sites x 3 services
    assert!(
        wait_until(Duration::from_secs(5), || aggregator.local_service_count()
            == target),
        "aggregation did not converge"
    );
    println!(
        "Discovery server aggregated {} service entries into its local database.",
        aggregator.local_service_count()
    );

    // Query both ways and compare.
    let query = ServiceQuery::by_service("proof").with_attribute("experiment", "cms");
    let local_hits = aggregator.query_local(&query, unix_now());
    let remote_hits = aggregator.query_remote(&query);
    println!(
        "\nQuery: proof services of experiment=cms -> {} hits (local) / {} (remote fan-out)",
        local_hits.len(),
        remote_hits.len()
    );
    for hit in local_hits.iter().take(5) {
        println!("  {}", hit.url);
    }

    // The paper's speed claim, measured.
    const N: usize = 300;
    let t0 = Instant::now();
    for _ in 0..N {
        let _ = aggregator.query_local(&query, unix_now());
    }
    let local_time = t0.elapsed();
    let t0 = Instant::now();
    for _ in 0..N {
        let _ = aggregator.query_remote(&query);
    }
    let remote_time = t0.elapsed();
    println!(
        "\n{N} queries: local DB {:.2} ms total, station fan-out {:.2} ms total ({:.1}x)",
        local_time.as_secs_f64() * 1e3,
        remote_time.as_secs_f64() * 1e3,
        remote_time.as_secs_f64() / local_time.as_secs_f64().max(1e-9),
    );

    // Stale services disappear after expiry, new publications re-appear —
    // "services will appear, disappear, and be moved in an unpredictable
    // manner".
    for station in &stations {
        station.expire(t + 3600, 60);
    }
    println!(
        "\nAfter a 1-hour expiry sweep the stations hold {} services (all stale).",
        stations.iter().map(|s| s.service_count()).sum::<usize>()
    );

    drop(aggregator);
    for station in stations {
        if let Ok(s) = Arc::try_unwrap(station) {
            s.shutdown()
        }
    }
    println!("Done.");
}
