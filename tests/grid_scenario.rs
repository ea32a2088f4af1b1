//! Whole-grid integration: two Clarens servers, a MonALISA-style station
//! network, and a client that *discovers* a file service through the
//! aggregated registry and then downloads data from the discovered server
//! — the paper's "location independent" service-call workflow (§2.4).

use std::sync::Arc;
use std::time::Duration;

use clarens::testkit::{now, GridOptions, TestGrid};
use clarens::ClarensClient;
use monalisa_sim::station::wait_until;
use monalisa_sim::{
    DiscoveryAggregator, Publication, ServiceDescriptor, ServiceQuery, StationServer, UdpPublisher,
};

#[test]
fn discover_then_download_across_two_servers() {
    // Two independent Clarens "sites" with different data.
    let site_a = TestGrid::start_with(GridOptions {
        seed: 1,
        ..Default::default()
    });
    let site_b = TestGrid::start_with(GridOptions {
        seed: 2,
        ..Default::default()
    });
    site_a.write_file("/dataset/alpha.dat", b"alpha events");
    site_b.write_file("/dataset/beta.dat", b"beta events");

    // A station network; both sites publish their file service over UDP.
    let station = Arc::new(StationServer::spawn("s0", "127.0.0.1:0").unwrap());
    let publisher = UdpPublisher::new(vec![station.local_addr()]).unwrap();
    let t = now();
    for (grid, site_name) in [(&site_a, "site-a"), (&site_b, "site-b")] {
        publisher
            .publish(&Publication::Service(ServiceDescriptor {
                url: format!("http://{}", grid.addr()),
                server_dn: grid.server_credential.certificate.subject.to_string(),
                service: "file".into(),
                methods: vec!["file.read".into(), "file.ls".into()],
                attributes: [("site".to_string(), site_name.to_string())].into(),
                timestamp: t,
            }))
            .unwrap();
    }

    // A discovery server aggregates into its local DB.
    let aggregator = DiscoveryAggregator::new(vec![Arc::clone(&station)]);
    assert!(wait_until(Duration::from_secs(5), || aggregator
        .local_service_count()
        == 2));

    // The client asks discovery for a file service at site-b...
    let site_b_files = ServiceQuery::by_method("file.read").with_attribute("site", "site-b");
    let hits = aggregator.query_local(&site_b_files, now());
    assert_eq!(hits.len(), 1);
    let url = hits[0].url.clone();
    let addr = url.strip_prefix("http://").unwrap().to_owned();

    // ...binds to the discovered location at call time, authenticates, and
    // reads the remote file. (Credentials work across sites because both
    // grids share the process-wide test CA.)
    let mut client = ClarensClient::new(addr).with_credential(site_b.user.clone());
    client.login().unwrap();
    let bytes = client.file_read("/dataset/beta.dat", 0, 1024).unwrap();
    assert_eq!(bytes, b"beta events");

    // The other site's data is NOT on the discovered server.
    assert!(client.file_read("/dataset/alpha.dat", 0, 16).is_err());

    site_a.cleanup();
    site_b.cleanup();
}

#[test]
fn discovery_service_exposed_over_rpc() {
    // The discovery *service* (module `discovery`) wired into a Clarens
    // server: clients query the aggregated registry via RPC.
    let station = Arc::new(StationServer::spawn("s0", "127.0.0.1:0").unwrap());
    station.publish_local(Publication::Service(ServiceDescriptor {
        url: "http://tier2.example.edu/clarens".into(),
        server_dn: "/O=grid/CN=host".into(),
        service: "proof".into(),
        methods: vec!["proof.query".into()],
        attributes: Default::default(),
        timestamp: now(),
    }));

    // Build a core manually so we can attach the discovery service.
    let grid = TestGrid::start_with(GridOptions {
        seed: 3,
        ..Default::default()
    });
    let aggregator = Arc::new(DiscoveryAggregator::new(vec![Arc::clone(&station)]));
    assert_eq!(aggregator.local_service_count(), 1);
    grid.core()
        .register(Arc::new(clarens::services::DiscoveryService::new(
            Arc::clone(&aggregator),
            None,
        )));

    let mut client = grid.logged_in_client(&grid.user);
    let hits = client
        .call("discovery.find", vec![clarens_wire::Value::from("proof")])
        .unwrap();
    let hits = hits.as_array().unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(
        hits[0].get("url").unwrap().as_str().unwrap(),
        "http://tier2.example.edu/clarens"
    );

    // find_remote goes to the stations over TCP and agrees.
    let remote = client
        .call(
            "discovery.find_remote",
            vec![clarens_wire::Value::from("proof")],
        )
        .unwrap();
    assert_eq!(remote.as_array().unwrap().len(), 1);

    // status is visible.
    let status = client.call("discovery.status", vec![]).unwrap();
    assert_eq!(status.get("local_services").unwrap().as_int(), Some(1));

    grid.cleanup();
}
