//! Datagram loss on a station's receive side, made by the kernel: while
//! the ingest thread is held up, datagrams overflow the socket's receive
//! buffer and are dropped. A lost datagram is neither received nor
//! rejected, and the station takes the next one that arrives.

use std::sync::Arc;
use std::time::Duration;

use monalisa_sim::station::wait_until;
use monalisa_sim::UdpPublisher;
use monalisa_sim::{Publication, ServiceDescriptor, ServiceQuery, StationServer, Table};
use parking_lot::RwLock;

fn descriptor(service: &str, ts: i64) -> ServiceDescriptor {
    ServiceDescriptor {
        url: "http://h:1/clarens".into(),
        server_dn: "/O=g/CN=h".into(),
        service: service.into(),
        methods: vec![format!("{service}.run")],
        attributes: Default::default(),
        timestamp: ts,
    }
}

#[test]
fn datagrams_lost_to_a_full_receive_buffer_are_neither_received_nor_rejected() {
    let station = StationServer::spawn("s1", "127.0.0.1:0").unwrap();
    let publisher = UdpPublisher::new(vec![station.local_addr()]).unwrap();
    // The ingest thread offers every publication it takes to this
    // subscriber, whose table the test holds: it stops at the first.
    let subscriber = Arc::new(RwLock::new(Table::default()));
    station.subscribe(&subscriber);
    let held = subscriber.write();
    let first = Publication::Service(descriptor("first", 1));
    publisher.publish(&first).unwrap();
    assert!(wait_until(Duration::from_secs(2), || station.stats().0 == 1));

    // About 60 KB each: a few fill the receive buffer, the rest are lost.
    const SENT: u64 = 64;
    for i in 0..SENT {
        let mut padded = descriptor(&format!("padded-{i}"), 1);
        padded.attributes.insert("pad".into(), "x".repeat(60_000));
        publisher.publish(&Publication::Service(padded)).unwrap();
    }
    drop(held);
    // Settled: nothing more taken for 300 ms.
    let mut taken = station.stats();
    while wait_until(Duration::from_millis(300), || station.stats() != taken) {
        taken = station.stats();
    }
    let (received, rejected) = station.stats();
    assert_eq!(rejected, 0, "a lost datagram is never rejected");
    assert!(
        (2..=SENT).contains(&received),
        "{received} of {} datagrams received: none was lost, or none buffered",
        SENT + 1
    );

    publisher
        .publish(&Publication::Service(descriptor("kept", 2)))
        .unwrap();
    assert!(wait_until(Duration::from_secs(2), || station
        .query(&ServiceQuery::by_service("kept"))
        .len()
        == 1));
    assert_eq!(station.stats(), (received + 1, 0));
    station.shutdown();
}
