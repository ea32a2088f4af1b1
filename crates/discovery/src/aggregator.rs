//! The discovery server: a JINI-style client that aggregates station state
//! into a local database.
//!
//! Figure 3's punchline: "the JClarens server becomes a fully fledged JINI
//! client, ... aggregating discovery information from the JINI network. The
//! JClarens server is consequently able to respond to service searches far
//! more rapidly by using the local database." [`DiscoveryAggregator`]'s
//! local database is its own [`Table`], subscribed to every station: each
//! station writes the publications it takes straight into it, so the
//! aggregator runs no thread and decodes nothing. The view is node-local —
//! none of it enters the node's shipped store. Queries go two ways so the
//! speed claim is measurable:
//!
//! * [`DiscoveryAggregator::query_local`] — against the table (fast path),
//! * [`DiscoveryAggregator::query_remote`] — synchronous fan-out to every
//!   station (the no-cache baseline).

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::schema::{ServiceDescriptor, ServiceQuery};
use crate::station::{query_stations, StationServer};
use crate::table::{expired, Table};

/// A discovery server aggregating one or more stations.
pub struct DiscoveryAggregator {
    stations: Vec<Arc<StationServer>>,
    table: Arc<RwLock<Table>>,
    /// Descriptor time-to-live; 0 disables expiry.
    ttl_secs: i64,
    /// The `now` of the last expiry sweep.
    swept: AtomicI64,
}

impl DiscoveryAggregator {
    /// Subscribe a fresh table to `stations`.
    pub fn new(stations: Vec<Arc<StationServer>>) -> Self {
        let table = Arc::default();
        for station in &stations {
            station.subscribe(&table);
        }
        DiscoveryAggregator {
            stations,
            table,
            ttl_secs: 0,
            swept: AtomicI64::new(i64::MIN),
        }
    }

    /// Expire descriptors not refreshed within `ttl_secs` (typically 3×
    /// the publishers' heartbeat interval), so a station that goes silent
    /// stops being advertised. Expiry runs in
    /// [`query_local`](Self::query_local), at the time its caller passes.
    pub fn with_ttl(mut self, ttl_secs: i64) -> Self {
        self.ttl_secs = ttl_secs;
        self
    }

    /// Fast path: answer from the local table at `now` (Unix seconds).
    /// With a TTL, a descriptor past it is never served, and at most once
    /// per second of `now` the expired entries are dropped.
    pub fn query_local(&self, query: &ServiceQuery, now: i64) -> Vec<ServiceDescriptor> {
        let ttl = self.ttl_secs;
        if ttl > 0 && self.swept.fetch_max(now, Ordering::Relaxed) < now {
            self.table.write().expire(now, ttl);
        }
        let live = |d: &&ServiceDescriptor| ttl <= 0 || !expired(d.timestamp, now, ttl);
        self.table
            .read()
            .query(query)
            .filter(live)
            .cloned()
            .collect()
    }

    /// Slow path: fan out to every station synchronously over TCP (one
    /// connection per station per query — what a cache-less discovery
    /// service must do per lookup) and merge the answers.
    pub fn query_remote(&self, query: &ServiceQuery) -> Vec<ServiceDescriptor> {
        query_stations(self.stations.iter().map(|s| s.query_addr()), query).0
    }

    /// Number of publications the table has taken so far.
    pub fn update_count(&self) -> u64 {
        self.table.read().updates()
    }

    /// Number of service entries in the local table.
    pub fn local_service_count(&self) -> usize {
        self.table.read().service_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Publication;

    // Host certificates are per-host, so distinct urls get distinct DNs
    // (two entries sharing a DN means the same server, possibly re-bound
    // to a new port — the supersede case tested explicitly below).
    fn descriptor(url: &str, service: &str, ts: i64) -> ServiceDescriptor {
        ServiceDescriptor {
            url: url.into(),
            server_dn: format!("/O=g/CN={url}"),
            service: service.into(),
            methods: vec![format!("{service}.run")],
            attributes: [("site".to_string(), "caltech".to_string())].into(),
            timestamp: ts,
        }
    }

    fn station() -> Arc<StationServer> {
        Arc::new(StationServer::spawn("s1", "127.0.0.1:0").unwrap())
    }

    #[test]
    fn aggregation_fills_the_local_table() {
        let station = station();
        station.publish_local(Publication::Service(descriptor("http://a", "file", 1)));
        let agg = DiscoveryAggregator::new(vec![Arc::clone(&station)]);
        station.publish_local(Publication::Service(descriptor("http://b", "proof", 2)));

        // The replay and the live publication are both in, synchronously.
        assert_eq!((agg.local_service_count(), agg.update_count()), (2, 2));
        let hits = agg.query_local(&ServiceQuery::by_service("file"), 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].url, "http://a");
    }

    #[test]
    fn remote_query_merges_across_stations() {
        let (s1, s2) = (station(), station());
        s1.publish_local(Publication::Service(descriptor("http://a", "file", 5)));
        // Same instance known to both stations with different freshness.
        s2.publish_local(Publication::Service(descriptor("http://a", "file", 9)));
        s2.publish_local(Publication::Service(descriptor("http://b", "file", 1)));

        let agg = DiscoveryAggregator::new(vec![s1, s2]);
        let hits = agg.query_remote(&ServiceQuery::by_service("file"));
        assert_eq!(hits.len(), 2);
        let a = hits.iter().find(|d| d.url == "http://a").unwrap();
        assert_eq!(a.timestamp, 9); // freshest wins
    }

    #[test]
    fn silent_station_evicted_after_three_missed_heartbeats() {
        const HEARTBEAT_SECS: i64 = 10;
        let station = station();
        let agg = DiscoveryAggregator::new(vec![Arc::clone(&station)]).with_ttl(3 * HEARTBEAT_SECS);
        let file = ServiceQuery::by_service("file");

        // Two publishers heartbeat at t=100; one then goes silent while
        // the other keeps refreshing its descriptor.
        for url in ["http://silent", "http://live"] {
            station.publish_local(Publication::Service(descriptor(url, "file", 100)));
        }
        assert_eq!(agg.query_local(&file, 100).len(), 2);
        for beat in 1..=3 {
            let t = 100 + beat * HEARTBEAT_SECS;
            station.publish_local(Publication::Service(descriptor("http://live", "file", t)));
        }
        // One tick past the third missed heartbeat: the silent server's
        // descriptor (age 31 > ttl 30) ages out; the live one stays.
        let hits = agg.query_local(&file, 100 + 3 * HEARTBEAT_SECS + 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].url, "http://live");
        assert_eq!(agg.local_service_count(), 1, "the query swept it");
    }

    #[test]
    fn query_local_hides_stale_entries_and_sweeps_once_per_second() {
        let station = station();
        let agg = DiscoveryAggregator::new(vec![Arc::clone(&station)]).with_ttl(60);
        let file = ServiceQuery::by_service("file");
        assert!(agg.query_local(&file, 161).is_empty()); // the sweep of second 161
                                                         // A stale descriptor landing after that sweep is filtered, not
                                                         // served, until the next second's sweep drops it.
        station.publish_local(Publication::Service(descriptor("http://a", "file", 100)));
        assert_eq!(agg.query_local(&file, 160).len(), 1);
        assert!(agg.query_local(&file, 161).is_empty());
        assert_eq!(agg.local_service_count(), 1);
        assert!(agg.query_local(&file, 162).is_empty());
        assert_eq!(agg.local_service_count(), 0);
    }

    #[test]
    fn republish_refreshes_attributes_in_place() {
        let station = station();
        let agg = DiscoveryAggregator::new(vec![Arc::clone(&station)]);
        let file = ServiceQuery::by_service("file");

        let mut d = descriptor("http://a", "file", 5);
        d.attributes.insert("p95_us".into(), "100".into());
        station.publish_local(Publication::Service(d.clone()));
        // Same key, same second, fresher load attributes (a heartbeat can
        // land twice within timestamp resolution): the entry must be
        // updated in place, not duplicated and not left stale.
        d.attributes.insert("p95_us".into(), "50".into());
        station.publish_local(Publication::Service(d.clone()));
        let hits = agg.query_local(&file, 0);
        assert_eq!(hits.len(), 1, "refresh must not duplicate");
        assert_eq!(hits[0].attributes["p95_us"], "50");

        let remote = agg.query_remote(&file);
        assert_eq!(remote.len(), 1);
        assert_eq!(remote[0].attributes["p95_us"], "50");
    }

    #[test]
    fn remote_merge_takes_later_arrival_on_timestamp_tie() {
        let (s1, s2) = (station(), station());
        // s1 still holds the original publication; s2 received the
        // re-publish with updated attributes in the same second. The merge
        // must prefer the refreshed copy, not skip it on `>=`.
        let mut d = descriptor("http://a", "file", 7);
        d.attributes.insert("p95_us".into(), "900".into());
        s1.publish_local(Publication::Service(d.clone()));
        d.attributes.insert("p95_us".into(), "40".into());
        s2.publish_local(Publication::Service(d));

        let agg = DiscoveryAggregator::new(vec![s1, s2]);
        let hits = agg.query_remote(&ServiceQuery::by_service("file"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].attributes["p95_us"], "40");
    }

    #[test]
    fn restart_on_new_port_supersedes_stale_descriptor() {
        let station = station();
        let agg = DiscoveryAggregator::new(vec![Arc::clone(&station)]);

        let mut old = descriptor("http://host:1", "file", 5);
        old.server_dn = "/O=g/CN=host".into();
        station.publish_local(Publication::Service(old));
        // Same server identity re-publishes from a new port (crash +
        // restart): the old address must drop out instead of lingering as
        // a dead endpoint until TTL expiry.
        let mut new = descriptor("http://host:2", "file", 6);
        new.server_dn = "/O=g/CN=host".into();
        station.publish_local(Publication::Service(new));
        let hits = agg.query_local(&ServiceQuery::by_service("file"), 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].url, "http://host:2");
        assert_eq!(agg.local_service_count(), 1);
    }

    #[test]
    fn member_adverts_without_a_dn_do_not_evict_each_other() {
        // Election adverts carry no server DN: two nodes' `cluster`
        // adverts a second apart are two servers, not one restarted.
        let station = station();
        let agg = DiscoveryAggregator::new(vec![Arc::clone(&station)]);
        for (url, ts) in [("http://node1/clarens", 5), ("http://node2/clarens", 6)] {
            let mut advert = descriptor(url, "cluster", ts);
            advert.server_dn.clear();
            station.publish_local(Publication::Service(advert));
        }
        assert_eq!(
            agg.query_local(&ServiceQuery::by_service("cluster"), 6)
                .len(),
            2
        );
    }

    #[test]
    fn local_and_remote_agree_after_propagation() {
        let station = station();
        let agg = DiscoveryAggregator::new(vec![Arc::clone(&station)]);
        for i in 0..10 {
            let url = format!("http://host{i}");
            station.publish_local(Publication::Service(descriptor(&url, "file", i)));
        }
        let query = ServiceQuery::by_service("file").with_attribute("site", "caltech");
        let local = agg.query_local(&query, 10);
        assert_eq!(local.len(), 10);
        assert_eq!(local, agg.query_remote(&query));
    }
}
