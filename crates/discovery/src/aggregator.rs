//! The discovery server: a JINI-style client that aggregates station state
//! into a local database.
//!
//! Figure 3's punchline: "the JClarens server becomes a fully fledged JINI
//! client, ... aggregating discovery information from the JINI network. The
//! JClarens server is consequently able to respond to service searches far
//! more rapidly by using the local database." [`DiscoveryAggregator`]
//! subscribes to every station's update stream, mirrors descriptors into a
//! [`clarens_db::Store`], and serves queries two ways so the speed claim is
//! measurable:
//!
//! * [`DiscoveryAggregator::query_local`] — against the local DB (fast path),
//! * [`DiscoveryAggregator::query_remote`] — synchronous fan-out to every
//!   station (the no-cache baseline).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;

use clarens_db::Store;
use clarens_wire::json;

use crate::schema::{Publication, ServiceDescriptor, ServiceQuery};
use crate::station::StationServer;

/// DB bucket holding mirrored service descriptors.
pub const SERVICES_BUCKET: &str = "discovery.services";
/// DB bucket holding mirrored monitoring samples.
pub const SAMPLES_BUCKET: &str = "discovery.samples";

/// A discovery server aggregating one or more stations.
pub struct DiscoveryAggregator {
    stations: Vec<Arc<StationServer>>,
    store: Arc<Store>,
    stop: Arc<AtomicBool>,
    updates: Arc<AtomicU64>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Descriptor time-to-live; 0 disables expiry.
    ttl_secs: i64,
    /// Clock used for expiry decisions (overridable for tests).
    now_fn: Arc<dyn Fn() -> i64 + Send + Sync>,
}

/// Mirror one service descriptor into the local database.
///
/// Two refresh rules keep the mirror duplicate-free across re-publishes:
/// the `put` under the descriptor's own key overwrites in place (so a
/// heartbeat carrying changed load/latency attributes updates the entry
/// rather than growing the bucket), and any entry for the same
/// (server_dn, service) under a *different* url with an older-or-equal
/// timestamp is dropped — a server that restarted on a new port
/// supersedes its previous address instead of being advertised twice
/// until the stale entry ages out. The comparison is strictly older:
/// equal-timestamp descriptors under one DN are kept side by side (a
/// deployment sharing one host certificate across servers looks like
/// this, and there is no evidence which address is the newer one).
fn mirror_service(store: &Store, d: &ServiceDescriptor) {
    for (key, bytes) in store.scan_prefix(SERVICES_BUCKET, "") {
        if key == d.key() {
            continue;
        }
        let superseded = String::from_utf8(bytes)
            .ok()
            .and_then(|text| json::parse(&text).ok())
            .and_then(|value| ServiceDescriptor::from_value(&value).ok())
            .is_some_and(|old| {
                old.server_dn == d.server_dn
                    && old.service == d.service
                    && old.url != d.url
                    && old.timestamp < d.timestamp
            });
        if superseded {
            let _ = store.delete(SERVICES_BUCKET, &key);
        }
    }
    let _ = store.put(
        SERVICES_BUCKET,
        &d.key(),
        json::to_string(&d.to_value()).into_bytes(),
    );
}

/// Remove mirrored entries whose timestamp is older than `now - ttl_secs`.
/// Returns the number of entries dropped. A station that stops heart-
/// beating (crashed, partitioned) stops refreshing its descriptors'
/// timestamps, so its services age out of the local database rather than
/// being advertised forever.
fn evict_expired(store: &Store, now: i64, ttl_secs: i64) -> usize {
    type StampFn = fn(&clarens_wire::Value) -> Option<i64>;
    let mut dropped = 0;
    let readers: [(&str, StampFn); 2] = [
        (SERVICES_BUCKET, |v| {
            ServiceDescriptor::from_value(v).ok().map(|d| d.timestamp)
        }),
        (SAMPLES_BUCKET, |v| {
            crate::schema::MonitorSample::from_value(v)
                .ok()
                .map(|s| s.timestamp)
        }),
    ];
    for (bucket, stamp) in readers {
        for (key, bytes) in store.scan_prefix(bucket, "") {
            let expired = String::from_utf8(bytes)
                .ok()
                .and_then(|text| json::parse(&text).ok())
                .and_then(|value| stamp(&value))
                .is_none_or(|ts| now - ts > ttl_secs);
            if expired && store.delete(bucket, &key).is_ok() {
                dropped += 1;
            }
        }
    }
    dropped
}

impl DiscoveryAggregator {
    /// Subscribe to `stations`, mirroring into `store`.
    pub fn new(stations: Vec<Arc<StationServer>>, store: Arc<Store>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let updates = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();
        for station in &stations {
            let rx = station.subscribe();
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let updates = Arc::clone(&updates);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("aggregator-{}", station.name))
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            match rx.recv_timeout(std::time::Duration::from_millis(50)) {
                                Ok(Publication::Service(d)) => {
                                    mirror_service(&store, &d);
                                    updates.fetch_add(1, Ordering::Relaxed);
                                }
                                Ok(Publication::Sample(s)) => {
                                    let _ = store.put(
                                        SAMPLES_BUCKET,
                                        &s.key_path(),
                                        json::to_string(&s.to_value()).into_bytes(),
                                    );
                                    updates.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(RecvTimeoutError::Timeout) => continue,
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                    })
                    .expect("spawn aggregator thread"),
            );
        }
        DiscoveryAggregator {
            stations,
            store,
            stop,
            updates,
            threads,
            ttl_secs: 0,
            now_fn: Arc::new(|| {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs() as i64)
                    .unwrap_or(0)
            }),
        }
    }

    /// Enable TTL-based eviction of stale descriptors: entries not
    /// refreshed within `ttl_secs` (typically 3× the publishers'
    /// heartbeat interval) are dropped by a background sweeper, so a
    /// station that goes silent stops being advertised. The clock is a
    /// parameter so tests can drive expiry deterministically.
    pub fn with_ttl(mut self, ttl_secs: i64, now_fn: Arc<dyn Fn() -> i64 + Send + Sync>) -> Self {
        self.ttl_secs = ttl_secs;
        self.now_fn = Arc::clone(&now_fn);
        if ttl_secs > 0 {
            let store = Arc::clone(&self.store);
            let stop = Arc::clone(&self.stop);
            self.threads.push(
                std::thread::Builder::new()
                    .name("aggregator-sweeper".into())
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            evict_expired(&store, now_fn(), ttl_secs);
                            std::thread::sleep(std::time::Duration::from_millis(25));
                        }
                    })
                    .expect("spawn aggregator sweeper thread"),
            );
        }
        self
    }

    /// Run one eviction sweep now (the sweeper thread does this
    /// continuously; exposed for deterministic tests and tooling).
    /// Returns the number of entries dropped.
    pub fn evict_expired(&self) -> usize {
        if self.ttl_secs <= 0 {
            return 0;
        }
        evict_expired(&self.store, (self.now_fn)(), self.ttl_secs)
    }

    /// Fast path: answer from the local database. With a TTL configured,
    /// entries past their TTL are filtered even before the sweeper has
    /// deleted them, so queries never see a known-stale descriptor.
    pub fn query_local(&self, query: &ServiceQuery) -> Vec<ServiceDescriptor> {
        let cutoff = (self.ttl_secs > 0).then(|| (self.now_fn)() - self.ttl_secs);
        self.store
            .scan_prefix(SERVICES_BUCKET, "")
            .into_iter()
            .filter_map(|(_, bytes)| {
                let text = String::from_utf8(bytes).ok()?;
                let value = json::parse(&text).ok()?;
                ServiceDescriptor::from_value(&value).ok()
            })
            .filter(|d| query.matches(d))
            .filter(|d| cutoff.is_none_or(|c| d.timestamp >= c))
            .collect()
    }

    /// Slow path: fan out to every station synchronously over TCP (one
    /// connection per station per query — what a cache-less discovery
    /// service must do per lookup) and merge the answers.
    pub fn query_remote(&self, query: &ServiceQuery) -> Vec<ServiceDescriptor> {
        let mut merged: std::collections::BTreeMap<String, ServiceDescriptor> = Default::default();
        for station in &self.stations {
            let hits =
                crate::station::query_station(station.query_addr(), query).unwrap_or_default();
            for descriptor in hits {
                match merged.get(&descriptor.key()) {
                    // Strictly-newer wins; on a timestamp tie the later
                    // arrival replaces the earlier one, so a re-publish
                    // within the same second still refreshes the
                    // attributes instead of serving the stale copy.
                    Some(existing) if existing.timestamp > descriptor.timestamp => {}
                    _ => {
                        merged.insert(descriptor.key(), descriptor);
                    }
                }
            }
        }
        merged.into_values().collect()
    }

    /// Number of mirrored updates so far.
    pub fn update_count(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Number of service entries in the local DB.
    pub fn local_service_count(&self) -> usize {
        self.store.len(SERVICES_BUCKET)
    }

    /// Stop the mirror threads (stations keep running).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for DiscoveryAggregator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::station::wait_until;
    use std::time::Duration;

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

    #[test]
    fn aggregation_mirrors_to_local_db() {
        let station = Arc::new(StationServer::spawn("s1", "127.0.0.1:0").unwrap());
        let store = Arc::new(Store::in_memory());
        let agg = DiscoveryAggregator::new(vec![Arc::clone(&station)], Arc::clone(&store));

        station.publish_local(Publication::Service(descriptor("http://a", "file", 1)));
        station.publish_local(Publication::Service(descriptor("http://b", "proof", 2)));

        assert!(wait_until(Duration::from_secs(2), || agg
            .local_service_count()
            == 2));
        let hits = agg.query_local(&ServiceQuery::by_service("file"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].url, "http://a");
        agg.shutdown();
    }

    #[test]
    fn remote_query_merges_across_stations() {
        let s1 = Arc::new(StationServer::spawn("s1", "127.0.0.1:0").unwrap());
        let s2 = Arc::new(StationServer::spawn("s2", "127.0.0.1:0").unwrap());
        s1.publish_local(Publication::Service(descriptor("http://a", "file", 5)));
        // Same instance known to both stations with different freshness.
        s2.publish_local(Publication::Service(descriptor("http://a", "file", 9)));
        s2.publish_local(Publication::Service(descriptor("http://b", "file", 1)));

        let store = Arc::new(Store::in_memory());
        let agg = DiscoveryAggregator::new(vec![Arc::clone(&s1), Arc::clone(&s2)], store);
        let hits = agg.query_remote(&ServiceQuery::by_service("file"));
        assert_eq!(hits.len(), 2);
        let a = hits.iter().find(|d| d.url == "http://a").unwrap();
        assert_eq!(a.timestamp, 9); // freshest wins
        agg.shutdown();
    }

    #[test]
    fn silent_station_evicted_after_three_missed_heartbeats() {
        use std::sync::atomic::AtomicI64;

        const HEARTBEAT_SECS: i64 = 10;
        let ttl = 3 * HEARTBEAT_SECS;
        let clock = Arc::new(AtomicI64::new(100));
        let now_fn = {
            let clock = Arc::clone(&clock);
            Arc::new(move || clock.load(Ordering::SeqCst)) as Arc<dyn Fn() -> i64 + Send + Sync>
        };

        let station = Arc::new(StationServer::spawn("s1", "127.0.0.1:0").unwrap());
        let store = Arc::new(Store::in_memory());
        let agg = DiscoveryAggregator::new(vec![Arc::clone(&station)], Arc::clone(&store))
            .with_ttl(ttl, now_fn);

        // Two publishers heartbeat at t=100; one then goes silent while
        // the other keeps refreshing its descriptor.
        station.publish_local(Publication::Service(descriptor(
            "http://silent",
            "file",
            100,
        )));
        station.publish_local(Publication::Service(descriptor("http://live", "file", 100)));
        assert!(wait_until(Duration::from_secs(2), || agg
            .local_service_count()
            == 2));

        for beat in 1..=3 {
            clock.store(100 + beat * HEARTBEAT_SECS, Ordering::SeqCst);
            station.publish_local(Publication::Service(descriptor(
                "http://live",
                "file",
                100 + beat * HEARTBEAT_SECS,
            )));
        }
        // One tick past the third missed heartbeat: the silent server's
        // descriptor (age 31 > ttl 30) ages out; the live one stays.
        clock.store(100 + 3 * HEARTBEAT_SECS + 1, Ordering::SeqCst);
        assert!(
            wait_until(Duration::from_secs(2), || agg.local_service_count() == 1),
            "silent station should be evicted by the sweeper"
        );
        let hits = agg.query_local(&ServiceQuery::by_service("file"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].url, "http://live");
        agg.shutdown();
    }

    #[test]
    fn query_local_hides_stale_entries_before_sweep() {
        use std::sync::atomic::AtomicI64;

        let clock = Arc::new(AtomicI64::new(100));
        let now_fn = {
            let clock = Arc::clone(&clock);
            Arc::new(move || clock.load(Ordering::SeqCst)) as Arc<dyn Fn() -> i64 + Send + Sync>
        };
        let store = Arc::new(Store::in_memory());
        // No stations: seed the mirror directly, then check the read path
        // filters on TTL without relying on sweeper timing.
        let agg = DiscoveryAggregator::new(vec![], Arc::clone(&store)).with_ttl(60, now_fn);
        let d = descriptor("http://a", "file", 100);
        store
            .put(
                SERVICES_BUCKET,
                &d.key(),
                json::to_string(&d.to_value()).into_bytes(),
            )
            .unwrap();
        assert_eq!(agg.query_local(&ServiceQuery::by_service("file")).len(), 1);
        clock.store(161, Ordering::SeqCst);
        assert!(agg
            .query_local(&ServiceQuery::by_service("file"))
            .is_empty());
        assert_eq!(agg.evict_expired(), 1);
        assert_eq!(agg.local_service_count(), 0);
        agg.shutdown();
    }

    #[test]
    fn republish_refreshes_attributes_in_place() {
        let station = Arc::new(StationServer::spawn("s1", "127.0.0.1:0").unwrap());
        let store = Arc::new(Store::in_memory());
        let agg = DiscoveryAggregator::new(vec![Arc::clone(&station)], Arc::clone(&store));

        let mut d = descriptor("http://a", "file", 5);
        d.attributes.insert("p95_us".into(), "100".into());
        station.publish_local(Publication::Service(d.clone()));
        assert!(wait_until(Duration::from_secs(2), || agg
            .local_service_count()
            == 1));

        // Same key, same second, fresher load attributes (a heartbeat can
        // land twice within timestamp resolution): the entry must be
        // updated in place, not duplicated and not left stale.
        d.attributes.insert("p95_us".into(), "50".into());
        station.publish_local(Publication::Service(d.clone()));
        assert!(wait_until(Duration::from_secs(2), || {
            agg.query_local(&ServiceQuery::by_service("file"))
                .first()
                .and_then(|hit| hit.attributes.get("p95_us").cloned())
                == Some("50".into())
        }));
        assert_eq!(agg.local_service_count(), 1, "refresh must not duplicate");

        let remote = agg.query_remote(&ServiceQuery::by_service("file"));
        assert_eq!(remote.len(), 1);
        assert_eq!(remote[0].attributes.get("p95_us").unwrap(), "50");
        agg.shutdown();
    }

    #[test]
    fn remote_merge_takes_later_arrival_on_timestamp_tie() {
        let s1 = Arc::new(StationServer::spawn("s1", "127.0.0.1:0").unwrap());
        let s2 = Arc::new(StationServer::spawn("s2", "127.0.0.1:0").unwrap());
        // s1 still holds the original publication; s2 received the
        // re-publish with updated attributes in the same second. The merge
        // must prefer the refreshed copy, not skip it on `>=`.
        let mut d = descriptor("http://a", "file", 7);
        d.attributes.insert("p95_us".into(), "900".into());
        s1.publish_local(Publication::Service(d.clone()));
        d.attributes.insert("p95_us".into(), "40".into());
        s2.publish_local(Publication::Service(d));

        let store = Arc::new(Store::in_memory());
        let agg = DiscoveryAggregator::new(vec![s1, s2], store);
        let hits = agg.query_remote(&ServiceQuery::by_service("file"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].attributes.get("p95_us").unwrap(), "40");
        agg.shutdown();
    }

    #[test]
    fn restart_on_new_port_supersedes_stale_descriptor() {
        let station = Arc::new(StationServer::spawn("s1", "127.0.0.1:0").unwrap());
        let store = Arc::new(Store::in_memory());
        let agg = DiscoveryAggregator::new(vec![Arc::clone(&station)], Arc::clone(&store));

        let mut old = descriptor("http://host:1", "file", 5);
        old.server_dn = "/O=g/CN=host".into();
        station.publish_local(Publication::Service(old));
        assert!(wait_until(Duration::from_secs(2), || agg
            .local_service_count()
            == 1));

        // Same server identity re-publishes from a new port (crash +
        // restart): the old address must drop out instead of lingering as
        // a dead endpoint until TTL expiry.
        let mut new = descriptor("http://host:2", "file", 6);
        new.server_dn = "/O=g/CN=host".into();
        station.publish_local(Publication::Service(new));
        assert!(wait_until(Duration::from_secs(2), || {
            let hits = agg.query_local(&ServiceQuery::by_service("file"));
            hits.len() == 1 && hits[0].url == "http://host:2"
        }));
        assert_eq!(agg.local_service_count(), 1);
        agg.shutdown();
    }

    #[test]
    fn local_and_remote_agree_after_propagation() {
        let station = Arc::new(StationServer::spawn("s1", "127.0.0.1:0").unwrap());
        let store = Arc::new(Store::in_memory());
        let agg = DiscoveryAggregator::new(vec![Arc::clone(&station)], store);
        for i in 0..10 {
            station.publish_local(Publication::Service(descriptor(
                &format!("http://host{i}"),
                "file",
                i,
            )));
        }
        assert!(wait_until(Duration::from_secs(2), || agg
            .local_service_count()
            == 10));
        let query = ServiceQuery::by_service("file").with_attribute("site", "caltech");
        let mut local = agg.query_local(&query);
        let mut remote = agg.query_remote(&query);
        local.sort_by(|a, b| a.url.cmp(&b.url));
        remote.sort_by(|a, b| a.url.cmp(&b.url));
        assert_eq!(local, remote);
        agg.shutdown();
    }
}
