//! The descriptor table: what a station, an aggregator and every merged
//! lookup keep of the discovery network. It holds no lock, clock, socket
//! or thread; its rules are the only ones discovery has:
//!
//! * **Newest wins.** Per key, the record with the greater freshness
//!   stays: `(timestamp, renewed_ms)` for a service descriptor (election
//!   adverts renew many times a second), the timestamp for a sample. A
//!   tie replaces, so a re-publish within one second refreshes the
//!   attributes instead of serving the stale copy.
//! * **A restart supersedes.** A descriptor that is taken drops every
//!   other one with the same non-empty `server_dn` and `service` under
//!   another url and a strictly older timestamp: a server that restarted
//!   on a new port replaces its old address instead of being advertised
//!   twice until the stale entry ages out. Equal timestamps stay side by
//!   side (a deployment sharing one host certificate looks like this, and
//!   nothing says which address is newer). An empty DN names no server —
//!   election adverts carry none — so it supersedes nothing.
//! * **TTL.** A record stamped more than `ttl_secs` before `now` has
//!   expired.

use std::collections::BTreeMap;

use crate::schema::{MonitorSample, Publication, ServiceDescriptor, ServiceQuery};

/// Service descriptors by [`ServiceDescriptor::key`] and monitoring
/// samples by [`MonitorSample::key_path`], newest per key, in key order.
#[derive(Debug, Default)]
pub struct Table {
    /// Each descriptor beside its freshness, read once when it was taken.
    services: BTreeMap<String, ((i64, u64), ServiceDescriptor)>,
    samples: BTreeMap<String, MonitorSample>,
    updates: u64,
}

/// Whether a record stamped `timestamp` has outlived `ttl_secs` at `now`.
pub(crate) fn expired(timestamp: i64, now: i64, ttl_secs: i64) -> bool {
    now - timestamp > ttl_secs
}

fn renewed(d: &ServiceDescriptor) -> (i64, u64) {
    let renewed_ms = d.attributes.get("renewed_ms").and_then(|v| v.parse().ok());
    (d.timestamp, renewed_ms.unwrap_or(0))
}

impl Table {
    /// Take `publication` unless a fresher record holds its key; returns
    /// whether it was taken.
    pub fn offer(&mut self, publication: &Publication) -> bool {
        let taken = match publication {
            Publication::Service(d) => {
                let (key, fresh) = (d.key(), renewed(d));
                let taken = self.services.get(&key).is_none_or(|(old, _)| *old <= fresh);
                if taken {
                    self.services.insert(key, (fresh, d.clone()));
                }
                if taken && !d.server_dn.is_empty() {
                    self.services.retain(|_, (_, old)| {
                        old.server_dn != d.server_dn
                            || old.service != d.service
                            || old.url == d.url
                            || old.timestamp >= d.timestamp
                    });
                }
                taken
            }
            Publication::Sample(s) => {
                let key = s.key_path();
                let taken = (self.samples.get(&key)).is_none_or(|old| old.timestamp <= s.timestamp);
                if taken {
                    self.samples.insert(key, s.clone());
                }
                taken
            }
        };
        self.updates += u64::from(taken);
        taken
    }

    /// Offer every record of `other` (a late subscriber's replay).
    pub(crate) fn merge(&mut self, other: &Table) {
        let services = (other.services.values()).map(|(_, d)| Publication::Service(d.clone()));
        let samples = other.samples.values().cloned().map(Publication::Sample);
        for publication in services.chain(samples) {
            self.offer(&publication);
        }
    }

    /// The newest descriptor per key among `descriptors`, in key order:
    /// how the answers of several stations merge into one.
    pub fn newest(
        descriptors: impl IntoIterator<Item = ServiceDescriptor>,
    ) -> Vec<ServiceDescriptor> {
        let mut table = Table::default();
        for d in descriptors {
            table.offer(&Publication::Service(d));
        }
        table.services.into_values().map(|(_, d)| d).collect()
    }

    /// Drop every record that has expired at `now`.
    pub fn expire(&mut self, now: i64, ttl_secs: i64) {
        self.services
            .retain(|_, (_, d)| !expired(d.timestamp, now, ttl_secs));
        self.samples
            .retain(|_, s| !expired(s.timestamp, now, ttl_secs));
    }

    /// The descriptors `query` matches, in key order.
    pub fn query<'a>(
        &'a self,
        query: &'a ServiceQuery,
    ) -> impl Iterator<Item = &'a ServiceDescriptor> + 'a {
        self.services
            .values()
            .map(|(_, d)| d)
            .filter(|d| query.matches(d))
    }

    /// The sample at `farm/node/key`, if any.
    pub fn sample(&self, path: &str) -> Option<&MonitorSample> {
        self.samples.get(path)
    }

    /// Number of service descriptors held.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Publications taken so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor(url: &str, dn: &str, ts: i64) -> Publication {
        Publication::Service(ServiceDescriptor {
            url: url.into(),
            server_dn: dn.into(),
            service: "file".into(),
            methods: vec!["file.run".into()],
            attributes: Default::default(),
            timestamp: ts,
        })
    }

    fn urls(table: &Table) -> Vec<String> {
        let all = ServiceQuery::default();
        table.query(&all).map(|d| d.url.clone()).collect()
    }

    #[test]
    fn newest_wins_and_a_tie_replaces() {
        let mut table = Table::default();
        assert!(table.offer(&descriptor("http://a", "/CN=a", 200)));
        assert!(!table.offer(&descriptor("http://a", "/CN=a", 100)));
        let Publication::Service(mut again) = descriptor("http://a", "/CN=a", 200) else {
            unreachable!()
        };
        again.methods = vec!["file.ls".into()];
        assert!(table.offer(&Publication::Service(again)));
        let hit = table.query(&ServiceQuery::by_method("file.ls")).count();
        assert_eq!((hit, table.service_count(), table.updates()), (1, 1, 2));
    }

    #[test]
    fn renewed_ms_orders_descriptors_within_one_second() {
        let stamped = |ms: u64| {
            let Publication::Service(mut d) = descriptor("http://a", "", 7) else {
                unreachable!()
            };
            d.attributes.insert("renewed_ms".into(), ms.to_string());
            d
        };
        let merged = Table::newest([stamped(7_900), stamped(7_100)]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].attributes["renewed_ms"], "7900");
    }

    #[test]
    fn a_restart_supersedes_only_a_strictly_older_address_of_a_named_server() {
        let mut table = Table::default();
        table.offer(&descriptor("http://host:1", "/CN=host", 5));
        table.offer(&descriptor("http://host:2", "/CN=host", 6));
        assert_eq!(urls(&table), ["http://host:2"]);
        // Equal timestamps under one DN stay side by side.
        table.offer(&descriptor("http://host:3", "/CN=host", 6));
        assert_eq!(urls(&table), ["http://host:2", "http://host:3"]);
    }

    #[test]
    fn an_empty_dn_supersedes_nothing() {
        let mut table = Table::default();
        table.offer(&descriptor("http://node1", "", 5));
        table.offer(&descriptor("http://node2", "", 6));
        assert_eq!(urls(&table), ["http://node1", "http://node2"]);
    }

    #[test]
    fn expiry_drops_services_and_samples_past_the_ttl() {
        let mut table = Table::default();
        table.offer(&descriptor("http://old", "/CN=old", 100));
        table.offer(&descriptor("http://new", "/CN=new", 990));
        let sample = |ts| MonitorSample {
            farm: "f".into(),
            node: "n".into(),
            key: format!("k{ts}"),
            value: 0.5,
            timestamp: ts,
        };
        table.offer(&Publication::Sample(sample(100)));
        table.offer(&Publication::Sample(sample(940)));
        table.expire(1000, 60);
        assert_eq!(urls(&table), ["http://new"]);
        assert!(table.sample("f/n/k100").is_none());
        assert_eq!(table.sample("f/n/k940").unwrap().value, 0.5);
        assert!(!expired(940, 1000, 60) && expired(939, 1000, 60));
    }

    #[test]
    fn merge_replays_what_the_other_table_holds() {
        let mut station = Table::default();
        station.offer(&descriptor("http://a", "/CN=a", 9));
        let mut subscriber = Table::default();
        subscriber.offer(&descriptor("http://a", "/CN=a", 12));
        subscriber.offer(&descriptor("http://b", "/CN=b", 1));
        subscriber.merge(&station);
        let all = ServiceQuery::default();
        let stamps: Vec<_> = subscriber.query(&all).map(|d| d.timestamp).collect();
        assert_eq!(stamps, [12, 1]);
    }
}
