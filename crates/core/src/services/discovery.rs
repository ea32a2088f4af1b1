//! The discovery service (paper §2.4): query the MonALISA-backed registry
//! and publish this server's own services.
//!
//! "The discovery service allows scientists and applications to query for
//! services and retrieve up to date information on the location and
//! interface of a service." Queries default to the aggregated local
//! database (the fast path Figure 3 motivates); `discovery.find_remote`
//! exposes the fan-out path so the two can be compared.

use std::collections::BTreeMap;
use std::sync::Arc;

use monalisa_sim::{
    DiscoveryAggregator, Publication, ServiceDescriptor, ServiceQuery, UdpPublisher,
};

use clarens_wire::{Fault, Value};

use crate::core::ClarensCore;
use crate::registry::param::any;
use crate::registry::{Args, CallContext, Method, Service, METHODS_BUCKET};

/// The `discovery` service.
pub struct DiscoveryService {
    aggregator: Arc<DiscoveryAggregator>,
    publisher: Option<UdpPublisher>,
}

impl DiscoveryService {
    /// Create the service. `publisher` is `None` for servers that only
    /// query.
    pub fn new(aggregator: Arc<DiscoveryAggregator>, publisher: Option<UdpPublisher>) -> Self {
        DiscoveryService {
            aggregator,
            publisher,
        }
    }

    /// The aggregated discovery view, shared with the proxy router so
    /// `proxy.call` resolves module owners from the same database
    /// `discovery.find` answers from.
    pub fn aggregator(&self) -> Arc<DiscoveryAggregator> {
        Arc::clone(&self.aggregator)
    }
}

/// The query of `discovery.find*([query])`: a service name, or a struct of
/// `service`, `method` and `attributes`; none matches everything.
fn query(args: &Args<'_>) -> Result<ServiceQuery, Fault> {
    let mut query = ServiceQuery::default();
    match args.value(0).ok() {
        None => {}
        Some(Value::Str(name)) => query.service = Some(name.clone()),
        Some(Value::Struct(map)) => {
            let field = |key: &str| map.get(key).and_then(Value::as_str).map(str::to_owned);
            query.service = field("service");
            query.method = field("method");
            if let Some(attrs) = map.get("attributes").and_then(Value::as_struct) {
                for (k, v) in attrs {
                    if let Some(s) = v.as_str() {
                        query.attributes.insert(k.clone(), s.to_owned());
                    }
                }
            }
        }
        Some(other) => {
            return Err(Fault::bad_params(format!(
                "query must be a service name or struct, got {}",
                other.type_name()
            )))
        }
    }
    Ok(query)
}

fn descriptors(hits: Vec<ServiceDescriptor>) -> Value {
    Value::Array(hits.iter().map(ServiceDescriptor::to_value).collect())
}

impl Service for DiscoveryService {
    const METHODS: &'static [Method<Self>] = &[
        Method::new(
            "discovery.find",
            "Find services via the aggregated local database (fast path)",
            &[any("query").optional()],
            |svc: &Self, ctx, args| {
                Ok(descriptors(
                    svc.aggregator.query_local(&query(args)?, ctx.now),
                ))
            },
        )
        .idempotent(),
        Method::new(
            "discovery.find_remote",
            "Find services by synchronous fan-out to station servers (slow path)",
            &[any("query").optional()],
            |svc: &Self, _, args| Ok(descriptors(svc.aggregator.query_remote(&query(args)?))),
        )
        .idempotent(),
        Method::new(
            "discovery.publish",
            "Publish this server's service descriptors to the station network (site admin)",
            &[],
            Self::publish,
        )
        .admin()
        .idempotent(),
        Method::new(
            "discovery.status",
            "Aggregation statistics",
            &[],
            |svc: &Self, _, _| {
                let aggregator = &svc.aggregator;
                Ok(Value::structure([
                    (
                        "local_services",
                        Value::Int(aggregator.local_service_count() as i64),
                    ),
                    ("updates", Value::Int(aggregator.update_count() as i64)),
                ]))
            },
        )
        .idempotent(),
    ];
}

impl DiscoveryService {
    fn publish(&self, ctx: &CallContext<'_>, _: &Args<'_>) -> Result<Value, Fault> {
        let publisher = self
            .publisher
            .as_ref()
            .ok_or_else(|| Fault::service("this server has no publisher configured"))?;
        let descriptors = module_descriptors(ctx.core, ctx.now);
        let published = descriptors.len() as i64;
        for descriptor in descriptors {
            // Sent once: a lost datagram is made good by the next publish
            // (stations keep the newest timestamp per key).
            publisher
                .publish(&Publication::Service(descriptor))
                .map_err(|e| Fault::service(format!("publish failed: {e}")))?;
        }
        Ok(Value::Int(published))
    }
}

/// The descriptors `core` advertises, stamped `now` (Unix seconds): one
/// per registered module, its methods from the node's method table, each
/// with the live load/latency attributes the station network steers
/// clients by. `discovery.publish` sends them, as a federation node's
/// election tick does.
pub fn module_descriptors(core: &ClarensCore, now: i64) -> Vec<ServiceDescriptor> {
    let telemetry = &core.telemetry;
    let latency = telemetry.total_snapshot();
    let attributes: BTreeMap<_, _> = [
        ("requests_total", telemetry.http.requests.get()),
        ("errors_total", telemetry.http.responses_5xx.get()),
        ("p50_us", latency.p50()),
        ("p95_us", latency.p95()),
        ("p99_us", latency.p99()),
    ]
    .map(|(name, value)| (name.to_owned(), value.to_string()))
    .into();
    let (modules, store) = (core.registry.read().modules(), &core.store);
    let methods = |module| store.scan_prefix(METHODS_BUCKET, &format!("{module}."));
    (modules.into_iter())
        .map(|module| ServiceDescriptor {
            url: core.config.server_url.clone(),
            server_dn: core.credential.certificate.subject.to_string(),
            service: module.to_owned(),
            methods: methods(module).into_iter().map(|(name, _)| name).collect(),
            attributes: attributes.clone(),
            timestamp: now,
        })
        .collect()
}
