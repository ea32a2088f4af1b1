//! The discovery service (paper §2.4): query the MonALISA-backed registry
//! and publish this server's own services.
//!
//! "The discovery service allows scientists and applications to query for
//! services and retrieve up to date information on the location and
//! interface of a service." Queries default to the aggregated local
//! database (the fast path Figure 3 motivates); `discovery.find_remote`
//! exposes the fan-out path so the two can be compared.

use std::sync::Arc;

use monalisa_sim::{
    DiscoveryAggregator, Publication, ServiceDescriptor, ServiceQuery, UdpPublisher,
};

use clarens_wire::{Fault, Value};

use crate::client::Backoff;
use crate::registry::{unhandled, CallContext, MethodInfo, Service, METHODS_BUCKET};

/// First pause after a failed UDP publish; doubles up to 32x.
const PUBLISH_BACKOFF: std::time::Duration = std::time::Duration::from_millis(4);

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

    fn descriptor_value(d: &ServiceDescriptor) -> Value {
        d.to_value()
    }

    fn query_from_params(params_in: &[Value]) -> Result<ServiceQuery, Fault> {
        let mut query = ServiceQuery::default();
        if let Some(spec) = params_in.first() {
            match spec {
                Value::Str(name) => query.service = Some(name.clone()),
                Value::Struct(map) => {
                    if let Some(s) = map.get("service").and_then(Value::as_str) {
                        query.service = Some(s.to_owned());
                    }
                    if let Some(m) = map.get("method").and_then(Value::as_str) {
                        query.method = Some(m.to_owned());
                    }
                    if let Some(attrs) = map.get("attributes").and_then(Value::as_struct) {
                        for (k, v) in attrs {
                            if let Some(s) = v.as_str() {
                                query.attributes.insert(k.clone(), s.to_owned());
                            }
                        }
                    }
                }
                other => {
                    return Err(Fault::bad_params(format!(
                        "query must be a service name or struct, got {}",
                        other.type_name()
                    )))
                }
            }
        }
        Ok(query)
    }
}

/// The `discovery` methods.
pub static METHODS: &[MethodInfo] = &[
    MethodInfo::new(
        "discovery.find",
        "discovery.find(query)",
        "Find services via the aggregated local database (fast path)",
        0,
    )
    .up_to(1)
    .idempotent(),
    MethodInfo::new(
        "discovery.find_remote",
        "discovery.find_remote(query)",
        "Find services by synchronous fan-out to station servers (slow path)",
        0,
    )
    .up_to(1)
    .idempotent(),
    MethodInfo::new(
        "discovery.publish",
        "discovery.publish()",
        "Publish this server's service descriptors to the station network (site admin)",
        0,
    )
    .idempotent(),
    MethodInfo::new(
        "discovery.status",
        "discovery.status()",
        "Aggregation statistics",
        0,
    )
    .idempotent(),
];

impl Service for DiscoveryService {
    fn methods(&self) -> &'static [MethodInfo] {
        METHODS
    }

    fn call(
        &self,
        ctx: &CallContext<'_>,
        method: &str,
        params_in: &[Value],
    ) -> Result<Value, Fault> {
        match method {
            "discovery.find" | "discovery.find_remote" => {
                ctx.require_identity()?;
                let query = Self::query_from_params(params_in)?;
                let hits = if method == "discovery.find" {
                    self.aggregator.query_local(&query)
                } else {
                    self.aggregator.query_remote(&query)
                };
                Ok(Value::Array(
                    hits.iter().map(Self::descriptor_value).collect(),
                ))
            }
            "discovery.publish" => {
                let dn = ctx.require_identity()?;
                if !ctx.core.vo.is_site_admin(dn) {
                    return Err(Fault::access_denied("publishing requires site admin"));
                }
                let publisher = self
                    .publisher
                    .as_ref()
                    .ok_or_else(|| Fault::service("this server has no publisher configured"))?;
                // One descriptor per registered module, methods from the DB.
                // Descriptors carry live load/latency attributes so the
                // station network can steer clients toward lightly-loaded
                // servers (the paper's MonALISA monitoring integration).
                let telemetry = &ctx.core.telemetry;
                let latency = telemetry.total_snapshot();
                let load_attributes: Vec<(String, String)> = vec![
                    (
                        "requests_total".into(),
                        telemetry.http.requests.get().to_string(),
                    ),
                    (
                        "errors_total".into(),
                        telemetry.http.responses_5xx.get().to_string(),
                    ),
                    ("p50_us".into(), latency.p50().to_string()),
                    ("p95_us".into(), latency.p95().to_string()),
                    ("p99_us".into(), latency.p99().to_string()),
                ];
                let modules = ctx.core.registry.read().modules();
                let mut backoff =
                    Backoff::new(PUBLISH_BACKOFF, PUBLISH_BACKOFF * 32, ctx.now as u64);
                let mut published = 0i64;
                for module in modules {
                    let methods: Vec<String> = ctx
                        .core
                        .store
                        .scan_prefix(METHODS_BUCKET, &format!("{module}."))
                        .into_iter()
                        .map(|(name, _)| name)
                        .collect();
                    let descriptor = ServiceDescriptor {
                        url: ctx.core.config.server_url.clone(),
                        server_dn: ctx.core.credential.certificate.subject.to_string(),
                        service: module.to_owned(),
                        methods,
                        attributes: load_attributes.iter().cloned().collect(),
                        timestamp: ctx.now,
                    };
                    // UDP publish is idempotent (stations keep the newest
                    // timestamp per key), so transient send failures are
                    // retried with a short backoff before giving up.
                    let publication = Publication::Service(descriptor);
                    let retries = ctx.core.config.client_retries;
                    let mut attempt = 0;
                    loop {
                        match publisher.publish(&publication) {
                            Ok(()) => break,
                            Err(_) if attempt < retries => {
                                attempt += 1;
                                ctx.core.telemetry.resilience.retries.inc();
                                backoff.pause(attempt, ctx.remaining_budget());
                            }
                            Err(e) => {
                                return Err(Fault::service(format!(
                                    "publish failed after {attempt} retries: {e}"
                                )))
                            }
                        }
                    }
                    published += 1;
                }
                Ok(Value::Int(published))
            }
            "discovery.status" => {
                ctx.require_identity()?;
                Ok(Value::structure([
                    (
                        "local_services",
                        Value::Int(self.aggregator.local_service_count() as i64),
                    ),
                    ("updates", Value::Int(self.aggregator.update_count() as i64)),
                ]))
            }
            other => Err(unhandled(other)),
        }
    }
}
