//! # clarens-telemetry — the observability plane
//!
//! The paper's discovery network exists so "MonALISA-like station servers"
//! can watch a fleet of Clarens servers; the companion architecture papers
//! (cs/0306002, cs/0504044) operate deployments on exactly that
//! monitoring. This crate is the server side of that story:
//!
//! * [`metrics`] — a sharded, lock-free registry of counters, gauges, and
//!   log2-bucketed latency histograms, cheap enough for the request hot
//!   path (a handful of relaxed atomics per update);
//! * [`mod@trace`] — request-scoped spans over the paper's pipeline (accept →
//!   parse → session check → ACL walk → dispatch → serialize → write) and
//!   a fixed ring of slow-request traces;
//! * [`log`] — a tiny leveled logger (env-controlled, off by default so
//!   benches stay clean);
//! * [`Telemetry`] — the per-server facade the HTTP layer, the core, and
//!   the export surfaces (`GET /metrics`, `system.metrics`,
//!   `system.trace_tail`) share.

pub mod log;
pub mod metrics;
pub mod trace;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MethodStats, MethodTable};
pub use trace::{Phase, RequestTrace, SlowTrace, TraceRing, PHASE_COUNT, PHASE_NAMES};

/// HTTP/transport-layer counters (single atomic adds).
#[derive(Debug, Default)]
pub struct HttpCounters {
    /// TCP connections accepted.
    pub connections: Counter,
    /// Requests completed (any status).
    pub requests: Counter,
    /// Requests served on an already-used keep-alive connection.
    pub keepalive_reuse: Counter,
    /// Keep-alive connections closed by the server's idle read timeout.
    pub idle_timeouts: Counter,
    /// Connections torn down by the peer (reset/abort/mid-request EOF).
    pub peer_resets: Counter,
    /// TLS handshakes that failed.
    pub handshake_failures: Counter,
    /// Responses with a 5xx status.
    pub responses_5xx: Counter,
    /// Total response bytes written (head + body, all statuses).
    pub bytes_out: Counter,
    /// Subset of `bytes_out` moved by `sendfile(2)` (zero-copy file→socket;
    /// never touches a userspace buffer).
    pub bytes_sendfile: Counter,
    /// Connections parked mid-response because the socket send buffer
    /// filled: the write cursor is saved and the poller re-arms for
    /// writability instead of a worker spinning on the socket.
    pub parked_writers: Gauge,
    /// Parked writers expired by the deadline wheel because the peer never
    /// drained its receive window in time (slow-consumer eviction).
    pub write_stalls: Counter,
    /// Streamed response bodies that under-delivered against their declared
    /// Content-Length; the connection is force-closed to avoid desyncing
    /// keep-alive framing.
    pub stream_truncations: Counter,
    /// Scratch-arena buffer takes served from the per-worker pool instead
    /// of allocating (see `clarens-httpd`'s `Scratch`).
    pub buffer_pool_reuse: Counter,
    /// Keep-alive connections currently parked in the readiness poller
    /// (idle between requests, holding no worker thread).
    pub parked: Gauge,
    /// Work items (fresh or re-dispatched connections) currently queued
    /// for a worker.
    pub queue_depth: Gauge,
    /// Parked connections re-dispatched to the worker queue because the
    /// poller saw them become readable.
    pub poll_wakeups: Counter,
    /// Connections shed with `503` + `Connection: close` because the
    /// `max_connections` budget was exhausted.
    pub sheds: Counter,
}

/// Resilience counters: the unhappy paths the fault-injection harness
/// exercises. Always live, like [`HttpCounters`].
#[derive(Debug, Default)]
pub struct ResilienceCounters {
    /// Requests answered with the 504-style DEADLINE fault because the
    /// per-request budget expired.
    pub deadline_exceeded: Counter,
    /// Server-side retry attempts (e.g. discovery re-publish after a lost
    /// UDP send).
    pub retries: Counter,
    /// Mutating calls refused because a subsystem is running degraded
    /// (e.g. the store went read-only after a WAL failure).
    pub degraded_rejects: Counter,
}

/// Federation counters: cross-node request routing (`proxy.call`) and
/// WAL-shipping replication. Always live, like [`HttpCounters`].
#[derive(Default)]
pub struct FederationCounters {
    /// `proxy.call` requests this node forwarded to the owning peer.
    pub forwarded: Counter,
    /// Forwards that failed at the transport (peer unreachable/reset).
    pub forward_failures: Counter,
    /// `proxy.call` requests refused because the hop budget was spent
    /// (loop protection between misconfigured nodes).
    pub hop_limit_rejects: Counter,
    /// WAL replication chunks this node served to followers.
    pub replication_chunks: Counter,
    /// Replication fetches whose cursor was stale (epoch rolled by a
    /// compaction, or offset past the committed length) and restarted
    /// from the current snapshot. A steady trickle is normal after
    /// compactions; a flood means followers can't keep up between
    /// rewrites.
    pub replication_resyncs: Counter,
    /// Time a forwarding node spent waiting on the remote peer
    /// (microseconds) — the cross-node share of a proxied request, as
    /// distinct from the local dispatch span that contains it.
    pub forward_us: Histogram,
    /// Leader elections this node won (promotions to leader).
    pub elections: Counter,
    /// Times this node stepped down from leadership after observing a
    /// higher epoch (a deposed leader rejoining the cluster).
    pub demotions: Counter,
    /// Replicated writes rejected with NOT_LEADER because this node is a
    /// follower, a deposed leader, or a leader whose lease lapsed
    /// (split-brain self-fencing).
    pub fenced_writes: Counter,
    /// Replication fetch attempts that failed at the transport (leader
    /// dead or unreachable) and entered the follower's backoff loop.
    pub replication_fetch_errors: Counter,
}

/// Per-protocol counters.
#[derive(Debug, Default)]
pub struct ProtocolCounters {
    /// Requests decoded as this protocol.
    pub requests: Counter,
    /// Requests of this protocol answered with a fault.
    pub faults: Counter,
}

/// Wire protocols tracked per-request.
pub const PROTOCOL_NAMES: [&str; 4] = ["xmlrpc", "soap", "jsonrpc", "binary"];

type GaugeFn = Box<dyn Fn() -> u64 + Send + Sync>;

/// Default slow-request threshold (10 ms).
pub const DEFAULT_SLOW_US: u64 = 10_000;

/// Default trace-ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 64;

/// One server's telemetry: the shared instance every layer records into
/// and every export surface reads from.
pub struct Telemetry {
    /// Transport counters.
    pub http: HttpCounters,
    /// Resilience counters (deadlines, retries, degraded-mode rejects).
    pub resilience: ResilienceCounters,
    /// Federation counters (forwarded calls, replication chunks).
    pub federation: FederationCounters,
    /// Per-phase latency histograms (microseconds), indexed by
    /// [`Phase`]` as usize`.
    phases: [Histogram; PHASE_COUNT],
    /// End-to-end request latency (microseconds).
    total: Histogram,
    /// Per-`module.method` stats.
    methods: MethodTable,
    /// Per-protocol counters, index-aligned with [`PROTOCOL_NAMES`].
    protocols: [ProtocolCounters; 4],
    /// Slow-request ring.
    ring: TraceRing,
    /// Requests at or above this many microseconds enter the ring.
    slow_us: AtomicU64,
    /// External gauges (DB counters, cache stats, ...), registered by the
    /// subsystems that own the underlying numbers and evaluated at export.
    gauges: RwLock<Vec<(String, GaugeFn)>>,
}

impl Telemetry {
    /// Build a telemetry plane. `slow_us` is the slow-trace threshold
    /// (microseconds).
    pub fn new(slow_us: u64, ring_capacity: usize) -> Arc<Telemetry> {
        Arc::new(Telemetry {
            http: HttpCounters::default(),
            resilience: ResilienceCounters::default(),
            federation: FederationCounters::default(),
            phases: std::array::from_fn(|_| Histogram::new()),
            total: Histogram::new(),
            methods: MethodTable::new(),
            protocols: Default::default(),
            ring: TraceRing::new(ring_capacity),
            slow_us: AtomicU64::new(slow_us),
            gauges: RwLock::new(Vec::new()),
        })
    }

    /// A default-configured plane.
    pub fn enabled() -> Arc<Telemetry> {
        Telemetry::new(DEFAULT_SLOW_US, DEFAULT_RING_CAPACITY)
    }

    /// Begin a timed request trace.
    pub fn begin_request(&self) -> RequestTrace {
        RequestTrace::start()
    }

    /// Adjust the slow-trace threshold at runtime (µs).
    pub fn set_slow_threshold_us(&self, us: u64) {
        self.slow_us.store(us, Ordering::Relaxed);
    }

    /// Current slow-trace threshold (µs).
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_us.load(Ordering::Relaxed)
    }

    /// Finish one request: feed every aggregate the trace touches.
    /// `unix_time` stamps any slow-ring entry.
    pub fn finish_request(&self, trace: &RequestTrace, unix_time: i64) {
        self.http.requests.inc();
        if trace.status >= 500 {
            self.http.responses_5xx.inc();
        }
        if let Some(protocol) = trace.protocol {
            if let Some(i) = PROTOCOL_NAMES.iter().position(|n| *n == protocol) {
                self.protocols[i].requests.inc();
                if trace.fault {
                    self.protocols[i].faults.inc();
                }
            }
        }
        let method_stats = trace.method.as_deref().map(|m| self.methods.entry(m));
        if let Some(stats) = &method_stats {
            stats.calls.inc();
            if trace.fault {
                stats.faults.inc();
            }
        }
        if !trace.timing() {
            return;
        }
        let total_us = trace.total_us();
        self.total.record(total_us);
        for (i, &us) in trace.phase_us.iter().enumerate() {
            if us > 0 {
                self.phases[i].record(us);
            }
        }
        if let Some(stats) = &method_stats {
            stats.latency.record(total_us);
        }
        if total_us >= self.slow_us.load(Ordering::Relaxed) {
            self.ring.push(SlowTrace {
                seq: 0,
                unix_time,
                method: trace.method.clone(),
                protocol: trace.protocol,
                status: trace.status,
                fault: trace.fault,
                total_us,
                phase_us: trace.phase_us,
            });
        }
    }

    /// Register an externally-owned gauge, evaluated at export time.
    /// Callbacks must be cheap and must not call back into telemetry.
    pub fn register_gauge(
        &self,
        name: impl Into<String>,
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.gauges.write().push((name.into(), Box::new(read)));
    }

    /// Evaluate one registered gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        let gauges = self.gauges.read();
        gauges.iter().find(|(n, _)| n == name).map(|(_, f)| f())
    }

    /// Evaluate all registered gauges.
    pub fn gauges_snapshot(&self) -> Vec<(String, u64)> {
        self.gauges
            .read()
            .iter()
            .map(|(n, f)| (n.clone(), f()))
            .collect()
    }

    /// Snapshot of every phase histogram plus the end-to-end total,
    /// name-tagged (`total` last).
    pub fn phase_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        let mut out: Vec<(&'static str, HistogramSnapshot)> = PHASE_NAMES
            .iter()
            .zip(self.phases.iter())
            .map(|(name, h)| (*name, h.snapshot()))
            .collect();
        out.push(("total", self.total.snapshot()));
        out
    }

    /// End-to-end latency snapshot.
    pub fn total_snapshot(&self) -> HistogramSnapshot {
        self.total.snapshot()
    }

    /// Per-method stats, name-sorted.
    pub fn methods_snapshot(&self) -> Vec<(String, Arc<MethodStats>)> {
        self.methods.snapshot()
    }

    /// Per-protocol `(name, requests, faults)`.
    pub fn protocols_snapshot(&self) -> Vec<(&'static str, u64, u64)> {
        PROTOCOL_NAMES
            .iter()
            .zip(self.protocols.iter())
            .map(|(name, c)| (*name, c.requests.get(), c.faults.get()))
            .collect()
    }

    /// Newest `limit` slow traces.
    pub fn trace_tail(&self, limit: usize) -> Vec<SlowTrace> {
        self.ring.tail(limit)
    }

    /// Total slow traces recorded (for wraparound checks).
    pub fn slow_trace_count(&self) -> u64 {
        self.ring.pushed()
    }

    /// Render the whole plane in Prometheus-style plaintext exposition
    /// format for `GET /metrics`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let h = &self.http;
        for (name, value) in [
            ("clarens_http_connections_total", h.connections.get()),
            ("clarens_requests_total", h.requests.get()),
            (
                "clarens_http_keepalive_reuse_total",
                h.keepalive_reuse.get(),
            ),
            ("clarens_http_idle_timeouts_total", h.idle_timeouts.get()),
            ("clarens_http_peer_resets_total", h.peer_resets.get()),
            (
                "clarens_http_handshake_failures_total",
                h.handshake_failures.get(),
            ),
            ("clarens_http_responses_5xx_total", h.responses_5xx.get()),
            ("clarens_http_bytes_out_total", h.bytes_out.get()),
            ("clarens_http_bytes_sendfile_total", h.bytes_sendfile.get()),
            ("clarens_buffer_pool_reuse_total", h.buffer_pool_reuse.get()),
            ("clarens_http_parked_connections", h.parked.get()),
            ("clarens_http_parked_writers", h.parked_writers.get()),
            ("clarens_http_write_stalls_total", h.write_stalls.get()),
            (
                "clarens_http_stream_truncations_total",
                h.stream_truncations.get(),
            ),
            ("clarens_http_queue_depth", h.queue_depth.get()),
            ("clarens_http_poll_wakeups_total", h.poll_wakeups.get()),
            ("clarens_http_sheds_total", h.sheds.get()),
            (
                "clarens_deadline_exceeded_total",
                self.resilience.deadline_exceeded.get(),
            ),
            ("clarens_retries_total", self.resilience.retries.get()),
            (
                "clarens_degraded_rejects_total",
                self.resilience.degraded_rejects.get(),
            ),
            (
                "clarens_forwarded_calls_total",
                self.federation.forwarded.get(),
            ),
            (
                "clarens_forward_failures_total",
                self.federation.forward_failures.get(),
            ),
            (
                "clarens_hop_limit_rejects_total",
                self.federation.hop_limit_rejects.get(),
            ),
            (
                "clarens_replication_chunks_total",
                self.federation.replication_chunks.get(),
            ),
            (
                "clarens_replication_resyncs_total",
                self.federation.replication_resyncs.get(),
            ),
            ("clarens_elections_total", self.federation.elections.get()),
            ("clarens_demotions_total", self.federation.demotions.get()),
            (
                "clarens_fenced_writes_total",
                self.federation.fenced_writes.get(),
            ),
            (
                "clarens_replication_fetch_errors_total",
                self.federation.replication_fetch_errors.get(),
            ),
        ] {
            let _ = writeln!(out, "{name} {value}");
        }
        let forward = self.federation.forward_us.snapshot();
        if forward.count > 0 {
            render_histogram(
                &mut out,
                "clarens_forward_latency_us",
                "span",
                "forward",
                &forward,
            );
        }
        for (name, requests, faults) in self.protocols_snapshot() {
            let _ = writeln!(
                out,
                "clarens_protocol_requests_total{{protocol=\"{name}\"}} {requests}"
            );
            let _ = writeln!(
                out,
                "clarens_protocol_faults_total{{protocol=\"{name}\"}} {faults}"
            );
        }
        for (phase, snap) in self.phase_snapshots() {
            render_histogram(&mut out, "clarens_phase_latency_us", "phase", phase, &snap);
        }
        for (method, stats) in self.methods_snapshot() {
            let _ = writeln!(
                out,
                "clarens_method_calls_total{{method=\"{method}\"}} {}",
                stats.calls.get()
            );
            let _ = writeln!(
                out,
                "clarens_method_faults_total{{method=\"{method}\"}} {}",
                stats.faults.get()
            );
            let snap = stats.latency.snapshot();
            if snap.count > 0 {
                render_histogram(
                    &mut out,
                    "clarens_method_latency_us",
                    "method",
                    &method,
                    &snap,
                );
            }
        }
        for (name, value) in self.gauges_snapshot() {
            let _ = writeln!(out, "clarens_{} {value}", name.replace('.', "_"));
        }
        let _ = writeln!(out, "clarens_slow_traces_total {}", self.ring.pushed());
        out
    }
}

fn render_histogram(
    out: &mut String,
    metric: &str,
    label: &str,
    label_value: &str,
    snap: &HistogramSnapshot,
) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "{metric}_count{{{label}=\"{label_value}\"}} {}",
        snap.count
    );
    let _ = writeln!(
        out,
        "{metric}_sum{{{label}=\"{label_value}\"}} {}",
        snap.sum
    );
    for (q, v) in [
        ("0.5", snap.p50()),
        ("0.95", snap.p95()),
        ("0.99", snap.p99()),
    ] {
        let _ = writeln!(
            out,
            "{metric}{{{label}=\"{label_value}\",quantile=\"{q}\"}} {v}"
        );
    }
    let _ = writeln!(
        out,
        "{metric}_max{{{label}=\"{label_value}\"}} {}",
        snap.max
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_request(t: &Telemetry, method: &str, us: [u64; PHASE_COUNT]) {
        let mut trace = t.begin_request();
        trace.method = Some(method.to_owned());
        trace.protocol = Some("xmlrpc");
        trace.status = 200;
        for (i, &v) in us.iter().enumerate() {
            trace.phase_us[i] = v;
        }
        t.finish_request(&trace, 1_700_000_000);
    }

    #[test]
    fn finish_request_feeds_all_aggregates() {
        let t = Telemetry::new(0, 8); // threshold 0: everything is "slow"
        traced_request(&t, "echo.echo", [1, 2, 3, 4, 5, 6]);
        traced_request(&t, "echo.echo", [1, 2, 3, 4, 5, 6]);
        traced_request(&t, "system.ping", [1, 0, 0, 1, 1, 1]);

        assert_eq!(t.http.requests.get(), 3);
        let methods = t.methods_snapshot();
        assert_eq!(methods.len(), 2);
        assert_eq!(methods[0].0, "echo.echo");
        assert_eq!(methods[0].1.calls.get(), 2);
        let protocols = t.protocols_snapshot();
        assert_eq!(protocols[0], ("xmlrpc", 3, 0));
        assert_eq!(t.trace_tail(10).len(), 3);
        let phases = t.phase_snapshots();
        assert_eq!(phases.len(), PHASE_COUNT + 1);
        assert_eq!(phases[0].0, "parse");
        assert_eq!(phases[0].1.count, 3);
        // The auth phase was 0 for ping, so only two samples.
        assert_eq!(phases[1].1.count, 2);
        assert_eq!(phases.last().unwrap().0, "total");
        assert_eq!(phases.last().unwrap().1.count, 3);
    }

    #[test]
    fn fault_and_5xx_accounting() {
        let t = Telemetry::enabled();
        let mut trace = t.begin_request();
        trace.method = Some("file.read".into());
        trace.protocol = Some("soap");
        trace.status = 500;
        trace.fault = true;
        t.finish_request(&trace, 0);
        assert_eq!(t.http.responses_5xx.get(), 1);
        assert_eq!(t.methods_snapshot()[0].1.faults.get(), 1);
        let soap = t
            .protocols_snapshot()
            .into_iter()
            .find(|(n, _, _)| *n == "soap")
            .unwrap();
        assert_eq!((soap.1, soap.2), (1, 1));
    }

    #[test]
    fn gauges_and_rendering() {
        let t = Telemetry::enabled();
        t.register_gauge("db.lookups", || 41);
        t.register_gauge("cache.sessions.hits", || 7);
        assert_eq!(t.gauge("db.lookups"), Some(41));
        assert_eq!(t.gauge("missing"), None);
        traced_request(&t, "echo.echo", [1, 1, 1, 1, 1, 1]);

        t.resilience.deadline_exceeded.inc();
        t.resilience.retries.inc();
        let text = t.render_prometheus();
        assert!(text.contains("clarens_requests_total 1"));
        assert!(text.contains("clarens_deadline_exceeded_total 1"));
        assert!(text.contains("clarens_retries_total 1"));
        assert!(text.contains("clarens_degraded_rejects_total 0"));
        assert!(text.contains("clarens_db_lookups 41"));
        assert!(text.contains("clarens_cache_sessions_hits 7"));
        assert!(text.contains("clarens_method_calls_total{method=\"echo.echo\"} 1"));
        assert!(text.contains("clarens_phase_latency_us{phase=\"parse\",quantile=\"0.5\"}"));
        assert!(text.contains("clarens_protocol_requests_total{protocol=\"xmlrpc\"} 1"));
    }

    #[test]
    fn federation_counters_render() {
        let t = Telemetry::enabled();
        let text = t.render_prometheus();
        assert!(text.contains("clarens_forwarded_calls_total 0"));
        // The forward histogram only renders once something was forwarded.
        assert!(!text.contains("clarens_forward_latency_us"));
        t.federation.forwarded.inc();
        t.federation.forward_us.record(1234);
        t.federation.replication_chunks.inc();
        t.federation.elections.inc();
        t.federation.fenced_writes.inc();
        t.federation.replication_fetch_errors.inc();
        let text = t.render_prometheus();
        assert!(text.contains("clarens_forwarded_calls_total 1"));
        assert!(text.contains("clarens_replication_chunks_total 1"));
        assert!(text.contains("clarens_elections_total 1"));
        assert!(text.contains("clarens_demotions_total 0"));
        assert!(text.contains("clarens_fenced_writes_total 1"));
        assert!(text.contains("clarens_replication_fetch_errors_total 1"));
        assert!(text.contains("clarens_forward_latency_us_count{span=\"forward\"} 1"));
    }

    #[test]
    fn slow_threshold_gates_ring() {
        let t = Telemetry::new(u64::MAX, 8);
        traced_request(&t, "echo.echo", [1, 1, 1, 1, 1, 1]);
        assert_eq!(t.trace_tail(10).len(), 0);
        t.set_slow_threshold_us(0);
        assert_eq!(t.slow_threshold_us(), 0);
        traced_request(&t, "echo.echo", [1, 1, 1, 1, 1, 1]);
        assert_eq!(t.trace_tail(10).len(), 1);
    }
}
