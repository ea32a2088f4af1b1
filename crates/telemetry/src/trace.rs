//! Request-scoped trace spans and the slow-request ring.
//!
//! A [`RequestTrace`] rides along with one HTTP request through the whole
//! pipeline the paper describes (accept → parse → session check → ACL walk
//! → dispatch → serialize → write). Each layer times its own phase; the
//! HTTP layer finishes the trace, which feeds the phase histograms, the
//! per-method table, and — when the request was slow — a fixed-size ring
//! buffer that `system.trace_tail` dumps for post-hoc debugging.

use std::time::Instant;

use parking_lot::Mutex;

/// Pipeline phases, in request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Socket read + HTTP and RPC-envelope parsing.
    Parse = 0,
    /// Session resolution (the paper's first access check).
    Auth = 1,
    /// Method/file ACL walk (the second access check).
    Acl = 2,
    /// Service dispatch (the method body itself).
    Dispatch = 3,
    /// Response encoding to the negotiated protocol.
    Serialize = 4,
    /// Socket write of the response.
    Write = 5,
}

/// Number of phases.
pub const PHASE_COUNT: usize = 6;

/// Phase names, indexable by `Phase as usize`.
pub const PHASE_NAMES: [&str; PHASE_COUNT] =
    ["parse", "auth", "acl", "dispatch", "serialize", "write"];

/// One request's trace, filled in as the request moves through the layers.
#[derive(Debug)]
pub struct RequestTrace {
    /// Start of the request window (`None` for a [`RequestTrace::disabled`]
    /// trace).
    t0: Option<Instant>,
    /// Accumulated microseconds per phase.
    pub phase_us: [u64; PHASE_COUNT],
    /// The registered `module.method` the gate found (RPC) or a synthetic
    /// name like `http.get`; `None` when the request named no exported
    /// method.
    pub method: Option<String>,
    /// Negotiated protocol name (`xmlrpc`/`soap`/`jsonrpc`/`binary`).
    pub protocol: Option<&'static str>,
    /// HTTP status of the response.
    pub status: u16,
    /// Did the RPC produce a fault response?
    pub fault: bool,
}

impl RequestTrace {
    /// Start a timed trace.
    pub fn start() -> RequestTrace {
        RequestTrace {
            t0: Some(Instant::now()),
            ..RequestTrace::disabled()
        }
    }

    /// A trace that records nothing, for a server with no telemetry plane
    /// attached: every span is a plain call, no clock reads.
    pub fn disabled() -> RequestTrace {
        RequestTrace {
            t0: None,
            phase_us: [0; PHASE_COUNT],
            method: None,
            protocol: None,
            status: 0,
            fault: false,
        }
    }

    /// Is span timing active?
    #[inline]
    pub fn timing(&self) -> bool {
        self.t0.is_some()
    }

    /// Run `f`, attributing its wall time to `phase`.
    #[inline]
    pub fn span<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        if self.t0.is_none() {
            return f();
        }
        let start = Instant::now();
        let result = f();
        self.phase_us[phase as usize] += start.elapsed().as_micros() as u64;
        result
    }

    /// Attribute externally-measured microseconds to `phase`.
    #[inline]
    pub fn add_us(&mut self, phase: Phase, us: u64) {
        if self.t0.is_some() {
            self.phase_us[phase as usize] += us;
        }
    }

    /// Total microseconds since the trace started (0 when disabled).
    pub fn total_us(&self) -> u64 {
        self.t0.map(|t| t.elapsed().as_micros() as u64).unwrap_or(0)
    }

    /// Sum of all recorded phase times.
    pub fn phase_sum_us(&self) -> u64 {
        self.phase_us.iter().sum()
    }
}

/// A completed slow request, as stored in the ring.
#[derive(Debug, Clone)]
pub struct SlowTrace {
    /// Monotonic sequence number (total slow requests so far).
    pub seq: u64,
    /// Unix time the request finished.
    pub unix_time: i64,
    /// Dispatched method, if routing got that far.
    pub method: Option<String>,
    /// Protocol name.
    pub protocol: Option<&'static str>,
    /// HTTP status.
    pub status: u16,
    /// RPC fault?
    pub fault: bool,
    /// Total request microseconds.
    pub total_us: u64,
    /// Per-phase microseconds.
    pub phase_us: [u64; PHASE_COUNT],
}

struct RingInner {
    /// Next sequence number == total pushes so far.
    seq: u64,
    slots: Vec<SlowTrace>,
}

/// Fixed-capacity ring of the most recent slow requests. Pushes only
/// happen for requests over the slow threshold, so the mutex is far off
/// the common hot path.
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl TraceRing {
    /// Ring holding the `capacity` most recent entries.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner {
                seq: 0,
                slots: Vec::new(),
            }),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total entries ever pushed (≥ current length once wrapped).
    pub fn pushed(&self) -> u64 {
        self.inner.lock().seq
    }

    /// Append, overwriting the oldest entry when full.
    pub fn push(&self, mut trace: SlowTrace) {
        let mut inner = self.inner.lock();
        trace.seq = inner.seq;
        if inner.slots.len() < self.capacity {
            inner.slots.push(trace);
        } else {
            let at = (inner.seq % self.capacity as u64) as usize;
            inner.slots[at] = trace;
        }
        inner.seq += 1;
    }

    /// The most recent `limit` entries, newest first.
    pub fn tail(&self, limit: usize) -> Vec<SlowTrace> {
        let inner = self.inner.lock();
        let mut out = inner.slots.clone();
        out.sort_by_key(|t| std::cmp::Reverse(t.seq));
        out.truncate(limit);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow(total_us: u64) -> SlowTrace {
        SlowTrace {
            seq: 0,
            unix_time: 0,
            method: Some("echo.echo".into()),
            protocol: Some("xmlrpc"),
            status: 200,
            fault: false,
            total_us,
            phase_us: [0; PHASE_COUNT],
        }
    }

    /// Satellite requirement: phase spans nest inside the request window,
    /// so the phase sum never exceeds the total, and phases only grow.
    #[test]
    fn span_timing_monotonic() {
        let mut trace = RequestTrace::start();
        trace.span(Phase::Parse, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let after_parse = trace.phase_us[Phase::Parse as usize];
        assert!(after_parse >= 1_000, "parse span recorded {after_parse}µs");
        trace.span(Phase::Dispatch, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        trace.span(Phase::Parse, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(trace.phase_us[Phase::Parse as usize] > after_parse);
        let total = trace.total_us();
        assert!(trace.phase_sum_us() <= total, "phases exceed total");
        assert!(total >= 5_000);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = RequestTrace::disabled();
        assert!(!trace.timing());
        let out = trace.span(Phase::Dispatch, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            7
        });
        assert_eq!(out, 7);
        trace.add_us(Phase::Write, 123);
        assert_eq!(trace.phase_sum_us(), 0);
        assert_eq!(trace.total_us(), 0);
    }

    /// Satellite requirement: ring wraparound keeps exactly the newest
    /// `capacity` entries.
    #[test]
    fn ring_wraparound() {
        let ring = TraceRing::new(4);
        for i in 0..11u64 {
            ring.push(slow(i));
        }
        assert_eq!(ring.pushed(), 11);
        let tail = ring.tail(10);
        assert_eq!(tail.len(), 4);
        // Newest first: totals 10, 9, 8, 7.
        let totals: Vec<u64> = tail.iter().map(|t| t.total_us).collect();
        assert_eq!(totals, vec![10, 9, 8, 7]);
        // Limited tail.
        assert_eq!(ring.tail(2).len(), 2);
        assert_eq!(ring.tail(2)[0].total_us, 10);
    }

    #[test]
    fn ring_below_capacity() {
        let ring = TraceRing::new(8);
        ring.push(slow(1));
        ring.push(slow(2));
        let tail = ring.tail(10);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].total_us, 2);
        assert_eq!(ring.capacity(), 8);
    }
}
