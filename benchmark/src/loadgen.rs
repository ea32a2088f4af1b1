//! The fixed load generator: one sender thread per connection, closed or
//! open loop, every response checked, every latency kept.
//!
//! Open loop: each connection follows its own Poisson schedule. A request
//! whose turn has passed goes out at once, and its latency is counted from
//! when it was *due*, so a server stall shows up in every request it
//! delayed (no coordinated omission).

use std::io;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::deploy::{Env, ImNotes};
use crate::http::Client;
use crate::plan::{Design, Mode, Op, CONNS};
use crate::rng::Rng64;
use crate::stats::{Histogram, Tail};
use crate::trace::{Recorder, Span};

/// A send this long after its due time counts as late.
const LATE: Duration = Duration::from_millis(1);

/// What the generator needs from the system under load. [`Env`] is the
/// real one; the generator's own tests drive a scripted server.
pub trait Target: Sync {
    fn mode(&self) -> Mode;
    fn reconnect_every(&self) -> Option<u64>;
    fn connect(&self, handshake_seed: u64) -> io::Result<Client>;
    fn next_op(&self, rng: &mut Rng64, conn: u32) -> Op;
    fn assemble(&self, op: Op, out: &mut Vec<u8>);
    /// (request body bytes, keep the response body, operation kind)
    fn shape(&self, op: Op) -> (u64, bool, u8);
    fn verify(&self, op: Op, status: u16, body: &[u8], body_len: u64, notes: &mut ImNotes) -> bool;
}

impl Target for Env {
    fn mode(&self) -> Mode {
        self.design.mode
    }

    fn reconnect_every(&self) -> Option<u64> {
        self.design.reconnect_every
    }

    fn connect(&self, handshake_seed: u64) -> io::Result<Client> {
        Env::connect(self, handshake_seed)
    }

    fn next_op(&self, rng: &mut Rng64, conn: u32) -> Op {
        self.design.op(rng, conn)
    }

    fn assemble(&self, op: Op, out: &mut Vec<u8>) {
        Env::assemble(self, op, out)
    }

    fn shape(&self, op: Op) -> (u64, bool, u8) {
        let t = &self.templates[op.call as usize];
        (t.request_body_len, t.keep_body, t.kind)
    }

    fn verify(&self, op: Op, status: u16, body: &[u8], body_len: u64, notes: &mut ImNotes) -> bool {
        Env::verify(self, op, status, body, body_len, notes)
    }
}

#[derive(Default)]
pub struct ConnOutcome {
    /// Latencies of correct operations, one histogram per operation kind.
    /// Closed loop: send to last byte. Open loop: due time to last byte.
    pub latencies: Vec<Histogram>,
    pub attempted: u64,
    pub failed: u64,
    /// Request plus response *body* bytes of correct operations.
    pub payload_bytes: u64,
    /// Open loop: sends that left more than [`LATE`] after they were due.
    pub late: u64,
    pub notes: ImNotes,
    pub spans: Vec<Span>,
    pub end_ns: u64,
    /// CPU this sender thread used inside the window.
    pub sender_cpu_s: f64,
    pub first_error: Option<String>,
}

pub struct Window {
    pub conns: Vec<ConnOutcome>,
    /// From the start barrier to the last connection's last byte.
    pub elapsed_s: f64,
    /// User + system CPU over the window of every thread but the senders:
    /// the server side of the process.
    pub cpu_s: f64,
    /// Allocation events and bytes on non-generator threads (traced only).
    pub allocs: (u64, u64),
}

/// `struct timespec` as 64-bit Linux lays it out.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// User + system CPU time so far of the whole process or of the calling
/// thread, from the scheduler's nanosecond accounting (`/proc/self/stat`
/// reports the same sum in 10 ms ticks).
fn cpu_s(clock: i32) -> f64 {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a live, writable `timespec`; both clock ids exist
    // on every Linux this runs on.
    if unsafe { clock_gettime(clock, &mut time) } != 0 {
        return 0.0;
    }
    time.sec as f64 + time.nsec as f64 / 1e9
}

/// Wait for a due time without ever sleeping: poll the clock and offer the
/// CPU to any other runnable thread on every poll. A sleeping sender makes
/// its vCPU halt, and on a 2-vCPU virtual machine the latency then measured
/// is the hypervisor's wake-up time (p50 moved between 112 and 224 us from
/// run to run); yielding keeps both vCPUs awake and costs the server
/// nothing it can use.
fn wait_until(epoch: Instant, due: Duration) {
    while epoch.elapsed() < due {
        std::thread::yield_now();
    }
}

fn drive<T: Target>(
    target: &T,
    conn: u32,
    mut rng: Rng64,
    window: Duration,
    traced: bool,
    start: &Barrier,
) -> ConnOutcome {
    alloc::exempt_current_thread();
    let mut out = ConnOutcome::default();
    let handshake_seed = rng.next_u64();
    let mut client = target.connect(handshake_seed);
    // Once everyone is connected, both CPU clocks are read while all
    // threads sit between the two barrier waits, so no thread's first
    // timeslice falls between the readings.
    start.wait();
    let cpu_before = cpu_s(CLOCK_THREAD_CPUTIME_ID);
    start.wait();
    let epoch = Instant::now();
    let mut recorder = traced.then(|| Recorder::new(epoch));
    let mut request = Vec::new();
    let mut body = Vec::new();
    let mut due = Duration::ZERO;
    let mut index = 0u64;
    loop {
        let op = target.next_op(&mut rng, conn);
        let reference = match target.mode() {
            Mode::Closed => {
                let now = epoch.elapsed();
                if now >= window {
                    break;
                }
                now
            }
            Mode::Open { .. } => {
                due += Duration::from_nanos(op.gap_ns);
                if due >= window {
                    break;
                }
                wait_until(epoch, due);
                if epoch.elapsed() - due > LATE {
                    out.late += 1;
                }
                due
            }
        };
        out.attempted += 1;
        let (request_body_len, keep_body, kind) = target.shape(op);
        let reconnect = target
            .reconnect_every()
            .is_some_and(|every| index % every == every - 1);
        index += 1;

        let begun = Instant::now();
        let exchange = (|| -> io::Result<_> {
            if reconnect || client.is_err() {
                // Close before reopening: a secure connection holds a
                // server worker until it is gone.
                client = Err(io::Error::other("reconnecting"));
                client = target.connect(handshake_seed.wrapping_add(index));
            }
            let c = client
                .as_mut()
                .map_err(|e| io::Error::new(e.kind(), e.to_string()))?;
            target.assemble(op, &mut request);
            c.send(&request)?;
            let sent = Instant::now();
            let head = c.read_head()?;
            c.read_body(head.content_length, keep_body.then_some(&mut body))?;
            Ok((sent, head, Instant::now()))
        })();
        let (sent, head, received) = match exchange {
            Ok(parts) => parts,
            Err(e) => {
                out.failed += 1;
                out.first_error
                    .get_or_insert_with(|| format!("connection {conn}: {e}"));
                client = Err(e);
                continue;
            }
        };
        let kept: &[u8] = if keep_body { &body } else { &[] };
        let correct = target.verify(op, head.status, kept, head.content_length, &mut out.notes);
        if let Some(rec) = recorder.as_mut() {
            let request_id = (conn as u64) << 48 | index;
            let verified = Instant::now();
            let parent = rec.closed("client.request", request_id, 0, begun, verified);
            rec.closed("client.write", request_id, parent, begun, sent);
            rec.closed(
                "client.wait_first_byte",
                request_id,
                parent,
                sent,
                head.first_byte,
            );
            rec.closed(
                "client.read_body",
                request_id,
                parent,
                head.first_byte,
                received,
            );
            rec.closed("client.verify", request_id, parent, received, verified);
        }
        if correct {
            let latency = received.duration_since(epoch) - reference;
            if out.latencies.len() <= kind as usize {
                out.latencies
                    .resize_with(kind as usize + 1, Histogram::default);
            }
            out.latencies[kind as usize].record(latency.as_nanos() as u64);
            out.payload_bytes += request_body_len + head.content_length;
        } else {
            out.failed += 1;
            out.first_error.get_or_insert_with(|| {
                format!(
                    "connection {conn}: wrong response (status {}) to call {}",
                    head.status, op.call
                )
            });
        }
        if !head.keep_alive {
            client = Err(io::Error::other("server closed the connection"));
        }
    }
    out.end_ns = epoch.elapsed().as_nanos() as u64;
    out.sender_cpu_s = cpu_s(CLOCK_THREAD_CPUTIME_ID) - cpu_before;
    out.spans = recorder.map(|r| r.spans).unwrap_or_default();
    out
}

/// Run one window of load: [`CONNS`] sender threads for `seconds`.
/// `stream` selects the schedule (the measured window and the warm-up use
/// different ones).
pub fn run<T: Target>(target: &T, seed: u64, stream: u64, seconds: f64, traced: bool) -> Window {
    let window = Duration::from_secs_f64(seconds);
    let start = Barrier::new(CONNS as usize + 1);
    std::thread::scope(|scope| {
        let senders: Vec<_> = (0..CONNS)
            .map(|conn| {
                let rng = Design::schedule_rng(seed, stream, conn);
                let start = &start;
                scope.spawn(move || drive(target, conn, rng, window, traced, start))
            })
            .collect();
        let allocs_before = alloc::snapshot();
        alloc::set_counting(traced);
        start.wait();
        let cpu_before = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
        start.wait();
        let conns: Vec<ConnOutcome> = senders
            .into_iter()
            .map(|s| s.join().expect("sender thread panicked"))
            .collect();
        alloc::set_counting(false);
        let allocs_after = alloc::snapshot();
        Window {
            elapsed_s: conns.iter().map(|c| c.end_ns).max().unwrap_or(0) as f64 / 1e9,
            cpu_s: cpu_s(CLOCK_PROCESS_CPUTIME_ID)
                - cpu_before
                - conns.iter().map(|c| c.sender_cpu_s).sum::<f64>(),
            allocs: (
                allocs_after.0 - allocs_before.0,
                allocs_after.1 - allocs_before.1,
            ),
            conns,
        }
    })
}

/// The numbers a window boils down to.
#[derive(Debug, Clone)]
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    pub correct: u64,
    pub ops_per_s: f64,
    pub payload_mb_per_s: f64,
    pub p50_us: f64,
    /// The 99th percentile, or the highest the sample supports.
    pub p99: Tail,
    pub cpu_us_per_op: f64,
    pub late_frac: f64,
    pub first_error: Option<String>,
}

impl Window {
    /// Latencies of correct operations; all kinds or one.
    pub fn latencies(&self, kind: Option<u8>) -> Histogram {
        let mut all = Histogram::default();
        for conn in &self.conns {
            for (k, histogram) in conn.latencies.iter().enumerate() {
                if kind.is_none_or(|wanted| wanted as usize == k) {
                    all.merge(histogram);
                }
            }
        }
        all
    }

    pub fn summary(&self) -> Summary {
        let attempted: u64 = self.conns.iter().map(|c| c.attempted).sum();
        let failed: u64 = self.conns.iter().map(|c| c.failed).sum();
        let late: u64 = self.conns.iter().map(|c| c.late).sum();
        let payload: u64 = self.conns.iter().map(|c| c.payload_bytes).sum();
        let latencies = self.latencies(None);
        let correct = latencies.len() as u64;
        Summary {
            attempted,
            failed,
            correct,
            ops_per_s: correct as f64 / self.elapsed_s,
            payload_mb_per_s: payload as f64 / 1e6 / self.elapsed_s,
            p50_us: latencies.percentile(0.5) as f64 / 1e3,
            p99: latencies.tail(0.99),
            cpu_us_per_op: self.cpu_s * 1e6 / correct.max(1) as f64,
            late_frac: late as f64 / attempted.max(1) as f64,
            first_error: self.conns.iter().find_map(|c| c.first_error.clone()),
        }
    }
}

#[cfg(test)]
impl Summary {
    /// (errors + refused + wrong body) ÷ attempted.
    fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{request_head, testing::fake_server};

    /// A target over the scripted server: one fixed request, one expected
    /// body.
    struct Fake {
        addr: String,
        mode: Mode,
        expected: &'static [u8],
    }

    impl Target for Fake {
        fn mode(&self) -> Mode {
            self.mode
        }
        fn reconnect_every(&self) -> Option<u64> {
            None
        }
        fn connect(&self, _seed: u64) -> io::Result<Client> {
            Client::connect(&self.addr)
        }
        fn next_op(&self, rng: &mut Rng64, _conn: u32) -> Op {
            let gap = rng.unit();
            let gap_ns = match self.mode {
                Mode::Closed => 0,
                Mode::Open { rate_per_conn } => (-(1.0 - gap).ln() * 1e9 / rate_per_conn) as u64,
            };
            Op {
                call: 0,
                session: 0,
                gap_ns,
            }
        }
        fn assemble(&self, _op: Op, out: &mut Vec<u8>) {
            *out = request_head("POST", "/x", Some("text/plain"), Some(2), false);
            out.extend_from_slice(b"\r\nhi");
        }
        fn shape(&self, _op: Op) -> (u64, bool, u8) {
            (2, true, 0)
        }
        fn verify(&self, _op: Op, status: u16, body: &[u8], _len: u64, _n: &mut ImNotes) -> bool {
            status == 200 && body == self.expected
        }
    }

    #[test]
    fn a_wrong_expected_body_fails_every_operation() {
        let (addr, server) = fake_server(CONNS as usize, b"right", None, Duration::ZERO);
        let fake = Fake {
            addr,
            mode: Mode::Closed,
            expected: b"wrong",
        };
        let summary = run(&fake, 1, 0, 0.2, false).summary();
        server.join().unwrap();
        assert!(summary.attempted > 10);
        assert_eq!(summary.fail_frac(), 1.0);
        assert_eq!(summary.correct, 0);
        assert!(summary.first_error.unwrap().contains("wrong response"));
        // main() turns any failed operation into a non-zero exit.
        assert_ne!(crate::exit_code(summary.failed, 0), 0);
        assert_eq!(crate::exit_code(0, 0), 0);
    }

    #[test]
    fn correct_bodies_pass_and_count_payload() {
        let (addr, server) = fake_server(CONNS as usize, b"right", None, Duration::ZERO);
        let fake = Fake {
            addr,
            mode: Mode::Closed,
            expected: b"right",
        };
        let window = run(&fake, 1, 0, 0.2, true);
        server.join().unwrap();
        let summary = window.summary();
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.correct, summary.attempted);
        let payload: u64 = window.conns.iter().map(|c| c.payload_bytes).sum();
        assert_eq!(payload, summary.correct * 7);
        // Five client-side spans per request, all under one request id.
        let spans = &window.conns[0].spans;
        assert_eq!(spans.len() as u64, window.conns[0].attempted * 5);
        assert!(spans[1..5]
            .iter()
            .all(|s| s.parent == spans[0].id && s.request == spans[0].request));
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_it_delays() {
        // 600 requests/s per connection for one second; the server sits on
        // request 100 of each connection for 200 ms. About 120 requests per
        // connection fall due during the stall and must all report it.
        let stall = Duration::from_millis(200);
        let (addr, server) = fake_server(CONNS as usize, b"ok", Some(100), stall);
        let fake = Fake {
            addr,
            mode: Mode::Open {
                rate_per_conn: 600.0,
            },
            expected: b"ok",
        };
        let window = run(&fake, 7, 0, 1.0, false);
        server.join().unwrap();
        let summary = window.summary();
        assert_eq!(summary.failed, 0);
        assert!(summary.correct > 1000, "{summary:?}");
        // Measured from the send instead of the due time, only one request
        // per connection would be slow and p99 would stay in microseconds.
        assert_eq!(summary.p99.p, 0.99);
        assert!(
            summary.p99.value > 150_000_000,
            "p99 {} ns",
            summary.p99.value
        );
        assert!(summary.p50_us < 50_000.0, "p50 {} us", summary.p50_us);
        assert!(
            summary.late_frac > 0.05 && summary.late_frac < 0.4,
            "{}",
            summary.late_frac
        );
    }
}
