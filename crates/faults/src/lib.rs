//! Named failpoints for deterministic fault injection.
//!
//! Production binaries compile every injection site in, but a disabled
//! site costs exactly one relaxed atomic load (the global arming word) —
//! no map lookup, no branch on a lock. Sites are armed either
//! programmatically (tests use the RAII [`Guard`] from [`with`]) or from
//! the environment:
//!
//! ```text
//! CLARENS_FAULTS='db.wal.fsync=err;httpd.read=delay:5ms|p=0.1;db.wal.append=short:3|times=2'
//! ```
//!
//! Grammar: `;`-separated `site=spec` pairs. A spec is `|`-separated
//! clauses:
//!
//! * `err` — fail the operation with an injected [`io::Error`]
//!   (recognizable via [`is_injected`]).
//! * `delay:5ms` — sleep before continuing (suffixes `us`/`ms`/`s`;
//!   a bare number means milliseconds).
//! * `short:N` — for write sites: pretend only `N` bytes were written.
//! * `p=0.5` — trigger probabilistically. The per-site RNG is seeded from
//!   `CLARENS_FAULTS_SEED` (default 0) plus the site name, so a given
//!   schedule replays identically.
//! * `times=N` — trigger at most `N` times, then go quiet (models
//!   transient faults that a retry should absorb).
//!
//! Clauses compose: `delay:2ms|err|p=0.1|times=5` sleeps then errors on
//! at most five of ~10% of evaluations. Every trigger increments a global
//! and a per-site counter so telemetry (and the chaos harness) can report
//! exactly how many faults were injected.

#![forbid(unsafe_code)]

use std::io;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::RwLock;

/// Outcome of evaluating an armed site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Injected {
    /// Fail the operation with an injected error.
    Err,
    /// Pretend a write consumed only this many bytes.
    ShortWrite(usize),
    /// The site only delayed (the sleep already happened in [`eval`]).
    Delayed,
}

/// Parsed spec for one site.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Spec {
    delay: Option<Duration>,
    kind: Kind,
    /// Probability in parts-per-million (1_000_000 = always).
    p_ppm: u32,
    /// Trigger budget; `None` = unlimited.
    times: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Delay only (no terminal action).
    None,
    Err,
    Short(usize),
}

struct Site {
    spec: Spec,
    /// Remaining trigger budget (negative once exhausted); i64::MAX when
    /// unlimited.
    remaining: AtomicI64,
    /// xorshift state for `p=` decisions.
    rng: AtomicU64,
    /// Number of times this site actually triggered.
    hits: AtomicU64,
    /// When set, the site only triggers on this thread. Unit tests arm
    /// sites thread-scoped so parallel tests in the same binary cannot
    /// trip each other's faults; sites evaluated on server worker threads
    /// need process-wide arming instead.
    scope: Option<std::thread::ThreadId>,
}

/// Global arming word. Bit 0: environment scanned. Bits 1..: number of
/// armed sites. The disabled fast path is therefore `load == 1`
/// (env scanned, nothing armed) — a single relaxed load.
static STATE: AtomicU32 = AtomicU32::new(0);
const ENV_SCANNED: u32 = 1;
const SITE_UNIT: u32 = 2;

static INJECTED_TOTAL: AtomicU64 = AtomicU64::new(0);

static REGISTRY: RwLock<Vec<(String, Site)>> = RwLock::new(Vec::new());

fn seed_for(site: &str) -> u64 {
    let base: u64 = std::env::var("CLARENS_FAULTS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    // FNV-1a over the site name, mixed with the schedule seed, so two
    // sites never share an RNG stream.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ base.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1
}

fn parse_duration(s: &str) -> Result<Duration, String> {
    let (digits, mult_us) = if let Some(d) = s.strip_suffix("us") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000)
    } else {
        (s, 1_000)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad duration {s:?} (want e.g. 5ms, 100us, 2s)"))?;
    Ok(Duration::from_micros(n * mult_us))
}

fn parse_spec(spec: &str) -> Result<Spec, String> {
    let mut out = Spec {
        delay: None,
        kind: Kind::None,
        p_ppm: 1_000_000,
        times: None,
    };
    for clause in spec.split('|') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        if clause == "err" {
            out.kind = Kind::Err;
        } else if let Some(d) = clause.strip_prefix("delay:") {
            out.delay = Some(parse_duration(d)?);
        } else if let Some(n) = clause.strip_prefix("short:") {
            let n = n
                .parse()
                .map_err(|_| format!("bad short-write length {n:?}"))?;
            out.kind = Kind::Short(n);
        } else if let Some(p) = clause.strip_prefix("p=") {
            let p: f64 = p.parse().map_err(|_| format!("bad probability {p:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} out of [0,1]"));
            }
            out.p_ppm = (p * 1_000_000.0) as u32;
        } else if let Some(n) = clause
            .strip_prefix("times=")
            .or(clause.strip_prefix("times:"))
        {
            out.times = Some(n.parse().map_err(|_| format!("bad times count {n:?}"))?);
        } else {
            return Err(format!("unknown failpoint clause {clause:?}"));
        }
    }
    Ok(out)
}

fn ensure_env_scanned() {
    if STATE.load(Ordering::Relaxed) & ENV_SCANNED != 0 {
        return;
    }
    let mut registry = REGISTRY.write();
    // Re-check under the lock so the scan happens exactly once.
    if STATE.load(Ordering::Relaxed) & ENV_SCANNED != 0 {
        return;
    }
    if let Ok(schedule) = std::env::var("CLARENS_FAULTS") {
        for pair in schedule.split(';') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let Some((site, spec)) = pair.split_once('=') else {
                eprintln!("CLARENS_FAULTS: ignoring malformed entry {pair:?}");
                continue;
            };
            match parse_spec(spec) {
                Ok(spec) => install(&mut registry, site.trim(), spec, None),
                Err(e) => eprintln!("CLARENS_FAULTS: {site}: {e}"),
            }
        }
    }
    STATE.fetch_or(ENV_SCANNED, Ordering::SeqCst);
}

fn install(
    registry: &mut Vec<(String, Site)>,
    name: &str,
    spec: Spec,
    scope: Option<std::thread::ThreadId>,
) {
    let site = Site {
        remaining: AtomicI64::new(spec.times.map_or(i64::MAX, |t| t as i64)),
        rng: AtomicU64::new(seed_for(name)),
        hits: AtomicU64::new(0),
        spec,
        scope,
    };
    if let Some(slot) = registry.iter_mut().find(|(n, _)| n == name) {
        slot.1 = site;
    } else {
        registry.push((name.to_owned(), site));
        STATE.fetch_add(SITE_UNIT, Ordering::SeqCst);
    }
}

/// Arm `site` with `spec` (same grammar as `CLARENS_FAULTS` values).
pub fn configure(site: &str, spec: &str) -> Result<(), String> {
    let spec = parse_spec(spec)?;
    ensure_env_scanned();
    install(&mut REGISTRY.write(), site, spec, None);
    Ok(())
}

/// Arm `site` so it only triggers on the calling thread.
pub fn configure_thread(site: &str, spec: &str) -> Result<(), String> {
    let spec = parse_spec(spec)?;
    ensure_env_scanned();
    install(
        &mut REGISTRY.write(),
        site,
        spec,
        Some(std::thread::current().id()),
    );
    Ok(())
}

/// Disarm one site.
pub fn clear(site: &str) {
    let mut registry = REGISTRY.write();
    if let Some(pos) = registry.iter().position(|(n, _)| n == site) {
        registry.remove(pos);
        STATE.fetch_sub(SITE_UNIT, Ordering::SeqCst);
    }
}

/// RAII activation: the site is disarmed when the guard drops. Tests use
/// this so a panic cannot leak an armed failpoint into the next test.
pub struct Guard {
    site: String,
}

impl Drop for Guard {
    fn drop(&mut self) {
        clear(&self.site);
    }
}

/// Arm `site` for the lifetime of the returned guard.
pub fn with(site: &str, spec: &str) -> Guard {
    configure(site, spec).unwrap_or_else(|e| panic!("failpoint {site}: {e}"));
    Guard {
        site: site.to_owned(),
    }
}

/// Arm `site` for the lifetime of the returned guard, triggering only on
/// the calling thread (safe under parallel test execution).
pub fn with_thread(site: &str, spec: &str) -> Guard {
    configure_thread(site, spec).unwrap_or_else(|e| panic!("failpoint {site}: {e}"));
    Guard {
        site: site.to_owned(),
    }
}

/// Evaluate a failpoint. Returns `None` (at the cost of one relaxed
/// atomic load) unless the site is armed and triggers.
#[inline]
pub fn eval(site: &str) -> Option<Injected> {
    let state = STATE.load(Ordering::Relaxed);
    if state == ENV_SCANNED {
        return None; // env scanned, nothing armed: the hot path.
    }
    eval_slow(site, state)
}

#[cold]
fn eval_slow(site: &str, state: u32) -> Option<Injected> {
    if state & ENV_SCANNED == 0 {
        ensure_env_scanned();
        if STATE.load(Ordering::Relaxed) == ENV_SCANNED {
            return None;
        }
    }
    let (delay, outcome) = {
        let registry = REGISTRY.read();
        let (_, armed) = registry.iter().find(|(n, _)| n == site)?;
        if armed
            .scope
            .is_some_and(|id| id != std::thread::current().id())
        {
            return None;
        }
        // Probability gate (deterministic xorshift64*).
        if armed.spec.p_ppm < 1_000_000 {
            let mut x = armed.rng.load(Ordering::Relaxed);
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            armed.rng.store(x, Ordering::Relaxed);
            if (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % 1_000_000) as u32 >= armed.spec.p_ppm {
                return None;
            }
        }
        // Trigger budget.
        if armed.remaining.fetch_sub(1, Ordering::SeqCst) <= 0 {
            return None;
        }
        armed.hits.fetch_add(1, Ordering::Relaxed);
        INJECTED_TOTAL.fetch_add(1, Ordering::Relaxed);
        let outcome = match armed.spec.kind {
            Kind::None => Injected::Delayed,
            Kind::Err => Injected::Err,
            Kind::Short(n) => Injected::ShortWrite(n),
        };
        (armed.spec.delay, outcome)
    };
    if let Some(d) = delay {
        std::thread::sleep(d);
    }
    Some(outcome)
}

/// Marker embedded in injected error messages, so resilience code and the
/// chaos harness can tell injected faults from real ones.
pub const INJECTED_MARKER: &str = "injected fault";

/// The error an `err` clause produces.
pub fn injected_error(site: &str) -> io::Error {
    io::Error::other(format!("{INJECTED_MARKER} at {site}"))
}

/// Was this error produced by a failpoint?
pub fn is_injected(err: &io::Error) -> bool {
    err.to_string().contains(INJECTED_MARKER)
}

/// Evaluate a site in an I/O path: `Ok(())` to proceed, `Err` on an
/// injected failure. `short:` clauses also map to an error here; write
/// loops that can honor them should call [`eval`] directly.
#[inline]
pub fn check_io(site: &str) -> io::Result<()> {
    match eval(site) {
        None | Some(Injected::Delayed) => Ok(()),
        Some(_) => Err(injected_error(site)),
    }
}

/// Total faults injected process-wide (for the `/metrics` gauge).
pub fn injected_total() -> u64 {
    INJECTED_TOTAL.load(Ordering::Relaxed)
}

/// Trigger count for one site (0 when never armed or never hit).
pub fn hits(site: &str) -> u64 {
    REGISTRY
        .read()
        .iter()
        .find(|(n, _)| n == site)
        .map_or(0, |(_, s)| s.hits.load(Ordering::Relaxed))
}

/// Catalog of compiled-in injection sites (kept here so DESIGN.md and the
/// chaos harness have one authoritative list to reference).
pub mod sites {
    /// `log::write_framed` payload write (every WAL append).
    pub const DB_WAL_APPEND: &str = "db.wal.append";
    /// `WalEngine` fsync (group commit and explicit sync).
    pub const DB_WAL_FSYNC: &str = "db.wal.fsync";
    /// Compaction's stop-the-world file swap (rename + epoch bump).
    pub const DB_COMPACT_SWAP: &str = "db.compact.swap";
    /// HTTP accept loop, per accepted connection.
    pub const HTTPD_ACCEPT: &str = "httpd.accept";
    /// HTTP request read path.
    pub const HTTPD_READ: &str = "httpd.read";
    /// HTTP response write path.
    pub const HTTPD_WRITE: &str = "httpd.write";
    /// Discovery UDP publish send.
    pub const DISCOVERY_UDP_SEND: &str = "discovery.udp.send";
    /// Discovery UDP station receive.
    pub const DISCOVERY_UDP_RECV: &str = "discovery.udp.recv";
    /// Session persistence write.
    pub const SESSION_PERSIST: &str = "session.persist";
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so tests that arm sites use unique
    // names and RAII guards to stay independent.

    #[test]
    fn disabled_site_is_none() {
        assert_eq!(eval("test.never-armed"), None);
        assert!(check_io("test.never-armed").is_ok());
    }

    #[test]
    fn err_spec_triggers_and_counts() {
        let before = injected_total();
        let _g = with("test.err", "err");
        assert_eq!(eval("test.err"), Some(Injected::Err));
        let e = check_io("test.err").unwrap_err();
        assert!(is_injected(&e), "{e}");
        assert_eq!(hits("test.err"), 2);
        assert!(injected_total() >= before + 2);
        drop(_g);
        assert_eq!(eval("test.err"), None);
    }

    #[test]
    fn times_budget_expires() {
        let _g = with("test.times", "err|times=2");
        assert_eq!(eval("test.times"), Some(Injected::Err));
        assert_eq!(eval("test.times"), Some(Injected::Err));
        assert_eq!(eval("test.times"), None);
        assert_eq!(eval("test.times"), None);
        assert_eq!(hits("test.times"), 2);
    }

    #[test]
    fn short_write_spec() {
        let _g = with("test.short", "short:3");
        assert_eq!(eval("test.short"), Some(Injected::ShortWrite(3)));
        // check_io maps it to an error for callers that can't do partials.
        assert!(check_io("test.short").is_err());
    }

    #[test]
    fn delay_spec_sleeps() {
        let _g = with("test.delay", "delay:20ms");
        let start = std::time::Instant::now();
        assert_eq!(eval("test.delay"), Some(Injected::Delayed));
        assert!(start.elapsed() >= Duration::from_millis(20));
        // Delay-only sites never fail check_io.
        assert!(check_io("test.delay").is_ok());
    }

    #[test]
    fn probability_is_deterministic_and_roughly_calibrated() {
        let _g = with("test.prob", "err|p=0.25");
        let run = || -> Vec<bool> { (0..400).map(|_| eval("test.prob").is_some()).collect() };
        let first = run();
        let triggered = first.iter().filter(|&&b| b).count();
        // 400 draws at p=0.25: expect ~100; allow a wide deterministic band.
        assert!(
            (50..=150).contains(&triggered),
            "p=0.25 triggered {triggered}/400"
        );
        // Re-arming resets the RNG to the same seed: identical schedule.
        clear("test.prob");
        let _g2 = with("test.prob", "err|p=0.25");
        assert_eq!(run(), first);
    }

    #[test]
    fn spec_parse_errors() {
        assert!(parse_spec("bogus").is_err());
        assert!(parse_spec("p=1.5").is_err());
        assert!(parse_spec("delay:xyz").is_err());
        assert!(parse_spec("short:q").is_err());
        assert!(parse_spec("times=x").is_err());
        assert!(configure("test.parse", "nope").is_err());
    }

    #[test]
    fn spec_composition_parses() {
        let s = parse_spec("delay:2ms|err|p=0.5|times=3").unwrap();
        assert_eq!(s.delay, Some(Duration::from_millis(2)));
        assert_eq!(s.kind, Kind::Err);
        assert_eq!(s.p_ppm, 500_000);
        assert_eq!(s.times, Some(3));
        // Bare number = ms; us and s suffixes.
        assert_eq!(
            parse_spec("delay:7").unwrap().delay,
            Some(Duration::from_millis(7))
        );
        assert_eq!(
            parse_spec("delay:100us").unwrap().delay,
            Some(Duration::from_micros(100))
        );
        assert_eq!(
            parse_spec("delay:1s").unwrap().delay,
            Some(Duration::from_secs(1))
        );
    }

    #[test]
    fn thread_scoped_site_is_invisible_to_other_threads() {
        let _g = with_thread("test.scoped", "err");
        assert_eq!(eval("test.scoped"), Some(Injected::Err));
        let other = std::thread::spawn(|| eval("test.scoped"));
        assert_eq!(other.join().unwrap(), None);
        // The budget was not consumed by the other thread's miss.
        assert_eq!(eval("test.scoped"), Some(Injected::Err));
    }

    #[test]
    fn reconfigure_replaces_spec() {
        let _g = with("test.reconf", "err");
        assert_eq!(eval("test.reconf"), Some(Injected::Err));
        configure("test.reconf", "short:1").unwrap();
        assert_eq!(eval("test.reconf"), Some(Injected::ShortWrite(1)));
    }
}
