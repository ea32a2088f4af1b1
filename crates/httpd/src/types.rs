//! HTTP message types.
//!
//! Clarens rides on plain HTTP/1.1: "The Apache server receives an HTTP
//! POST or GET request from the client" (paper §2). These types are shared
//! by the server and client halves of this crate.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::task::Waker;
use std::time::Instant;

use clarens_telemetry::RequestTrace;

use crate::scratch::Scratch;

/// Request method. Clarens uses GET (file/portal) and POST (RPC); the rest
/// are parsed so the server can answer 405 rather than 400.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// HTTP GET.
    Get,
    /// HTTP POST.
    Post,
    /// HTTP HEAD.
    Head,
    /// HTTP PUT.
    Put,
    /// HTTP DELETE.
    Delete,
    /// HTTP OPTIONS.
    Options,
}

impl Method {
    /// Parse from the request-line token.
    pub fn parse(token: &str) -> Option<Method> {
        match token {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "HEAD" => Some(Method::Head),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            "OPTIONS" => Some(Method::Options),
            _ => None,
        }
    }

    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Options => "OPTIONS",
        }
    }
}

/// Case-insensitive header map (last value wins; multi-value headers are
/// comma-joined by the parser).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    map: BTreeMap<String, String>,
}

impl Headers {
    /// Empty header set.
    pub fn new() -> Self {
        Headers::default()
    }

    /// Set a header (name is canonicalized to lowercase).
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.map.insert(name.to_ascii_lowercase(), value.into());
    }

    /// Get a header by case-insensitive name. Already-lowercase names
    /// (every internal caller) look up without allocating.
    pub fn get(&self, name: &str) -> Option<&str> {
        if name.bytes().any(|b| b.is_ascii_uppercase()) {
            self.map.get(&name.to_ascii_lowercase()).map(String::as_str)
        } else {
            self.map.get(name).map(String::as_str)
        }
    }

    /// Remove a header.
    pub fn remove(&mut self, name: &str) -> Option<String> {
        self.map.remove(&name.to_ascii_lowercase())
    }

    /// Iterate over `(name, value)` pairs (names lowercase).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Raw request target (path + optional `?query`).
    pub target: String,
    /// HTTP minor version (0 or 1; the major is always 1).
    pub minor_version: u8,
    /// Headers.
    pub headers: Headers,
    /// Decoded body (Content-Length and chunked both end up here).
    pub body: Vec<u8>,
}

impl Request {
    /// New request with sensible defaults (HTTP/1.1, no headers).
    pub fn new(method: Method, target: impl Into<String>) -> Self {
        Request {
            method,
            target: target.into(),
            minor_version: 1,
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// The path portion of the target.
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((p, _)) => p,
            None => &self.target,
        }
    }

    /// The query portion (empty when absent).
    pub fn query(&self) -> &str {
        match self.target.split_once('?') {
            Some((_, q)) => q,
            None => "",
        }
    }

    /// Does the client want the connection kept open afterwards?
    pub fn wants_keep_alive(&self) -> bool {
        match self.headers.get("connection").map(str::to_ascii_lowercase) {
            Some(c) if c.contains("close") => false,
            Some(c) if c.contains("keep-alive") => true,
            // HTTP/1.1 defaults to persistent connections; 1.0 to close.
            _ => self.minor_version >= 1,
        }
    }
}

/// Response body: in-memory bytes, a file segment, or a bare length (the
/// file service hands the network "I/O off to the web server" — §2.3 —
/// which we model by sending straight from the file handle, by
/// `sendfile(2)` on plaintext without touching userspace at all).
pub enum Body {
    /// Fully buffered body.
    Bytes(Vec<u8>),
    /// A segment of an open file. Eligible for the zero-copy `sendfile(2)`
    /// path on plaintext Linux sockets; elsewhere it is copied through a
    /// fixed buffer with positioned reads (the file cursor is never moved,
    /// so a parked writer can resume from its saved offset).
    File {
        /// The open file; only `[offset, offset + len)` is sent.
        file: std::fs::File,
        /// First byte of the segment (absolute file position).
        offset: u64,
        /// Segment length in bytes.
        len: u64,
    },
    /// A declared length with no byte source — for `HEAD` responses built
    /// from `stat()` metadata alone. Writing one with a body is a framing
    /// bug and fails rather than under-delivering.
    Sized(u64),
    /// A reply that waits off the worker: the connection parks on the
    /// event loop until the reply is ready or its deadline passes, and is
    /// then answered. The status and headers beside it are not sent.
    Held(Held),
}

/// A reply that waits (DESIGN.md §4 "Held replies"): a deadline, a cheap
/// readiness check and the code that produces the answer. The worker that
/// ran the handler returns at once; the event loop runs `ready` when it
/// takes the park and again on every wake, and dispatches the connection
/// once `ready` says so or `deadline` passes, whereupon a worker calls
/// `answer`. Whatever `ready` waits on must wake the waker it is given
/// when it changes ([`Watermark`]), so a wake is never lost and a
/// spurious one costs one more check.
pub struct Held {
    /// When the reply is answered, ready or not.
    pub deadline: Instant,
    /// Is the reply ready? Registers the waker with what it waits on.
    pub ready: Ready,
    /// The answer, given the request's trace (its latency includes the
    /// wait) and the worker's scratch arena.
    pub answer: Answer,
}

/// A [`Held`] reply's readiness check.
pub type Ready = Box<dyn FnMut(&Waker) -> bool + Send>;

/// What produces a [`Held`] reply's answer.
pub type Answer = Box<dyn FnOnce(&mut RequestTrace, &mut Scratch) -> Response + Send>;

/// A value that moves on, and the wakers of the held replies waiting for
/// it to: the one thing a [`Held`] reply waits on. A waker that waits
/// again before a move is kept once ([`Waker::will_wake`]), so a
/// connection whose held replies keep falling due at their deadlines
/// holds one entry: the list is bounded by the connections that waited
/// since the value last moved.
pub struct Watermark<T> {
    state: Mutex<(T, Vec<Waker>)>,
}

impl<T: Copy + Ord> Watermark<T> {
    /// A watermark at `value`, with nobody waiting.
    pub fn new(value: T) -> Watermark<T> {
        Watermark {
            state: Mutex::new((value, Vec::new())),
        }
    }

    /// The state, unpoisoned: no critical section panics midway.
    fn lock(&self) -> MutexGuard<'_, (T, Vec<Waker>)> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current value.
    pub fn get(&self) -> T {
        self.lock().0
    }

    /// `passed(value)`, registering `waker` (once) to be woken at the next
    /// move when it is false. Under the lock, so a move cannot fall
    /// between the test and the registration.
    pub fn check(&self, waker: &Waker, passed: impl FnOnce(T) -> bool) -> bool {
        let mut state = self.lock();
        let ready = passed(state.0);
        if !ready && !state.1.iter().any(|w| w.will_wake(waker)) {
            state.1.push(waker.clone());
        }
        ready
    }

    /// How many wakers wait on it.
    pub fn waiters(&self) -> usize {
        self.lock().1.len()
    }

    /// Raise the value to `value`, waking every waiter, if that is higher.
    pub fn raise(&self, value: T) {
        let mut state = self.lock();
        if value > state.0 {
            state.0 = value;
            drop(state);
            self.wake();
        }
    }

    /// Set the value, even lower, and wake every waiter.
    pub fn reset(&self, value: T) {
        self.lock().0 = value;
        self.wake();
    }

    /// Wake every waiter, the value unmoved: what their checks read
    /// besides it changed.
    pub fn wake(&self) {
        let waiters = std::mem::take(&mut self.lock().1);
        waiters.into_iter().for_each(Waker::wake);
    }
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Body::Bytes(b) => write!(f, "Body::Bytes({} bytes)", b.len()),
            Body::File { offset, len, .. } => {
                write!(f, "Body::File({len} bytes @ {offset})")
            }
            Body::Sized(len) => write!(f, "Body::Sized({len} bytes)"),
            Body::Held(held) => write!(f, "Body::Held(until {:?})", held.deadline),
        }
    }
}

impl Body {
    /// Declared length.
    pub fn len(&self) -> u64 {
        match self {
            Body::Bytes(b) => b.len() as u64,
            Body::File { len, .. } => *len,
            Body::Sized(len) => *len,
            Body::Held(_) => 0,
        }
    }

    /// Is the body empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An HTTP response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers.
    pub headers: Headers,
    /// Body.
    pub body: Body,
}

impl Response {
    /// Build a response with a byte body and content type.
    pub fn new(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        let mut headers = Headers::new();
        headers.set("content-type", content_type);
        Response {
            status,
            headers,
            body: Body::Bytes(body.into()),
        }
    }

    /// 200 with a body.
    pub fn ok(content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        Response::new(200, content_type, body)
    }

    /// A plain-text error response.
    pub fn error(status: u16, message: &str) -> Self {
        Response::new(
            status,
            "text/plain",
            format!("{status} {}\n{message}\n", reason(status)),
        )
    }

    /// A held reply ([`Held`]).
    pub fn held(held: Held) -> Self {
        Response {
            status: 200,
            headers: Headers::new(),
            body: Body::Held(held),
        }
    }

    /// A response serving `[offset, offset + len)` of an open file —
    /// `status` is 200 for whole-file GETs and 206 for ranges (the caller
    /// sets `content-range`).
    pub fn file(
        status: u16,
        content_type: &str,
        file: std::fs::File,
        offset: u64,
        len: u64,
    ) -> Self {
        let mut headers = Headers::new();
        headers.set("content-type", content_type);
        Response {
            status,
            headers,
            body: Body::File { file, offset, len },
        }
    }
}

/// Format a Unix timestamp (seconds) as an IMF-fixdate (RFC 7231 §7.1.1.1),
/// e.g. `Sun, 06 Nov 1994 08:49:37 GMT` — the only date form `Last-Modified`
/// may use. Hand-rolled from the civil-from-days algorithm; no date crate.
pub fn http_date(unix_secs: u64) -> String {
    let days = unix_secs / 86_400;
    let secs_of_day = unix_secs % 86_400;
    // Howard Hinnant's civil_from_days, shifted so the era starts 0000-03-01.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // day of era [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // March-based month [0, 11]
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    // 1970-01-01 was a Thursday.
    const WEEKDAYS: [&str; 7] = ["Thu", "Fri", "Sat", "Sun", "Mon", "Tue", "Wed"];
    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    format!(
        "{}, {:02} {} {:04} {:02}:{:02}:{:02} GMT",
        WEEKDAYS[(days % 7) as usize],
        day,
        MONTHS[(month - 1) as usize],
        year,
        secs_of_day / 3600,
        (secs_of_day / 60) % 60,
        secs_of_day % 60,
    )
}

/// Canonical reason phrase for a status code.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        206 => "Partial Content",
        301 => "Moved Permanently",
        302 => "Found",
        304 => "Not Modified",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        416 => "Range Not Satisfiable",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_parsing() {
        assert_eq!(Method::parse("GET"), Some(Method::Get));
        assert_eq!(Method::parse("POST"), Some(Method::Post));
        assert_eq!(Method::parse("get"), None); // methods are case-sensitive
        assert_eq!(Method::parse("BREW"), None);
        assert_eq!(Method::Get.as_str(), "GET");
    }

    #[test]
    fn headers_case_insensitive() {
        let mut h = Headers::new();
        h.set("Content-Type", "text/xml");
        assert_eq!(h.get("content-type"), Some("text/xml"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/xml"));
        h.set("content-TYPE", "application/json");
        assert_eq!(h.get("Content-Type"), Some("application/json"));
        assert_eq!(h.len(), 1);
        assert_eq!(h.remove("CONTENT-type"), Some("application/json".into()));
        assert!(h.is_empty());
    }

    #[test]
    fn target_splitting() {
        let req = Request::new(Method::Get, "/file/data.root?offset=10&n=20");
        assert_eq!(req.path(), "/file/data.root");
        assert_eq!(req.query(), "offset=10&n=20");
        let req = Request::new(Method::Get, "/plain");
        assert_eq!(req.path(), "/plain");
        assert_eq!(req.query(), "");
    }

    #[test]
    fn keep_alive_defaults() {
        let mut req = Request::new(Method::Get, "/");
        assert!(req.wants_keep_alive()); // 1.1 default
        req.minor_version = 0;
        assert!(!req.wants_keep_alive()); // 1.0 default
        req.headers.set("connection", "keep-alive");
        assert!(req.wants_keep_alive());
        req.minor_version = 1;
        req.headers.set("connection", "close");
        assert!(!req.wants_keep_alive());
    }

    #[test]
    fn body_lengths() {
        assert_eq!(Body::Bytes(vec![1, 2, 3]).len(), 3);
        assert!(Body::Bytes(vec![]).is_empty());
    }

    #[test]
    fn response_builders() {
        let r = Response::ok("text/xml", "<a/>");
        assert_eq!(r.status, 200);
        assert_eq!(r.headers.get("content-type"), Some("text/xml"));
        let e = Response::error(404, "no such file");
        assert_eq!(e.status, 404);
        match &e.body {
            Body::Bytes(b) => assert!(String::from_utf8_lossy(b).contains("Not Found")),
            _ => panic!("expected bytes"),
        }
    }

    #[test]
    fn reasons() {
        assert_eq!(reason(200), "OK");
        assert_eq!(reason(206), "Partial Content");
        assert_eq!(reason(404), "Not Found");
        assert_eq!(reason(416), "Range Not Satisfiable");
        assert_eq!(reason(999), "Unknown");
    }

    #[test]
    fn http_date_formatting() {
        // The RFC 7231 example date.
        assert_eq!(http_date(784_111_777), "Sun, 06 Nov 1994 08:49:37 GMT");
        assert_eq!(http_date(0), "Thu, 01 Jan 1970 00:00:00 GMT");
        // Leap-day handling across a century boundary divisible by 400.
        assert_eq!(http_date(951_782_400), "Tue, 29 Feb 2000 00:00:00 GMT");
        assert_eq!(http_date(1_754_352_000), "Tue, 05 Aug 2025 00:00:00 GMT");
    }

    /// A check that fails registers its waker, once however often it
    /// fails; a rise wakes it once, a
    /// value that does not rise wakes nobody, and a reset or a bare wake
    /// wakes every waiter.
    #[test]
    fn a_watermark_wakes_its_waiters_when_it_moves() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        use std::task::Wake;
        struct Count(AtomicUsize);
        impl Wake for Count {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let count = Arc::new(Count(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        let woken = || count.0.load(Ordering::SeqCst);
        let mark = Watermark::new((0, 5));
        assert!(!mark.check(&waker, |v| v > (0, 5)));
        assert!(!mark.check(&waker.clone(), |v| v > (0, 5)));
        assert_eq!(mark.waiters(), 1, "a waker that waits again is kept once");
        mark.raise((0, 3));
        assert_eq!((mark.get(), woken()), ((0, 5), 0), "a lower value moved it");
        mark.raise((1, 0));
        assert_eq!((mark.get(), woken()), ((1, 0), 1));
        mark.raise((2, 0));
        assert_eq!(woken(), 1, "a waker is woken once per registration");
        assert!(mark.check(&waker, |v| v > (0, 5)));
        mark.raise((3, 0));
        assert_eq!(woken(), 1, "a passed check registers nothing");
        assert!(!mark.check(&waker, |v| v > (9, 9)));
        mark.reset((0, 0));
        assert_eq!((mark.get(), woken()), ((0, 0), 2));
        assert!(!mark.check(&waker, |v| v > (9, 9)));
        mark.wake();
        assert_eq!((mark.get(), woken()), ((0, 0), 3));
    }

    #[test]
    fn file_and_sized_bodies() {
        let f = std::fs::File::open("/dev/null")
            .or_else(|_| std::fs::File::open(std::env::current_exe().unwrap()));
        if let Ok(file) = f {
            let body = Body::File {
                file,
                offset: 10,
                len: 90,
            };
            assert_eq!(body.len(), 90);
            assert!(format!("{body:?}").contains("90 bytes @ 10"));
        }
        assert_eq!(Body::Sized(123).len(), 123);
        assert!(!Body::Sized(123).is_empty());
    }
}
