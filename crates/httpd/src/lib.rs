//! # clarens-httpd — the HTTP substrate
//!
//! In the paper's architecture (Figure 1) the Apache web server fronts
//! PClarens: it terminates HTTP and SSL and dispatches requests into the
//! framework. This crate is that layer, built from scratch on `std::net`:
//!
//! * [`parse`] — HTTP/1.1 request/response parsing with Content-Length and
//!   chunked bodies, hard limits, and streaming response writes (the
//!   `sendfile()`-style path the file service uses),
//! * [`server`] — a worker pool fed by an event-driven connection
//!   scheduler: idle keep-alive connections are *parked* in [`poller`]
//!   instead of pinning a worker thread, so live-connection capacity is
//!   bounded by `max_connections`, not `workers` — on TLS servers too,
//!   whose connections carry the secure channel as a state machine
//!   between socket and parse buffer,
//! * [`poller`] — a dependency-free readiness facade (epoll on Linux,
//!   `poll(2)` elsewhere on Unix) with a self-pipe waker and a deadline
//!   wheel for keep-alive idle expiry,
//! * [`client`] — a keep-alive client used by examples, tests, and the
//!   Figure-4 benchmark driver.

pub mod client;
mod conn;
pub mod fuzz;
pub mod parse;
pub mod poller;
pub mod scratch;
pub mod server;
pub mod types;
pub mod zerocopy;

// The scenario fixture under `tests/common` is shared with the integration
// tests, so it names this crate from the outside; the alias lets the unit
// tests include the same file.
#[cfg(test)]
extern crate self as clarens_httpd;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_modes;

pub use client::{ClientError, ClientTls, HttpClient};
pub use parse::{is_truncation, resolve_range, ClientResponse, ParseError, RangeOutcome};
pub use scratch::Scratch;
pub use server::{
    Handler, HttpServer, PeerInfo, RequestContext, ServerConfig, ServerStats, TlsConfig,
};
pub use types::{http_date, Body, Headers, Method, Request, Response};
