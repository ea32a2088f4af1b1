//! # clarens-httpd — the HTTP substrate
//!
//! In the paper's architecture (Figure 1) the Apache web server fronts
//! PClarens: it terminates HTTP and SSL and dispatches requests into the
//! framework. This crate is that layer, built from scratch on `std::net`:
//!
//! * [`parse`] — HTTP/1.1 request/response parsing with Content-Length and
//!   chunked bodies, hard limits, and the blocking response serializer,
//! * [`server`] — a worker pool fed by an event-driven connection
//!   scheduler: one event loop accepts connections and *parks* idle
//!   keep-alive ones instead of pinning a worker thread to each, so
//!   live-connection capacity is bounded by `max_connections`, not
//!   `workers` — on TLS servers too, whose connections carry the secure
//!   channel as a state machine between socket and parse buffer; and
//!   [`serve_pipe`], the same connection code served over socketpairs on
//!   the caller's thread, with no port,
//! * `event_loop` (private) — that loop's every decision as a step
//!   machine with no I/O in it, which a seeded search drives directly;
//!   `poller` (private) — the epoll facade and self-pipe waker under it,
//! * [`stream`] — the one byte stream under server and client: a TCP
//!   socket or one end of a socketpair,
//! * [`client`] — a keep-alive client used by examples, tests, and the
//!   Figure-4 benchmark driver.
//!
//! Linux is the one platform: the poller is epoll and file bodies ride
//! `sendfile(2)`. Every C call sits behind a safe function in one private
//! module, the only code here the `unsafe_code` lint lets through.

#![deny(unsafe_code)]

// CI builds and tests Linux only, and its build container cannot add a
// target, so code for any other platform would compile in no build that
// runs it.
#[cfg(not(target_os = "linux"))]
compile_error!("clarens-httpd builds for Linux only (epoll, sendfile(2), pipe2(2))");

pub mod client;
mod conn;
mod event_loop;
pub mod fuzz;
pub mod parse;
pub(crate) mod poller;
pub mod scratch;
pub mod server;
pub mod stream;
#[allow(unsafe_code)]
mod sys;
pub mod types;

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
    serve_pipe, Handler, HttpServer, PeerInfo, Pipe, RequestContext, ServerConfig, TlsConfig,
};
pub use stream::Stream;
pub use types::{http_date, Body, Headers, Held, Method, Ready, Request, Response, Watermark};
