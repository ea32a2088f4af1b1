//! # clarens — the Clarens Web Service Framework, reproduced in Rust
//!
//! A faithful reproduction of "The Clarens Web Service Framework for
//! Distributed Scientific Analysis in Grid Projects" (van Lingen et al.,
//! ICPP Workshops 2005). The framework hosts hierarchically-named web
//! service methods over HTTP(S) with:
//!
//! * X.509-style certificate authentication and **persistent sessions**
//!   that survive server restarts ([`session`]),
//! * **Virtual Organization management** — hierarchical groups with
//!   DN-prefix membership ([`vo`]),
//! * hierarchical, Apache-style **access control lists** on methods and
//!   files ([`acl`]),
//! * **remote file access** (RPC reads and streamed HTTP GET, [`services::file`]),
//! * a sandboxed **shell service** with DN→user mapping ([`services::shell`]),
//! * a **proxy certificate service** for delegation and password login
//!   ([`services::proxy`]),
//! * **dynamic service discovery** over a MonALISA-style network
//!   ([`services::discovery`]),
//! * multiple wire protocols — XML-RPC, SOAP, JSON-RPC — answered in kind,
//! * server-rendered **portal** pages ([`portal`]).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` at the workspace root; in short:
//! build a [`config::ClarensConfig`], assemble a [`core::ClarensCore`],
//! register services ([`server::register_builtin_services`]), start a
//! [`server::ClarensServer`], and talk to it with a [`client::ClarensClient`].

#![forbid(unsafe_code)]

pub mod acl;
pub mod cache;
pub mod client;
pub mod config;
pub mod core;
pub mod federation;
pub mod paths;
pub mod portal;
pub mod registry;
pub mod server;
pub mod services;
pub mod session;
pub mod testkit;
pub mod vo;

pub use crate::core::ClarensCore;
pub use client::{ClarensClient, ClientError};
pub use config::ClarensConfig;
pub use federation::{FederationRole, FederationState};
pub use server::{install_permissive_acls, register_builtin_services, ClarensServer};

/// Map a store I/O error onto the right RPC fault: a degraded-mode
/// refusal (the store went read-only after a WAL failure) gets the
/// dedicated `DEGRADED` code so clients can tell "retry elsewhere" from
/// an ordinary service error.
pub fn store_fault(context: &str, e: &std::io::Error) -> clarens_wire::Fault {
    if clarens_db::is_degraded_error(e) {
        clarens_wire::Fault::degraded(format!("{context}: {e}"))
    } else {
        clarens_wire::Fault::service(format!("{context}: {e}"))
    }
}
