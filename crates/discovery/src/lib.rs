//! # monalisa-sim — a MonALISA-style monitoring & discovery network
//!
//! The paper's discovery service (§2.4, Figure 3) rides on MonALISA's
//! "scalable publish-subscribe network": Clarens servers publish service
//! information over UDP to *station servers*; a discovery server acts as a
//! JINI client, aggregates the network's state into a local database, and
//! "responds to service searches far more rapidly by using the local
//! database". This crate simulates that architecture faithfully enough to
//! measure it:
//!
//! * [`schema`] — GLUE-style descriptors (services, farm/node/key samples),
//! * [`table`] — the descriptor table every piece of discovery keeps, with
//!   its newest-wins, restart-supersede and TTL rules,
//! * [`station`] — UDP-fed station servers that write into their
//!   subscribers' tables,
//! * [`aggregator`] — the discovery server with a local-table fast path and
//!   a fan-out slow path, so the paper's speed claim can be benchmarked.

#![forbid(unsafe_code)]

pub mod aggregator;
pub mod schema;
pub mod station;
pub mod table;

pub use aggregator::DiscoveryAggregator;
pub use schema::{MonitorSample, Publication, ServiceDescriptor, ServiceQuery};
pub use station::{StationServer, UdpPublisher};
pub use table::Table;
