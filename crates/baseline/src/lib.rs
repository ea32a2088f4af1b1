//! # gt3-baseline — a Globus-Toolkit-3-like comparator stack
//!
//! The paper compares Clarens against Globus Toolkit 3 (§4 footnote 4:
//! "A trivial method 100 times ... across a 100Mbps LAN using GTK 3.0 and
//! GTK 3.9.1 resulted in 5 to 1 calls per second", §5: "the server
//! performance (calls/second) for Globus 3 are not as high as the Clarens
//! server"). GT3 itself is unbuildable here, so this crate models the
//! overheads that made it slow — per-message GSI security, per-call
//! transient service instantiation (deployment-descriptor processing),
//! multi-pass Axis-style message handling, and connection-per-call — each
//! individually switchable so the comparison bench can attribute the gap.
//!
//! See DESIGN.md ("GT3-gap") for the substitution rationale.

#![forbid(unsafe_code)]

pub mod stack;
pub mod wsdd;

pub use stack::{test_credentials, Gt3Client, Gt3Config, Gt3Server};
