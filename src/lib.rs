//! Umbrella crate re-exporting the Clarens reproduction workspace.

#![forbid(unsafe_code)]

pub use clarens;
pub use clarens_db;
pub use clarens_httpd;
pub use clarens_pki;
pub use clarens_wire;
pub use gt3_baseline;
pub use monalisa_sim;
