//! A bounded pass of the mutation fuzzer over every target inside
//! `cargo test`, so the fuzz entries (`clarens_wire::fuzz`,
//! `clarens_httpd::fuzz`, `clarens_db::fuzz`, `clarens_pki::fuzz`) and the
//! harness cannot bit-rot between CI's timed `repro fuzz` passes.
//!
//! Every target runs its whole seed corpus unmutated, then mutations of it
//! from one fixed seed for a fixed 300 ms. A property violation panics with
//! the target and the input's provenance.

use std::time::Duration;

use clarens_bench::fuzzer::{run, FuzzTarget};

#[test]
fn short_run_every_target() {
    for target in FuzzTarget::ALL {
        let report = run(target, 0xC1A12E45, Duration::from_millis(300));
        assert!(
            report.iterations >= 512,
            "{}: only {} iterations",
            target.name(),
            report.iterations
        );
    }
}
