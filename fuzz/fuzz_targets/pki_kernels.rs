//! libFuzzer wrapper over the pki kernel equivalences: Montgomery `pow` and
//! `mul` against the division-based ladder and `mulmod` on operands the
//! input spells, and block-wise ChaCha20 under input-chosen chunkings
//! against the byte-wise RFC 8439 reference.

#![no_main]

use libfuzzer_sys::fuzz_target;

fuzz_target!(|data: &[u8]| {
    clarens_pki::fuzz::pki_kernels(data);
});
