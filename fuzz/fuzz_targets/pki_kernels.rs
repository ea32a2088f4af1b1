//! libFuzzer wrapper over the pki kernel equivalences: Montgomery `pow` and
//! `mul` against the division-based ladder and `mulmod` on operands the
//! input spells, block-wise ChaCha20 and MD5 under input-chosen chunkings
//! against the byte-wise RFC 8439 reference and RFC 1321's loop, and DN
//! parsing of the input's UTF-8 prefix against the character-loop
//! reference.

#![no_main]

use libfuzzer_sys::fuzz_target;

fuzz_target!(|data: &[u8]| {
    clarens_pki::fuzz::pki_kernels(data);
});
