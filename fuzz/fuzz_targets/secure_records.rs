//! libFuzzer wrapper over the secure-channel record machine property: no
//! panic on any byte stream, never more than one frame held back, no
//! plaintext without a valid tag, and a corrupted record stream stops at
//! the corrupted record.

#![no_main]

use libfuzzer_sys::fuzz_target;

fuzz_target!(|data: &[u8]| {
    clarens_pki::fuzz::secure_records(data);
});
