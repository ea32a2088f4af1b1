//! libFuzzer wrapper over the WAL frame-reader property: no panic on any
//! byte stream, the whole-frame prefix stays in bounds and decodes the
//! same frame by frame as in one pass, and decoded ops re-encode to the
//! same bytes.

#![no_main]

use libfuzzer_sys::fuzz_target;

fuzz_target!(|data: &[u8]| {
    clarens_db::fuzz::wal_frames(data);
});
