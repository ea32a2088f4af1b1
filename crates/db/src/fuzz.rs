//! Shared fuzz entry point for the WAL frame reader.
//!
//! Same contract as `clarens_wire::fuzz`: raw bytes in (a log file after a
//! crash, a replication chunk off the network), and the reader must accept
//! or reject them gracefully. Driven by the cargo-fuzz target in
//! `fuzz/fuzz_targets/`, the in-tree `repro fuzz` harness, and that
//! harness's bounded pass in `cargo test`
//! (`crates/bench/tests/fuzz_smoke.rs`).

use crate::log::{decode_op, decode_stream, encode_record, frame_prefix, read_frame, Frame};

/// Arbitrary bytes never panic the frame reader; the whole-frame prefix
/// stays in bounds; [`decode_stream`] of that prefix agrees with reading
/// it frame by frame; and re-encoding the decoded ops reproduces it.
pub fn wal_frames(data: &[u8]) {
    let whole = frame_prefix(data);
    assert!(whole <= data.len(), "frame prefix runs past the input");
    let prefix = &data[..whole];

    let mut rest = prefix;
    let mut payload = Vec::new();
    let mut ops = Some(Vec::new());
    loop {
        match read_frame(&mut rest, &mut payload).expect("reading a slice cannot fail") {
            Frame::Payload => match (&mut ops, decode_op(&payload)) {
                (Some(ops), Some(op)) => ops.push(op),
                _ => ops = None,
            },
            Frame::End => break,
            Frame::Torn => panic!("torn frame inside the whole-frame prefix"),
        }
    }
    assert_eq!(decode_stream(prefix), ops, "decode_stream disagrees");
    if let Some(ops) = ops {
        let again: Vec<u8> = ops.iter().flat_map(encode_record).collect();
        assert_eq!(
            again, prefix,
            "re-encoding the decoded ops changed the bytes"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogOp;

    #[test]
    fn entry_accepts_valid_and_garbage_inputs() {
        let record = encode_record(&LogOp::EpochFence { epoch: 3 });
        wal_frames(&record);
        wal_frames(&record[..record.len() - 1]);
        wal_frames(b"");
        wal_frames(&[0xff; 64]);
        // CRC-valid frame around a payload that is not an operation.
        wal_frames(&crate::log::frame_payload(b"?"));
    }
}
