//! Write-ahead log: the on-disk persistence layer of [`crate::Store`].
//!
//! Record format (all integers little-endian):
//!
//! ```text
//! [u32 payload_len][payload][u32 crc32(payload)]
//! payload := [u8 op][u16 bucket_len][bucket][u16 key_len][key]
//!            [u32 value_len][value]          (value only for Put)
//! ```
//!
//! This module is the only place that knows that layout: [`encode_record`]
//! writes a frame, `read_frame` reads one, and every consumer (recovery,
//! the compaction replay, [`frame_prefix`], [`decode_stream`]) walks a log
//! through `read_frame`.
//!
//! Recovery replays records until EOF or the first corrupt/truncated
//! record — a torn tail (crash mid-write) truncates cleanly rather than
//! corrupting the store, which is what lets Clarens sessions "survive
//! server failures or restarts transparently" (paper §2).

use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

use crate::crc32::crc32;

/// Maximum sizes, to reject corrupt length fields during recovery.
const MAX_NAME: usize = u16::MAX as usize;
const MAX_VALUE: usize = 256 * 1024 * 1024;

/// Largest structurally possible frame payload; length fields beyond this
/// are corruption, not data.
const MAX_FRAME_PAYLOAD: usize = MAX_VALUE + 2 * MAX_NAME + 16;

/// A logged operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogOp {
    /// Insert or overwrite `bucket/key`.
    Put {
        /// Namespace.
        bucket: String,
        /// Key within the namespace.
        key: String,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Remove `bucket/key`.
    Delete {
        /// Namespace.
        bucket: String,
        /// Key within the namespace.
        key: String,
    },
    /// A leader-epoch fence. Written by a node when it claims leadership
    /// of a replicated cluster; it carries no data but travels through the
    /// shipped log so every follower learns the new epoch in-band, in
    /// exact write order relative to the surrounding data records.
    EpochFence {
        /// The leader epoch being claimed.
        epoch: u64,
    },
}

const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_EPOCH_FENCE: u8 = 3;

/// Serialize one operation into the payload format.
pub fn encode_op(op: &LogOp) -> Vec<u8> {
    let mut out = Vec::new();
    match op {
        LogOp::Put { bucket, key, value } => {
            out.push(OP_PUT);
            push_name(&mut out, bucket);
            push_name(&mut out, key);
            out.extend_from_slice(&(value.len() as u32).to_le_bytes());
            out.extend_from_slice(value);
        }
        LogOp::Delete { bucket, key } => {
            out.push(OP_DELETE);
            push_name(&mut out, bucket);
            push_name(&mut out, key);
        }
        LogOp::EpochFence { epoch } => {
            out.push(OP_EPOCH_FENCE);
            out.extend_from_slice(&epoch.to_le_bytes());
        }
    }
    out
}

fn push_name(out: &mut Vec<u8>, name: &str) {
    assert!(name.len() <= MAX_NAME, "bucket/key name too long");
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

/// Decode one payload. Returns `None` on structural corruption.
pub fn decode_op(payload: &[u8]) -> Option<LogOp> {
    let mut pos = 0usize;
    let op = *payload.get(pos)?;
    pos += 1;
    if op == OP_EPOCH_FENCE {
        if payload.len() != pos + 8 {
            return None;
        }
        let epoch = u64::from_le_bytes(payload[pos..pos + 8].try_into().unwrap());
        return Some(LogOp::EpochFence { epoch });
    }
    let bucket = read_name(payload, &mut pos)?;
    let key = read_name(payload, &mut pos)?;
    match op {
        OP_PUT => {
            if payload.len() < pos + 4 {
                return None;
            }
            let len = u32::from_le_bytes(payload[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            if len > MAX_VALUE || payload.len() != pos + len {
                return None;
            }
            Some(LogOp::Put {
                bucket,
                key,
                value: payload[pos..].to_vec(),
            })
        }
        OP_DELETE => {
            if pos != payload.len() {
                return None;
            }
            Some(LogOp::Delete { bucket, key })
        }
        _ => None,
    }
}

fn read_name(payload: &[u8], pos: &mut usize) -> Option<String> {
    if payload.len() < *pos + 2 {
        return None;
    }
    let len = u16::from_le_bytes(payload[*pos..*pos + 2].try_into().unwrap()) as usize;
    *pos += 2;
    if payload.len() < *pos + len {
        return None;
    }
    let name = std::str::from_utf8(&payload[*pos..*pos + len])
        .ok()?
        .to_owned();
    *pos += len;
    Some(name)
}

/// On-disk size of the frame around a `payload_len`-byte payload.
const fn frame_size(payload_len: usize) -> usize {
    4 + payload_len + 4
}

/// Frame one operation as it appears on disk:
/// `[u32 payload_len][payload][u32 crc32(payload)]`.
pub fn encode_record(op: &LogOp) -> Vec<u8> {
    frame_payload(&encode_op(op))
}

/// Wrap an already-encoded payload in its length prefix and CRC.
pub(crate) fn frame_payload(payload: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(frame_size(payload.len()));
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(payload);
    record.extend_from_slice(&crc32(payload).to_le_bytes());
    record
}

/// On-disk frame size of a `Put` record, without encoding it — the store
/// uses this to track live bytes (and thus the WAL garbage ratio) from the
/// key/value lengths alone.
pub fn put_record_size(bucket: &str, key: &str, value_len: usize) -> u64 {
    // op byte + 2 name-length prefixes + value-length prefix, plus the
    // names and the value themselves.
    frame_size(1 + 2 + bucket.len() + 2 + key.len() + 4 + value_len) as u64
}

/// Write one framed record to completion. `write` may consume fewer bytes
/// than offered (the `db.wal.append` failpoint simulates exactly that);
/// treating a short write as success would frame-shift every record that
/// follows, so we loop until the record is fully queued.
pub fn write_framed(writer: &mut dyn Write, record: &[u8]) -> io::Result<()> {
    let mut written = 0;
    while written < record.len() {
        let rest = &record[written..];
        let n = match clarens_faults::eval(clarens_faults::sites::DB_WAL_APPEND) {
            Some(clarens_faults::Injected::Err) => {
                return Err(clarens_faults::injected_error(
                    clarens_faults::sites::DB_WAL_APPEND,
                ))
            }
            Some(clarens_faults::Injected::ShortWrite(cap)) => {
                writer.write(&rest[..cap.min(rest.len())])?
            }
            _ => match writer.write(rest) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            },
        };
        if n == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        written += n;
    }
    Ok(())
}

/// What [`read_frame`] found at the reader's position.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// A whole, CRC-valid frame; its payload is in the caller's buffer.
    Payload,
    /// The stream ended exactly on a frame boundary.
    End,
    /// A partial frame, an impossible length field or a CRC mismatch.
    Torn,
}

/// Read the next frame from `reader`, leaving its payload in `payload`
/// (cleared first; reuse one buffer across calls). Only real I/O errors
/// are `Err` — running out of bytes mid-frame is [`Frame::Torn`].
pub(crate) fn read_frame(reader: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<Frame> {
    // `take` + `read_to_end` grows the buffer only as bytes arrive, so a
    // corrupt length field cannot force an allocation the stream does not
    // back.
    payload.clear();
    match reader.by_ref().take(4).read_to_end(payload)? {
        0 => return Ok(Frame::End),
        4 => {}
        _ => return Ok(Frame::Torn),
    }
    let len = u32::from_le_bytes(payload[..].try_into().unwrap()) as usize;
    payload.clear();
    if len > MAX_FRAME_PAYLOAD
        || reader.by_ref().take(len as u64 + 4).read_to_end(payload)? < len + 4
    {
        return Ok(Frame::Torn);
    }
    let crc = u32::from_le_bytes(payload[len..].try_into().unwrap());
    payload.truncate(len);
    Ok(if crc32(payload) == crc {
        Frame::Payload
    } else {
        Frame::Torn
    })
}

/// Length of the longest prefix of `data` that consists of whole,
/// CRC-valid records. WAL shippers trim replication chunks with this so a
/// read that raced an in-flight append never ships a partial frame, and
/// followers use it to reject a corrupted chunk wholesale.
pub fn frame_prefix(data: &[u8]) -> usize {
    let mut rest = data;
    let mut payload = Vec::new();
    let mut whole = 0;
    while let Ok(Frame::Payload) = read_frame(&mut rest, &mut payload) {
        whole = data.len() - rest.len();
    }
    whole
}

/// Decode a byte run of framed records into operations. Returns `None` if
/// the run is anything other than a whole number of CRC-valid, structurally
/// sound records — a replication follower must apply a chunk entirely or
/// not at all.
pub fn decode_stream(mut data: &[u8]) -> Option<Vec<LogOp>> {
    let mut payload = Vec::new();
    let mut ops = Vec::new();
    loop {
        match read_frame(&mut data, &mut payload).ok()? {
            Frame::Payload => ops.push(decode_op(&payload)?),
            Frame::End => return Some(ops),
            Frame::Torn => return None,
        }
    }
}

/// The outcome of a recovery scan.
pub struct Recovery {
    /// Operations recovered, in append order.
    pub ops: Vec<LogOp>,
    /// True if the scan stopped early at a corrupt/torn record (the caller
    /// should truncate the file to `valid_len` so the next append starts
    /// on a frame boundary).
    pub torn_tail: bool,
    /// Byte length of the valid record prefix — the offset the torn tail
    /// starts at, or the whole file when the log is clean.
    pub valid_len: u64,
}

/// Replay a log file, streaming it frame by frame (the whole log is never
/// held in memory beside the decoded ops). Missing file ⇒ empty recovery.
pub fn recover(path: &Path) -> io::Result<Recovery> {
    let mut recovery = Recovery {
        ops: Vec::new(),
        torn_tail: false,
        valid_len: 0,
    };
    let mut reader = match File::open(path) {
        Ok(f) => BufReader::new(f),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(recovery),
        Err(e) => return Err(e),
    };
    let mut payload = Vec::new();
    loop {
        // A CRC-valid frame whose payload does not decode is as torn as a
        // short one: the valid prefix ends before it.
        let op = match read_frame(&mut reader, &mut payload)? {
            Frame::Payload => decode_op(&payload),
            Frame::End => return Ok(recovery),
            Frame::Torn => None,
        };
        let Some(op) = op else {
            recovery.torn_tail = true;
            return Ok(recovery);
        };
        recovery.ops.push(op);
        recovery.valid_len += frame_size(payload.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Append `ops` to the log at `path` the way the engine does: one
    /// framed record each, through [`write_framed`].
    fn append_all(path: &Path, ops: &[LogOp]) -> io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        ops.iter()
            .try_for_each(|op| write_framed(&mut file, &encode_record(op)))
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clarens-db-log-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn put(bucket: &str, key: &str, value: &[u8]) -> LogOp {
        LogOp::Put {
            bucket: bucket.into(),
            key: key.into(),
            value: value.to_vec(),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ops = [
            put("sessions", "abc", b"payload"),
            put("vo", "", b""),
            LogOp::Delete {
                bucket: "acl".into(),
                key: "file.read".into(),
            },
            LogOp::EpochFence { epoch: 0 },
            LogOp::EpochFence { epoch: u64::MAX },
        ];
        for op in &ops {
            assert_eq!(decode_op(&encode_op(op)).unwrap(), *op);
        }
    }

    /// Logs already on disk, replication followers and the benchmark's
    /// restart check all depend on these exact bytes.
    #[test]
    fn record_format_is_pinned() {
        assert_eq!(
            encode_record(&put("sessions", "abc", b"hi")),
            b"\x16\0\0\0\x01\x08\0sessions\x03\0abc\x02\0\0\0hi\xdb\xb7\xf6\xe4"
        );
        assert_eq!(
            encode_record(&LogOp::Delete {
                bucket: "acl".into(),
                key: "file.read".into(),
            }),
            b"\x11\0\0\0\x02\x03\0acl\x09\0file.read\x93\xe6\xf5\xf3"
        );
        assert_eq!(
            encode_record(&LogOp::EpochFence { epoch: 7 }),
            b"\x09\0\0\0\x03\x07\0\0\0\0\0\0\0\x72\x21\x41\xd5"
        );
    }

    #[test]
    fn fence_decode_rejects_bad_length() {
        let good = encode_op(&LogOp::EpochFence { epoch: 42 });
        assert!(decode_op(&good[..good.len() - 1]).is_none()); // truncated
        let mut long = good.clone();
        long.push(0);
        assert!(decode_op(&long).is_none()); // trailing junk
    }

    #[test]
    fn decode_rejects_corruption() {
        let good = encode_op(&put("b", "k", b"v"));
        assert!(decode_op(&good[..good.len() - 1]).is_none()); // truncated
        let mut bad_op = good.clone();
        bad_op[0] = 99;
        assert!(decode_op(&bad_op).is_none()); // unknown opcode
        assert!(decode_op(&[]).is_none());
        // Delete with trailing junk.
        let mut del = encode_op(&LogOp::Delete {
            bucket: "b".into(),
            key: "k".into(),
        });
        del.push(0);
        assert!(decode_op(&del).is_none());
    }

    #[test]
    fn append_and_recover() {
        let path = temp_path("basic");
        let ops = [
            put("s", "k1", b"v1"),
            put("s", "k2", b"v2"),
            LogOp::Delete {
                bucket: "s".into(),
                key: "k1".into(),
            },
        ];
        append_all(&path, &ops[..2]).unwrap();
        // A reopened log picks up where the file left off.
        append_all(&path, &ops[2..]).unwrap();
        let recovery = recover(&path).unwrap();
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.ops, ops);
        assert_eq!(
            recovery.valid_len,
            std::fs::metadata(&path).unwrap().len(),
            "a clean log is valid to its last byte"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty() {
        let recovery = recover(Path::new("/nonexistent/definitely/not/here.wal")).unwrap();
        assert!(recovery.ops.is_empty());
        assert!(!recovery.torn_tail);
    }

    #[test]
    fn torn_tail_detected_and_prefix_recovered() {
        let path = temp_path("torn");
        append_all(&path, &[put("s", "k1", b"v1"), put("s", "k2", b"v2")]).unwrap();
        // Truncate mid-record.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();

        let recovery = recover(&path).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.ops, [put("s", "k1", b"v1")]);
        assert_eq!(
            recovery.valid_len,
            encode_record(&put("s", "k1", b"v1")).len() as u64,
            "the torn tail starts where the last whole record ends"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bitflip_detected_by_crc() {
        let path = temp_path("bitflip");
        append_all(
            &path,
            &[put("s", "key", b"value-bytes"), put("s", "key2", b"more")],
        )
        .unwrap();
        // Flip a byte inside the first record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let recovery = recover(&path).unwrap();
        assert!(recovery.torn_tail);
        assert!(recovery.ops.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn short_writes_loop_to_completion() {
        // Every underlying write is capped at 3 bytes: the append loop
        // must keep going until the whole record is framed on disk.
        let path = temp_path("short-write");
        let ops = [
            put("sessions", "key", b"value-that-needs-many-writes"),
            put("sessions", "key2", b"second"),
        ];
        {
            let _g = clarens_faults::with_thread(clarens_faults::sites::DB_WAL_APPEND, "short:3");
            append_all(&path, &ops).unwrap();
        }
        let recovery = recover(&path).unwrap();
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.ops, ops);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_append_error_surfaces() {
        let path = temp_path("inject-append");
        {
            let _g =
                clarens_faults::with_thread(clarens_faults::sites::DB_WAL_APPEND, "err|times=1");
            let err = append_all(&path, &[put("b", "k", b"v")]).unwrap_err();
            assert!(clarens_faults::is_injected(&err), "{err}");
        }
        // After the transient fault clears, the log still works.
        append_all(&path, &[put("b", "k", b"v")]).unwrap();
        assert_eq!(recover(&path).unwrap().ops, [put("b", "k", b"v")]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frame_prefix_and_decode_stream() {
        let path = temp_path("frames");
        append_all(&path, &[put("s", "k1", b"v1"), put("s", "k2", b"v2")]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // The whole file is complete frames and decodes in order.
        assert_eq!(frame_prefix(&bytes), bytes.len());
        let ops = decode_stream(&bytes).unwrap();
        assert_eq!(ops, vec![put("s", "k1", b"v1"), put("s", "k2", b"v2")]);
        // A truncated run keeps only the whole-frame prefix...
        let cut = &bytes[..bytes.len() - 3];
        let prefix = frame_prefix(cut);
        assert!(prefix < cut.len());
        assert_eq!(decode_stream(&cut[..prefix]).unwrap().len(), 1);
        // ...and decode_stream refuses the torn run outright.
        assert!(decode_stream(cut).is_none());
        // A CRC flip in the first record rejects everything from there on.
        let mut flipped = bytes.clone();
        flipped[8] ^= 0xFF;
        assert_eq!(frame_prefix(&flipped), 0);
        assert!(decode_stream(&flipped).is_none());
        // Empty input is a valid empty stream.
        assert_eq!(frame_prefix(&[]), 0);
        assert_eq!(decode_stream(&[]).unwrap(), vec![]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn huge_length_field_treated_as_torn() {
        let path = temp_path("hugelen");
        std::fs::write(&path, (u32::MAX).to_le_bytes()).unwrap();
        let recovery = recover(&path).unwrap();
        assert!(recovery.torn_tail);
        assert!(recovery.ops.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
