//! # clarens-db — embedded persistent key-value store
//!
//! The Clarens server keeps sessions, VO structures, ACLs, and the method
//! registry "in a database" (paper §2.1, §4); sessions persist "on the
//! server side... allowing clients to survive server failures or restarts
//! transparently" (§2). This crate is that database: a namespaced KV store
//! with a CRC-checked write-ahead log, crash recovery, and compaction.
//!
//! ```
//! use clarens_db::Store;
//! let store = Store::in_memory();
//! store.put("sessions", "abc123", b"/O=org/CN=alice".to_vec()).unwrap();
//! assert_eq!(store.get("sessions", "abc123").unwrap(), b"/O=org/CN=alice");
//! ```

#![forbid(unsafe_code)]

pub mod crc32;
pub mod fuzz;
pub mod log;
pub mod storage;
pub mod store;
pub mod wal_engine;

pub use log::{decode_stream, frame_prefix, LogOp};
pub use storage::StorageCounters;
pub use store::{is_degraded_error, Store, StoreStats, WalChunk, DEGRADED_MSG};
