//! The instant-messaging service — the paper's §6 future-work item,
//! implemented as an extension.
//!
//! "The current Clarens Web Service implementation was designed for a
//! request response mode of operation, making it ill-suited for ...
//! asynchronous bi-directional communication ... An instant messaging (IM)
//! architecture provides the possibility to overcome this limitation.
//! Since messages can be sent and received by jobs asynchronously, jobs
//! can be instrumented to act as Clarens ... clients sending information
//! to monitoring systems or remote debugging tools."
//!
//! Model: per-identity mailboxes persisted in the store (so messages, like
//! sessions, survive server restarts). A job behind NAT polls its mailbox
//! over ordinary outbound HTTP — exactly the firewall-traversal pattern
//! the paper motivates.

use std::sync::atomic::{AtomicU64, Ordering};

use clarens_wire::{Fault, Value};

use crate::registry::{params, unhandled, CallContext, MethodInfo, Service};

/// DB bucket for queued messages. Keys are `<recipient-dn>|<seq:020>` so a
/// prefix scan per recipient yields messages in send order.
pub const IM_BUCKET: &str = "im.messages";

/// Upper bound on message body size.
pub const MAX_BODY: usize = 64 * 1024;
/// Upper bound on undelivered messages per recipient (backpressure).
pub const MAX_QUEUE: usize = 1024;

/// The `im` service.
pub struct ImService {
    seq: AtomicU64,
}

impl Default for ImService {
    fn default() -> Self {
        Self::new()
    }
}

impl ImService {
    /// Create the service (the sequence counter resumes past any persisted
    /// messages on first use).
    pub fn new() -> Self {
        ImService {
            seq: AtomicU64::new(0),
        }
    }

    fn next_seq(&self, ctx: &CallContext<'_>) -> u64 {
        // Lazily initialize past the largest persisted sequence.
        if self.seq.load(Ordering::Relaxed) == 0 {
            let max = ctx
                .core
                .store
                .keys(IM_BUCKET)
                .into_iter()
                .filter_map(|k| k.rsplit('|').next().and_then(|s| s.parse::<u64>().ok()))
                .max()
                .unwrap_or(0);
            let _ = self
                .seq
                .compare_exchange(0, max + 1, Ordering::SeqCst, Ordering::SeqCst);
        }
        self.seq.fetch_add(1, Ordering::SeqCst)
    }

    fn mailbox_prefix(dn: &str) -> String {
        format!("{dn}|")
    }
}

fn message_value(from: &str, body: &str, timestamp: i64, seq: u64) -> Value {
    Value::structure([
        ("from", Value::from(from)),
        ("body", Value::from(body)),
        ("timestamp", Value::Int(timestamp)),
        ("seq", Value::Int(seq as i64)),
    ])
}

/// The `im` methods.
pub static METHODS: &[MethodInfo] = &[
    MethodInfo::new(
        "im.send",
        "im.send(to_dn, body)",
        "Queue a message for another identity; returns the sequence number",
        2,
    )
    .replicated(),
    MethodInfo::new(
        "im.poll",
        "im.poll(max)",
        "Receive (and consume) up to max queued messages for the caller",
        1,
    )
    .replicated(),
    MethodInfo::new(
        "im.peek",
        "im.peek(max)",
        "Read up to max queued messages without consuming them",
        1,
    ),
    MethodInfo::new(
        "im.count",
        "im.count()",
        "Number of queued messages for the caller",
        0,
    ),
];

impl Service for ImService {
    fn methods(&self) -> &'static [MethodInfo] {
        METHODS
    }

    fn call(
        &self,
        ctx: &CallContext<'_>,
        method: &str,
        params_in: &[Value],
    ) -> Result<Value, Fault> {
        match method {
            "im.send" => {
                let sender = ctx.require_identity()?.to_string();
                let to = params::string(params_in, 0, "to_dn")?;
                let body = params::string(params_in, 1, "body")?;
                if body.len() > MAX_BODY {
                    return Err(Fault::bad_params(format!(
                        "message body exceeds {MAX_BODY} bytes"
                    )));
                }
                // Recipient must be a parseable DN (messages to garbage
                // addresses would queue forever).
                clarens_pki::DistinguishedName::parse(&to)
                    .map_err(|e| Fault::bad_params(format!("bad recipient: {e}")))?;
                let queued = ctx
                    .core
                    .store
                    .count_prefix(IM_BUCKET, &Self::mailbox_prefix(&to));
                if queued >= MAX_QUEUE {
                    return Err(Fault::service(format!(
                        "recipient mailbox full ({MAX_QUEUE} messages)"
                    )));
                }
                let seq = self.next_seq(ctx);
                let key = format!("{to}|{seq:020}");
                let value = message_value(&sender, &body, ctx.now, seq);
                ctx.core
                    .store
                    .put(
                        IM_BUCKET,
                        &key,
                        clarens_wire::json::to_string(&value).into_bytes(),
                    )
                    .map_err(|e| crate::store_fault("im queue", &e))?;
                Ok(Value::Int(seq as i64))
            }
            "im.poll" | "im.peek" => {
                let me = ctx.require_identity()?.to_string();
                let max = params::int(params_in, 0, "max")?.clamp(0, 256) as usize;
                let prefix = Self::mailbox_prefix(&me);
                let mut out = Vec::new();
                for (key, bytes) in ctx.core.store.scan_prefix_limit(IM_BUCKET, &prefix, max) {
                    if let Ok(text) = String::from_utf8(bytes) {
                        if let Ok(value) = clarens_wire::json::parse(&text) {
                            out.push(value);
                            if method == "im.poll" {
                                let _ = ctx.core.store.delete(IM_BUCKET, &key);
                            }
                        }
                    }
                }
                Ok(Value::Array(out))
            }
            "im.count" => {
                let me = ctx.require_identity()?.to_string();
                Ok(Value::Int(
                    ctx.core
                        .store
                        .count_prefix(IM_BUCKET, &Self::mailbox_prefix(&me))
                        as i64,
                ))
            }
            other => Err(unhandled(other)),
        }
    }
}
