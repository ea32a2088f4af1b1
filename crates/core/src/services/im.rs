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

use crate::registry::param::{int, string};
use crate::registry::{Args, CallContext, Method, Service};

/// DB bucket for queued messages. Keys are `<recipient-dn>|<seq:020>` so a
/// prefix scan per recipient yields messages in send order.
pub const IM_BUCKET: &str = "im.messages";

/// Upper bound on message body size.
pub const MAX_BODY: usize = 64 * 1024;
/// Upper bound on undelivered messages per recipient (backpressure).
pub const MAX_QUEUE: usize = 1024;

/// The `im` service.
#[derive(Default)]
pub struct ImService {
    seq: AtomicU64,
}

impl ImService {
    /// Create the service (the sequence counter resumes past any persisted
    /// messages on first use).
    pub fn new() -> Self {
        Self::default()
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
}

fn mailbox_prefix(dn: &str) -> String {
    format!("{dn}|")
}

/// Up to `max` of the caller's queued messages, in send order; `consume`
/// deletes each one read and returns exactly the ones it deleted. The
/// first delete the store refuses ends the batch, and is the answer only
/// when nothing was delivered: a message is never both gone and
/// undelivered.
fn messages(ctx: &CallContext<'_>, max: i64, consume: bool) -> Result<Value, Fault> {
    let prefix = mailbox_prefix(&ctx.require_identity()?.to_string());
    let max = max.clamp(0, 256) as usize;
    let mut out = Vec::new();
    for (key, bytes) in ctx.core.store.scan_prefix_limit(IM_BUCKET, &prefix, max) {
        let parsed = String::from_utf8(bytes).map(|text| clarens_wire::json::parse(&text));
        let Ok(Ok(value)) = parsed else { continue };
        if consume {
            if let Err(e) = ctx.core.store.delete(IM_BUCKET, &key) {
                if out.is_empty() {
                    return Err(crate::store_fault("im queue", &e));
                }
                break;
            }
        }
        out.push(value);
    }
    Ok(Value::Array(out))
}

impl Service for ImService {
    const METHODS: &'static [Method<Self>] = &[
        Method::new(
            "im.send",
            "Queue a message for another identity; returns the sequence number",
            &[string("to_dn"), string("body")],
            Self::send,
        )
        .replicated(),
        Method::new(
            "im.poll",
            "Receive (and consume) up to max queued messages for the caller",
            &[int("max")],
            |_, ctx, args| messages(ctx, args.int(0)?, true),
        )
        .replicated(),
        Method::new(
            "im.peek",
            "Read up to max queued messages without consuming them",
            &[int("max")],
            |_, ctx, args| messages(ctx, args.int(0)?, false),
        ),
        Method::new(
            "im.count",
            "Number of queued messages for the caller",
            &[],
            |_, ctx, _| {
                let prefix = mailbox_prefix(&ctx.require_identity()?.to_string());
                Ok(Value::Int(
                    ctx.core.store.count_prefix(IM_BUCKET, &prefix) as i64
                ))
            },
        ),
    ];
}

impl ImService {
    fn send(&self, ctx: &CallContext<'_>, args: &Args<'_>) -> Result<Value, Fault> {
        let (to, body) = (args.str(0)?, args.str(1)?);
        if body.len() > MAX_BODY {
            return Err(Fault::bad_params(format!(
                "message body exceeds {MAX_BODY} bytes"
            )));
        }
        // Recipient must be a parseable DN (messages to garbage addresses
        // would queue forever).
        clarens_pki::DistinguishedName::parse(to)
            .map_err(|e| Fault::bad_params(format!("bad recipient: {e}")))?;
        let queued = ctx.core.store.count_prefix(IM_BUCKET, &mailbox_prefix(to));
        if queued >= MAX_QUEUE {
            return Err(Fault::service(format!(
                "recipient mailbox full ({MAX_QUEUE} messages)"
            )));
        }
        let seq = self.next_seq(ctx);
        let value = Value::structure([
            ("from", Value::from(ctx.require_identity()?.to_string())),
            ("body", Value::from(body)),
            ("timestamp", Value::Int(ctx.now)),
            ("seq", Value::Int(seq as i64)),
        ]);
        ctx.core
            .store
            .put(
                IM_BUCKET,
                &format!("{to}|{seq:020}"),
                clarens_wire::json::to_string(&value).into_bytes(),
            )
            .map_err(|e| crate::store_fault("im queue", &e))?;
        Ok(Value::Int(seq as i64))
    }
}
