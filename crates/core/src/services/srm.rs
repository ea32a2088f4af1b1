//! The SRM (Storage Resource Manager) service — the paper's §6 mass-storage
//! future-work item, implemented as an extension.
//!
//! "Although Clarens provides remote file access through a Web Service, it
//! does not support interfaces to mass storage facilities yet. Work is
//! under way to provide an SRM service interface to dCache such that
//! Clarens can support robust file transfer between different mass storage
//! facilities."
//!
//! Substitution (DESIGN.md): no dCache/tape silo exists here, so mass
//! storage is simulated by a staging model — every file is notionally "on
//! tape" until a stage request brings it "online" after a configurable
//! latency, which is precisely the SRM v1 `get`/`getRequestStatus`
//! interaction pattern. Third-party transfer (`srm.pull`) is real: this
//! server fetches a file from *another* Clarens server's streamed GET
//! endpoint, verifies its MD5, and lands it in local storage with retries.

use std::path::PathBuf;

use clarens_wire::fault::codes;
use clarens_wire::{Fault, Value};

use crate::acl::FileAccess;
use crate::client::ClarensClient;
use crate::registry::param::{int, string};
use crate::registry::{Args, CallContext, Method, Service};
use crate::services::file;

/// DB bucket for stage requests (token → request record). A request
/// belongs to the process that staged the file, so the bucket is node-local
/// ([`clarens_db::NODE_LOCAL`]): a token lives as long as that process, as
/// the method table does, and never ships to a follower.
pub const SRM_BUCKET: &str = "local.srm.requests";

/// The `srm` service.
pub struct SrmService {
    root: PathBuf,
    /// Simulated tape latency: seconds between `srm.stage` and the file
    /// becoming online.
    stage_delay: i64,
}

impl SrmService {
    /// Create the service over the same root as the file service.
    pub fn new(root: PathBuf, stage_delay: i64) -> Self {
        SrmService { root, stage_delay }
    }
}

/// The stage request `token`, if the caller owns it.
fn owned_request(ctx: &CallContext<'_>, token: &str) -> Result<Value, Fault> {
    let dn = ctx.require_identity()?;
    let request = load_request(ctx, token)?;
    if request.get("owner").and_then(Value::as_str) != Some(&dn.to_string()) {
        return Err(Fault::access_denied("not your stage request"));
    }
    Ok(request)
}

fn load_request(ctx: &CallContext<'_>, token: &str) -> Result<Value, Fault> {
    let bytes = ctx
        .core
        .store
        .get(SRM_BUCKET, token)
        .ok_or_else(|| Fault::service(format!("no such request {token}")))?;
    let corrupt = || Fault::new(codes::INTERNAL, "corrupt request record");
    clarens_wire::json::parse(std::str::from_utf8(&bytes).map_err(|_| corrupt())?)
        .map_err(|_| corrupt())
}

fn put_request(ctx: &CallContext<'_>, token: &str, request: &Value) -> Result<(), Fault> {
    let bytes = clarens_wire::json::to_string(request).into_bytes();
    ctx.core
        .store
        .put(SRM_BUCKET, token, bytes)
        .map_err(|e| crate::store_fault("srm store", &e))
}

fn state_of(request: &Value, now: i64) -> &'static str {
    if request.get("released").and_then(Value::as_bool) == Some(true) {
        "released"
    } else if request
        .get("ready_at")
        .and_then(Value::as_int)
        .is_some_and(|at| now >= at)
    {
        "online"
    } else {
        "staging"
    }
}

impl Service for SrmService {
    // None is `replicated`: a stage request belongs to the node that holds
    // the file, so any node runs them, and `SRM_BUCKET` is node-local.
    const METHODS: &'static [Method<Self>] = &[
        Method::new(
            "srm.stage",
            "Request a file be staged from mass storage; returns a request token",
            &[string("path")],
            Self::stage,
        ),
        Method::new(
            "srm.status",
            "Stage-request status: staging | online | released",
            &[string("token")],
            |_, ctx, args| {
                let request = load_request(ctx, args.str(0)?)?;
                Ok(Value::structure([
                    ("state", Value::from(state_of(&request, ctx.now))),
                    ("path", request.get("path").cloned().unwrap_or(Value::Nil)),
                ]))
            },
        ),
        Method::new(
            "srm.get",
            "Read from a staged (online) file",
            &[string("token"), int("offset"), int("nbytes")],
            Self::get,
        ),
        Method::new(
            "srm.release",
            "Release a staged file (it returns to tape)",
            &[string("token")],
            |_, ctx, args| {
                let token = args.str(0)?;
                let mut request = owned_request(ctx, token)?;
                if let Value::Struct(map) = &mut request {
                    map.insert("released".into(), Value::Bool(true));
                }
                put_request(ctx, token, &request)?;
                Ok(Value::Bool(true))
            },
        ),
        Method::new(
            "srm.pull",
            "Third-party transfer: fetch a remote Clarens file into local storage (MD5-verified, retried)",
            &[string("source_url"), string("dest_path"), string("expected_md5")],
            Self::pull,
        ),
    ];
}

impl SrmService {
    fn stage(&self, ctx: &CallContext<'_>, args: &Args<'_>) -> Result<Value, Fault> {
        let dn = ctx.require_identity()?;
        let (canonical, real) = file::authorize(ctx, &self.root, args.str(0)?, FileAccess::Read)?;
        if !real.is_file() {
            return Err(Fault::service(format!("{canonical}: not in mass storage")));
        }
        // Mint a token and schedule the staging completion.
        let token = clarens_pki::sha256::to_hex(&clarens_pki::sha256::sha256(
            format!("{canonical}|{}|{}", dn, ctx.now).as_bytes(),
        ));
        let record = Value::structure([
            ("path", Value::from(canonical)),
            ("owner", Value::from(dn.to_string())),
            ("ready_at", Value::Int(ctx.now + self.stage_delay)),
            ("released", Value::Bool(false)),
        ]);
        put_request(ctx, &token, &record)?;
        Ok(Value::structure([
            ("token", Value::from(token)),
            ("estimated_seconds", Value::Int(self.stage_delay)),
        ]))
    }

    fn get(&self, ctx: &CallContext<'_>, args: &Args<'_>) -> Result<Value, Fault> {
        let request = owned_request(ctx, args.str(0)?)?;
        match state_of(&request, ctx.now) {
            "online" => {}
            state => {
                return Err(Fault::service(format!(
                    "file not online (state: {state}) — SRM_FILE_NOT_READY"
                )))
            }
        }
        let path = request
            .get("path")
            .and_then(Value::as_str)
            .ok_or_else(|| Fault::new(codes::INTERNAL, "corrupt request"))?;
        // The file service's read, file ACL included.
        file::read(ctx, &self.root, path, args.int(1)?, args.int(2)?)
    }

    fn pull(&self, ctx: &CallContext<'_>, args: &Args<'_>) -> Result<Value, Fault> {
        let (source_url, dest, expected_md5) = (args.str(0)?, args.str(1)?, args.str(2)?);
        let (canonical_dest, real) = file::authorize(ctx, &self.root, dest, FileAccess::Write)?;
        // Parse "http://host:port/<target>".
        let rest = source_url
            .strip_prefix("http://")
            .ok_or_else(|| Fault::bad_params("source_url must be http://..."))?;
        let (host, target) = rest
            .split_once('/')
            .map(|(h, t)| (h.to_owned(), format!("/{t}")))
            .ok_or_else(|| Fault::bad_params("source_url missing path"))?;

        // Robust transfer: the client's call loop retries transport
        // failures under what is left of this request's budget; the body
        // is stored only if it verifies.
        let mut source = ClarensClient::new(host);
        if let Some(budget) = ctx.remaining_budget() {
            source = source.with_call_deadline(budget);
        }
        let body = source
            .get(&target)
            .map_err(|e| Fault::service(format!("transfer failed: {e}")))?;
        let digest = clarens_pki::md5::md5_hex(&body);
        if !expected_md5.is_empty() && digest != expected_md5 {
            return Err(Fault::service(format!(
                "transfer failed: md5 mismatch: got {digest}, want {expected_md5}"
            )));
        }
        let store_fault = |e| crate::store_fault("srm store", &e);
        if let Some(parent) = real.parent() {
            std::fs::create_dir_all(parent).map_err(store_fault)?;
        }
        std::fs::write(&real, &body).map_err(store_fault)?;
        Ok(Value::structure([
            ("bytes", Value::Int(body.len() as i64)),
            ("md5", Value::from(digest)),
            ("dest", Value::from(canonical_dest)),
        ]))
    }
}
