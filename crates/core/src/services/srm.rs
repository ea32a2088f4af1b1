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
use crate::paths;
use crate::registry::{params, unhandled, CallContext, MethodInfo, Service};

/// DB bucket for stage requests (token → request record).
pub const SRM_BUCKET: &str = "srm.requests";

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

    fn load_request(&self, ctx: &CallContext<'_>, token: &str) -> Result<Value, Fault> {
        let bytes = ctx
            .core
            .store
            .get(SRM_BUCKET, token)
            .ok_or_else(|| Fault::service(format!("no such request {token}")))?;
        clarens_wire::json::parse(
            std::str::from_utf8(&bytes)
                .map_err(|_| Fault::new(codes::INTERNAL, "corrupt request record"))?,
        )
        .map_err(|_| Fault::new(codes::INTERNAL, "corrupt request record"))
    }

    fn state_of(&self, request: &Value, now: i64) -> &'static str {
        if request
            .get("released")
            .and_then(Value::as_bool)
            .unwrap_or(false)
        {
            return "released";
        }
        let ready_at = request
            .get("ready_at")
            .and_then(Value::as_int)
            .unwrap_or(i64::MAX);
        if now >= ready_at {
            "online"
        } else {
            "staging"
        }
    }
}

/// The `srm` methods. None is `replicated`: a stage request belongs to the
/// node that holds the file, so any node runs them. `srm.stage` and
/// `srm.release` nevertheless put into [`SRM_BUCKET`], a bucket of the
/// shipped store like any other — run on a leader the record ships to every
/// follower; run on a follower it is appended to that follower's own log
/// only, beside what it applies from the leader's stream (ROADMAP item 3
/// lists the schedule the simulator must judge).
pub static METHODS: &[MethodInfo] = &[
    MethodInfo::new("srm.stage", "srm.stage(path)", "Request a file be staged from mass storage; returns a request token", 1),
    MethodInfo::new("srm.status", "srm.status(token)", "Stage-request status: staging | online | released", 1),
    MethodInfo::new("srm.get", "srm.get(token, offset, nbytes)", "Read from a staged (online) file", 3),
    MethodInfo::new("srm.release", "srm.release(token)", "Release a staged file (it returns to tape)", 1),
    MethodInfo::new("srm.pull", "srm.pull(source_url, dest_path, expected_md5)", "Third-party transfer: fetch a remote Clarens file into local storage (MD5-verified, retried)", 3),
];

impl Service for SrmService {
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
            "srm.stage" => {
                let path = params::string(params_in, 0, "path")?;
                let dn = ctx.require_identity()?;
                let canonical = paths::canonical(&path)
                    .ok_or_else(|| Fault::bad_params(format!("illegal path {path:?}")))?;
                if !ctx
                    .core
                    .acl
                    .check_file(&canonical, FileAccess::Read, dn, &ctx.core.vo)
                {
                    return Err(Fault::access_denied(format!(
                        "no read access to {canonical}"
                    )));
                }
                let real = paths::resolve(&self.root, &path)
                    .ok_or_else(|| Fault::bad_params("illegal path"))?;
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
                ctx.core
                    .store
                    .put(
                        SRM_BUCKET,
                        &token,
                        clarens_wire::json::to_string(&record).into_bytes(),
                    )
                    .map_err(|e| crate::store_fault("srm store", &e))?;
                Ok(Value::structure([
                    ("token", Value::from(token)),
                    ("estimated_seconds", Value::Int(self.stage_delay)),
                ]))
            }
            "srm.status" => {
                ctx.require_identity()?;
                let token = params::string(params_in, 0, "token")?;
                let request = self.load_request(ctx, &token)?;
                Ok(Value::structure([
                    ("state", Value::from(self.state_of(&request, ctx.now))),
                    ("path", request.get("path").cloned().unwrap_or(Value::Nil)),
                ]))
            }
            "srm.get" => {
                let dn = ctx.require_identity()?;
                let token = params::string(params_in, 0, "token")?;
                let offset = params::int(params_in, 1, "offset")?;
                let nbytes = params::int(params_in, 2, "nbytes")?;
                let request = self.load_request(ctx, &token)?;
                if request.get("owner").and_then(Value::as_str) != Some(&dn.to_string()) {
                    return Err(Fault::access_denied("not your stage request"));
                }
                match self.state_of(&request, ctx.now) {
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
                // Delegate to the file-service semantics for the read. The
                // one `Service::call` outside the gate: the name and shape
                // are fixed here, not the caller's, and `srm.get` itself
                // passed the gate; `file.read` still applies its file ACL.
                let file_service = super::FileService::new(self.root.clone());
                Service::call(
                    &file_service,
                    ctx,
                    "file.read",
                    &[Value::from(path), Value::Int(offset), Value::Int(nbytes)],
                )
            }
            "srm.release" => {
                let dn = ctx.require_identity()?;
                let token = params::string(params_in, 0, "token")?;
                let request = self.load_request(ctx, &token)?;
                if request.get("owner").and_then(Value::as_str) != Some(&dn.to_string()) {
                    return Err(Fault::access_denied("not your stage request"));
                }
                let mut map = request.as_struct().cloned().unwrap_or_default();
                map.insert("released".into(), Value::Bool(true));
                ctx.core
                    .store
                    .put(
                        SRM_BUCKET,
                        &token,
                        clarens_wire::json::to_string(&Value::Struct(map)).into_bytes(),
                    )
                    .map_err(|e| crate::store_fault("srm store", &e))?;
                Ok(Value::Bool(true))
            }
            "srm.pull" => {
                let dn = ctx.require_identity()?;
                let source_url = params::string(params_in, 0, "source_url")?;
                let dest = params::string(params_in, 1, "dest_path")?;
                let expected_md5 = params::string(params_in, 2, "expected_md5")?;

                let canonical_dest = paths::canonical(&dest)
                    .ok_or_else(|| Fault::bad_params(format!("illegal path {dest:?}")))?;
                if !ctx
                    .core
                    .acl
                    .check_file(&canonical_dest, FileAccess::Write, dn, &ctx.core.vo)
                {
                    return Err(Fault::access_denied(format!(
                        "no write access to {canonical_dest}"
                    )));
                }
                // Parse "http://host:port/<target>".
                let rest = source_url
                    .strip_prefix("http://")
                    .ok_or_else(|| Fault::bad_params("source_url must be http://..."))?;
                let (host, target) = rest
                    .split_once('/')
                    .map(|(h, t)| (h.to_owned(), format!("/{t}")))
                    .ok_or_else(|| Fault::bad_params("source_url missing path"))?;

                // Robust transfer: the client's call loop retries transport
                // failures under what is left of this request's budget; the
                // body is stored only if it verifies.
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
                let real = paths::resolve(&self.root, &dest)
                    .ok_or_else(|| Fault::bad_params("illegal dest path"))?;
                if let Some(parent) = real.parent() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| crate::store_fault("srm store", &e))?;
                }
                std::fs::write(&real, &body).map_err(|e| crate::store_fault("srm store", &e))?;
                Ok(Value::structure([
                    ("bytes", Value::Int(body.len() as i64)),
                    ("md5", Value::from(digest)),
                    ("dest", Value::from(canonical_dest)),
                ]))
            }
            other => Err(unhandled(other)),
        }
    }
}
