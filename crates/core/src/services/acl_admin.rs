//! The ACL management service: the RPC surface over [`crate::acl`]
//! (paper §2.2 — "Access Control Lists allow you to prevent and manage"
//! access to administrative methods and files).
//!
//! All mutation methods require site-admin privilege: ACLs *are* the
//! protection mechanism, so editing them is the most privileged operation
//! on the server.

use std::collections::BTreeMap;

use clarens_wire::{Fault, Value};

use crate::acl::{Acl, FileAcl, Order};
use crate::registry::param::{string, structure};
use crate::registry::{Method, Service};

/// The `acl` service.
pub struct AclAdminService;

/// Field `key` of an ACL struct: absent is empty, anything but an array of
/// strings is refused.
fn string_list(acl: &BTreeMap<String, Value>, key: &str) -> Result<Vec<String>, Fault> {
    let Some(value) = acl.get(key) else {
        return Ok(Vec::new());
    };
    let strings = value.as_array().and_then(|items| {
        let names = items.iter().map(|v| v.as_str().map(str::to_owned));
        names.collect::<Option<Vec<String>>>()
    });
    strings.ok_or_else(|| Fault::bad_params(format!("{key} must be an array of strings")))
}

/// `true` once the store took an ACL write. A refused one is a fault:
/// `DEGRADED` when the store is read-only.
fn stored(write: std::io::Result<()>) -> Result<Value, Fault> {
    write
        .map(|()| Value::Bool(true))
        .map_err(|e| crate::store_fault("acl store", &e))
}

/// Decode an ACL from its RPC struct form. A malformed field is refused,
/// never read as empty: an ACL with a list dropped would admit whom it was
/// meant to deny.
pub fn acl_from_value(acl: &BTreeMap<String, Value>) -> Result<Acl, Fault> {
    let order = match acl.get("order").map(Value::as_str) {
        None => Order::AllowDeny,
        Some(Some(label)) => Order::from_label(label)
            .ok_or_else(|| Fault::bad_params(format!("bad order {label:?}")))?,
        Some(None) => return Err(Fault::bad_params("order must be a string")),
    };
    Ok(Acl {
        order,
        allow_dns: string_list(acl, "allow_dns")?,
        allow_groups: string_list(acl, "allow_groups")?,
        deny_dns: string_list(acl, "deny_dns")?,
        deny_groups: string_list(acl, "deny_groups")?,
    })
}

impl Service for AclAdminService {
    const METHODS: &'static [Method<Self>] = &[
        Method::new(
            "acl.set_method",
            "Attach an ACL to a method-hierarchy node (site admin)",
            &[string("node"), structure("acl")],
            |_, ctx, args| {
                let acl = acl_from_value(args.structure(1)?)?;
                stored(ctx.core.acl.set_method_acl(args.str(0)?, &acl))
            },
        )
        .admin()
        .replicated(),
        Method::new(
            "acl.clear_method",
            "Remove a method ACL node (site admin)",
            &[string("node")],
            |_, ctx, args| stored(ctx.core.acl.clear_method_acl(args.str(0)?)),
        )
        .admin()
        .replicated(),
        Method::new(
            "acl.get_method",
            "Read a method ACL node",
            &[string("node")],
            |_, ctx, args| {
                let acl = ctx.core.acl.method_acl(args.str(0)?);
                Ok(acl.map_or(Value::Nil, |acl| acl.to_value()))
            },
        ),
        Method::new("acl.list", "All method ACL nodes", &[], |_, ctx, _| {
            let nodes = ctx.core.acl.method_acl_nodes();
            Ok(Value::Array(nodes.into_iter().map(Value::from).collect()))
        }),
        Method::new(
            "acl.set_file",
            "Attach a file ACL to a path node (site admin)",
            &[
                string("node"),
                structure("read_acl"),
                structure("write_acl"),
            ],
            |_, ctx, args| {
                let file_acl = FileAcl {
                    read: acl_from_value(args.structure(1)?)?,
                    write: acl_from_value(args.structure(2)?)?,
                };
                stored(ctx.core.acl.set_file_acl(args.str(0)?, &file_acl))
            },
        )
        .admin()
        .replicated(),
        Method::new(
            "acl.clear_file",
            "Remove a file ACL node (site admin)",
            &[string("node")],
            |_, ctx, args| stored(ctx.core.acl.clear_file_acl(args.str(0)?)),
        )
        .admin()
        .replicated(),
        Method::new(
            "acl.check",
            "Would the given DN be allowed to call the method?",
            &[string("method"), string("dn")],
            |_, ctx, args| {
                let dn = clarens_pki::DistinguishedName::parse(args.str(1)?)
                    .map_err(|e| Fault::bad_params(e.to_string()))?;
                let core = ctx.core;
                Ok(Value::Bool(core.acl.check_method(
                    args.str(0)?,
                    &dn,
                    &core.vo,
                )))
            },
        ),
    ];
}
