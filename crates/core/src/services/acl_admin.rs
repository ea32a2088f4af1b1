//! The ACL management service: the RPC surface over [`crate::acl`]
//! (paper §2.2 — "Access Control Lists allow you to prevent and manage"
//! access to administrative methods and files).
//!
//! All mutation methods require site-admin privilege: ACLs *are* the
//! protection mechanism, so editing them is the most privileged operation
//! on the server.

use clarens_wire::{Fault, Value};

use crate::acl::{Acl, FileAcl, Order};
use crate::registry::{params, unhandled, CallContext, MethodInfo, Service};

/// The `acl` service.
pub struct AclAdminService;

fn string_list(value: Option<&Value>) -> Vec<String> {
    value
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect()
        })
        .unwrap_or_default()
}

/// Decode an ACL from its RPC struct form.
pub fn acl_from_value(value: &Value) -> Result<Acl, Fault> {
    let order = match value.get("order").and_then(Value::as_str) {
        None | Some("allow,deny") => Order::AllowDeny,
        Some("deny,allow") => Order::DenyAllow,
        Some(other) => return Err(Fault::bad_params(format!("bad order {other:?}"))),
    };
    Ok(Acl {
        order,
        allow_dns: string_list(value.get("allow_dns")),
        allow_groups: string_list(value.get("allow_groups")),
        deny_dns: string_list(value.get("deny_dns")),
        deny_groups: string_list(value.get("deny_groups")),
    })
}

/// Encode an ACL into its RPC struct form.
pub fn acl_to_value(acl: &Acl) -> Value {
    let list = |v: &[String]| Value::Array(v.iter().cloned().map(Value::from).collect());
    Value::structure([
        (
            "order",
            Value::from(match acl.order {
                Order::AllowDeny => "allow,deny",
                Order::DenyAllow => "deny,allow",
            }),
        ),
        ("allow_dns", list(&acl.allow_dns)),
        ("allow_groups", list(&acl.allow_groups)),
        ("deny_dns", list(&acl.deny_dns)),
        ("deny_groups", list(&acl.deny_groups)),
    ])
}

/// The `acl` methods.
pub static METHODS: &[MethodInfo] = &[
    MethodInfo::new(
        "acl.set_method",
        "acl.set_method(node, acl)",
        "Attach an ACL to a method-hierarchy node (site admin)",
        2,
    )
    .replicated(),
    MethodInfo::new(
        "acl.clear_method",
        "acl.clear_method(node)",
        "Remove a method ACL node (site admin)",
        1,
    )
    .replicated(),
    MethodInfo::new(
        "acl.get_method",
        "acl.get_method(node)",
        "Read a method ACL node",
        1,
    ),
    MethodInfo::new("acl.list", "acl.list()", "All method ACL nodes", 0),
    MethodInfo::new(
        "acl.set_file",
        "acl.set_file(node, read_acl, write_acl)",
        "Attach a file ACL to a path node (site admin)",
        3,
    )
    .replicated(),
    MethodInfo::new(
        "acl.clear_file",
        "acl.clear_file(node)",
        "Remove a file ACL node (site admin)",
        1,
    )
    .replicated(),
    MethodInfo::new(
        "acl.check",
        "acl.check(method, dn)",
        "Would the given DN be allowed to call the method?",
        2,
    ),
];

impl Service for AclAdminService {
    fn methods(&self) -> &'static [MethodInfo] {
        METHODS
    }

    fn call(
        &self,
        ctx: &CallContext<'_>,
        method: &str,
        params_in: &[Value],
    ) -> Result<Value, Fault> {
        let require_admin = |ctx: &CallContext<'_>| -> Result<(), Fault> {
            let dn = ctx.require_identity()?;
            if ctx.core.vo.is_site_admin(dn) {
                Ok(())
            } else {
                Err(Fault::access_denied(
                    "ACL administration requires site admin",
                ))
            }
        };
        match method {
            "acl.set_method" => {
                require_admin(ctx)?;
                let node = params::string(params_in, 0, "node")?;
                let acl = acl_from_value(&params_in[1])?;
                ctx.core.acl.set_method_acl(&node, &acl);
                Ok(Value::Bool(true))
            }
            "acl.clear_method" => {
                require_admin(ctx)?;
                let node = params::string(params_in, 0, "node")?;
                ctx.core.acl.clear_method_acl(&node);
                Ok(Value::Bool(true))
            }
            "acl.get_method" => {
                ctx.require_identity()?;
                let node = params::string(params_in, 0, "node")?;
                match ctx.core.acl.method_acl(&node) {
                    Some(acl) => Ok(acl_to_value(&acl)),
                    None => Ok(Value::Nil),
                }
            }
            "acl.list" => {
                ctx.require_identity()?;
                Ok(Value::Array(
                    ctx.core
                        .acl
                        .method_acl_nodes()
                        .into_iter()
                        .map(Value::from)
                        .collect(),
                ))
            }
            "acl.set_file" => {
                require_admin(ctx)?;
                let node = params::string(params_in, 0, "node")?;
                let file_acl = FileAcl {
                    read: acl_from_value(&params_in[1])?,
                    write: acl_from_value(&params_in[2])?,
                };
                ctx.core.acl.set_file_acl(&node, &file_acl);
                Ok(Value::Bool(true))
            }
            "acl.clear_file" => {
                require_admin(ctx)?;
                let node = params::string(params_in, 0, "node")?;
                ctx.core.acl.clear_file_acl(&node);
                Ok(Value::Bool(true))
            }
            "acl.check" => {
                ctx.require_identity()?;
                let target = params::string(params_in, 0, "method")?;
                let dn_text = params::string(params_in, 1, "dn")?;
                let dn = clarens_pki::DistinguishedName::parse(&dn_text)
                    .map_err(|e| Fault::bad_params(e.to_string()))?;
                Ok(Value::Bool(ctx.core.acl.check_method(
                    &target,
                    &dn,
                    &ctx.core.vo,
                )))
            }
            other => Err(unhandled(other)),
        }
    }
}
