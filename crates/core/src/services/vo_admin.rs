//! The VO management service: the RPC surface over [`crate::vo`]
//! (paper §2.1 — group/member administration for virtual organizations).

use clarens_wire::{Fault, Value};

use crate::registry::{params, unhandled, CallContext, MethodInfo, Service};
use crate::vo::VoError;

/// The `vo` service.
pub struct VoAdminService;

impl From<VoError> for Fault {
    fn from(e: VoError) -> Self {
        match e {
            VoError::NotAuthorized(m) => Fault::access_denied(m),
            VoError::BadGroup(m) => Fault::bad_params(m),
            VoError::Conflict(m) => Fault::service(m),
        }
    }
}

/// The `vo` methods.
pub static METHODS: &[MethodInfo] = &[
    MethodInfo::new(
        "vo.create_group",
        "vo.create_group(name)",
        "Create a VO group",
        1,
    )
    .replicated(),
    MethodInfo::new(
        "vo.delete_group",
        "vo.delete_group(name)",
        "Delete a VO group and its subgroups",
        1,
    )
    .replicated(),
    MethodInfo::new(
        "vo.add_member",
        "vo.add_member(group, dn)",
        "Add a member DN (prefix) to a group",
        2,
    )
    .replicated(),
    MethodInfo::new(
        "vo.remove_member",
        "vo.remove_member(group, dn)",
        "Remove a member DN from a group",
        2,
    )
    .replicated(),
    MethodInfo::new(
        "vo.add_admin",
        "vo.add_admin(group, dn)",
        "Add a group admin",
        2,
    )
    .replicated(),
    MethodInfo::new(
        "vo.remove_admin",
        "vo.remove_admin(group, dn)",
        "Remove a group admin",
        2,
    )
    .replicated(),
    MethodInfo::new("vo.list_groups", "vo.list_groups()", "All group names", 0),
    MethodInfo::new(
        "vo.group_info",
        "vo.group_info(name)",
        "Members and admins of a group",
        1,
    ),
    MethodInfo::new(
        "vo.is_member",
        "vo.is_member(group, dn)",
        "Hierarchical membership test",
        2,
    ),
];

impl Service for VoAdminService {
    fn methods(&self) -> &'static [MethodInfo] {
        METHODS
    }

    fn call(
        &self,
        ctx: &CallContext<'_>,
        method: &str,
        params_in: &[Value],
    ) -> Result<Value, Fault> {
        let vo = &ctx.core.vo;
        match method {
            "vo.create_group" => {
                let name = params::string(params_in, 0, "name")?;
                vo.create_group(ctx.require_identity()?, &name)?;
                Ok(Value::Bool(true))
            }
            "vo.delete_group" => {
                let name = params::string(params_in, 0, "name")?;
                vo.delete_group(ctx.require_identity()?, &name)?;
                Ok(Value::Bool(true))
            }
            "vo.add_member" | "vo.remove_member" | "vo.add_admin" | "vo.remove_admin" => {
                let group = params::string(params_in, 0, "group")?;
                let dn = params::string(params_in, 1, "dn")?;
                let actor = ctx.require_identity()?;
                match method {
                    "vo.add_member" => vo.add_member(actor, &group, &dn)?,
                    "vo.remove_member" => vo.remove_member(actor, &group, &dn)?,
                    "vo.add_admin" => vo.add_admin(actor, &group, &dn)?,
                    _ => vo.remove_admin(actor, &group, &dn)?,
                }
                Ok(Value::Bool(true))
            }
            "vo.list_groups" => {
                ctx.require_identity()?;
                Ok(Value::Array(
                    vo.list_groups().into_iter().map(Value::from).collect(),
                ))
            }
            "vo.group_info" => {
                ctx.require_identity()?;
                let name = params::string(params_in, 0, "name")?;
                let group = vo
                    .group(&name)
                    .ok_or_else(|| Fault::service(format!("no group {name:?}")))?;
                Ok(Value::structure([
                    (
                        "members",
                        Value::Array(group.members.into_iter().map(Value::from).collect()),
                    ),
                    (
                        "admins",
                        Value::Array(group.admins.into_iter().map(Value::from).collect()),
                    ),
                ]))
            }
            "vo.is_member" => {
                ctx.require_identity()?;
                let group = params::string(params_in, 0, "group")?;
                let dn_text = params::string(params_in, 1, "dn")?;
                let dn = clarens_pki::DistinguishedName::parse(&dn_text)
                    .map_err(|e| Fault::bad_params(e.to_string()))?;
                Ok(Value::Bool(vo.is_member(&group, &dn)))
            }
            other => Err(unhandled(other)),
        }
    }
}
