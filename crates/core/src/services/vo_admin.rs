//! The VO management service: the RPC surface over [`crate::vo`]
//! (paper §2.1 — group/member administration for virtual organizations).

use clarens_pki::DistinguishedName;
use clarens_wire::{Fault, Value};

use crate::registry::param::string;
use crate::registry::{Args, CallContext, Method, Service};
use crate::vo::{VoError, VoManager};

/// The `vo` service.
pub struct VoAdminService;

impl From<VoError> for Fault {
    fn from(e: VoError) -> Self {
        match e {
            VoError::NotAuthorized(m) => Fault::access_denied(m),
            VoError::BadGroup(m) => Fault::bad_params(m),
            VoError::Conflict(m) => Fault::service(m),
            VoError::Store(e) => crate::store_fault("vo store", &e),
        }
    }
}

/// A VO mutation by the caller, as the VO manager authorizes it.
type Edit = fn(&VoManager, &DistinguishedName, &str, &str) -> Result<(), VoError>;

/// Run `edit(caller, group, dn)` from `vo.<edit>(group, dn)`.
fn member_edit(ctx: &CallContext<'_>, args: &Args<'_>, edit: Edit) -> Result<Value, Fault> {
    edit(
        &ctx.core.vo,
        ctx.require_identity()?,
        args.str(0)?,
        args.str(1)?,
    )?;
    Ok(Value::Bool(true))
}

impl Service for VoAdminService {
    const METHODS: &'static [Method<Self>] = &[
        Method::new(
            "vo.create_group",
            "Create a VO group",
            &[string("name")],
            |_, ctx, args| {
                ctx.core
                    .vo
                    .create_group(ctx.require_identity()?, args.str(0)?)?;
                Ok(Value::Bool(true))
            },
        )
        .replicated(),
        Method::new(
            "vo.delete_group",
            "Delete a VO group and its subgroups",
            &[string("name")],
            |_, ctx, args| {
                ctx.core
                    .vo
                    .delete_group(ctx.require_identity()?, args.str(0)?)?;
                Ok(Value::Bool(true))
            },
        )
        .replicated(),
        Method::new(
            "vo.add_member",
            "Add a member DN (prefix) to a group",
            &[string("group"), string("dn")],
            |_, ctx, args| member_edit(ctx, args, VoManager::add_member),
        )
        .replicated(),
        Method::new(
            "vo.remove_member",
            "Remove a member DN from a group",
            &[string("group"), string("dn")],
            |_, ctx, args| member_edit(ctx, args, VoManager::remove_member),
        )
        .replicated(),
        Method::new(
            "vo.add_admin",
            "Add a group admin",
            &[string("group"), string("dn")],
            |_, ctx, args| member_edit(ctx, args, VoManager::add_admin),
        )
        .replicated(),
        Method::new(
            "vo.remove_admin",
            "Remove a group admin",
            &[string("group"), string("dn")],
            |_, ctx, args| member_edit(ctx, args, VoManager::remove_admin),
        )
        .replicated(),
        Method::new("vo.list_groups", "All group names", &[], |_, ctx, _| {
            let groups = ctx.core.vo.list_groups();
            Ok(Value::Array(groups.into_iter().map(Value::from).collect()))
        }),
        Method::new(
            "vo.group_info",
            "Members and admins of a group",
            &[string("name")],
            |_, ctx, args| {
                let name = args.str(0)?;
                let group = ctx
                    .core
                    .vo
                    .group(name)
                    .ok_or_else(|| Fault::service(format!("no group {name:?}")))?;
                let list = |names: Vec<String>| Value::array(names.into_iter().map(Value::from));
                Ok(Value::structure([
                    ("members", list(group.members)),
                    ("admins", list(group.admins)),
                ]))
            },
        ),
        Method::new(
            "vo.is_member",
            "Hierarchical membership test",
            &[string("group"), string("dn")],
            |_, ctx, args| {
                let dn = DistinguishedName::parse(args.str(1)?)
                    .map_err(|e| Fault::bad_params(e.to_string()))?;
                Ok(Value::Bool(ctx.core.vo.is_member(args.str(0)?, &dn)))
            },
        ),
    ];
}
