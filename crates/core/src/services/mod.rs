//! The built-in Clarens service modules.
//!
//! Paper §2 lists the core services: VO management, ACL management, remote
//! file access, discovery, the shell service, and the proxy service; the
//! `system` module provides introspection and authentication, and `echo`
//! is the trivial method used for cross-framework comparisons (the paper's
//! footnote 4 measures "a trivial method" on Globus GTK 3).

pub mod acl_admin;
pub mod discovery;
pub mod echo;
pub mod file;
pub mod im;
pub mod job;
pub mod proxy;
pub mod replication;
pub mod shell;
pub mod srm;
pub mod system;
pub mod vo_admin;

pub use acl_admin::AclAdminService;
pub use discovery::DiscoveryService;
pub use echo::EchoService;
pub use file::FileService;
pub use im::ImService;
pub use job::JobService;
pub use proxy::ProxyService;
pub use replication::ReplicationService;
pub use shell::ShellService;
pub use srm::SrmService;
pub use system::SystemService;
pub use vo_admin::VoAdminService;

use crate::registry::MethodInfo;

/// The method tables of every built-in module: the records
/// [`register_builtin_services`](crate::register_builtin_services) can put
/// behind the gate, whichever of them a given core's config enables.
pub static BUILTIN: [&[MethodInfo]; 12] = [
    system::METHODS,
    echo::METHODS,
    file::METHODS,
    vo_admin::METHODS,
    acl_admin::METHODS,
    discovery::METHODS,
    proxy::METHODS,
    shell::METHODS,
    im::METHODS,
    srm::METHODS,
    job::METHODS,
    replication::METHODS,
];

/// The record of a built-in method, for code with no registry to ask (a
/// client deciding what it may replay).
pub fn builtin(method: &str) -> Option<&'static MethodInfo> {
    BUILTIN.iter().copied().flatten().find(|m| m.name == method)
}
