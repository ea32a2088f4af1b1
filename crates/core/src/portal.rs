//! Portal functionality (paper §3): server-rendered HTML pages exposing
//! the file browser, VO management view, and service discovery over plain
//! HTTP GET.
//!
//! The original portal was "a series of static web pages that embed
//! JavaScript scripts to handle ... web service calls"; the substitution
//! here (see DESIGN.md) renders the same views server-side so they are
//! testable without a browser. Every page is reachable with nothing but an
//! HTTP client — "eliminating the need for users to install any
//! additional software apart from a web browser".
//!
//! Like those scripts, a page is a client of the services: it renders the
//! answer of the calls it mirrors, made through the gate
//! ([`registry::invoke`]) under the request's own [`CallContext`], so it
//! shows a caller exactly what those calls would, and a refused call shows
//! its fault instead of data.

use clarens_httpd::{Request, Response};
use clarens_telemetry::RequestTrace;
use clarens_wire::fault::codes;
use clarens_wire::{Fault, Value};

use crate::registry::{self, CallContext};

/// HTML-escape text content.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

fn page(title: &str, body: &str) -> Response {
    let html = format!(
        "<!DOCTYPE html><html><head><title>{title}</title>\
         <style>body{{font-family:sans-serif;margin:2em}}table{{border-collapse:collapse}}\
         td,th{{border:1px solid #999;padding:4px 8px}}nav a{{margin-right:1em}}</style>\
         </head><body><nav><a href=\"/\">home</a><a href=\"/portal/files\">files</a>\
         <a href=\"/portal/vo\">vo</a>\
         <a href=\"/portal/acl\">acl</a><a href=\"/portal/methods\">methods</a></nav>\
         <h1>{title}</h1>{body}</body></html>",
        title = escape(title),
        body = body
    );
    Response::ok("text/html", html)
}

/// Call `method` as a client would, through the gate. Its time is inside
/// the GET's own span, so the trace is a disabled one (as for the local
/// leg of `proxy.call`).
fn call(ctx: &CallContext<'_>, method: &str, params: &[Value]) -> Result<Value, Fault> {
    registry::invoke(ctx, method, params, &mut RequestTrace::disabled())
}

/// What a page shows in place of the data a call was refused.
fn refusal(fault: &Fault) -> String {
    match fault.code {
        codes::NOT_AUTHENTICATED => {
            "<p>Authenticate (session or TLS) to view this page.</p>".to_owned()
        }
        code => format!("<p>Refused (fault {code}): {}</p>", escape(&fault.message)),
    }
}

/// A page whose body is the rendered answer of its calls, or the fault of
/// the first one refused. Either way the status is 200.
fn render(title: &str, body: Result<String, Fault>) -> Response {
    page(title, &body.unwrap_or_else(|fault| refusal(&fault)))
}

/// The strings of an array value (anything else has none).
fn strings(value: Option<&Value>) -> Vec<&str> {
    let items = value.and_then(Value::as_array).unwrap_or_default();
    items.iter().filter_map(Value::as_str).collect()
}

/// Field `key` of a struct value as text, empty when absent.
fn text<'v>(value: &'v Value, key: &str) -> &'v str {
    value.get(key).and_then(Value::as_str).unwrap_or_default()
}

/// The landing page: server identity, plus the registered modules and
/// the method count of `system.list_methods`.
pub fn index(ctx: &CallContext<'_>) -> Response {
    let core = ctx.core;
    let who = ctx
        .identity
        .as_deref()
        .map(|dn| escape(&dn.to_string()))
        .unwrap_or_else(|| "not authenticated".to_owned());
    let listing = match call(ctx, "system.list_methods", &[]) {
        Ok(names) => {
            let names = strings(Some(&names));
            let mut modules: Vec<&str> = names
                .iter()
                .map(|name| name.split('.').next().unwrap_or(name))
                .collect();
            modules.sort_unstable();
            modules.dedup();
            format!(
                "<p>Registered modules: {}</p><p>Methods: {}</p>",
                escape(&modules.join(", ")),
                names.len()
            )
        }
        Err(fault) => refusal(&fault),
    };
    let body = format!(
        "<p>Server: <code>{url}</code></p><p>Server DN: <code>{dn}</code></p>\
         <p>You are: <code>{who}</code></p>{listing}",
        url = escape(&core.config.server_url),
        dn = escape(&core.credential.certificate.subject.to_string()),
    );
    page("Clarens portal", &body)
}

/// Route `/portal/...` requests.
pub fn route(ctx: &CallContext<'_>, request: &Request) -> Response {
    match request.path() {
        "/portal" | "/portal/" => index(ctx),
        "/portal/files" => {
            let query = clarens_wire::percent::parse_query(request.query());
            let dir = query.iter().find(|(key, _)| key == "path");
            render("Files", files(ctx, dir.map_or("/", |(_, dir)| dir)))
        }
        "/portal/vo" => render("Virtual Organizations", vo_page(ctx)),
        "/portal/acl" => render("Access Control", acl_page(ctx)),
        "/portal/methods" => render("Methods", methods_page(ctx)),
        other => Response::error(404, &format!("no portal page {other}")),
    }
}

/// The remote-file-browser component ("a look and feel similar to
/// conventional file browsers", §3): `file.ls` as a table of entries with
/// links into subdirectories and download links through the GET file path.
fn files(ctx: &CallContext<'_>, dir: &str) -> Result<String, Fault> {
    let entries = call(ctx, "file.ls", &[Value::from(dir)])?;
    let base = dir.trim_matches('/');
    let mut rows = String::new();
    for entry in entries.as_array().unwrap_or_default() {
        let (name, kind) = (text(entry, "name"), text(entry, "type"));
        let child = if base.is_empty() {
            format!("/{name}")
        } else {
            format!("/{base}/{name}")
        };
        let link = if kind == "dir" {
            format!(
                "<a href=\"/portal/files?path={}\">{}/</a>",
                clarens_wire::percent::encode(&child),
                escape(name)
            )
        } else {
            format!(
                "<a href=\"/file{}\">{}</a>",
                clarens_wire::percent::encode_path(&child),
                escape(name)
            )
        };
        let size = entry.get("size").and_then(Value::as_int).unwrap_or(0);
        rows.push_str(&format!(
            "<tr><td>{link}</td><td>{}</td><td>{size}</td></tr>",
            escape(kind)
        ));
    }
    Ok(format!(
        "<p>Browsing <code>{}</code></p><table><tr><th>name</th><th>type</th><th>size</th></tr>{rows}</table>",
        escape(dir)
    ))
}

/// The VO management view: `vo.list_groups`, then `vo.group_info` of
/// each group for its members and admins.
fn vo_page(ctx: &CallContext<'_>) -> Result<String, Fault> {
    let groups = call(ctx, "vo.list_groups", &[])?;
    let mut rows = String::new();
    for name in strings(Some(&groups)) {
        let group = call(ctx, "vo.group_info", &[Value::from(name)])?;
        let list = |key| {
            let names = strings(group.get(key)).into_iter().map(escape);
            names.collect::<Vec<_>>().join("<br>")
        };
        rows.push_str(&format!(
            "<tr><td><code>{}</code></td><td>{}</td><td>{}</td></tr>",
            escape(name),
            list("members"),
            list("admins"),
        ));
    }
    Ok(format!(
        "<table><tr><th>group</th><th>members</th><th>admins</th></tr>{rows}</table>"
    ))
}

/// One ACL, as `acl.get_method` answers it, on one line.
fn acl_text(acl: &Value) -> String {
    let list = |key| strings(acl.get(key)).join(", ");
    format!(
        "order {}; allow dns [{}] groups [{}]; deny dns [{}] groups [{}]",
        text(acl, "order"),
        list("allow_dns"),
        list("allow_groups"),
        list("deny_dns"),
        list("deny_groups"),
    )
}

/// The access-control management view (§3 lists "access control
/// management" among the portal components): `acl.list`, then
/// `acl.get_method` of each node, then the file ACL nodes.
fn acl_page(ctx: &CallContext<'_>) -> Result<String, Fault> {
    let nodes = call(ctx, "acl.list", &[])?;
    let mut rows = String::new();
    let mut row = |kind: &str, node: &str, acl: &Value| {
        rows.push_str(&format!(
            "<tr><td>{kind}</td><td><code>{}</code></td><td>{}</td></tr>",
            escape(node),
            escape(&acl_text(acl))
        ));
    };
    for node in strings(Some(&nodes)) {
        let acl = call(ctx, "acl.get_method", &[Value::from(node)])?;
        // Nil: the node was cleared since `acl.list`.
        if !acl.is_nil() {
            row("method", node, &acl);
        }
    }
    // No method reads the file ACLs: they are shown to whoever may list
    // the method ACLs.
    let core = ctx.core;
    for node in core.store.keys(crate::acl::FILE_ACL_BUCKET) {
        if let Some(file_acl) = core.acl.file_acl(&node) {
            row("file (read)", &node, &file_acl.read.to_value());
            row("file (write)", &node, &file_acl.write.to_value());
        }
    }
    Ok(format!(
        "<table><tr><th>kind</th><th>node</th><th>specification</th></tr>{rows}</table>"
    ))
}

/// The method catalogue (the discovery-adjacent view: what this server
/// exports, with signatures): `system.list_methods`, then
/// `system.get_method_info` of each method.
fn methods_page(ctx: &CallContext<'_>) -> Result<String, Fault> {
    let names = call(ctx, "system.list_methods", &[])?;
    let mut rows = String::new();
    for name in strings(Some(&names)) {
        let info = call(ctx, "system.get_method_info", &[Value::from(name)])?;
        rows.push_str(&format!(
            "<tr><td><code>{}</code></td><td><code>{}</code></td><td>{}</td></tr>",
            escape(name),
            escape(text(&info, "signature")),
            escape(text(&info, "doc"))
        ));
    }
    Ok(format!(
        "<table><tr><th>method</th><th>signature</th><th>doc</th></tr>{rows}</table>"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(
            escape("<a href=\"x\">&"),
            "&lt;a href=&quot;x&quot;&gt;&amp;"
        );
        assert_eq!(escape("plain"), "plain");
    }
}
