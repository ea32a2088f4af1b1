//! The shell service (paper §2.5): sandboxed command execution for
//! authorized clients.
//!
//! "The command is executed by a designated local system user. The local
//! system user is designated by using an ACL file ... named
//! `.clarens_user_map` file, which maps user distinguished names to local
//! system users. ... Execution takes place in a sandbox owned by the local
//! system user. This sandbox can be created or re-used for subsequent
//! commands and is visible to the file service."
//!
//! **Substitution (see DESIGN.md):** executing arbitrary `/bin/sh` under
//! real UNIX accounts requires root and provisioned users; instead the
//! service interprets a safe builtin command set *inside* the per-user
//! sandbox directory. The security-relevant semantics are preserved: DN →
//! system-user mapping (by DN prefix or VO group), ACL-gated access,
//! per-user sandbox isolation, and sandbox visibility to the file service
//! (sandboxes live under the shell root, which deployments point the file
//! service at).

use std::path::{Path, PathBuf};

use clarens_pki::dn::DistinguishedName;
use clarens_wire::{Fault, Value};

use crate::paths;
use crate::registry::{params, unhandled, CallContext, MethodInfo, Service};
use crate::vo::VoManager;

/// One `.clarens_user_map` mapping tuple: "a system user name string,
/// followed by a list of user distinguished name strings, a list of group
/// name strings, and a final list reserved for future use".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserMapping {
    /// The local system user commands run as.
    pub system_user: String,
    /// DN prefixes mapping to this user.
    pub dns: Vec<String>,
    /// VO groups mapping to this user.
    pub groups: Vec<String>,
}

/// The parsed user map.
#[derive(Debug, Clone, Default)]
pub struct UserMap {
    /// Mapping tuples in file order (first match wins).
    pub mappings: Vec<UserMapping>,
}

impl UserMap {
    /// Parse the user-map text. Format, one mapping per line:
    ///
    /// ```text
    /// # comment
    /// joe: dn=/DC=org/DC=doegrids/OU=People/CN=Joe User
    /// joe: group=cms.production
    /// ```
    ///
    /// Repeated lines for the same system user accumulate.
    pub fn parse(text: &str) -> Result<UserMap, String> {
        let mut map = UserMap::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (user, rest) = line
                .split_once(':')
                .ok_or_else(|| format!("line {}: expected 'user: ...'", lineno + 1))?;
            let user = user.trim();
            let rest = rest.trim();
            let mapping = match map.mappings.iter_mut().find(|m| m.system_user == user) {
                Some(existing) => existing,
                None => {
                    map.mappings.push(UserMapping {
                        system_user: user.to_owned(),
                        dns: Vec::new(),
                        groups: Vec::new(),
                    });
                    map.mappings.last_mut().unwrap()
                }
            };
            if let Some(dn) = rest.strip_prefix("dn=") {
                mapping.dns.push(dn.trim().to_owned());
            } else if let Some(group) = rest.strip_prefix("group=") {
                mapping.groups.push(group.trim().to_owned());
            } else {
                return Err(format!("line {}: expected dn=... or group=...", lineno + 1));
            }
        }
        Ok(map)
    }

    /// Map a caller DN to a local system user (first matching tuple wins).
    pub fn map(&self, dn: &DistinguishedName, vo: &VoManager) -> Option<&str> {
        for mapping in &self.mappings {
            let dn_hit = mapping.dns.iter().any(|entry| {
                DistinguishedName::parse(entry)
                    .map(|prefix| dn.has_prefix(&prefix))
                    .unwrap_or(false)
            });
            if dn_hit || mapping.groups.iter().any(|g| vo.is_member(g, dn)) {
                return Some(&mapping.system_user);
            }
        }
        None
    }
}

/// The `shell` service.
pub struct ShellService {
    root: PathBuf,
    user_map: UserMap,
}

impl ShellService {
    /// Create the service; sandboxes live under `root/<system_user>/`.
    pub fn new(root: PathBuf, user_map: UserMap) -> Self {
        ShellService { root, user_map }
    }

    fn sandbox_for(&self, ctx: &CallContext<'_>) -> Result<(String, PathBuf), Fault> {
        let dn = ctx.require_identity()?;
        let user = self
            .user_map
            .map(dn, &ctx.core.vo)
            .ok_or_else(|| Fault::access_denied(format!("no .clarens_user_map entry for {dn}")))?
            .to_owned();
        let sandbox = self.root.join(&user);
        std::fs::create_dir_all(&sandbox)
            .map_err(|e| Fault::service(format!("cannot create sandbox: {e}")))?;
        Ok((user, sandbox))
    }
}

/// The `shell` methods.
pub static METHODS: &[MethodInfo] = &[
    MethodInfo::new(
        "shell.cmd",
        "shell.cmd(command)",
        "Run a sandboxed command as the mapped system user",
        1,
    ),
    MethodInfo::new(
        "shell.cmd_info",
        "shell.cmd_info()",
        "The mapped system user and sandbox directory",
        0,
    ),
];

impl Service for ShellService {
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
            "shell.cmd" => {
                let command = params::string(params_in, 0, "command")?;
                let (_user, sandbox) = self.sandbox_for(ctx)?;
                let outcome = interp::run(&sandbox, &command);
                Ok(Value::structure([
                    ("stdout", Value::from(outcome.stdout)),
                    ("stderr", Value::from(outcome.stderr)),
                    ("status", Value::Int(outcome.status)),
                ]))
            }
            "shell.cmd_info" => {
                let (user, _sandbox) = self.sandbox_for(ctx)?;
                // The *virtual* sandbox path (visible to the file service
                // when its root is the shell root).
                Ok(Value::structure([
                    ("user", Value::from(user.clone())),
                    ("sandbox", Value::from(format!("/{user}"))),
                ]))
            }
            other => Err(unhandled(other)),
        }
    }
}

/// The sandboxed mini-shell interpreter.
pub mod interp {
    use super::*;

    /// Result of one command.
    #[derive(Debug, Default, PartialEq, Eq)]
    pub struct Outcome {
        /// Captured stdout.
        pub stdout: String,
        /// Captured stderr.
        pub stderr: String,
        /// 0 on success.
        pub status: i64,
    }

    fn fail(message: impl Into<String>) -> Outcome {
        Outcome {
            stdout: String::new(),
            stderr: message.into(),
            status: 1,
        }
    }

    /// Tokenize a command line with single/double quotes.
    pub fn tokenize(line: &str) -> Result<Vec<String>, String> {
        let mut tokens = Vec::new();
        let mut current = String::new();
        let mut chars = line.chars().peekable();
        let mut in_token = false;
        while let Some(c) = chars.next() {
            match c {
                ' ' | '\t' => {
                    if in_token {
                        tokens.push(std::mem::take(&mut current));
                        in_token = false;
                    }
                }
                '\'' | '"' => {
                    in_token = true;
                    let quote = c;
                    loop {
                        match chars.next() {
                            Some(q) if q == quote => break,
                            Some(other) => current.push(other),
                            None => return Err("unterminated quote".into()),
                        }
                    }
                }
                other => {
                    in_token = true;
                    current.push(other);
                }
            }
        }
        if in_token {
            tokens.push(current);
        }
        Ok(tokens)
    }

    /// Resolve a sandbox-relative path; `None` on escape attempts.
    fn resolve(sandbox: &Path, path: &str) -> Option<PathBuf> {
        paths::resolve(sandbox, path)
    }

    /// Run one command line inside `sandbox`.
    pub fn run(sandbox: &Path, line: &str) -> Outcome {
        let tokens = match tokenize(line) {
            Ok(t) => t,
            Err(e) => return fail(format!("parse error: {e}")),
        };
        if tokens.is_empty() {
            return Outcome::default();
        }
        // Optional trailing redirection: cmd args > file / >> file.
        let (argv, redirect) = match tokens.iter().position(|t| t == ">" || t == ">>") {
            Some(pos) => {
                if pos + 2 != tokens.len() {
                    return fail("redirection expects exactly one target");
                }
                (
                    tokens[..pos].to_vec(),
                    Some((tokens[pos] == ">>", tokens[pos + 1].clone())),
                )
            }
            None => (tokens.clone(), None),
        };
        if argv.is_empty() {
            return fail("missing command");
        }
        let mut outcome = execute(sandbox, &argv[0], &argv[1..]);
        if let Some((append, target)) = redirect {
            if outcome.status == 0 {
                let Some(real) = resolve(sandbox, &target) else {
                    return fail(format!("{target}: outside sandbox"));
                };
                let result = if append {
                    use std::io::Write as _;
                    std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&real)
                        .and_then(|mut f| f.write_all(outcome.stdout.as_bytes()))
                } else {
                    std::fs::write(&real, outcome.stdout.as_bytes())
                };
                if let Err(e) = result {
                    return fail(format!("{target}: {e}"));
                }
                outcome.stdout = String::new();
            }
        }
        outcome
    }

    fn execute(sandbox: &Path, cmd: &str, args: &[String]) -> Outcome {
        match cmd {
            "echo" => Outcome {
                stdout: format!("{}\n", args.join(" ")),
                ..Default::default()
            },
            "pwd" => Outcome {
                stdout: "/\n".into(),
                ..Default::default()
            },
            "true" => Outcome::default(),
            "false" => Outcome {
                status: 1,
                ..Default::default()
            },
            "whoami" => Outcome {
                stdout: format!(
                    "{}\n",
                    sandbox
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default()
                ),
                ..Default::default()
            },
            "ls" => {
                let target = args.first().map(String::as_str).unwrap_or("/");
                let Some(real) = resolve(sandbox, target) else {
                    return fail(format!("ls: {target}: outside sandbox"));
                };
                match std::fs::read_dir(&real) {
                    Ok(entries) => {
                        let mut names: Vec<String> = entries
                            .filter_map(|e| e.ok())
                            .map(|e| {
                                let mut name = e.file_name().to_string_lossy().into_owned();
                                if e.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                                    name.push('/');
                                }
                                name
                            })
                            .collect();
                        names.sort();
                        Outcome {
                            stdout: names.join("\n") + if names.is_empty() { "" } else { "\n" },
                            ..Default::default()
                        }
                    }
                    Err(e) => fail(format!("ls: {target}: {e}")),
                }
            }
            "cat" => {
                if args.is_empty() {
                    return fail("cat: missing operand");
                }
                let mut stdout = String::new();
                for arg in args {
                    let Some(real) = resolve(sandbox, arg) else {
                        return fail(format!("cat: {arg}: outside sandbox"));
                    };
                    match std::fs::read_to_string(&real) {
                        Ok(text) => stdout.push_str(&text),
                        Err(e) => return fail(format!("cat: {arg}: {e}")),
                    }
                }
                Outcome {
                    stdout,
                    ..Default::default()
                }
            }
            "mkdir" => {
                if args.is_empty() {
                    return fail("mkdir: missing operand");
                }
                for arg in args {
                    let Some(real) = resolve(sandbox, arg) else {
                        return fail(format!("mkdir: {arg}: outside sandbox"));
                    };
                    if let Err(e) = std::fs::create_dir_all(&real) {
                        return fail(format!("mkdir: {arg}: {e}"));
                    }
                }
                Outcome::default()
            }
            "rm" => {
                if args.is_empty() {
                    return fail("rm: missing operand");
                }
                for arg in args {
                    let Some(real) = resolve(sandbox, arg) else {
                        return fail(format!("rm: {arg}: outside sandbox"));
                    };
                    let result = if real.is_dir() {
                        std::fs::remove_dir_all(&real)
                    } else {
                        std::fs::remove_file(&real)
                    };
                    if let Err(e) = result {
                        return fail(format!("rm: {arg}: {e}"));
                    }
                }
                Outcome::default()
            }
            "touch" => {
                if args.is_empty() {
                    return fail("touch: missing operand");
                }
                for arg in args {
                    let Some(real) = resolve(sandbox, arg) else {
                        return fail(format!("touch: {arg}: outside sandbox"));
                    };
                    if let Err(e) = std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&real)
                    {
                        return fail(format!("touch: {arg}: {e}"));
                    }
                }
                Outcome::default()
            }
            "cp" | "mv" => {
                if args.len() != 2 {
                    return fail(format!("{cmd}: expects source and destination"));
                }
                let (Some(src), Some(dst)) =
                    (resolve(sandbox, &args[0]), resolve(sandbox, &args[1]))
                else {
                    return fail(format!("{cmd}: path outside sandbox"));
                };
                let result = if cmd == "cp" {
                    std::fs::copy(&src, &dst).map(|_| ())
                } else {
                    std::fs::rename(&src, &dst)
                };
                match result {
                    Ok(()) => Outcome::default(),
                    Err(e) => fail(format!("{cmd}: {e}")),
                }
            }
            "wc" => {
                if args.is_empty() {
                    return fail("wc: missing operand");
                }
                let Some(real) = resolve(sandbox, &args[0]) else {
                    return fail(format!("wc: {}: outside sandbox", args[0]));
                };
                match std::fs::read_to_string(&real) {
                    Ok(text) => Outcome {
                        stdout: format!(
                            "{} {} {} {}\n",
                            text.lines().count(),
                            text.split_whitespace().count(),
                            text.len(),
                            args[0]
                        ),
                        ..Default::default()
                    },
                    Err(e) => fail(format!("wc: {}: {e}", args[0])),
                }
            }
            "head" | "tail" => {
                let (n, file) = match args {
                    [flag, n, file] if flag == "-n" => match n.parse::<usize>() {
                        Ok(n) => (n, file),
                        Err(_) => return fail(format!("{cmd}: bad count {n:?}")),
                    },
                    [file] => (10, file),
                    _ => return fail(format!("{cmd}: usage: {cmd} [-n N] FILE")),
                };
                let Some(real) = resolve(sandbox, file) else {
                    return fail(format!("{cmd}: {file}: outside sandbox"));
                };
                match std::fs::read_to_string(&real) {
                    Ok(text) => {
                        let lines: Vec<&str> = text.lines().collect();
                        let selected: Vec<&str> = if cmd == "head" {
                            lines.iter().take(n).copied().collect()
                        } else {
                            lines.iter().rev().take(n).rev().copied().collect()
                        };
                        let mut stdout = selected.join("\n");
                        if !stdout.is_empty() {
                            stdout.push('\n');
                        }
                        Outcome {
                            stdout,
                            ..Default::default()
                        }
                    }
                    Err(e) => fail(format!("{cmd}: {file}: {e}")),
                }
            }
            "find" => {
                let start = args.first().map(String::as_str).unwrap_or("/");
                let pattern = args.get(1).map(String::as_str).unwrap_or("");
                let Some(real) = resolve(sandbox, start) else {
                    return fail(format!("find: {start}: outside sandbox"));
                };
                let mut hits = Vec::new();
                let virtual_start = paths::canonical(start).unwrap_or_else(|| "/".into());
                collect_find(&real, &virtual_start, pattern, &mut hits, 0);
                hits.sort();
                let mut stdout = hits.join("\n");
                if !stdout.is_empty() {
                    stdout.push('\n');
                }
                Outcome {
                    stdout,
                    ..Default::default()
                }
            }
            other => fail(format!("{other}: command not found")),
        }
    }

    fn collect_find(
        real: &Path,
        virtual_prefix: &str,
        pattern: &str,
        hits: &mut Vec<String>,
        depth: usize,
    ) {
        if depth > 16 {
            return;
        }
        let Ok(entries) = std::fs::read_dir(real) else {
            return;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let name = entry.file_name().to_string_lossy().into_owned();
            let vpath = if virtual_prefix == "/" {
                format!("/{name}")
            } else {
                format!("{virtual_prefix}/{name}")
            };
            if pattern.is_empty() || name.contains(pattern) {
                hits.push(vpath.clone());
            }
            if entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                collect_find(&entry.path(), &vpath, pattern, hits, depth + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_map_parsing() {
        let text = r#"
# comments ignored
joe: dn=/DC=org/DC=doegrids/OU=People/CN=Joe User
joe: group=cms.production
ops: dn=/O=grid/OU=Operations
"#;
        let map = UserMap::parse(text).unwrap();
        assert_eq!(map.mappings.len(), 2);
        assert_eq!(map.mappings[0].system_user, "joe");
        assert_eq!(map.mappings[0].dns.len(), 1);
        assert_eq!(map.mappings[0].groups, vec!["cms.production"]);
        assert!(UserMap::parse("bad line").is_err());
        assert!(UserMap::parse("joe: what=x").is_err());
    }

    #[test]
    fn tokenizer() {
        use interp::tokenize;
        assert_eq!(tokenize("ls /a b").unwrap(), vec!["ls", "/a", "b"]);
        assert_eq!(
            tokenize("echo 'hello world'").unwrap(),
            vec!["echo", "hello world"]
        );
        assert_eq!(tokenize("echo \"a 'b'\"").unwrap(), vec!["echo", "a 'b'"]);
        assert_eq!(tokenize("  spaced   out  ").unwrap(), vec!["spaced", "out"]);
        assert_eq!(tokenize("").unwrap(), Vec::<String>::new());
        assert!(tokenize("echo 'unterminated").is_err());
        // Empty quoted strings are real tokens.
        assert_eq!(tokenize("echo ''").unwrap(), vec!["echo", ""]);
    }

    fn sandbox(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clarens-shell-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn basic_commands() {
        let sb = sandbox("basic");
        let run = |line: &str| interp::run(&sb, line);

        assert_eq!(run("echo hello world").stdout, "hello world\n");
        assert_eq!(run("pwd").stdout, "/\n");
        assert_eq!(run("true").status, 0);
        assert_eq!(run("false").status, 1);

        assert_eq!(run("mkdir /data").status, 0);
        assert_eq!(run("echo content > /data/f.txt").status, 0);
        assert_eq!(run("cat /data/f.txt").stdout, "content\n");
        assert_eq!(run("echo more >> /data/f.txt").status, 0);
        assert_eq!(run("cat /data/f.txt").stdout, "content\nmore\n");

        let ls = run("ls /");
        assert!(ls.stdout.contains("data/"), "{}", ls.stdout);
        assert_eq!(run("cp /data/f.txt /copy.txt").status, 0);
        assert_eq!(run("cat /copy.txt").stdout, "content\nmore\n");
        assert_eq!(run("mv /copy.txt /moved.txt").status, 0);
        assert_eq!(run("cat /moved.txt").status, 0);
        assert_eq!(run("cat /copy.txt").status, 1);
        assert_eq!(run("rm /moved.txt").status, 0);

        let wc = run("wc /data/f.txt");
        assert!(wc.stdout.starts_with("2 2 13"), "{}", wc.stdout);
        std::fs::remove_dir_all(&sb).unwrap();
    }

    #[test]
    fn head_tail_find() {
        let sb = sandbox("headtail");
        let run = |line: &str| interp::run(&sb, line);
        run("mkdir /logs");
        for i in 0..20 {
            run(&format!("echo line{i} >> /logs/app.log"));
        }
        assert_eq!(run("head -n 2 /logs/app.log").stdout, "line0\nline1\n");
        assert_eq!(run("tail -n 2 /logs/app.log").stdout, "line18\nline19\n");
        assert_eq!(run("head /logs/app.log").stdout.lines().count(), 10);
        run("touch /logs/other.txt");
        let find = run("find / log");
        assert!(find.stdout.contains("/logs\n"), "{}", find.stdout);
        assert!(find.stdout.contains("/logs/app.log\n"), "{}", find.stdout);
        assert!(!find.stdout.contains("other.txt"), "{}", find.stdout);
        std::fs::remove_dir_all(&sb).unwrap();
    }

    #[test]
    fn sandbox_escapes_rejected() {
        let sb = sandbox("escape");
        let run = |line: &str| interp::run(&sb, line);
        for cmd in [
            "cat /../../../etc/passwd",
            "ls ..",
            "rm ../outside",
            "echo pwned > /../escape.txt",
            "cp /../../etc/passwd /steal",
            "find /.. passwd",
        ] {
            let outcome = run(cmd);
            assert_ne!(outcome.status, 0, "{cmd} must fail");
            assert!(
                outcome.stderr.contains("outside sandbox") || outcome.stderr.contains("error"),
                "{cmd}: {}",
                outcome.stderr
            );
        }
        // Nothing leaked above the sandbox.
        assert!(!sb.parent().unwrap().join("escape.txt").exists());
        std::fs::remove_dir_all(&sb).unwrap();
    }

    #[test]
    fn unknown_command_and_errors() {
        let sb = sandbox("unknown");
        let run = |line: &str| interp::run(&sb, line);
        let outcome = run("format_disk");
        assert_eq!(outcome.status, 1);
        assert!(outcome.stderr.contains("command not found"));
        assert_eq!(run("cat /ghost").status, 1);
        assert_eq!(run("cat").status, 1);
        assert_eq!(run("cp onlyone").status, 1);
        assert_eq!(run("echo x > a > b").status, 1); // double redirect
        assert_eq!(run("").status, 0); // empty line is a no-op
        std::fs::remove_dir_all(&sb).unwrap();
    }
}
