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

/// Role a server plays in a multi-node federation (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FederationRole {
    /// Not federated: no replication in either direction (default).
    Standalone,
    /// Serves its WAL to followers via `replication.fetch`.
    Leader,
    /// Ships the leader's WAL into its own store continuously.
    Follower,
}

impl std::str::FromStr for FederationRole {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "standalone" => Ok(FederationRole::Standalone),
            "leader" => Ok(FederationRole::Leader),
            "follower" => Ok(FederationRole::Follower),
            other => Err(format!(
                "bad federation_role {other:?} (standalone|leader|follower)"
            )),
        }
    }
}

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
    /// Requests slower than this many microseconds are captured in the
    /// slow-trace ring served by `system.trace_tail`.
    pub slow_trace_us: u64,
    /// Accept the negotiated `clarens-binary` protocol
    /// (`application/x-clarens-cbor` length-prefixed CBOR frames). On by
    /// default; when disabled the server answers 415 and clients fall back
    /// to XML-RPC (DESIGN.md §13).
    pub binary_protocol: bool,
    /// Cap on simultaneously live HTTP connections; connections beyond it
    /// are shed with `503` + `Connection: close` instead of queueing
    /// without bound.
    pub max_connections: usize,
    /// Per-request deadline in milliseconds: the budget covers reading the
    /// request, dispatching the handler, and starting the response. On
    /// expiry the caller gets a `DEADLINE` (504-style) RPC fault instead
    /// of an indefinite wait. `0` disables deadlines.
    pub request_deadline_ms: u64,
    /// Resends per call the bundled client makes on its retry budget
    /// (jittered exponential backoff between attempts): idempotent calls
    /// after any transport failure, any call the server provably never
    /// received (DESIGN.md §10.1). `0` disables retries.
    pub client_retries: u32,
    /// This server's federation role (DESIGN.md §11). Standalone by
    /// default; `leader` serves its WAL to followers, `follower` ships the
    /// leader's WAL into its own store.
    pub federation_role: FederationRole,
    /// Address (`host:port`) of the leader a follower replicates from.
    /// Required when `federation_role` is `follower` unless elections are
    /// on (`leader_lease_ms > 0`), which find the leader themselves;
    /// ignored otherwise.
    pub federation_leader: Option<String>,
    /// How often a follower polls the leader for new WAL records, in
    /// milliseconds. Bounds replication lag on a quiet log. Read by
    /// `clarens_federation::Replicator`.
    pub replication_poll_ms: u64,
    /// Maximum `proxy.call` forwarding depth. Each hop increments the
    /// `x-clarens-hops` header; a request arriving at the limit is refused
    /// instead of looping between misconfigured nodes.
    pub proxy_max_hops: u32,
    /// Leader-lease duration in milliseconds (DESIGN.md §14). A leader
    /// re-publishes its lease on every election tick and self-fences
    /// writes once it has failed to renew for this long; followers start
    /// an election once the last observed renewal is older than this.
    /// `0` disables elections (statically configured leadership, the
    /// pre-failover behaviour).
    pub leader_lease_ms: u64,
    /// Upper bound of the random delay a candidate waits before claiming
    /// leadership, so near-simultaneous candidates don't stampede. The
    /// actual delay is seeded per node. Read, like the lease, by
    /// `clarens_federation::ElectionManager`.
    pub election_jitter_ms: u64,
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
            slow_trace_us: 10_000,
            binary_protocol: true,
            max_connections: 4096,
            request_deadline_ms: 5_000,
            client_retries: 2,
            federation_role: FederationRole::Standalone,
            federation_leader: None,
            replication_poll_ms: 50,
            proxy_max_hops: 2,
            leader_lease_ms: 0,
            election_jitter_ms: 100,
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
                "slow_trace_us" => config.slow_trace_us = field(key, value, lineno)?,
                "binary_protocol" => config.binary_protocol = field(key, value, lineno)?,
                "max_connections" => config.max_connections = field(key, value, lineno)?,
                "request_deadline_ms" => config.request_deadline_ms = field(key, value, lineno)?,
                "client_retries" => config.client_retries = field(key, value, lineno)?,
                "federation_role" => {
                    config.federation_role = value
                        .parse()
                        .map_err(|e| format!("line {}: {e}", lineno + 1))?
                }
                "federation_leader" => config.federation_leader = Some(value.to_owned()),
                "replication_poll_ms" => config.replication_poll_ms = field(key, value, lineno)?,
                "proxy_max_hops" => config.proxy_max_hops = field(key, value, lineno)?,
                "leader_lease_ms" => config.leader_lease_ms = field(key, value, lineno)?,
                "election_jitter_ms" => config.election_jitter_ms = field(key, value, lineno)?,
                other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
            }
        }
        config.validate()?;
        Ok(config)
    }

    /// Reject settings that are each well-formed but cannot work together.
    /// `parse` and `ClarensCore::new` both call this, so a config built as
    /// a struct literal is held to the same rules as a config file.
    pub fn validate(&self) -> Result<(), String> {
        let leaderless = self
            .federation_leader
            .as_deref()
            .is_none_or(|leader| leader.trim().is_empty());
        if self.federation_role == FederationRole::Follower
            && leaderless
            && self.leader_lease_ms == 0
        {
            // With elections on a leaderless follower finds (or becomes)
            // the leader; without them it would idle forever and fence
            // every replicated write with a hint that points nowhere.
            return Err(
                "federation_role: follower needs federation_leader (or leader_lease_ms > 0, \
                 so an election can find one)"
                    .into(),
            );
        }
        Ok(())
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
    fn telemetry_knobs() {
        let config = ClarensConfig::parse("").unwrap();
        assert_eq!(config.slow_trace_us, 10_000);
        let config = ClarensConfig::parse("slow_trace_us: 2500").unwrap();
        assert_eq!(config.slow_trace_us, 2500);
        assert!(ClarensConfig::parse("slow_trace_us: slow").is_err());
    }

    #[test]
    fn binary_protocol_knob() {
        let config = ClarensConfig::default();
        assert!(config.binary_protocol);
        let config = ClarensConfig::parse("binary_protocol: false").unwrap();
        assert!(!config.binary_protocol);
        assert!(ClarensConfig::parse("binary_protocol: maybe").is_err());
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
        assert_eq!(config.client_retries, 2);
        let config = ClarensConfig::parse("request_deadline_ms: 250\nclient_retries: 5").unwrap();
        assert_eq!(config.request_deadline_ms, 250);
        assert_eq!(config.client_retries, 5);
        assert!(ClarensConfig::parse("request_deadline_ms: forever").is_err());
        assert!(ClarensConfig::parse("client_retries: no").is_err());
    }

    #[test]
    fn federation_knobs() {
        let config = ClarensConfig::parse("").unwrap();
        assert_eq!(config.federation_role, FederationRole::Standalone);
        assert!(config.federation_leader.is_none());
        assert_eq!(config.replication_poll_ms, 50);
        assert_eq!(config.proxy_max_hops, 2);
        let config = ClarensConfig::parse(
            "federation_role: follower\nfederation_leader: leader.example.edu:8080\n\
             replication_poll_ms: 25\nproxy_max_hops: 4",
        )
        .unwrap();
        assert_eq!(config.federation_role, FederationRole::Follower);
        assert_eq!(
            config.federation_leader.as_deref(),
            Some("leader.example.edu:8080")
        );
        assert_eq!(config.replication_poll_ms, 25);
        assert_eq!(config.proxy_max_hops, 4);
        assert_eq!(
            ClarensConfig::parse("federation_role: leader")
                .unwrap()
                .federation_role,
            FederationRole::Leader
        );
        // A follower with nobody to follow and no election to find one
        // would idle forever: rejected. With elections on it is the
        // legal leaderless-bootstrap shape.
        let err = ClarensConfig::parse("federation_role: follower").unwrap_err();
        assert!(err.contains("needs federation_leader"), "{err}");
        assert!(ClarensConfig::parse("federation_role: follower\nfederation_leader:").is_err());
        let bootstrap =
            ClarensConfig::parse("federation_role: follower\nleader_lease_ms: 500").unwrap();
        assert!(bootstrap.federation_leader.is_none());
        assert!(ClarensConfig::parse("federation_role: primary").is_err());
        assert!(ClarensConfig::parse("replication_poll_ms: often").is_err());
        assert!(ClarensConfig::parse("proxy_max_hops: none").is_err());
    }

    #[test]
    fn election_knobs() {
        let config = ClarensConfig::parse("").unwrap();
        assert_eq!(config.leader_lease_ms, 0); // elections off by default
        assert_eq!(config.election_jitter_ms, 100);
        let config = ClarensConfig::parse("leader_lease_ms: 750\nelection_jitter_ms: 40").unwrap();
        assert_eq!(config.leader_lease_ms, 750);
        assert_eq!(config.election_jitter_ms, 40);
        assert!(ClarensConfig::parse("leader_lease_ms: forever").is_err());
        assert!(ClarensConfig::parse("election_jitter_ms: some").is_err());
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
    }
}
