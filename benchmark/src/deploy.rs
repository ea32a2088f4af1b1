//! The server-bound half of a workload: start an in-process Clarens server
//! on loopback, seed it as the [`Design`] says, pre-encode every request,
//! and capture and fully check the expected response of every distinct
//! call before anything is timed.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};

use clarens::acl::Acl;
use clarens::testkit::{dn, now, GridOptions, TestGrid};
use clarens::{
    install_permissive_acls, register_builtin_services, ClarensConfig, ClarensCore, ClarensServer,
};
use clarens_pki::{Certificate, Credential};
use clarens_wire::{decode_response, encode_call, Protocol, RpcCall, RpcResponse, Value};

use crate::http::{request_head, Client, TlsIdentity};
use crate::plan::{im_body_is_intact, Check, Design, Op, Outgoing, CONNS};

/// Identity material shared by every server of a run. Building it (four
/// RSA key pairs) is the one-off part of set-up.
pub struct Pki {
    pub ca: Certificate,
    pub server: Credential,
    pub admin: Credential,
    pub user: Credential,
}

impl Pki {
    pub fn build(seed: u64) -> Pki {
        let grid = TestGrid::start_with(GridOptions {
            seed,
            workers: 1,
            ..Default::default()
        });
        let pki = Pki {
            ca: grid.ca.certificate.clone(),
            server: grid.server_credential.clone(),
            admin: grid.admin.clone(),
            user: grid.user.clone(),
        };
        grid.cleanup();
        pki
    }

    fn identity(&self, credential: &Credential) -> TlsIdentity {
        TlsIdentity {
            credential: credential.clone(),
            roots: vec![self.ca.clone()],
        }
    }
}

/// How a response is checked on every operation.
pub enum Expect {
    /// The body captured (and decoded, and checked) at warm-up.
    Exact(Vec<u8>),
    /// `pre ++ caller DN ++ post`, the shape captured at warm-up.
    AroundDn { pre: Vec<u8>, post: Vec<u8> },
    /// Only the length; the content was checked by md5 at warm-up.
    Length(u64),
    /// Decode and check the result, which differs per call.
    Im(Check),
}

/// One distinct request, encoded: `head ++ session id ++ tail`.
pub struct Template {
    head: Vec<u8>,
    tail: Vec<u8>,
    pub request_body_len: u64,
    pub expect: Expect,
    pub kind: u8,
    /// Response bodies are kept for checking (false: counted and dropped).
    pub keep_body: bool,
}

/// Sequence numbers the `im` service handed out or gave back.
#[derive(Default)]
pub struct ImNotes {
    pub acked: Vec<u64>,
    pub polled: Vec<u64>,
}

enum Server {
    Grid(Box<TestGrid>),
    Durable {
        server: ClarensServer,
        db_path: PathBuf,
    },
}

enum ScrapeAuth {
    Session(String),
    Secure(Box<TlsIdentity>),
}

pub struct Env {
    pub design: Design,
    pub templates: Vec<Template>,
    sessions: Vec<String>,
    dn_text: Vec<String>,
    pub addr: String,
    /// Set when load connections use the secure channel.
    pub tls: Option<TlsIdentity>,
    scrape_auth: ScrapeAuth,
    server: Server,
    /// Messages acknowledged during set-up.
    pub preseed: ImNotes,
}

/// What the restart check of `durable_write` found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Durability {
    /// Acknowledged, never polled messages that had to survive.
    pub checked: u64,
    pub missing: u64,
}

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// A server whose store is a write-ahead log on disk, synced before every
/// acknowledgement.
fn durable_server(pki: &Pki, db_path: &Path) -> io::Result<ClarensServer> {
    let config = ClarensConfig {
        db_path: Some(db_path.to_owned()),
        db_sync: true,
        workers: CONNS as usize,
        admin_dns: vec![pki.admin.certificate.subject.to_string()],
        ..Default::default()
    };
    let core = ClarensCore::new(config, vec![pki.ca.clone()], pki.server.clone())?;
    register_builtin_services(&core, None);
    install_permissive_acls(&core);
    ClarensServer::start(core, "127.0.0.1:0", None)
}

fn success(protocol: Protocol, status: u16, body: &[u8]) -> Result<Value, String> {
    if status != 200 {
        return Err(format!(
            "status {status}: {}",
            String::from_utf8_lossy(body)
        ));
    }
    match decode_response(protocol, body) {
        Ok(RpcResponse::Success(value)) => Ok(value),
        Ok(RpcResponse::Fault(fault)) => Err(format!("fault {}: {}", fault.code, fault.message)),
        Err(e) => Err(format!("undecodable response: {e}")),
    }
}

/// Check an `im` result and note the sequence numbers it carries.
fn check_im(check: &Check, value: &Value, notes: &mut ImNotes) -> bool {
    match check {
        Check::ImSend => match value.as_int() {
            Some(seq) if seq > 0 => {
                notes.acked.push(seq as u64);
                true
            }
            _ => false,
        },
        Check::ImCount => value.as_int().is_some_and(|n| n >= 0),
        Check::ImList { consumes } => {
            let Some(items) = value.as_array() else {
                return false;
            };
            items.iter().all(|item| {
                let seq = item.get("seq").and_then(Value::as_int);
                let intact = item
                    .get("body")
                    .and_then(Value::as_str)
                    .is_some_and(im_body_is_intact);
                if let (Some(seq), true, true) = (seq, intact, *consumes) {
                    notes.polled.push(seq as u64);
                }
                seq.is_some() && intact
            })
        }
        _ => false,
    }
}

impl Env {
    /// Start the server for `design` under `root` and make it ready for
    /// load: seeded, every request encoded, every expected response
    /// captured and checked.
    pub fn deploy(design: Design, pki: &Pki, seed: u64, root: &Path) -> io::Result<Env> {
        let server = if design.durable {
            let db_path = root.join("durable.wal");
            Server::Durable {
                server: durable_server(pki, &db_path)?,
                db_path,
            }
        } else {
            Server::Grid(Box::new(TestGrid::start_with(GridOptions {
                seed,
                workers: CONNS as usize,
                tls: design.secure,
                permissive_acls: true,
                ..Default::default()
            })))
        };
        let (core, addr) = match &server {
            Server::Grid(grid) => (grid.core().clone(), grid.addr()),
            Server::Durable { server, .. } => {
                (server.core.clone(), server.local_addr().to_string())
            }
        };

        let user = pki.user.certificate.subject.to_string();
        let dn_text: Vec<String> = design
            .dns
            .iter()
            .map(|d| d.clone().unwrap_or_else(|| user.clone()))
            .collect();
        let admin = pki.admin.certificate.subject.clone();

        for group in &design.vo.groups {
            core.vo
                .create_group(&admin, group)
                .map_err(|e| other(format!("create group {group}: {e}")))?;
        }
        for (group, member) in &design.vo.members {
            core.vo
                .add_member(&admin, group, member)
                .map_err(|e| other(format!("add member to {group}: {e}")))?;
        }
        for (node, groups) in &design.vo.method_acls {
            let acl = Acl {
                allow_groups: groups.clone(),
                ..Default::default()
            };
            core.acl.set_method_acl(node, &acl);
        }

        let started = now();
        let parsed: Vec<_> = dn_text.iter().map(|d| dn(d)).collect();
        let sessions: Vec<String> = design
            .session_dn
            .iter()
            .map(|&d| core.sessions.create(&parsed[d as usize], started).id)
            .collect();
        let (tls, scrape_auth) = if design.secure {
            (
                Some(pki.identity(&pki.user)),
                ScrapeAuth::Secure(Box::new(pki.identity(&pki.admin))),
            )
        } else {
            (
                None,
                ScrapeAuth::Session(core.sessions.create(&admin, started).id),
            )
        };
        drop(core);

        if let Server::Grid(grid) = &server {
            let files = grid.data_dir.join("files");
            for file in &design.files {
                let path = files.join(&file.path);
                std::fs::create_dir_all(path.parent().expect("file under the root"))?;
                std::fs::write(path, file.contents())?;
            }
        }

        let with_session = !design.secure;
        let templates = design
            .calls
            .iter()
            .map(|spec| {
                let (mut head, body) = match &spec.send {
                    Outgoing::Rpc { protocol, call } => {
                        let body = encode_call(*protocol, call);
                        let head = request_head(
                            "POST",
                            "/clarens",
                            Some(protocol.content_type()),
                            Some(body.len()),
                            with_session,
                        );
                        (head, body)
                    }
                    Outgoing::Get { path } => (
                        request_head("GET", path, None, None, with_session),
                        Vec::new(),
                    ),
                };
                if !with_session {
                    head.extend_from_slice(b"\r\n");
                }
                let mut tail = if with_session {
                    b"\r\n\r\n".to_vec()
                } else {
                    Vec::new()
                };
                tail.extend_from_slice(&body);
                Template {
                    head,
                    tail,
                    request_body_len: body.len() as u64,
                    expect: Expect::Im(spec.check.clone()),
                    kind: spec.kind,
                    keep_body: !matches!(spec.check, Check::Download { .. }),
                }
            })
            .collect();

        let mut env = Env {
            design,
            templates,
            sessions,
            dn_text,
            addr,
            tls,
            scrape_auth,
            server,
            preseed: ImNotes::default(),
        };
        env.capture_expected().map_err(other)?;
        env.preseed_messages().map_err(other)?;
        Ok(env)
    }

    /// A connection the way the load generator opens them.
    pub fn connect(&self, handshake_seed: u64) -> io::Result<Client> {
        match &self.tls {
            Some(tls) => Client::connect_secure(&self.addr, tls, handshake_seed),
            None => Client::connect(&self.addr),
        }
    }

    /// Write the request of `op` into `out`.
    pub fn assemble(&self, op: Op, out: &mut Vec<u8>) {
        let template = &self.templates[op.call as usize];
        out.clear();
        out.extend_from_slice(&template.head);
        if let Some(session) = self.sessions.get(op.session as usize) {
            out.extend_from_slice(session.as_bytes());
        }
        out.extend_from_slice(&template.tail);
    }

    /// The DN `op` is sent as: its session's, or the certificate's on the
    /// secure channel.
    pub fn caller_dn(&self, op: Op) -> &str {
        let dn = self
            .design
            .session_dn
            .get(op.session as usize)
            .copied()
            .unwrap_or(0);
        &self.dn_text[dn as usize]
    }

    pub fn session(&self, op: Op) -> Option<&str> {
        self.sessions.get(op.session as usize).map(String::as_str)
    }

    /// The running server's core, for replaying requests through its
    /// layers' public functions.
    pub fn core(&self) -> &std::sync::Arc<ClarensCore> {
        match &self.server {
            Server::Grid(grid) => grid.core(),
            Server::Durable { server, .. } => &server.core,
        }
    }

    /// Where file number `file` of the design lives on disk.
    pub fn file_path(&self, file: usize) -> Option<PathBuf> {
        match &self.server {
            Server::Grid(grid) => Some(
                grid.data_dir
                    .join("files")
                    .join(&self.design.files[file].path),
            ),
            Server::Durable { .. } => None,
        }
    }

    /// Is this the right response to `op`? `body` is empty when the
    /// template does not keep bodies; `body_len` is always the length read.
    pub fn verify(
        &self,
        op: Op,
        status: u16,
        body: &[u8],
        body_len: u64,
        notes: &mut ImNotes,
    ) -> bool {
        if status != 200 {
            return false;
        }
        match &self.templates[op.call as usize].expect {
            Expect::Exact(expected) => body == expected.as_slice(),
            Expect::AroundDn { pre, post } => {
                let dn = self.caller_dn(op).as_bytes();
                body.len() == pre.len() + dn.len() + post.len()
                    && body.starts_with(pre)
                    && body.ends_with(post)
                    && &body[pre.len()..pre.len() + dn.len()] == dn
            }
            Expect::Length(len) => body_len == *len,
            Expect::Im(check) => match success(Protocol::XmlRpc, status, body) {
                Ok(value) => check_im(check, &value, notes),
                Err(_) => false,
            },
        }
    }

    /// Send every distinct call once, decode the response in full, check
    /// it against what the call must return, and keep its bytes as the
    /// expectation for the measured operations.
    fn capture_expected(&mut self) -> Result<(), String> {
        let mut client = self.connect(0xCAFE).map_err(|e| e.to_string())?;
        let mut request = Vec::new();
        let mut exchange = |env: &Env, op: Op| -> Result<(u16, Vec<u8>), String> {
            env.assemble(op, &mut request);
            client.exchange(&request).map_err(|e| e.to_string())
        };
        let contents: HashMap<usize, Vec<u8>> = self
            .design
            .calls
            .iter()
            .filter_map(|spec| match spec.check {
                Check::Read { file, .. } | Check::Download { file } => Some(file),
                _ => None,
            })
            .collect::<HashSet<usize>>()
            .into_iter()
            .map(|file| (file, self.design.files[file].contents()))
            .collect();
        for index in 0..self.templates.len() {
            let spec = self.design.calls[index].clone();
            let op = Op {
                call: index as u32,
                session: 0,
                gap_ns: 0,
            };
            let describe = |problem: String| format!("call {index} ({:?}): {problem}", spec.check);
            let expect = match (&spec.send, &spec.check) {
                (_, Check::ImSend | Check::ImList { .. } | Check::ImCount) => continue,
                (Outgoing::Get { .. }, Check::Download { file }) => {
                    let (status, body) = exchange(self, op)?;
                    let wanted = clarens_pki::md5::md5(&contents[file]);
                    if status != 200 || clarens_pki::md5::md5(&body) != wanted {
                        return Err(describe(format!("status {status}, md5 mismatch")));
                    }
                    Expect::Length(body.len() as u64)
                }
                (Outgoing::Rpc { protocol, .. }, Check::WhoAmI) => {
                    // Two callers with different DNs fix the shape: the
                    // body is the same bytes around the caller's DN.
                    let other = Op {
                        session: self.design.session_dn.len() as u32 - 1,
                        ..op
                    };
                    let mut shapes = Vec::new();
                    for caller in [op, other] {
                        let (status, body) = exchange(self, caller)?;
                        let value = success(*protocol, status, &body).map_err(&describe)?;
                        let dn = self.caller_dn(caller);
                        if value.as_str() != Some(dn) {
                            return Err(describe(format!("answered {value:?} to {dn}")));
                        }
                        let at = body
                            .windows(dn.len())
                            .position(|w| w == dn.as_bytes())
                            .ok_or_else(|| describe("DN not found verbatim in the body".into()))?;
                        shapes.push((body[..at].to_vec(), body[at + dn.len()..].to_vec()));
                    }
                    if shapes[0] != shapes[1] {
                        return Err(describe("body shape depends on the caller".into()));
                    }
                    let (pre, post) = shapes.swap_remove(0);
                    Expect::AroundDn { pre, post }
                }
                (Outgoing::Rpc { protocol, .. }, check) => {
                    let (status, body) = exchange(self, op)?;
                    let value = success(*protocol, status, &body).map_err(&describe)?;
                    let right = match check {
                        Check::ListMethods => value.as_array().is_some_and(|names| {
                            let has = |m: &str| names.iter().any(|n| n.as_str() == Some(m));
                            names.len() >= 30 && has("system.list_methods") && has("echo.echo")
                        }),
                        Check::Echo(sent) => value == *sent,
                        Check::Stat { path, size } => {
                            value.get("path").and_then(Value::as_str) == Some(path.as_str())
                                && value.get("size").and_then(Value::as_int) == Some(*size as i64)
                                && value.get("type").and_then(Value::as_str) == Some("file")
                        }
                        Check::Read { file, offset, len } => {
                            let range = *offset as usize..(*offset + *len) as usize;
                            value.coerce_bytes().as_deref() == Some(&contents[file][range])
                        }
                        _ => unreachable!("handled above"),
                    };
                    if !right {
                        return Err(describe(format!("wrong result {value:?}")));
                    }
                    Expect::Exact(body)
                }
                (Outgoing::Get { .. }, _) => unreachable!("GETs are downloads"),
            };
            self.templates[index].expect = expect;
        }
        Ok(())
    }

    fn preseed_messages(&mut self) -> Result<(), String> {
        if self.design.preseed_messages.is_empty() {
            return Ok(());
        }
        let mut client = self.connect(0xCAFE).map_err(|e| e.to_string())?;
        for (recipient, text) in &self.design.preseed_messages {
            let call = RpcCall::new(
                "im.send",
                vec![
                    Value::from(self.dn_text[*recipient as usize].as_str()),
                    Value::from(text.as_str()),
                ],
            );
            let request = xmlrpc_request(&self.sessions[0], &call);
            let (status, body) = client.exchange(&request).map_err(|e| e.to_string())?;
            let value = success(Protocol::XmlRpc, status, &body)?;
            if !check_im(&Check::ImSend, &value, &mut self.preseed) {
                return Err(format!("pre-seed im.send answered {value:?}"));
            }
        }
        Ok(())
    }

    fn get(&self, target: &str) -> io::Result<(u16, Vec<u8>)> {
        match &self.scrape_auth {
            ScrapeAuth::Session(id) => {
                let mut request = request_head("GET", target, None, None, true);
                request.extend_from_slice(id.as_bytes());
                request.extend_from_slice(b"\r\n\r\n");
                Client::connect(&self.addr)?.exchange(&request)
            }
            ScrapeAuth::Secure(tls) => {
                let mut request = request_head("GET", target, None, None, false);
                request.extend_from_slice(b"\r\n");
                Client::connect_secure(&self.addr, tls, 0x5C4A)?.exchange(&request)
            }
        }
    }

    /// The server's exported counters: `GET /metrics`, parsed into
    /// `name{labels}` → value. Only call while no load connection is open:
    /// secure connections each pin a worker.
    pub fn scrape(&self) -> io::Result<HashMap<String, f64>> {
        let (status, body) = self.get("/metrics")?;
        if status != 200 {
            return Err(other(format!("GET /metrics: status {status}")));
        }
        Ok(parse_metrics(&String::from_utf8_lossy(&body)))
    }

    /// Stop the server. For `durable_write`, restart it from the bytes on
    /// disk and require every message in `acked` and not in `polled` to be
    /// readable again.
    pub fn finish(self, pki: &Pki, acked: &[u64], polled: &[u64]) -> io::Result<Durability> {
        let (server, db_path) = match self.server {
            Server::Grid(grid) => {
                grid.cleanup();
                return Ok(Durability::default());
            }
            Server::Durable { server, db_path } => (server, db_path),
        };
        server.shutdown();
        let polled: HashSet<u64> = polled.iter().copied().collect();
        let expected: HashSet<u64> = acked
            .iter()
            .chain(&self.preseed.acked)
            .copied()
            .filter(|seq| !polled.contains(seq))
            .collect();

        let restarted = durable_server(pki, &db_path)?;
        let mut client = Client::connect(&restarted.local_addr().to_string())?;
        let mut found = ImNotes::default();
        let peek_all = RpcCall::new("im.peek", vec![Value::Int(256)]);
        for session in &self.sessions {
            let (status, body) = client.exchange(&xmlrpc_request(session, &peek_all))?;
            let value = success(Protocol::XmlRpc, status, &body).map_err(other)?;
            // `consumes` only makes check_im note the sequence numbers.
            if !check_im(&Check::ImList { consumes: true }, &value, &mut found) {
                return Err(other(format!(
                    "restart check: bad im.peek result {value:?}"
                )));
            }
        }
        drop(client);
        restarted.shutdown();
        let _ = std::fs::remove_file(&db_path);
        let found: HashSet<u64> = found.polled.into_iter().collect();
        Ok(Durability {
            checked: expected.len() as u64,
            missing: expected.difference(&found).count() as u64,
        })
    }
}

/// An XML-RPC POST carrying a session header.
pub fn xmlrpc_request(session: &str, call: &RpcCall) -> Vec<u8> {
    let body = encode_call(Protocol::XmlRpc, call);
    let mut request = request_head(
        "POST",
        "/clarens",
        Some(Protocol::XmlRpc.content_type()),
        Some(body.len()),
        true,
    );
    request.extend_from_slice(session.as_bytes());
    request.extend_from_slice(b"\r\n\r\n");
    request.extend_from_slice(&body);
    request
}

/// Parse Prometheus-style `name{labels} value` lines.
pub fn parse_metrics(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_lines_parse_with_and_without_labels() {
        let m = parse_metrics(
            "clarens_requests_total 28\nclarens_phase_latency_us_sum{phase=\"acl\"} 34\n# note\n",
        );
        assert_eq!(m["clarens_requests_total"], 28.0);
        assert_eq!(m["clarens_phase_latency_us_sum{phase=\"acl\"}"], 34.0);
        assert_eq!(m.len(), 2);
    }
}
