//! The seeded, server-independent half of a workload: which calls exist,
//! which files and groups the server is seeded with, and the per-connection
//! schedule of (call, session, gap) picks. Everything here is a pure
//! function of `--seed`; the server sees only the requests it produces.

use clarens_wire::{encode_call, Protocol, RpcCall, Value};

use crate::rng::Rng64;

/// Connections (and sender threads) every workload uses: `nproc` is 2.
pub const CONNS: u32 = 2;

/// Offered load of `rpc_mix_open`, both connections together. Frozen; never
/// tuned per commit. A closed loop of the same mix completes 40 000 to
/// 48 000 requests per second on the builder's 2-vCPU machine, but there
/// the generator shares the two vCPUs with the server, and from 10 000
/// requests per second up p99 is the generator's own queueing (1 to 2 ms,
/// and 15 to 44 ms at 20 000). At 4000 the latency is the server's.
pub const MIX_OPEN_RATE: f64 = 4000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    RpcFig4,
    RpcMixOpen,
    BulkGet,
    TlsRpc,
    DurableWrite,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::RpcFig4,
        Workload::RpcMixOpen,
        Workload::BulkGet,
        Workload::TlsRpc,
        Workload::DurableWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RpcFig4 => "rpc_fig4",
            Workload::RpcMixOpen => "rpc_mix_open",
            Workload::BulkGet => "bulk_get",
            Workload::TlsRpc => "tls_rpc",
            Workload::DurableWrite => "durable_write",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Each connection sends its next request when the previous response
    /// has arrived.
    Closed,
    /// Each connection sends on its own Poisson schedule at this rate
    /// (requests per second per connection), whatever the server does.
    Open { rate_per_conn: f64 },
}

/// What a response must be, checked semantically at warm-up (and, for the
/// `Im*` kinds whose results differ per call, on every operation).
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    ListMethods,
    Echo(Value),
    WhoAmI,
    Stat {
        path: String,
        size: u64,
    },
    /// `file.read` of `len` bytes at `offset` of file number `file`.
    Read {
        file: usize,
        offset: u64,
        len: u64,
    },
    /// Whole-file GET of file number `file`.
    Download {
        file: usize,
    },
    ImSend,
    ImList {
        consumes: bool,
    },
    ImCount,
}

/// What to send: an RPC call or a whole-file GET.
#[derive(Debug, Clone, PartialEq)]
pub enum Outgoing {
    Rpc { protocol: Protocol, call: RpcCall },
    Get { path: String },
}

#[derive(Debug, Clone, PartialEq)]
pub struct CallSpec {
    pub send: Outgoing,
    pub check: Check,
    /// Index into [`Design::kinds`], for the per-kind latency split.
    pub kind: u8,
}

/// A weighted group of interchangeable calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class {
    pub weight: u32,
    pub first: u32,
    pub count: u32,
    /// Pick only sessions this connection owns (`session % CONNS == conn`),
    /// for calls that read or consume per-identity state.
    pub own_sessions: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct FileSpec {
    /// Path under the file-service root.
    pub path: String,
    pub len: usize,
    pub seed: u64,
}

impl FileSpec {
    pub fn contents(&self) -> Vec<u8> {
        let mut data = vec![0u8; self.len];
        Rng64::new(self.seed).fill(&mut data);
        data
    }
}

/// The VO tree and the method ACLs that name it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VoSpec {
    /// Group names, parents before children.
    pub groups: Vec<String>,
    /// `(group, member DN prefix)`.
    pub members: Vec<(String, String)>,
    /// `(method-tree node, groups allowed)`.
    pub method_acls: Vec<(String, Vec<String>)>,
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub call: u32,
    pub session: u32,
    /// Time after the previous operation's due time (open loop only).
    pub gap_ns: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    pub workload: Workload,
    pub mode: Mode,
    pub secure: bool,
    pub durable: bool,
    pub calls: Vec<CallSpec>,
    pub classes: Vec<Class>,
    pub kinds: Vec<&'static str>,
    /// Identities; `None` stands for the fixture's regular user.
    pub dns: Vec<Option<String>>,
    /// Session number → index into `dns`. Empty on the secure channel,
    /// where identity comes from the client certificate.
    pub session_dn: Vec<u32>,
    /// Sessions `0..active_sessions` appear in the schedule; the rest only
    /// own seeded state.
    pub active_sessions: u32,
    pub files: Vec<FileSpec>,
    pub vo: VoSpec,
    /// `(recipient DN index, body)` messages sent before the window.
    pub preseed_messages: Vec<(u32, String)>,
    /// Every this many operations a connection is closed and reopened
    /// inside the timed operation.
    pub reconnect_every: Option<u64>,
}

impl Design {
    /// The next operation of connection `conn`; draws a fixed number of
    /// values so schedules stay aligned across workload edits.
    pub fn op(&self, rng: &mut Rng64, conn: u32) -> Op {
        let total: u64 = self.classes.iter().map(|c| c.weight as u64).sum();
        let mut ticket = rng.below(total);
        let class = self
            .classes
            .iter()
            .find(|c| {
                if ticket < c.weight as u64 {
                    return true;
                }
                ticket -= c.weight as u64;
                false
            })
            .expect("ticket below the total weight");
        let call = class.first + rng.below(class.count as u64) as u32;
        let pick = rng.next_u64();
        let session = match self.active_sessions {
            0 => 0,
            n if class.own_sessions => conn + CONNS * (pick % (n / CONNS) as u64) as u32,
            n => (pick % n as u64) as u32,
        };
        let gap = rng.unit();
        let gap_ns = match self.mode {
            Mode::Closed => 0,
            Mode::Open { rate_per_conn } => (-(1.0 - gap).ln() * 1e9 / rate_per_conn) as u64,
        };
        Op {
            call,
            session,
            gap_ns,
        }
    }

    /// The schedule generator of one connection in window `window` (the
    /// warm-up, the measured window and the traced window each have their
    /// own). Seed, window and connection each reach the generator's state
    /// separately, so runs with neighbouring seeds share no window.
    pub fn schedule_rng(seed: u64, window: u64, conn: u32) -> Rng64 {
        Rng64::stream(seed, window << 32 | (0x5C4E_D000 + conn as u64))
    }

    /// FNV-1a over every encoded request body and the first `ops`
    /// operations of each connection: equal exactly when two runs would
    /// send the same traffic.
    pub fn schedule_hash(&self, seed: u64, ops: usize) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                hash = (hash ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for spec in &self.calls {
            match &spec.send {
                Outgoing::Rpc { protocol, call } => eat(&encode_call(*protocol, call)),
                Outgoing::Get { path } => eat(path.as_bytes()),
            }
        }
        for conn in 0..CONNS {
            let mut rng = Design::schedule_rng(seed, 0, conn);
            for _ in 0..ops {
                let op = self.op(&mut rng, conn);
                eat(&op.call.to_le_bytes());
                eat(&op.session.to_le_bytes());
                eat(&op.gap_ns.to_le_bytes());
            }
        }
        hash
    }
}

fn rpc(protocol: Protocol, method: &str, params: Vec<Value>, check: Check, kind: u8) -> CallSpec {
    CallSpec {
        send: Outgoing::Rpc {
            protocol,
            call: RpcCall::new(method, params),
        },
        check,
        kind,
    }
}

fn one_class(count: u32) -> Vec<Class> {
    vec![Class {
        weight: 1,
        first: 0,
        count,
        own_sessions: false,
    }]
}

/// A `file.ls`-shaped listing: an array of `{name, type, size}` structs,
/// about 2 KiB as XML-RPC. Only types every codec carries losslessly.
fn listing(rng: &mut Rng64) -> Value {
    Value::array((0..10).map(|_| {
        let name_len = 12 + rng.below(13) as usize;
        Value::structure([
            ("name", Value::from(format!("{}.root", rng.alnum(name_len)))),
            (
                "type",
                Value::from(if rng.below(8) == 0 { "dir" } else { "file" }),
            ),
            ("size", Value::Int(rng.below(1 << 40) as i64)),
        ])
    }))
}

const IM_BODY_LEN: usize = 512;

/// An `im` message body that carries its own checksum, so any reader can
/// verify it without knowing who sent it.
pub fn im_body(rng: &mut Rng64) -> String {
    let payload = rng.alnum(IM_BODY_LEN - 16);
    format!(
        "{}{payload}",
        &clarens_pki::md5::md5_hex(payload.as_bytes())[..16]
    )
}

pub fn im_body_is_intact(body: &str) -> bool {
    body.len() == IM_BODY_LEN
        && body.is_char_boundary(16)
        && clarens_pki::md5::md5_hex(&body.as_bytes()[16..])[..16] == body[..16]
}

fn rpc_fig4() -> Design {
    Design {
        workload: Workload::RpcFig4,
        mode: Mode::Closed,
        secure: false,
        durable: false,
        calls: vec![rpc(
            Protocol::XmlRpc,
            "system.list_methods",
            vec![],
            Check::ListMethods,
            0,
        )],
        classes: one_class(1),
        kinds: vec!["system.list_methods"],
        dns: vec![None],
        session_dn: vec![0, 0],
        active_sessions: 2,
        files: vec![],
        vo: VoSpec::default(),
        preseed_messages: vec![],
        reconnect_every: None,
    }
}

const MIX_DNS: u32 = 20_000;
const MIX_SESSIONS: u32 = 100_000;
const MIX_VOS: u32 = 16;
const MIX_DEPTH: usize = 6;

fn rpc_mix_open(seed: u64) -> Design {
    let mut rng = Rng64::stream(seed, 0xA11);
    let dns = (0..MIX_DNS)
        .map(|i| Some(format!("/O=grid/OU=vo{:02}/CN=user{i:05}", i % MIX_VOS)))
        .collect();
    // A binary tree six levels deep under each of 16 VOs: 1008 groups.
    // Membership sits at the top level and is inherited downward; each
    // method ACL names one leaf per VO, so a decision-cache miss walks the
    // whole branch.
    let mut vo = VoSpec::default();
    let mut leaves = Vec::new();
    for v in 0..MIX_VOS {
        let top = format!("vo{v:02}");
        vo.members
            .push((top.clone(), format!("/O=grid/OU=vo{v:02}")));
        let mut level = vec![top];
        for _ in 1..MIX_DEPTH {
            vo.groups.extend(level.iter().cloned());
            level = level
                .iter()
                .flat_map(|g| [format!("{g}.0"), format!("{g}.1")])
                .collect();
        }
        vo.groups.extend(level.iter().cloned());
        leaves.push(level[rng.below(level.len() as u64) as usize].clone());
    }
    for node in ["system", "echo", "file"] {
        vo.method_acls.push((node.to_owned(), leaves.clone()));
    }

    let mut files: Vec<FileSpec> = (0..8)
        .map(|i| FileSpec {
            path: format!("mix/s{i}.dat"),
            len: 1024 + rng.below(63 * 1024) as usize,
            seed: rng.next_u64(),
        })
        .collect();
    let blob = files.len();
    files.push(FileSpec {
        path: "mix/blob.bin".into(),
        len: 256 * 1024,
        seed: rng.next_u64(),
    });
    let listings: Vec<Value> = (0..8).map(|_| listing(&mut rng)).collect();
    let read_offsets: Vec<u64> = (0..4).map(|_| rng.below(15) * 16 * 1024).collect();

    let protocols = [
        (Protocol::XmlRpc, 40),
        (Protocol::Soap, 20),
        (Protocol::JsonRpc, 20),
        (Protocol::Binary, 20),
    ];
    let mut calls = Vec::new();
    let mut classes = Vec::new();
    for (protocol, protocol_weight) in protocols {
        let mut class = |calls: &mut Vec<CallSpec>, weight: u32, added: Vec<CallSpec>| {
            classes.push(Class {
                weight: protocol_weight * weight,
                first: calls.len() as u32,
                count: added.len() as u32,
                own_sessions: false,
            });
            calls.extend(added);
        };
        let echoes = listings
            .iter()
            .map(|v| {
                rpc(
                    protocol,
                    "echo.echo",
                    vec![v.clone()],
                    Check::Echo(v.clone()),
                    0,
                )
            })
            .collect();
        class(&mut calls, 40, echoes);
        let whoami = vec![rpc(protocol, "system.whoami", vec![], Check::WhoAmI, 1)];
        class(&mut calls, 30, whoami);
        let stats = files[..blob]
            .iter()
            .map(|f| {
                let check = Check::Stat {
                    path: format!("/{}", f.path),
                    size: f.len as u64,
                };
                rpc(
                    protocol,
                    "file.stat",
                    vec![Value::from(f.path.as_str())],
                    check,
                    2,
                )
            })
            .collect();
        class(&mut calls, 20, stats);
        let reads = read_offsets
            .iter()
            .map(|&offset| {
                let len = 16 * 1024;
                let params = vec![
                    Value::from(files[blob].path.as_str()),
                    Value::Int(offset as i64),
                    Value::Int(len),
                ];
                let check = Check::Read {
                    file: blob,
                    offset,
                    len: len as u64,
                };
                rpc(protocol, "file.read", params, check, 3)
            })
            .collect();
        class(&mut calls, 10, reads);
    }
    Design {
        workload: Workload::RpcMixOpen,
        mode: Mode::Open {
            rate_per_conn: MIX_OPEN_RATE / CONNS as f64,
        },
        secure: false,
        durable: false,
        calls,
        classes,
        kinds: vec!["echo.echo", "system.whoami", "file.stat", "file.read"],
        dns,
        session_dn: (0..MIX_SESSIONS).map(|s| s % MIX_DNS).collect(),
        active_sessions: MIX_SESSIONS,
        files,
        vo,
        preseed_messages: vec![],
        reconnect_every: None,
    }
}

fn bulk_get(seed: u64) -> Design {
    let mut rng = Rng64::stream(seed, 0xB01);
    let files: Vec<FileSpec> = (0..8)
        .map(|i| FileSpec {
            path: format!("bulk/f{i}.bin"),
            len: 8 * 1024 * 1024,
            seed: rng.next_u64(),
        })
        .collect();
    let calls = files
        .iter()
        .enumerate()
        .map(|(file, f)| CallSpec {
            send: Outgoing::Get {
                path: format!("/file/{}", f.path),
            },
            check: Check::Download { file },
            kind: 0,
        })
        .collect();
    Design {
        workload: Workload::BulkGet,
        mode: Mode::Closed,
        secure: false,
        durable: false,
        calls,
        classes: one_class(8),
        kinds: vec!["GET /file"],
        dns: vec![None],
        session_dn: vec![0, 0],
        active_sessions: 2,
        files,
        vo: VoSpec::default(),
        preseed_messages: vec![],
        reconnect_every: None,
    }
}

fn tls_rpc(seed: u64) -> Design {
    let mut rng = Rng64::stream(seed, 0x715);
    let calls = (0..4)
        .map(|_| {
            let text = Value::from(rng.alnum(8 * 1024));
            rpc(
                Protocol::XmlRpc,
                "echo.echo",
                vec![text.clone()],
                Check::Echo(text),
                0,
            )
        })
        .collect();
    Design {
        workload: Workload::TlsRpc,
        mode: Mode::Closed,
        secure: true,
        durable: false,
        calls,
        classes: one_class(4),
        kinds: vec!["echo.echo"],
        dns: vec![None],
        session_dn: vec![],
        active_sessions: 0,
        files: vec![],
        vo: VoSpec::default(),
        preseed_messages: vec![],
        // Exactly 2 % of operations carry a handshake: safely past the
        // 99th-percentile boundary, so p50 is record crypto and p99 is the
        // handshake.
        reconnect_every: Some(50),
    }
}

const IM_PEERS: u32 = 64;
const IM_BALLAST_DNS: u32 = 8;
const IM_BALLAST_MESSAGES: u32 = 1500;

fn durable_write(seed: u64) -> Design {
    let mut rng = Rng64::stream(seed, 0xD0B);
    let dns: Vec<Option<String>> = (0..IM_PEERS)
        .map(|i| Some(format!("/O=grid/OU=im/CN=peer{i:02}")))
        .chain((0..IM_BALLAST_DNS).map(|i| Some(format!("/O=grid/OU=im/CN=archive{i}"))))
        .collect();
    let mut calls = Vec::new();
    for peer in &dns[..IM_PEERS as usize] {
        for _ in 0..2 {
            let params = vec![
                Value::from(peer.clone().expect("named")),
                Value::from(im_body(&mut rng)),
            ];
            calls.push(rpc(Protocol::XmlRpc, "im.send", params, Check::ImSend, 0));
        }
    }
    let sends = calls.len() as u32;
    let list = |method, consumes, kind| {
        rpc(
            Protocol::XmlRpc,
            method,
            vec![Value::Int(8)],
            Check::ImList { consumes },
            kind,
        )
    };
    calls.push(list("im.peek", false, 1));
    calls.push(rpc(Protocol::XmlRpc, "im.count", vec![], Check::ImCount, 2));
    calls.push(list("im.poll", true, 3));
    let reader = |weight, first| Class {
        weight,
        first,
        count: 1,
        own_sessions: true,
    };
    let classes = vec![
        Class {
            weight: 50,
            first: 0,
            count: sends,
            own_sessions: false,
        },
        reader(25, sends),
        reader(15, sends + 1),
        reader(10, sends + 2),
    ];
    // Ballast nobody polls: a constant live set of about 1 MiB, so the log
    // reaches the compaction threshold every megabyte of garbage — several
    // times per window — and each compaction has real data to rewrite.
    let preseed_messages = (0..IM_BALLAST_MESSAGES)
        .map(|i| (IM_PEERS + i % IM_BALLAST_DNS, im_body(&mut rng)))
        .collect();
    Design {
        workload: Workload::DurableWrite,
        mode: Mode::Closed,
        secure: false,
        durable: true,
        calls,
        classes,
        kinds: vec!["im.send", "im.peek", "im.count", "im.poll"],
        session_dn: (0..dns.len() as u32).collect(),
        dns,
        active_sessions: IM_PEERS,
        files: vec![],
        vo: VoSpec::default(),
        preseed_messages,
        reconnect_every: None,
    }
}

pub fn design(workload: Workload, seed: u64) -> Design {
    match workload {
        Workload::RpcFig4 => rpc_fig4(),
        Workload::RpcMixOpen => rpc_mix_open(seed),
        Workload::BulkGet => bulk_get(seed),
        Workload::TlsRpc => tls_rpc(seed),
        Workload::DurableWrite => durable_write(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        for workload in Workload::ALL {
            let a = design(workload, 11).schedule_hash(11, 5000);
            let b = design(workload, 11).schedule_hash(11, 5000);
            let c = design(workload, 12).schedule_hash(12, 5000);
            assert_eq!(a, b, "{}", workload.name());
            // rpc_fig4 sends one fixed request on two hot sessions; only
            // the session picks can differ.
            assert_ne!(a, c, "{}", workload.name());
        }
    }

    #[test]
    fn neighbouring_seeds_share_no_window() {
        let mut first_draws = std::collections::HashSet::new();
        for seed in 1..=10 {
            for window in 0..3 {
                for conn in 0..CONNS {
                    let draw = Design::schedule_rng(seed, window, conn).next_u64();
                    assert!(first_draws.insert(draw), "{seed} {window} {conn}");
                }
            }
        }
    }

    #[test]
    fn mix_follows_the_stated_shares() {
        let design = design(Workload::RpcMixOpen, 3);
        let mut rng = Design::schedule_rng(3, 0, 0);
        let n = 100_000;
        let mut by_kind = [0u32; 4];
        let mut binary = 0u32;
        let mut gap_sum = 0u64;
        for _ in 0..n {
            let op = design.op(&mut rng, 0);
            let spec = &design.calls[op.call as usize];
            by_kind[spec.kind as usize] += 1;
            if matches!(
                &spec.send,
                Outgoing::Rpc {
                    protocol: Protocol::Binary,
                    ..
                }
            ) {
                binary += 1;
            }
            gap_sum += op.gap_ns;
            assert!(op.session < MIX_SESSIONS);
        }
        let share = |count: u32| count as f64 / n as f64;
        for (kind, want) in [0.4, 0.3, 0.2, 0.1].into_iter().enumerate() {
            assert!((share(by_kind[kind]) - want).abs() < 0.01, "kind {kind}");
        }
        assert!((share(binary) - 0.2).abs() < 0.01);
        let mean_gap_us = gap_sum as f64 / n as f64 / 1e3;
        let want_us = 1e6 / (MIX_OPEN_RATE / CONNS as f64);
        assert!(
            (mean_gap_us - want_us).abs() < want_us * 0.02,
            "{mean_gap_us}"
        );
    }

    #[test]
    fn mix_tree_has_about_a_thousand_groups_six_deep() {
        let design = design(Workload::RpcMixOpen, 3);
        assert_eq!(design.vo.groups.len(), 1008);
        let leaf = &design.vo.method_acls[0].1[0];
        assert_eq!(leaf.split('.').count(), MIX_DEPTH);
        assert_eq!(design.vo.method_acls[0].1.len(), MIX_VOS as usize);
    }

    #[test]
    fn readers_stay_on_their_own_sessions() {
        let design = design(Workload::DurableWrite, 5);
        for conn in 0..CONNS {
            let mut rng = Design::schedule_rng(5, 0, conn);
            for _ in 0..2000 {
                let op = design.op(&mut rng, conn);
                assert!(op.session < IM_PEERS);
                if design.calls[op.call as usize].check != Check::ImSend {
                    assert_eq!(op.session % CONNS, conn);
                }
            }
        }
    }

    #[test]
    fn im_bodies_verify_and_detect_damage() {
        let body = im_body(&mut Rng64::new(9));
        assert!(im_body_is_intact(&body));
        let mut damaged = body.into_bytes();
        damaged[100] ^= 1;
        assert!(!im_body_is_intact(std::str::from_utf8(&damaged).unwrap()));
    }
}
