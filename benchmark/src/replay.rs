//! The in-process half of the traced pass: sampled requests of the
//! workload are taken through the layers' public functions one after the
//! other — httpd parse, wire decode, session, ACL, storage commit, wire
//! encode, httpd write, and the secure-channel record layer — each call
//! under its own span, so a layer's self time is what it costs per request
//! when nothing else is in the way.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use clarens::testkit::now;
use clarens_httpd::parse::{read_request, write_response};
use clarens_httpd::Response;
use clarens_wire::{decode_call, decode_response, encode_response, RpcResponse, Value};

use crate::deploy::{Env, Expect, Pki};
use crate::plan::{Check, Design, Op, Outgoing};
use crate::probes::secure_pair;
use crate::trace::{Recorder, Span};

/// Requests replayed, unless the time cap comes first (an 8 MiB download
/// takes milliseconds per replay).
pub const SAMPLES: usize = 2000;
const TIME_CAP: Duration = Duration::from_secs(3);

const MAX_BODY: usize = 16 * 1024 * 1024;

/// What the server would answer to call number `call`, as a value to encode.
fn response_value(env: &Env, call: usize) -> Option<RpcResponse> {
    let spec = &env.design.calls[call];
    let Outgoing::Rpc { protocol, .. } = &spec.send else {
        return None;
    };
    let value = match (&env.templates[call].expect, &spec.check) {
        (Expect::Exact(body), _) => return decode_response(*protocol, body).ok(),
        (_, Check::WhoAmI) => Value::from(env.caller_dn(Op {
            call: 0,
            session: 0,
            gap_ns: 0,
        })),
        (_, Check::ImSend | Check::ImCount) => Value::Int(4),
        (_, Check::ImList { .. }) => Value::array((0..4).map(|seq| {
            Value::structure([
                ("from", Value::from("/O=grid/OU=im/CN=peer00")),
                ("body", Value::from("x".repeat(512))),
                ("timestamp", Value::Int(now())),
                ("seq", Value::Int(seq)),
            ])
        })),
        _ => return None,
    };
    Some(RpcResponse::Success(value))
}

/// Replay up to [`SAMPLES`] operations from the start of connection 0's
/// schedule. Returns the spans and the number of requests replayed.
pub fn replay(env: &Env, pki: &Pki, seed: u64) -> (Vec<Span>, usize) {
    let core = env.core().clone();
    let responses: Vec<Option<RpcResponse>> = (0..env.design.calls.len())
        .map(|c| response_value(env, c))
        .collect();
    let at = now();

    // On the secure channel every request and response crosses the record
    // layer; the far end of this pair just reads what it is told to expect
    // and answers with as many bytes as the real response has.
    let mut channel = env.design.secure.then(|| {
        secure_pair(pki, seed, |mut peer| {
            let mut lens = [0u8; 8];
            while peer.read_exact(&mut lens).is_ok() {
                let request_len =
                    u32::from_le_bytes(lens[..4].try_into().expect("4 bytes")) as usize;
                let response_len =
                    u32::from_le_bytes(lens[4..].try_into().expect("4 bytes")) as usize;
                let mut buf = vec![0u8; request_len.max(response_len)];
                if peer.read_exact(&mut buf[..request_len]).is_err()
                    || peer
                        .write_all(&buf[..response_len])
                        .and_then(|()| peer.flush())
                        .is_err()
                {
                    break;
                }
            }
        })
    });

    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let mut rng = Design::schedule_rng(seed, 0, 0);
    let mut request = Vec::new();
    let mut sink = Vec::new();
    let mut replayed = 0;
    while replayed < SAMPLES && epoch.elapsed() < TIME_CAP {
        let op = env.design.op(&mut rng, 0);
        let spec = &env.design.calls[op.call as usize];
        env.assemble(op, &mut request);
        let id = replayed as u64;
        let dn = clarens::testkit::dn(env.caller_dn(op));
        let response_len = match &env.templates[op.call as usize].expect {
            Expect::Exact(body) => body.len(),
            Expect::Length(len) => *len as usize,
            _ => 256,
        };
        rec.span("bench.request", id, |rec| {
            if let Some((stream, _)) = channel.as_mut() {
                rec.span("pki.records", id, |_| {
                    let mut lens = [0u8; 8];
                    lens[..4].copy_from_slice(&(request.len() as u32).to_le_bytes());
                    lens[4..].copy_from_slice(&(response_len as u32).to_le_bytes());
                    sink.resize(response_len, 0);
                    stream
                        .write_all(&lens)
                        .and_then(|()| stream.write_all(&request))
                        .and_then(|()| stream.flush())
                        .and_then(|()| stream.read_exact(&mut sink))
                        .expect("replay over the secure pair");
                });
            }
            let parsed = rec.span("httpd.parse", id, |_| {
                read_request(&mut request.as_slice(), MAX_BODY).expect("own request parses")
            });
            let call = match &spec.send {
                Outgoing::Rpc { protocol, .. } => Some(rec.span("wire.decode", id, |_| {
                    decode_call(*protocol, &parsed.body).expect("own call decodes")
                })),
                Outgoing::Get { .. } => None,
            };
            if let Some(session) = env.session(op) {
                rec.span("core.session", id, |_| {
                    core.sessions.resolve(session, at).expect("session exists");
                });
            }
            if let Some(call) = &call {
                rec.span("core.acl", id, |_| {
                    assert!(
                        core.acl.check_method(&call.method, &dn, &core.vo),
                        "replayed call is allowed"
                    );
                });
            }
            if spec.check == Check::ImSend {
                rec.span("db.commit", id, |_| {
                    core.store
                        .put("bench.replay", &format!("{id:020}"), parsed.body.clone())
                        .expect("durable put");
                });
            }
            let response = match (&spec.send, &responses[op.call as usize]) {
                (Outgoing::Rpc { protocol, .. }, Some(response)) => {
                    let body = rec.span("wire.encode", id, |_| {
                        encode_response(*protocol, response, None)
                    });
                    Response::ok(protocol.content_type(), body)
                }
                (Outgoing::Get { .. }, _) => {
                    let Check::Download { file } = spec.check else {
                        unreachable!("GETs are downloads")
                    };
                    let path = env.file_path(file).expect("downloads come from a grid");
                    let file = std::fs::File::open(path).expect("seeded file exists");
                    let len = file.metadata().expect("stat seeded file").len();
                    Response::file(200, "application/octet-stream", file, 0, len)
                }
                (Outgoing::Rpc { .. }, None) => unreachable!("every RPC has a response value"),
            };
            rec.span("httpd.write", id, |_| {
                let mut out = CountingSink(0);
                write_response(&mut out, response, true, false).expect("write to a sink");
            });
        });
        replayed += 1;
    }
    if let Some((stream, acceptor)) = channel {
        drop(stream);
        acceptor.join().expect("secure pair peer");
    }
    (rec.spans, replayed)
}

/// Swallows bytes like `io::sink`, but cannot be special-cased away.
struct CountingSink(u64);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += std::hint::black_box(buf).len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
