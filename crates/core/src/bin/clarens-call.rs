//! `clarens-call` — command-line Clarens client: authenticate with a
//! credential file (or reuse a session id) and invoke any method, with
//! parameters given as JSON.
//!
//! ```text
//! clarens-call --server 127.0.0.1:8080 --cred pat.cred system.list_methods
//! clarens-call --server 127.0.0.1:8080 --cred pat.cred echo.sum 40 2
//! clarens-call --server 127.0.0.1:8080 --session <id> file.read '"/data/f"' 0 1024
//! clarens-call --server 127.0.0.1:8080 --cred pat.cred --roots ca.cert --tls system.whoami
//! ```
//!
//! Each parameter is parsed as JSON (so strings need quotes); bare words
//! that fail JSON parsing are treated as strings for convenience. The
//! result is printed as pretty JSON. On login, the session id is printed
//! to stderr so follow-up calls can reuse it with `--session`.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::process::exit;

use clarens::ClarensClient;
use clarens_pki::pem;
use clarens_wire::{json, Protocol, Value};

fn usage() -> ! {
    eprintln!(
        "usage: clarens-call --server ADDR (--cred FILE | --session ID) \
         [--roots FILE --tls] [--protocol xmlrpc|soap|jsonrpc] METHOD [JSON-ARGS...]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut positional: Vec<String> = Vec::new();
    let mut tls = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].strip_prefix("--") {
            Some("tls") => {
                tls = true;
                i += 1;
            }
            Some(name) => {
                let Some(value) = args.get(i + 1) else {
                    usage()
                };
                flags.insert(name.to_owned(), value.clone());
                i += 2;
            }
            None => {
                positional.push(args[i].clone());
                i += 1;
            }
        }
    }
    let Some(server) = flags.get("server") else {
        usage()
    };
    let Some((method, raw_params)) = positional.split_first() else {
        usage()
    };

    let protocol = match flags.get("protocol").map(String::as_str) {
        None | Some("xmlrpc") => Protocol::XmlRpc,
        Some("soap") => Protocol::Soap,
        Some("jsonrpc") => Protocol::JsonRpc,
        Some(other) => {
            eprintln!("unknown protocol {other:?}");
            usage();
        }
    };

    let params: Vec<Value> = raw_params
        .iter()
        .map(|raw| json::parse(raw).unwrap_or_else(|_| Value::Str(raw.clone())))
        .collect();

    let credential = flags.get("cred").map(|path| {
        pem::decode_credential(&std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        }))
        .unwrap_or_else(|e| {
            eprintln!("bad credential: {e}");
            exit(1);
        })
    });

    let mut client = if tls {
        let Some(roots_path) = flags.get("roots") else {
            eprintln!("--tls requires --roots");
            usage();
        };
        let roots =
            pem::decode_certificates(&std::fs::read_to_string(roots_path).unwrap_or_else(|e| {
                eprintln!("cannot read {roots_path}: {e}");
                exit(1);
            }))
            .unwrap_or_else(|e| {
                eprintln!("bad roots: {e}");
                exit(1);
            });
        let Some(credential) = credential.clone() else {
            eprintln!("--tls requires --cred");
            usage();
        };
        ClarensClient::new_tls(server.clone(), credential, roots).with_protocol(protocol)
    } else {
        let mut c = ClarensClient::new(server.clone()).with_protocol(protocol);
        if let Some(credential) = credential.clone() {
            c = c.with_credential(credential);
        }
        c
    };

    if let Some(session) = flags.get("session") {
        client.set_session(session.clone());
    } else if !tls && credential.is_some() {
        match client.login() {
            Ok(session) => eprintln!("session: {session}"),
            Err(e) => {
                eprintln!("login failed: {e}");
                exit(1);
            }
        }
    }

    match client.call(method, params) {
        Ok(result) => println!("{}", json::to_string_pretty(&result)),
        Err(e) => {
            eprintln!("call failed: {e}");
            exit(1);
        }
    }
}
