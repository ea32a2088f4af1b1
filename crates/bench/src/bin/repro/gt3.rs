//! The Globus comparison (footnote 4): a trivial method over GT3 ran at
//! ~1–5 calls/s vs Clarens' ~1450/s — and which of the modelled GT3
//! overheads accounts for how much of that.

use std::time::Instant;

use clarens_bench::bench_grid;
use clarens_wire::Value;
use gt3_baseline::{Gt3Client, Gt3Config, Gt3Server};

use crate::header;

/// `calls` sequential echoes (after one warm-up) against a GT3-like
/// container running under `config`; returns calls/sec.
fn gt3_rate(config: Gt3Config, credential_seed: u64, calls: usize) -> f64 {
    let (root, credential) = gt3_baseline::test_credentials(credential_seed);
    let server = Gt3Server::start("127.0.0.1:0", config.clone(), vec![root]).unwrap();
    let mut client = Gt3Client::new(server.local_addr().to_string(), config, credential);
    client.echo(Value::Int(0)).unwrap(); // warm-up
    let t0 = Instant::now();
    for i in 0..calls {
        client.echo(Value::Int(i as i64)).unwrap();
    }
    let rate = calls as f64 / t0.elapsed().as_secs_f64();
    server.shutdown();
    rate
}

pub fn run() {
    header("Globus GT3 comparison — trivial method (echo.echo), 100 calls each");
    const CALLS: usize = 100;

    // Clarens path: keep-alive, one session, echo.echo.
    let grid = bench_grid();
    let mut client = grid.logged_in_client(&grid.user);
    // Warm-up call (the paper ignores the first invocation).
    client.call("echo.echo", vec![Value::Int(0)]).unwrap();
    let t0 = Instant::now();
    for i in 0..CALLS {
        client
            .call("echo.echo", vec![Value::Int(i as i64)])
            .unwrap();
    }
    let clarens_rate = CALLS as f64 / t0.elapsed().as_secs_f64();
    grid.cleanup();

    // GT3-like path: connection per call, per-message GSI auth, per-call
    // container boot, multi-pass message handling.
    let gt3_rate_all = gt3_rate(Gt3Config::default(), 0x61, CALLS);

    println!("{:>14} {:>14}", "stack", "calls/sec");
    println!("{:>14} {:>14.1}", "clarens", clarens_rate);
    println!("{:>14} {:>14.1}", "gt3-baseline", gt3_rate_all);
    println!(
        "\nratio: {:.0}x  (paper: ~1450 vs 1-5 calls/sec, i.e. ~300-1400x)",
        clarens_rate / gt3_rate_all
    );

    println!("\nAblation C — GT3 baseline overhead attribution (echo.echo, 30 calls each)");
    println!("{:>44} {:>12}", "configuration", "calls/sec");
    let variants: [(&str, Gt3Config); 5] = [
        ("all overheads (faithful GT3 model)", Gt3Config::default()),
        (
            "- per-call container boot",
            Gt3Config {
                per_call_container_boot: false,
                ..Default::default()
            },
        ),
        (
            "- per-message GSI auth",
            Gt3Config {
                per_call_auth: false,
                ..Default::default()
            },
        ),
        (
            "- connection per call (keep-alive)",
            Gt3Config {
                connection_per_call: false,
                ..Default::default()
            },
        ),
        (
            "none (all knobs off)",
            Gt3Config {
                per_call_auth: false,
                per_call_container_boot: false,
                handler_passes: 1,
                connection_per_call: false,
                deployed_services: 1,
            },
        ),
    ];
    for (name, config) in variants {
        println!("{:>44} {:>12.1}", name, gt3_rate(config, 77, 30));
    }
}
