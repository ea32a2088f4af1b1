//! The paper-shape comparisons and the drills, one module each.
//!
//! ```sh
//! cargo run -p clarens-bench --release --bin repro -- all
//! cargo run -p clarens-bench --release --bin repro -- fig4
//! ```
//!
//! Experiments (ids match DESIGN.md / EXPERIMENTS.md):
//!   fig4       Figure 4 — throughput vs concurrent clients, plus the
//!              paper's one SSL point ("up to 50%") through the same driver
//!   gt3        Globus-GT3 comparison (footnote 4: ~1–5 calls/s) and which
//!              GT3 overhead knob costs what
//!   discovery  local-DB vs station fan-out query latency
//!   all        the three above
//!   chaos      Figure-4 workload under a seeded randomized fault schedule
//!              (`--seed N`: client edges that reset requests and close
//!              responses midway, and a failed WAL write): asserts
//!              zero wrong answers, reads survive a degraded (read-only)
//!              store, and client retries absorb >= 95% of transients
//!   federation Multi-node federation: aggregate echo.echo throughput at
//!              1/2/4 nodes behind discovery-routed balanced clients
//!              (gates: >= 1.7x from 1 to 2 nodes, >= 3x from 1 to 4),
//!              then a node-kill drill (`--seed N`) asserting zero wrong
//!              answers and 100% client re-resolution via discovery
//!              (`--quick`: 2-node scaling + the kill drill only)
//!   failover   Leader-failover drill (`--seed N`, `--quick`): kill the
//!              elected leader under a live login/read workload and gate
//!              on promotion within 3 lease intervals, zero acked-then-
//!              lost writes (every acked session re-authenticates on the
//!              new leader), and zero wrong answers; then a split-brain
//!              injection gating on 100% of stale-leader writes fenced
//!              (`clarens_fenced_writes_total` > 0) and demotion on heal
//!   fuzz       seeded mutation fuzzing of the decoders, the WAL frame
//!              reader, the secure channel and the pki kernels
//!              (`--secs S`, `--seed N`, `--target NAME`)
//!
//! How fast each layer is, and what the server sustains end to end, is the
//! repo benchmark's business (`benchmark/`, BENCHMARK.json), not this
//! binary's.

#![forbid(unsafe_code)]

mod args;
mod chaos;
mod discovery;
mod failover;
mod federation;
mod fig4;
mod fuzz;
mod gt3;

use args::Args;

fn main() {
    let point_secs = std::env::var("REPRO_POINT_SECS").ok();
    let args = Args::parse(std::env::args().skip(1), point_secs).unwrap_or_else(|error| {
        eprintln!("repro: {error}\n{}", args::USAGE);
        std::process::exit(2);
    });
    match args.experiment.as_str() {
        "fig4" => fig4::run(&args),
        "gt3" => gt3::run(),
        "discovery" => discovery::run(),
        "chaos" => chaos::run(&args),
        "federation" => federation::run(&args),
        "failover" => failover::run(&args),
        "fuzz" => fuzz::run(&args),
        "all" => {
            fig4::run(&args);
            gt3::run();
            discovery::run();
        }
        other => {
            eprintln!("repro: unknown experiment {other:?}\n{}", args::USAGE);
            std::process::exit(2);
        }
    }
}

fn header(title: &str) {
    println!("\n==============================================================");
    println!("{title}");
    println!("==============================================================");
}
