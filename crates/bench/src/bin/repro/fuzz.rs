//! `repro fuzz [--secs S] [--seed N] [--target NAME]` — the in-tree
//! deterministic mutation fuzzer over the streaming decoders, the WAL
//! frame reader, the secure channel's record machine and the pki kernels
//! (see `clarens_bench::fuzzer`). CI's drills job runs this for two
//! minutes; the cargo-fuzz targets under `fuzz/` drive the same entry
//! points coverage-guided where nightly is available.

use std::time::Duration;

use clarens_bench::fuzzer::{self, FuzzTarget};

use crate::args::Args;
use crate::header;

pub fn run(args: &Args) {
    let secs = args.secs.unwrap_or(Duration::from_secs(30));
    let seed = args.seed.unwrap_or(0xC1A12E45);
    let targets: Vec<FuzzTarget> = match &args.target {
        Some(name) => match FuzzTarget::parse(name) {
            Some(target) => vec![target],
            None => {
                eprintln!(
                    "unknown fuzz target {name:?}; use {}",
                    FuzzTarget::ALL.map(|t| t.name()).join("|")
                );
                std::process::exit(2);
            }
        },
        None => FuzzTarget::ALL.to_vec(),
    };

    header(&format!(
        "Fuzz — seeded mutation over the streaming decoders ({}s total, seed {seed})",
        secs.as_secs_f64()
    ));
    let budget = secs / targets.len() as u32;
    println!(
        "{:>20} {:>12} {:>8} {:>10}",
        "target", "iterations", "corpus", "elapsed"
    );
    let mut total = 0u64;
    for target in targets {
        let report = fuzzer::run(target, seed, budget);
        println!(
            "{:>20} {:>12} {:>8} {:>9.1}s",
            report.target.name(),
            report.iterations,
            report.corpus,
            report.elapsed.as_secs_f64()
        );
        total += report.iterations;
    }
    println!("\nfuzz pass clean: {total} mutated inputs, no property violations");
}
