//! The repo benchmark: one workload per process, driven over loopback TCP
//! by the benchmark's own load generator. See README.md.
//!
//! ```text
//! clarens-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` measures one window with tracing off and prints the gated
//! end-to-end metrics (and that window's timings as diagnostics);
//! `--trace 1` prints every per-layer metric: an untraced half and a half
//! with client-side spans and server counters read before and after, a
//! replay of sampled requests through the layers, then the layer probes.

mod alloc;
mod deploy;
mod http;
mod loadgen;
mod plan;
mod probes;
mod replay;
mod report;
mod rng;
mod stats;
mod trace;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use deploy::{Env, Pki};
use loadgen::{Summary, Window};
use plan::{design, Workload};
use report::Metric;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Schedule stream of the warm-up load (the measured windows use 0 and 1).
const WARMUP_STREAM: u64 = 0x57A2_77FF;
/// Set-ups per untraced run; `setup_s` reports their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    nproc: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut values: HashMap<String, String> = HashMap::new();
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                values.insert(flag, value);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let get = |flag: &str| values.get(flag).ok_or_else(|| format!("missing {flag}"));
    let names = || Workload::ALL.map(Workload::name).join(", ");
    Ok(Args {
        workload: Workload::parse(get("--workload")?)
            .ok_or_else(|| format!("unknown workload; one of: {}", names()))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: match get("--seconds")?.parse::<f64>() {
            Ok(s) if s > 0.0 && s <= 60.0 => s,
            _ => return Err("--seconds must be within (0, 60]".into()),
        },
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        smoke,
        nproc: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0),
    })
}

/// Exit status of a run: any wrong, failed or lost operation fails it.
pub fn exit_code(failed: u64, lost: u64) -> i32 {
    if failed + lost > 0 {
        2
    } else {
        0
    }
}

/// High-water mark of resident memory, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Deploy the workload and run the warm-up load; returns the environment
/// ready for its first measured operation.
fn set_up(args: &Args, pki: &Pki, root: &Path) -> Result<Env, String> {
    let env = Env::deploy(design(args.workload, args.seed), pki, args.seed, root)
        .map_err(|e| format!("set-up of {}: {e}", args.workload.name()))?;
    let warm = loadgen::run(
        &env,
        args.seed,
        WARMUP_STREAM,
        if args.smoke { 0.1 } else { 0.5 },
        false,
    )
    .summary();
    match warm.first_error {
        Some(e) => Err(format!("warm-up of {}: {e}", args.workload.name())),
        None => Ok(env),
    }
}

/// Sequence numbers the `im` service acknowledged and gave back, over
/// every connection of `windows`.
fn notes<const N: usize>(windows: [&Window; N]) -> (Vec<u64>, Vec<u64>) {
    let conns = || windows.iter().flat_map(|w| &w.conns);
    (
        conns()
            .flat_map(|c| c.notes.acked.iter().copied())
            .collect(),
        conns()
            .flat_map(|c| c.notes.polled.iter().copied())
            .collect(),
    )
}

/// The timings of one untraced window and the memory high-water mark at
/// its end. None of them repeats within the 10 % bound on every workload
/// (README.md, *Repeatability*), so they are diagnostics under `bench.`,
/// not gated end-to-end metrics.
fn diagnostics(s: &Summary, peak_rss_mb: f64) -> [Metric; 6] {
    [
        Metric::new("bench.ops_per_s", s.ops_per_s, "1/s", s.correct),
        Metric::new(
            "bench.payload_mb_per_s",
            s.payload_mb_per_s,
            "MB/s",
            s.correct,
        ),
        Metric::new("bench.p50_us", s.p50_us, "us", s.correct),
        Metric::new("bench.p99_us", s.p99.value as f64 / 1e3, "us", s.correct),
        Metric::new("bench.cpu_us_per_op", s.cpu_us_per_op, "us", s.correct),
        Metric::new("bench.peak_rss_mb", peak_rss_mb, "MB", 1),
    ]
}

fn untraced(args: &Args, started: Instant, root: &Path) -> Result<i32, String> {
    let pki = Pki::build(args.seed);
    let one_off_s = started.elapsed().as_secs_f64();

    // One set-up, the window, and memory read at its end, as in a process
    // that serves this workload once.
    let start = Instant::now();
    let env = set_up(args, &pki, root)?;
    let mut repeats = vec![start.elapsed().as_secs_f64()];
    let window = loadgen::run(&env, args.seed, 0, args.seconds, false);
    let peak_rss = peak_rss_mb();
    let s = window.summary();
    let (acked, polled) = notes([&window]);
    let schedule = env.design.schedule_hash(args.seed, 10_000);
    let durability = env
        .finish(&pki, &acked, &polled)
        .map_err(|e| e.to_string())?;

    // The benchmark contract asks for several set-ups per run and their
    // median: steadier than one reading, and work moved into set-up still
    // shows. The repeats come after the window so that they leave nothing
    // in its memory.
    while repeats.len() < SETUPS {
        let start = Instant::now();
        let again = set_up(args, &pki, root)?;
        repeats.push(start.elapsed().as_secs_f64());
        again.finish(&pki, &[], &[]).map_err(|e| e.to_string())?;
    }
    let setup_s = one_off_s + stats::median(&repeats);

    let attempted = s.attempted + durability.checked;
    let failed = s.failed + durability.missing;
    if let Some(e) = &s.first_error {
        eprintln!("first failure: {e}");
    }
    if durability.missing > 0 {
        eprintln!(
            "{} of {} acknowledged messages lost across the restart",
            durability.missing, durability.checked
        );
    }
    println!(
        "# {}: loopback only; {} connections, {} sender threads, {} server workers; nproc {}; \
         schedule {:016x}; one window of {} samples; tail is p{:.2} with {} samples beyond it",
        args.workload.name(),
        plan::CONNS,
        plan::CONNS,
        plan::CONNS,
        args.nproc,
        schedule,
        s.correct,
        s.p99.p * 100.0,
        s.p99.beyond,
    );
    report::lines(args.workload.name(), &diagnostics(&s, peak_rss))?;
    let metrics = [
        Metric::new("setup_s", setup_s, "s", SETUPS as u64),
        Metric::new(
            "ok_frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
            attempted,
        ),
    ];
    report::print(
        args.workload.name(),
        failed == 0,
        attempted,
        failed,
        &metrics,
    )?;
    Ok(exit_code(s.failed, durability.missing))
}

/// Difference of one counter between two scrapes.
fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn traced(args: &Args, root: &Path) -> Result<i32, String> {
    let pki = Pki::build(args.seed);

    // Half of the time untraced, then half traced, in one process against
    // one server: the difference in throughput is what tracing costs.
    let env = set_up(args, &pki, root)?;
    let plain_window = loadgen::run(&env, args.seed, 0, args.seconds / 2.0, false);
    // Before spans, the replay or the probes add to it.
    let peak_rss = peak_rss_mb();
    let before = env
        .scrape()
        .map_err(|e| format!("scrape before the traced pass: {e}"))?;
    let pass_window = loadgen::run(&env, args.seed, 1, args.seconds / 2.0, true);
    let after = env
        .scrape()
        .map_err(|e| format!("scrape after the traced pass: {e}"))?;
    let (replayed, replay_count) = replay::replay(&env, &pki, args.seed);

    let plain = plain_window.summary();
    let pass = pass_window.summary();
    let mut metrics = Vec::from(diagnostics(&plain, peak_rss));
    let n = pass.correct;
    let ops = n.max(1) as f64;
    let d = |name: &str| delta(&before, &after, name);
    let mut push = |name: &str, value: f64, unit: &'static str, samples: u64| {
        metrics.push(Metric::new(name, value, unit, samples));
    };
    push(
        "httpd.sendfile_share",
        ratio(
            d("clarens_http_bytes_sendfile_total"),
            d("clarens_http_bytes_out_total"),
        ),
        "ratio",
        n,
    );
    push(
        "httpd.write_stalls",
        d("clarens_http_write_stalls_total"),
        "count",
        n,
    );
    push(
        "httpd.poll_wakeups_per_op",
        d("clarens_http_poll_wakeups_total") / ops,
        "ratio",
        n,
    );
    for (name, cache) in [
        ("core.session_cache_hit_ratio", "sessions"),
        ("core.acl_cache_hit_ratio", "acl_decisions"),
    ] {
        let hits = d(&format!("clarens_cache_{cache}_hits"));
        push(
            name,
            ratio(hits, hits + d(&format!("clarens_cache_{cache}_misses"))),
            "ratio",
            n,
        );
    }
    let allocs = pass_window.allocs;
    push("core.allocs_per_op", allocs.0 as f64 / ops, "count", n);
    push("core.alloc_bytes_per_op", allocs.1 as f64 / ops, "bytes", n);
    // Mean over all requests of the pass: the sum the server exports,
    // over its request count (its histograms skip sub-microsecond phases).
    let requests = d("clarens_requests_total");
    for phase in ["auth", "acl", "dispatch"] {
        let sum = d(&format!(
            "clarens_phase_latency_us_sum{{phase=\"{phase}\"}}"
        ));
        push(
            &format!("core.phase_{phase}_us_mean"),
            ratio(sum, requests),
            "us",
            requests as u64,
        );
    }
    for (name, kind) in [
        ("core.im_send_p50_us", "im.send"),
        ("core.im_peek_p50_us", "im.peek"),
    ] {
        let latencies = match env.design.kinds.iter().position(|k| *k == kind) {
            Some(k) => pass_window.latencies(Some(k as u8)),
            None => stats::Histogram::default(),
        };
        push(
            name,
            latencies.percentile(0.5) as f64 / 1e3,
            "us",
            latencies.len() as u64,
        );
    }
    push("db.compactions", d("clarens_db_compactions"), "count", n);
    push(
        "db.wal_syncs_per_op",
        d("clarens_db_wal_syncs") / ops,
        "ratio",
        n,
    );
    push(
        "db.lookups_per_op",
        d("clarens_db_lookups") / ops,
        "ratio",
        n,
    );

    let client_spans: Vec<trace::Span> = pass_window
        .conns
        .iter()
        .flat_map(|c| c.spans.iter().copied())
        .collect();
    let client_self = trace::self_times(&client_spans);
    let attempted_in_pass = pass.attempted;
    for step in [
        "client.write",
        "client.wait_first_byte",
        "client.read_body",
        "client.verify",
    ] {
        let mean_us = client_self.get(step).copied().unwrap_or(0) as f64
            / 1e3
            / attempted_in_pass.max(1) as f64;
        push(&format!("{step}_us_mean"), mean_us, "us", attempted_in_pass);
    }
    let shares = trace::layer_shares(&replayed, &["bench"]);
    for layer in ["httpd", "wire", "core", "db", "pki"] {
        push(
            &format!("trace.{layer}_self_share"),
            shares.get(layer).copied().unwrap_or(0.0),
            "ratio",
            replay_count as u64,
        );
    }
    push(
        "bench.late_frac",
        pass.late_frac,
        "ratio",
        attempted_in_pass,
    );
    push(
        "bench.trace_overhead_frac",
        1.0 - ratio(pass.ops_per_s, plain.ops_per_s),
        "ratio",
        n + plain.correct,
    );

    let (acked, polled) = notes([&plain_window, &pass_window]);
    let durability = env
        .finish(&pki, &acked, &polled)
        .map_err(|e| e.to_string())?;

    let scale = probes::Scale(if args.smoke { 0.1 } else { 1.0 });
    metrics.extend(probes::run_all(&pki, args.seed, scale, root));

    // Spans leave memory only now, after everything timed has ended.
    let path = PathBuf::from(format!(
        "benchmark/out/trace-{}.jsonl",
        args.workload.name()
    ));
    let written = client_spans.len().min(50_000);
    trace::write_jsonl(
        &path,
        &[("live", &client_spans[..written]), ("replay", &replayed)],
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "# {}: traced pass wrote {} of {} client spans and {} replay spans to {}",
        args.workload.name(),
        written,
        client_spans.len(),
        replayed.len(),
        path.display()
    );

    let ops_failed = plain.failed + pass.failed;
    let attempted = plain.attempted + attempted_in_pass + durability.checked;
    let failed = ops_failed + durability.missing;
    if let Some(e) = plain.first_error.as_ref().or(pass.first_error.as_ref()) {
        eprintln!("first failure: {e}");
    }
    report::print(
        args.workload.name(),
        failed == 0,
        attempted,
        failed,
        &metrics,
    )?;
    Ok(exit_code(ops_failed, durability.missing))
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("clarens-benchmark: {e}");
            std::process::exit(64);
        }
    };
    // Everything the servers write — file-service roots, stores, shell
    // sandboxes — goes under the checkout, never the system temp directory.
    let root = match std::env::current_dir() {
        Ok(dir) => dir.join(format!("benchmark/out/tmp/{}", std::process::id())),
        Err(e) => {
            eprintln!("clarens-benchmark: no working directory: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("clarens-benchmark: cannot create {}: {e}", root.display());
        std::process::exit(1);
    }
    std::env::set_var("TMPDIR", &root);

    let outcome = if args.trace {
        traced(&args, &root)
    } else {
        untraced(&args, started, &root)
    };
    let _ = std::fs::remove_dir_all(&root);
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("clarens-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
