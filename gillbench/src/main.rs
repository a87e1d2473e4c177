//! `gillbench` — the collector benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path gillbench/Cargo.toml -- \
//!     --workload bmp-firehose --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Composes the collector from the workspace's public crates (as
//! `gill-collectord --runtime evented` does), drives it over loopback
//! with one of three seeded workloads, checks every output against a
//! reference, and prints each metric by name and unit. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The traced run replays the workload's exact
//! inputs through each layer's public functions and writes its spans
//! under `.bench_out/` when it ends. The exit code is 1 when any check
//! failed.

mod alloc;
mod collector;
mod firehose;
mod httpc;
mod inputs;
mod live;
mod lookingglass;
mod oracle;
mod procfs;
mod replay;
mod report;
mod round;
mod stats;
mod trace;

use report::{Outcome, RunMeta};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The workloads; `BENCHMARK.json` records why each exists.
pub const WORKLOADS: [&str; 3] = ["bmp-firehose", "bgp-live-stream", "looking-glass-mixed"];

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "ops_per_s",
    "latency_p50_ms",
    "cpu_us_per_update",
    "archive_s",
    "archive_bytes_per_update",
    "peak_rss_mb",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a number")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds: not a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The revision of the checkout, read from `.git` when there is one.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: gillbench --workload bmp-firehose|bgp-live-stream|looking-glass-mixed \
                 --seed N --seconds N --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let meta = RunMeta {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: collector::workers(),
        git_rev: git_rev(),
        rustc: rustc_version(),
        loadavg_start: procfs::loadavg_1m(),
    };
    println!("meta {}", meta.json());
    let budget = Duration::from_secs(args.seconds);
    let mut out = Outcome::default();
    let names: Vec<&str> = if args.trace {
        replay::run(&args.workload, args.seed, budget, &mut out, &meta);
        replay::PER_LAYER.to_vec()
    } else {
        match args.workload.as_str() {
            "bmp-firehose" => {
                let rounds = firehose::run(args.seed, budget, &mut out);
                round::end_to_end(&mut out, &rounds);
                out.alias("ingest_updates_per_s", "ops_per_s");
                out.alias("freshness_p50_ms", "latency_p50_ms");
                out.alias("freshness_p99_ms", "latency_p99_ms");
            }
            "bgp-live-stream" => {
                let rounds = live::run(args.seed, budget, &mut out);
                round::end_to_end(&mut out, &rounds);
                out.alias("stream_latency_p50_ms", "latency_p50_ms");
                out.alias("stream_latency_p99_ms", "latency_p99_ms");
            }
            _ => {
                let rounds = lookingglass::run(args.seed, budget, &mut out);
                round::end_to_end(&mut out, &rounds);
                out.alias("query_per_s", "ops_per_s");
                out.alias("query_p50_ms", "latency_p50_ms");
                out.alias("query_p95_ms", "latency_p95_ms");
            }
        }
        END_TO_END.to_vec()
    };
    collector::clean_work();

    for m in &out.metrics {
        let n = match (m.samples, m.spread) {
            (Some(n), Some(s)) => format!("  (n={n}, spread {s:.3})"),
            (Some(n), None) => format!("  (n={n})"),
            _ => String::new(),
        };
        println!("{:<40} {:>16.6} {}{n}", m.name, m.value, m.unit);
    }
    println!(
        "{:<40} {:>16.6} ratio",
        "failed_ops_ratio",
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for v in &out.violations {
        println!("CHECK FAILED: {v}");
    }
    if let Some(why) = &out.invalid {
        println!("INVALID RUN: {why}");
    }
    let record = Path::new(".bench_out").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(".bench_out")
        .and_then(|_| std::fs::write(&record, report::record_json(&meta, &out)))
    {
        eprintln!("warning: could not write {}: {e}", record.display());
    }
    println!("{}", report::result_line(&out, &names));
    if out.violations.is_empty() && out.invalid.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
