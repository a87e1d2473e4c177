//! `gill-soak` — drive the full collection pipeline through a seeded
//! adversarial day and assert every invariant.
//!
//! ```sh
//! gill-soak --seed 7 --updates 500000 --campaign leak,hijack,withdraw \
//!           --runs 2 --report SOAK.json
//! ```
//!
//! `--runs 2` executes the identical soak twice and fails unless the two
//! FNV-1a transcript digests are bit-identical — the determinism contract.
//! Exit code is non-zero if any invariant fails.

use gill::cli::Args;
use gill::scenario::CampaignKind;
use gill::soak::{run_soak, SoakConfig};
use std::path::PathBuf;
use std::process::ExitCode;

/// Every flag this tool accepts (the ones its usage line prints).
const FLAGS: &[&str] = &[
    "seed",
    "updates",
    "vps",
    "prefixes",
    "campaign",
    "mirror-cap",
    "store-mem-cap",
    "ring",
    "bmp-vps",
    "dual-stack",
    "runs",
    "data-dir",
    "report",
];

fn run() -> Result<bool, String> {
    let args = Args::parse(FLAGS)?;
    let seed: u64 = args.num("seed", 1)?;
    let updates: usize = args.num("updates", 50_000)?;
    let vps: u32 = args.num("vps", 6)?;
    let prefixes: u32 = args.num("prefixes", 96)?;
    let mirror_cap: usize = args.num("mirror-cap", 4_096)?;
    let store_mem_cap: u64 = args.num("store-mem-cap", 1 << 20)?;
    let ring: usize = args.num("ring", 512)?;
    let bmp_vps: u32 = args.num("bmp-vps", 0)?;
    let dual_stack: u32 = args.num("dual-stack", 0)?;
    let runs: u32 = args.num("runs", 1)?;
    let report_path = args.optional("report").map(PathBuf::from);

    let campaigns = match args.optional("campaign") {
        None => vec![
            CampaignKind::RouteLeak,
            CampaignKind::HijackWave,
            CampaignKind::WithdrawalAvalanche,
        ],
        Some(spec) => spec
            .split(',')
            .map(|tag| {
                CampaignKind::parse(tag.trim()).ok_or_else(|| {
                    format!(
                        "unknown campaign {tag:?} (try leak, flap, hijack, community, withdraw)"
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
    };

    // scratch segment dir for the crash-restart invariant; "none" skips it
    let data_dir = match args.optional("data-dir") {
        Some(s) if s == "none" => None,
        Some(s) => Some(PathBuf::from(s)),
        None => Some(std::env::temp_dir().join(format!("gill-soak-{seed}-{}", std::process::id()))),
    };
    if let Some(dir) = &data_dir {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }

    let cfg = SoakConfig {
        seed,
        n_vps: vps,
        n_prefixes: prefixes,
        background_updates: updates,
        campaigns,
        mirror_cap,
        capped_store_bytes: store_mem_cap,
        ring_capacity: ring,
        data_dir: data_dir.clone(),
        bmp_vps,
        dual_stack: dual_stack != 0,
    };

    let mut ok = true;
    let mut first_digest: Option<String> = None;
    let mut last_json = String::new();
    for run in 1..=runs.max(1) {
        // each run replays the day from scratch; clear the segment dir so
        // the restart fork reloads only this run's segments
        if let Some(dir) = &data_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let report = run_soak(&cfg);
        eprintln!(
            "run {run}: digest {} — {} sent, {} kept, {} regimes",
            report.digest, report.counters.sent, report.counters.kept, report.counters.regimes
        );
        for inv in &report.invariants {
            let mark = if inv.pass { "ok  " } else { "FAIL" };
            eprintln!("  [{mark}] {:<28} {}", inv.name, inv.detail);
        }
        ok &= report.all_pass();
        match &first_digest {
            None => first_digest = Some(report.digest.clone()),
            Some(d) if *d != report.digest => {
                eprintln!("DETERMINISM VIOLATION: digest {} != {}", report.digest, d);
                ok = false;
            }
            Some(_) => eprintln!("  [ok  ] digest-reproducible          {}", report.digest),
        }
        last_json = report.to_json();
    }
    if let Some(path) = report_path {
        std::fs::write(&path, &last_json).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("report written to {}", path.display());
    }
    println!("{last_json}");
    if let Some(dir) = &data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("soak FAILED: at least one invariant did not hold");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: gill-soak [--seed N] [--updates N] [--vps N] [--prefixes N] \
                 [--campaign leak,hijack,...] [--mirror-cap N] [--store-mem-cap BYTES] \
                 [--ring N] [--bmp-vps N] [--dual-stack N] [--runs N] [--data-dir DIR|none] \
                 [--report FILE]"
            );
            ExitCode::FAILURE
        }
    }
}
