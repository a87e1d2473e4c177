//! `gill-analyze` — run GILL's sampling algorithms (components #1 and #2)
//! over an archived collection window and emit the artifacts the platform
//! publishes (§9): the filter file and the anchor list.
//!
//! ```sh
//! gill-analyze --updates updates.mrt --ribs ribs.mrt --filters filters.txt
//! ```

use gill::cli::{read_ribs_mrt, read_updates_mrt, Args};
use gill::core::{GillAnalysis, GillConfig};
use gill::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every flag this tool accepts (the ones its usage line prints).
const FLAGS: &[&str] = &["updates", "ribs", "filters", "rp-target"];

fn run() -> Result<(), String> {
    let args = Args::parse(FLAGS)?;
    let updates_path = PathBuf::from(args.required("updates")?);
    let ribs_path = args.optional("ribs").map(PathBuf::from);
    let filters_path = args.optional("filters").map(PathBuf::from);
    let target: f64 = args.num("rp-target", gill::core::DEFAULT_RECONSTITUTION_TARGET)?;

    let mut updates = read_updates_mrt(&updates_path).map_err(|e| e.to_string())?;
    updates.sort_by_key(|u| (u.time, u.vp, u.prefix));
    let initial_ribs = match &ribs_path {
        Some(p) => read_ribs_mrt(p).map_err(|e| e.to_string())?,
        None => HashMap::new(),
    };
    let mut vps: Vec<VpId> = updates.iter().map(|u| u.vp).collect();
    vps.sort_unstable();
    vps.dedup();
    eprintln!(
        "loaded {} updates from {} VPs ({} RIBs)",
        updates.len(),
        vps.len(),
        initial_ribs.len()
    );

    let cfg = GillConfig {
        reconstitution_target: target,
        ..GillConfig::default()
    };
    let analysis = GillAnalysis::run_on(&updates, &initial_ribs, &vps, &HashMap::new(), &cfg);

    println!(
        "component #1: {:.1}% of updates redundant (RP target {target})",
        analysis.component1.redundant_fraction() * 100.0
    );
    println!(
        "component #2: {} anchor VPs (from {} events)",
        analysis.component2.anchors.len(),
        analysis.component2.events_used
    );
    println!(
        "overall retention: {:.1}% of the window",
        analysis.retained_fraction() * 100.0
    );
    let filters = analysis.filter_set();
    println!(
        "filters: {} drop rules + {} anchors",
        filters.num_rules(),
        analysis.component2.anchors.len()
    );
    if let Some(p) = filters_path {
        let text = filters.to_text().map_err(|e| e.to_string())?;
        std::fs::write(&p, text).map_err(|e| e.to_string())?;
        println!("wrote filter file to {}", p.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: gill-analyze --updates updates.mrt [--ribs ribs.mrt] \
                 [--filters filters.txt] [--rp-target F]"
            );
            ExitCode::FAILURE
        }
    }
}
