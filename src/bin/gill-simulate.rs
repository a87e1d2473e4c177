//! `gill-simulate` — generate a mini Internet and a BGP collection window,
//! archived as MRT files.
//!
//! ```sh
//! gill-simulate --ases 500 --coverage 0.3 --events 100 --seed 1 \
//!               --out updates.mrt --ribs ribs.mrt
//! ```

use gill::cli::{write_ribs_mrt, write_updates_mrt, Args};
use gill::prelude::*;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every flag this tool accepts (the ones its usage line prints).
const FLAGS: &[&str] = &[
    "out", "ribs", "ases", "coverage", "events", "duration", "seed",
];

fn run() -> Result<(), String> {
    let args = Args::parse(FLAGS)?;
    let ases: usize = args.num("ases", 500)?;
    let coverage: f64 = args.num("coverage", 0.3)?;
    let events: usize = args.num("events", 100)?;
    let seed: u64 = args.num("seed", 0)?;
    let duration: u64 = args.num("duration", 3600)?;
    let out = PathBuf::from(args.required("out")?);
    let ribs_out = args.optional("ribs").map(PathBuf::from);

    eprintln!("generating {ases}-AS topology (seed {seed})...");
    let topo = TopologyBuilder::artificial(ases, seed).build();
    let vps = topo.pick_vps(coverage, seed.wrapping_add(1));
    eprintln!(
        "topology: {} links, avg degree {:.1}; {} VPs",
        topo.num_links(),
        topo.avg_degree(),
        vps.len()
    );
    let mut sim = Simulator::new(&topo);
    let stream = sim.synthesize_stream(
        &vps,
        StreamConfig::default()
            .events(events)
            .duration_secs(duration)
            .seed(seed),
    );
    eprintln!(
        "synthesized {} events → {} updates over {duration}s",
        stream.events.len(),
        stream.updates.len()
    );
    let n = write_updates_mrt(&out, &stream.updates).map_err(|e| e.to_string())?;
    println!("wrote {n} MRT update records to {}", out.display());
    if let Some(p) = ribs_out {
        let recs =
            write_ribs_mrt(&p, &stream.initial_ribs, Timestamp::ZERO).map_err(|e| e.to_string())?;
        println!("wrote {recs} TABLE_DUMP_V2 records to {}", p.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: gill-simulate --out updates.mrt [--ribs ribs.mrt] [--ases N] \
                 [--coverage F] [--events N] [--duration SECS] [--seed N]"
            );
            ExitCode::FAILURE
        }
    }
}
