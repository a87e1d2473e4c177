//! End-to-end test of the command-line tools: simulate → analyze →
//! replay, exercising the real binaries through their public interface.

use std::path::PathBuf;
use std::process::Command;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gill-cli-it-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn simulate_analyze_replay_pipeline() {
    let dir = tmpdir("pipeline");
    let updates = dir.join("updates.mrt");
    let ribs = dir.join("ribs.mrt");
    let filters = dir.join("filters.txt");
    let kept = dir.join("kept.mrt");

    // 1. simulate
    let out = Command::new(env!("CARGO_BIN_EXE_gill-simulate"))
        .args([
            "--ases",
            "150",
            "--coverage",
            "0.25",
            "--events",
            "40",
            "--seed",
            "5",
            "--out",
            updates.to_str().unwrap(),
            "--ribs",
            ribs.to_str().unwrap(),
        ])
        .output()
        .expect("gill-simulate runs");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(updates.exists() && ribs.exists());

    // 2. analyze
    let out = Command::new(env!("CARGO_BIN_EXE_gill-analyze"))
        .args([
            "--updates",
            updates.to_str().unwrap(),
            "--ribs",
            ribs.to_str().unwrap(),
            "--filters",
            filters.to_str().unwrap(),
        ])
        .output()
        .expect("gill-analyze runs");
    assert!(
        out.status.success(),
        "analyze failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("component #1"), "missing summary: {stdout}");
    let filter_text = std::fs::read_to_string(&filters).unwrap();
    assert!(
        filter_text.lines().any(|l| l.starts_with("drop ")),
        "no drop rules emitted"
    );

    // 3. replay
    let out = Command::new(env!("CARGO_BIN_EXE_gill-replay"))
        .args([
            "--updates",
            updates.to_str().unwrap(),
            "--filters",
            filters.to_str().unwrap(),
            "--out",
            kept.to_str().unwrap(),
        ])
        .output()
        .expect("gill-replay runs");
    assert!(
        out.status.success(),
        "replay failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pass the filters"), "{stdout}");
    // the filtered archive is smaller than the input
    let in_size = std::fs::metadata(&updates).unwrap().len();
    let out_size = std::fs::metadata(&kept).unwrap().len();
    assert!(
        out_size < in_size,
        "filtering must shrink the archive ({out_size} vs {in_size})"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_bad_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_gill-simulate"))
        .args(["--bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_gill-analyze"))
        .output()
        .unwrap();
    assert!(!out.status.success(), "missing required flag must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn collectord_runs_and_archives_nothing_without_peers() {
    let dir = tmpdir("collectord");
    let archive = dir.join("collected.mrt");
    let out = Command::new(env!("CARGO_BIN_EXE_gill-collectord"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--archive",
            archive.to_str().unwrap(),
            "--duration",
            "1",
        ])
        .output()
        .expect("gill-collectord runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("received 0"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn collectord_rejects_a_misspelled_flag_by_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_gill-collectord"))
        .args(["--max-sesions", "10"])
        .output()
        .expect("gill-collectord runs");
    assert!(!out.status.success(), "a typo must not be ignored");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --max-sesions"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}
