//! Process and thread accounting read from `/proc/self`: CPU time per
//! thread, peak resident memory and the host's load average.

use std::collections::HashMap;
use std::fs;

/// One thread's cumulative on-CPU time.
#[derive(Clone, Debug)]
pub struct ThreadCpu {
    /// The thread's name (`comm`).
    pub name: String,
    /// Nanoseconds spent on a CPU since the thread started.
    pub cpu_ns: u64,
}

/// On-CPU time of every live thread of this process, keyed by thread id.
/// Uses the scheduler's nanosecond counter (`schedstat`).
pub fn threads() -> HashMap<u32, ThreadCpu> {
    let mut out = HashMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let cpu_ns = fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok());
        let name = fs::read_to_string(path.join("comm")).map(|s| s.trim().to_string());
        if let (Some(cpu_ns), Ok(name)) = (cpu_ns, name) {
            out.insert(tid, ThreadCpu { name, cpu_ns });
        }
    }
    out
}

/// CPU nanoseconds each thread spent between two [`threads`] snapshots,
/// as `(name, tid, delta)`. Threads born after `before` count in full.
pub fn cpu_between(
    before: &HashMap<u32, ThreadCpu>,
    after: &HashMap<u32, ThreadCpu>,
) -> Vec<(String, u32, u64)> {
    let mut out: Vec<_> = after
        .iter()
        .map(|(tid, t)| {
            let base = before.get(tid).map_or(0, |b| b.cpu_ns);
            (t.name.clone(), *tid, t.cpu_ns.saturating_sub(base))
        })
        .collect();
    out.sort_by_key(|(_, tid, _)| *tid);
    out
}

/// Whether a thread belongs to the collector under test rather than to
/// the benchmark driving it: the main thread and every `bench-*` thread
/// are the benchmark's.
pub fn is_collector_thread(name: &str, tid: u32) -> bool {
    tid != std::process::id() && !name.starts_with("bench-")
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Returns freed heap to the system, resets this process's peak resident
/// set size to its current size (`5` to `/proc/self/clear_refs`) and
/// returns that size in MiB: the baseline a later [`peak_rss_mb`] is
/// measured from, so memory that peaked and was freed before does not set
/// the later peak.
pub fn reset_peak_rss_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and may be called
        // at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    fs::write("/proc/self/clear_refs", "5")
        .expect("reset the peak RSS through /proc/self/clear_refs");
    status_kib("VmRSS:").unwrap_or(0) as f64 / 1024.0
}

fn status_kib(key: &str) -> Option<u64> {
    let s = fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The 1-minute load average.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sees_named_threads_and_their_cpu() {
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::Builder::new()
            .name("bench-spin".into())
            .spawn(move || {
                let t = std::time::Instant::now();
                let mut x = 0u64;
                while t.elapsed().as_millis() < 30 {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                tx.send(()).unwrap();
                done_rx.recv().unwrap();
            })
            .unwrap();
        rx.recv().unwrap();
        let snap = threads();
        let spin = snap.values().find(|t| t.name == "bench-spin").unwrap();
        assert!(spin.cpu_ns >= 10_000_000, "spun {} ns", spin.cpu_ns);
        assert!(!is_collector_thread("bench-spin", 1));
        assert!(is_collector_thread("gill-evented-0", 1));
        done_tx.send(()).unwrap();
        h.join().unwrap();
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn peak_resets_to_the_current_size() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let base = reset_peak_rss_mb();
        assert!(base > 0.0);
        assert!(
            peak_rss_mb() < base + 32.0,
            "peak {} MiB still holds the freed 64 MiB over a {base} MiB baseline",
            peak_rss_mb()
        );
    }
}
