//! What one run reports: named metrics with units, the correctness
//! verdict with its failed checks, and the run's metadata.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, e.g. `setup_s` or `bgp-wire.decode_ns_per_update`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples the value summarizes (`None` for a single count).
    pub samples: Option<usize>,
    /// Interquartile range over median of the per-round values, for a
    /// median of rounds.
    pub spread: Option<f64>,
}

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (updates sent, requests issued, frames due).
    pub attempted: u64,
    /// Operations that failed: shed, missed, refused or timed out.
    pub failed: u64,
    /// Every correctness check that did not hold.
    pub violations: Vec<String>,
    /// Why the run's figures cannot be trusted (the open-loop generator
    /// fell behind its schedule), if they cannot.
    pub invalid: Option<String>,
}

impl Outcome {
    /// Adds a metric summarizing `samples` values.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: Some(samples),
            spread: None,
        });
    }

    /// Adds the median of per-round values, with their spread.
    pub fn put_rounds(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: crate::stats::median(values).unwrap_or(f64::NAN),
            unit,
            samples: Some(values.len()),
            spread: crate::stats::relative_spread(values),
        });
    }

    /// Adds an exact count or ratio of counts.
    pub fn count(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
            spread: None,
        });
    }

    /// Records a correctness check: a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Repeats metric `of` under the name a workload's users know it by.
    pub fn alias(&mut self, name: &str, of: &str) {
        if let Some(m) = self.get(of).cloned() {
            self.metrics.push(Metric {
                name: name.to_string(),
                ..m
            });
        }
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Host and build facts recorded with every result.
pub struct RunMeta {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: u64,
    /// Traced (per-layer) run or not.
    pub trace: bool,
    /// Cores available to this process.
    pub nproc: usize,
    /// Revision of the code under test, when the checkout records it.
    pub git_rev: String,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// 1-minute load average when the run started.
    pub loadavg_start: f64,
}

impl RunMeta {
    /// The metadata as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
             \"git_rev\":{},\"rustc\":{},\"loadavg_start\":{}}}",
            json_str(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            self.nproc,
            json_str(&self.git_rev),
            json_str(&self.rustc),
            json_num(self.loadavg_start),
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (`null` for non-finite values, which JSON cannot hold).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// the metrics named in `names`, in that order.
pub fn result_line(out: &Outcome, names: &[&str]) -> String {
    let mut m = String::new();
    for (i, name) in names.iter().enumerate() {
        let metric = out.get(name).expect("every declared metric is measured");
        let _ = write!(
            m,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i == 0 { "" } else { "," },
            json_str(name),
            json_num(metric.value),
            json_str(metric.unit),
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
        out.violations.is_empty() && out.invalid.is_none(),
        out.attempted.max(1),
        out.failed,
    )
}

/// The full record of a run, for the results file.
pub fn record_json(meta: &RunMeta, out: &Outcome) -> String {
    let mut s = format!("{{\"meta\":{},\"metrics\":[", meta.json());
    for (i, m) in out.metrics.iter().enumerate() {
        let samples = m.samples.map_or("null".to_string(), |n| n.to_string());
        let _ = write!(
            s,
            "{}\n{{\"name\":{},\"value\":{},\"unit\":{},\"samples\":{samples},\"spread\":{}}}",
            if i == 0 { "" } else { "," },
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit),
            m.spread.map_or("null".to_string(), json_num),
        );
    }
    let violations: Vec<String> = out.violations.iter().map(|v| json_str(v)).collect();
    let _ = write!(
        s,
        "],\"attempted\":{},\"failed\":{},\"violations\":[{}],\"invalid\":{}}}",
        out.attempted,
        out.failed,
        violations.join(","),
        out.invalid.as_deref().map_or("null".to_string(), json_str),
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        out.put("setup_s", 0.5, "s", 3);
        out.count("extra", 2.0, "count");
        let line = result_line(&out, &["setup_s"]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":1,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        out.check(false, || "broken".into());
        assert!(result_line(&out, &["setup_s"]).starts_with("{\"correct\":false"));
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(1.25), "1.25");
    }
}
