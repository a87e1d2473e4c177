//! In-memory spans for the traced run: each records a name, a start, an
//! end and the span that caused it. Spans are only kept in memory while
//! the run measures; [`Tracer::write_json`] writes them when it ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished (or open, `end_ns == 0`) span. Times are nanoseconds
/// since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer boundary this span covers, e.g. `bgp-wire.decode`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// All spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how many spans and their summed self time (ns).
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        out
    }

    /// The share of span `root`'s duration covered by the self times of
    /// its descendants named in `stages`.
    pub fn coverage(&self, root: u32, stages: &[&str]) -> f64 {
        let descends = |s: &Span| {
            let mut up = s.parent;
            while let Some(p) = up {
                if p == root {
                    return true;
                }
                up = self.spans[p as usize].parent;
            }
            false
        };
        let covered: u64 = self
            .spans
            .iter()
            .zip(self_times(&self.spans))
            .filter(|(s, _)| stages.contains(&s.name) && descends(s))
            .map(|(_, own)| own)
            .sum();
        let r = &self.spans[root as usize];
        covered as f64 / r.end_ns.saturating_sub(r.start_ns) as f64
    }

    /// Writes every span as JSON: `{"meta": ..., "spans": [[id, parent,
    /// name, start_ns, end_ns], ...]}` with `parent` `-1` for roots.
    pub fn write_json(&self, path: &Path, meta: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"meta\":{meta},\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or(-1, i64::from);
            write!(
                w,
                "{sep}\n[{},{parent},\"{}\",{},{}]",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
            dur.saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100] with children [10,30] and [50,60]; grandchild
        // [12,20] inside the first child
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(1), 12, 20),
            span(3, Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 8, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // children overlap each other and one overhangs the parent's end
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),
            span(3, Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
        // a leaf's self time is its duration
        assert_eq!(self_times(&spans)[3], 30);
    }

    #[test]
    fn coverage_counts_only_named_descendants_of_the_root() {
        let mut t = Tracer::new();
        let spans = [
            ("pass", None, 0, 100),
            ("update", Some(0), 0, 50),
            ("decode", Some(1), 5, 25),
            ("ingest", Some(1), 30, 40),
            ("update", Some(0), 50, 100),
            ("decode", Some(4), 55, 75),
            ("other", None, 100, 200),
            ("decode", Some(6), 110, 190),
        ];
        t.spans = spans
            .iter()
            .enumerate()
            .map(|(id, &(name, parent, start_ns, end_ns))| Span {
                id: id as u32,
                parent,
                name,
                start_ns,
                end_ns,
            })
            .collect();
        // decode 20 + 20 and ingest 10 of the pass's 100; the decode
        // under `other` is outside it
        assert_eq!(t.coverage(0, &["decode", "ingest"]), 0.5);
        assert_eq!(t.coverage(0, &["decode"]), 0.4);
        assert_eq!(t.coverage(6, &["decode"]), 0.8);
    }

    #[test]
    fn tracer_nests_and_aggregates_by_name() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            for _ in 0..3 {
                t.span("inner", |_| std::hint::black_box(1));
            }
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let by = t.self_times_by_name();
        assert_eq!(by["inner"].0, 3);
        assert_eq!(by["outer"].0, 1);
        let total: u64 = by.values().map(|v| v.1).sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
    }
}
