//! Wall-clock spans recorded from the benchmark's side of each public
//! call: name, start, end, the span that caused it, and the op it belongs
//! to. Spans stay in memory; at exit they go through
//! `ff_obs::Recorder::span` onto `wall/…` tracks and out as a Chrome
//! trace. Spans inside the program are a later change.

use ff_obs::chrome::export_chrome_json;
use ff_obs::Recorder;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u64,
}

/// One thread's span buffer. A disabled tracer records nothing, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    track: String,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Per-name totals over one tracer: how often, how long, and how long
/// excluding the intervals its child spans cover.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    /// `epoch` is shared by every tracer of a run so tracks line up.
    pub fn new(enabled: bool, epoch: Instant, track: impl Into<String>) -> Tracer {
        Tracer {
            enabled,
            epoch,
            track: track.into(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
    }

    /// Run `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name, op);
        let out = f(self);
        self.end(id);
        out
    }

    #[cfg(test)]
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Totals by span name. Children are properly nested in time (one
    /// thread, innermost-first close), so self time is the span minus the
    /// sum of its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }
}

/// Write every tracer's spans as one Chrome trace under
/// `target/perfbench/`, relative to the working directory, and print
/// each track's totals by span name to stderr. Returns the path and the
/// number of events the recorder took.
pub fn flush(workload: &str, tracers: &[Tracer]) -> std::io::Result<(String, usize)> {
    let rec = Recorder::new();
    for t in tracers {
        for (name, s) in t.totals() {
            eprintln!(
                "span wall/{} {name} count {} total_ms {:.3} self_ms {:.3}",
                t.track,
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
        let track = rec.track(&format!("wall/{}", t.track));
        for s in &t.spans {
            rec.span(
                track,
                s.name,
                s.start_ns,
                s.end_ns - s.start_ns,
                s.op as f64,
            );
        }
    }
    let dir = std::path::Path::new("target").join("perfbench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, export_chrome_json(&rec))?;
    Ok((path.display().to_string(), rec.event_count()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, Instant::now(), "t");
        let outer = t.begin("outer", 1);
        let inner = t.begin("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let totals = t.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!((o.count, i.count), (1, 1));
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(i.self_ns == i.total_ns && i.total_ns >= 2_000_000);

        let mut off = Tracer::new(false, Instant::now(), "off");
        off.scope("x", 0, |_| ());
        assert_eq!(off.span_count(), 0);
    }
}
