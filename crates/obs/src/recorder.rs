//! The thread-safe trace/metrics recorder and its canonical serialization.
//!
//! Events live on named **tracks** (one Perfetto thread lane each). A
//! timestamp is simulated or logical nanoseconds — never wall clock. The
//! trace is treated as a *multiset*: canonical serialization sorts events
//! by `(track, ts, name, kind, value)`, so producers may record from any
//! thread in any interleaving and the digest stays byte-identical as long
//! as the multiset of recorded events is deterministic.
//!
//! Threaded code records through a [`TrackBuf`] — an unshared per-thread
//! staging buffer with its own logical clock — and commits (or discards)
//! the whole buffer at a deterministic point. Discard-on-failed-attempt is
//! how `ff-reduce` keeps racy abort points out of the trace.

use crate::hist::Histogram;
use ff_util::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifies a registered track. Ids are assignment-order handles; the
/// canonical forms always key by track *name*, so id assignment order
/// never leaks into digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(pub(crate) u32);

/// Pre-resolved handle for a named counter, from
/// [`Recorder::counter_handle`]. Hot paths that bump the same counter
/// thousands of times per simulated second use
/// [`Recorder::counter_add_by`] with a handle to skip the per-call name
/// formatting and map lookup. Like [`TrackId`], assignment order never
/// leaks into digests — canonical forms key counters by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CounterId(pub(crate) u32);

/// What kind of mark an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A scoped interval of `dur_ns` simulated/logical nanoseconds.
    Span {
        /// Interval length in nanoseconds (≥ 1 for visibility).
        dur_ns: u64,
    },
    /// A point event.
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The track the event belongs to.
    pub track: TrackId,
    /// Simulated/logical nanoseconds.
    pub ts_ns: u64,
    /// Span or instant.
    pub kind: EventKind,
    /// Event name (the span/instant label).
    pub name: String,
    /// Free payload: bytes moved, work units, a fault id — 0.0 if unused.
    pub value: f64,
}

#[derive(Default)]
struct Inner {
    tracks: Vec<String>,
    by_name: BTreeMap<String, TrackId>,
    events: Vec<Event>,
    // Counters are slot-addressed so handle-based adds are a bounds check
    // and an f64 add under the lock. A registered-but-never-added counter
    // stays untouched and is omitted from snapshots, so merely resolving a
    // handle cannot perturb a pinned digest.
    counter_names: Vec<String>,
    counter_vals: Vec<f64>,
    counter_touched: Vec<bool>,
    counter_ids: BTreeMap<String, CounterId>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl Inner {
    fn counter_id(&mut self, name: &str) -> CounterId {
        if let Some(&id) = self.counter_ids.get(name) {
            return id;
        }
        let id = CounterId(u32::try_from(self.counter_names.len()).expect("too many counters"));
        self.counter_names.push(name.to_string());
        self.counter_vals.push(0.0);
        self.counter_touched.push(false);
        self.counter_ids.insert(name.to_string(), id);
        id
    }
}

/// A deterministic, order-insensitive snapshot of a [`Recorder`]: tracks
/// sorted by name, events in canonical order, metrics keyed by name.
pub struct Snapshot {
    /// Track names, sorted.
    pub tracks: Vec<String>,
    /// `(track_name, event)` pairs in canonical multiset order.
    pub events: Vec<(String, Event)>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, f64>,
    /// Last-write gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, Histogram>,
}

/// The thread-safe simulated-time recorder. Share it as `Arc<Recorder>`;
/// every method takes `&self`.
pub struct Recorder {
    inner: Mutex<Inner>,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            inner: Mutex::new(Inner::default()),
        })
    }

    /// Get-or-create the track named `name`.
    pub fn track(&self, name: &str) -> TrackId {
        let mut g = self.inner.lock();
        if let Some(&id) = g.by_name.get(name) {
            return id;
        }
        let id = TrackId(u32::try_from(g.tracks.len()).expect("too many tracks"));
        g.tracks.push(name.to_string());
        g.by_name.insert(name.to_string(), id);
        id
    }

    /// Record a completed span on `track`.
    pub fn span(&self, track: TrackId, name: &str, ts_ns: u64, dur_ns: u64, value: f64) {
        self.push(Event {
            track,
            ts_ns,
            kind: EventKind::Span {
                dur_ns: dur_ns.max(1),
            },
            name: name.to_string(),
            value,
        });
    }

    /// Record a point event on `track`.
    pub fn instant(&self, track: TrackId, name: &str, ts_ns: u64, value: f64) {
        self.push(Event {
            track,
            ts_ns,
            kind: EventKind::Instant,
            name: name.to_string(),
            value,
        });
    }

    fn push(&self, ev: Event) {
        let mut g = self.inner.lock();
        assert!((ev.track.0 as usize) < g.tracks.len(), "unknown track");
        g.events.push(ev);
    }

    /// Add `delta` to the counter `name` (created at 0).
    pub fn counter_add(&self, name: &str, delta: f64) {
        let mut g = self.inner.lock();
        let id = g.counter_id(name);
        g.counter_vals[id.0 as usize] += delta;
        g.counter_touched[id.0 as usize] = true;
    }

    /// Resolve a reusable handle for the counter `name`. The counter is
    /// not created (it stays out of snapshots) until something adds to it.
    pub fn counter_handle(&self, name: &str) -> CounterId {
        self.inner.lock().counter_id(name)
    }

    /// Add `delta` to a counter by pre-resolved handle — the allocation-free
    /// form of [`counter_add`](Self::counter_add) for hot paths.
    pub fn counter_add_by(&self, id: CounterId, delta: f64) {
        let mut g = self.inner.lock();
        g.counter_vals[id.0 as usize] += delta;
        g.counter_touched[id.0 as usize] = true;
    }

    /// Set the gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.inner.lock().gauges.insert(name.to_string(), value);
    }

    /// Record one sample into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.inner
            .lock()
            .hists
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Commit a staged [`TrackBuf`]'s events wholesale.
    pub fn commit(&self, buf: TrackBuf) {
        let track = self.track(&buf.track_name);
        let mut g = self.inner.lock();
        g.events.extend(buf.events.into_iter().map(|mut e| {
            e.track = track;
            e
        }));
    }

    /// Number of recorded events.
    pub fn event_count(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// The latest instant covered by any event: `max(ts + dur)`, 0 when
    /// empty. The trace's notion of "elapsed simulated time".
    pub fn last_ts_ns(&self) -> u64 {
        self.inner
            .lock()
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::Span { dur_ns } => e.ts_ns.saturating_add(dur_ns),
                EventKind::Instant => e.ts_ns,
            })
            .max()
            .unwrap_or(0)
    }

    /// An order-insensitive snapshot: tracks sorted by name, events in
    /// canonical multiset order.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.inner.lock();
        let mut tracks: Vec<String> = g.tracks.clone();
        tracks.sort_unstable();
        let mut events: Vec<(String, Event)> = g
            .events
            .iter()
            .map(|e| (g.tracks[e.track.0 as usize].clone(), e.clone()))
            .collect();
        events.sort_by(|(ta, a), (tb, b)| {
            (ta, a.ts_ns, &a.name, kind_key(&a.kind), a.value.to_bits()).cmp(&(
                tb,
                b.ts_ns,
                &b.name,
                kind_key(&b.kind),
                b.value.to_bits(),
            ))
        });
        let counters: BTreeMap<String, f64> = g
            .counter_names
            .iter()
            .zip(&g.counter_vals)
            .zip(&g.counter_touched)
            .filter(|(_, &touched)| touched)
            .map(|((name, &v), _)| (name.clone(), v))
            .collect();
        Snapshot {
            tracks,
            events,
            counters,
            gauges: g.gauges.clone(),
            hists: g.hists.clone(),
        }
    }

    /// Canonical text serialization of the whole trace: one line per
    /// event/metric, multiset-sorted. Two runs that record the same
    /// multiset of events and the same metrics produce byte-identical
    /// canonical forms regardless of thread interleaving.
    pub fn canonical(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::from("ff-obs trace v1\n");
        for t in &snap.tracks {
            out.push_str(&format!("track {t}\n"));
        }
        for (track, e) in &snap.events {
            match e.kind {
                EventKind::Span { dur_ns } => out.push_str(&format!(
                    "span {track} {} {} {} {:016x}\n",
                    e.ts_ns,
                    dur_ns,
                    e.name,
                    e.value.to_bits()
                )),
                EventKind::Instant => out.push_str(&format!(
                    "inst {track} {} {} {:016x}\n",
                    e.ts_ns,
                    e.name,
                    e.value.to_bits()
                )),
            }
        }
        for (k, v) in &snap.counters {
            out.push_str(&format!("counter {k} {:016x}\n", v.to_bits()));
        }
        for (k, v) in &snap.gauges {
            out.push_str(&format!("gauge {k} {:016x}\n", v.to_bits()));
        }
        for (k, h) in &snap.hists {
            out.push_str(&format!("hist {k} {}\n", h.canonical()));
        }
        out
    }

    /// FNV-1a digest of [`canonical`](Self::canonical), folded with its
    /// length, as 16 hex digits — the seed-replay regression oracle.
    pub fn digest(&self) -> String {
        let canonical = self.canonical();
        let h = ff_util::fnv1a64(canonical.as_bytes()) ^ canonical.len() as u64;
        format!("{h:016x}")
    }
}

fn kind_key(k: &EventKind) -> (u8, u64) {
    match *k {
        EventKind::Span { dur_ns } => (0, dur_ns),
        EventKind::Instant => (1, 0),
    }
}

/// An unshared per-thread staging buffer with a logical clock.
///
/// Threaded instrumentation records here lock-free, then either
/// [`commit`](TrackBuf::commit)s the whole buffer at a deterministic point
/// or [`discard`](TrackBuf::discard)s it (e.g. an allreduce attempt whose
/// abort point is racy). The clock starts at `base_ns` and advances only
/// through [`tick`](TrackBuf::tick)/[`op`](TrackBuf::op), so timestamps
/// are logical, deterministic, and thread-local.
#[derive(Debug)]
pub struct TrackBuf {
    track_name: String,
    base_ns: u64,
    clock: u64,
    events: Vec<Event>,
}

impl TrackBuf {
    /// A fresh buffer for `track_name` with its clock at `base_ns`.
    pub fn new(track_name: impl Into<String>, base_ns: u64) -> TrackBuf {
        TrackBuf {
            track_name: track_name.into(),
            base_ns,
            clock: 0,
            events: Vec::new(),
        }
    }

    /// The buffer's current logical time.
    pub fn now_ns(&self) -> u64 {
        self.base_ns + self.clock
    }

    /// Advance the logical clock by `n` ticks (nanoseconds).
    pub fn tick(&mut self, n: u64) {
        self.clock += n;
    }

    /// Record a span covering `[now, now + ticks)` and advance the clock
    /// past it — the one-call form for "this operation moved `value`
    /// units and took `ticks` logical time".
    pub fn op(&mut self, name: &str, ticks: u64, value: f64) {
        let ticks = ticks.max(1);
        self.events.push(Event {
            track: TrackId(0), // rewritten on commit
            ts_ns: self.now_ns(),
            kind: EventKind::Span { dur_ns: ticks },
            name: name.to_string(),
            value,
        });
        self.clock += ticks;
    }

    /// Record a point event at the current logical time.
    pub fn instant(&mut self, name: &str, value: f64) {
        self.events.push(Event {
            track: TrackId(0),
            ts_ns: self.now_ns(),
            kind: EventKind::Instant,
            name: name.to_string(),
            value,
        });
    }

    /// Commit every staged event to `rec` (resolves the track by name).
    pub fn commit(self, rec: &Recorder) {
        rec.commit(self);
    }

    /// Drop the buffer, recording nothing.
    pub fn discard(self) {}

    /// Number of staged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_insensitive() {
        let make = |order: &[usize]| {
            let rec = Recorder::new();
            let a = rec.track("a");
            let b = rec.track("b");
            let evs = [(a, 10u64, "x"), (b, 5, "y"), (a, 5, "z")];
            for &i in order {
                let (t, ts, n) = evs[i];
                rec.span(t, n, ts, 3, 1.5);
            }
            rec.counter_add("c", 2.0);
            rec.digest()
        };
        assert_eq!(make(&[0, 1, 2]), make(&[2, 0, 1]));
        assert_eq!(make(&[0, 1, 2]), make(&[1, 2, 0]));
    }

    #[test]
    fn digest_sensitive_to_content() {
        let rec1 = Recorder::new();
        let t = rec1.track("a");
        rec1.span(t, "x", 1, 2, 0.0);
        let rec2 = Recorder::new();
        let t = rec2.track("a");
        rec2.span(t, "x", 1, 3, 0.0);
        assert_ne!(rec1.digest(), rec2.digest());
    }

    #[test]
    fn track_id_assignment_order_does_not_leak() {
        let rec1 = Recorder::new();
        let a1 = rec1.track("alpha");
        let b1 = rec1.track("beta");
        rec1.span(a1, "x", 1, 1, 0.0);
        rec1.span(b1, "y", 1, 1, 0.0);
        let rec2 = Recorder::new();
        let b2 = rec2.track("beta"); // registered first this time
        let a2 = rec2.track("alpha");
        rec2.span(a2, "x", 1, 1, 0.0);
        rec2.span(b2, "y", 1, 1, 0.0);
        assert_eq!(rec1.digest(), rec2.digest());
    }

    #[test]
    fn trackbuf_commit_and_discard() {
        let rec = Recorder::new();
        let mut b = TrackBuf::new("t", 100);
        b.op("send", 10, 64.0);
        b.op("recv", 5, 64.0);
        assert_eq!(b.now_ns(), 115);
        b.commit(&rec);
        let mut dropped = TrackBuf::new("t", 0);
        dropped.op("never", 1, 0.0);
        dropped.discard();
        assert_eq!(rec.event_count(), 2);
        assert_eq!(rec.last_ts_ns(), 115);
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let rec = Recorder::new();
        rec.counter_add("bytes", 10.0);
        rec.counter_add("bytes", 5.0);
        rec.gauge_set("util", 0.5);
        rec.gauge_set("util", 0.75);
        for v in [1u64, 2, 100, 1000] {
            rec.observe("lat", v);
        }
        let s = rec.snapshot();
        assert_eq!(s.counters["bytes"], 15.0);
        assert_eq!(s.gauges["util"], 0.75);
        assert_eq!(s.hists["lat"].count(), 4);
    }

    #[test]
    fn counter_handle_matches_named_adds() {
        let rec = Recorder::new();
        let h = rec.counter_handle("fills");
        // A resolved-but-untouched handle must not create the counter:
        // handing out handles cannot perturb a pinned digest.
        let idle = rec.counter_handle("idle");
        assert!(rec.snapshot().counters.is_empty());
        rec.counter_add_by(h, 3.0);
        rec.counter_add("fills", 4.0); // name and handle hit the same slot
        rec.counter_add_by(idle, 0.0); // an add of 0 does create it
        let s = rec.snapshot();
        assert_eq!(s.counters["fills"], 7.0);
        assert_eq!(s.counters["idle"], 0.0);
        assert_eq!(s.counters.len(), 2);
    }

    #[test]
    fn concurrent_commits_are_digest_stable() {
        let run = || {
            let rec = Recorder::new();
            std::thread::scope(|s| {
                for r in 0..8usize {
                    let rec = &rec;
                    s.spawn(move || {
                        let mut b = TrackBuf::new(format!("rank{r}"), 0);
                        for i in 0..50u64 {
                            b.op(&format!("step{i}"), 1 + (r as u64 + i) % 7, i as f64);
                        }
                        b.commit(rec);
                    });
                }
            });
            rec.digest()
        };
        assert_eq!(run(), run());
    }
}
