//! In-memory span recorder for the traced run (`--trace 1`).
//!
//! Every call the benchmark makes into a layer's public function can be
//! wrapped in [`span`]: the recorder notes the layer, a name, start and
//! end, the enclosing span and an operation id shared by the spans of one
//! operation (one cell, one run). Spans stay in memory until
//! [`write_chrome_trace`] renders them as Chrome trace-event JSON, which
//! Perfetto and `chrome://tracing` open directly.
//!
//! With tracing off (the default, used for every end-to-end metric)
//! [`span`] is a single relaxed atomic load around the wrapped call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use vmcu_bench::json::Json;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call went into (`plan`, `verify`, `vmcu`, `kernels`, ...).
    pub layer: &'static str,
    /// What was called, e.g. `deploy.split4`.
    pub name: String,
    /// Start, nanoseconds since the thread's first span.
    pub start_ns: u64,
    /// End, nanoseconds since the thread's first span.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by the spans of one operation.
    pub op: u64,
}

impl Span {
    /// Duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Recorder {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turns span recording on or off. Spans are recorded on the thread that
/// opens them; the benchmark opens them all on its main thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` on `layer`, part of operation `op`.
pub fn span<T>(layer: &'static str, name: impl Into<String>, op: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let epoch = *r.epoch.get_or_insert_with(Instant::now);
        let parent = r.open.last().copied();
        let index = r.spans.len();
        r.spans.push(Span {
            layer,
            name: name.into(),
            start_ns: nanos_since(epoch),
            end_ns: 0,
            parent,
            op,
        });
        r.open.push(index);
        index
    });
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let epoch = r.epoch.expect("recorder started");
        r.spans[index].end_ns = nanos_since(epoch);
        r.open.pop();
    });
    out
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A copy of every closed span recorded so far.
pub fn spans() -> Vec<Span> {
    RECORDER.with(|r| r.borrow().spans.clone())
}

/// In the traced run's alternating passes, turns recording on for
/// operation `i` when its index has the pass's `parity`. Two passes, with
/// parities 0 and 1, trace every operation once and leave it untraced
/// once, interleaved, so host drift hits both sides alike. `None` leaves
/// recording as it is.
pub fn alternate(parity: Option<usize>, i: usize) {
    if let Some(p) = parity {
        set_enabled(i % 2 == p);
    }
}

/// How many spans have been recorded so far.
pub fn span_count() -> usize {
    RECORDER.with(|r| r.borrow().spans.len())
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children never overlap: they run on the same thread).
/// `spans` is the whole recording, since parents index into it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time in milliseconds of the spans in `range` of the whole
/// recording `spans`, summed per span name.
pub fn self_ms_by_name(spans: &[Span], range: Range<usize>) -> BTreeMap<String, f64> {
    let own = self_times_ns(spans);
    let mut out = BTreeMap::new();
    for (s, ns) in spans[range.clone()].iter().zip(&own[range]) {
        *out.entry(s.name.clone()).or_insert(0.0) += *ns as f64 / 1e6;
    }
    out
}

/// Self time in milliseconds of the spans of `layer` in `range` of the
/// whole recording `spans`.
pub fn layer_self_ms(spans: &[Span], range: Range<usize>, layer: &str) -> f64 {
    let own = self_times_ns(spans);
    spans[range.clone()]
        .iter()
        .zip(&own[range])
        .filter(|(s, _)| s.layer == layer)
        .map(|(_, ns)| *ns as f64 / 1e6)
        .sum()
}

/// Writes the recorded spans as Chrome trace-event JSON (complete `X`
/// events, microsecond timestamps).
///
/// # Errors
///
/// Returns I/O errors from creating the directory or writing the file.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<()> {
    let events = spans()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::Object(vec![
                ("name".into(), Json::str(&s.name)),
                ("cat".into(), Json::str(s.layer)),
                ("ph".into(), Json::str("X")),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                ("dur".into(), Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid".into(), Json::from(1usize)),
                ("tid".into(), Json::from(1usize)),
                (
                    "args".into(),
                    Json::Object(vec![
                        ("span".into(), Json::from(i)),
                        ("parent".into(), s.parent.map_or(Json::Null, Json::from)),
                        ("op".into(), Json::from(s.op)),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Json::Object(vec![
        ("traceEvents".into(), Json::Array(events)),
        ("displayTimeUnit".into(), Json::str("ms")),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.to_string_pretty() + "\n")
}
