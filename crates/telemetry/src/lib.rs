//! Telemetry for the verification flow: structured events, pluggable
//! sinks, and a metrics registry.
//!
//! The paper's methodology is judged on regression evidence — reports,
//! coverage, per-port alignment across a `{configuration × test × seed}`
//! matrix. This crate makes that evidence *observable while it is being
//! produced* and *machine-readable afterwards*:
//!
//! * [`Event`] — `{ts_us, level, scope, msg, fields}` records, emitted
//!   through a [`Telemetry`] handle to any combination of sinks:
//!   human-readable stderr lines ([`TextSink`]), JSON Lines
//!   ([`JsonlSink`]), or an in-memory buffer for tests ([`MemorySink`]);
//! * [`MetricsRegistry`] — monotonic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s, cloneable via `Arc`, updated with one
//!   atomic op on hot paths and snapshotable to JSON;
//! * [`Span`] — wall-clock scopes that emit a `<scope>.end` event with
//!   their timing, their own id and the id of the span they ran under;
//! * [`Json`] — a dependency-free JSON value with renderer and parser,
//!   shared by every machine-readable artifact in the workspace (JSONL
//!   event streams, `manifest.json`, metric snapshots).
//!
//! A disabled handle ([`Telemetry::disabled`]) costs one branch per call
//! site, so library code can thread telemetry unconditionally.
//!
//! Every handle is `Send + Sync`. For fan-out work (the parallel
//! regression engine), [`Telemetry::buffered`] derives a worker-local
//! handle whose events accumulate in a private buffer and flow into the
//! shared sinks in batches — spans and counters from many workers fan in
//! without serializing on the sink lock per event. A worker's spans name
//! their parent across the thread boundary through the handle the
//! fan-out gave it ([`Telemetry::handoff`]).
//!
//! ```
//! use stbus_telemetry::{Json, Level, MemorySink, Telemetry};
//! let (sink, handle) = MemorySink::new();
//! let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
//! let run = tel.span("run").field("seed", Json::from(7u64));
//! tel.metrics().counter("runs").inc();
//! run.end([("cycles", Json::from(100u64))]);
//! assert_eq!(handle.events().last().unwrap().scope, "run.end");
//! assert_eq!(tel.metrics().snapshot().counters["runs"], 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod json;
mod metrics;
mod sink;

pub use event::{Event, Level};
pub use json::{Json, JsonParseError};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use sink::{EventSink, JsonlSink, MemorySink, MemorySinkHandle, TextSink};

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Events a worker handle buffers locally before taking the shared sink
/// lock once to flush them all (see [`Telemetry::buffered`]).
const WORKER_BUFFER_BATCH: usize = 64;

static NEXT_TRACK: AtomicU64 = AtomicU64::new(0);

/// Span ids are process-unique and start at 1.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TRACK: u64 = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
    /// Ids of the spans open on this thread, innermost last.
    static OPEN_SPANS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's track ordinal: a process-wide id assigned the
/// first time a thread asks for it, stable for the thread's lifetime.
/// Span end events carry it as the `track` field so concurrent workers'
/// spans can be demultiplexed back into per-thread timelines (the
/// span-tree profiler and the Chrome-trace exporter key on it).
pub fn current_track() -> u64 {
    TRACK.with(|t| *t)
}

/// The clock every handle of one family (a root handle and its buffered
/// and scoped descendants) reads: microseconds since the root was built.
///
/// Readings never decrease, even across threads. `Instant` can step back
/// a few microseconds when a thread moves between CPUs on some virtual
/// machines; a span that ends on one CPU and the next span that opens on
/// another would then seem to overlap, and the profiler would nest one
/// inside the other.
struct Clock {
    start: Instant,
    latest_us: AtomicU64,
}

impl Clock {
    fn new() -> Self {
        Clock {
            start: Instant::now(),
            latest_us: AtomicU64::new(0),
        }
    }

    fn now_us(&self) -> u64 {
        let now = self.start.elapsed().as_micros() as u64;
        // Relaxed: the reading publishes no other data.
        self.latest_us.fetch_max(now, Ordering::Relaxed).max(now)
    }
}

struct TelemetryInner {
    clock: Arc<Clock>,
    min_level: Level,
    /// Cached at build time — sinks never change afterwards, so the
    /// disabled fast path costs one branch, no lock.
    enabled: bool,
    sinks: Mutex<Vec<Box<dyn EventSink>>>,
    metrics: MetricsRegistry,
    /// `Some` on worker handles created by [`Telemetry::buffered`]: events
    /// accumulate in `buffer` and fan into the parent's sinks in batches.
    parent: Option<Telemetry>,
    buffer: Mutex<Vec<Event>>,
}

impl TelemetryInner {
    /// Moves every buffered event into the parent's sinks under a single
    /// lock acquisition.
    fn drain_buffer(&self) {
        let Some(parent) = &self.parent else { return };
        let events = std::mem::take(&mut *self.buffer.lock().expect("buffer lock"));
        if events.is_empty() {
            return;
        }
        let mut sinks = parent.inner.sinks.lock().expect("sink lock");
        for event in &events {
            for sink in sinks.iter_mut() {
                sink.emit(event);
            }
        }
    }
}

impl Drop for TelemetryInner {
    fn drop(&mut self) {
        // A worker handle going away must not lose its tail of events.
        self.drain_buffer();
    }
}

/// The cloneable telemetry handle. See the [crate docs](crate) for an
/// overview and example.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
    /// The parent of spans opened through this handle on a thread with no
    /// span of its own open: the span that was open where
    /// [`handoff`](Telemetry::handoff) gave the handle out.
    handoff_parent: Option<u64>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("min_level", &self.inner.min_level)
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

/// Configures a [`Telemetry`] handle.
pub struct TelemetryBuilder {
    min_level: Level,
    sinks: Vec<Box<dyn EventSink>>,
}

impl TelemetryBuilder {
    /// Sets the minimum emitted level (default [`Level::Info`]).
    pub fn min_level(mut self, level: Level) -> Self {
        self.min_level = level;
        self
    }

    /// Adds any sink.
    pub fn with_sink(mut self, sink: Box<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Adds a human-readable stderr sink.
    pub fn with_stderr(self) -> Self {
        self.with_sink(Box::new(TextSink::stderr()))
    }

    /// Adds a JSONL file sink. The file is created, or replaced if it
    /// exists, so it holds exactly one run: span ids restart in every
    /// process, and a second run appended to the same file would link
    /// its spans to the first run's.
    ///
    /// # Errors
    ///
    /// Propagates file-open errors.
    pub fn with_jsonl_file(self, path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::io::BufWriter::new(std::fs::File::create(path)?);
        Ok(self.with_sink(Box::new(JsonlSink::new(file))))
    }

    /// Finishes the handle. With no sinks the handle is disabled-but-valid:
    /// metrics still work, events go nowhere.
    pub fn build(self) -> Telemetry {
        Telemetry {
            inner: Arc::new(TelemetryInner {
                clock: Arc::new(Clock::new()),
                min_level: self.min_level,
                enabled: !self.sinks.is_empty(),
                sinks: Mutex::new(self.sinks),
                metrics: MetricsRegistry::new(),
                parent: None,
                buffer: Mutex::new(Vec::new()),
            }),
            handoff_parent: None,
        }
    }
}

impl Telemetry {
    /// Starts configuring a handle.
    pub fn builder() -> TelemetryBuilder {
        TelemetryBuilder {
            min_level: Level::Info,
            sinks: Vec::new(),
        }
    }

    /// A handle with no sinks: `emit` is a cheap no-op, the metrics
    /// registry still records. This is the `Default`, so structs can hold
    /// a `Telemetry` unconditionally.
    pub fn disabled() -> Telemetry {
        Telemetry::builder().build()
    }

    /// A handle emitting human-readable lines to stderr.
    pub fn to_stderr(min_level: Level) -> Telemetry {
        Telemetry::builder()
            .min_level(min_level)
            .with_stderr()
            .build()
    }

    /// True when at least one sink is attached (directly or through the
    /// parent of a [buffered](Telemetry::buffered) worker handle).
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// A worker-local handle for fan-out work: events buffer in the
    /// handle and flow into this handle's sinks in batches of
    /// [`WORKER_BUFFER_BATCH`], so concurrent workers emitting spans do
    /// not serialize on the sink lock per event. Metrics are shared with
    /// the parent (they are lock-free atomics already). The buffer drains
    /// on [`flush`](Telemetry::flush) and when the last clone of the
    /// worker handle drops; event timestamps stay on the parent's clock.
    ///
    /// Buffering a disabled handle returns a plain clone (nothing to
    /// buffer); buffering a buffered handle attaches to the same parent.
    pub fn buffered(&self) -> Telemetry {
        if !self.inner.enabled {
            return self.clone();
        }
        let parent = match &self.inner.parent {
            Some(p) => p.clone(),
            None => self.clone(),
        };
        Telemetry {
            inner: Arc::new(TelemetryInner {
                clock: Arc::clone(&parent.inner.clock),
                min_level: parent.inner.min_level,
                enabled: true,
                sinks: Mutex::new(Vec::new()),
                // This handle's registry, not the parent's: a scoped
                // handle keeps its private registry through buffering
                // (for plain handles the two are the same object).
                metrics: self.inner.metrics.clone(),
                parent: Some(parent),
                buffer: Mutex::new(Vec::with_capacity(WORKER_BUFFER_BATCH)),
            }),
            handoff_parent: self.handoff_parent,
        }
    }

    /// A handle that shares this one's sinks, clock and level but records
    /// metrics into a fresh, private registry.
    ///
    /// A memoized unit of work (a regression cell) runs under a scoped
    /// handle so its exact metric contribution can be snapshotted into a
    /// cache entry and replayed later with [`MetricsRegistry::absorb`] —
    /// a warm run then reports the same totals the cold run did. Events
    /// still stream to the shared sinks (batched, as with
    /// [`Telemetry::buffered`]).
    pub fn scoped_metrics(&self) -> Telemetry {
        let base = self.buffered();
        Telemetry {
            inner: Arc::new(TelemetryInner {
                clock: Arc::clone(&base.inner.clock),
                min_level: base.inner.min_level,
                enabled: base.inner.enabled,
                sinks: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
                parent: base.inner.parent.clone(),
                buffer: Mutex::new(Vec::with_capacity(WORKER_BUFFER_BATCH)),
            }),
            handoff_parent: self.handoff_parent,
        }
    }

    /// A clone to hand to fan-out workers: a span a worker opens through
    /// it (or a handle derived from it) with no span of its own open on
    /// its thread names the span open here, now, as its parent.
    pub fn handoff(&self) -> Telemetry {
        let mut handle = self.clone();
        if self.inner.enabled {
            let open = OPEN_SPANS.with_borrow(|open| open.last().copied());
            handle.handoff_parent = open.or(self.handoff_parent);
        }
        handle
    }

    /// Microseconds since the root of this handle's family was created.
    /// Readings never decrease, on any thread.
    pub fn elapsed_us(&self) -> u64 {
        self.inner.clock.now_us()
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Emits one event to every sink, if `level` clears the threshold.
    pub fn emit(
        &self,
        level: Level,
        scope: &str,
        message: &str,
        fields: impl IntoIterator<Item = (impl Into<String>, Json)>,
    ) {
        if level < self.inner.min_level || !self.inner.enabled {
            return;
        }
        let event = Event {
            ts_us: self.elapsed_us(),
            level,
            scope: scope.to_owned(),
            message: message.to_owned(),
            fields: fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        };
        if self.inner.parent.is_some() {
            // Worker path: append locally (uncontended lock), flush a full
            // batch into the parent's sinks in one go.
            let full = {
                let mut buffer = self.inner.buffer.lock().expect("buffer lock");
                buffer.push(event);
                buffer.len() >= WORKER_BUFFER_BATCH
            };
            if full {
                self.inner.drain_buffer();
            }
            return;
        }
        let mut sinks = self.inner.sinks.lock().expect("sink lock");
        for sink in sinks.iter_mut() {
            sink.emit(&event);
        }
    }

    /// [`Level::Debug`] shorthand.
    pub fn debug(
        &self,
        scope: &str,
        message: &str,
        fields: impl IntoIterator<Item = (impl Into<String>, Json)>,
    ) {
        self.emit(Level::Debug, scope, message, fields);
    }

    /// [`Level::Info`] shorthand.
    pub fn info(
        &self,
        scope: &str,
        message: &str,
        fields: impl IntoIterator<Item = (impl Into<String>, Json)>,
    ) {
        self.emit(Level::Info, scope, message, fields);
    }

    /// [`Level::Warn`] shorthand.
    pub fn warn(
        &self,
        scope: &str,
        message: &str,
        fields: impl IntoIterator<Item = (impl Into<String>, Json)>,
    ) {
        self.emit(Level::Warn, scope, message, fields);
    }

    /// [`Level::Error`] shorthand.
    pub fn error(
        &self,
        scope: &str,
        message: &str,
        fields: impl IntoIterator<Item = (impl Into<String>, Json)>,
    ) {
        self.emit(Level::Error, scope, message, fields);
    }

    /// Opens a wall-clock span. On [`Span::end`] (or drop) a
    /// `<scope>.end` event carries any attached fields, then `start_us`
    /// (offset of the open on this handle's clock), `duration_us`,
    /// `track` (the opening thread's [`current_track`] ordinal), `id` (a
    /// process-unique span id) and `parent` (the innermost span open on
    /// this thread, else the [`handoff`](Telemetry::handoff) parent, else
    /// null) — enough for a consumer to rebuild the call tree. The span
    /// must end on the thread that opened it. A disabled handle's spans
    /// get no id, leave the open-span stack alone and allocate nothing:
    /// their fields are dropped unconverted.
    pub fn span(&self, scope: &str) -> Span {
        let enabled = self.inner.enabled;
        let id = enabled.then(|| NEXT_SPAN.fetch_add(1, Ordering::Relaxed));
        let parent = id.and_then(|id| {
            OPEN_SPANS.with_borrow_mut(|open| {
                let parent = open.last().copied().or(self.handoff_parent);
                open.push(id);
                parent
            })
        });
        Span {
            telemetry: self.clone(),
            scope: if enabled {
                scope.to_owned()
            } else {
                String::new()
            },
            start: Instant::now(),
            start_us: if enabled { self.elapsed_us() } else { 0 },
            track: current_track(),
            id,
            parent,
            fields: Vec::new(),
            finished: false,
            _thread_bound: PhantomData,
        }
    }

    /// Flushes every sink (draining the local buffer first on a
    /// [buffered](Telemetry::buffered) worker handle).
    pub fn flush(&self) {
        if let Some(parent) = &self.inner.parent {
            self.inner.drain_buffer();
            parent.flush();
            return;
        }
        for sink in self.inner.sinks.lock().expect("sink lock").iter_mut() {
            sink.flush();
        }
    }
}

/// A wall-clock scope; see [`Telemetry::span`].
pub struct Span {
    telemetry: Telemetry,
    scope: String,
    start: Instant,
    start_us: u64,
    track: u64,
    id: Option<u64>,
    parent: Option<u64>,
    fields: Vec<(String, Json)>,
    finished: bool,
    /// Not `Send`: the span's id sits on its opening thread's stack.
    _thread_bound: PhantomData<*const ()>,
}

impl Span {
    /// Attaches a field to the eventual end event.
    pub fn field(mut self, key: impl Into<String>, value: Json) -> Self {
        self.add_field(key, value);
        self
    }

    /// Attaches a field through a mutable reference.
    pub fn add_field(&mut self, key: impl Into<String>, value: Json) {
        if self.id.is_some() {
            self.fields.push((key.into(), value));
        }
    }

    /// Elapsed wall time so far.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }

    /// Ends the span, merging `extra` fields into the end event.
    pub fn end(mut self, extra: impl IntoIterator<Item = (impl Into<String>, Json)>) {
        if self.id.is_some() {
            self.fields
                .extend(extra.into_iter().map(|(k, v)| (k.into(), v)));
        }
        self.finish();
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        // Only a disabled handle's spans have no id: nothing to emit.
        let Some(id) = self.id else { return };
        // By id, not the top: a span dropped out of order must not take a
        // still-open one off the stack.
        OPEN_SPANS.with_borrow_mut(|open| open.retain(|&open| open != id));
        // Both ends are readings of the handle's one never-decreasing
        // clock, so a span that closed before the next one opened on this
        // track never appears to overlap it.
        let end_us = self.telemetry.elapsed_us();
        let mut fields = std::mem::take(&mut self.fields);
        fields.push(("start_us".to_owned(), Json::from(self.start_us)));
        fields.push(("duration_us".to_owned(), Json::from(end_us - self.start_us)));
        fields.push(("track".to_owned(), Json::from(self.track)));
        fields.push(("id".to_owned(), Json::from(id)));
        fields.push(("parent".to_owned(), Json::from(self.parent)));
        self.telemetry.emit(
            Level::Info,
            &format!("{}.end", self.scope),
            "span finished",
            fields,
        );
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Empty field list, for call sites with nothing structured to attach.
///
/// `emit`'s generic parameter cannot be inferred from a bare `[]`; this
/// constant gives it a concrete type.
pub const NO_FIELDS: [(&str, Json); 0] = [];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_silent_but_counts() {
        let tel = Telemetry::disabled();
        tel.info("x", "ignored", NO_FIELDS);
        tel.metrics().counter("c").add(2);
        assert!(!tel.is_enabled());
        assert_eq!(tel.metrics().snapshot().counters["c"], 2);
    }

    #[test]
    fn min_level_filters() {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder()
            .min_level(Level::Warn)
            .with_sink(Box::new(sink))
            .build();
        tel.info("a", "dropped", NO_FIELDS);
        tel.warn("b", "kept", NO_FIELDS);
        tel.error("c", "kept", NO_FIELDS);
        let events = handle.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].scope, "b");
        assert_eq!(events[1].level, Level::Error);
    }

    #[test]
    fn span_emits_duration_and_fields() {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        let span = tel.span("cell").field("seed", Json::from(5u64));
        span.end([("passed", Json::Bool(true))]);
        let events = handle.events();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.scope, "cell.end");
        assert_eq!(e.field("seed").unwrap().as_u64(), Some(5));
        assert_eq!(e.field("passed").unwrap().as_bool(), Some(true));
        assert!(e.field("duration_us").unwrap().as_u64().is_some());
    }

    #[test]
    fn span_carries_pairing_fields() {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        tel.span("outer").end(NO_FIELDS);
        let e = &handle.events()[0];
        let start = e.field("start_us").unwrap().as_u64().unwrap();
        let dur = e.field("duration_us").unwrap().as_u64().unwrap();
        assert_eq!(e.field("track").unwrap().as_u64(), Some(current_track()));
        assert!(start + dur <= tel.elapsed_us() + 1_000);
        // A span opened on another thread carries that thread's track.
        let tel2 = tel.clone();
        std::thread::spawn(move || tel2.span("worker").end(NO_FIELDS))
            .join()
            .unwrap();
        let events = handle.events();
        let w = events.iter().find(|e| e.scope == "worker.end").unwrap();
        assert_ne!(w.field("track").unwrap().as_u64(), Some(current_track()));
    }

    fn span_link(e: &Event) -> (u64, Option<u64>) {
        let id = e.field("id").unwrap().as_u64().unwrap();
        (id, e.field("parent").unwrap().as_u64())
    }

    #[test]
    fn spans_record_their_parent_on_the_same_thread() {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        let outer = tel.span("outer");
        let first = tel.span("first");
        let second = tel.span("second");
        // Out of order: `first` ends while `second` is still open.
        drop(first);
        let third = tel.span("third");
        drop(third);
        drop(second);
        outer.end(NO_FIELDS);
        tel.span("after").end(NO_FIELDS);
        let links: std::collections::BTreeMap<String, (u64, Option<u64>)> = handle
            .events()
            .iter()
            .map(|e| (e.scope.clone(), span_link(e)))
            .collect();
        let id = |scope: &str| links[scope].0;
        assert_eq!(links["outer.end"].1, None);
        assert_eq!(links["first.end"].1, Some(id("outer.end")));
        assert_eq!(links["second.end"].1, Some(id("first.end")));
        assert_eq!(links["third.end"].1, Some(id("second.end")));
        assert_eq!(links["after.end"].1, None);
        let mut ids: Vec<u64> = links.values().map(|l| l.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5, "ids are unique");
    }

    #[test]
    fn handoff_carries_the_open_span_to_worker_threads() {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        let campaign = tel.span("campaign");
        let worker = tel.handoff();
        let plain = tel.clone();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let cell = worker.buffered().span("cell");
                worker.scoped_metrics().span("run").end(NO_FIELDS);
                drop(cell);
                plain.span("unlinked").end(NO_FIELDS);
            });
        });
        campaign.end(NO_FIELDS);
        let events = handle.events();
        let link = |scope: &str| span_link(events.iter().find(|e| e.scope == scope).unwrap());
        let campaign_id = link("campaign.end").0;
        assert_eq!(link("cell.end").1, Some(campaign_id));
        assert_eq!(link("run.end").1, Some(link("cell.end").0));
        assert_eq!(link("unlinked.end").1, None);
        // A disabled handle hands off nothing and tracks no parentage.
        let off = Telemetry::disabled();
        let _open = off.span("untracked");
        assert_eq!(off.handoff().handoff_parent, None);
        OPEN_SPANS.with_borrow(|open| assert!(open.is_empty()));
    }

    /// Both ends of a span come from the handle's one clock, so a span
    /// that closes before the next one opens on the same track can never
    /// appear to overlap it after truncation to whole microseconds.
    #[test]
    fn back_to_back_spans_never_overlap() {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        for _ in 0..10_000 {
            tel.span("s").end(NO_FIELDS);
        }
        let spans: Vec<(u64, u64)> = handle
            .events()
            .iter()
            .map(|e| {
                let start = e.field("start_us").unwrap().as_u64().unwrap();
                let duration = e.field("duration_us").unwrap().as_u64().unwrap();
                (start, start + duration)
            })
            .collect();
        assert_eq!(spans.len(), 10_000);
        for (k, pair) in spans.windows(2).enumerate() {
            assert!(
                pair[0].1 <= pair[1].0,
                "span {k} ends at {} us, after span {} opens at {} us",
                pair[0].1,
                k + 1,
                pair[1].0
            );
        }
    }

    #[test]
    fn dropped_span_still_reports() {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        {
            let _span = tel.span("implicit");
        }
        assert_eq!(handle.events().len(), 1);
        assert_eq!(handle.events()[0].scope, "implicit.end");
    }

    #[test]
    fn clones_share_sinks_and_metrics() {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        let clone = tel.clone();
        clone.info("from.clone", "hi", NO_FIELDS);
        clone.metrics().counter("shared").inc();
        assert_eq!(handle.events().len(), 1);
        assert_eq!(tel.metrics().snapshot().counters["shared"], 1);
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();
        assert_send_sync::<MetricsRegistry>();
        assert_send_sync::<Counter>();
        assert_send_sync::<Histogram>();
    }

    #[test]
    fn buffered_handle_delivers_events_and_shares_metrics() {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        {
            let worker = tel.buffered();
            worker.info("w.a", "first", NO_FIELDS);
            worker.info("w.b", "second", NO_FIELDS);
            worker.metrics().counter("w.count").add(2);
            // Below the batch size: nothing delivered until flush/drop.
            assert!(handle.events().is_empty());
            worker.flush();
            assert_eq!(handle.events().len(), 2);
            worker.warn("w.c", "third", NO_FIELDS);
        } // drop drains the tail
        let events = handle.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].scope, "w.a");
        assert_eq!(events[2].scope, "w.c");
        assert_eq!(tel.metrics().snapshot().counters["w.count"], 2);
    }

    #[test]
    fn buffered_handle_flushes_full_batches_automatically() {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        let worker = tel.buffered();
        for i in 0..WORKER_BUFFER_BATCH {
            worker.info("tick", &format!("{i}"), NO_FIELDS);
        }
        assert_eq!(handle.events().len(), WORKER_BUFFER_BATCH);
    }

    #[test]
    fn buffering_a_buffered_handle_reattaches_to_the_root() {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        let worker = tel.buffered().buffered();
        worker.info("deep", "hello", NO_FIELDS);
        worker.flush();
        assert_eq!(handle.events().len(), 1);
        // Disabled handles skip buffering entirely.
        let disabled = Telemetry::disabled().buffered();
        assert!(!disabled.is_enabled());
    }

    #[test]
    fn concurrent_workers_fan_in_without_losing_events() {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let tel = tel.clone();
                scope.spawn(move || {
                    let worker = tel.buffered();
                    for i in 0..100 {
                        worker.info("w", &format!("{w}/{i}"), NO_FIELDS);
                        worker.metrics().counter("events").inc();
                    }
                });
            }
        });
        assert_eq!(handle.events().len(), 400);
        assert_eq!(tel.metrics().snapshot().counters["events"], 400);
    }

    #[test]
    fn scoped_metrics_isolates_the_registry_but_shares_sinks() {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        tel.metrics().counter("shared").add(7);
        let scoped = tel.scoped_metrics();
        scoped.info("cell", "working", NO_FIELDS);
        scoped.metrics().counter("kernel.steps").add(3);
        // Buffering a scoped handle keeps the private registry.
        let worker = scoped.buffered();
        worker.metrics().counter("kernel.steps").add(2);
        drop(worker);
        drop(scoped.clone());
        let snap = scoped.metrics().snapshot();
        assert_eq!(snap.counters["kernel.steps"], 5);
        assert!(!snap.counters.contains_key("shared"));
        assert!(!tel
            .metrics()
            .snapshot()
            .counters
            .contains_key("kernel.steps"));
        drop(scoped);
        // Events flowed through to the shared sinks.
        assert_eq!(handle.events().len(), 1);
        // Replay lands the contribution in the campaign registry.
        tel.metrics().absorb(&snap);
        assert_eq!(tel.metrics().snapshot().counters["kernel.steps"], 5);

        // A disabled handle still scopes its registry.
        let off = Telemetry::disabled();
        let cell = off.scoped_metrics();
        cell.metrics().counter("x").inc();
        assert!(!off.metrics().snapshot().counters.contains_key("x"));
    }

    #[test]
    fn timestamps_are_monotonic() {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        for i in 0..5 {
            tel.info("tick", &format!("{i}"), NO_FIELDS);
        }
        let events = handle.events();
        for pair in events.windows(2) {
            assert!(pair[0].ts_us <= pair[1].ts_us);
        }
    }
}
