//! Pluggable event sinks: human-readable text, JSON Lines, and an
//! in-memory buffer for tests.

use crate::event::Event;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// Receives every emitted event at or above the telemetry level.
pub trait EventSink: Send {
    /// Handles one event.
    fn emit(&mut self, event: &Event);

    /// Flushes buffered output (called on [`Telemetry::flush`] and drop).
    ///
    /// [`Telemetry::flush`]: crate::Telemetry::flush
    fn flush(&mut self) {}
}

/// Renders events as single text lines to any writer (stderr by default).
pub struct TextSink<W: Write + Send> {
    out: W,
}

impl TextSink<io::Stderr> {
    /// A text sink on standard error.
    pub fn stderr() -> Self {
        TextSink { out: io::stderr() }
    }
}

impl<W: Write + Send> TextSink<W> {
    /// A text sink on an arbitrary writer.
    pub fn new(out: W) -> Self {
        TextSink { out }
    }
}

impl<W: Write + Send> EventSink for TextSink<W> {
    fn emit(&mut self, event: &Event) {
        let _ = writeln!(self.out, "{}", event.render_text());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Writes one JSON object per line (JSON Lines) to any writer; see
/// [`TelemetryBuilder::with_jsonl_file`] for a file sink.
///
/// [`TelemetryBuilder::with_jsonl_file`]: crate::TelemetryBuilder::with_jsonl_file
pub struct JsonlSink<W: Write + Send> {
    out: W,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A JSONL sink on an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink { out }
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn emit(&mut self, event: &Event) {
        let _ = writeln!(self.out, "{}", event.to_json().render());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Captures events in memory; the [`MemorySinkHandle`] stays readable
/// after the sink moved into a `Telemetry`.
#[derive(Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

/// Shared read handle of a [`MemorySink`].
#[derive(Clone, Default)]
pub struct MemorySinkHandle {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// A fresh sink plus its read handle.
    pub fn new() -> (Self, MemorySinkHandle) {
        let events: Arc<Mutex<Vec<Event>>> = Arc::default();
        (
            MemorySink {
                events: events.clone(),
            },
            MemorySinkHandle { events },
        )
    }
}

impl MemorySinkHandle {
    /// A copy of everything captured so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink lock").clone()
    }
}

impl EventSink for MemorySink {
    fn emit(&mut self, event: &Event) {
        self.events
            .lock()
            .expect("memory sink lock")
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Level;
    use crate::json::Json;

    fn event(msg: &str) -> Event {
        Event {
            ts_us: 10,
            level: Level::Info,
            scope: "t".to_owned(),
            message: msg.to_owned(),
            fields: vec![("k".to_owned(), Json::from(1u64))],
        }
    }

    #[test]
    fn jsonl_sink_writes_one_valid_line_per_event() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            sink.emit(&event("a"));
            sink.emit(&event("b"));
            sink.flush();
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let parsed = Json::parse(line).expect("valid JSON per line");
            assert!(Event::from_json(&parsed).is_some());
        }
    }

    #[test]
    fn jsonl_escaping_round_trips_hostile_field_values() {
        let hostile = [
            "control\u{0}\u{1}\u{1f}chars",
            "quote\" and 'single'",
            "back\\slash\\\\double",
            "newline\ntab\tcr\r",
            "non-ascii é 漢字 🚀",
            "\u{7f}mixed\"\\\n\u{2}",
        ];
        let mut buf = Vec::new();
        let mut events = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            for (i, s) in hostile.iter().enumerate() {
                let e = Event {
                    ts_us: i as u64,
                    level: Level::Info,
                    scope: format!("esc.{i}"),
                    message: (*s).to_owned(),
                    fields: vec![
                        ("value".to_owned(), Json::str(*s)),
                        (format!("key {s}"), Json::from(i as u64)),
                    ],
                };
                sink.emit(&e);
                events.push(e);
            }
            sink.flush();
        }
        // Escaping keeps one event per line even with raw newlines in the
        // payload, and every line parses back to an equal event.
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), hostile.len());
        for (line, original) in lines.iter().zip(&events) {
            let parsed = Json::parse(line).expect("hostile content still renders valid JSON");
            let back = Event::from_json(&parsed).expect("wire form preserved");
            assert_eq!(&back, original);
        }
    }

    #[test]
    fn memory_sink_handle_reads_back() {
        let (mut sink, handle) = MemorySink::new();
        sink.emit(&event("x"));
        assert_eq!(handle.events().len(), 1);
        assert_eq!(handle.events()[0].message, "x");
    }
}
