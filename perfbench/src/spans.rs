//! In-memory span recorder: each span has a name, a start, an end and the
//! span that caused it. Spans are kept in memory while the benchmark runs
//! and written out as JSON lines when it ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use jetty_experiments::results::json::quote;

struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span { name: name.into(), parent, start: now, end: now });
        self.spans.len() - 1
    }

    /// Ends an open span now and returns its duration.
    pub fn close(&mut self, id: usize) -> Duration {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Records a finished call that ran from `start` to `end`; returns its
    /// duration.
    pub fn record(&mut self, name: &str, parent: usize, start: Instant, end: Instant) -> Duration {
        let (start, end) = (start - self.origin, end - self.origin);
        self.spans.push(Span { name: name.to_owned(), parent: Some(parent), start, end });
        end - start
    }

    /// One JSON object per line: `id`, `parent`, `name`, `start_ns`, `end_ns`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                quote(&s.name),
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }
}
