//! Spans of the traced round.
//!
//! Every [`SAMPLE_STRIDE`]th op of the oracle round records a root span —
//! the real call into the system under test — and child spans for the
//! same payload replayed one layer down at a time, through public
//! functions only. Children are replays, so their timestamps follow the
//! root's (the reference engine's call comes last of all, after the
//! round); a layer's self time is its span's duration minus the durations
//! of its direct children. Spans stay in memory until the run ends.

use crate::hist::median;
use crate::oracle::Reply;
use crate::script::{Op, Script, ThreadScript};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Coprime with both mix lengths (16 and 8), so every op type of a mix is
/// sampled in turn instead of the same pattern slot every time.
pub const SAMPLE_STRIDE: usize = 17;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `thread << 40 | op index`: shared by the spans of one request.
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn span(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        (start, end): (Instant, Instant),
    ) {
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
    }
}

/// What a system under test sees of one sampled op, right after the real
/// call returned.
pub struct Replay<'a> {
    pub tracer: &'a mut Tracer,
    pub req: u64,
    pub op: &'a Op,
    pub script: &'a Script,
    pub thread: &'a ThreadScript,
    pub base: u64,
    /// The system under test's answer.
    pub reply: &'a Reply,
    /// The real call's interval.
    pub root: (Instant, Instant),
}

impl Replay<'_> {
    pub fn now(&self) -> u64 {
        self.base + u64::from(self.op.at)
    }

    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        interval: (Instant, Instant),
    ) {
        self.tracer.span(self.req, name, parent, interval);
    }

    /// Run `f` and record it as a child span.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.span(name, Some(parent), (start, end));
        out
    }
}

/// Per-name medians over the sampled requests of all threads.
pub struct SpanTable {
    /// name → (durations, self times), ns, one entry per request.
    by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>,
}

impl SpanTable {
    pub fn build(tracers: &[Tracer]) -> Self {
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for tracer in tracers {
            // A stable sort brings each request's spans together: the
            // replays recorded with the op, the reference's call later.
            let mut spans = tracer.spans.clone();
            spans.sort_by_key(|s| s.req);
            for request in spans.chunk_by(|a, b| a.req == b.req) {
                for span in request {
                    let duration = (span.end_ns - span.start_ns) as f64;
                    let children: f64 = request
                        .iter()
                        .filter(|c| c.parent == Some(span.name))
                        .map(|c| (c.end_ns - c.start_ns) as f64)
                        .sum();
                    let entry = by_name.entry(span.name).or_default();
                    entry.0.push(duration);
                    entry.1.push(duration - children);
                }
            }
        }
        Self { by_name }
    }

    /// Median duration of the spans called `name`, ns (0 if none).
    pub fn duration_ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |(d, _)| median(d))
    }

    /// Median self time of the spans called `name`, ns (0 if none).
    pub fn self_ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |(_, s)| median(s))
    }
}

/// Write one JSON object per span, one span per line.
pub fn write_jsonl(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in tracers.iter().flat_map(|t| &t.spans) {
        let parent = span
            .parent
            .map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            span.req, span.name, span.start_ns, span.end_ns, parent
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut tracer = Tracer::new(origin);
        for req in 0..3u64 {
            tracer.span(req, "root", None, (at(0), at(100)));
            tracer.span(req, "mid", Some("root"), (at(100), at(160)));
            tracer.span(req, "leaf", Some("mid"), (at(160), at(170)));
            tracer.span(req, "other", Some("root"), (at(170), at(175)));
        }
        let table = SpanTable::build(&[tracer]);
        assert_eq!(table.duration_ns("root"), 100_000.0);
        assert_eq!(table.self_ns("root"), 35_000.0);
        assert_eq!(table.self_ns("mid"), 50_000.0);
        assert_eq!(table.self_ns("leaf"), 10_000.0);
        assert_eq!(table.duration_ns("absent"), 0.0);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        tracer.span(7, "root", None, (origin, origin + Duration::from_nanos(5)));
        tracer.span(
            7,
            "kid",
            Some("root"),
            (origin, origin + Duration::from_nanos(2)),
        );
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-unit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &[tracer]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            text,
            "{\"req\":7,\"name\":\"root\",\"start_ns\":0,\"end_ns\":5,\"parent\":null}\n\
             {\"req\":7,\"name\":\"kid\",\"start_ns\":0,\"end_ns\":2,\"parent\":\"root\"}\n"
        );
    }
}
