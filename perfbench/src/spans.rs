//! The benchmark's own spans: recorded in memory around the calls the
//! benchmark makes into each layer, written out as JSON lines when the
//! run ends. Nothing in the program under test is touched.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished or open span. `parent` is an index into the same log
/// (`None` for the root span of an op); spans of one op share `op_id`.
pub struct SpanRec {
    pub name: &'static str,
    pub op_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span log owned by one thread. Logs from several threads share the
/// `origin` instant and are concatenated when written.
pub struct Spans {
    origin: Instant,
    on: bool,
    log: Vec<SpanRec>,
}

/// Handle returned by [`Spans::start`]; `None` inside when recording is
/// off, so a disabled log costs one branch per call.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    pub const NONE: SpanId = SpanId(None);
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            on: false,
            log: Vec::new(),
        }
    }

    /// Switch recording on or off (the traced pass records every other
    /// op, so the two halves give the spans' own overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn start(&mut self, name: &'static str, op_id: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        self.log.push(SpanRec {
            name,
            op_id,
            parent: parent.0,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        SpanId(Some(self.log.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.log[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Time `f` under a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, op_id, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn len(&self) -> usize {
        self.log.len()
    }
}

/// Write several logs to one JSON-lines file. Span ids are
/// `<log>.<index>` so parents stay unambiguous across threads.
pub fn write_jsonl(path: &Path, logs: &[&Spans]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (l, spans) in logs.iter().enumerate() {
        for (i, s) in spans.log.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => format!("\"{l}.{p}\""),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"id\":\"{l}.{i}\",\"name\":\"{}\",\"op_id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op_id, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing_and_enabled_log_nests() {
        let mut s = Spans::new(Instant::now());
        let id = s.start("op", 1, SpanId::NONE);
        s.end(id);
        assert_eq!(s.len(), 0);
        s.set_on(true);
        let root = s.start("op", 2, SpanId::NONE);
        let got = s.within("child", 2, root, || 7);
        s.end(root);
        assert_eq!(got, 7);
        assert_eq!(s.len(), 2);
        assert_eq!(s.log[1].parent, Some(0));
        assert!(s.log[0].end_ns >= s.log[1].end_ns);
    }
}
