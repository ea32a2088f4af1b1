//! In-memory spans recorded by the benchmark's own code around the calls
//! into each layer. Nothing is written while a pass runs; the spans go to
//! `benchmark/out/trace-<workload>.jsonl` afterwards.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Position in the recorder plus one; 0 means "no span".
    pub id: u32,
    /// The span that caused this one, or 0.
    pub parent: u32,
    /// All spans of one request share this.
    pub request: u64,
    /// `layer.step`, e.g. `wire.decode`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span that is a child of the span now open.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.ns(Instant::now());
        result
    }

    /// Record a finished span from two instants already taken; returns its
    /// id so children can name it.
    pub fn closed(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }
}

/// Self time per span name: each span's duration minus the part of it that
/// its direct children cover (children of one parent do not overlap here:
/// one thread records them in sequence).
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut covered: HashMap<u32, u64> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(span.parent).or_default() += span.end_ns - span.start_ns;
    }
    let mut by_name: HashMap<&'static str, u64> = HashMap::new();
    for span in spans {
        let own = (span.end_ns - span.start_ns)
            .saturating_sub(covered.get(&span.id).copied().unwrap_or(0));
        *by_name.entry(span.name).or_default() += own;
    }
    by_name
}

/// Self time summed per layer (the part of a span name before the dot),
/// as a share of all self time outside `skip` layers.
pub fn layer_shares(spans: &[Span], skip: &[&str]) -> HashMap<&'static str, f64> {
    let mut by_layer: HashMap<&'static str, u64> = HashMap::new();
    for (name, ns) in self_times(spans) {
        let layer = name.split('.').next().unwrap_or(name);
        if !skip.contains(&layer) {
            *by_layer.entry(layer).or_default() += ns;
        }
    }
    let total: u64 = by_layer.values().sum();
    by_layer
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / total.max(1) as f64))
        .collect()
}

/// One JSON object per line; `source` tells the client-side spans of the
/// live pass from the in-process replay.
pub fn write_jsonl(path: &Path, groups: &[(&str, &[Span])]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (source, spans) in groups {
        for s in *spans {
            writeln!(
                out,
                "{{\"source\":\"{source}\",\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, 0, "bench.request", 0, 100),
            span(2, 1, "httpd.parse", 10, 30),
            span(3, 1, "core.acl", 30, 90),
            span(4, 3, "db.get", 40, 80),
        ];
        let own = self_times(&spans);
        assert_eq!(own["bench.request"], 20);
        assert_eq!(own["httpd.parse"], 20);
        assert_eq!(own["core.acl"], 20);
        assert_eq!(own["db.get"], 40);
        let shares = layer_shares(&spans, &["bench"]);
        assert_eq!(shares["db"], 0.5);
        assert_eq!(shares["httpd"], 0.25);
        assert!(!shares.contains_key("bench"));
    }

    #[test]
    fn nested_spans_name_their_parent() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("bench.request", 7, |rec| {
            rec.span("wire.decode", 7, |_| ());
            rec.span("wire.encode", 7, |_| ());
        });
        let parents: Vec<u32> = rec.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [0, 1, 1]);
        assert!(rec
            .spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.request == 7));
    }
}
