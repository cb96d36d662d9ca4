//! Harness-side spans: every timing in the benchmark is taken here,
//! around calls into the program, never inside it.
//!
//! A [`Tracer`] always measures (`begin` / `end` return the elapsed wall
//! time) and, when recording is on, also keeps the span — name, start,
//! end, parent — in memory, to be written once at exit as Chrome-trace
//! JSON (`chrome://tracing`, Perfetto). End-to-end numbers come from runs
//! with recording off; `trace.overhead_ratio` holds the two against each
//! other.

use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or loop stage the span brackets.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    start: Instant,
    /// The span's place in the recorded list (recording only).
    slot: Option<usize>,
}

/// Span recorder for one process.
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    /// Innermost open span.
    current: Option<usize>,
}

impl Tracer {
    /// A tracer that measures, and records iff `recording`.
    pub fn new(recording: bool) -> Self {
        Self {
            origin: Instant::now(),
            recording,
            spans: Vec::new(),
            current: None,
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.recording.then(|| {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.current,
            });
            self.current = Some(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, slot }
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let elapsed = open.start.elapsed();
        if let Some(slot) = open.slot {
            let span = &mut self.spans[slot];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
            self.current = span.parent;
        }
        elapsed.as_secs_f64()
    }

    /// Time one call under a span of its own.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// The spans as a Chrome-trace document. `meta` is echoed into the
    /// document's `metadata` object (seed, commit, host, …); `workload`
    /// is the identifier every span of this run shares.
    pub fn chrome_trace(&self, workload: &str, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".into(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3},\"workload\":{}}}}}",
                json_string(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.self_ns(i) as f64 / 1e3,
                json_string(workload),
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"metadata\":{");
        let meta: Vec<String> = meta
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
            .collect();
        out.push_str(&meta.join(","));
        out.push_str("}}\n");
        out
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("step");
        let (_, inner_s) = tr.time("mech", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_s = tr.end(outer);
        assert!(outer_s >= inner_s && inner_s >= 0.002);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("step", None));
        assert_eq!((spans[1].name, spans[1].parent), ("mech", Some(0)));
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(tr.self_ns(0), total - (spans[1].end_ns - spans[1].start_ns));
        // After the outer span closes, new spans are roots again.
        let (_, _) = tr.time("checkpoint", || ());
        assert_eq!(tr.spans()[2].parent, None);
    }

    #[test]
    fn a_tracer_that_does_not_record_still_measures() {
        let mut tr = Tracer::new(false);
        let (v, s) = tr.time("step", || 7);
        assert_eq!(v, 7);
        assert!(s >= 0.0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let mut tr = Tracer::new(true);
        let (_, _) = tr.time("a \"quoted\" name", || ());
        let doc = tr.chrome_trace("w", &[("seed", "42".into())]);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"name\":\"a \\\"quoted\\\" name\""));
        assert!(doc.contains("\"metadata\":{\"seed\":\"42\"}"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
