//! A nested span tree recorded from the benchmark's own code around each
//! call into a layer: name, start, end and inner spans, with self time
//! derived when the tree is written out.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed or open span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the span covers (`setup`, `cell dev1/ULC`, `steady`, …).
    pub name: String,
    /// Enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tree was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tree was created (0 while open).
    pub end_ns: u64,
}

/// The span tree of one benchmark process. Spans nest strictly: the
/// innermost open span is the parent of the next one opened.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    /// An empty tree (no root yet) whose clock starts now.
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Starts a tree whose root span is open from now.
    pub fn new(root: &str) -> Self {
        let mut s = Spans::default();
        s.enter(root);
        s
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: &str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("span exit without enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span called `name`; returns its result and its
    /// host time in seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.exit();
        (out, secs)
    }

    /// Closes every span still open, the root last.
    pub fn finish(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// All spans, parents before their children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration minus the time covered by direct children, per span.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self
            .spans
            .iter()
            .map(|s| s.end_ns as i64 - s.start_ns as i64)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.end_ns as i64 - s.start_ns as i64;
            }
        }
        out
    }

    /// The closed tree as nested JSON objects with `self_ns` filled in.
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = String::new();
        if !self.spans.is_empty() {
            self.write_node(0, &own, &children, &mut out);
        }
        out.push('\n');
        out
    }

    fn write_node(&self, id: usize, own: &[i64], children: &[Vec<usize>], out: &mut String) {
        let s = &self.spans[id];
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"children\":[",
            s.name.replace('\\', "\\\\").replace('"', "\\\""),
            s.start_ns,
            s.end_ns,
            own[id]
        );
        for (k, &c) in children[id].iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            self.write_node(c, own, children, out);
        }
        out.push_str("]}");
    }
}
