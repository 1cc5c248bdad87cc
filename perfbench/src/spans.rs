//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its own calls
//! into each layer's public functions; the program itself is not
//! instrumented. Nothing is written until [`Spans::write_json`] runs at
//! the end, so recording costs two clock reads and a `Vec` push.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: a layer call, its wall-clock interval relative to the
/// recorder's start, and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The recorder; inert when disabled, so the untraced run shares its
/// code paths without paying for them.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: impl Into<String>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `span` and returns its duration in ns (0 when disabled).
    ///
    /// # Panics
    ///
    /// Panics if `span` is not the innermost open span.
    pub fn close(&mut self, span: Open) -> u64 {
        let Some(idx) = span.0 else { return 0 };
        assert_eq!(self.stack.pop(), Some(idx), "spans must nest");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> T {
        let s = self.open(name);
        let out = f(self);
        self.close(s);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Renders every span as a JSON array (one object per span, with
    /// its self time) and writes it to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns[i],
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut spans = Spans::new(true);
        spans.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(spans.spans().len(), 2);
        assert_eq!(spans.spans()[1].parent, Some(0));
        let self_ns = spans.self_ns();
        assert!(self_ns[0] < spans.spans()[0].ns());
        assert_eq!(self_ns[1], spans.spans()[1].ns());

        let mut off = Spans::new(false);
        off.time("outer", |_| ());
        assert!(off.spans().is_empty());
    }
}
