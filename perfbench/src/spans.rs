//! In-memory spans recorded around calls into the library's layers.
//!
//! A span is a named interval with the span that caused it. Set-up in the
//! untraced run uses [`Spans::off`], which records nothing and reads no
//! clock; its passes use [`Spans::top`], which times only the outermost
//! calls, the parts of a pass. The traced run times every call a
//! workload wraps in [`Spans::time`].

use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Which spans a recorder keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Keep {
    None,
    TopLevel,
    All,
}

#[derive(Debug)]
pub struct Spans {
    keep: Keep,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            keep: Keep::None,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder that records only spans no other span encloses. To
    /// workloads it is off: they take their untraced paths.
    pub fn top() -> Spans {
        Spans {
            keep: Keep::TopLevel,
            ..Spans::off()
        }
    }

    /// A recorder that records every span.
    pub fn on() -> Spans {
        Spans {
            keep: Keep::All,
            ..Spans::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.keep == Keep::All
    }

    /// Whether a span opened now would be recorded.
    fn keeps(&self) -> bool {
        match self.keep {
            Keep::None => false,
            Keep::TopLevel => self.stack.is_empty(),
            Keep::All => true,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans `f` records are its
    /// children.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.keeps() {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Record a span timed elsewhere (e.g. on a worker thread) as a child
    /// of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.keeps() {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
        };
        self.spans.push(span);
    }

    /// Durations (ms) of every span named `name`, in record order.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total duration (ms) of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.ms(name).iter().sum()
    }

    /// Total duration (ms) of the spans named `name` that no other span
    /// encloses.
    pub fn top_level_ms(&self, name: &str) -> f64 {
        self.top_level()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// The spans that no other span encloses, in record order.
    pub fn top_level(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }
}
