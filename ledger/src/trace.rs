//! In-memory spans the ledger records around its calls into the program's
//! layers. Spans nest; a span's self time is its duration minus the part
//! its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// A span recorder for one traced run.
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals over a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus children), seconds.
    pub self_s: f64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: Instant::now(),
            end: None,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = Some(Instant::now());
        out
    }

    fn duration_s(span: &Span) -> f64 {
        span.end
            .expect("totals are taken after every span closed")
            .duration_since(span.start)
            .as_secs_f64()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_s = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_s[p] += Self::duration_s(span);
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let d = Self::duration_s(span);
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_s += d;
            t.self_s += d - child_s[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            std::thread::sleep(Duration::from_millis(5));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert!(outer.total_s >= inner.total_s + 0.005);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert_eq!(inner.self_s, inner.total_s);
    }
}
