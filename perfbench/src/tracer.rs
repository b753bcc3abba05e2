//! In-memory span tracer for the benchmark's own call sites.
//!
//! Each span records a name, its start and end, and the span that was
//! open when it started (its parent). Spans are kept in memory and
//! aggregated when the run ends. A layer's self time is its spans'
//! durations minus the part covered by their child spans. A disabled
//! tracer calls the wrapped function and records nothing, so the
//! untraced run pays no clock reads.

use std::cell::RefCell;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, spans: RefCell::new(Vec::new()), open: RefCell::new(Vec::new()) }
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { name, parent, start: Instant::now(), end: None });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.spans.borrow_mut()[idx].end = Some(Instant::now());
        self.open.borrow_mut().pop();
        out
    }

    fn closed(&self) -> Vec<(usize, Span, f64)> {
        self.spans
            .borrow()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.end.map(|e| (i, s.clone(), (e - s.start).as_secs_f64())))
            .collect()
    }

    /// Summed duration of every closed span called `name`, seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.closed().iter().filter(|(_, s, _)| s.name == name).fold(0.0, |acc, (_, _, d)| acc + d)
    }

    /// Summed self time of every closed span called `name`: duration
    /// minus the durations of its direct children, seconds.
    pub fn self_secs(&self, name: &str) -> f64 {
        let closed = self.closed();
        let mut children = vec![0.0; self.spans.borrow().len()];
        for (_, s, d) in &closed {
            if let Some(p) = s.parent {
                children[p] += d;
            }
        }
        closed
            .iter()
            .filter(|(_, s, _)| s.name == name)
            .fold(0.0, |acc, (i, _, d)| acc + d - children[*i])
    }

    /// Share of the `root` spans' wall time that no child span covers.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let wall = self.total_secs(root);
        if wall <= 0.0 {
            return 0.0;
        }
        self.self_secs(root) / wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let tr = Tracer::new(true);
        tr.span("root", || {
            tr.span("a", || busy(20));
            tr.span("b", || busy(10));
        });
        let root = tr.total_secs("root");
        let a = tr.total_secs("a");
        let b = tr.total_secs("b");
        assert!(a >= 0.02 && b >= 0.01);
        assert!((tr.self_secs("root") - (root - a - b)).abs() < 1e-9);
        assert!(tr.unattributed_frac("root") < 0.5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", || 7), 7);
        assert_eq!(tr.total_secs("x"), 0.0);
    }
}
