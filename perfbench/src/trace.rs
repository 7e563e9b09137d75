//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and a parent; every span of one op
//! carries that op's id. Spans stay in memory while the run measures and
//! are written out once it ends. A disabled tracer records nothing, so the
//! untraced run pays one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One repetition of the workload's set-up.
    Setup,
    /// One measured op.
    Op,
    /// Work timed beside an op but outside it.
    Replay,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Op => "op",
            Phase::Replay => "replay",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call, as `layer::function`.
    pub name: &'static str,
    /// Extra label, such as the SSB query.
    pub detail: Option<&'static str>,
    /// Part of the run.
    pub phase: Phase,
    /// The op (or set-up repetition) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    phase: Phase,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            phase: Phase::Setup,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off (between ops, never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty());
        self.enabled = enabled;
    }

    /// Attribute the spans that follow to `op` in `phase`.
    pub fn begin(&mut self, phase: Phase, op: u64) {
        self.phase = phase;
        self.op = op;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_detail(name, None, f)
    }

    /// Run `f` inside a span called `name` with an extra label.
    pub fn span_detail<T>(
        &mut self,
        name: &'static str,
        detail: Option<&'static str>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            detail,
            phase: self.phase,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-op totals of the spans called `name` in `phase` whose detail
    /// passes `keep`, in milliseconds, one value per op that had one.
    pub fn per_op_ms(
        &self,
        phase: Phase,
        name: &str,
        keep: impl Fn(Option<&'static str>) -> bool,
    ) -> Vec<f64> {
        let mut totals: Vec<(u64, f64)> = Vec::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.phase == phase && s.name == name && keep(s.detail))
        {
            match totals.last_mut() {
                Some((op, ms)) if *op == s.op => *ms += s.ms(),
                _ => totals.push((s.op, s.ms())),
            }
        }
        totals.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Self time of every span: its duration minus the time its children
    /// cover. Spans come from one thread, so children never overlap.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let own = self.self_ms();
        let mut out = String::new();
        for (i, (s, self_ms)) in self.spans.iter().zip(own).enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"detail\": {}, \"phase\": \"{}\", \"op\": {}, \
                 \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ms\": {self_ms}}}",
                s.name,
                s.detail.map_or("null".to_string(), |d| format!("\"{d}\"")),
                s.phase.label(),
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.begin(Phase::Op, 7);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        let own = t.self_ms();
        assert!((own[0] + spans[1].ms() - spans[0].ms()).abs() < 1e-9);
        assert!(own[0] < spans[1].ms());

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
