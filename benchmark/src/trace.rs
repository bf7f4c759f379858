//! Harness-side spans: one per call into a public function of the
//! program, kept in memory and written out when the run ends.
//!
//! The span tree is workload → rep → setup / timed / verify → phase →
//! probe. Spans are recorded only while the tracer is enabled (the
//! traced repetitions of a traced run); [`Tracer::time`] measures the
//! call either way, because the plain run needs the same durations.

use std::time::{Duration, Instant};

use serde::Value;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was called (`bgp.converge`, `setup`, ...).
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Workload the span belongs to.
    pub workload: String,
    /// Repetition of that workload.
    pub rep: u32,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its children cover. Children of one parent never overlap
/// (the harness is single-threaded), so that part is their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Handle returned by [`Tracer::enter`]; give it back to
/// [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Records spans; see the module docs.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    workload: String,
    rep: u32,
}

impl Tracer {
    /// A disabled tracer with no spans.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            workload: String::new(),
            rep: 0,
        }
    }

    /// Starts or stops recording.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Labels the spans that follow.
    pub fn set_context(&mut self, workload: &str, rep: u32) {
        self.workload = workload.to_string();
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that will hold children.
    pub fn enter(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let at = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: at,
            end_ns: at,
            parent: self.stack.last().copied(),
            workload: self.workload.clone(),
            rep: self.rep,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the span `open` came from.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(id), "spans must close in the order they nest");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` as a leaf span and returns its result and duration.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.enter(name);
        let t0 = Instant::now();
        let out = f();
        let took = t0.elapsed();
        self.exit(open);
        (out, took)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file's content: every span with its self time.
    pub fn to_json(&self) -> Value {
        let own = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("workload".into(), Value::Str(s.workload.clone())),
                    ("rep".into(), Value::U64(u64::from(s.rep))),
                    ("self_ns".into(), Value::U64(self_ns)),
                ])
            })
            .collect();
        Value::Obj(vec![("spans".into(), Value::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            workload: "w".into(),
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100 holds a (10..40) and b (50..90); b holds c (60..70).
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 90, Some(0)),
            span(60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new();
        let (v, took) = tr.time("x", || 7);
        assert_eq!(v, 7);
        assert!(took.as_nanos() < 1_000_000_000);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_context() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.set_context("w", 3);
        let outer = tr.enter("outer");
        tr.time("leaf", || ());
        tr.exit(outer);
        tr.time("sibling", || ());
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!((s[1].workload.as_str(), s[1].rep), ("w", 3));
        let json = tr.to_json();
        let first = match json.get("spans") {
            Some(Value::Arr(a)) => a[0].clone(),
            other => panic!("spans missing: {other:?}"),
        };
        for key in [
            "name", "start_ns", "end_ns", "parent", "workload", "rep", "self_ns",
        ] {
            assert!(first.get(key).is_some(), "span lacks {key}");
        }
    }
}
