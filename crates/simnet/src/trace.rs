//! Bounded event tracing for simulation debugging.
//!
//! A [`Trace`] is a fixed-capacity ring of human-readable event lines.
//! Actors and harnesses push lines as they process events; when a test
//! fails, dumping the trace shows the last N things that happened
//! without paying for unbounded logging on the happy path.

use std::collections::VecDeque;

use crate::time::SimTime;

/// A bounded ring buffer of timestamped trace lines.
#[derive(Debug, Clone)]
pub struct Trace {
    cap: usize,
    ring: VecDeque<(SimTime, String)>,
    /// Total lines ever pushed (including evicted ones).
    pushed: u64,
}

impl Trace {
    /// Creates a trace retaining at most `cap` lines.
    pub fn new(cap: usize) -> Self {
        Trace {
            cap: cap.max(1),
            ring: VecDeque::with_capacity(cap.max(1)),
            pushed: 0,
        }
    }

    /// Appends a line, evicting the oldest when full.
    pub fn push(&mut self, at: SimTime, line: impl Into<String>) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back((at, line.into()));
        self.pushed += 1;
    }

    /// Lines currently retained, oldest first.
    pub fn lines(&self) -> impl Iterator<Item = (SimTime, &str)> {
        self.ring.iter().map(|(t, s)| (*t, s.as_str()))
    }

    /// Total lines ever pushed.
    pub fn total(&self) -> u64 {
        self.pushed
    }

    /// Lines currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records the checkpoint/resume boundary, so a dumped window
    /// makes clear which lines predate the restore.
    pub fn mark_resume(&mut self, at: SimTime) {
        self.push(at, format!("resume @ {}", at.0));
    }

    /// Renders the retained lines for a failure report.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        if self.pushed as usize > self.ring.len() {
            out.push_str(&format!(
                "... {} earlier lines evicted ...\n",
                self.pushed as usize - self.ring.len()
            ));
        }
        for (t, line) in self.lines() {
            out.push_str(&format!("[{t}] {line}\n"));
        }
        out
    }
}

impl snapshot::Snapshot for Trace {
    /// Captures the full ring *and* the lifetime counter: a restored
    /// trace reports the same [`Trace::total`] as the uninterrupted
    /// run instead of silently resetting to the window length.
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self { cap, ring, pushed } = self;
        enc.usize(*cap);
        enc.u64(*pushed);
        enc.seq(ring.len());
        for (t, line) in ring {
            t.encode(enc);
            enc.str(line);
        }
    }

    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        let cap = dec.usize()?.max(1);
        let pushed = dec.u64()?;
        let n = dec.seq()?;
        if n > cap {
            return Err(snapshot::SnapError::Invalid("trace ring exceeds cap"));
        }
        let mut ring = VecDeque::with_capacity(dec.reserve::<(SimTime, String)>(n));
        for _ in 0..n {
            let t = SimTime::decode(dec)?;
            let line = dec.str()?;
            ring.push_back((t, line));
        }
        Ok(Trace { cap, ring, pushed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::new(3);
        for i in 0..5 {
            t.push(SimTime(i), format!("e{i}"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.total(), 5);
        let lines: Vec<String> = t.lines().map(|(_, s)| s.to_string()).collect();
        assert_eq!(lines, vec!["e2", "e3", "e4"]);
        let dump = t.dump();
        assert!(dump.contains("2 earlier lines evicted"));
        assert!(dump.contains("e4"));
    }

    #[test]
    fn zero_cap_clamps_to_one() {
        let mut t = Trace::new(0);
        t.push(SimTime(1), "a");
        t.push(SimTime(2), "b");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
