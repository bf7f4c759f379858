//! The fault + traffic schedule every forwarding plane is evaluated
//! under: link down-windows, node down-windows and timed sends, in
//! whole seconds and [`DomainId`] endpoints. It lives here so that the
//! event-driven BGMP run (`core::chaos`) and the analytic BIER /
//! map-and-encap replay (`bier::sim`) read one type — and one
//! definition of "down at second `t`" — without either crate
//! depending on the other.

use crate::graph::DomainId;

/// Link `a–b` is silently down during `[at, at + dur)` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkWindow {
    /// One endpoint.
    pub a: DomainId,
    /// Other endpoint.
    pub b: DomainId,
    /// Start second.
    pub at: u64,
    /// Duration in seconds.
    pub dur: u64,
}

/// Domain `d` is crashed (fail-stop) during `[at, at + dur)` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeWindow {
    /// The crashed domain.
    pub d: DomainId,
    /// Start second.
    pub at: u64,
    /// Outage length in seconds.
    pub dur: u64,
}

impl LinkWindow {
    /// Whether second `t` falls inside the window.
    pub fn covers(&self, t: u64) -> bool {
        (self.at..self.at + self.dur).contains(&t)
    }
}

impl NodeWindow {
    /// Whether second `t` falls inside the window.
    pub fn covers(&self, t: u64) -> bool {
        (self.at..self.at + self.dur).contains(&t)
    }
}

/// One run's faults and traffic. Windows may overlap; an element is
/// down for the *union* of its windows (every consumer asks the
/// windows' `covers`, never keeps its own up/down flag per window).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSchedule {
    /// Link flap windows, in draw order.
    pub flaps: Vec<LinkWindow>,
    /// Crash windows, in draw order.
    pub crashes: Vec<NodeWindow>,
    /// Timed sends `(second, sending domain)`, in time order; each goes
    /// to the whole group.
    pub sends: Vec<(u64, DomainId)>,
    /// Chaos-phase length in seconds.
    pub horizon: u64,
}

impl ChaosSchedule {
    /// Whether link `a–b` (either orientation) is down at second `t`.
    pub fn link_down(&self, a: DomainId, b: DomainId, t: u64) -> bool {
        self.flaps
            .iter()
            .any(|f| ((f.a, f.b) == (a, b) || (f.a, f.b) == (b, a)) && f.covers(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_windows_mean_down_for_the_union() {
        let (a, b, c) = (DomainId(0), DomainId(1), DomainId(2));
        let s = ChaosSchedule {
            flaps: vec![
                LinkWindow {
                    a,
                    b,
                    at: 10,
                    dur: 10,
                },
                LinkWindow {
                    a: b,
                    b: a,
                    at: 15,
                    dur: 10,
                },
            ],
            crashes: vec![NodeWindow {
                d: c,
                at: 3,
                dur: 2,
            }],
            sends: vec![],
            horizon: 60,
        };
        for t in 0..40 {
            assert_eq!(s.link_down(a, b, t), (10..25).contains(&t), "t={t}");
            assert_eq!(s.link_down(b, a, t), s.link_down(a, b, t));
            assert!(!s.link_down(b, c, t));
            assert_eq!(s.crashes[0].covers(t), (3..5).contains(&t), "t={t}");
        }
    }
}
