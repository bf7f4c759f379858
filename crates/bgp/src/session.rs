//! Peering-session liveness: a small BGP-style session state machine.
//!
//! The paper's control planes (BGP §2, BGMP §5.2) both run over
//! persistent TCP peerings whose failure must be *detected* — routes
//! from a dead peer are flushed and trees repaired. This module is the
//! keepalive/hold-timer machinery: transport-agnostic, driven by
//! explicit time like every other engine in this workspace.

/// Session states (condensed from RFC 1771's six to the three that
/// matter for behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, snapshot::Snapshot)]
pub enum SessionState {
    /// No connection; retry at the recorded time.
    Idle,
    /// Transport up, awaiting the peer's first keepalive/open.
    Connecting,
    /// Exchanging routes; hold timer armed.
    Established,
}

/// Events the owner feeds the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// Transport connected.
    TransportUp,
    /// Transport failed or closed.
    TransportDown,
    /// Any message arrived from the peer (refreshes the hold timer).
    MessageReceived,
}

/// What the owner must do after feeding an event or a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionAction {
    /// Nothing.
    None,
    /// The session just established: send the full table (PeerUp).
    Up,
    /// The session died: flush the peer's routes (PeerDown).
    Down,
    /// Send a keepalive now.
    SendKeepalive,
}

/// Timer configuration. Paper-era defaults: 30 s keepalive, 90 s hold.
#[derive(Debug, Clone, Copy)]
pub struct SessionTimers {
    /// Keepalive transmit interval (seconds).
    pub keepalive: u64,
    /// Hold time: declare the peer dead after this long without any
    /// message (seconds). Must exceed `keepalive`.
    pub hold: u64,
    /// Reconnect back-off after a failure (seconds).
    pub retry: u64,
}

impl Default for SessionTimers {
    fn default() -> Self {
        SessionTimers {
            keepalive: 30,
            hold: 90,
            retry: 60,
        }
    }
}

/// A peering session with explicit-time liveness.
#[derive(Debug, Clone, snapshot::Snapshot)]
pub struct Session {
    state: SessionState,
    timers: SessionTimers,
    /// Last time we heard anything from the peer.
    last_heard: u64,
    /// Last time we sent a keepalive.
    last_sent: u64,
    /// When Idle: earliest reconnect time.
    retry_at: u64,
}

impl Session {
    /// Creates an idle session (may connect immediately).
    pub fn new(timers: SessionTimers) -> Self {
        assert!(timers.hold > timers.keepalive, "hold must exceed keepalive");
        Session {
            state: SessionState::Idle,
            timers,
            last_heard: 0,
            last_sent: 0,
            retry_at: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Is the session exchanging routes?
    pub fn is_established(&self) -> bool {
        self.state == SessionState::Established
    }

    /// When Idle, the earliest time a reconnect should be attempted.
    pub fn retry_at(&self) -> u64 {
        self.retry_at
    }

    /// Feeds an event at time `now`.
    pub fn on_event(&mut self, now: u64, ev: SessionEvent) -> SessionAction {
        match (self.state, ev) {
            (SessionState::Idle, SessionEvent::TransportUp) => {
                self.state = SessionState::Connecting;
                self.last_heard = now;
                self.last_sent = now;
                // A stale back-off deadline must not survive the
                // transition: `next_deadline`/`retry_at` readers that
                // mix states would otherwise see the old retry time.
                self.retry_at = now;
                SessionAction::SendKeepalive
            }
            (SessionState::Connecting, SessionEvent::MessageReceived) => {
                self.state = SessionState::Established;
                self.last_heard = now;
                SessionAction::Up
            }
            (SessionState::Established, SessionEvent::MessageReceived) => {
                self.last_heard = now;
                SessionAction::None
            }
            (SessionState::Idle, SessionEvent::TransportDown)
            | (SessionState::Idle, SessionEvent::MessageReceived) => SessionAction::None,
            (_, SessionEvent::TransportDown) => {
                let was_established = self.state == SessionState::Established;
                self.state = SessionState::Idle;
                self.retry_at = now + self.timers.retry;
                if was_established {
                    SessionAction::Down
                } else {
                    SessionAction::None
                }
            }
            (_, SessionEvent::TransportUp) => SessionAction::None,
        }
    }

    /// Advances time: fires the hold timer and keepalive transmissions.
    pub fn on_tick(&mut self, now: u64) -> SessionAction {
        match self.state {
            SessionState::Idle => SessionAction::None,
            SessionState::Connecting | SessionState::Established => {
                if now.saturating_sub(self.last_heard) >= self.timers.hold {
                    let was_established = self.state == SessionState::Established;
                    self.state = SessionState::Idle;
                    self.retry_at = now + self.timers.retry;
                    return if was_established {
                        SessionAction::Down
                    } else {
                        SessionAction::None
                    };
                }
                if now.saturating_sub(self.last_sent) >= self.timers.keepalive {
                    self.last_sent = now;
                    return SessionAction::SendKeepalive;
                }
                SessionAction::None
            }
        }
    }

    /// The next time `on_tick` has something to do.
    pub fn next_deadline(&self) -> Option<u64> {
        match self.state {
            SessionState::Idle => Some(self.retry_at),
            _ => Some(
                (self.last_heard + self.timers.hold).min(self.last_sent + self.timers.keepalive),
            ),
        }
    }
}

impl snapshot::Snapshot for SessionTimers {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self {
            keepalive,
            hold,
            retry,
        } = self;
        enc.u64(*keepalive);
        enc.u64(*hold);
        enc.u64(*retry);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        let t = SessionTimers {
            keepalive: dec.u64()?,
            hold: dec.u64()?,
            retry: dec.u64()?,
        };
        if t.hold <= t.keepalive {
            // Same invariant `Session::new` asserts; a corrupt snapshot
            // must fail decode rather than panic later.
            return Err(snapshot::SnapError::Invalid("hold must exceed keepalive"));
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timers() -> SessionTimers {
        SessionTimers {
            keepalive: 10,
            hold: 30,
            retry: 20,
        }
    }

    #[test]
    fn establish_handshake() {
        let mut s = Session::new(timers());
        assert_eq!(s.state(), SessionState::Idle);
        assert_eq!(
            s.on_event(0, SessionEvent::TransportUp),
            SessionAction::SendKeepalive
        );
        assert_eq!(s.state(), SessionState::Connecting);
        assert_eq!(
            s.on_event(1, SessionEvent::MessageReceived),
            SessionAction::Up
        );
        assert!(s.is_established());
        // Further messages just refresh.
        assert_eq!(
            s.on_event(5, SessionEvent::MessageReceived),
            SessionAction::None
        );
    }

    #[test]
    fn hold_timer_declares_peer_dead() {
        let mut s = Session::new(timers());
        s.on_event(0, SessionEvent::TransportUp);
        s.on_event(1, SessionEvent::MessageReceived);
        // Quiet peer: keepalives go out, then the hold timer fires.
        assert_eq!(s.on_tick(11), SessionAction::SendKeepalive);
        assert_eq!(s.on_tick(21), SessionAction::SendKeepalive);
        assert_eq!(s.on_tick(31), SessionAction::Down);
        assert_eq!(s.state(), SessionState::Idle);
        assert_eq!(s.retry_at(), 31 + 20);
    }

    #[test]
    fn messages_keep_session_alive_indefinitely() {
        let mut s = Session::new(timers());
        s.on_event(0, SessionEvent::TransportUp);
        s.on_event(1, SessionEvent::MessageReceived);
        for t in (2..200).step_by(7) {
            s.on_event(t, SessionEvent::MessageReceived);
            assert_ne!(s.on_tick(t + 1), SessionAction::Down);
        }
        assert!(s.is_established());
    }

    #[test]
    fn transport_down_from_established_flushes() {
        let mut s = Session::new(timers());
        s.on_event(0, SessionEvent::TransportUp);
        s.on_event(1, SessionEvent::MessageReceived);
        assert_eq!(
            s.on_event(5, SessionEvent::TransportDown),
            SessionAction::Down
        );
        // Down again is a no-op (no double flush).
        assert_eq!(
            s.on_event(6, SessionEvent::TransportDown),
            SessionAction::None
        );
    }

    #[test]
    fn connecting_that_never_completes_times_out_quietly() {
        let mut s = Session::new(timers());
        s.on_event(0, SessionEvent::TransportUp);
        // Hold expires before the first message: no Down action (we
        // never announced Up), just back to Idle.
        assert_eq!(s.on_tick(10), SessionAction::SendKeepalive);
        assert_eq!(s.on_tick(30), SessionAction::None);
        assert_eq!(s.state(), SessionState::Idle);
    }

    #[test]
    fn deadlines_track_state() {
        let mut s = Session::new(timers());
        assert_eq!(s.next_deadline(), Some(0));
        s.on_event(100, SessionEvent::TransportUp);
        s.on_event(101, SessionEvent::MessageReceived);
        // Next deadline is the keepalive transmit at 110.
        assert_eq!(s.next_deadline(), Some(110));
        s.on_tick(110);
        assert_eq!(s.next_deadline(), Some(120));
    }

    #[test]
    fn transport_up_clears_stale_retry_deadline() {
        let mut s = Session::new(timers());
        s.on_event(0, SessionEvent::TransportUp);
        s.on_event(1, SessionEvent::MessageReceived);
        // Peer dies; back-off recorded.
        assert_eq!(s.on_tick(31), SessionAction::Down);
        assert_eq!(s.retry_at(), 51);
        // Reconnect attempt at the back-off deadline: the stale retry
        // time must not survive into Connecting (pre-fix it did, so
        // mixed-state `next_deadline`/`retry_at` readers saw 51).
        assert_eq!(
            s.on_event(51, SessionEvent::TransportUp),
            SessionAction::SendKeepalive
        );
        assert_eq!(s.state(), SessionState::Connecting);
        assert_eq!(s.retry_at(), 51); // == now, not a future back-off
        assert_eq!(s.next_deadline(), Some(61)); // keepalive, not retry
    }

    #[test]
    fn idle_connecting_hold_expiry_retry_cycles() {
        // Several full failure/recovery cycles: Idle → Connecting →
        // (no answer) hold expiry → Idle/backoff → retry → Established.
        let mut s = Session::new(timers());
        let mut now = 0;
        for cycle in 0..3 {
            assert_eq!(
                s.on_event(now, SessionEvent::TransportUp),
                SessionAction::SendKeepalive,
                "cycle {cycle}"
            );
            assert_eq!(s.retry_at(), now);
            // The peer stays silent: hold expires quietly (we never
            // announced Up from Connecting).
            now += 30;
            assert_eq!(s.on_tick(now), SessionAction::None);
            assert_eq!(s.state(), SessionState::Idle);
            assert_eq!(s.retry_at(), now + 20);
            assert_eq!(s.next_deadline(), Some(now + 20));
            now += 20;
        }
        // Finally the peer answers: full establish.
        s.on_event(now, SessionEvent::TransportUp);
        assert_eq!(
            s.on_event(now + 1, SessionEvent::MessageReceived),
            SessionAction::Up
        );
        assert!(s.is_established());
    }

    #[test]
    #[should_panic(expected = "hold must exceed keepalive")]
    fn rejects_bad_timers() {
        Session::new(SessionTimers {
            keepalive: 30,
            hold: 30,
            retry: 1,
        });
    }
}
