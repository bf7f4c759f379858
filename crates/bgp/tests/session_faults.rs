//! Session liveness under injected keepalive loss.
//!
//! Two simnet nodes each drive a [`bgp::Session`] over a link whose
//! fault model drops keepalives. The sessions must establish when the
//! link is clean, declare the peer dead (hold expiry → `Down`) under
//! total loss, keep retrying through Idle → Connecting → hold-expiry
//! cycles, and re-establish once the loss clears — deterministically
//! for a fixed seed.

use bgp::session::{Session, SessionAction, SessionEvent, SessionTimers};
use simnet::{Ctx, Engine, FaultModel, Node, NodeId, SimDuration, SimTime};

#[derive(Debug, Clone, PartialEq)]
struct Keepalive;

const TICK: u64 = 1; // KEY for the 1 s session tick

fn timers() -> SessionTimers {
    SessionTimers {
        keepalive: 5,
        hold: 15,
        retry: 10,
    }
}

/// One endpoint: a session plus a log of its lifecycle actions.
struct Endpoint {
    peer: NodeId,
    sess: Session,
    /// (time-secs, action) for every Up/Down transition.
    log: Vec<(u64, &'static str)>,
}

impl Endpoint {
    fn new(peer: NodeId) -> Self {
        Endpoint {
            peer,
            sess: Session::new(timers()),
            log: Vec::new(),
        }
    }

    fn apply(&mut self, now: u64, action: SessionAction, ctx: &mut Ctx<'_, Keepalive>) {
        match action {
            SessionAction::SendKeepalive => ctx.send(self.peer, Keepalive),
            SessionAction::Up => self.log.push((now, "up")),
            SessionAction::Down => self.log.push((now, "down")),
            SessionAction::None => {}
        }
    }
}

impl Node<Keepalive> for Endpoint {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Keepalive>) {
        ctx.set_timer(SimDuration::from_secs(1), TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Keepalive>, _from: NodeId, _msg: Keepalive) {
        let now = ctx.now().as_secs();
        let a = self.sess.on_event(now, SessionEvent::MessageReceived);
        self.apply(now, a, ctx);
        // Answer so the opener's Connecting half can establish too.
        if self.sess.is_established() {
            ctx.send(self.peer, Keepalive);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Keepalive>, key: u64) {
        if key != TICK {
            return;
        }
        let now = ctx.now().as_secs();
        if self.sess.state() == bgp::session::SessionState::Idle && now >= self.sess.retry_at() {
            let a = self.sess.on_event(now, SessionEvent::TransportUp);
            self.apply(now, a, ctx);
        } else {
            let a = self.sess.on_tick(now);
            self.apply(now, a, ctx);
        }
        ctx.set_timer(SimDuration::from_secs(1), TICK);
    }
}

struct Outcome {
    log_a: Vec<(u64, &'static str)>,
    log_b: Vec<(u64, &'static str)>,
    established: bool,
    lost: u64,
}

fn run(seed: u64) -> Outcome {
    let mut eng: Engine<Keepalive> = Engine::new(seed, SimDuration::from_millis(10));
    let a = eng.add_node(Box::new(Endpoint::new(NodeId(1))));
    let b = eng.add_node(Box::new(Endpoint::new(NodeId(0))));

    // Phase 1 — clean link: both sides establish.
    eng.run_until(SimTime(20_000));
    assert!(eng.node_as::<Endpoint>(a).unwrap().sess.is_established());
    assert!(eng.node_as::<Endpoint>(b).unwrap().sess.is_established());

    // Phase 2 — total keepalive loss: hold expires on both sides, and
    // the retry cycle spins without ever re-establishing.
    eng.faults_mut()
        .set_link_model(a, b, FaultModel::lossy(1.0));
    eng.run_until(SimTime(80_000));
    assert!(!eng.node_as::<Endpoint>(a).unwrap().sess.is_established());
    assert!(!eng.node_as::<Endpoint>(b).unwrap().sess.is_established());

    // Phase 3 — loss clears: the next retry re-establishes.
    eng.faults_mut().clear_models();
    eng.run_until(SimTime(120_000));

    let lost = eng.faults().stats().lost;
    let ea = eng.node_as::<Endpoint>(a).unwrap();
    let eb = eng.node_as::<Endpoint>(b).unwrap();
    Outcome {
        log_a: ea.log.clone(),
        log_b: eb.log.clone(),
        established: ea.sess.is_established() && eb.sess.is_established(),
        lost,
    }
}

#[test]
fn sessions_survive_loss_and_reestablish() {
    let out = run(42);
    assert!(out.established, "sessions must re-establish after loss");
    assert!(out.lost > 0, "the loss model must actually have fired");
    for log in [&out.log_a, &out.log_b] {
        let ups = log.iter().filter(|(_, w)| *w == "up").count();
        let downs = log.iter().filter(|(_, w)| *w == "down").count();
        assert!(ups >= 2, "establish, die, re-establish: {log:?}");
        assert_eq!(downs, 1, "exactly one hold-expiry death: {log:?}");
        // The death happens within one hold time of the loss onset.
        let (t_down, _) = log.iter().find(|(_, w)| *w == "down").unwrap();
        assert!(
            (20..=20 + timers().hold + 1).contains(t_down),
            "hold expiry at {t_down}s"
        );
    }
}

#[test]
fn chaos_trace_is_seed_deterministic() {
    let x = run(7);
    let y = run(7);
    assert_eq!(x.log_a, y.log_a);
    assert_eq!(x.log_b, y.log_b);
    assert_eq!(x.lost, y.lost);
}
