//! [`Snapshot`] impls for simnet's plain-data types.
//!
//! Types with private fields (the queue, the link table, the fault
//! plane, the engine itself) implement capture in their own modules,
//! where field access is legal; this module covers the public-field
//! value types they compose.

use snapshot::{Dec, Enc, SnapError, Snapshot};

use crate::engine::EngineStats;
use crate::fault::{FaultModel, FaultStats};
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

impl Snapshot for SimTime {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.0);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(SimTime(dec.u64()?))
    }
}

impl Snapshot for SimDuration {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(self.0);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(SimDuration(dec.u64()?))
    }
}

impl Snapshot for NodeId {
    fn encode(&self, enc: &mut Enc) {
        enc.usize(self.0);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(NodeId(dec.usize()?))
    }
}

impl Snapshot for FaultModel {
    fn encode(&self, enc: &mut Enc) {
        let Self {
            loss,
            dup,
            jitter_ms,
        } = self;
        enc.f64(*loss);
        enc.f64(*dup);
        enc.u64(*jitter_ms);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(FaultModel {
            loss: dec.f64()?,
            dup: dec.f64()?,
            jitter_ms: dec.u64()?,
        })
    }
}

impl Snapshot for FaultStats {
    fn encode(&self, enc: &mut Enc) {
        let Self {
            lost,
            duplicated,
            jittered,
            dropped_at_down_node,
            timers_suppressed,
            crashes,
            restarts,
        } = self;
        enc.u64(*lost);
        enc.u64(*duplicated);
        enc.u64(*jittered);
        enc.u64(*dropped_at_down_node);
        enc.u64(*timers_suppressed);
        enc.u64(*crashes);
        enc.u64(*restarts);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(FaultStats {
            lost: dec.u64()?,
            duplicated: dec.u64()?,
            jittered: dec.u64()?,
            dropped_at_down_node: dec.u64()?,
            timers_suppressed: dec.u64()?,
            crashes: dec.u64()?,
            restarts: dec.u64()?,
        })
    }
}

impl Snapshot for EngineStats {
    fn encode(&self, enc: &mut Enc) {
        let Self {
            delivered,
            dropped,
            timers,
            events,
        } = self;
        enc.u64(*delivered);
        enc.u64(*dropped);
        enc.u64(*timers);
        enc.u64(*events);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(EngineStats {
            delivered: dec.u64()?,
            dropped: dec.u64()?,
            timers: dec.u64()?,
            events: dec.u64()?,
        })
    }
}
