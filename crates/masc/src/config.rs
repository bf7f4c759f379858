//! Tunable parameters of the MASC engine, defaulting to the paper's
//! values.

use mcast_addr::Secs;

/// Configuration for a [`crate::node::MascNode`].
#[derive(Debug, Clone)]
pub struct MascConfig {
    /// Collision-detection waiting period before a claim is granted.
    /// Paper §4.1: "we believe 48 hours to be a realistic period".
    pub wait_period: Secs,
    /// Default lifetime requested for claimed ranges.
    pub range_lifetime: Secs,
    /// Renew a granted range this long before it expires.
    pub renew_margin: Secs,
    /// Target occupancy per domain (§4.3.3: "our target occupancy for
    /// a domain's address space is 75% or greater").
    pub target_occupancy: f64,
    /// Maximum number of active prefixes (§4.3.3: "we attempt to keep
    /// the number of prefixes per domain to no more than two").
    pub max_active_prefixes: usize,
    /// Smallest prefix worth claiming, as a mask length (a /24 = 256
    /// addresses, the simulation's block size).
    pub min_claim_len: u8,
    /// Back-off before retrying after a failed claim.
    pub claim_retry_backoff: Secs,
}

impl Default for MascConfig {
    fn default() -> Self {
        MascConfig {
            wait_period: 48 * 3600,
            range_lifetime: 60 * 86_400,
            renew_margin: 3 * 86_400,
            target_occupancy: 0.75,
            max_active_prefixes: 2,
            min_claim_len: 24,
            claim_retry_backoff: 6 * 3600,
        }
    }
}

impl MascConfig {
    /// A configuration with a short waiting period for fast tests.
    pub fn fast_test() -> Self {
        MascConfig {
            wait_period: 10,
            range_lifetime: 10_000,
            renew_margin: 1_000,
            claim_retry_backoff: 20,
            ..Default::default()
        }
    }
}

impl snapshot::Snapshot for MascConfig {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self {
            wait_period,
            range_lifetime,
            renew_margin,
            target_occupancy,
            max_active_prefixes,
            min_claim_len,
            claim_retry_backoff,
        } = self;
        enc.u64(*wait_period);
        enc.u64(*range_lifetime);
        enc.u64(*renew_margin);
        enc.f64(*target_occupancy);
        enc.usize(*max_active_prefixes);
        enc.u8(*min_claim_len);
        enc.u64(*claim_retry_backoff);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        Ok(MascConfig {
            wait_period: dec.u64()?,
            range_lifetime: dec.u64()?,
            renew_margin: dec.u64()?,
            target_occupancy: dec.f64()?,
            max_active_prefixes: dec.usize()?,
            min_claim_len: dec.u8()?,
            claim_retry_backoff: dec.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MascConfig::default();
        assert_eq!(c.wait_period, 48 * 3600);
        assert!((c.target_occupancy - 0.75).abs() < 1e-12);
        assert_eq!(c.max_active_prefixes, 2);
    }
}
