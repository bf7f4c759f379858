//! On-disk checkpoints for the long-horizon fig2 run.
//!
//! One checkpoint file bundles everything a later invocation needs to
//! continue a replication exactly where it stopped: the run
//! parameters (validated against the resuming command line), the rows
//! sampled so far, the day cursor, and the full [`masc::HierarchySim`]
//! snapshot. Resuming at day T and finishing produces the same CSV,
//! byte for byte, as one uninterrupted run — at any `--threads`.

use std::path::{Path, PathBuf};

use snapshot::{Dec, Enc, SnapError, Snapshot};

/// Snapshot kind tag of a fig2 run checkpoint (engine = 1,
/// hierarchy = 2, internet = 3).
pub const SNAP_KIND_FIG2_RUN: u16 = 4;

/// One sampled day of one replication, all-f64 so replications
/// average without casts.
#[derive(Debug, Clone, Copy, PartialEq, Snapshot)]
pub struct Fig2Row {
    /// Simulated day of the sample.
    pub day: f64,
    /// Leased / claimed address ratio.
    pub util: f64,
    /// Addresses currently leased to allocation servers.
    pub leased: f64,
    /// Addresses claimed by top-level domains.
    pub claimed: f64,
    /// Mean G-RIB size across top-level domains.
    pub grib_avg: f64,
    /// Largest G-RIB among top-level domains.
    pub grib_max: f64,
    /// Globally advertised prefixes.
    pub global: f64,
    /// Outstanding unsatisfied block requests.
    pub pending: f64,
}

/// A mid-run fig2 replication, ready to be written to disk.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Checkpoint {
    /// Day the simulation has run to (the next sample continues from
    /// here).
    pub day: u64,
    /// Sampling stride the rows were taken on.
    pub sample_every: u64,
    /// Top-level domain count.
    pub tops: usize,
    /// Children per top-level domain.
    pub children: usize,
    /// Seed of this replication (the *task* seed, not the CLI seed).
    pub seed: u64,
    /// Rows sampled so far, on the fixed day grid.
    pub rows: Vec<Fig2Row>,
    /// The [`masc::HierarchySim::checkpoint`] blob.
    pub sim: Vec<u8>,
}

impl Fig2Checkpoint {
    /// Serialises to the canonical snapshot wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::with_header(SNAP_KIND_FIG2_RUN);
        enc.u64(self.day);
        enc.u64(self.sample_every);
        enc.usize(self.tops);
        enc.usize(self.children);
        enc.u64(self.seed);
        self.rows.encode(&mut enc);
        enc.bytes(&self.sim);
        enc.finish()
    }

    /// Decodes a checkpoint, rejecting foreign or damaged bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut dec = Dec::new(bytes);
        dec.header(SNAP_KIND_FIG2_RUN)?;
        let ck = Fig2Checkpoint {
            day: dec.u64()?,
            sample_every: dec.u64()?,
            tops: dec.usize()?,
            children: dec.usize()?,
            seed: dec.u64()?,
            rows: Snapshot::decode(&mut dec)?,
            sim: dec.bytes()?.to_vec(),
        };
        dec.finish()?;
        Ok(ck)
    }

    /// File a replication's checkpoint lives in, one per task seed,
    /// overwritten as the run advances (only the newest matters for
    /// resumption).
    pub fn path_for(dir: &Path, seed: u64) -> PathBuf {
        dir.join(format!("fig2_seed{seed}.snap"))
    }

    /// Writes the checkpoint to its well-known path under `dir`.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = Self::path_for(dir, self.seed);
        std::fs::write(&path, self.to_bytes())?;
        Ok(path)
    }

    /// Loads the checkpoint for `seed` from `dir`. I/O and decode
    /// problems both surface as errors; nothing panics on bad bytes.
    pub fn load(dir: &Path, seed: u64) -> Result<Self, String> {
        let path = Self::path_for(dir, seed);
        let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_bytes(&bytes).map_err(|e| format!("decode {}: {e:?}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fig2Checkpoint {
        Fig2Checkpoint {
            day: 40,
            sample_every: 5,
            tops: 4,
            children: 4,
            seed: 9,
            rows: vec![Fig2Row {
                day: 5.0,
                util: 0.5,
                leased: 256.0,
                claimed: 512.0,
                grib_avg: 2.0,
                grib_max: 3.0,
                global: 4.0,
                pending: 0.0,
            }],
            sim: vec![1, 2, 3],
        }
    }

    #[test]
    fn roundtrips() {
        let ck = sample();
        assert_eq!(Fig2Checkpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
    }

    /// The sample's bytes, pinned by length and FNV-1a; computed before
    /// `Fig2Row`'s codec was derived, then recomputed at commit 5d8e5b9,
    /// where `FORMAT_VERSION` went from 3 to 4, by rewriting the header's
    /// version, and the same way when it went from 4 to 5. They must not
    /// move.
    #[test]
    fn sample_bytes_are_pinned() {
        let bytes = sample().to_bytes();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (131, 14_872_249_467_544_579_783));
    }

    #[test]
    fn truncations_error() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Fig2Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
    }

    #[test]
    fn wrong_kind_rejected() {
        let mut enc = Enc::with_header(SNAP_KIND_FIG2_RUN - 1);
        enc.u64(0);
        assert!(matches!(
            Fig2Checkpoint::from_bytes(&enc.finish()),
            Err(SnapError::BadKind { .. })
        ));
    }
}
