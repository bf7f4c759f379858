//! Shared plumbing for the experiment binaries that regenerate every
//! figure in the paper (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results).

pub mod args;
pub mod checkpoint;
pub mod faults;
pub mod fig4;
pub mod par;
pub mod perf;

pub use args::Args;
pub use checkpoint::{Fig2Checkpoint, Fig2Row, SNAP_KIND_FIG2_RUN};
pub use par::{run_tasks, task_seed};

use std::path::PathBuf;

/// Where experiment outputs (CSV/JSON) land: `results/` under the
/// workspace root, overridable with `MASC_BGMP_RESULTS`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("MASC_BGMP_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // target dir layout: <root>/target/...; binaries run from
            // anywhere, so anchor on the manifest of this crate.
            let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            p.pop(); // crates/
            p.pop(); // workspace root
            p.push("results");
            p
        })
}

/// Prints a banner for an experiment.
pub fn banner(id: &str, what: &str) {
    println!("== {id}: {what}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_absolute() {
        assert!(results_dir().is_absolute());
    }
}
