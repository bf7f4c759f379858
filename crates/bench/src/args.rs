//! Shared CLI parsing for the experiment binaries.
//!
//! Every binary accepts `--key value` numeric options plus the uniform
//! trio the parallel harness understands: `--threads N` (worker count,
//! default 1 = serial), `--seed S`, and `--trials T`. Parsing once
//! through [`Args`] replaces the per-binary copies of ad-hoc argv
//! scanning.

/// Parsed command line of an experiment binary.
pub struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn parse() -> Self {
        Args {
            argv: std::env::args().collect(),
        }
    }

    /// A parser over an explicit argv (tests).
    pub fn from_vec(argv: Vec<String>) -> Self {
        Args { argv }
    }

    /// `--name value` as a `u64`: `Ok(None)` when the flag is absent,
    /// `Err` naming flag and value when the value is not a number.
    fn try_u64(&self, name: &str) -> Result<Option<u64>, String> {
        let Some(v) = self.str_opt(name) else {
            return Ok(None);
        };
        v.parse()
            .map(Some)
            .map_err(|_| format!("--{name}: `{v}` is not a non-negative integer"))
    }

    /// `--name value` as a `u64`, or `default` when the flag is absent.
    /// A value that does not parse exits with status 2 — a typo
    /// (`--seed 1O`) must not silently run, and write results, under
    /// the default.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        match self.try_u64(name) {
            Ok(n) => n.unwrap_or(default),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2)
            }
        }
    }

    /// `--name value` as a `usize`, or `default`.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.u64(name, default as u64) as usize
    }

    /// `--name value` as a string, when present with a value.
    pub fn str_opt(&self, name: &str) -> Option<String> {
        let key = format!("--{name}");
        let mut it = self.argv.iter();
        while let Some(a) = it.next() {
            if *a == key {
                return it.next().cloned();
            }
        }
        None
    }

    /// True when `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        let key = format!("--{name}");
        self.argv.contains(&key)
    }

    /// `--threads N`: parallel harness worker count (default 1,
    /// clamped to at least 1).
    pub fn threads(&self) -> usize {
        self.usize("threads", 1).max(1)
    }

    /// `--seed S` with a binary-specific default.
    pub fn seed(&self, default: u64) -> u64 {
        self.u64("seed", default)
    }

    /// `--trials T` with a binary-specific default.
    pub fn trials(&self, default: usize) -> usize {
        self.usize("trials", default).max(1)
    }
}

/// Parses `--key value` style args (numbers) with a default, from the
/// process argv. Prefer [`Args`] in binaries; this remains for one-off
/// use.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    Args::parse().u64(name, default)
}

/// True when `--flag` is present on the process argv.
pub fn arg_flag(name: &str) -> bool {
    Args::parse().flag(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::from_vec(s.iter().map(|x| x.to_string()).collect())
    }

    #[test]
    fn parses_named_u64() {
        let a = args(&["bin", "--seed", "9", "--trials", "4"]);
        assert_eq!(a.seed(1), 9);
        assert_eq!(a.trials(10), 4);
        assert_eq!(a.u64("domains", 3326), 3326);
    }

    #[test]
    fn threads_default_and_clamp() {
        assert_eq!(args(&["bin"]).threads(), 1);
        assert_eq!(args(&["bin", "--threads", "4"]).threads(), 4);
        assert_eq!(args(&["bin", "--threads", "0"]).threads(), 1);
    }

    #[test]
    fn flags_and_malformed_values() {
        let a = args(&["bin", "--fast", "--seed", "1O", "--trials"]);
        assert!(a.flag("fast"));
        assert!(!a.flag("slow"));
        // A malformed value is an error naming flag and value (`u64`
        // exits 2 on it), never a silent fall-back to the default.
        let err = a.try_u64("seed").unwrap_err();
        assert!(err.contains("--seed") && err.contains("`1O`"), "{err}");
        assert_eq!(a.try_u64("slow"), Ok(None));
        assert_eq!(a.trials(3), 3); // key with no value: the default
    }

    #[test]
    fn string_options() {
        let a = args(&["bin", "--resume-from", "cp/dir", "--bare"]);
        assert_eq!(a.str_opt("resume-from").as_deref(), Some("cp/dir"));
        assert_eq!(a.str_opt("missing"), None);
        assert_eq!(a.str_opt("bare"), None); // key with no value
    }
}
