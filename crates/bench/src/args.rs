//! Shared CLI parsing for the experiment binaries.
//!
//! Every binary accepts `--key value` numeric options plus the uniform
//! trio the parallel harness understands: `--threads N` (worker count,
//! default 1 = serial), `--seed S`, and `--trials T`. Parsing once
//! through [`Args`] replaces the per-binary copies of ad-hoc argv
//! scanning. A binary reads every flag up front and then calls
//! [`Args::finish`], which rejects any `--flag` it did not read.

use std::cell::RefCell;

/// Parsed command line of an experiment binary.
pub struct Args {
    argv: Vec<String>,
    /// Every `--name` an accessor was asked for: the flags the binary
    /// knows, which [`Args::finish`] checks argv against.
    asked: RefCell<Vec<String>>,
}

/// Reports a command-line error and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

impl Args {
    /// Captures the process arguments.
    pub fn parse() -> Self {
        Args::from_vec(std::env::args().collect())
    }

    /// A parser over an explicit argv (tests).
    pub fn from_vec(argv: Vec<String>) -> Self {
        Args {
            argv,
            asked: RefCell::default(),
        }
    }

    /// `--name`, recorded as a flag this binary knows.
    fn key(&self, name: &str) -> String {
        let key = format!("--{name}");
        self.asked.borrow_mut().push(key.clone());
        key
    }

    /// The `--tokens` on the command line that no accessor asked about.
    fn unknown(&self) -> Vec<&str> {
        let asked = self.asked.borrow();
        self.argv
            .iter()
            .skip(1)
            .filter(|a| a.starts_with("--") && !asked.contains(a))
            .map(String::as_str)
            .collect()
    }

    /// Call once every flag has been read (it consumes the parser)
    /// and before any work: exits with status 2 naming each `--token`
    /// in argv that the binary never asked about — a typo (`--quik`)
    /// must not silently run the defaults.
    pub fn finish(self) {
        let unknown = self.unknown();
        if !unknown.is_empty() {
            usage_error(&format!(
                "unknown flag {} (known: {})",
                unknown.join(" "),
                self.asked.borrow().join(" ")
            ));
        }
    }

    /// `--name value` as a string: `Ok(None)` when the flag is absent
    /// or last on the line, `Err` when the token after it is itself a
    /// flag (`--out --quick` must not write into a directory called
    /// `--quick`).
    fn try_str(&self, name: &str) -> Result<Option<String>, String> {
        let key = self.key(name);
        let mut after = self.argv.iter().skip_while(|a| **a != key).skip(1);
        match after.next() {
            Some(v) if v.starts_with("--") => {
                Err(format!("{key}: expected a value, found the flag `{v}`"))
            }
            v => Ok(v.cloned()),
        }
    }

    /// `--name value` as a `u64`: `Ok(None)` when the flag is absent,
    /// `Err` naming flag and value when the value is not a number.
    fn try_u64(&self, name: &str) -> Result<Option<u64>, String> {
        let Some(v) = self.try_str(name)? else {
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
            Err(e) => usage_error(&e),
        }
    }

    /// `--name value` as a `usize`, or `default`.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.u64(name, default as u64) as usize
    }

    /// `--name value` as a string, when present with a value. Exits
    /// with status 2 when the value is itself a `--flag`.
    pub fn str_opt(&self, name: &str) -> Option<String> {
        self.try_str(name).unwrap_or_else(|e| usage_error(&e))
    }

    /// True when `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.argv.contains(&self.key(name))
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

    #[test]
    fn a_flag_is_never_a_value() {
        let a = args(&["bin", "--out", "--quick", "--seed", "--areas", "x"]);
        let err = a.try_str("out").unwrap_err();
        assert!(err.contains("--out") && err.contains("`--quick`"), "{err}");
        assert!(a.try_u64("seed").is_err());
        assert_eq!(a.try_str("areas"), Ok(Some("x".to_string())));
    }

    #[test]
    fn finish_names_flags_nobody_asked_about() {
        let a = args(&["bin", "--quik", "--seed", "3", "--shards", "4", "--threads"]);
        assert_eq!(a.seed(1), 3);
        assert_eq!(a.threads(), 1);
        assert!(!a.flag("quick"));
        // Values and argv[0] are not flags; absent known flags are fine.
        assert_eq!(a.unknown(), ["--quik", "--shards"]);
        assert_eq!(args(&["--bin", "--seed", "3"]).unknown(), ["--seed"]);
        assert!(args(&["bin"]).unknown().is_empty());
    }
}
