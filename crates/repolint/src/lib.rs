//! What remains of repolint: its source lexer, item parser and
//! coverage analysis, with their unit tests. Nothing calls this crate.
//!
//! The rules it enforced now live in the compiler's lints
//! (`clippy.toml`, `[workspace.lints]`, `#![deny]` atop each decode
//! module) and in exhaustive destructuring of `Self` in every manual
//! snapshot impl (DESIGN.md §9). The rule engine, the `lint:allow`
//! machinery, the binary and the fixtures are gone; this library goes
//! with the next change that can retire its tests (ROADMAP item 8).

pub mod coverage;
pub mod findings;
pub mod lexer;
pub mod parser;

pub use findings::Finding;
