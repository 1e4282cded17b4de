//! The engine knob: interpreted reference vs compiled DFA tables.
//!
//! The knob exists where the choice is measured or cross-checked: the
//! explorer (`ServiceExplorer::with_engine`), the admission gate
//! (`AdmissionGate::with_compiled`) and the analyzer's `--engine` flag.
//! Runs have no engine knob: the gate is passive, so middleware
//! deployments install the default engine.

use std::fmt;
use std::str::FromStr;

/// Which constraint-evaluation engine drives an explorer, admission gate
/// or analyzer pass.
///
/// Both engines are observationally identical (verdicts, first-violation
/// choice, rendered messages); the interpreter is kept as the reference
/// oracle, the DFA tables are the fast path and the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Per-constraint stepping through [`svckit_model::step_constraint`]
    /// (memoized by the explorer), kept as the reference oracle.
    Interp,
    /// Compiled, content-interned DFA transition tables (the default).
    #[default]
    Dfa,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Engine::Interp => write!(f, "interp"),
            Engine::Dfa => write!(f, "dfa"),
        }
    }
}

impl FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interp" => Ok(Engine::Interp),
            "dfa" => Ok(Engine::Dfa),
            other => Err(format!("unknown engine {other:?} (expected dfa|interp)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_display_and_fromstr() {
        for engine in [Engine::Interp, Engine::Dfa] {
            assert_eq!(engine.to_string().parse::<Engine>().unwrap(), engine);
        }
        assert!("wheel".parse::<Engine>().is_err());
    }

    #[test]
    fn the_default_is_the_compiled_engine() {
        assert_eq!(Engine::default(), Engine::Dfa);
    }
}
