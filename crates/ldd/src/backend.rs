//! The backend knob: explicit-state search vs symbolic LDD reachability.

use std::fmt;
use std::str::FromStr;

/// Which reachability backend drives an exploration or analyzer pass.
///
/// Both backends produce the same verdicts and the same diagnostics (the
/// `ldd_oracle` proptests and the CI backend-`cmp` steps pin this); the
/// explicit breadth-first search is the reference and the default, the
/// symbolic engine represents state sets as list decision diagrams and
/// reaches universe sizes the explicit engine cannot. Verification entry
/// points read it: `ExploreOptions`, the analyzer's `ServicePassOptions`
/// and the `--backend` flags of `svckit-analyze` and `floorctl --verify`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Explicit-state breadth-first search over interned product keys
    /// (the reference and the default).
    #[default]
    Explicit,
    /// Symbolic breadth-first reachability over hash-consed list decision
    /// diagrams, with witnesses re-extracted as concrete minimal traces.
    Symbolic,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Explicit => write!(f, "explicit"),
            Backend::Symbolic => write!(f, "symbolic"),
        }
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "explicit" => Ok(Backend::Explicit),
            "symbolic" => Ok(Backend::Symbolic),
            other => Err(format!(
                "unknown backend {other:?} (expected explicit|symbolic)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_display_and_fromstr() {
        for backend in [Backend::Explicit, Backend::Symbolic] {
            assert_eq!(backend.to_string().parse::<Backend>().unwrap(), backend);
        }
        assert!("bdd".parse::<Backend>().is_err());
    }

    #[test]
    fn the_default_is_the_explicit_engine() {
        assert_eq!(Backend::default(), Backend::Explicit);
    }
}
