//! Behavioural constraints between service primitives.
//!
//! Section 4.2 of the paper identifies two categories of relations between
//! service primitives:
//!
//! * **Local constraints** relate occurrences at the *same* service access
//!   point — "the execution of `granted` eventually follows the execution of
//!   `request` (for a given resource identification)".
//! * **Remote constraints** relate occurrences across access points — "a
//!   resource is only granted to one subscriber at a time".
//!
//! [`Constraint`] encodes these as checkable predicates over [`crate::Trace`]s.
//! The "(for a given resource identification)" part is captured by a
//! *correlation key*: a list of argument positions whose values must match
//! for two occurrences to be related.

use std::fmt;

/// Whether a constraint relates occurrences at one access point or across
/// all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintScope {
    /// Occurrences are related only when they happen at the same SAP
    /// (a *local* constraint in the paper's terms).
    SameSap,
    /// Occurrences are related across all SAPs (a *remote* constraint).
    Global,
}

impl fmt::Display for ConstraintScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintScope::SameSap => write!(f, "local"),
            ConstraintScope::Global => write!(f, "remote"),
        }
    }
}

/// The relation a constraint imposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintKind {
    /// Liveness: every occurrence of `trigger` is eventually followed by a
    /// matching occurrence of `response` (1–1 matching in order).
    EventuallyFollows {
        /// The primitive that creates the obligation.
        trigger: String,
        /// The primitive that discharges it.
        response: String,
        /// Matching scope.
        scope: ConstraintScope,
    },
    /// Safety, non-consuming: `then` may occur only once at least one
    /// `enabler` has occurred (in the same scope instance and key). Unlike
    /// [`ConstraintKind::Precedes`], the enabling occurrence is not used up:
    /// one `join` enables any number of `say`s.
    After {
        /// The enabling primitive.
        enabler: String,
        /// The enabled primitive.
        then: String,
        /// Matching scope.
        scope: ConstraintScope,
    },
    /// Safety: at every prefix of the trace, occurrences of `later` never
    /// outnumber occurrences of `earlier` (so each `later` is "paid for" by a
    /// preceding `earlier`).
    Precedes {
        /// The enabling primitive.
        earlier: String,
        /// The enabled primitive.
        later: String,
        /// Matching scope.
        scope: ConstraintScope,
    },
    /// Safety, inherently remote: between an `acquire` at some SAP and the
    /// matching `release` at that same SAP, no other SAP may `acquire` for the
    /// same key. This is the paper's "a resource is only granted to one
    /// subscriber at a time".
    MutualExclusion {
        /// The primitive that takes hold of the keyed entity.
        acquire: String,
        /// The primitive that releases it.
        release: String,
    },
    /// Safety: for each scope instance and key, at most `limit` obligations
    /// created by `trigger` may be outstanding (not yet discharged by
    /// `response`) at any point. `limit = 1` forbids, e.g., re-requesting a
    /// resource before the previous request is answered.
    AtMostOutstanding {
        /// The obligation-creating primitive.
        trigger: String,
        /// The obligation-discharging primitive.
        response: String,
        /// Maximum simultaneous obligations.
        limit: usize,
        /// Matching scope.
        scope: ConstraintScope,
    },
}

impl ConstraintKind {
    /// The primitive names this constraint refers to.
    pub fn referenced_primitives(&self) -> [&str; 2] {
        match self {
            ConstraintKind::EventuallyFollows {
                trigger, response, ..
            } => [trigger, response],
            ConstraintKind::After { enabler, then, .. } => [enabler, then],
            ConstraintKind::Precedes { earlier, later, .. } => [earlier, later],
            ConstraintKind::MutualExclusion { acquire, release } => [acquire, release],
            ConstraintKind::AtMostOutstanding {
                trigger, response, ..
            } => [trigger, response],
        }
    }

    /// Whether this constraint is local or remote in the paper's sense.
    pub fn scope(&self) -> ConstraintScope {
        match self {
            ConstraintKind::EventuallyFollows { scope, .. }
            | ConstraintKind::After { scope, .. }
            | ConstraintKind::Precedes { scope, .. }
            | ConstraintKind::AtMostOutstanding { scope, .. } => *scope,
            ConstraintKind::MutualExclusion { .. } => ConstraintScope::Global,
        }
    }
}

impl fmt::Display for ConstraintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintKind::EventuallyFollows {
                trigger,
                response,
                scope,
            } => write!(f, "{scope}: `{response}` eventually follows `{trigger}`"),
            ConstraintKind::After {
                enabler,
                then,
                scope,
            } => write!(f, "{scope}: `{then}` only after `{enabler}`"),
            ConstraintKind::Precedes {
                earlier,
                later,
                scope,
            } => write!(f, "{scope}: `{earlier}` precedes `{later}`"),
            ConstraintKind::MutualExclusion { acquire, release } => write!(
                f,
                "remote: at most one holder between `{acquire}` and `{release}`"
            ),
            ConstraintKind::AtMostOutstanding {
                trigger,
                response,
                limit,
                scope,
            } => write!(
                f,
                "{scope}: at most {limit} outstanding `{trigger}` before `{response}`"
            ),
        }
    }
}

/// A behavioural constraint with its correlation key.
///
/// The key is a list of argument positions (applied to *both* related
/// primitives, which therefore must carry the correlating value at the same
/// positions — as `resid` does throughout the floor-control service). An
/// empty key correlates all occurrences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    kind: ConstraintKind,
    key: Vec<usize>,
}

impl Constraint {
    /// Creates a constraint from a kind, with an empty correlation key.
    pub fn new(kind: ConstraintKind) -> Self {
        Constraint {
            kind,
            key: Vec::new(),
        }
    }

    /// `response` eventually follows `trigger` (liveness).
    pub fn eventually_follows(
        trigger: impl Into<String>,
        response: impl Into<String>,
        scope: ConstraintScope,
    ) -> Self {
        Constraint::new(ConstraintKind::EventuallyFollows {
            trigger: trigger.into(),
            response: response.into(),
            scope,
        })
    }

    /// `then` only after at least one `enabler` (non-consuming safety).
    pub fn after(
        enabler: impl Into<String>,
        then: impl Into<String>,
        scope: ConstraintScope,
    ) -> Self {
        Constraint::new(ConstraintKind::After {
            enabler: enabler.into(),
            then: then.into(),
            scope,
        })
    }

    /// `earlier` precedes `later` (safety).
    pub fn precedes(
        earlier: impl Into<String>,
        later: impl Into<String>,
        scope: ConstraintScope,
    ) -> Self {
        Constraint::new(ConstraintKind::Precedes {
            earlier: earlier.into(),
            later: later.into(),
            scope,
        })
    }

    /// At most one SAP holds between `acquire` and `release` (remote safety).
    pub fn mutual_exclusion(acquire: impl Into<String>, release: impl Into<String>) -> Self {
        Constraint::new(ConstraintKind::MutualExclusion {
            acquire: acquire.into(),
            release: release.into(),
        })
    }

    /// At most `limit` outstanding `trigger` obligations before `response`.
    pub fn at_most_outstanding(
        trigger: impl Into<String>,
        response: impl Into<String>,
        limit: usize,
        scope: ConstraintScope,
    ) -> Self {
        Constraint::new(ConstraintKind::AtMostOutstanding {
            trigger: trigger.into(),
            response: response.into(),
            limit,
            scope,
        })
    }

    /// Sets the correlation key to the given argument positions
    /// (builder-style).
    #[must_use]
    pub fn keyed(mut self, key: &[usize]) -> Self {
        self.key = key.to_vec();
        self
    }

    /// The relation imposed.
    pub fn kind(&self) -> &ConstraintKind {
        &self.kind
    }

    /// The correlation-key argument positions.
    pub fn key(&self) -> &[usize] {
        &self.key
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if !self.key.is_empty() {
            write!(f, " keyed on args {:?}", self.key)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_primitives_are_exposed() {
        let c = Constraint::eventually_follows("request", "granted", ConstraintScope::SameSap);
        assert_eq!(c.kind().referenced_primitives(), ["request", "granted"]);
        let m = Constraint::mutual_exclusion("granted", "free");
        assert_eq!(m.kind().referenced_primitives(), ["granted", "free"]);
    }

    #[test]
    fn mutual_exclusion_is_always_remote() {
        let m = Constraint::mutual_exclusion("granted", "free");
        assert_eq!(m.kind().scope(), ConstraintScope::Global);
    }

    #[test]
    fn display_mentions_category_and_key() {
        let c = Constraint::precedes("granted", "free", ConstraintScope::SameSap).keyed(&[0]);
        let s = c.to_string();
        assert!(s.contains("local"), "{s}");
        assert!(s.contains("keyed on args [0]"), "{s}");
    }

    #[test]
    fn keyed_replaces_key() {
        let c = Constraint::precedes("a", "b", ConstraintScope::Global)
            .keyed(&[1])
            .keyed(&[0, 2]);
        assert_eq!(c.key(), &[0, 2]);
    }
}
