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
//!
//! [`step_constraint`] is the one state-machine meaning of every kind: it
//! steps a [`CState`] by one occurrence. The explorer's interpreter, the
//! admission gate's reference engine and the compiled DFA tables of
//! `svckit-dfa` all reproduce it; the trace checker in
//! [`crate::conformance`] stays a separate oracle.

use std::collections::BTreeMap;
use std::fmt;

use crate::sap::Sap;
use crate::value::Value;

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

    /// The primitive that discharges or consumes this constraint's
    /// bookkeeping — a `Precedes` later side, an `EventuallyFollows` or
    /// `AtMostOutstanding` response, a `MutualExclusion` release — or
    /// `None` for `After`, whose enablement is never consumed. A cycle
    /// that returns to its entry state consumes whatever it produces, so
    /// it makes progress exactly when it takes such a primitive.
    pub fn progress_primitive(&self) -> Option<&str> {
        match self {
            ConstraintKind::Precedes { later, .. } => Some(later),
            ConstraintKind::EventuallyFollows { response, .. }
            | ConstraintKind::AtMostOutstanding { response, .. } => Some(response),
            ConstraintKind::MutualExclusion { release, .. } => Some(release),
            ConstraintKind::After { .. } => None,
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

    /// The instance an occurrence at `sap` with `args` touches: the access
    /// point under a `SameSap` scope (`None` under `Global`, which every
    /// mutual exclusion has) and the correlation-key values.
    pub fn instance(&self, sap: &Sap, args: &[Value]) -> Instance {
        let sap = match self.kind.scope() {
            ConstraintScope::SameSap => Some(sap.clone()),
            ConstraintScope::Global => None,
        };
        (sap, key_values(args, &self.key))
    }
}

/// The values of `args` at the positions in `key`. A missing position
/// reads as [`Value::Unit`], so a malformed occurrence still has a stable
/// key and is reported by schema validation instead of panicking here.
pub(crate) fn key_values(args: &[Value], key: &[usize]) -> Vec<Value> {
    key.iter()
        .map(|&i| args.get(i).cloned().unwrap_or(Value::Unit))
        .collect()
}

/// A constraint instance: the partition cell within which occurrences are
/// related — the access point (for a `SameSap` scope) and the
/// correlation-key values ([`Constraint::instance`]).
pub type Instance = (Option<Sap>, Vec<Value>);

/// One constraint's bookkeeping, stepped by [`step_constraint`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CState {
    /// Balance counters per instance (`Precedes`, `EventuallyFollows`,
    /// `AtMostOutstanding`); `After` marks an enabled instance with 1. A
    /// counter that returns to zero is removed.
    Counters(BTreeMap<Instance, u32>),
    /// Current holder per key (`MutualExclusion`).
    Holders(BTreeMap<Vec<Value>, Sap>),
}

impl CState {
    /// The state of `constraint` before any occurrence.
    pub fn initial(constraint: &Constraint) -> CState {
        match constraint.kind() {
            ConstraintKind::MutualExclusion { .. } => CState::Holders(BTreeMap::new()),
            _ => CState::Counters(BTreeMap::new()),
        }
    }

    /// Whether this state of `constraint` is quiescent: no obligation
    /// outstanding and nothing held. Enablement markers of
    /// [`ConstraintKind::After`] constraints do not count.
    pub fn is_quiescent(&self, constraint: &Constraint) -> bool {
        match self {
            CState::Counters(m) => {
                matches!(constraint.kind(), ConstraintKind::After { .. })
                    || m.values().all(|v| *v == 0)
            }
            CState::Holders(h) => h.is_empty(),
        }
    }
}

/// Why a constraint rejects an occurrence. Its [`fmt::Display`] is the
/// one rendering of every violation text: [`step_constraint`] and the
/// compiled engine's violation messages both format through it, so the
/// two engines report the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation<'a> {
    /// `Precedes`: an `earlier` past the bound on unmatched occurrences
    /// (the state-space bound).
    UnmatchedBound {
        /// The obligation-creating primitive.
        earlier: &'a str,
        /// The bound it would pass.
        bound: u64,
    },
    /// `Precedes`: a `later` with no unmatched `earlier` before it.
    Unpreceded {
        /// The primitive that must come first.
        earlier: &'a str,
        /// The primitive that occurred.
        later: &'a str,
    },
    /// `After`: a `then` before any `enabler`.
    NotEnabled {
        /// The enabling primitive.
        enabler: &'a str,
        /// The primitive that occurred.
        then: &'a str,
    },
    /// `EventuallyFollows`: a `trigger` past the bound on outstanding
    /// obligations (the state-space bound).
    OutstandingBound {
        /// The obligation-creating primitive.
        trigger: &'a str,
        /// The bound it would pass.
        bound: u64,
    },
    /// `AtMostOutstanding`: a `trigger` past the constraint's own limit.
    OverLimit {
        /// The obligation-creating primitive.
        trigger: &'a str,
        /// The limit it would pass.
        limit: u64,
    },
    /// `MutualExclusion`: an `acquire` while another holds the key.
    Held {
        /// The acquiring primitive.
        acquire: &'a str,
        /// Where it occurred.
        sap: &'a Sap,
        /// Who holds the key.
        holder: &'a Sap,
    },
    /// `MutualExclusion`: a `release` while another holds the key.
    NotHolder {
        /// The releasing primitive.
        release: &'a str,
        /// Where it occurred.
        sap: &'a Sap,
        /// Who holds the key.
        holder: &'a Sap,
    },
    /// `MutualExclusion`: a `release` while nothing is held.
    NothingHeld {
        /// The releasing primitive.
        release: &'a str,
        /// Where it occurred.
        sap: &'a Sap,
    },
}

impl fmt::Display for Violation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UnmatchedBound { earlier, bound } => {
                write!(
                    f,
                    "more than {bound} unmatched `{earlier}` (state-space bound)"
                )
            }
            Violation::Unpreceded { earlier, later } => {
                write!(f, "`{later}` without a preceding unmatched `{earlier}`")
            }
            Violation::NotEnabled { enabler, then } => write!(f, "`{then}` before any `{enabler}`"),
            Violation::OutstandingBound { trigger, bound } => {
                write!(
                    f,
                    "more than {bound} outstanding `{trigger}` (state-space bound)"
                )
            }
            Violation::OverLimit { trigger, limit } => {
                write!(f, "more than {limit} outstanding `{trigger}`")
            }
            Violation::Held {
                acquire,
                sap,
                holder,
            } => write!(f, "`{acquire}` at {sap} while held by {holder}"),
            Violation::NotHolder {
                release,
                sap,
                holder,
            } => write!(f, "`{release}` at {sap} but holder is {holder}"),
            Violation::NothingHeld { release, sap } => {
                write!(f, "`{release}` at {sap} but nothing is held")
            }
        }
    }
}

/// Steps one constraint's state by the occurrence of `primitive` with
/// `args` at `sap` — the one definition of constraint semantics. `bound`
/// caps unmatched `Precedes` and outstanding `EventuallyFollows`
/// obligations per instance (`AtMostOutstanding` uses its own `limit`).
///
/// Returns the successor, or the violation message when the constraint
/// rejects the occurrence. The step is functional: a rejection leaves
/// `state` as it was, so a caller that steps several constraints commits
/// only once all of them accept.
///
/// # Panics
///
/// If `state` is not a state of `constraint` (its shape comes from
/// [`CState::initial`]).
pub fn step_constraint(
    constraint: &Constraint,
    state: &CState,
    sap: &Sap,
    primitive: &str,
    args: &[Value],
    bound: u32,
) -> Result<CState, String> {
    let inst = || constraint.instance(sap, args);
    match (constraint.kind(), state) {
        (ConstraintKind::Precedes { earlier, later, .. }, CState::Counters(map)) => {
            let mut map = map.clone();
            if primitive == earlier {
                let e = map.entry(inst()).or_insert(0);
                if *e >= bound {
                    return Err(Violation::UnmatchedBound {
                        earlier,
                        bound: u64::from(bound),
                    }
                    .to_string());
                }
                *e += 1;
            } else if primitive == later {
                let inst = inst();
                match map.get_mut(&inst) {
                    Some(e) if *e > 0 => {
                        *e -= 1;
                        if *e == 0 {
                            map.remove(&inst);
                        }
                    }
                    _ => return Err(Violation::Unpreceded { earlier, later }.to_string()),
                }
            }
            Ok(CState::Counters(map))
        }
        (ConstraintKind::After { enabler, then, .. }, CState::Counters(map)) => {
            let mut map = map.clone();
            if primitive == enabler {
                // A saturated counter marks "enabled forever".
                map.insert(inst(), 1);
            } else if primitive == then && !map.contains_key(&inst()) {
                return Err(Violation::NotEnabled { enabler, then }.to_string());
            }
            Ok(CState::Counters(map))
        }
        (
            ConstraintKind::EventuallyFollows {
                trigger, response, ..
            },
            CState::Counters(map),
        ) => {
            let mut map = map.clone();
            if primitive == trigger {
                let e = map.entry(inst()).or_insert(0);
                if *e >= bound {
                    return Err(Violation::OutstandingBound {
                        trigger,
                        bound: u64::from(bound),
                    }
                    .to_string());
                }
                *e += 1;
            } else if primitive == response {
                discharge(&mut map, inst());
            }
            Ok(CState::Counters(map))
        }
        (
            ConstraintKind::AtMostOutstanding {
                trigger,
                response,
                limit,
                ..
            },
            CState::Counters(map),
        ) => {
            let mut map = map.clone();
            if primitive == trigger {
                let e = map.entry(inst()).or_insert(0);
                if (*e as usize) >= *limit {
                    return Err(Violation::OverLimit {
                        trigger,
                        limit: *limit as u64,
                    }
                    .to_string());
                }
                *e += 1;
            } else if primitive == response {
                discharge(&mut map, inst());
            }
            Ok(CState::Counters(map))
        }
        (ConstraintKind::MutualExclusion { acquire, release }, CState::Holders(map)) => {
            let mut map = map.clone();
            let (_, k) = inst();
            if primitive == acquire {
                if let Some(holder) = map.get(&k) {
                    return Err(Violation::Held {
                        acquire,
                        sap,
                        holder,
                    }
                    .to_string());
                }
                map.insert(k, sap.clone());
            } else if primitive == release {
                match map.get(&k) {
                    Some(holder) if holder == sap => {
                        map.remove(&k);
                    }
                    Some(holder) => {
                        return Err(Violation::NotHolder {
                            release,
                            sap,
                            holder,
                        }
                        .to_string())
                    }
                    None => return Err(Violation::NothingHeld { release, sap }.to_string()),
                }
            }
            Ok(CState::Holders(map))
        }
        // The state shape always matches the constraint it was built for.
        _ => unreachable!("constraint state shape mismatch"),
    }
}

/// Discharges one obligation of `inst`; discharging none is not a
/// violation (the counter saturates at zero and is then removed).
fn discharge(map: &mut BTreeMap<Instance, u32>, inst: Instance) {
    if let Some(e) = map.get_mut(&inst) {
        *e = e.saturating_sub(1);
        if *e == 0 {
            map.remove(&inst);
        }
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
    fn progress_primitives_are_the_consuming_side() {
        let kinds = [
            Constraint::precedes("a", "b", ConstraintScope::SameSap),
            Constraint::eventually_follows("a", "b", ConstraintScope::SameSap),
            Constraint::at_most_outstanding("a", "b", 1, ConstraintScope::Global),
            Constraint::mutual_exclusion("a", "b"),
        ];
        for c in &kinds {
            assert_eq!(c.kind().progress_primitive(), Some("b"), "{c}");
        }
        let after = Constraint::after("a", "b", ConstraintScope::SameSap);
        assert_eq!(after.kind().progress_primitive(), None);
    }

    #[test]
    fn instances_follow_the_effective_scope() {
        let sap = Sap::new("user", crate::PartId::new(1));
        let args = [Value::Id(7)];
        let local = Constraint::precedes("a", "b", ConstraintScope::SameSap).keyed(&[0, 3]);
        assert_eq!(
            local.instance(&sap, &args),
            (Some(sap.clone()), vec![Value::Id(7), Value::Unit])
        );
        let mutex = Constraint::mutual_exclusion("a", "b").keyed(&[0]);
        assert_eq!(mutex.instance(&sap, &args), (None, vec![Value::Id(7)]));
    }

    /// Every violation text, as both engines render it.
    #[test]
    fn violation_texts_are_pinned() {
        let (one, two) = (
            Sap::new("user", crate::PartId::new(1)),
            Sap::new("user", crate::PartId::new(2)),
        );
        let texts = [
            (
                Violation::UnmatchedBound {
                    earlier: "a",
                    bound: 2,
                },
                "more than 2 unmatched `a` (state-space bound)",
            ),
            (
                Violation::Unpreceded {
                    earlier: "a",
                    later: "b",
                },
                "`b` without a preceding unmatched `a`",
            ),
            (
                Violation::NotEnabled {
                    enabler: "a",
                    then: "b",
                },
                "`b` before any `a`",
            ),
            (
                Violation::OutstandingBound {
                    trigger: "a",
                    bound: 2,
                },
                "more than 2 outstanding `a` (state-space bound)",
            ),
            (
                Violation::OverLimit {
                    trigger: "a",
                    limit: 1,
                },
                "more than 1 outstanding `a`",
            ),
            (
                Violation::Held {
                    acquire: "a",
                    sap: &two,
                    holder: &one,
                },
                "`a` at user@part-2 while held by user@part-1",
            ),
            (
                Violation::NotHolder {
                    release: "b",
                    sap: &two,
                    holder: &one,
                },
                "`b` at user@part-2 but holder is user@part-1",
            ),
            (
                Violation::NothingHeld {
                    release: "b",
                    sap: &two,
                },
                "`b` at user@part-2 but nothing is held",
            ),
        ];
        for (violation, text) in texts {
            assert_eq!(violation.to_string(), text);
        }
    }

    #[test]
    fn a_rejected_step_reports_the_message_and_keeps_the_state() {
        let mutex = Constraint::mutual_exclusion("acquire", "release");
        let (one, two) = (
            Sap::new("user", crate::PartId::new(1)),
            Sap::new("user", crate::PartId::new(2)),
        );
        let free = CState::initial(&mutex);
        let held = step_constraint(&mutex, &free, &one, "acquire", &[], 2).expect("free");
        assert!(!held.is_quiescent(&mutex));
        assert_eq!(
            step_constraint(&mutex, &held, &two, "acquire", &[], 2),
            Err("`acquire` at user@part-2 while held by user@part-1".to_owned())
        );
        assert_eq!(
            step_constraint(&mutex, &held, &one, "release", &[], 2),
            Ok(free.clone())
        );
        assert!(free.is_quiescent(&mutex));

        let precedes = Constraint::precedes("a", "b", ConstraintScope::SameSap);
        let start = CState::initial(&precedes);
        let once = step_constraint(&precedes, &start, &one, "a", &[], 1).expect("under the bound");
        assert_eq!(
            step_constraint(&precedes, &once, &one, "a", &[], 1),
            Err("more than 1 unmatched `a` (state-space bound)".to_owned())
        );
        assert_eq!(
            step_constraint(&precedes, &start, &one, "b", &[], 1),
            Err("`b` without a preceding unmatched `a`".to_owned())
        );
    }

    #[test]
    fn keyed_replaces_key() {
        let c = Constraint::precedes("a", "b", ConstraintScope::Global)
            .keyed(&[1])
            .keyed(&[0, 2]);
        assert_eq!(c.key(), &[0, 2]);
    }
}
