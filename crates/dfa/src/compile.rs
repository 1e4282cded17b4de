//! Compiling a service's constraint set into interned DFAs.

use std::sync::Arc;

use svckit_model::hash::FastMap;
use svckit_model::{Constraint, ConstraintKind, ConstraintScope, ServiceDefinition};

use crate::dfa::{Dfa, DfaCache, StateMeta, DEAD};

/// Largest dense table (states per automaton) the compiler will emit.
/// A bound beyond this (an absurd `max_outstanding` or `limit`) falls back
/// to the interpreter rather than allocating a megabyte-scale table.
const MAX_TABLE_STATES: u32 = 4096;

/// Which counter semantics a counter-shaped constraint uses. All three
/// count outstanding obligations; they differ in what happens at the
/// edges (see [`Shape::counter_dfa`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CounterFlavor {
    /// `Precedes`: a `DOWN` at zero is a violation.
    Precedes,
    /// `EventuallyFollows`: a `DOWN` at zero saturates (no violation);
    /// the counter value is an outstanding-obligation weight.
    Eventually,
    /// `AtMostOutstanding`: like `Eventually` but the bound is the
    /// constraint's own `limit`, not the exploration bound.
    AtMost,
}

/// The compiled, kind-erased shape of one constraint: everything the
/// runtime needs to classify events and render violations, with the
/// `ConstraintKind` enum left behind at compile time.
#[derive(Debug, Clone)]
pub(crate) enum Shape {
    /// `Precedes` / `EventuallyFollows` / `AtMostOutstanding`.
    Counter {
        up: String,
        down: String,
        scope: ConstraintScope,
        flavor: CounterFlavor,
        bound: u32,
    },
    /// `After`.
    After {
        enable: String,
        check: String,
        scope: ConstraintScope,
    },
    /// `MutualExclusion` (always global scope, holder tracked per key).
    Mutex { acquire: String, release: String },
}

/// Class of events irrelevant to the constraint: always a self-loop.
pub(crate) const OTHER: u16 = 0;
/// Counter shapes: the obligation-creating primitive occurred.
pub(crate) const UP: u16 = 1;
/// Counter shapes: the obligation-discharging primitive occurred.
pub(crate) const DOWN: u16 = 2;
/// `After`: the enabling primitive occurred.
pub(crate) const ENABLE: u16 = 1;
/// `After`: the enabled primitive occurred (forbidden before any enabler).
pub(crate) const CHECK: u16 = 2;

/// `MutualExclusion`: class of an acquire by the interned holder `i`.
pub(crate) fn mutex_acquire(holder: u16) -> u16 {
    1 + 2 * holder
}

/// `MutualExclusion`: class of a release by the interned holder `i`.
pub(crate) fn mutex_release(holder: u16) -> u16 {
    2 + 2 * holder
}

/// Metadata of a state that is neither weighted nor held.
fn plain(quiescent: bool) -> StateMeta {
    StateMeta {
        quiescent,
        weight: 0,
        holder: None,
    }
}

impl Shape {
    /// The table for a counter shape with the given bound: state `s` is
    /// the counter value `0..=bound`. `UP` climbs and is rejected at the
    /// bound; `DOWN` descends, and at zero is rejected (`Precedes`) or
    /// saturates (`EventuallyFollows` / `AtMostOutstanding`).
    fn counter_dfa(bound: u32, flavor: CounterFlavor) -> Dfa {
        let top = u16::try_from(bound).expect("counter bound fits a dense table");
        let mut table = Vec::with_capacity(3 * (usize::from(top) + 1));
        for s in 0..=top {
            let up = if s < top { s + 1 } else { DEAD };
            let down = match s {
                0 if flavor == CounterFlavor::Precedes => DEAD,
                0 => 0,
                _ => s - 1,
            };
            // Row order is the class order OTHER, UP, DOWN.
            table.extend([s, up, down]);
        }
        let meta = (0..=top)
            .map(|s| StateMeta {
                weight: if flavor == CounterFlavor::Eventually {
                    u32::from(s)
                } else {
                    0
                },
                ..plain(s == 0)
            })
            .collect();
        Dfa::new(3, table, meta)
    }

    /// The table for `After`: a two-state enable latch over the classes
    /// OTHER, ENABLE, CHECK. `CHECK` before any `ENABLE` is the violation;
    /// once enabled, everything is allowed. Both states are quiescent
    /// (`After` never blocks quiescence).
    fn after_dfa() -> Dfa {
        Dfa::new(3, vec![0, 1, DEAD, 1, 1, 1], vec![plain(true); 2])
    }

    /// The table for `MutualExclusion` over `holders` interned holder
    /// SAPs: state 0 is free, state `1 + i` is held by holder `i`.
    /// Acquiring while held (by anyone, including oneself) and releasing
    /// by a non-holder (or when free) are the violations.
    pub(crate) fn mutex_dfa(holders: u16) -> Dfa {
        let nclasses = 1 + 2 * holders;
        let width = usize::from(nclasses);
        let mut table = vec![DEAD; (usize::from(holders) + 1) * width];
        for s in 0..=holders {
            table[usize::from(s) * width + usize::from(OTHER)] = s;
        }
        for i in 0..holders {
            table[usize::from(mutex_acquire(i))] = 1 + i;
            table[usize::from(1 + i) * width + usize::from(mutex_release(i))] = 0;
        }
        let meta = std::iter::once(plain(true))
            .chain((0..holders).map(|i| StateMeta {
                holder: Some(i),
                ..plain(false)
            }))
            .collect();
        Dfa::new(nclasses, table, meta)
    }

    /// Builds and interns the shape's DFA (for mutexes: the zero-holder
    /// table, regrown by the binder as holders appear).
    pub(crate) fn build_dfa(&self, cache: &mut DfaCache) -> Arc<Dfa> {
        cache.intern(match self {
            Shape::Counter { flavor, bound, .. } => Shape::counter_dfa(*bound, *flavor),
            Shape::After { .. } => Shape::after_dfa(),
            Shape::Mutex { .. } => Shape::mutex_dfa(0),
        })
    }
}

/// One compiled constraint: display form, correlation key, shape and the
/// interned DFA.
#[derive(Debug, Clone)]
pub(crate) struct CompiledConstraint {
    /// `constraint.to_string()` — the exact string interpreted violations
    /// carry, so both engines render identically.
    pub display: String,
    /// Correlation-key argument positions.
    pub key: Vec<usize>,
    /// The kind-erased shape.
    pub shape: Shape,
    /// The interned table ([`Shape::Mutex`]: for zero holders; the binder
    /// regrows it as holder SAPs are interned).
    pub dfa: Arc<Dfa>,
}

/// A service's constraint set, compiled once into interned DFAs.
///
/// Constraints keep their declaration order — the runtime reports the
/// violation of the *lowest* constraint index, exactly like the
/// interpreter's relevance walk.
#[derive(Debug)]
pub struct Compiled {
    pub(crate) constraints: Vec<CompiledConstraint>,
    /// Constraint indices that mention each primitive, ascending, deduped
    /// ([`ServiceDefinition::constraints_by_primitive`]).
    pub(crate) by_primitive: FastMap<String, Vec<usize>>,
    pub(crate) max_outstanding: u32,
    /// The service compiled, kept for its primitive and role schemas
    /// (what the conformance [`Monitor`](crate::Monitor) validates
    /// occurrences against besides the constraints) and for the
    /// constraints an interpreter-engine
    /// [`AdmissionGate`](crate::AdmissionGate) steps.
    service: ServiceDefinition,
    /// Lazily-built mutex tables keyed by holder count (the regrown table
    /// depends only on it). Shared by every binder over this compiled
    /// set, so re-deployments (fresh gates, fresh explorers) don't
    /// rebuild a table per interned holder.
    mutex_tables: std::sync::Mutex<std::collections::HashMap<u16, Arc<Dfa>>>,
}

impl Compiled {
    /// Compiles `service`'s constraints with the exploration bound
    /// `max_outstanding` (the cap on unmatched `Precedes` /
    /// `EventuallyFollows` obligations, same role as in the interpreter).
    ///
    /// Returns `None` when a bound is too large for a dense table —
    /// callers fall back to the interpreter.
    pub fn compile(service: &ServiceDefinition, max_outstanding: u32) -> Option<Compiled> {
        let mut cache = DfaCache::new();
        let mut constraints = Vec::with_capacity(service.constraints().len());
        for constraint in service.constraints() {
            let shape = Self::shape_of(constraint, max_outstanding);
            if let Shape::Counter { bound, .. } = &shape {
                if bound.checked_add(1)? > MAX_TABLE_STATES {
                    return None;
                }
            }
            let dfa = shape.build_dfa(&mut cache);
            constraints.push(CompiledConstraint {
                display: constraint.to_string(),
                key: constraint.key().to_vec(),
                shape,
                dfa,
            });
        }
        Some(Compiled {
            constraints,
            by_primitive: service.constraints_by_primitive(),
            max_outstanding,
            service: service.clone(),
            mutex_tables: std::sync::Mutex::new(std::collections::HashMap::new()),
        })
    }

    /// The mutex table for `holders` interned holder SAPs, built on first
    /// request and memoized for every binder sharing this set.
    pub(crate) fn mutex_table(&self, holders: u16) -> Arc<Dfa> {
        Arc::clone(
            self.mutex_tables
                .lock()
                .expect("mutex table cache lock")
                .entry(holders)
                .or_insert_with(|| Arc::new(Shape::mutex_dfa(holders))),
        )
    }

    fn shape_of(constraint: &Constraint, max_outstanding: u32) -> Shape {
        match constraint.kind() {
            ConstraintKind::Precedes {
                earlier,
                later,
                scope,
            } => Shape::Counter {
                up: earlier.clone(),
                down: later.clone(),
                scope: *scope,
                flavor: CounterFlavor::Precedes,
                bound: max_outstanding,
            },
            ConstraintKind::EventuallyFollows {
                trigger,
                response,
                scope,
            } => Shape::Counter {
                up: trigger.clone(),
                down: response.clone(),
                scope: *scope,
                flavor: CounterFlavor::Eventually,
                bound: max_outstanding,
            },
            ConstraintKind::AtMostOutstanding {
                trigger,
                response,
                limit,
                scope,
            } => Shape::Counter {
                up: trigger.clone(),
                down: response.clone(),
                scope: *scope,
                flavor: CounterFlavor::AtMost,
                // A limit past `u32` saturates; the table-size check in
                // `compile` then rejects it.
                bound: u32::try_from(*limit).unwrap_or(u32::MAX),
            },
            ConstraintKind::After {
                enabler,
                then,
                scope,
            } => Shape::After {
                enable: enabler.clone(),
                check: then.clone(),
                scope: *scope,
            },
            ConstraintKind::MutualExclusion { acquire, release } => Shape::Mutex {
                acquire: acquire.clone(),
                release: release.clone(),
            },
        }
    }

    /// Number of constraints compiled.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether the service has no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// The exploration bound the counters were compiled with.
    pub fn max_outstanding(&self) -> u32 {
        self.max_outstanding
    }

    /// The service definition this set was compiled from.
    pub fn service(&self) -> &ServiceDefinition {
        &self.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::{Direction, PrimitiveSpec};

    fn service(constraints: Vec<Constraint>) -> ServiceDefinition {
        let mut builder = ServiceDefinition::builder("compile-test")
            .role("user", 1, 4)
            .primitive(PrimitiveSpec::new("a", Direction::FromUser).param_id("k"))
            .primitive(PrimitiveSpec::new("b", Direction::FromUser).param_id("k"));
        for c in constraints {
            builder = builder.constraint(c);
        }
        builder.build().expect("test service is well-formed")
    }

    #[test]
    fn identical_shapes_intern_to_one_table() {
        let compiled = Compiled::compile(
            &service(vec![
                Constraint::precedes("a", "b", ConstraintScope::SameSap),
                Constraint::precedes("a", "b", ConstraintScope::Global).keyed(&[0]),
            ]),
            2,
        )
        .expect("known kinds compile");
        assert!(Arc::ptr_eq(
            &compiled.constraints[0].dfa,
            &compiled.constraints[1].dfa
        ));
    }

    #[test]
    fn precedes_counter_rejects_at_both_edges() {
        let compiled = Compiled::compile(
            &service(vec![Constraint::precedes(
                "a",
                "b",
                ConstraintScope::SameSap,
            )]),
            2,
        )
        .unwrap();
        let dfa = &compiled.constraints[0].dfa;
        assert_eq!(dfa.next(0, DOWN), DEAD, "`b` without a preceding `a`");
        assert_eq!(dfa.next(0, UP), 1);
        assert_eq!(dfa.next(2, UP), DEAD, "over the exploration bound");
        assert!(dfa.meta(0).quiescent);
        assert!(!dfa.meta(1).quiescent);
    }

    #[test]
    fn eventually_saturates_and_weights_obligations() {
        let compiled = Compiled::compile(
            &service(vec![Constraint::eventually_follows(
                "a",
                "b",
                ConstraintScope::SameSap,
            )]),
            3,
        )
        .unwrap();
        let dfa = &compiled.constraints[0].dfa;
        assert_eq!(dfa.next(0, DOWN), 0, "discharge at zero saturates");
        assert_eq!(dfa.meta(2).weight, 2, "counter value is the obligation");
    }

    #[test]
    fn at_most_uses_its_own_limit_not_the_exploration_bound() {
        let compiled = Compiled::compile(
            &service(vec![Constraint::at_most_outstanding(
                "a",
                "b",
                1,
                ConstraintScope::SameSap,
            )]),
            100,
        )
        .unwrap();
        let dfa = &compiled.constraints[0].dfa;
        assert_eq!(dfa.nstates(), 2);
        assert_eq!(dfa.next(1, UP), DEAD);
        assert_eq!(dfa.next(0, DOWN), 0);
    }

    #[test]
    fn absurd_bounds_fall_back_to_the_interpreter() {
        let svc = service(vec![Constraint::precedes(
            "a",
            "b",
            ConstraintScope::SameSap,
        )]);
        assert!(Compiled::compile(&svc, 1 << 20).is_none());
        assert!(Compiled::compile(&svc, 64).is_some());
    }

    #[test]
    fn mutex_tables_grow_with_the_holder_set() {
        let two = Shape::mutex_dfa(2);
        assert_eq!(two.nstates(), 3);
        assert_eq!(two.next(0, mutex_acquire(1)), 2);
        assert_eq!(two.next(2, mutex_acquire(0)), DEAD, "already held");
        assert_eq!(two.next(2, mutex_release(0)), DEAD, "not the holder");
        assert_eq!(two.next(2, mutex_release(1)), 0);
        assert_eq!(two.next(0, mutex_release(0)), DEAD, "nothing held");
        assert_eq!(two.meta(2).holder, Some(1));
    }

    const X: u16 = DEAD;

    /// A literal table: row-major cells and per-state
    /// `(quiescent, weight, holder)`.
    fn literal(nclasses: u16, table: &[u16], meta: &[(bool, u32, Option<u16>)]) -> Dfa {
        let meta = meta
            .iter()
            .map(|&(quiescent, weight, holder)| StateMeta {
                quiescent,
                weight,
                holder,
            })
            .collect();
        Dfa::new(nclasses, table.to_vec(), meta)
    }

    #[test]
    fn counter_tables_are_pinned_cell_by_cell() {
        // Rows are [OTHER, UP, DOWN]; state `s` is the counter value.
        // `Precedes` rejects `DOWN` at zero, the other flavours saturate.
        let tables: [(&[u16], &[u16]); 4] = [
            (&[0, X, X], &[0, X, 0]),
            (&[0, 1, X, 1, X, 0], &[0, 1, 0, 1, X, 0]),
            (&[0, 1, X, 1, 2, 0, 2, X, 1], &[0, 1, 0, 1, 2, 0, 2, X, 1]),
            (
                &[0, 1, X, 1, 2, 0, 2, 3, 1, 3, X, 2],
                &[0, 1, 0, 1, 2, 0, 2, 3, 1, 3, X, 2],
            ),
        ];
        for (bound, (precedes, saturating)) in (0u32..).zip(tables) {
            let cases = [
                (CounterFlavor::Precedes, precedes),
                (CounterFlavor::Eventually, saturating),
                (CounterFlavor::AtMost, saturating),
            ];
            for (flavor, table) in cases {
                // Only `EventuallyFollows` weighs its counter value.
                let meta: Vec<_> = (0..=bound)
                    .map(|s| {
                        let weight = if flavor == CounterFlavor::Eventually {
                            s
                        } else {
                            0
                        };
                        (s == 0, weight, None)
                    })
                    .collect();
                assert_eq!(
                    Shape::counter_dfa(bound, flavor),
                    literal(3, table, &meta),
                    "{flavor:?} at bound {bound}"
                );
            }
        }
    }

    #[test]
    fn after_and_mutex_tables_are_pinned_cell_by_cell() {
        // [OTHER, ENABLE, CHECK]; both latch states are quiescent.
        let after = literal(3, &[0, 1, X, 1, 1, 1], &[(true, 0, None); 2]);
        assert_eq!(Shape::after_dfa(), after);
        // [OTHER, acquire(0), release(0), acquire(1), release(1), ...];
        // state `1 + i` is held by holder `i`.
        let free = (true, 0, None);
        let held = |i| (false, 0, Some(i));
        assert_eq!(Shape::mutex_dfa(0), literal(1, &[0], &[free]));
        assert_eq!(
            Shape::mutex_dfa(1),
            literal(3, &[0, 1, X, 1, X, 0], &[free, held(0)])
        );
        #[rustfmt::skip]
        let two = [
            0, 1, X, 2, X,
            1, X, 0, X, X,
            2, X, X, X, 0,
        ];
        assert_eq!(
            Shape::mutex_dfa(2),
            literal(5, &two, &[free, held(0), held(1)])
        );
    }
}
