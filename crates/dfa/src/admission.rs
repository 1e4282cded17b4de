//! The runtime admission path: validating primitive occurrences against a
//! compiled service definition, per dispatch.
//!
//! This is the "server validating millions of occurrences per second"
//! story: a middleware node installs an [`AdmissionGate`] built from its
//! service definition, and every `record_primitive` dispatch is checked
//! against the compiled tables — one memoized hash to classify the
//! occurrence, then one dense-table load per constraint that mentions the
//! primitive.
//!
//! The gate is **passive**: a rejected occurrence is counted, never
//! blocked, and leaves the gate state unchanged (as if it had not
//! happened), so installing a gate cannot perturb a simulation. Counters
//! are compiled with [`ADMISSION_BOUND`] rather than an exploration bound:
//! at run time an `EventuallyFollows` backlog is not a state-space
//! artifact, so the bound only exists to keep the tables dense, far above
//! anything a conformant workload produces.
//!
//! Like the explorer, the gate carries an [`Engine`] knob: `dfa` validates
//! through the compiled tables, `interp` keeps one [`CState`] per
//! constraint and steps every constraint relevant to the primitive
//! through [`step_constraint`], the one definition of constraint semantics
//! in `svckit-model`, committing only when all of them accept. Both make
//! identical decisions (the oracle test in `tests/admission_oracle.rs`
//! pins this), which is what lets CI `cmp` sweep outputs across engines.

use std::sync::{Arc, Mutex};

use svckit_model::{step_constraint, CState, Sap, ServiceDefinition, Value};

use crate::compile::Compiled;
use crate::engine::Engine;
use crate::runner::Binder;

/// The obligation bound admission counters are compiled with. Far above
/// any conformant workload's outstanding backlog; an occurrence is
/// rejected at the bound (`Precedes`/`EventuallyFollows` only).
pub const ADMISSION_BOUND: u32 = 64;

/// Cumulative admission statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Occurrences validated.
    pub checked: u64,
    /// Occurrences that violated a constraint (counted, not blocked).
    pub rejected: u64,
}

/// What the gate steps, per engine.
#[derive(Debug)]
enum GateState {
    /// Dense product state (one entry per interned slot), stepped in
    /// place.
    Dfa(Vec<u16>),
    /// One state per constraint, in declaration order.
    Interp(Vec<CState>),
}

#[derive(Debug)]
struct GateInner {
    binder: Binder,
    state: GateState,
    stats: AdmissionStats,
}

/// A per-system admission validator, shareable across middleware nodes.
///
/// Thread-safe (internally locked): with a sharded simulator, occurrences
/// are validated in arrival order, which is deterministic for a single
/// shard and a fair interleaving otherwise. Since the gate is passive,
/// this never affects simulation output.
#[derive(Debug)]
pub struct AdmissionGate {
    inner: Mutex<GateInner>,
}

impl AdmissionGate {
    /// Compiles `service` and builds a gate driven by `engine`.
    ///
    /// Returns `None` when the service's constraints cannot be compiled
    /// (an `AtMostOutstanding` limit too large for a dense table).
    pub fn new(service: &ServiceDefinition, engine: Engine) -> Option<AdmissionGate> {
        let compiled = Arc::new(Compiled::compile(service, ADMISSION_BOUND)?);
        Some(AdmissionGate::with_compiled(compiled, engine))
    }

    /// Builds a gate from an already-compiled service. The compiled
    /// tables are stateless templates, so one [`Compiled`] can serve any
    /// number of gates — deployments that run the same service compile it
    /// once and hand each gate a clone of the `Arc` instead of paying the
    /// table construction per deployment.
    pub fn with_compiled(compiled: Arc<Compiled>, engine: Engine) -> AdmissionGate {
        let state = match engine {
            Engine::Dfa => GateState::Dfa(Vec::new()),
            Engine::Interp => GateState::Interp(
                compiled
                    .service()
                    .constraints()
                    .iter()
                    .map(CState::initial)
                    .collect(),
            ),
        };
        AdmissionGate {
            inner: Mutex::new(GateInner {
                binder: Binder::new(compiled),
                state,
                stats: AdmissionStats::default(),
            }),
        }
    }

    /// The engine driving validation.
    pub fn engine(&self) -> Engine {
        match self.lock().state {
            GateState::Dfa(_) => Engine::Dfa,
            GateState::Interp(_) => Engine::Interp,
        }
    }

    /// The compiled tables the gate validates against.
    pub fn compiled(&self) -> Arc<Compiled> {
        Arc::clone(self.lock().binder.compiled())
    }

    /// Runs `f` on the gate's binder, so a [`Monitor`](crate::Monitor)
    /// can resolve occurrences through the gate's interning tables.
    pub(crate) fn with_binder<R>(&self, f: impl FnOnce(&mut Binder) -> R) -> R {
        f(&mut self.lock().binder)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateInner> {
        self.inner.lock().expect("admission gate lock")
    }

    /// Validates one primitive occurrence. Returns whether it was
    /// admissible; a rejected occurrence leaves the gate state unchanged.
    pub fn admit(&self, sap: &Sap, primitive: &str, args: &[Value]) -> bool {
        let mut inner = self.lock();
        inner.stats.checked += 1;
        // The binder and the state are borrowed apart.
        let GateInner { binder, state, .. } = &mut *inner;
        let admitted = match state {
            GateState::Dfa(state) => {
                let id = binder.resolve_cached(sap, primitive, args);
                binder.step_dense(state, binder.edges(id)).is_ok()
            }
            GateState::Interp(states) => {
                let compiled = binder.compiled();
                let constraints = compiled.service().constraints();
                let bound = compiled.max_outstanding;
                let relevant = compiled
                    .by_primitive
                    .get(primitive)
                    .map_or(&[][..], Vec::as_slice);
                let next: Option<Vec<CState>> = relevant
                    .iter()
                    .map(|&ci| {
                        step_constraint(&constraints[ci], &states[ci], sap, primitive, args, bound)
                            .ok()
                    })
                    .collect();
                // Commit only once every relevant constraint accepted, so a
                // rejection leaves no residue.
                match next {
                    Some(next) => {
                        for (&ci, cstate) in relevant.iter().zip(next) {
                            states[ci] = cstate;
                        }
                        true
                    }
                    None => false,
                }
            }
        };
        if !admitted {
            inner.stats.rejected += 1;
        }
        admitted
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> AdmissionStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::{Constraint, ConstraintScope, Direction, PartId, PrimitiveSpec};

    fn sap(k: u64) -> Sap {
        Sap::new("user", PartId::new(k))
    }

    fn gate(engine: Engine) -> AdmissionGate {
        let service = ServiceDefinition::builder("admission-test")
            .role("user", 1, 4)
            .primitive(PrimitiveSpec::new("acquire", Direction::FromUser))
            .primitive(PrimitiveSpec::new("release", Direction::FromUser))
            .constraint(Constraint::precedes(
                "acquire",
                "release",
                ConstraintScope::SameSap,
            ))
            .constraint(Constraint::mutual_exclusion("acquire", "release"))
            .build()
            .expect("test service is well-formed");
        AdmissionGate::new(&service, engine).expect("known kinds compile")
    }

    #[test]
    fn both_engines_admit_valid_and_reject_invalid_streams() {
        for engine in [Engine::Dfa, Engine::Interp] {
            let gate = gate(engine);
            assert!(gate.admit(&sap(1), "acquire", &[]));
            assert!(!gate.admit(&sap(2), "acquire", &[]), "{engine}: held");
            assert!(!gate.admit(&sap(2), "release", &[]), "{engine}: not holder");
            assert!(gate.admit(&sap(1), "release", &[]));
            // Reject-and-continue: the earlier rejections left no residue.
            assert!(gate.admit(&sap(2), "acquire", &[]), "{engine}");
            assert_eq!(
                gate.stats(),
                AdmissionStats {
                    checked: 5,
                    rejected: 2
                },
                "{engine}"
            );
        }
    }

    #[test]
    fn the_bound_only_bites_far_beyond_conformant_backlogs() {
        let service = ServiceDefinition::builder("admission-bound")
            .role("user", 1, 1)
            .primitive(PrimitiveSpec::new("a", Direction::FromUser))
            .primitive(PrimitiveSpec::new("b", Direction::FromUser))
            .constraint(Constraint::eventually_follows(
                "a",
                "b",
                ConstraintScope::SameSap,
            ))
            .build()
            .expect("well-formed");
        for engine in [Engine::Dfa, Engine::Interp] {
            let gate = AdmissionGate::new(&service, engine).expect("compiles");
            for _ in 0..ADMISSION_BOUND {
                assert!(gate.admit(&sap(1), "a", &[]), "{engine}");
            }
            assert!(!gate.admit(&sap(1), "a", &[]), "{engine}: bound reached");
            // The rejection left the backlog at the bound: one discharge
            // makes room for exactly one more trigger.
            assert!(gate.admit(&sap(1), "b", &[]), "{engine}");
            assert!(gate.admit(&sap(1), "a", &[]), "{engine}");
            assert!(
                !gate.admit(&sap(1), "a", &[]),
                "{engine}: bound reached again"
            );
        }
    }
}
