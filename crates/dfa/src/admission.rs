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
//! through the compiled tables, `interp` through a direct map-based
//! interpretation of the same shapes. Both make identical decisions (the
//! oracle test in `tests/admission_oracle.rs` pins this), which is what
//! lets CI `cmp` sweep outputs across engines.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use svckit_model::{ConstraintScope, Sap, ServiceDefinition, Value};

use crate::compile::{Compiled, CounterFlavor, Shape};
use crate::engine::Engine;
use crate::runner::{Binder, Instance};

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

/// Map-based reference validator: the same shapes, interpreted directly
/// (the admission-path equivalent of the explorer's `interp` engine).
#[derive(Debug, Default)]
struct InterpGate {
    counters: HashMap<(usize, Instance), u32>,
    enabled: HashMap<(usize, Instance), ()>,
    holders: HashMap<(usize, Vec<Value>), Sap>,
}

impl InterpGate {
    /// Validates one occurrence; mutates state only when admitted.
    fn admit(&mut self, compiled: &Compiled, sap: &Sap, primitive: &str, args: &[Value]) -> bool {
        // First pass: veto without mutating (reject-and-continue must
        // leave the state exactly as if the occurrence never happened).
        for (ci, cc) in compiled.constraints.iter().enumerate() {
            let keyvals: Vec<Value> = cc
                .key
                .iter()
                .map(|&i| args.get(i).cloned().unwrap_or(Value::Unit))
                .collect();
            let scoped = |scope: ConstraintScope| match scope {
                ConstraintScope::SameSap => (Some(sap.clone()), keyvals.clone()),
                ConstraintScope::Global => (None, keyvals.clone()),
            };
            match &cc.shape {
                Shape::Counter {
                    up,
                    down,
                    scope,
                    flavor,
                    bound,
                } => {
                    let instance = (ci, scoped(*scope));
                    let count = self.counters.get(&instance).copied().unwrap_or(0);
                    if primitive == up {
                        if count >= *bound {
                            return false;
                        }
                    } else if primitive == down && *flavor == CounterFlavor::Precedes && count == 0
                    {
                        return false;
                    }
                }
                Shape::After {
                    enable,
                    check,
                    scope,
                } => {
                    if primitive == check
                        && primitive != enable
                        && !self.enabled.contains_key(&(ci, scoped(*scope)))
                    {
                        return false;
                    }
                }
                Shape::Mutex { acquire, release } => {
                    let holder = self.holders.get(&(ci, keyvals.clone()));
                    if primitive == acquire {
                        if holder.is_some() {
                            return false;
                        }
                    } else if primitive == release && holder != Some(sap) {
                        return false;
                    }
                }
            }
        }
        // Second pass: commit.
        for (ci, cc) in compiled.constraints.iter().enumerate() {
            let keyvals: Vec<Value> = cc
                .key
                .iter()
                .map(|&i| args.get(i).cloned().unwrap_or(Value::Unit))
                .collect();
            let scoped = |scope: ConstraintScope| match scope {
                ConstraintScope::SameSap => (Some(sap.clone()), keyvals.clone()),
                ConstraintScope::Global => (None, keyvals.clone()),
            };
            match &cc.shape {
                Shape::Counter {
                    up, down, scope, ..
                } => {
                    if primitive == up {
                        *self.counters.entry((ci, scoped(*scope))).or_insert(0) += 1;
                    } else if primitive == down {
                        let instance = (ci, scoped(*scope));
                        if let Some(count) = self.counters.get_mut(&instance) {
                            *count = count.saturating_sub(1);
                            if *count == 0 {
                                self.counters.remove(&instance);
                            }
                        }
                    }
                }
                Shape::After { enable, scope, .. } => {
                    if primitive == enable {
                        self.enabled.insert((ci, scoped(*scope)), ());
                    }
                }
                Shape::Mutex { acquire, release } => {
                    if primitive == acquire {
                        self.holders.insert((ci, keyvals.clone()), sap.clone());
                    } else if primitive == release {
                        self.holders.remove(&(ci, keyvals.clone()));
                    }
                }
            }
        }
        true
    }
}

#[derive(Debug)]
struct GateInner {
    binder: Binder,
    /// Dense product state (one entry per interned slot), stepped in
    /// place; DFA engine only.
    state: Vec<u16>,
    interp: InterpGate,
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
    engine: Engine,
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
        AdmissionGate {
            engine,
            inner: Mutex::new(GateInner {
                binder: Binder::new(compiled),
                state: Vec::new(),
                interp: InterpGate::default(),
                stats: AdmissionStats::default(),
            }),
        }
    }

    /// The engine driving validation.
    pub fn engine(&self) -> Engine {
        self.engine
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
        let admitted = match self.engine {
            Engine::Dfa => {
                let id = inner.binder.resolve_cached(sap, primitive, args);
                // Split-borrow dance: edges borrow the binder immutably.
                let GateInner { binder, state, .. } = &mut *inner;
                binder.step_dense(state, binder.edges(id)).is_ok()
            }
            Engine::Interp => {
                let GateInner { binder, interp, .. } = &mut *inner;
                interp.admit(binder.compiled(), sap, primitive, args)
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
    use svckit_model::{Constraint, Direction, PartId, PrimitiveSpec};

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
        let gate = AdmissionGate::new(&service, Engine::Dfa).expect("compiles");
        for _ in 0..ADMISSION_BOUND {
            assert!(gate.admit(&sap(1), "a", &[]));
        }
        assert!(!gate.admit(&sap(1), "a", &[]), "bound reached");
    }
}
