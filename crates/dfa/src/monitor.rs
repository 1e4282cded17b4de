//! The incremental conformance monitor: the service as one automaton,
//! stepped once per recorded occurrence.
//!
//! `svckit_model::conformance::check_trace` assesses a *finished* trace,
//! walking it once per constraint. A [`Monitor`] reaches the same verdict
//! online, one occurrence at a time, from the compiled tables the
//! admission gate uses:
//!
//! * each distinct occurrence is resolved once to its DFA edges and to a
//!   memoized schema-validity bit (known primitive, arity and types,
//!   declared role) — a primitive no constraint mentions has no edges, so
//!   the schema bit is what catches it;
//! * the product state is one dense `u16` per interned slot, stepped in
//!   place (`Binder::step_dense`); a rejected occurrence leaves it
//!   untouched, exactly like the gate;
//! * the index of the first violating occurrence is kept, and at the end
//!   the outstanding `EventuallyFollows` weight answers the liveness
//!   question for a trace that ran to completion.
//!
//! A monitor either owns its binder ([`Monitor::new`]) or borrows the
//! binder of the admission gate that validated the same run
//! ([`Monitor::sharing`]): the gate has then interned every occurrence
//! already, and the run keeps one copy of the interning tables.
//!
//! A monitor that saw no violation and (for a complete trace) holds no
//! outstanding obligation is **clean**, and a clean trace is one
//! `check_trace` finds conformant. The converse holds below the bound
//! the counters were compiled with: past it the monitor rejects an
//! occurrence `check_trace` would still accept ([`Monitor::hit_bound`]),
//! so a flagged run falls back to `check_trace` for its exact violation
//! list. `tests/monitor_oracle.rs` pins all three relations.

use std::sync::Arc;

use svckit_model::{Sap, ServiceDefinition, Value};

use crate::admission::AdmissionGate;
use crate::compile::Compiled;
use crate::runner::Binder;

/// Where a monitor's occurrences are resolved and its slots interned.
#[derive(Debug)]
enum Tables {
    Own(Box<Binder>),
    /// The binder of the gate that validated the same run: one copy of
    /// the interning tables, and every occurrence the gate saw is already
    /// resolved.
    Gate(Arc<AdmissionGate>),
}

/// An online conformance checker for one trace (see the module docs).
#[derive(Debug)]
pub struct Monitor {
    tables: Tables,
    /// Dense product state, one entry per interned slot.
    state: Vec<u16>,
    /// Schema validity of each distinct occurrence, by resolution id,
    /// once seen.
    schema_ok: Vec<Option<bool>>,
    events: usize,
    first_violation: Option<usize>,
    hit_bound: bool,
}

impl Monitor {
    /// A monitor at the start of a trace. The compiled tables are shared
    /// templates: monitors and admission gates over one service can all
    /// hold the same `Arc`.
    pub fn new(compiled: Arc<Compiled>) -> Monitor {
        Monitor::with_tables(Tables::Own(Box::new(Binder::new(compiled))))
    }

    /// A monitor at the start of a trace that resolves occurrences through
    /// `gate`'s binder (and checks against the gate's compiled tables), so
    /// a run whose gate already saw every occurrence interns nothing twice.
    /// The monitor keeps its own product state; the gate's stays
    /// untouched. Observe only while nothing admits through the gate, or
    /// the two contend for its lock.
    pub fn sharing(gate: Arc<AdmissionGate>) -> Monitor {
        Monitor::with_tables(Tables::Gate(gate))
    }

    fn with_tables(tables: Tables) -> Monitor {
        Monitor {
            tables,
            state: Vec::new(),
            schema_ok: Vec::new(),
            events: 0,
            first_violation: None,
            hit_bound: false,
        }
    }

    /// Observes the next occurrence of the trace. Returns whether it was
    /// valid: schema-correct and admitted by every constraint. An
    /// occurrence some constraint rejects leaves the constraint state
    /// unchanged; a schema fault alone does not stop the step, just as
    /// `check_trace` still feeds such an occurrence to the constraints.
    pub fn observe(&mut self, sap: &Sap, primitive: &str, args: &[Value]) -> bool {
        let index = self.events;
        self.events += 1;
        let Monitor {
            tables,
            state,
            schema_ok,
            ..
        } = self;
        let mut step = |binder: &mut Binder| {
            let id = binder.resolve_cached(sap, primitive, args) as usize;
            if id >= schema_ok.len() {
                schema_ok.resize(id + 1, None);
            }
            let schema = *schema_ok[id].get_or_insert_with(|| {
                schema_valid(binder.compiled().service(), sap, primitive, args)
            });
            let edges = binder.edges(id as u32);
            match binder.step_dense(state, edges) {
                Ok(()) => (schema, false),
                Err(rejection) => (false, binder.is_bound_rejection(&edges[rejection.edge])),
            }
        };
        let (valid, bound) = match tables {
            Tables::Own(binder) => step(binder),
            Tables::Gate(gate) => gate.with_binder(step),
        };
        self.hit_bound |= bound;
        if !valid && self.first_violation.is_none() {
            self.first_violation = Some(index);
        }
        valid
    }

    /// Number of occurrences observed.
    pub fn events(&self) -> usize {
        self.events
    }

    /// Index of the first invalid occurrence, if any.
    pub fn first_violation(&self) -> Option<usize> {
        self.first_violation
    }

    /// Outstanding `EventuallyFollows` obligations in the current state.
    pub fn outstanding(&self) -> u32 {
        match &self.tables {
            Tables::Own(binder) => binder.obligations(&self.state),
            Tables::Gate(gate) => gate.with_binder(|binder| binder.obligations(&self.state)),
        }
    }

    /// Whether some occurrence was rejected only for reaching the
    /// obligation bound the tables were compiled with — a rejection trace
    /// checking would not make.
    pub fn hit_bound(&self) -> bool {
        self.hit_bound
    }

    /// Whether the trace so far is clean: no invalid occurrence and, when
    /// it is `complete` (ran to the end of its workload), no outstanding
    /// liveness obligation. A clean trace is conformant.
    pub fn is_clean(&self, complete: bool) -> bool {
        self.first_violation.is_none() && (!complete || self.outstanding() == 0)
    }
}

/// The schema half of conformance: a known primitive with well-typed
/// arguments at an access point of a declared role.
fn schema_valid(service: &ServiceDefinition, sap: &Sap, primitive: &str, args: &[Value]) -> bool {
    service
        .primitive(primitive)
        .is_some_and(|spec| spec.validate_args(args).is_ok())
        && service.role(sap.role()).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::{Constraint, ConstraintScope, Direction, PartId, PrimitiveSpec};

    fn monitor() -> Monitor {
        let service = ServiceDefinition::builder("monitor-test")
            .role("user", 1, 4)
            .primitive(PrimitiveSpec::new("req", Direction::FromUser).param_id("k"))
            .primitive(PrimitiveSpec::new("ack", Direction::ToUser).param_id("k"))
            .constraint(
                Constraint::eventually_follows("req", "ack", ConstraintScope::SameSap).keyed(&[0]),
            )
            .constraint(Constraint::precedes("req", "ack", ConstraintScope::SameSap).keyed(&[0]))
            .build()
            .expect("test service is well-formed");
        Monitor::new(Arc::new(Compiled::compile(&service, 2).expect("compiles")))
    }

    fn user(k: u64) -> Sap {
        Sap::new("user", PartId::new(k))
    }

    #[test]
    fn a_matched_trace_is_clean_and_an_open_one_only_when_cut_off() {
        let mut m = monitor();
        assert!(m.observe(&user(1), "req", &[Value::Id(1)]));
        assert!(!m.is_clean(true), "one request outstanding");
        assert!(m.is_clean(false), "pending, not wrong, in a cut-off run");
        assert!(m.observe(&user(1), "ack", &[Value::Id(1)]));
        assert!(m.is_clean(true));
        assert_eq!((m.events(), m.first_violation()), (2, None));
    }

    #[test]
    fn the_first_violation_is_kept_and_rejections_leave_no_residue() {
        let mut m = monitor();
        assert!(m.observe(&user(1), "req", &[Value::Id(1)]));
        assert!(
            !m.observe(&user(2), "ack", &[Value::Id(1)]),
            "ack before req"
        );
        assert!(!m.observe(&user(1), "nope", &[]), "unknown primitive");
        assert!(m.observe(&user(1), "ack", &[Value::Id(1)]));
        assert_eq!(m.first_violation(), Some(1));
        assert_eq!(m.outstanding(), 0);
        assert!(!m.is_clean(false));
        assert!(!m.hit_bound());
    }

    #[test]
    fn schema_faults_with_no_constraint_edges_still_flag() {
        let mut m = monitor();
        assert!(!m.observe(&user(1), "req", &[]), "wrong arity");
        let mut m = monitor();
        let stranger = Sap::new("admin", PartId::new(1));
        assert!(
            !m.observe(&stranger, "req", &[Value::Id(1)]),
            "undeclared role"
        );
        assert_eq!(m.first_violation(), Some(0));
    }

    #[test]
    fn past_the_compiled_bound_the_monitor_is_stricter() {
        let mut m = monitor();
        for _ in 0..2 {
            assert!(m.observe(&user(1), "req", &[Value::Id(1)]));
        }
        assert!(!m.observe(&user(1), "req", &[Value::Id(1)]));
        assert!(m.hit_bound());
    }
}
