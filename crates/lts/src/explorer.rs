//! The constraint automaton of a service definition.
//!
//! A [`svckit_model::ServiceDefinition`] denotes a (generally infinite)
//! prefix-closed set of allowed traces. Over a *finite universe* of access
//! points and abstract events, and with a bound on outstanding liveness
//! obligations, that set becomes the language of a finite automaton — the
//! [`ServiceExplorer`]. The explorer supports:
//!
//! * stepping a constraint state by one event ([`ServiceExplorer::step`]),
//! * enumerating which events of the universe are allowed next
//!   ([`ServiceExplorer::allowed`]),
//! * unfolding the automaton into an explicit [`Lts`]
//!   ([`ServiceExplorer::to_lts`]), and
//! * verifying an implementation LTS against the service
//!   ([`ServiceExplorer::verify_lts`]) — the state-space generalisation of
//!   single-trace conformance checking.
//!
//! Verification here covers the *safety* part of the constraints (nothing
//! disallowed ever happens, on any path). Liveness on infinite behaviours is
//! out of scope for trace semantics; the trace-level checker in
//! `svckit-model` reports unanswered obligations on finite executions
//! instead.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex, MutexGuard};

use svckit_dfa::{Binder, Compiled, Edge, Engine};
use svckit_ldd::Backend;
use svckit_model::hash::FastMap;
use svckit_model::{Constraint, ConstraintKind, ConstraintScope, Sap, ServiceDefinition, Value};

use crate::lts::{Lts, LtsBuilder, StateId};
use crate::symmetry::{orbit_factor, Symmetry, SymmetryGroups};

use store::StateStore;

mod store;
mod symbolic;

/// An abstract event of the universe: a primitive with concrete arguments at
/// a concrete access point (time-abstracted).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbstractEvent {
    /// The access point.
    pub sap: Sap,
    /// The primitive name.
    pub primitive: String,
    /// The concrete argument values.
    pub args: Vec<Value>,
}

impl AbstractEvent {
    /// Creates an abstract event.
    pub fn new(sap: Sap, primitive: impl Into<String>, args: Vec<Value>) -> Self {
        AbstractEvent {
            sap,
            primitive: primitive.into(),
            args,
        }
    }
}

impl fmt::Display for AbstractEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}!{}(", self.sap, self.primitive)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

type Instance = (Option<Sap>, Vec<Value>);

/// Per-constraint bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum CState {
    /// Balance counters per instance (Precedes, EventuallyFollows,
    /// AtMostOutstanding).
    Counters(BTreeMap<Instance, u32>),
    /// Current holder per key (MutualExclusion).
    Holders(BTreeMap<Vec<Value>, Sap>),
}

/// Engine-specific payload of an [`ExplorerState`]. Both representations
/// denote exactly the same abstract constraint state (the dual-engine
/// equivalence tests pin this); they are never mixed within one explorer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Repr {
    /// Interpreter: one map-backed state per constraint.
    Interp(Vec<Arc<CState>>),
    /// Compiled tables: the searches' `u32` product key, one DFA state
    /// per interned slot, trailing zeros trimmed (slot automata all start
    /// at 0, and the binder interns slots on demand — trimming keeps state
    /// equality independent of how many slots happen to exist when a state
    /// is formed).
    Dfa(Vec<u32>),
}

/// A state of the constraint automaton. Opaque; obtain the initial state
/// from [`ServiceExplorer::initial_state`] and evolve it with
/// [`ServiceExplorer::step`].
///
/// Under the interpreter engine, per-constraint states sit behind [`Arc`]s:
/// stepping a state only deep-copies the constraints the event is relevant
/// to, and every untouched constraint is shared with the predecessor state
/// (copy-on-write). `Arc` delegates `Hash`/`Eq`/`Ord` to the inner value,
/// so sharing is invisible to state comparison and interning. Under the
/// DFA engine, a state is a plain vector of table states.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExplorerState(Repr);

impl ExplorerState {
    /// Whether no obligations are outstanding and nothing is held — the
    /// quiescent states, marked terminal in [`ServiceExplorer::to_lts`].
    /// Enablement markers of [`ConstraintKind::After`] constraints do not
    /// count: having joined is not an obligation.
    pub fn is_quiescent(&self, explorer: &ServiceExplorer<'_>) -> bool {
        match &self.0 {
            Repr::Interp(cstates) => {
                cstates
                    .iter()
                    .zip(explorer.service.constraints())
                    .all(|(cs, constraint)| match cs.as_ref() {
                        CState::Counters(m) => {
                            matches!(constraint.kind(), ConstraintKind::After { .. })
                                || m.values().all(|v| *v == 0)
                        }
                        CState::Holders(h) => h.is_empty(),
                    })
            }
            Repr::Dfa(key) => explorer.dfa_rt().binder.is_quiescent_wide(key),
        }
    }
}

/// Why an event is not allowed in a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepViolation {
    constraint: String,
    message: String,
}

impl StepViolation {
    /// The violated constraint, rendered.
    pub fn constraint(&self) -> &str {
        &self.constraint
    }

    /// Human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for StepViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (violates {})", self.message, self.constraint)
    }
}

impl Error for StepViolation {}

/// Counterexample produced by [`ServiceExplorer::verify_lts`]: the shortest
/// event sequence the implementation can perform that the service forbids.
#[derive(Debug, Clone)]
pub struct SafetyCounterexample {
    trace: Vec<AbstractEvent>,
    violation: StepViolation,
}

impl SafetyCounterexample {
    /// The offending event sequence (the last event is the forbidden one).
    pub fn trace(&self) -> &[AbstractEvent] {
        &self.trace
    }

    /// The constraint violation triggered by the last event.
    pub fn violation(&self) -> &StepViolation {
        &self.violation
    }
}

impl fmt::Display for SafetyCounterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "after <")?;
        for (i, e) in self.trace.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ">: {}", self.violation)
    }
}

impl Error for SafetyCounterexample {}

/// The two primitive names a constraint kind reacts to.
fn constraint_primitives(kind: &ConstraintKind) -> [&str; 2] {
    match kind {
        ConstraintKind::Precedes { earlier, later, .. } => [earlier, later],
        ConstraintKind::After { enabler, then, .. } => [enabler, then],
        ConstraintKind::EventuallyFollows {
            trigger, response, ..
        }
        | ConstraintKind::AtMostOutstanding {
            trigger, response, ..
        } => [trigger, response],
        ConstraintKind::MutualExclusion { acquire, release } => [acquire, release],
    }
}

/// Memoization behind [`ServiceExplorer::allowed`]: per-constraint interned
/// states and per-(state, universe event) pass/fail verdicts.
///
/// A verdict depends only on one constraint's own state and the event, so it
/// is sound to reuse it whenever the same `CState` recurs — and constraint
/// states recur heavily, because most events leave most constraints
/// untouched (the same `Arc` is shared across successive explorer states).
#[derive(Debug, Default)]
struct AllowedCache {
    /// Per-constraint content-based state interning.
    ids: Vec<HashMap<Arc<CState>, u32>>,
    /// Per-constraint `(state id, universe event index) → allowed`.
    verdicts: Vec<HashMap<(u32, u32), bool>>,
}

impl AllowedCache {
    fn new(constraints: usize) -> Self {
        AllowedCache {
            ids: vec![HashMap::new(); constraints],
            verdicts: vec![HashMap::new(); constraints],
        }
    }

    /// Interns one constraint's state by content; equal states (shared or
    /// re-derived) map to the same id.
    fn intern(&mut self, constraint: usize, cstate: &Arc<CState>) -> u32 {
        let ids = &mut self.ids[constraint];
        if let Some(&id) = ids.get(cstate) {
            return id;
        }
        let id = u32::try_from(ids.len()).expect("fewer than 2^32 constraint states");
        ids.insert(Arc::clone(cstate), id);
        id
    }
}

/// Mutable runtime of the DFA engine: the slot binder and the universe's
/// pre-resolved edge lists (index-aligned with the universe). Behind a
/// `Mutex` so the explorer stays `Sync`; [`ServiceExplorer::allowed`] under
/// the DFA engine is one lock plus dense-table loads.
#[derive(Debug)]
struct DfaRt {
    binder: Binder,
    universe_edges: Vec<Vec<Edge>>,
}

/// The constraint automaton of a service over a finite event universe.
#[derive(Debug)]
pub struct ServiceExplorer<'a> {
    service: &'a ServiceDefinition,
    universe: Vec<AbstractEvent>,
    max_outstanding: u32,
    /// The *effective* engine: [`Engine::Dfa`] only when the constraint
    /// set compiled (absurd bounds fall back).
    engine: Engine,
    /// Present exactly when `engine == Engine::Dfa`.
    dfa: Option<Mutex<DfaRt>>,
    /// Primitive name → (ascending) indices of the constraints that react
    /// to it. Every current constraint kind mentions exactly two primitive
    /// names and leaves its state untouched on any other event, so
    /// [`ServiceExplorer::step`] only has to run (and deep-copy) the
    /// constraints listed here.
    relevance: HashMap<String, Vec<usize>>,
    /// The relevance index resolved per universe event: `universe[i]` only
    /// has to satisfy the constraints in `universe_relevance[i]` (empty =
    /// always allowed).
    universe_relevance: Vec<Vec<usize>>,
    /// Verdict memo for [`ServiceExplorer::allowed`]; a `Mutex` (not
    /// `RefCell`) so the explorer stays `Sync`.
    allowed_cache: Mutex<AllowedCache>,
}

impl Clone for ServiceExplorer<'_> {
    /// Clones the automaton; the memoized [`ServiceExplorer::allowed`]
    /// verdicts (and, under the DFA engine, the interned slots) start
    /// empty in the clone.
    fn clone(&self) -> Self {
        ServiceExplorer::with_engine(
            self.service,
            self.universe.clone(),
            self.max_outstanding,
            self.engine,
        )
    }
}

impl<'a> ServiceExplorer<'a> {
    /// Creates an explorer for `service` over the given event universe.
    ///
    /// `max_outstanding` bounds, per constraint instance, how many liveness
    /// obligations (and precedence credits) may accumulate; events that
    /// would exceed the bound are treated as disallowed so that the state
    /// space stays finite.
    pub fn new(
        service: &'a ServiceDefinition,
        universe: Vec<AbstractEvent>,
        max_outstanding: u32,
    ) -> Self {
        Self::with_engine(service, universe, max_outstanding, Engine::default())
    }

    /// Like [`ServiceExplorer::new`], with an explicit [`Engine`].
    ///
    /// [`Engine::Dfa`] compiles the constraint set once into dense
    /// transition tables; bounds too large for dense tables fall back to
    /// [`Engine::Interp`].
    /// Both engines answer every query identically — byte-for-byte, down
    /// to violation messages (the equivalence tests and the proptest
    /// oracle pin this) — so the knob only selects a performance profile.
    pub fn with_engine(
        service: &'a ServiceDefinition,
        universe: Vec<AbstractEvent>,
        max_outstanding: u32,
        engine: Engine,
    ) -> Self {
        let mut relevance: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, constraint) in service.constraints().iter().enumerate() {
            for name in constraint_primitives(constraint.kind()) {
                let entry = relevance.entry(name.to_owned()).or_default();
                // A constraint naming the same primitive twice must still
                // be stepped once.
                if entry.last() != Some(&i) {
                    entry.push(i);
                }
            }
        }
        let universe_relevance: Vec<Vec<usize>> = universe
            .iter()
            .map(|e| relevance.get(&e.primitive).cloned().unwrap_or_default())
            .collect();
        let allowed_cache = Mutex::new(AllowedCache::new(service.constraints().len()));
        let (engine, dfa) = match engine {
            Engine::Dfa => match Compiled::compile(service, max_outstanding) {
                Some(compiled) => {
                    let mut binder = Binder::new(Arc::new(compiled));
                    let universe_edges = universe
                        .iter()
                        .map(|e| binder.resolve(&e.sap, &e.primitive, &e.args))
                        .collect();
                    (
                        Engine::Dfa,
                        Some(Mutex::new(DfaRt {
                            binder,
                            universe_edges,
                        })),
                    )
                }
                None => (Engine::Interp, None),
            },
            Engine::Interp => (Engine::Interp, None),
        };
        ServiceExplorer {
            service,
            universe,
            max_outstanding,
            engine,
            dfa,
            relevance,
            universe_relevance,
            allowed_cache,
        }
    }

    /// The event universe.
    pub fn universe(&self) -> &[AbstractEvent] {
        &self.universe
    }

    /// The effective engine: what [`ServiceExplorer::with_engine`] was
    /// asked for, downgraded to [`Engine::Interp`] when the constraint set
    /// could not be compiled.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The DFA runtime; panics when the engine is the interpreter.
    fn dfa_rt(&self) -> MutexGuard<'_, DfaRt> {
        self.dfa
            .as_ref()
            .expect("DFA state implies a DFA runtime")
            .lock()
            .expect("dfa runtime poisoned")
    }

    /// The initial (empty) constraint state.
    pub fn initial_state(&self) -> ExplorerState {
        match self.engine {
            // All slot automata start at state 0; the canonical trimmed
            // vector of the initial product state is empty.
            Engine::Dfa => ExplorerState(Repr::Dfa(Vec::new())),
            Engine::Interp => ExplorerState(Repr::Interp(
                self.service
                    .constraints()
                    .iter()
                    .map(|c| {
                        Arc::new(match c.kind() {
                            ConstraintKind::MutualExclusion { .. } => {
                                CState::Holders(BTreeMap::new())
                            }
                            _ => CState::Counters(BTreeMap::new()),
                        })
                    })
                    .collect(),
            )),
        }
    }

    fn instance(scope: ConstraintScope, event: &AbstractEvent, key: &[usize]) -> Instance {
        let sap = match scope {
            ConstraintScope::SameSap => Some(event.sap.clone()),
            ConstraintScope::Global => None,
        };
        let k = key
            .iter()
            .map(|&i| event.args.get(i).cloned().unwrap_or(Value::Unit))
            .collect();
        (sap, k)
    }

    fn step_constraint(
        &self,
        constraint: &Constraint,
        cstate: &CState,
        event: &AbstractEvent,
    ) -> Result<CState, StepViolation> {
        let key = constraint.key();
        let violation = |message: String| StepViolation {
            constraint: constraint.to_string(),
            message,
        };
        match (constraint.kind(), cstate) {
            (
                ConstraintKind::Precedes {
                    earlier,
                    later,
                    scope,
                },
                CState::Counters(map),
            ) => {
                let mut map = map.clone();
                if event.primitive == *earlier {
                    let inst = Self::instance(*scope, event, key);
                    let e = map.entry(inst).or_insert(0);
                    if *e >= self.max_outstanding {
                        return Err(violation(format!(
                            "more than {} unmatched `{earlier}` (state-space bound)",
                            self.max_outstanding
                        )));
                    }
                    *e += 1;
                } else if event.primitive == *later {
                    let inst = Self::instance(*scope, event, key);
                    match map.get_mut(&inst) {
                        Some(e) if *e > 0 => {
                            *e -= 1;
                            if *e == 0 {
                                map.remove(&inst);
                            }
                        }
                        _ => {
                            return Err(violation(format!(
                                "`{later}` without a preceding unmatched `{earlier}`"
                            )))
                        }
                    }
                }
                Ok(CState::Counters(map))
            }
            (
                ConstraintKind::After {
                    enabler,
                    then,
                    scope,
                },
                CState::Counters(map),
            ) => {
                let mut map = map.clone();
                if event.primitive == *enabler {
                    // A saturated counter marks "enabled forever".
                    map.insert(Self::instance(*scope, event, key), 1);
                } else if event.primitive == *then
                    && !map.contains_key(&Self::instance(*scope, event, key))
                {
                    return Err(violation(format!("`{then}` before any `{enabler}`")));
                }
                Ok(CState::Counters(map))
            }
            (
                ConstraintKind::EventuallyFollows {
                    trigger,
                    response,
                    scope,
                },
                CState::Counters(map),
            ) => {
                let mut map = map.clone();
                if event.primitive == *trigger {
                    let inst = Self::instance(*scope, event, key);
                    let e = map.entry(inst).or_insert(0);
                    if *e >= self.max_outstanding {
                        return Err(violation(format!(
                            "more than {} outstanding `{trigger}` (state-space bound)",
                            self.max_outstanding
                        )));
                    }
                    *e += 1;
                } else if event.primitive == *response {
                    let inst = Self::instance(*scope, event, key);
                    if let Some(e) = map.get_mut(&inst) {
                        *e = e.saturating_sub(1);
                        if *e == 0 {
                            map.remove(&inst);
                        }
                    }
                }
                Ok(CState::Counters(map))
            }
            (
                ConstraintKind::AtMostOutstanding {
                    trigger,
                    response,
                    limit,
                    scope,
                },
                CState::Counters(map),
            ) => {
                let mut map = map.clone();
                if event.primitive == *trigger {
                    let inst = Self::instance(*scope, event, key);
                    let e = map.entry(inst).or_insert(0);
                    if (*e as usize) >= *limit {
                        return Err(violation(format!(
                            "more than {limit} outstanding `{trigger}`"
                        )));
                    }
                    *e += 1;
                } else if event.primitive == *response {
                    let inst = Self::instance(*scope, event, key);
                    if let Some(e) = map.get_mut(&inst) {
                        *e = e.saturating_sub(1);
                        if *e == 0 {
                            map.remove(&inst);
                        }
                    }
                }
                Ok(CState::Counters(map))
            }
            (ConstraintKind::MutualExclusion { acquire, release }, CState::Holders(map)) => {
                let mut map = map.clone();
                let k: Vec<Value> = key
                    .iter()
                    .map(|&i| event.args.get(i).cloned().unwrap_or(Value::Unit))
                    .collect();
                if event.primitive == *acquire {
                    if let Some(holder) = map.get(&k) {
                        return Err(violation(format!(
                            "`{acquire}` at {} while held by {holder}",
                            event.sap
                        )));
                    }
                    map.insert(k, event.sap.clone());
                } else if event.primitive == *release {
                    match map.get(&k) {
                        Some(holder) if *holder == event.sap => {
                            map.remove(&k);
                        }
                        Some(holder) => {
                            return Err(violation(format!(
                                "`{release}` at {} but holder is {holder}",
                                event.sap
                            )))
                        }
                        None => {
                            return Err(violation(format!(
                                "`{release}` at {} but nothing is held",
                                event.sap
                            )))
                        }
                    }
                }
                Ok(CState::Holders(map))
            }
            // State shape always matches the constraint it was built for.
            _ => unreachable!("constraint state shape mismatch"),
        }
    }

    /// Advances the state by one event.
    ///
    /// # Errors
    ///
    /// Returns the first constraint violation when the event is not allowed
    /// in `state`.
    pub fn step(
        &self,
        state: &ExplorerState,
        event: &AbstractEvent,
    ) -> Result<ExplorerState, StepViolation> {
        let cstates = match &state.0 {
            Repr::Dfa(key) => {
                let mut rt = self.dfa_rt();
                let id = rt
                    .binder
                    .resolve_cached(&event.sap, &event.primitive, &event.args);
                let edges = rt.binder.edges(id);
                let width = edges
                    .iter()
                    .map(|e| e.slot as usize + 1)
                    .max()
                    .unwrap_or(0)
                    .max(key.len());
                // One plain allocation grown from the key: a zeroed one
                // (`vec![0; width]`) costs more per step.
                let mut next = Vec::with_capacity(width);
                next.extend_from_slice(key);
                next.resize(width, 0);
                return match rt.binder.step_wide_into(key, edges, &mut next) {
                    Ok(()) => {
                        while next.last() == Some(&0) {
                            next.pop();
                        }
                        Ok(ExplorerState(Repr::Dfa(next)))
                    }
                    Err(rejection) => {
                        let edge = edges[rejection.edge];
                        Err(StepViolation {
                            constraint: rt.binder.constraint_display(edge.ci as usize).to_owned(),
                            message: rt.binder.violation_message(
                                &edge,
                                rejection.state,
                                &event.sap,
                            ),
                        })
                    }
                };
            }
            Repr::Interp(cstates) => cstates,
        };
        let constraints = self.service.constraints();
        // Start from a shallow copy (refcount bumps) and replace only the
        // constraints the event is relevant to; constraints that step to an
        // unchanged state keep sharing the predecessor's allocation.
        let mut next = cstates.clone();
        if let Some(relevant) = self.relevance.get(&event.primitive) {
            for &i in relevant {
                let stepped = self.step_constraint(&constraints[i], &cstates[i], event)?;
                if *cstates[i] != stepped {
                    next[i] = Arc::new(stepped);
                }
            }
        }
        Ok(ExplorerState(Repr::Interp(next)))
    }

    /// The events of the universe allowed in `state`.
    ///
    /// Under the DFA engine this is a dense-table sweep: per universe
    /// event, one pre-resolved edge list and one table load per relevant
    /// constraint. Under the interpreter it is memoized: each constraint's
    /// pass/fail verdict for a (constraint state, universe event) pair is
    /// computed once per explorer and reused — repeated calls over a run's
    /// states degenerate to interning the (heavily shared) per-constraint
    /// states and integer-keyed lookups. Events whose primitive no
    /// constraint reacts to skip stepping entirely.
    ///
    /// Per query and universe event, exactly one of three obs counters
    /// fires (interpreter engine only): `lts.allowed_prefilter` (no
    /// relevant constraint — the verdict costs nothing),
    /// `lts.allowed_cache_hits` (every relevant verdict was already
    /// memoized), or `lts.allowed_cache_misses` (at least one verdict had
    /// to be computed).
    pub fn allowed(&self, state: &ExplorerState) -> Vec<&AbstractEvent> {
        let cstates = match &state.0 {
            Repr::Dfa(key) => {
                let rt = self.dfa_rt();
                return self
                    .universe
                    .iter()
                    .zip(&rt.universe_edges)
                    .filter(|(_, edges)| rt.binder.allowed(key, edges))
                    .map(|(event, _)| event)
                    .collect();
            }
            Repr::Interp(cstates) => cstates,
        };
        let constraints = self.service.constraints();
        let mut cache = self.allowed_cache.lock().expect("allowed cache poisoned");
        let sids: Vec<u32> = cstates
            .iter()
            .enumerate()
            .map(|(i, cs)| cache.intern(i, cs))
            .collect();
        let mut allowed = Vec::new();
        for (ei, event) in self.universe.iter().enumerate() {
            if self.universe_relevance[ei].is_empty() {
                svckit_obs::obs_count!("lts.allowed_prefilter");
                allowed.push(event);
                continue;
            }
            let mut ok = true;
            let mut computed = false;
            for &ci in &self.universe_relevance[ei] {
                let key = (sids[ci], ei as u32);
                let verdict = match cache.verdicts[ci].get(&key) {
                    Some(&v) => v,
                    None => {
                        computed = true;
                        let v = self
                            .step_constraint(&constraints[ci], &cstates[ci], event)
                            .is_ok();
                        cache.verdicts[ci].insert(key, v);
                        v
                    }
                };
                if !verdict {
                    ok = false;
                    break;
                }
            }
            if computed {
                svckit_obs::obs_count!("lts.allowed_cache_misses");
            } else {
                svckit_obs::obs_count!("lts.allowed_cache_hits");
            }
            if ok {
                allowed.push(event);
            }
        }
        allowed
    }

    /// Unfolds the automaton into an explicit LTS over the universe.
    ///
    /// Quiescent states (no outstanding obligations, nothing held) are
    /// marked terminal. The construction is bounded by `max_states`; when the
    /// bound is hit, the LTS is truncated (remaining frontier states keep
    /// their discovered transitions only).
    pub fn to_lts(&self, max_states: usize) -> Lts<AbstractEvent> {
        // The automaton is a product of small per-constraint automata, so
        // the unfolding runs on a `StepEngine`: per-constraint states and
        // events are interned as integers (interpreter) or dense slot
        // states (DFA), and the BFS works on integer tuples instead of
        // cloning and hashing `BTreeMap`-backed states per edge.
        let mut engine = StepEngine::new(self);
        let event_ids: Vec<u32> = self.universe.iter().map(|e| engine.event_id(e)).collect();
        let mut builder = LtsBuilder::new();
        let init = engine.initial_key();
        let mut store = StateStore::new(init.len());
        // Store id → builder state.
        let mut lts_ids: Vec<StateId> = Vec::new();
        let id0 = builder.add_state("init");
        if engine.is_quiescent(&init) {
            builder.mark_terminal(id0);
        }
        store.insert(&init);
        lts_ids.push(id0);
        let mut queue = VecDeque::from([0u32]);
        let mut key = init;
        let mut next = vec![0; key.len()];
        while let Some(sid) = queue.pop_front() {
            key.copy_from_slice(store.get(sid));
            let from = lts_ids[sid as usize];
            for (event, &eid) in self.universe.iter().zip(&event_ids) {
                if engine.step_into(&key, event, eid, &mut next).is_err() {
                    continue;
                }
                match store.find(&next) {
                    Some(to) => builder.add_transition(from, event.clone(), lts_ids[to as usize]),
                    None => {
                        if store.len() >= max_states {
                            continue;
                        }
                        let to = builder.add_state(format!("q{}", store.len()));
                        if engine.is_quiescent(&next) {
                            builder.mark_terminal(to);
                        }
                        queue.push_back(store.insert(&next));
                        lts_ids.push(to);
                        builder.add_transition(from, event.clone(), to);
                    }
                }
            }
        }
        builder.build(id0)
    }

    /// Verifies that every event sequence the implementation LTS can perform
    /// is allowed by the service (safety).
    ///
    /// # Errors
    ///
    /// Returns the shortest [`SafetyCounterexample`] on failure.
    pub fn verify_lts(
        &self,
        implementation: &Lts<AbstractEvent>,
    ) -> Result<(), SafetyCounterexample> {
        // Service states are product keys (integer tuples) interned behind
        // integer ids, so the `seen` set keys are two integers instead of
        // deep state clones, and the trace to each frontier node is a parent
        // pointer into `nodes` instead of a cloned event vector — the
        // counterexample is only materialised when a violation is found.
        let mut engine = StepEngine::new(self);
        // Fix the slot alphabet up-front: the DFA engine interns slots on
        // first sight of an event, and product keys must keep one width
        // for the whole search. The implementation alphabet is resolved in
        // `BTreeSet` order, which is deterministic.
        if matches!(engine, StepEngine::Dfa(_)) {
            for event in implementation.alphabet() {
                engine.event_id(&event);
            }
        }
        let init = engine.initial_key();
        let mut store = StateStore::new(init.len());
        let cs0 = store.insert(&init);
        // BFS search-tree nodes: (parent node, event taken to get here).
        let mut nodes: Vec<(Option<usize>, Option<AbstractEvent>)> = vec![(None, None)];
        let mut seen: HashSet<(StateId, u32)> = HashSet::new();
        seen.insert((implementation.initial(), cs0));
        let mut queue: VecDeque<(StateId, u32, usize)> =
            VecDeque::from([(implementation.initial(), cs0, 0)]);
        let mut key = init;
        let mut next = vec![0; key.len()];
        while let Some((is, csid, node)) = queue.pop_front() {
            key.copy_from_slice(store.get(csid));
            for (act, t) in implementation.outgoing(is) {
                match act.visible() {
                    None => {
                        // Internal move: constraint state and trace are
                        // unchanged.
                        if seen.insert((*t, csid)) {
                            queue.push_back((*t, csid, node));
                        }
                    }
                    Some(event) => {
                        let eid = engine.event_id(event);
                        match engine.step_into(&key, event, eid, &mut next) {
                            Ok(()) => {
                                let nid = store.intern(&next);
                                if seen.insert((*t, nid)) {
                                    nodes.push((Some(node), Some(event.clone())));
                                    queue.push_back((*t, nid, nodes.len() - 1));
                                }
                            }
                            Err(err) => {
                                let violation = engine.violation(&err, &event.sap);
                                let mut trace = vec![event.clone()];
                                let mut cursor = node;
                                loop {
                                    let (parent, taken) = &nodes[cursor];
                                    if let Some(taken) = taken {
                                        trace.push(taken.clone());
                                    }
                                    match parent {
                                        Some(p) => cursor = *p,
                                        None => break,
                                    }
                                }
                                trace.reverse();
                                return Err(SafetyCounterexample { trace, violation });
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// State-space strategy for [`ServiceExplorer::explore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    /// Expand every enabled event in every state (the plain product BFS,
    /// equivalent to [`ServiceExplorer::to_lts`]'s state space).
    Full,
    /// Ample-set partial-order reduction: in each state, expand only a
    /// stubborn subset of the enabled events whose members commute with
    /// everything outside the subset.
    AmpleSets,
}

impl FromStr for Reduction {
    type Err = String;

    /// Parses a POR setting: `on` is [`Reduction::AmpleSets`], `off` is
    /// [`Reduction::Full`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "on" => Ok(Reduction::AmpleSets),
            "off" => Ok(Reduction::Full),
            other => Err(format!("unknown POR setting `{other}` (on|off)")),
        }
    }
}

/// How many deadlock witness traces [`ServiceExplorer::explore`]
/// materialises (all deadlock states are still *counted*).
pub(crate) const MAX_DEADLOCK_WITNESSES: usize = 4;

/// Options for [`ServiceExplorer::explore`].
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Bound on explored product states; exceeding it sets
    /// [`ExploreReport::truncated`].
    pub max_states: usize,
    /// Reduction strategy.
    pub reduction: Reduction,
    /// Progress-labelled primitives for the divergence check: a reachable
    /// cycle through non-quiescent states that uses none of these
    /// primitives is reported as a livelock.
    pub progress: Vec<String>,
    /// Whether to canonicalize product states under the user-permutation
    /// symmetry group ([`SymmetryGroups::detect`]) before hashing, so the
    /// search explores one representative per orbit. Witness traces are
    /// expanded back to concrete access points; state and deadlock counts
    /// are then quotient-level.
    pub symmetry: Symmetry,
    /// Which reachability backend runs the search. Under
    /// [`Backend::Symbolic`] the state set lives in list decision
    /// diagrams: the search ignores [`ExploreOptions::max_states`],
    /// [`ExploreOptions::reduction`] and [`ExploreOptions::symmetry`]
    /// (the diagram *is* the compression — results equal an untruncated
    /// [`Reduction::Full`]/[`Symmetry::Off`] explicit search), and
    /// witnesses are re-extracted as concrete minimal traces. Exceeding
    /// [`ExploreOptions::ldd_node_limit`] falls back to the explicit
    /// engine with a warning.
    pub backend: Backend,
    /// Node budget for the symbolic backend's unique table, mirroring the
    /// DFA engine's >4096-state interpreter fallback: past this many
    /// interned LDD nodes the symbolic search abandons ship and the
    /// explicit engine re-runs the exploration.
    pub ldd_node_limit: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 100_000,
            reduction: Reduction::AmpleSets,
            progress: Vec::new(),
            symmetry: Symmetry::Off,
            backend: Backend::Explicit,
            ldd_node_limit: 4_194_304,
        }
    }
}

/// A reachable cycle that never performs a progress primitive while
/// liveness obligations are outstanding.
#[derive(Debug, Clone)]
pub struct LivelockWitness {
    /// Events from the initial state to the cycle's entry state.
    pub prefix: Vec<AbstractEvent>,
    /// The cycle's events (non-empty; first event leaves the entry state,
    /// last event returns to it).
    pub cycle: Vec<AbstractEvent>,
}

/// What [`ServiceExplorer::explore`] found.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Product states visited.
    pub states: usize,
    /// Transitions taken (after reduction, when enabled).
    pub transitions: usize,
    /// Whether the state bound was hit (results are then incomplete).
    pub truncated: bool,
    /// Total number of reachable deadlock states (no enabled event).
    pub deadlock_states: usize,
    /// Witness traces to the first deadlock states found, at most four
    /// (breadth-first, so each trace is shortest within the explored
    /// graph). An empty
    /// trace means the *initial* state is dead: the constraint set is
    /// contradictory over this universe.
    pub deadlocks: Vec<Vec<AbstractEvent>>,
    /// Universe events never enabled in any visited state.
    pub never_enabled: Vec<AbstractEvent>,
    /// A livelock witness, when a non-progress cycle exists (see
    /// [`ExploreOptions::progress`]).
    pub livelock: Option<LivelockWitness>,
    /// Ample-set size histogram: `ample_hist[k]` = number of state
    /// expansions whose expanded set (the ample set under
    /// [`Reduction::AmpleSets`], the full enabled set otherwise) had `k`
    /// events. Index 0 stays zero — deadlock states are not expanded.
    /// This is the explorer half of the shared POR-statistics schema
    /// (`svckit-obs`'s `PorStats`).
    pub ample_hist: Vec<u64>,
    /// Orbit representatives stored when symmetry is on (then equal to
    /// [`ExploreReport::states`] — every stored state is the canonical
    /// member of its orbit); 0 when symmetry is off.
    pub orbit_count: usize,
    /// Non-identity canonicalizations performed during the search: how
    /// often a stepped successor was rewritten to a different orbit
    /// representative before hashing.
    pub canon_hits: u64,
    /// Concrete states represented by stored representatives but never
    /// stored: Σ (orbit size − 1) over stored states. Under
    /// [`Reduction::Full`], `states + sym_states_saved` equals the
    /// unquotiented reachable state count exactly (the detected groups are
    /// full symmetric groups, so orbit sizes are `n!/∏ mᵢ!`).
    pub sym_states_saved: u64,
    /// Symbolic backend only: nodes in the final reached-set diagram
    /// (0 under the explicit backend).
    pub ldd_nodes: usize,
    /// Symbolic backend only: high-water unique-table size — every LDD
    /// node interned over the whole search (0 under the explicit backend).
    pub peak_nodes: usize,
    /// Symbolic backend only: operation-cache hits across set operations,
    /// relational products and satcounts (0 under the explicit backend).
    pub cache_hits: u64,
}

impl ExploreReport {
    /// The report's count fields, in the shape
    /// [`ServiceExplorer::explore_counts`] returns.
    pub fn counts(&self) -> ExploreCounts {
        ExploreCounts {
            states: self.states,
            transitions: self.transitions,
            truncated: self.truncated,
            ample_hist: self.ample_hist.clone(),
            orbit_count: self.orbit_count,
            canon_hits: self.canon_hits,
            sym_states_saved: self.sym_states_saved,
            ldd_nodes: self.ldd_nodes,
            peak_nodes: self.peak_nodes,
            cache_hits: self.cache_hits,
        }
    }
}

/// What [`ServiceExplorer::explore_counts`] found: the search-size fields
/// of an [`ExploreReport`], each with the same meaning, and no findings.
///
/// Under the explicit backend every field equals the one
/// [`ServiceExplorer::explore`] reports for the same options. Under
/// [`Backend::Symbolic`] `states`, `transitions`, `truncated` and
/// `ldd_nodes` are equal; `ample_hist` is empty (the histogram is not
/// refined), and `peak_nodes`/`cache_hits` describe the smaller store of a
/// search that builds no witness relations. That smaller store can fit
/// [`ExploreOptions::ldd_node_limit`] where the full search overruns it
/// and falls back to the explicit engine; the counts then describe the
/// completed fixpoint instead of the fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreCounts {
    /// See [`ExploreReport::states`].
    pub states: usize,
    /// See [`ExploreReport::transitions`].
    pub transitions: usize,
    /// See [`ExploreReport::truncated`].
    pub truncated: bool,
    /// See [`ExploreReport::ample_hist`].
    pub ample_hist: Vec<u64>,
    /// See [`ExploreReport::orbit_count`].
    pub orbit_count: usize,
    /// See [`ExploreReport::canon_hits`].
    pub canon_hits: u64,
    /// See [`ExploreReport::sym_states_saved`].
    pub sym_states_saved: u64,
    /// See [`ExploreReport::ldd_nodes`].
    pub ldd_nodes: usize,
    /// See [`ExploreReport::peak_nodes`].
    pub peak_nodes: usize,
    /// See [`ExploreReport::cache_hits`].
    pub cache_hits: u64,
}

/// How much a search records: everything [`ServiceExplorer::explore`]
/// reports, or only what [`ServiceExplorer::explore_counts`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Detail {
    /// Deadlock and livelock witnesses and the never-enabled census too.
    Findings,
    /// Counts only: no search tree, edge list, quiescence marks or
    /// witness replay (explicit), no histogram, inverse relations or
    /// livelock fixpoint (symbolic).
    Counts,
}

impl<'a> ServiceExplorer<'a> {
    /// Per-universe-event dependence closures, as bitsets over universe
    /// indices.
    ///
    /// Two events are *dependent* when some constraint is relevant to both
    /// **at the same constraint instance** (same scope-SAP and key values):
    /// every current constraint kind reads and writes only the map entry of
    /// the event's own instance, so events touching disjoint instances
    /// commute and cannot affect each other's enabledness. The returned
    /// sets are transitive closures of that relation, so for any event `e`
    /// the set contains every event that can (transitively) interact with
    /// it — which makes `closure(e) ∩ enabled` a stubborn set: enabled
    /// members have all their dependents inside, and disabled members can
    /// only be enabled from inside.
    fn dependence_closures(&self) -> Vec<Vec<u64>> {
        let constraints = self.service.constraints();
        let n = self.universe.len();
        // Footprint of each event: the (constraint, instance) entries it
        // reads/writes.
        let footprints: Vec<Vec<(usize, Instance)>> = self
            .universe
            .iter()
            .enumerate()
            .map(|(i, event)| {
                self.universe_relevance[i]
                    .iter()
                    .map(|&ci| {
                        let constraint = &constraints[ci];
                        let scope = match constraint.kind() {
                            ConstraintKind::Precedes { scope, .. }
                            | ConstraintKind::After { scope, .. }
                            | ConstraintKind::EventuallyFollows { scope, .. }
                            | ConstraintKind::AtMostOutstanding { scope, .. } => *scope,
                            // Mutual exclusion keeps one global holder map.
                            ConstraintKind::MutualExclusion { .. } => ConstraintScope::Global,
                        };
                        (ci, Self::instance(scope, event, constraint.key()))
                    })
                    .collect()
            })
            .collect();
        let words = n.div_ceil(64);
        let mut dep = vec![vec![0u64; words]; n];
        for i in 0..n {
            dep[i][i / 64] |= 1 << (i % 64);
            for j in i + 1..n {
                let hit = footprints[i]
                    .iter()
                    .any(|a| footprints[j].iter().any(|b| a == b));
                if hit {
                    dep[i][j / 64] |= 1 << (j % 64);
                    dep[j][i / 64] |= 1 << (i % 64);
                }
            }
        }
        // Transitive closure (the universe is small; O(n·n²/64) is fine).
        let mut closures = dep.clone();
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                let mut acc = closures[i].clone();
                for j in 0..n {
                    if acc[j / 64] >> (j % 64) & 1 == 1 {
                        for w in 0..words {
                            acc[w] |= closures[j][w];
                        }
                    }
                }
                if acc != closures[i] {
                    closures[i] = acc;
                    changed = true;
                }
            }
        }
        closures
    }

    /// Exhaustively explores the reachable product states, reporting
    /// deadlocks (with shortest witness traces), universe events that are
    /// never enabled, and non-progress cycles (livelocks).
    ///
    /// With [`Reduction::AmpleSets`] the search expands, per state, only a
    /// persistent subset of the enabled events (a dependence-closed ample
    /// set computed from the static closure over constraint instances).
    /// Persistent-set reduction preserves **every reachable deadlock** —
    /// events outside the set commute with it and cannot disable it — while
    /// visiting far fewer interleavings. The enabledness census
    /// ([`ExploreReport::never_enabled`]) is taken over the *full* enabled
    /// set of every visited state, and reduced edges are a subset of the
    /// full graph's, so livelock witnesses are never invented, only
    /// potentially missed; reduced/full diagnostic agreement is enforced by
    /// golden tests rather than by a cycle proviso.
    pub fn explore(&self, options: &ExploreOptions) -> ExploreReport {
        self.search(options, Detail::Findings)
    }

    /// The same search as [`ServiceExplorer::explore`] — same options,
    /// same loop, same counts — without what only the findings need: the
    /// search tree, the edge list, the cycle search and witness replay
    /// (explicit), or the histogram, inverse step maps, witness chains
    /// and livelock fixpoint (symbolic). For callers that read only how
    /// big the search was. See [`ExploreCounts`] for which fields match.
    pub fn explore_counts(&self, options: &ExploreOptions) -> ExploreCounts {
        self.search(options, Detail::Counts).counts()
    }

    /// The one search behind [`ServiceExplorer::explore`] and
    /// [`ServiceExplorer::explore_counts`]. Under [`Detail::Counts`] the
    /// report's findings (`deadlocks`, `never_enabled`, `livelock`) stay
    /// empty.
    fn search(&self, options: &ExploreOptions, detail: Detail) -> ExploreReport {
        let findings = detail == Detail::Findings;
        if options.backend == Backend::Symbolic {
            match self.explore_symbolic(options, detail) {
                Some(report) => return report,
                None => eprintln!(
                    "svckit-lts: symbolic backend exceeded the LDD node budget \
                     ({} nodes); falling back to the explicit engine",
                    options.ldd_node_limit
                ),
            }
        }
        let mut engine = StepEngine::new(self);
        let event_ids: Vec<u32> = self.universe.iter().map(|e| engine.event_id(e)).collect();
        // Build the canonicalizer only after every universe event has been
        // interned: the DFA slot set (and mutex holder alphabet) is fixed
        // from here on, so the slot families are complete.
        let mut sym = match options.symmetry {
            Symmetry::On => SymCanon::build(self, &engine),
            Symmetry::Off => None,
        };
        let closures = match options.reduction {
            Reduction::AmpleSets => Some(self.dependence_closures()),
            Reduction::Full => None,
        };
        let n = self.universe.len();

        // Breadth-first tree: state id → (parent state, universe index),
        // with each state's quiescence and every taken edge — the inputs of
        // witness extraction, recorded only when findings are wanted.
        let mut parents: Vec<Option<(u32, u32)>> = Vec::new();
        let mut quiescent: Vec<bool> = Vec::new();
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        let mut transitions = 0usize;
        let mut enabled_ever = vec![false; n];
        let mut deadlock_states = 0usize;
        let mut deadlock_sids: Vec<u32> = Vec::new();
        let mut truncated = false;
        let mut ample_hist: Vec<u64> = Vec::new();
        let mut states_saved = 0u64;

        let mut key = engine.initial_key();
        let width = key.len();
        let init_orbit = match sym.as_mut() {
            Some(sym) => sym.canonical(&mut engine, &mut key).0,
            None => 1,
        };
        states_saved += init_orbit - 1;
        let mut store = StateStore::new(width);
        store.insert(&key);
        if findings {
            parents.push(None);
            quiescent.push(engine.is_quiescent(&key));
        }
        let mut queue: VecDeque<u32> = VecDeque::from([0]);

        let steps_to = |sid: u32, parents: &[Option<(u32, u32)>]| -> Vec<u32> {
            let mut steps = Vec::new();
            let mut cursor = sid;
            while let Some((parent, ei)) = parents[cursor as usize] {
                steps.push(ei);
                cursor = parent;
            }
            steps.reverse();
            steps
        };

        // Per-expansion buffers, reused across states: universe event `i`'s
        // (canonical) successor lives at `succ[i * width..(i + 1) * width]`
        // and its orbit size (1 without symmetry) at `orbits[i]`.
        let mut succ = vec![0u32; n * width];
        let mut orbits = vec![1u64; n];
        let mut enabled: Vec<usize> = Vec::with_capacity(n);
        let mut enabled_bits = vec![0u64; n.div_ceil(64)];
        let mut ample: Vec<usize> = Vec::with_capacity(n);

        while let Some(sid) = queue.pop_front() {
            key.copy_from_slice(store.get(sid));
            enabled.clear();
            for i in 0..n {
                let next = &mut succ[i * width..(i + 1) * width];
                if engine
                    .step_into(&key, &self.universe[i], event_ids[i], next)
                    .is_ok()
                {
                    enabled.push(i);
                    enabled_ever[i] = true;
                    orbits[i] = match sym.as_mut() {
                        Some(sym) => sym.canonical(&mut engine, next).0,
                        None => 1,
                    };
                }
            }
            if enabled.is_empty() {
                deadlock_states += 1;
                if deadlock_sids.len() < MAX_DEADLOCK_WITNESSES {
                    deadlock_sids.push(sid);
                }
                continue;
            }
            let successor = |i: usize| &succ[i * width..(i + 1) * width];
            let mut expand: &[usize] = &enabled;
            if let Some(closures) = &closures {
                // Candidate minimising |closure ∩ enabled| (ties: lowest
                // universe index, for determinism); only the winner's set
                // is materialised.
                enabled_bits.fill(0);
                for &i in &enabled {
                    enabled_bits[i / 64] |= 1 << (i % 64);
                }
                let (mut best, mut best_len) = (enabled[0], usize::MAX);
                for &i in &enabled {
                    let len: u32 = closures[i]
                        .iter()
                        .zip(&enabled_bits)
                        .map(|(c, e)| (c & e).count_ones())
                        .sum();
                    if (len as usize) < best_len {
                        (best, best_len) = (i, len as usize);
                    }
                }
                // Guard against trivial starvation: an ample set whose
                // every transition loops back to this very state would let
                // the search idle forever and ignore the rest of the
                // enabled events (constraint-irrelevant events self-loop;
                // under symmetry, orbit-internal moves count as self-loops
                // too, which only ever forces *more* expansion).
                if best_len < enabled.len() {
                    let closure = &closures[best];
                    ample.clear();
                    ample.extend(
                        enabled
                            .iter()
                            .copied()
                            .filter(|&j| closure[j / 64] >> (j % 64) & 1 == 1),
                    );
                    if !ample.iter().all(|&i| successor(i) == key.as_slice()) {
                        expand = &ample;
                    }
                }
            }
            if ample_hist.len() <= expand.len() {
                ample_hist.resize(expand.len() + 1, 0);
            }
            ample_hist[expand.len()] += 1;
            svckit_obs::obs_count!("lts.states_expanded");
            svckit_obs::obs_record!("lts.ample_size", expand.len());
            for &i in expand {
                let next = successor(i);
                let to = match store.find(next) {
                    Some(to) => to,
                    None => {
                        if store.len() >= options.max_states {
                            truncated = true;
                            continue;
                        }
                        let to = store.insert(next);
                        states_saved += orbits[i] - 1;
                        if findings {
                            quiescent.push(engine.is_quiescent(next));
                            parents.push(Some((sid, i as u32)));
                        }
                        queue.push_back(to);
                        to
                    }
                };
                transitions += 1;
                if findings {
                    edges.push((sid, i as u32, to));
                }
            }
        }

        // Snapshot the search's canonicalization count before witness
        // expansion replays paths (replays canonicalize too, but those
        // hits are bookkeeping, not search work).
        let canon_hits = sym.as_ref().map_or(0, |sym| sym.canon_hits);
        let orbit_count = match options.symmetry {
            Symmetry::On => store.len(),
            Symmetry::Off => 0,
        };
        svckit_obs::obs_count!("lts.states", store.len());
        svckit_obs::obs_count!("lts.transitions", transitions);
        if options.symmetry == Symmetry::On {
            svckit_obs::obs_count!("lts.sym_orbits", orbit_count);
            svckit_obs::obs_count!("lts.sym_canon_hits", canon_hits as usize);
            svckit_obs::obs_count!("lts.sym_states_saved", states_saved as usize);
        }
        let mut report = ExploreReport {
            states: store.len(),
            transitions,
            truncated,
            deadlock_states,
            deadlocks: Vec::new(),
            never_enabled: Vec::new(),
            livelock: None,
            ample_hist,
            orbit_count,
            canon_hits,
            sym_states_saved: states_saved,
            ldd_nodes: 0,
            peak_nodes: 0,
            cache_hits: 0,
        };
        if !findings {
            return report;
        }

        // Orbit-close the enabled marks: an event enabled at any state of
        // an orbit is enabled — under the right renaming — at its
        // representative, so the quotient search only ever observes one
        // image per orbit. Mark the whole event orbit before reporting
        // never-enabled events.
        if let Some(sym) = &sym {
            let mut classes: HashMap<(usize, &String, &Vec<Value>), Vec<usize>> = HashMap::new();
            for (i, event) in self.universe.iter().enumerate() {
                if let Some(&(g, _)) = sym.member_index.get(&event.sap) {
                    classes
                        .entry((g, &event.primitive, &event.args))
                        .or_default()
                        .push(i);
                }
            }
            for indices in classes.values() {
                if indices.iter().any(|&i| enabled_ever[i]) {
                    for &i in indices {
                        enabled_ever[i] = true;
                    }
                }
            }
        }
        report.never_enabled = self
            .universe
            .iter()
            .zip(&enabled_ever)
            .filter(|(_, &seen)| !seen)
            .map(|(e, _)| e.clone())
            .collect();
        for &sid in &deadlock_sids {
            let steps = steps_to(sid, &parents);
            report
                .deadlocks
                .push(self.expand_steps(&mut engine, sym.as_mut(), &steps, &event_ids));
        }
        report.livelock = self
            .find_non_progress_cycle(&edges, &quiescent, &options.progress)
            .map(|(entry, cycle)| {
                let mut steps = steps_to(entry, &parents);
                let prefix_len = steps.len();
                steps.extend(cycle.iter().copied());
                let mut events = self.expand_steps(&mut engine, sym.as_mut(), &steps, &event_ids);
                let cycle = events.split_off(prefix_len);
                LivelockWitness {
                    prefix: events,
                    cycle,
                }
            });
        report
    }

    /// Materialises a path of universe indices recorded on the (possibly
    /// quotient) search tree as a concrete event trace. Without symmetry
    /// this is a plain index lookup. With symmetry the recorded events are
    /// in *canonical* coordinates, so the path is replayed, composing the
    /// renaming each canonicalization applied; every emitted event then
    /// carries the access point of one real execution — the trace replays
    /// verbatim against the unreduced automaton. (A livelock cycle
    /// expanded this way closes modulo symmetry: iterating it keeps
    /// permuting users, which by finiteness still yields an infinite
    /// non-progress behaviour.)
    fn expand_steps(
        &self,
        engine: &mut StepEngine<'_, 'a>,
        sym: Option<&mut SymCanon>,
        steps: &[u32],
        event_ids: &[u32],
    ) -> Vec<AbstractEvent> {
        let Some(sym) = sym else {
            return steps
                .iter()
                .map(|&ei| self.universe[ei as usize].clone())
                .collect();
        };
        // sigma[g][q] = which concrete member of group g the canonical
        // member q currently denotes. The initial canonicalization is the
        // identity (all fragments are empty), so sigma starts there.
        let mut sigma: Vec<Vec<usize>> =
            sym.groups.iter().map(|g| (0..g.len()).collect()).collect();
        let mut key = engine.initial_key();
        sym.canonical(engine, &mut key);
        let mut next = vec![0; key.len()];
        let mut out = Vec::with_capacity(steps.len());
        for &ei in steps {
            let event = &self.universe[ei as usize];
            out.push(match sym.member_index.get(&event.sap) {
                Some(&(g, q)) => AbstractEvent::new(
                    sym.groups[g][sigma[g][q]].clone(),
                    event.primitive.clone(),
                    event.args.clone(),
                ),
                None => event.clone(),
            });
            if engine
                .step_into(&key, event, event_ids[ei as usize], &mut next)
                .is_err()
            {
                unreachable!("recorded search edges step successfully");
            }
            if sym.canonical(engine, &mut next).1 {
                // Canonical member p of the successor is the stepped
                // state's member orders[g][p]: compose the renamings.
                for (g, order) in sym.orders.iter().enumerate() {
                    sigma[g] = order.iter().map(|&src| sigma[g][src]).collect();
                }
            }
            std::mem::swap(&mut key, &mut next);
        }
        out
    }

    /// Finds a cycle in the subgraph of non-quiescent states restricted to
    /// non-progress events. Returns the cycle's entry state and its event
    /// sequence. Deterministic: starts are tried in state order, edges in
    /// insertion (BFS) order.
    fn find_non_progress_cycle(
        &self,
        edges: &[(u32, u32, u32)],
        quiescent: &[bool],
        progress: &[String],
    ) -> Option<(u32, Vec<u32>)> {
        let states = quiescent.len();
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); states];
        for &(from, ei, to) in edges {
            let f = from as usize;
            let t = to as usize;
            if quiescent[f] || quiescent[t] {
                continue;
            }
            let primitive = &self.universe[ei as usize].primitive;
            if progress.iter().any(|p| p == primitive) {
                continue;
            }
            adj[f].push((ei, to));
        }
        // Iterative DFS, colouring states white (0) / on-stack (1) / done
        // (2); a back edge to an on-stack state closes a witness cycle.
        let mut colour = vec![0u8; states];
        for start in 0..states {
            if colour[start] != 0 || adj[start].is_empty() {
                continue;
            }
            // Stack frames: (state, next edge index, event that entered it).
            let mut stack: Vec<(usize, usize, Option<u32>)> = vec![(start, 0, None)];
            colour[start] = 1;
            while let Some(&(node, cursor, _)) = stack.last() {
                if let Some(&(ei, to)) = adj[node].get(cursor) {
                    stack.last_mut().expect("stack is non-empty").1 += 1;
                    let t = to as usize;
                    match colour[t] {
                        0 => {
                            colour[t] = 1;
                            stack.push((t, 0, Some(ei)));
                        }
                        1 => {
                            // Cycle: from t's frame up to `node`, then back.
                            let pos = stack
                                .iter()
                                .position(|&(s, _, _)| s == t)
                                .expect("on-stack state is on the stack");
                            let mut cycle: Vec<u32> = stack[pos + 1..]
                                .iter()
                                .map(|&(_, _, entered)| entered.expect("non-root frame"))
                                .collect();
                            cycle.push(ei);
                            return Some((to, cycle));
                        }
                        _ => {}
                    }
                } else {
                    colour[node] = 2;
                    stack.pop();
                }
            }
        }
        None
    }
}

/// Per-constraint bookkeeping of a [`ProductEngine`]: the constraint's
/// reachable states interned as integers, their quiescence, and memoized
/// transitions per (state, event) pair.
struct ConstraintTable {
    /// Interned per-constraint states, id → state.
    states: Vec<Arc<CState>>,
    /// Content-based reverse index of `states`.
    ids: HashMap<Arc<CState>, u32>,
    /// Whether `states[i]` is quiescent for this constraint.
    quiescent: Vec<bool>,
    /// Memoized `(state id, event id) → step result`.
    trans: FastMap<(u32, u32), Result<u32, StepViolation>>,
}

impl ConstraintTable {
    fn intern(&mut self, constraint: &Constraint, state: CState) -> u32 {
        if let Some(&id) = self.ids.get(&state) {
            return id;
        }
        let id = u32::try_from(self.states.len()).expect("fewer than 2^32 constraint states");
        let state = Arc::new(state);
        self.quiescent.push(cstate_quiescent(constraint, &state));
        self.states.push(Arc::clone(&state));
        self.ids.insert(state, id);
        id
    }
}

/// Whether `cs` is quiescent with respect to its constraint, mirroring
/// [`ExplorerState::is_quiescent`] for one factor of the product.
fn cstate_quiescent(constraint: &Constraint, cs: &CState) -> bool {
    match cs {
        CState::Counters(m) => {
            matches!(constraint.kind(), ConstraintKind::After { .. }) || m.values().all(|v| *v == 0)
        }
        CState::Holders(h) => h.is_empty(),
    }
}

/// The incremental exploration engine behind [`ServiceExplorer::to_lts`] and
/// [`ServiceExplorer::verify_lts`].
///
/// The constraint automaton is a synchronous product of one small automaton
/// per constraint. The engine interns each constraint's reachable states and
/// the events it sees as integers and memoizes per-constraint transitions,
/// so the surrounding search works on integer tuples: stepping a product
/// state is a handful of hash-map probes on integer keys, and deep
/// `BTreeMap` states are only cloned/hashed the first time a
/// (constraint-state, event) pair is encountered.
struct ProductEngine<'x, 'a> {
    explorer: &'x ServiceExplorer<'a>,
    /// Interned events (covers universe events and, during verification,
    /// whatever alphabet the implementation uses).
    event_ids: HashMap<AbstractEvent, u32>,
    tables: Vec<ConstraintTable>,
}

impl<'x, 'a> ProductEngine<'x, 'a> {
    fn new(explorer: &'x ServiceExplorer<'a>) -> Self {
        let constraints = explorer.service.constraints();
        let tables = constraints
            .iter()
            .map(|c| {
                let mut table = ConstraintTable {
                    states: Vec::new(),
                    ids: HashMap::new(),
                    quiescent: Vec::new(),
                    trans: FastMap::default(),
                };
                table.intern(
                    c,
                    match c.kind() {
                        ConstraintKind::MutualExclusion { .. } => CState::Holders(BTreeMap::new()),
                        _ => CState::Counters(BTreeMap::new()),
                    },
                );
                table
            })
            .collect();
        ProductEngine {
            explorer,
            event_ids: HashMap::new(),
            tables,
        }
    }

    /// The product key of the initial state (every constraint in its
    /// interned initial state, id 0).
    fn initial_key(&self) -> Vec<u32> {
        vec![0; self.tables.len()]
    }

    fn event_id(&mut self, event: &AbstractEvent) -> u32 {
        if let Some(&id) = self.event_ids.get(event) {
            return id;
        }
        let id = u32::try_from(self.event_ids.len()).expect("fewer than 2^32 events");
        self.event_ids.insert(event.clone(), id);
        id
    }

    fn is_quiescent(&self, key: &[u32]) -> bool {
        key.iter()
            .zip(&self.tables)
            .all(|(&sid, table)| table.quiescent[sid as usize])
    }

    /// The memoized violation behind an `Err` from [`ProductEngine::step_into`].
    fn violation(&self, constraint: usize, sid: u32, eid: u32) -> StepViolation {
        match &self.tables[constraint].trans[&(sid, eid)] {
            Err(violation) => violation.clone(),
            Ok(_) => unreachable!("step_into reported a violation"),
        }
    }

    /// One constraint's memoized step — the per-level factor of
    /// [`ProductEngine::step_into`], also tabulated level by level by the
    /// symbolic backend. `None` means the constraint rejects the event in
    /// this state.
    fn level_step(&mut self, ci: usize, sid: u32, event: &AbstractEvent, eid: u32) -> Option<u32> {
        if let Some(memo) = self.tables[ci].trans.get(&(sid, eid)) {
            return memo.as_ref().ok().copied();
        }
        let explorer = self.explorer;
        let constraint = &explorer.service.constraints()[ci];
        let current = Arc::clone(&self.tables[ci].states[sid as usize]);
        let computed = explorer
            .step_constraint(constraint, &current, event)
            .map(|stepped| self.tables[ci].intern(constraint, stepped));
        let next = computed.as_ref().ok().copied();
        self.tables[ci].trans.insert((sid, eid), computed);
        next
    }

    /// Steps a product key by one event into `out` (same width).
    /// `Err((constraint index, state id))` identifies the first violated
    /// constraint; fetch the violation with [`ProductEngine::violation`].
    fn step_into(
        &mut self,
        key: &[u32],
        event: &AbstractEvent,
        eid: u32,
        out: &mut [u32],
    ) -> Result<(), (usize, u32)> {
        let relevant = self.explorer.relevance.get(&event.primitive);
        out.copy_from_slice(key);
        for &i in relevant.map_or(&[][..], Vec::as_slice) {
            let sid = key[i];
            match self.level_step(i, sid, event, eid) {
                Some(next) => out[i] = next,
                None => return Err((i, sid)),
            }
        }
        Ok(())
    }

    /// Re-interns `key` in place with every group member's SAP renamed
    /// through the member permutation `orders` (see [`renamed_member`]).
    /// Constraints whose state mentions no renamed SAP keep their interned
    /// id — no allocation, no rebuild.
    fn rename_key(&mut self, key: &mut [u32], groups: &[Vec<Sap>], orders: &[Vec<usize>]) {
        let constraints = self.explorer.service.constraints();
        let rename = |sap: &Sap| renamed_member(groups, orders, sap);
        for (ci, slot) in key.iter_mut().enumerate() {
            let current = Arc::clone(&self.tables[ci].states[*slot as usize]);
            let renamed = match current.as_ref() {
                CState::Counters(map) => {
                    if map
                        .keys()
                        .all(|(owner, _)| owner.as_ref().is_none_or(|sap| rename(sap).is_none()))
                    {
                        continue;
                    }
                    CState::Counters(
                        map.iter()
                            .map(|((owner, k), &count)| {
                                let owner =
                                    owner.as_ref().map(|sap| rename(sap).unwrap_or(sap).clone());
                                ((owner, k.clone()), count)
                            })
                            .collect(),
                    )
                }
                CState::Holders(held) => {
                    if held.values().all(|sap| rename(sap).is_none()) {
                        continue;
                    }
                    CState::Holders(
                        held.iter()
                            .map(|(k, sap)| (k.clone(), rename(sap).unwrap_or(sap).clone()))
                            .collect(),
                    )
                }
            };
            *slot = self.tables[ci].intern(&constraints[ci], renamed);
        }
    }
}

/// The SAP group member `sap` becomes under the member permutation
/// `orders` (canonical position `p` ← member `orders[g][p]`), or `None`
/// when `sap` is no group member or stays put.
fn renamed_member<'g>(groups: &'g [Vec<Sap>], orders: &[Vec<usize>], sap: &Sap) -> Option<&'g Sap> {
    groups.iter().zip(orders).find_map(|(members, order)| {
        let j = members.iter().position(|m| m == sap)?;
        let pos = order
            .iter()
            .position(|&src| src == j)
            .expect("orders permute the whole group");
        (pos != j).then(|| &members[pos])
    })
}

/// Why a [`StepEngine::step_into`] rejected, with enough context to render
/// the [`StepViolation`] lazily (searches only materialise violations for
/// the one counterexample they report).
enum StepErr {
    /// Interpreter: constraint index, its state id, the event id.
    Interp { ci: usize, sid: u32, eid: u32 },
    /// DFA: the rejecting edge and the slot state it was taken from.
    Dfa { edge: Edge, state: u16 },
}

/// The engine behind [`ServiceExplorer::to_lts`],
/// [`ServiceExplorer::verify_lts`] and [`ServiceExplorer::explore`]: the
/// memoizing [`ProductEngine`] under the interpreter, dense-table slot
/// stepping under the DFA engine. Both expose the same integer-keyed
/// search interface, and — because slot states and interned constraint
/// states have exactly the same distinguishing power — the searches visit
/// identical state graphs in identical order under either engine.
enum StepEngine<'x, 'a> {
    Interp(ProductEngine<'x, 'a>),
    /// Holds the explorer's DFA runtime lock for the whole search.
    Dfa(MutexGuard<'x, DfaRt>),
}

impl<'x, 'a> StepEngine<'x, 'a> {
    fn new(explorer: &'x ServiceExplorer<'a>) -> Self {
        match &explorer.dfa {
            Some(_) => StepEngine::Dfa(explorer.dfa_rt()),
            None => StepEngine::Interp(ProductEngine::new(explorer)),
        }
    }

    /// Interns `event`; under the DFA engine this resolves (and caches)
    /// its edge list, interning any new slots.
    fn event_id(&mut self, event: &AbstractEvent) -> u32 {
        match self {
            StepEngine::Interp(engine) => engine.event_id(event),
            StepEngine::Dfa(rt) => {
                rt.binder
                    .resolve_cached(&event.sap, &event.primitive, &event.args)
            }
        }
    }

    /// The fixed-width product key of the initial state. Call after every
    /// event the search will step has been interned ([`StepEngine::event_id`]),
    /// so the width covers every slot.
    fn initial_key(&self) -> Vec<u32> {
        match self {
            StepEngine::Interp(engine) => engine.initial_key(),
            StepEngine::Dfa(rt) => vec![0; rt.binder.slot_count()],
        }
    }

    fn is_quiescent(&self, key: &[u32]) -> bool {
        match self {
            StepEngine::Interp(engine) => engine.is_quiescent(key),
            StepEngine::Dfa(rt) => rt.binder.is_quiescent_wide(key),
        }
    }

    /// Steps `key` by one event into `out` (same width); on `Err` the
    /// contents of `out` are unspecified.
    fn step_into(
        &mut self,
        key: &[u32],
        event: &AbstractEvent,
        eid: u32,
        out: &mut [u32],
    ) -> Result<(), StepErr> {
        match self {
            StepEngine::Interp(engine) => engine
                .step_into(key, event, eid, out)
                .map_err(|(ci, sid)| StepErr::Interp { ci, sid, eid }),
            StepEngine::Dfa(rt) => rt
                .binder
                .step_wide_into(key, rt.binder.edges(eid), out)
                .map_err(|rejection| StepErr::Dfa {
                    edge: rt.binder.edges(eid)[rejection.edge],
                    state: rejection.state,
                }),
        }
    }

    /// Renders the violation behind a [`StepErr`] — byte-identical across
    /// engines.
    fn violation(&self, err: &StepErr, sap: &Sap) -> StepViolation {
        match (self, err) {
            (StepEngine::Interp(engine), StepErr::Interp { ci, sid, eid }) => {
                engine.violation(*ci, *sid, *eid)
            }
            (StepEngine::Dfa(rt), StepErr::Dfa { edge, state }) => StepViolation {
                constraint: rt.binder.constraint_display(edge.ci as usize).to_owned(),
                message: rt.binder.violation_message(edge, *state, sap),
            },
            _ => unreachable!("step error from a different engine"),
        }
    }
}

/// One constraint-instance entry owned by a symmetric-group member — the
/// atom of a member's *state fragment*. A product state over a symmetric
/// group decomposes into one fragment per member plus a renaming-invariant
/// residue (global counters, non-member entries), so permuting members
/// permutes fragments and canonicalization is "sort the fragments".
///
/// The interpreter and DFA variants carry different payloads, but their
/// equality relations coincide (slot states and interned constraint states
/// have the same distinguishing power — the dual-engine equivalence tests
/// pin this), and fragment *ids* are assigned in first-encounter order
/// along identical searches, so both engines sort members identically and
/// pick identical orbit representatives.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum FragAtom {
    /// Interpreter: the member's counter for `(constraint, key)` is at
    /// `count` (zero counters are dropped, so absence means zero).
    Count {
        ci: u32,
        key: Vec<Value>,
        count: u32,
    },
    /// Interpreter: the member holds mutex `ci`'s instance `key`.
    Held { ci: u32, key: Vec<Value> },
    /// DFA: slot family `family` of the member's group (families sorted by
    /// `(constraint, key)`) is at `state` (state 0 entries are dropped,
    /// mirroring the interpreter's dropped zero counters).
    Slot { family: u32, state: u16 },
    /// DFA: the member holds the mutex instance behind `slot`.
    HeldSlot { slot: u32 },
}

/// DFA only: one mutex slot's holder states tabulated against group
/// members at [`SymCanon::build`], so canonicalization reads and rewrites
/// holders with integer lookups alone.
struct MutexSlot {
    slot: u32,
    /// Slot state → the (group, member) it names as holder, `None` for the
    /// free state and for holders outside every group.
    holder: Vec<Option<(usize, usize)>>,
    /// `state_of[g][j]` = the slot state "held by group `g`'s member `j`",
    /// `None` when that member never interned as a holder.
    state_of: Vec<Vec<Option<u16>>>,
}

/// The canonicalizer behind [`ExploreOptions::symmetry`]: detected
/// symmetric groups, the fragment-id interner, (under the DFA engine) the
/// slot families that tie each member's slots together, and the scratch
/// buffers [`SymCanon::canonical`] reuses from call to call.
struct SymCanon {
    /// The detected groups, each sorted by SAP order.
    groups: Vec<Vec<Sap>>,
    /// SAP → (group index, member index within the group).
    member_index: FastMap<Sap, (usize, usize)>,
    /// Fragment → dense id, assigned in first-encounter order. Sorting
    /// members by these ids is the canonical form; discovery order makes
    /// it engine-independent (see [`FragAtom`]).
    frag_ids: FastMap<Vec<FragAtom>, u32>,
    /// DFA only: `dfa_families[g][f][j]` = the slot of group `g`'s member
    /// `j` in family `f` (one family per non-mutex `(constraint, key)`
    /// instance bound to a member, sorted by that pair).
    dfa_families: Vec<Vec<Vec<u32>>>,
    /// DFA only: every mutex slot, ascending.
    dfa_mutex: Vec<MutexSlot>,
    /// Non-identity canonicalizations performed so far.
    canon_hits: u64,
    /// The per-group member orders the last [`SymCanon::canonical`] call
    /// applied: canonical position `p` took the fragment of member
    /// `orders[g][p]`.
    orders: Vec<Vec<usize>>,
    /// Scratch: the fragment being built, the current group's fragment
    /// ids, those ids in canonical order, and a copy of the key being
    /// permuted.
    frag: Vec<FragAtom>,
    frags: Vec<u32>,
    sorted: Vec<u32>,
    source: Vec<u32>,
}

impl SymCanon {
    /// Builds the canonicalizer, or `None` when the detected groups are
    /// trivial. Call only after every universe event has been interned
    /// into `engine` — the DFA slot set and mutex holder alphabet must be
    /// complete.
    fn build(explorer: &ServiceExplorer<'_>, engine: &StepEngine<'_, '_>) -> Option<SymCanon> {
        let detected = SymmetryGroups::detect(&explorer.universe);
        if detected.is_trivial() {
            return None;
        }
        let groups: Vec<Vec<Sap>> = detected.groups().to_vec();
        let mut member_index: FastMap<Sap, (usize, usize)> = FastMap::default();
        for (g, members) in groups.iter().enumerate() {
            for (j, sap) in members.iter().enumerate() {
                member_index.insert(sap.clone(), (g, j));
            }
        }
        let (dfa_families, dfa_mutex) = match engine {
            StepEngine::Dfa(rt) => {
                // Per group: (constraint, key) family → the member-indexed
                // slots, `None` until that member's slot interns.
                type Families = BTreeMap<(usize, Vec<Value>), Vec<Option<u32>>>;
                let mut families: Vec<Families> = vec![BTreeMap::new(); groups.len()];
                let mut mutexes: Vec<MutexSlot> = Vec::new();
                for (slot, (ci, (owner, key))) in rt.binder.slot_instances().into_iter().enumerate()
                {
                    let slot = u32::try_from(slot).expect("slot count fits u32");
                    if rt.binder.is_mutex(ci) {
                        let holder = (0..rt.binder.slot_nstates(slot))
                            .map(|state| {
                                let sap = rt.binder.mutex_holder_of(ci, state)?;
                                member_index.get(&sap).copied()
                            })
                            .collect();
                        let state_of = groups
                            .iter()
                            .map(|members| {
                                members
                                    .iter()
                                    .map(|sap| rt.binder.mutex_holder_state(ci, sap))
                                    .collect()
                            })
                            .collect();
                        mutexes.push(MutexSlot {
                            slot,
                            holder,
                            state_of,
                        });
                    } else if let Some(&(g, j)) =
                        owner.as_ref().and_then(|sap| member_index.get(sap))
                    {
                        let width = groups[g].len();
                        families[g]
                            .entry((ci, key))
                            .or_insert_with(|| vec![None; width])[j] = Some(slot);
                    }
                }
                let families: Vec<Vec<Vec<u32>>> = families
                    .into_iter()
                    .map(|group_families| {
                        group_families
                            .into_values()
                            .map(|members| {
                                members
                                    .into_iter()
                                    .map(|slot| {
                                        // Group members have identical event
                                        // sets, so resolving the universe
                                        // interned the analogous slot at
                                        // every member.
                                        slot.expect("symmetric members intern symmetric slots")
                                    })
                                    .collect()
                            })
                            .collect()
                    })
                    .collect();
                (families, mutexes)
            }
            StepEngine::Interp(_) => (Vec::new(), Vec::new()),
        };
        let orders = vec![Vec::new(); groups.len()];
        Some(SymCanon {
            groups,
            member_index,
            frag_ids: FastMap::default(),
            dfa_families,
            dfa_mutex,
            canon_hits: 0,
            orders,
            frag: Vec::new(),
            frags: Vec::new(),
            sorted: Vec::new(),
            source: Vec::new(),
        })
    }

    /// Rewrites `key` in place to its orbit representative. Returns the
    /// orbit's size and whether the canonicalization was not the identity
    /// — in which case [`SymCanon::orders`] holds the member orders
    /// applied.
    ///
    /// The representative is well-defined on orbits: permuting members
    /// permutes the fragment multiset, and "position `p` gets the `p`-th
    /// smallest fragment" lands every orbit member on the same state. Ties
    /// (equal fragments) are broken stably by member index, which cannot
    /// change the resulting state — tied fragments are identical. Applying
    /// the form twice is the identity, since sorted fragments stay sorted.
    fn canonical(&mut self, engine: &mut StepEngine<'_, '_>, key: &mut [u32]) -> (u64, bool) {
        let mut orbit = 1u64;
        let mut identity = true;
        for g in 0..self.groups.len() {
            let members = self.groups[g].len();
            self.frags.clear();
            for j in 0..members {
                member_frag(
                    engine,
                    &self.groups,
                    &self.dfa_families,
                    &self.dfa_mutex,
                    g,
                    j,
                    key,
                    &mut self.frag,
                );
                let id = match self.frag_ids.get(self.frag.as_slice()) {
                    Some(&id) => id,
                    None => {
                        let id =
                            u32::try_from(self.frag_ids.len()).expect("fewer than 2^32 fragments");
                        self.frag_ids.insert(self.frag.clone(), id);
                        id
                    }
                };
                self.frags.push(id);
            }
            let frags = &self.frags;
            let order = &mut self.orders[g];
            order.clear();
            order.extend(0..members);
            order.sort_by_key(|&j| frags[j]);
            identity &= order.iter().enumerate().all(|(pos, &src)| pos == src);
            self.sorted.clear();
            self.sorted.extend(order.iter().map(|&j| frags[j]));
            orbit = orbit.saturating_mul(orbit_factor(&self.sorted));
        }
        if identity {
            return (orbit, false);
        }
        self.canon_hits += 1;
        match engine {
            StepEngine::Interp(product) => product.rename_key(key, &self.groups, &self.orders),
            StepEngine::Dfa(_) => {
                self.source.clear();
                self.source.extend_from_slice(key);
                permute_slots(
                    &self.dfa_families,
                    &self.dfa_mutex,
                    &self.orders,
                    &self.source,
                    key,
                );
            }
        }
        (orbit, true)
    }
}

/// Writes the state fragment of group `g`'s member `j` in product state
/// `key` into `frag`. Deterministic within each engine (constraint order,
/// then `BTreeMap` / family order), so equal fragments produce equal
/// vectors.
#[allow(clippy::too_many_arguments)]
fn member_frag(
    engine: &StepEngine<'_, '_>,
    groups: &[Vec<Sap>],
    dfa_families: &[Vec<Vec<u32>>],
    dfa_mutex: &[MutexSlot],
    g: usize,
    j: usize,
    key: &[u32],
    frag: &mut Vec<FragAtom>,
) {
    frag.clear();
    match engine {
        StepEngine::Interp(product) => {
            let sap = &groups[g][j];
            for (ci, &sid) in key.iter().enumerate() {
                match product.tables[ci].states[sid as usize].as_ref() {
                    CState::Counters(map) => {
                        for ((owner, k), &count) in map {
                            if owner.as_ref() == Some(sap) {
                                frag.push(FragAtom::Count {
                                    ci: ci as u32,
                                    key: k.clone(),
                                    count,
                                });
                            }
                        }
                    }
                    CState::Holders(held) => {
                        for (k, holder) in held {
                            if holder == sap {
                                frag.push(FragAtom::Held {
                                    ci: ci as u32,
                                    key: k.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
        StepEngine::Dfa(_) => {
            for (f, family) in dfa_families[g].iter().enumerate() {
                let state = key[family[j] as usize];
                if state != 0 {
                    frag.push(FragAtom::Slot {
                        family: f as u32,
                        state: state as u16,
                    });
                }
            }
            for mutex in dfa_mutex {
                let state = key[mutex.slot as usize] as usize;
                if mutex.holder.get(state).copied().flatten() == Some((g, j)) {
                    frag.push(FragAtom::HeldSlot { slot: mutex.slot });
                }
            }
        }
    }
}

/// DFA engine: writes `source` with the member permutation `orders`
/// (canonical position `p` ← member `orders[g][p]`) applied into `key` —
/// slot states move along each family, and held mutex slots are rewritten
/// to the renamed holder's state. Slots outside every family and mutex
/// keep their value, so `key` must start as a copy of `source`.
fn permute_slots(
    dfa_families: &[Vec<Vec<u32>>],
    dfa_mutex: &[MutexSlot],
    orders: &[Vec<usize>],
    source: &[u32],
    key: &mut [u32],
) {
    for (families, order) in dfa_families.iter().zip(orders) {
        for family in families {
            for (pos, &src) in order.iter().enumerate() {
                key[family[pos] as usize] = source[family[src] as usize];
            }
        }
    }
    for mutex in dfa_mutex {
        let state = source[mutex.slot as usize] as usize;
        let Some((g, j)) = mutex.holder.get(state).copied().flatten() else {
            continue;
        };
        let pos = orders[g]
            .iter()
            .position(|&src| src == j)
            .expect("orders permute the whole group");
        if pos != j {
            let renamed =
                mutex.state_of[g][pos].expect("group members share the mutex holder alphabet");
            key[mutex.slot as usize] = u32::from(renamed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::{Direction, PartId, PrimitiveSpec};

    fn floor_control() -> ServiceDefinition {
        ServiceDefinition::builder("floor-control")
            .role("subscriber", 2, usize::MAX)
            .primitive(PrimitiveSpec::new("request", Direction::FromUser).param_id("resid"))
            .primitive(PrimitiveSpec::new("granted", Direction::ToUser).param_id("resid"))
            .primitive(PrimitiveSpec::new("free", Direction::FromUser).param_id("resid"))
            .constraint(
                Constraint::eventually_follows("request", "granted", ConstraintScope::SameSap)
                    .keyed(&[0]),
            )
            .constraint(
                Constraint::precedes("request", "granted", ConstraintScope::SameSap).keyed(&[0]),
            )
            .constraint(
                Constraint::precedes("granted", "free", ConstraintScope::SameSap).keyed(&[0]),
            )
            .constraint(Constraint::mutual_exclusion("granted", "free").keyed(&[0]))
            .build()
            .unwrap()
    }

    fn universe(saps: u64, resources: u64) -> Vec<AbstractEvent> {
        let mut events = Vec::new();
        for s in 1..=saps {
            for r in 1..=resources {
                let sap = Sap::new("subscriber", PartId::new(s));
                for prim in ["request", "granted", "free"] {
                    events.push(AbstractEvent::new(sap.clone(), prim, vec![Value::Id(r)]));
                }
            }
        }
        events
    }

    #[test]
    fn initial_state_allows_requests_only() {
        let svc = floor_control();
        let explorer = ServiceExplorer::new(&svc, universe(2, 1), 1);
        let state = explorer.initial_state();
        assert!(state.is_quiescent(&explorer));
        let allowed = explorer.allowed(&state);
        assert_eq!(allowed.len(), 2); // request at each of the two SAPs
        assert!(allowed.iter().all(|e| e.primitive == "request"));
    }

    #[test]
    fn step_tracks_grant_and_exclusion() {
        let svc = floor_control();
        let explorer = ServiceExplorer::new(&svc, universe(2, 1), 1);
        let s1 = Sap::new("subscriber", PartId::new(1));
        let s2 = Sap::new("subscriber", PartId::new(2));
        let req1 = AbstractEvent::new(s1.clone(), "request", vec![Value::Id(1)]);
        let req2 = AbstractEvent::new(s2.clone(), "request", vec![Value::Id(1)]);
        let grant1 = AbstractEvent::new(s1.clone(), "granted", vec![Value::Id(1)]);
        let grant2 = AbstractEvent::new(s2.clone(), "granted", vec![Value::Id(1)]);
        let free1 = AbstractEvent::new(s1, "free", vec![Value::Id(1)]);

        let st = explorer.initial_state();
        let st = explorer.step(&st, &req1).unwrap();
        let st = explorer.step(&st, &req2).unwrap();
        let st = explorer.step(&st, &grant1).unwrap();
        // second grant while held is forbidden
        let err = explorer.step(&st, &grant2).unwrap_err();
        assert!(err.message().contains("while held"), "{err}");
        // after free, the other subscriber may be granted
        let st = explorer.step(&st, &free1).unwrap();
        let st = explorer.step(&st, &grant2).unwrap();
        assert!(!st.is_quiescent(&explorer)); // subscriber 2 still holds resource 1
    }

    #[test]
    fn cached_allowed_matches_naive_stepping_along_a_walk() {
        let svc = floor_control();
        let explorer = ServiceExplorer::new(&svc, universe(3, 2), 2);
        // Walk a few hundred states depth-first, comparing the memoized
        // `allowed()` against naively stepping every universe event — both
        // on first sight of a state and on revisits (cache hits).
        let mut stack = vec![explorer.initial_state()];
        let mut visited = 0;
        while let Some(state) = stack.pop() {
            if visited >= 300 {
                break;
            }
            visited += 1;
            let naive: Vec<&AbstractEvent> = explorer
                .universe()
                .iter()
                .filter(|e| explorer.step(&state, e).is_ok())
                .collect();
            let cached = explorer.allowed(&state);
            assert_eq!(cached, naive);
            assert_eq!(cached, explorer.allowed(&state)); // hit path
            for event in cached {
                stack.push(explorer.step(&state, event).unwrap());
            }
        }
        assert!(visited >= 100, "walk covered only {visited} states");
    }

    #[test]
    fn cloned_explorer_answers_identically() {
        let svc = floor_control();
        let explorer = ServiceExplorer::new(&svc, universe(2, 1), 1);
        let state = explorer.initial_state();
        let warm = explorer.allowed(&state); // populate the cache
        let clone = explorer.clone();
        assert_eq!(clone.allowed(&state), warm);
    }

    #[test]
    fn to_lts_is_finite_and_has_terminal_initial() {
        let svc = floor_control();
        let explorer = ServiceExplorer::new(&svc, universe(2, 1), 1);
        let lts = explorer.to_lts(10_000);
        assert!(lts.state_count() > 1);
        assert!(lts.is_terminal(lts.initial()));
        // The service language never deadlocks: requests are always possible
        // in quiescent states.
        assert!(lts.deadlocks().is_empty());
    }

    #[test]
    fn verify_lts_accepts_legal_implementation() {
        let svc = floor_control();
        let explorer = ServiceExplorer::new(&svc, universe(1, 1), 1);
        let sap = Sap::new("subscriber", PartId::new(1));
        let mut b = LtsBuilder::new();
        let s0 = b.add_state("idle");
        let s1 = b.add_state("requested");
        let s2 = b.add_state("held");
        b.add_transition(
            s0,
            AbstractEvent::new(sap.clone(), "request", vec![Value::Id(1)]),
            s1,
        );
        b.add_transition(
            s1,
            AbstractEvent::new(sap.clone(), "granted", vec![Value::Id(1)]),
            s2,
        );
        b.add_transition(s2, AbstractEvent::new(sap, "free", vec![Value::Id(1)]), s0);
        let imp = b.build(s0);
        assert!(explorer.verify_lts(&imp).is_ok());
    }

    #[test]
    fn verify_lts_finds_shortest_violation() {
        let svc = floor_control();
        let explorer = ServiceExplorer::new(&svc, universe(1, 1), 1);
        let sap = Sap::new("subscriber", PartId::new(1));
        let mut b = LtsBuilder::new();
        let s0 = b.add_state("idle");
        let s1 = b.add_state("bad");
        // grant without request
        b.add_transition(
            s0,
            AbstractEvent::new(sap, "granted", vec![Value::Id(1)]),
            s1,
        );
        let imp = b.build(s0);
        let err = explorer.verify_lts(&imp).unwrap_err();
        assert_eq!(err.trace().len(), 1);
        assert!(err.to_string().contains("granted"), "{err}");
    }

    #[test]
    fn bound_limits_outstanding_requests() {
        let svc = floor_control();
        let explorer = ServiceExplorer::new(&svc, universe(1, 1), 1);
        let sap = Sap::new("subscriber", PartId::new(1));
        let req = AbstractEvent::new(sap, "request", vec![Value::Id(1)]);
        let st = explorer.initial_state();
        let st = explorer.step(&st, &req).unwrap();
        let err = explorer.step(&st, &req).unwrap_err();
        assert!(err.message().contains("state-space bound"), "{err}");
    }

    fn sorted_events(events: &[AbstractEvent]) -> Vec<String> {
        let mut v: Vec<String> = events.iter().map(|e| e.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn explore_full_matches_to_lts_state_count() {
        let svc = floor_control();
        let explorer = ServiceExplorer::new(&svc, universe(2, 2), 1);
        let lts = explorer.to_lts(100_000);
        let report = explorer.explore(&ExploreOptions {
            reduction: Reduction::Full,
            progress: vec!["granted".into()],
            ..ExploreOptions::default()
        });
        assert!(!report.truncated);
        assert_eq!(report.states, lts.state_count());
        assert_eq!(report.deadlock_states, 0);
        assert!(report.never_enabled.is_empty());
        assert!(report.livelock.is_none());
    }

    #[test]
    fn ample_sets_shrink_the_state_space_and_agree_on_diagnostics() {
        let svc = floor_control();
        let explorer = ServiceExplorer::new(&svc, universe(3, 2), 1);
        let full = explorer.explore(&ExploreOptions {
            reduction: Reduction::Full,
            progress: vec!["granted".into()],
            ..ExploreOptions::default()
        });
        let reduced = explorer.explore(&ExploreOptions {
            reduction: Reduction::AmpleSets,
            progress: vec!["granted".into()],
            ..ExploreOptions::default()
        });
        assert!(!full.truncated && !reduced.truncated);
        assert!(
            reduced.states < full.states,
            "no reduction: {} vs {}",
            reduced.states,
            full.states
        );
        assert_eq!(full.deadlock_states, reduced.deadlock_states);
        assert_eq!(
            sorted_events(&full.never_enabled),
            sorted_events(&reduced.never_enabled)
        );
        assert_eq!(full.livelock.is_some(), reduced.livelock.is_some());
    }

    #[test]
    fn contradictory_constraints_deadlock_at_the_initial_state() {
        // `a` may only happen after `b` and `b` only after `a`: nothing is
        // ever enabled.
        let svc = ServiceDefinition::builder("contradiction")
            .role("user", 1, usize::MAX)
            .primitive(PrimitiveSpec::new("a", Direction::FromUser))
            .primitive(PrimitiveSpec::new("b", Direction::FromUser))
            .constraint(Constraint::after("b", "a", ConstraintScope::SameSap))
            .constraint(Constraint::after("a", "b", ConstraintScope::SameSap))
            .build()
            .unwrap();
        let sap = Sap::new("user", PartId::new(1));
        let universe = vec![
            AbstractEvent::new(sap.clone(), "a", vec![]),
            AbstractEvent::new(sap, "b", vec![]),
        ];
        for reduction in [Reduction::Full, Reduction::AmpleSets] {
            let explorer = ServiceExplorer::new(&svc, universe.clone(), 1);
            let report = explorer.explore(&ExploreOptions {
                reduction,
                ..ExploreOptions::default()
            });
            assert_eq!(report.states, 1);
            assert_eq!(report.deadlock_states, 1);
            assert_eq!(report.deadlocks, vec![Vec::<AbstractEvent>::new()]);
            assert_eq!(report.never_enabled.len(), 2);
        }
    }

    #[test]
    fn non_progress_cycle_is_reported_as_livelock() {
        // After `start`, an obligation to `finish` is outstanding, but the
        // unconstrained `spin` can loop forever without progress.
        let svc = ServiceDefinition::builder("spinner")
            .role("user", 1, usize::MAX)
            .primitive(PrimitiveSpec::new("start", Direction::FromUser))
            .primitive(PrimitiveSpec::new("spin", Direction::FromUser))
            .primitive(PrimitiveSpec::new("finish", Direction::ToUser))
            .constraint(Constraint::eventually_follows(
                "start",
                "finish",
                ConstraintScope::SameSap,
            ))
            .build()
            .unwrap();
        let sap = Sap::new("user", PartId::new(1));
        let universe = vec![
            AbstractEvent::new(sap.clone(), "start", vec![]),
            AbstractEvent::new(sap.clone(), "spin", vec![]),
            AbstractEvent::new(sap, "finish", vec![]),
        ];
        for reduction in [Reduction::Full, Reduction::AmpleSets] {
            let explorer = ServiceExplorer::new(&svc, universe.clone(), 1);
            let report = explorer.explore(&ExploreOptions {
                reduction,
                progress: vec!["finish".into()],
                ..ExploreOptions::default()
            });
            let witness = report.livelock.expect("spin loop is a livelock");
            assert!(witness.cycle.iter().all(|e| e.primitive == "spin"));
            assert!(witness.prefix.iter().any(|e| e.primitive == "start"));
            // Without the progress label the same cycle is just idling.
            let relaxed = explorer.explore(&ExploreOptions {
                reduction,
                progress: vec!["finish".into(), "spin".into()],
                ..ExploreOptions::default()
            });
            assert!(relaxed.livelock.is_none());
        }
    }

    #[test]
    fn truncated_exploration_is_flagged() {
        let svc = floor_control();
        let explorer = ServiceExplorer::new(&svc, universe(3, 2), 1);
        let report = explorer.explore(&ExploreOptions {
            max_states: 10,
            reduction: Reduction::Full,
            ..ExploreOptions::default()
        });
        assert!(report.truncated);
        assert_eq!(report.states, 10);
    }

    /// Walks a few hundred states under both engines, comparing every
    /// query surface: allowed sets, step verdicts (including the exact
    /// violation strings) and quiescence.
    #[test]
    fn engines_agree_on_every_query_along_a_walk() {
        let svc = floor_control();
        let dfa = ServiceExplorer::with_engine(&svc, universe(3, 2), 2, Engine::Dfa);
        let interp = ServiceExplorer::with_engine(&svc, universe(3, 2), 2, Engine::Interp);
        assert_eq!(dfa.engine(), Engine::Dfa);
        assert_eq!(interp.engine(), Engine::Interp);
        let mut stack = vec![(dfa.initial_state(), interp.initial_state())];
        let mut visited = 0;
        while let Some((ds, is)) = stack.pop() {
            if visited >= 300 {
                break;
            }
            visited += 1;
            assert_eq!(dfa.allowed(&ds), interp.allowed(&is));
            assert_eq!(ds.is_quiescent(&dfa), is.is_quiescent(&interp));
            for event in dfa.universe() {
                match (dfa.step(&ds, event), interp.step(&is, event)) {
                    (Ok(dn), Ok(inn)) => stack.push((dn, inn)),
                    (Err(de), Err(ie)) => {
                        assert_eq!(de.constraint(), ie.constraint(), "at {event}");
                        assert_eq!(de.message(), ie.message(), "at {event}");
                    }
                    (d, i) => panic!("engines disagree at {event}: {d:?} vs {i:?}"),
                }
            }
        }
        assert!(visited >= 100, "walk covered only {visited} states");
    }

    /// The whole-automaton surfaces — `to_lts`, `explore` (both
    /// reductions) and `verify_lts` counterexamples — must be identical
    /// across engines, down to state numbering and rendered violations.
    #[test]
    fn engines_produce_identical_lts_explore_and_verify_results() {
        let svc = floor_control();
        let dfa = ServiceExplorer::with_engine(&svc, universe(2, 2), 1, Engine::Dfa);
        let interp = ServiceExplorer::with_engine(&svc, universe(2, 2), 1, Engine::Interp);
        assert_eq!(
            dfa.to_lts(100_000).to_dot("g"),
            interp.to_lts(100_000).to_dot("g")
        );
        for reduction in [Reduction::Full, Reduction::AmpleSets] {
            let options = ExploreOptions {
                reduction,
                progress: vec!["granted".into()],
                ..ExploreOptions::default()
            };
            assert_eq!(
                format!("{:?}", dfa.explore(&options)),
                format!("{:?}", interp.explore(&options))
            );
        }
        // An implementation that grants without request, then releases at
        // the wrong SAP: both engines report the same shortest trace and
        // the same rendered violation.
        let s1 = Sap::new("subscriber", PartId::new(1));
        let mut b = LtsBuilder::new();
        let s0 = b.add_state("idle");
        let bad = b.add_state("bad");
        b.add_transition(
            s0,
            AbstractEvent::new(s1.clone(), "request", vec![Value::Id(1)]),
            bad,
        );
        b.add_transition(
            bad,
            AbstractEvent::new(s1.clone(), "granted", vec![Value::Id(2)]),
            s0,
        );
        let imp = b.build(s0);
        let de = dfa.verify_lts(&imp).unwrap_err();
        let ie = interp.verify_lts(&imp).unwrap_err();
        assert_eq!(de.to_string(), ie.to_string());
        assert_eq!(de.trace(), ie.trace());
    }

    #[test]
    fn absurd_bounds_fall_back_to_the_interpreter_engine() {
        let svc = floor_control();
        let explorer = ServiceExplorer::with_engine(&svc, universe(1, 1), 1 << 20, Engine::Dfa);
        assert_eq!(explorer.engine(), Engine::Interp);
        // The fallback still answers (and its clone keeps the fallback).
        assert_eq!(explorer.allowed(&explorer.initial_state()).len(), 1);
        assert_eq!(explorer.clone().engine(), Engine::Interp);
    }

    /// Regression test for the `allowed()` counter accounting: exactly one
    /// of prefilter/hit/miss fires per (query, universe event) — events no
    /// constraint reacts to must count as prefilter passes, not as cache
    /// hits. Runs in both feature modes: with obs sites disabled every
    /// counter reads zero.
    #[test]
    fn allowed_counters_fire_once_per_event_and_query() {
        let svc = floor_control();
        let mut events = universe(1, 1); // request/granted/free: constrained
        events.push(AbstractEvent::new(
            Sap::new("subscriber", PartId::new(1)),
            "ping",
            vec![],
        ));
        let explorer = ServiceExplorer::with_engine(&svc, events, 1, Engine::Interp);
        let state = explorer.initial_state();
        let on = u64::from(svckit_obs::sites_enabled());
        let ((), cold) = svckit_obs::with_recorder(svckit_obs::Recorder::new(), || {
            explorer.allowed(&state);
        });
        assert_eq!(cold.counter("lts.allowed_prefilter"), on);
        assert_eq!(cold.counter("lts.allowed_cache_misses"), 3 * on);
        assert_eq!(cold.counter("lts.allowed_cache_hits"), 0);
        let ((), warm) = svckit_obs::with_recorder(svckit_obs::Recorder::new(), || {
            explorer.allowed(&state);
        });
        assert_eq!(warm.counter("lts.allowed_prefilter"), on);
        assert_eq!(warm.counter("lts.allowed_cache_hits"), 3 * on);
        assert_eq!(warm.counter("lts.allowed_cache_misses"), 0);
    }

    #[test]
    fn abstract_event_display_is_readable() {
        let e = AbstractEvent::new(
            Sap::new("subscriber", PartId::new(1)),
            "request",
            vec![Value::Id(7)],
        );
        assert_eq!(e.to_string(), "subscriber@part-1!request(#7)");
    }

    /// Under full (unreduced) expansion the quotient is *exact*: stored
    /// representatives plus the states their orbits save must equal the
    /// unquotiented count, per engine, and the verdict surface must agree.
    #[test]
    fn symmetry_quotient_is_exact_under_full_expansion() {
        let svc = floor_control();
        for engine in [Engine::Dfa, Engine::Interp] {
            let explorer = ServiceExplorer::with_engine(&svc, universe(3, 2), 1, engine);
            let off = explorer.explore(&ExploreOptions {
                reduction: Reduction::Full,
                progress: vec!["granted".into()],
                ..ExploreOptions::default()
            });
            let on = explorer.explore(&ExploreOptions {
                reduction: Reduction::Full,
                progress: vec!["granted".into()],
                symmetry: Symmetry::On,
                ..ExploreOptions::default()
            });
            assert!(!off.truncated && !on.truncated);
            assert!(on.states < off.states, "{} vs {}", on.states, off.states);
            assert_eq!(
                on.states as u64 + on.sym_states_saved,
                off.states as u64,
                "quotient + saved must cover the full space exactly ({engine:?})"
            );
            assert_eq!(on.orbit_count, on.states);
            assert!(on.canon_hits > 0);
            assert_eq!(off.orbit_count, 0);
            assert_eq!(off.canon_hits, 0);
            assert_eq!(off.sym_states_saved, 0);
            assert_eq!(on.deadlock_states, 0);
            assert_eq!(off.deadlock_states, 0);
            assert_eq!(
                sorted_events(&on.never_enabled),
                sorted_events(&off.never_enabled)
            );
            assert_eq!(on.livelock.is_some(), off.livelock.is_some());
        }
    }

    /// The canonical form must be engine-independent: fragment ids are
    /// interned in discovery order along identical searches, so both
    /// engines pick identical orbit representatives and the whole report
    /// — state counts, witnesses, histograms — matches byte for byte.
    #[test]
    fn engines_agree_under_symmetry() {
        let svc = floor_control();
        let dfa = ServiceExplorer::with_engine(&svc, universe(3, 2), 1, Engine::Dfa);
        let interp = ServiceExplorer::with_engine(&svc, universe(3, 2), 1, Engine::Interp);
        for reduction in [Reduction::Full, Reduction::AmpleSets] {
            let options = ExploreOptions {
                reduction,
                progress: vec!["granted".into()],
                symmetry: Symmetry::On,
                ..ExploreOptions::default()
            };
            assert_eq!(
                format!("{:?}", dfa.explore(&options)),
                format!("{:?}", interp.explore(&options)),
                "{reduction:?}"
            );
        }
    }

    /// Same-orbit-tie regression: states whose members carry *equal*
    /// fragments must canonicalize stably (the stable sort fixes tied
    /// members in place), so repeated explorations — fresh interners each
    /// time — reproduce the exact same report.
    #[test]
    fn repeated_symmetric_explorations_are_identical() {
        let svc = floor_control();
        for engine in [Engine::Dfa, Engine::Interp] {
            let explorer = ServiceExplorer::with_engine(&svc, universe(3, 1), 1, engine);
            let options = ExploreOptions {
                progress: vec!["granted".into()],
                symmetry: Symmetry::On,
                ..ExploreOptions::default()
            };
            let first = format!("{:?}", explorer.explore(&options));
            for _ in 0..2 {
                assert_eq!(first, format!("{:?}", explorer.explore(&options)));
            }
        }
    }

    /// Deadlock witnesses found on the quotient are expanded back to
    /// concrete access points: every trace must replay step-by-step
    /// against an unreduced explorer and end in a genuinely dead state.
    #[test]
    fn symmetric_deadlock_witnesses_replay_concretely() {
        // Locks that are never released: once both resources are held the
        // universe (which has no `release` events) is dead.
        let svc = ServiceDefinition::builder("locks")
            .role("user", 2, usize::MAX)
            .primitive(PrimitiveSpec::new("acquire", Direction::FromUser).param_id("resid"))
            .primitive(PrimitiveSpec::new("release", Direction::FromUser).param_id("resid"))
            .constraint(Constraint::mutual_exclusion("acquire", "release").keyed(&[0]))
            .build()
            .unwrap();
        let mut events = Vec::new();
        for u in 1..=2u64 {
            for r in 1..=2u64 {
                events.push(AbstractEvent::new(
                    Sap::new("user", PartId::new(u)),
                    "acquire",
                    vec![Value::Id(r)],
                ));
            }
        }
        for engine in [Engine::Dfa, Engine::Interp] {
            let explorer = ServiceExplorer::with_engine(&svc, events.clone(), 1, engine);
            let report = explorer.explore(&ExploreOptions {
                reduction: Reduction::Full,
                symmetry: Symmetry::On,
                ..ExploreOptions::default()
            });
            assert!(report.deadlock_states > 0);
            assert!(!report.deadlocks.is_empty());
            let oracle = ServiceExplorer::with_engine(&svc, events.clone(), 1, engine);
            for witness in &report.deadlocks {
                assert_eq!(witness.len(), 2, "both resources must be held: {witness:?}");
                let mut state = oracle.initial_state();
                for event in witness {
                    state = oracle
                        .step(&state, event)
                        .unwrap_or_else(|v| panic!("witness must replay: {v} at {event}"));
                }
                assert!(
                    oracle.allowed(&state).is_empty(),
                    "expanded witness must end deadlocked"
                );
            }
        }
    }

    /// Livelock witnesses on the quotient: the prefix plus one unrolling
    /// of the cycle replays concretely, and the cycle stays non-progress.
    #[test]
    fn symmetric_livelock_witness_replays_concretely() {
        let svc = ServiceDefinition::builder("spinner")
            .role("user", 2, usize::MAX)
            .primitive(PrimitiveSpec::new("start", Direction::FromUser))
            .primitive(PrimitiveSpec::new("spin", Direction::FromUser))
            .primitive(PrimitiveSpec::new("finish", Direction::ToUser))
            .constraint(Constraint::eventually_follows(
                "start",
                "finish",
                ConstraintScope::SameSap,
            ))
            .build()
            .unwrap();
        let mut events = Vec::new();
        for u in 1..=2u64 {
            let sap = Sap::new("user", PartId::new(u));
            for prim in ["start", "spin", "finish"] {
                events.push(AbstractEvent::new(sap.clone(), prim, vec![]));
            }
        }
        for engine in [Engine::Dfa, Engine::Interp] {
            let explorer = ServiceExplorer::with_engine(&svc, events.clone(), 1, engine);
            let report = explorer.explore(&ExploreOptions {
                reduction: Reduction::Full,
                progress: vec!["finish".into()],
                symmetry: Symmetry::On,
                ..ExploreOptions::default()
            });
            let witness = report.livelock.expect("spin loop is a livelock");
            assert!(witness.cycle.iter().all(|e| e.primitive == "spin"));
            let oracle = ServiceExplorer::with_engine(&svc, events.clone(), 1, engine);
            let mut state = oracle.initial_state();
            for event in witness.prefix.iter().chain(&witness.cycle) {
                state = oracle
                    .step(&state, event)
                    .unwrap_or_else(|v| panic!("witness must replay: {v} at {event}"));
            }
        }
    }

    /// A universe with no interchangeable users: the knob is inert —
    /// reports match the unreduced run, with trivial orbit accounting.
    #[test]
    fn trivial_symmetry_groups_leave_the_search_unchanged() {
        let svc = floor_control();
        // Different argument sets at the two subscribers break symmetry.
        let mut events = universe(1, 2);
        let sap = Sap::new("subscriber", PartId::new(2));
        for prim in ["request", "granted", "free"] {
            events.push(AbstractEvent::new(sap.clone(), prim, vec![Value::Id(9)]));
        }
        let explorer = ServiceExplorer::new(&svc, events, 1);
        let off = explorer.explore(&ExploreOptions::default());
        let on = explorer.explore(&ExploreOptions {
            symmetry: Symmetry::On,
            ..ExploreOptions::default()
        });
        assert_eq!(on.states, off.states);
        assert_eq!(on.transitions, off.transitions);
        assert_eq!(on.orbit_count, on.states);
        assert_eq!(on.canon_hits, 0);
        assert_eq!(on.sym_states_saved, 0);
    }
}
