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
//! * unfolding the automaton into an explicit [`Lts`](crate::Lts)
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

use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

use svckit_dfa::{Binder, Compiled, Engine};
use svckit_ldd::Backend;
use svckit_model::hash::FastMap;
use svckit_model::{Sap, ServiceDefinition, Value};

use crate::symmetry::Symmetry;

use engine::{DfaRt, ProductEngine, Runtime, StepEngine};

mod canon;
mod engine;
mod por;
mod search;
mod store;
mod symbolic;

pub use symbolic::{FullCounts, SymbolicCounts};

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

/// A state of the constraint automaton. Opaque; obtain the initial state
/// from [`ServiceExplorer::initial_state`] and evolve it with
/// [`ServiceExplorer::step`].
///
/// A state is the searches' `u32` product key with trailing zeros
/// trimmed: one interned per-constraint state id under the interpreter,
/// one DFA state per interned slot under the compiled engine. Every
/// component starts at 0 and both engines intern on demand, so trimming
/// keeps state equality independent of how many components happen to
/// exist when a state is formed. Ids are the explorer's own: a state
/// means the same in the explorer that made it and in its clones (which
/// copy the interned tables), not in an explorer built separately.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExplorerState(Vec<u32>);

impl ExplorerState {
    /// Whether no obligations are outstanding and nothing is held — the
    /// quiescent states, marked terminal in [`ServiceExplorer::to_lts`].
    /// Enablement markers of `After` constraints do not
    /// count: having joined is not an obligation.
    pub fn is_quiescent(&self, explorer: &ServiceExplorer<'_>) -> bool {
        StepEngine::new(explorer).is_quiescent(&self.0)
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

/// The constraint automaton of a service over a finite event universe.
#[derive(Debug)]
pub struct ServiceExplorer<'a> {
    service: &'a ServiceDefinition,
    universe: Vec<AbstractEvent>,
    max_outstanding: u32,
    /// The *effective* engine: [`Engine::Dfa`] only when the constraint
    /// set compiled (absurd bounds fall back).
    engine: Engine,
    /// The engine's runtime, matching `engine`.
    rt: Mutex<Runtime>,
    /// Primitive name → (ascending) indices of the constraints that react
    /// to it. Every current constraint kind mentions exactly two primitive
    /// names and leaves its state untouched on any other event, so a step
    /// only has to run the constraints listed here.
    relevance: FastMap<String, Vec<usize>>,
}

impl Clone for ServiceExplorer<'_> {
    /// Clones the automaton together with everything its engine has
    /// interned, so every [`ExplorerState`] of the original means the
    /// same in the clone.
    fn clone(&self) -> Self {
        let rt = self.rt.lock().expect("explorer runtime poisoned").clone();
        ServiceExplorer {
            service: self.service,
            universe: self.universe.clone(),
            max_outstanding: self.max_outstanding,
            engine: self.engine,
            rt: Mutex::new(rt),
            relevance: self.relevance.clone(),
        }
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
        let relevance = service.constraints_by_primitive();
        let compiled = match engine {
            Engine::Dfa => Compiled::compile(service, max_outstanding),
            Engine::Interp => None,
        };
        let (engine, rt) = match compiled {
            Some(compiled) => {
                let mut binder = Binder::new(Arc::new(compiled));
                let universe_edges = universe
                    .iter()
                    .map(|e| binder.resolve(&e.sap, &e.primitive, &e.args))
                    .collect();
                (
                    Engine::Dfa,
                    Runtime::Dfa(DfaRt {
                        binder,
                        universe_edges,
                    }),
                )
            }
            None => (
                Engine::Interp,
                Runtime::Interp(ProductEngine::new(service, &universe)),
            ),
        };
        ServiceExplorer {
            service,
            universe,
            max_outstanding,
            engine,
            rt: Mutex::new(rt),
            relevance,
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

    /// The ascending indices of the constraints that react to `primitive`.
    fn relevant(&self, primitive: &str) -> &[usize] {
        self.relevance.get(primitive).map_or(&[], Vec::as_slice)
    }

    /// The initial (empty) constraint state: every component at 0, which
    /// the trimmed key leaves empty.
    pub fn initial_state(&self) -> ExplorerState {
        ExplorerState(Vec::new())
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
        StepEngine::new(self)
            .step(&state.0, event)
            .map(ExplorerState)
    }

    /// The events of the universe allowed in `state`.
    ///
    /// Under the DFA engine this is a dense-table sweep: per universe
    /// event, one pre-resolved edge list and one table load per relevant
    /// constraint. Under the interpreter each relevant constraint's step
    /// is one lookup in the engine's memoized per-constraint transitions.
    pub fn allowed(&self, state: &ExplorerState) -> Vec<&AbstractEvent> {
        StepEngine::new(self).allowed(&state.0)
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
    /// symmetry group ([`crate::SymmetryGroups::detect`]) before hashing, so the
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
    /// full symmetric groups, so orbit sizes are `n!/∏ mᵢ!`); see
    /// [`ExploreReport::sym_exact`] for when that holds in general.
    pub sym_states_saved: u64,
    /// The transition analogue of [`ExploreReport::sym_states_saved`]:
    /// Σ (orbit size − 1) × transitions taken from the state, over
    /// expanded representatives. Every state of an orbit takes as many
    /// transitions as its representative, so
    /// `transitions + sym_transitions_saved` counts the unquotiented
    /// search's transitions when [`ExploreReport::sym_exact`] holds.
    pub sym_transitions_saved: u64,
    /// The exactness certificate of the orbit-weighted counts: when
    /// `true`, the same search with [`Symmetry::Off`] completes and
    /// reports exactly `states + sym_states_saved` states and
    /// `transitions + sym_transitions_saved` transitions. Always `false`
    /// with symmetry off and from the symbolic fixpoint (which ignores
    /// symmetry).
    ///
    /// It holds when the quotient search did not truncate, the
    /// unquotiented count fits [`ExploreOptions::max_states`], and — under
    /// [`Reduction::AmpleSets`] — the ample choice commutes with every
    /// member permutation σ: (a) σ maps dependence classes onto
    /// dependence classes (checked on each group's generators); (b) the
    /// self-loop guard never fired at a representative because of an
    /// orbit-internal move that is no real self-loop; (c) where two or
    /// more classes tied for the smallest `|class ∩ enabled|`, the class
    /// the lowest-index tie-break picks from σ(enabled) is the σ-image of
    /// the one it picked, for every σ (every tied representative is
    /// re-checked after the search, and only when every other condition
    /// holds). Then the unquotiented search expands σ(A) at σ(r) wherever
    /// the quotient expands A at representative r, so it reaches exactly
    /// the orbits of the representatives and takes |A| transitions at each
    /// of their states. When checking (c) would take more ample choices
    /// than the unquotiented search takes steps, the certificate is
    /// declined.
    pub sym_exact: bool,
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
            sym_transitions_saved: self.sym_transitions_saved,
            sym_exact: self.sym_exact,
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
/// search that chains event images to the fixpoint instead of building
/// BFS plies, and builds no witness relations. That smaller store can fit
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
    /// See [`ExploreReport::sym_transitions_saved`].
    pub sym_transitions_saved: u64,
    /// See [`ExploreReport::sym_exact`].
    pub sym_exact: bool,
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
    /// witness replay (explicit), no BFS plies, histogram, inverse
    /// relations or livelock fixpoint (symbolic).
    Counts,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lts::LtsBuilder;
    use svckit_model::{Constraint, ConstraintScope, Direction, PartId, PrimitiveSpec};

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

    /// A clone copies what its original interned, so a state several
    /// steps deep — built from ids the original interned on demand — means
    /// the same in the clone, under both engines; the clone's own steps
    /// then agree with the original's.
    #[test]
    fn cloned_explorer_answers_identically() {
        let svc = floor_control();
        for engine in [Engine::Dfa, Engine::Interp] {
            let explorer = ServiceExplorer::with_engine(&svc, universe(3, 2), 2, engine);
            let mut state = explorer.initial_state();
            for k in 0..6 {
                let allowed = explorer.allowed(&state);
                let event = allowed[k % allowed.len()].clone();
                state = explorer.step(&state, &event).unwrap();
            }
            let clone = explorer.clone();
            assert_eq!(clone.engine(), engine);
            assert_eq!(clone.allowed(&state), explorer.allowed(&state));
            assert_eq!(
                state.is_quiescent(&clone),
                state.is_quiescent(&explorer),
                "{engine:?}"
            );
            for event in explorer.universe() {
                match (clone.step(&state, event), explorer.step(&state, event)) {
                    (Ok(c), Ok(o)) => {
                        assert_eq!(c, o, "{engine:?} at {event}");
                        assert_eq!(clone.allowed(&c), explorer.allowed(&o));
                    }
                    (Err(c), Err(o)) => assert_eq!(c, o, "{engine:?} at {event}"),
                    (c, o) => panic!("clone disagrees at {event}: {c:?} vs {o:?}"),
                }
            }
        }
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
