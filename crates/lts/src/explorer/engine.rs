//! The step engines behind every [`ServiceExplorer`] query and search:
//! the one definition of constraint semantics ([`step_constraint`]), the
//! interpreter's interning [`ProductEngine`], the compiled engine's slot
//! binder, and the [`StepEngine`] interface over both.

use std::collections::BTreeMap;
use std::sync::{Arc, MutexGuard};

use svckit_dfa::{Binder, Edge};
use svckit_model::hash::FastMap;
use svckit_model::{Constraint, ConstraintKind, ConstraintScope, Sap, ServiceDefinition, Value};

use super::{AbstractEvent, ServiceExplorer, StepViolation};

pub(super) type Instance = (Option<Sap>, Vec<Value>);

/// Per-constraint bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(super) enum CState {
    /// Balance counters per instance (Precedes, EventuallyFollows,
    /// AtMostOutstanding).
    Counters(BTreeMap<Instance, u32>),
    /// Current holder per key (MutualExclusion).
    Holders(BTreeMap<Vec<Value>, Sap>),
}

/// The two primitive names a constraint kind reacts to.
pub(super) fn constraint_primitives(kind: &ConstraintKind) -> [&str; 2] {
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

/// The constraint instance `event` touches under `scope` and `key`.
pub(super) fn instance(scope: ConstraintScope, event: &AbstractEvent, key: &[usize]) -> Instance {
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

/// Steps one constraint's state by one event — the one definition of
/// constraint semantics, which the compiled tables reproduce. `bound` is
/// the explorer's `max_outstanding`.
fn step_constraint(
    constraint: &Constraint,
    cstate: &CState,
    event: &AbstractEvent,
    bound: u32,
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
                let inst = instance(*scope, event, key);
                let e = map.entry(inst).or_insert(0);
                if *e >= bound {
                    return Err(violation(format!(
                        "more than {} unmatched `{earlier}` (state-space bound)",
                        bound
                    )));
                }
                *e += 1;
            } else if event.primitive == *later {
                let inst = instance(*scope, event, key);
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
                map.insert(instance(*scope, event, key), 1);
            } else if event.primitive == *then && !map.contains_key(&instance(*scope, event, key)) {
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
                let inst = instance(*scope, event, key);
                let e = map.entry(inst).or_insert(0);
                if *e >= bound {
                    return Err(violation(format!(
                        "more than {} outstanding `{trigger}` (state-space bound)",
                        bound
                    )));
                }
                *e += 1;
            } else if event.primitive == *response {
                let inst = instance(*scope, event, key);
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
                let inst = instance(*scope, event, key);
                let e = map.entry(inst).or_insert(0);
                if (*e as usize) >= *limit {
                    return Err(violation(format!(
                        "more than {limit} outstanding `{trigger}`"
                    )));
                }
                *e += 1;
            } else if event.primitive == *response {
                let inst = instance(*scope, event, key);
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

/// Mutable runtime of the DFA engine: the slot binder and the universe's
/// pre-resolved edge lists (index-aligned with the universe).
#[derive(Debug, Clone)]
pub(super) struct DfaRt {
    pub(super) binder: Binder,
    pub(super) universe_edges: Vec<Vec<Edge>>,
}

/// The explorer's step runtime: what its engine has interned so far.
/// Behind one `Mutex` so the explorer stays `Sync`; every query and every
/// search runs on it through a [`StepEngine`].
// One per explorer, so its size does not matter; boxing the binder would
// add a pointer hop to every step.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(super) enum Runtime {
    /// The interpreter's per-constraint state tables.
    Interp(ProductEngine),
    /// The compiled engine's slot binder.
    Dfa(DfaRt),
}

/// Per-constraint bookkeeping of a [`ProductEngine`]: the constraint's
/// reachable states interned as integers, their quiescence, and memoized
/// transitions per (state, event) pair.
#[derive(Debug, Clone)]
pub(super) struct ConstraintTable {
    /// Interned per-constraint states, id → state.
    pub(super) states: Vec<Arc<CState>>,
    /// Content-based reverse index of `states`.
    ids: FastMap<Arc<CState>, u32>,
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

/// Whether `cs` is quiescent with respect to its constraint: no
/// obligation outstanding and nothing held. Enablement markers of
/// [`ConstraintKind::After`] constraints do not count.
fn cstate_quiescent(constraint: &Constraint, cs: &CState) -> bool {
    match cs {
        CState::Counters(m) => {
            matches!(constraint.kind(), ConstraintKind::After { .. }) || m.values().all(|v| *v == 0)
        }
        CState::Holders(h) => h.is_empty(),
    }
}

/// The interpreter engine.
///
/// The constraint automaton is a synchronous product of one small automaton
/// per constraint. The engine interns each constraint's reachable states and
/// the events it sees as integers and memoizes per-constraint transitions,
/// so the surrounding search works on integer tuples: stepping a product
/// state is a handful of hash-map probes on integer keys, and deep
/// `BTreeMap` states are only cloned/hashed the first time a
/// (constraint-state, event) pair is encountered. It lives as long as its
/// explorer, so queries and searches share one memo.
#[derive(Debug, Clone)]
pub(super) struct ProductEngine {
    /// Interned events: the universe first (so `universe_ids` is fixed at
    /// construction), then whatever else is stepped — during verification,
    /// the implementation's alphabet.
    event_ids: FastMap<AbstractEvent, u32>,
    /// The event id of each universe event.
    universe_ids: Vec<u32>,
    pub(super) tables: Vec<ConstraintTable>,
}

impl ProductEngine {
    pub(super) fn new(service: &ServiceDefinition, universe: &[AbstractEvent]) -> Self {
        let tables = service
            .constraints()
            .iter()
            .map(|c| {
                let mut table = ConstraintTable {
                    states: Vec::new(),
                    ids: FastMap::default(),
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
        let mut engine = ProductEngine {
            event_ids: FastMap::default(),
            universe_ids: Vec::new(),
            tables,
        };
        engine.universe_ids = universe.iter().map(|e| engine.event_id(e)).collect();
        engine
    }

    fn event_id(&mut self, event: &AbstractEvent) -> u32 {
        if let Some(&id) = self.event_ids.get(event) {
            return id;
        }
        let id = u32::try_from(self.event_ids.len()).expect("fewer than 2^32 events");
        self.event_ids.insert(event.clone(), id);
        id
    }

    /// Whether every constraint state in `key` is quiescent; components
    /// past a trimmed key are at their quiescent initial state.
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
    /// [`ProductEngine::step_into`]. `None` means the constraint rejects
    /// the event in this state.
    fn level_step(
        &mut self,
        explorer: &ServiceExplorer<'_>,
        ci: usize,
        sid: u32,
        event: &AbstractEvent,
        eid: u32,
    ) -> Option<u32> {
        if let Some(memo) = self.tables[ci].trans.get(&(sid, eid)) {
            return memo.as_ref().ok().copied();
        }
        let constraint = &explorer.service.constraints()[ci];
        let current = Arc::clone(&self.tables[ci].states[sid as usize]);
        let computed = step_constraint(constraint, &current, event, explorer.max_outstanding)
            .map(|stepped| self.tables[ci].intern(constraint, stepped));
        let next = computed.as_ref().ok().copied();
        self.tables[ci].trans.insert((sid, eid), computed);
        next
    }

    /// Whether universe event `ui` is allowed in `key`, which may be
    /// trimmed. Reads the key without copying it.
    fn allows(&mut self, explorer: &ServiceExplorer<'_>, key: &[u32], ui: usize) -> bool {
        let event = &explorer.universe[ui];
        let eid = self.universe_ids[ui];
        explorer.relevant(&event.primitive).iter().all(|&ci| {
            let sid = key.get(ci).copied().unwrap_or(0);
            self.level_step(explorer, ci, sid, event, eid).is_some()
        })
    }

    /// Whether universe event `ui`, allowed in `key`, steps every
    /// constraint to the state it is in: the successor is `key` itself.
    fn is_self_loop(&mut self, explorer: &ServiceExplorer<'_>, key: &[u32], ui: usize) -> bool {
        let event = &explorer.universe[ui];
        let eid = self.universe_ids[ui];
        explorer.relevant(&event.primitive).iter().all(|&ci| {
            let sid = key.get(ci).copied().unwrap_or(0);
            self.level_step(explorer, ci, sid, event, eid) == Some(sid)
        })
    }

    /// Steps a product key by one event into `out`, which may be wider
    /// than `key` (components past `key` start at 0) and must cover every
    /// constraint relevant to the event. `Err((constraint index, state
    /// id))` identifies the first violated constraint; fetch the violation
    /// with [`ProductEngine::violation`].
    fn step_into(
        &mut self,
        explorer: &ServiceExplorer<'_>,
        key: &[u32],
        event: &AbstractEvent,
        eid: u32,
        out: &mut [u32],
    ) -> Result<(), (usize, u32)> {
        let (head, tail) = out.split_at_mut(key.len());
        head.copy_from_slice(key);
        tail.fill(0);
        for &i in explorer.relevant(&event.primitive) {
            let sid = out[i];
            match self.level_step(explorer, i, sid, event, eid) {
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
    pub(super) fn rename_key(
        &mut self,
        explorer: &ServiceExplorer<'_>,
        key: &mut [u32],
        groups: &[Vec<Sap>],
        orders: &[Vec<usize>],
    ) {
        let constraints = explorer.service.constraints();
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
pub(super) enum StepErr {
    /// Interpreter: constraint index, its state id, the event id.
    Interp { ci: usize, sid: u32, eid: u32 },
    /// DFA: the rejecting edge and the slot state it was taken from.
    Dfa { edge: Edge, state: u16 },
}

/// The one step interface behind every query and search of a
/// [`ServiceExplorer`]: the memoizing [`ProductEngine`] under the
/// interpreter, dense-table slot stepping under the DFA engine. It holds
/// the explorer's runtime lock for as long as it lives. Both engines
/// expose the same integer-keyed interface, and — because slot states and
/// interned constraint states have exactly the same distinguishing power —
/// the searches visit identical state graphs in identical order under
/// either engine.
pub(super) struct StepEngine<'x, 'a> {
    pub(super) explorer: &'x ServiceExplorer<'a>,
    pub(super) rt: MutexGuard<'x, Runtime>,
}

impl<'x, 'a> StepEngine<'x, 'a> {
    pub(super) fn new(explorer: &'x ServiceExplorer<'a>) -> Self {
        StepEngine {
            explorer,
            rt: explorer.rt.lock().expect("explorer runtime poisoned"),
        }
    }

    /// Interns `event`; under the DFA engine this resolves (and caches)
    /// its edge list, interning any new slots.
    pub(super) fn event_id(&mut self, event: &AbstractEvent) -> u32 {
        match &mut *self.rt {
            Runtime::Interp(engine) => engine.event_id(event),
            Runtime::Dfa(rt) => rt
                .binder
                .resolve_cached(&event.sap, &event.primitive, &event.args),
        }
    }

    /// The fixed-width product key of the initial state. Call after every
    /// event the search will step has been interned ([`StepEngine::event_id`]),
    /// so the width covers every slot.
    pub(super) fn initial_key(&self) -> Vec<u32> {
        match &*self.rt {
            Runtime::Interp(engine) => vec![0; engine.tables.len()],
            Runtime::Dfa(rt) => vec![0; rt.binder.slot_count()],
        }
    }

    /// Whether `key` (possibly trimmed) is quiescent.
    pub(super) fn is_quiescent(&self, key: &[u32]) -> bool {
        match &*self.rt {
            Runtime::Interp(engine) => engine.is_quiescent(key),
            Runtime::Dfa(rt) => rt.binder.is_quiescent_wide(key),
        }
    }

    /// The universe events allowed in `key` (possibly trimmed).
    pub(super) fn allowed(&mut self, key: &[u32]) -> Vec<&'x AbstractEvent> {
        let universe = &self.explorer.universe;
        let mut allowed = Vec::new();
        self.for_each_enabled(key, |ui| allowed.push(&universe[ui]));
        allowed
    }

    /// Calls `f` with the universe index of every event allowed in `key`
    /// (possibly trimmed), ascending. Reads the key without copying it.
    pub(super) fn for_each_enabled(&mut self, key: &[u32], mut f: impl FnMut(usize)) {
        let explorer = self.explorer;
        match &mut *self.rt {
            Runtime::Interp(engine) => (0..explorer.universe.len())
                .filter(|&ui| engine.allows(explorer, key, ui))
                .for_each(f),
            Runtime::Dfa(rt) => {
                for (ui, edges) in rt.universe_edges.iter().enumerate() {
                    if rt.binder.allowed(key, edges) {
                        f(ui);
                    }
                }
            }
        }
    }

    /// Whether universe event `ui`, allowed in `key`, steps `key` to
    /// itself — the ample-set guard's self-loop test, made without
    /// building the successor.
    pub(super) fn is_self_loop(&mut self, key: &[u32], ui: usize) -> bool {
        match &mut *self.rt {
            Runtime::Interp(engine) => engine.is_self_loop(self.explorer, key, ui),
            Runtime::Dfa(rt) => rt.binder.is_self_loop(key, &rt.universe_edges[ui]),
        }
    }

    /// Steps `key` by one event into `out`, which may be wider than `key`
    /// (components past `key` start at 0) and must cover every component
    /// the event touches; on `Err` the contents of `out` are unspecified.
    pub(super) fn step_into(
        &mut self,
        key: &[u32],
        event: &AbstractEvent,
        eid: u32,
        out: &mut [u32],
    ) -> Result<(), StepErr> {
        match &mut *self.rt {
            Runtime::Interp(engine) => engine
                .step_into(self.explorer, key, event, eid, out)
                .map_err(|(ci, sid)| StepErr::Interp { ci, sid, eid }),
            Runtime::Dfa(rt) => rt
                .binder
                .step_wide_into(key, rt.binder.edges(eid), out)
                .map_err(|rejection| StepErr::Dfa {
                    edge: rt.binder.edges(eid)[rejection.edge],
                    state: rejection.state,
                }),
        }
    }

    /// Steps the trimmed key `key` by one event into a new trimmed key.
    pub(super) fn step(
        &mut self,
        key: &[u32],
        event: &AbstractEvent,
    ) -> Result<Vec<u32>, StepViolation> {
        // One plain allocation grown from the key to cover every component
        // the event touches: a zeroed one (`vec![0; width]`) costs more
        // per step.
        let grown = |touched: usize| {
            let width = touched.max(key.len());
            let mut next = Vec::with_capacity(width);
            next.extend_from_slice(key);
            next.resize(width, 0);
            next
        };
        let trimmed = |mut next: Vec<u32>| {
            while next.last() == Some(&0) {
                next.pop();
            }
            next
        };
        let explorer = self.explorer;
        let stepped = match &mut *self.rt {
            Runtime::Interp(engine) => {
                let eid = engine.event_id(event);
                let relevant = explorer.relevant(&event.primitive);
                let mut next = grown(relevant.last().map_or(0, |&ci| ci + 1));
                engine
                    .step_into(explorer, key, event, eid, &mut next)
                    .map(|()| next)
                    .map_err(|(ci, sid)| StepErr::Interp { ci, sid, eid })
            }
            Runtime::Dfa(rt) => {
                let eid = rt
                    .binder
                    .resolve_cached(&event.sap, &event.primitive, &event.args);
                let edges = rt.binder.edges(eid);
                let mut next = grown(edges.iter().map(|e| e.slot as usize + 1).max().unwrap_or(0));
                rt.binder
                    .step_wide_into(key, edges, &mut next)
                    .map(|()| next)
                    .map_err(|rejection| StepErr::Dfa {
                        edge: edges[rejection.edge],
                        state: rejection.state,
                    })
            }
        };
        stepped
            .map(trimmed)
            .map_err(|err| self.violation(&err, &event.sap))
    }

    /// Renders the violation behind a [`StepErr`] — byte-identical across
    /// engines.
    pub(super) fn violation(&self, err: &StepErr, sap: &Sap) -> StepViolation {
        match (&*self.rt, err) {
            (Runtime::Interp(engine), StepErr::Interp { ci, sid, eid }) => {
                engine.violation(*ci, *sid, *eid)
            }
            (Runtime::Dfa(rt), StepErr::Dfa { edge, state }) => StepViolation {
                constraint: rt.binder.constraint_display(edge.ci as usize).to_owned(),
                message: rt.binder.violation_message(edge, *state, sap),
            },
            _ => unreachable!("step error from a different engine"),
        }
    }
}
