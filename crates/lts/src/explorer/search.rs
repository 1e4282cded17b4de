//! The explicit searches over a [`StepEngine`]: [`ServiceExplorer::to_lts`],
//! [`ServiceExplorer::verify_lts`] and the breadth-first search behind
//! [`ServiceExplorer::explore`] and [`ServiceExplorer::explore_counts`],
//! with witness replay and the non-progress cycle search.

use std::collections::{HashMap, HashSet, VecDeque};

use svckit_ldd::Backend;
use svckit_model::Value;

use crate::lts::{Lts, LtsBuilder, StateId};
use crate::symmetry::Symmetry;

use super::canon::SymCanon;
use super::engine::{Runtime, StepEngine};
use super::por::AmpleSets;
use super::store::StateStore;
use super::{
    AbstractEvent, Detail, ExploreCounts, ExploreOptions, ExploreReport, LivelockWitness,
    Reduction, SafetyCounterexample, ServiceExplorer, MAX_DEADLOCK_WITNESSES,
};

impl<'a> ServiceExplorer<'a> {
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
        if matches!(*engine.rt, Runtime::Dfa(_)) {
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

impl<'a> ServiceExplorer<'a> {
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
                Ok(report) => return report,
                Err(reason) => {
                    eprintln!("svckit-lts: {reason}; falling back to the explicit engine");
                }
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
        let mut ample_sets = match options.reduction {
            Reduction::AmpleSets => Some(AmpleSets::new(self.dependence_classes())),
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
        let mut transitions_saved = 0u64;
        // The runtime inputs of the exactness certificate (see
        // `ExploreReport::sym_exact`): representatives where the ample
        // choice broke a tie between classes, and whether the self-loop
        // guard ever fired on an orbit-internal move that is no self-loop.
        let mut tied: Vec<u32> = Vec::new();
        let mut guard_renamed = false;

        let mut key = engine.initial_key();
        let width = key.len();
        let init_orbit = match sym.as_mut() {
            Some(sym) => sym.canonical(&mut engine, &mut key, None).0,
            None => 1,
        };
        states_saved += init_orbit - 1;
        let mut store = StateStore::new(width);
        store.insert(&key);
        // Per stored state, its orbit size (symmetry only).
        let symmetric = sym.is_some();
        let mut orbit_of: Vec<u64> = Vec::new();
        if symmetric {
            orbit_of.push(init_orbit);
        }
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

        // Per-expansion buffers, reused across states. With symmetry every
        // enabled successor is built and canonicalized (`canon_hits` counts
        // them all): universe event `i`'s canonical successor lives at
        // `succ[i * width..(i + 1) * width]` and its orbit size at
        // `orbits[i]`. Without symmetry enabledness and the ample guard's
        // self-loop test read the key in place, and only the events
        // expanded are stepped, one at a time, into `succ[..width]`.
        let mut succ = vec![0u32; if symmetric { n * width } else { width }];
        let mut orbits = vec![1u64; n];
        let mut enabled: Vec<usize> = Vec::with_capacity(n);

        while let Some(sid) = queue.pop_front() {
            key.copy_from_slice(store.get(sid));
            enabled.clear();
            match sym.as_mut() {
                Some(sym) => {
                    sym.expand_from(&engine, &key);
                    for i in 0..n {
                        let next = &mut succ[i * width..(i + 1) * width];
                        if engine
                            .step_into(&key, &self.universe[i], event_ids[i], next)
                            .is_ok()
                        {
                            enabled.push(i);
                            orbits[i] = sym.canonical(&mut engine, next, Some(i)).0;
                        }
                    }
                }
                None => engine.for_each_enabled(&key, |i| enabled.push(i)),
            }
            for &i in &enabled {
                enabled_ever[i] = true;
            }
            if enabled.is_empty() {
                deadlock_states += 1;
                if deadlock_sids.len() < MAX_DEADLOCK_WITNESSES {
                    deadlock_sids.push(sid);
                }
                continue;
            }
            // Under symmetry the guard sees orbit-internal moves as
            // self-loops; `renamed` notes one that is not a real self-loop.
            let mut renamed = false;
            let (expand, choice) = match ample_sets.as_mut() {
                Some(ample_sets) => {
                    let (expand, choice) = ample_sets.expand(&enabled, |i| {
                        if symmetric {
                            let orbit_loop = succ[i * width..(i + 1) * width] == *key;
                            renamed |= orbit_loop && !engine.is_self_loop(&key, i);
                            orbit_loop
                        } else {
                            engine.is_self_loop(&key, i)
                        }
                    });
                    (expand, Some(choice))
                }
                None => (&enabled[..], None),
            };
            if let Some(choice) = choice.filter(|_| symmetric) {
                if choice.tied {
                    tied.push(sid);
                }
                guard_renamed |= choice.guarded && renamed;
            }
            if ample_hist.len() <= expand.len() {
                ample_hist.resize(expand.len() + 1, 0);
            }
            ample_hist[expand.len()] += 1;
            svckit_obs::obs_count!("lts.states_expanded");
            svckit_obs::obs_record!("lts.ample_size", expand.len());
            let transitions_before = transitions;
            for &i in expand {
                let next = if symmetric {
                    &succ[i * width..(i + 1) * width]
                } else {
                    let next = &mut succ[..width];
                    if engine
                        .step_into(&key, &self.universe[i], event_ids[i], next)
                        .is_err()
                    {
                        unreachable!("enabled events step successfully");
                    }
                    next
                };
                let to = match store.find(next) {
                    Some(to) => to,
                    None => {
                        if store.len() >= options.max_states {
                            truncated = true;
                            continue;
                        }
                        let to = store.insert(next);
                        states_saved += orbits[i] - 1;
                        if symmetric {
                            orbit_of.push(orbits[i]);
                        }
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
            if symmetric {
                let taken = (transitions - transitions_before) as u64;
                transitions_saved = transitions_saved
                    .saturating_add((orbit_of[sid as usize] - 1).saturating_mul(taken));
            }
        }

        // The certificate's conditions, cheapest first; the tie-break
        // check (the only one that walks states again) runs last. The
        // sums also assume the initial state is its own orbit, which it
        // is (every member starts from the same empty fragment).
        let unquotiented = (store.len() as u64).saturating_add(states_saved);
        let sym_exact = options.symmetry == Symmetry::On
            && init_orbit == 1
            && !truncated
            && unquotiented <= options.max_states as u64
            && match (&sym, ample_sets.as_mut()) {
                (Some(sym), Some(ample_sets)) => {
                    !guard_renamed
                        && self.ample_choice_commutes(
                            &mut engine,
                            sym,
                            ample_sets,
                            &store,
                            &tied,
                            unquotiented.saturating_mul(n as u64),
                        )
                }
                _ => true,
            };

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
            sym_transitions_saved: transitions_saved,
            sym_exact,
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

    /// Whether the ample-set choice commutes with the symmetry groups on
    /// this search: every group permutation maps dependence classes onto
    /// dependence classes, and at every representative in `tied` (where
    /// the lowest-index tie-break picked the class) the class picked from
    /// the σ-image of the enabled events is the σ-image of the class
    /// picked, for every permutation σ. Declines (returns `false`) when
    /// checking every tied representative against every permutation
    /// would take more than `budget` choices — the steps the unquotiented
    /// search it replaces takes (its states times the universe size).
    fn ample_choice_commutes(
        &self,
        engine: &mut StepEngine<'_, 'a>,
        sym: &SymCanon,
        ample_sets: &mut AmpleSets,
        store: &StateStore,
        tied: &[u32],
        budget: u64,
    ) -> bool {
        let Some(action) = sym.event_action(&self.universe) else {
            return false;
        };
        if !ample_sets.classes_are_symmetric(&action)
            || (tied.len() as u64).saturating_mul(action.order()) > budget
        {
            return false;
        }
        let mut enabled = Vec::new();
        let mut tied_events = Vec::new();
        tied.iter().all(|&sid| {
            enabled.clear();
            engine.for_each_enabled(store.get(sid), |i| enabled.push(i));
            ample_sets.tie_break_is_symmetric(&action, &enabled, &mut tied_events)
        })
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
        sym.canonical(engine, &mut key, None);
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
            if sym.canonical(engine, &mut next, None).1 {
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
