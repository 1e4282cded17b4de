//! The symbolic LDD reachability backend behind
//! [`ServiceExplorer::explore`].
//!
//! It runs on the DFA engine's layout only. Product states are
//! fixed-width vectors of per-slot DFA states, so reachable *sets* of
//! them live naturally in list decision diagrams ([`svckit_ldd`]). The
//! variable ordering is the slot layout itself: level `i` of the diagram
//! is slot `i`, which groups a user's slots contiguously (slots intern in
//! universe order) and keeps symmetric users' sub-vectors shape-identical
//! — exactly the structure hash-consing collapses. An interpreter
//! explorer has no such layout (its per-constraint levels mix every
//! user's instances into one value), so it explores explicitly.
//!
//! The search is a breadth-first fixpoint over per-ply frontiers (a
//! count-only search chains event images into one reached set instead,
//! see [`ServiceExplorer::explore_symbolic`]). Every
//! event's step relation factorizes into independent deterministic
//! partial maps per level (the explicit engine's `step_into` touches only
//! the event's relevant levels), so the relational product is applied as
//! a per-level functional walk — no monolithic transition relation is
//! ever built. Diagnostics are then re-derived set-wise:
//!
//! * deadlocks = reached ∖ ⋃ₑ enabled(e); witnesses are re-extracted as
//!   concrete traces by chaining preimages backward ply-by-ply and then
//!   walking forward picking the smallest universe index that stays on
//!   the chain — which reproduces, byte for byte, the explicit BFS's
//!   lexicographically minimal witness order;
//! * livelocks = a greatest-fixpoint core of non-quiescent states with a
//!   non-progress successor inside the core (non-empty ⟺ the full
//!   explicit graph has a non-progress cycle), with a replay-valid lasso
//!   re-extracted by greedy concrete walking;
//! * the ample histogram degenerates to the full-expansion histogram
//!   (symbolic search does not reduce), computed by partition refinement
//!   over the per-event enabled sets.
//!
//! Everything is oracle-locked against the explicit engine by the
//! `ldd_oracle` proptests and the backend-matrix goldens.

use svckit_dfa::{Binder, DEAD};
use svckit_ldd::{Ldd, LddStore, LevelStep, PreStep, EMPTY};
use svckit_model::hash::FastMap;

use super::{
    AbstractEvent, Detail, ExploreOptions, ExploreReport, LivelockWitness, Runtime,
    ServiceExplorer, StepEngine, MAX_DEADLOCK_WITNESSES,
};

/// Reserved relational-product token for the quiescence filter. Real
/// events intern dense ids from 0, so the top of the range is free.
const QUIESCENCE_TOKEN: u32 = u32::MAX;

/// One event's per-level footprint: which slots it touches (everything
/// else is identity) and how deep the diagram walk must descend.
struct EventRel {
    /// Slot → the occurrence classes stepped on it, in edge order (an
    /// event rarely steps a slot twice, but composition is sequential
    /// exactly like `Binder::step_wide_into`).
    touched: FastMap<u32, Vec<u16>>,
    /// 1 + the deepest touched level; 0 for footprint-free events (their
    /// image and enabled-filter are the identity).
    max_depth: u32,
}

/// Per-event inverse step maps for preimages: level → target → ascending
/// source values. Built once, after the forward fixpoint.
type EventInverse = FastMap<u32, FastMap<u32, Vec<u32>>>;

fn build_rels(binder: &Binder, event_ids: &[u32]) -> Vec<EventRel> {
    event_ids
        .iter()
        .map(|&eid| {
            let mut touched: FastMap<u32, Vec<u16>> = FastMap::default();
            for edge in binder.edges(eid) {
                touched.entry(edge.slot).or_default().push(edge.class);
            }
            let max_depth = touched.keys().max().map_or(0, |&level| level + 1);
            EventRel { touched, max_depth }
        })
        .collect()
}

/// Slot `level`'s state after stepping `classes` from `state`, or `None`
/// when a class hits [`DEAD`].
fn slot_step(binder: &Binder, level: u32, mut state: u16, classes: &[u16]) -> Option<u16> {
    for &class in classes {
        state = binder.slot_next(level, state, class);
        if state == DEAD {
            return None;
        }
    }
    Some(state)
}

/// The per-level forward step of an event at `(level, value)` — identity
/// on untouched levels, the slot table's deterministic partial map
/// elsewhere.
fn forward_step(binder: &Binder, rel: &EventRel, level: u32, value: u32) -> LevelStep {
    match rel.touched.get(&level) {
        None => LevelStep::Identity,
        Some(classes) => {
            let state = u16::try_from(value).expect("slot states fit u16");
            match slot_step(binder, level, state, classes) {
                Some(next) => LevelStep::To(u32::from(next)),
                None => LevelStep::Blocked,
            }
        }
    }
}

fn image(store: &mut LddStore, binder: &Binder, rel: &EventRel, eid: u32, set: Ldd) -> Ldd {
    store.image(set, eid, rel.max_depth, &mut |level, value| {
        forward_step(binder, rel, level, value)
    })
}

fn enabled(store: &mut LddStore, binder: &Binder, rel: &EventRel, eid: u32, set: Ldd) -> Ldd {
    store.filter_enabled(set, eid, rel.max_depth, &mut |level, value| {
        forward_step(binder, rel, level, value)
    })
}

fn preimage(store: &mut LddStore, inv: &EventInverse, eid: u32, max_depth: u32, set: Ldd) -> Ldd {
    store.preimage(
        set,
        eid,
        max_depth,
        &mut |level, target| match inv.get(&level) {
            None => PreStep::Identity,
            Some(per_level) => {
                PreStep::Sources(per_level.get(&target).cloned().unwrap_or_default())
            }
        },
    )
}

/// Tabulates every event's inverse per-level step map over each touched
/// slot's whole state domain.
fn build_inverse(binder: &Binder, rels: &[EventRel]) -> Vec<EventInverse> {
    rels.iter()
        .map(|rel| {
            let mut inv: EventInverse = FastMap::default();
            for (&level, classes) in &rel.touched {
                let per_level = inv.entry(level).or_default();
                for source in 0..binder.slot_nstates(level) {
                    if let Some(target) = slot_step(binder, level, source, classes) {
                        per_level
                            .entry(u32::from(target))
                            .or_default()
                            .push(u32::from(source));
                    }
                }
            }
            inv
        })
        .collect()
}

/// The subset of `set` whose every level is quiescent.
fn quiescent_subset(store: &mut LddStore, binder: &Binder, width: u32, set: Ldd) -> Ldd {
    store.filter_enabled(set, QUIESCENCE_TOKEN, width, &mut |level, value| {
        let state = u16::try_from(value).expect("slot states fit u16");
        if binder.slot_state_quiescent(level, state) {
            LevelStep::Identity
        } else {
            LevelStep::Blocked
        }
    })
}

impl<'a> ServiceExplorer<'a> {
    /// The symbolic counterpart of the explicit breadth-first search in
    /// [`ServiceExplorer::explore`]. Returns why it cannot report — the
    /// LDD store outgrew [`ExploreOptions::ldd_node_limit`], or the
    /// explorer interprets its constraints and so has no slot layout to
    /// order the diagram by — and the caller then falls back to the
    /// explicit engine.
    ///
    /// The report matches an untruncated explicit
    /// [`super::Reduction::Full`] / [`crate::Symmetry::Off`] search
    /// field-for-field (states, transitions, deadlock counts and
    /// *byte-identical* lexicographically-minimal deadlock witnesses, the
    /// never-enabled census, livelock existence, the expansion
    /// histogram), plus the LDD statistics. Under [`Detail::Counts`] the
    /// forward fixpoint chains event images instead of building BFS
    /// plies, and the search stops after it and the per-event enabled
    /// sets: states, transitions and `ldd_nodes` equal the full search's
    /// (the reached set is canonical), `peak_nodes` and `cache_hits`
    /// describe the chained run's store, and the findings and the
    /// histogram stay empty.
    pub(super) fn explore_symbolic(
        &self,
        options: &ExploreOptions,
        detail: Detail,
    ) -> Result<ExploreReport, String> {
        let mut engine = StepEngine::new(self);
        let Runtime::Dfa(rt) = &mut *engine.rt else {
            return Err("symbolic backend needs the DFA engine's slot layout \
                        (this explorer interprets its constraints)"
                .to_owned());
        };
        let binder = &mut rt.binder;
        let over_budget = || {
            format!(
                "symbolic backend exceeded the LDD node budget ({} nodes)",
                options.ldd_node_limit
            )
        };
        let mut store = LddStore::with_node_limit(options.ldd_node_limit);
        // Intern every universe event up front: this freezes the slot set
        // and mutex holder alphabets, fixing the diagram's width and
        // per-level domains for the whole search.
        let event_ids: Vec<u32> = self
            .universe
            .iter()
            .map(|e| binder.resolve_cached(&e.sap, &e.primitive, &e.args))
            .collect();
        let binder: &Binder = binder;
        let rels = build_rels(binder, &event_ids);
        let init_key = vec![0; binder.slot_count()];
        let width = u32::try_from(init_key.len()).expect("product width fits u32");
        let n = self.universe.len();

        // Forward fixpoint. With findings wanted it runs breadth-first,
        // one diagram per ply (`layers[d]` = states first reached in
        // exactly `d` steps — the backbone of minimal witness
        // re-extraction). Counts only need the reached set, which is
        // canonical whatever order reaches it, so that search chains
        // instead: each event's image is folded into `reached` as soon as
        // it exists, so later events in the round already step from it.
        // That reaches the fixpoint in fewer, larger steps and interns far
        // fewer intermediate diagrams than per-ply frontiers.
        let init = store.singleton(&init_key);
        let mut layers: Vec<Ldd> = vec![init];
        let mut reached = init;
        match detail {
            Detail::Findings => {
                let mut frontier = init;
                while frontier != EMPTY {
                    let mut next = EMPTY;
                    for (rel, &eid) in rels.iter().zip(&event_ids) {
                        let img = image(&mut store, binder, rel, eid, frontier);
                        next = store.union(next, img);
                    }
                    let fresh = store.minus(next, reached);
                    if store.over_limit() {
                        return Err(over_budget());
                    }
                    if fresh == EMPTY {
                        break;
                    }
                    reached = store.union(reached, fresh);
                    layers.push(fresh);
                    frontier = fresh;
                }
            }
            Detail::Counts => loop {
                let before = reached;
                for (rel, &eid) in rels.iter().zip(&event_ids) {
                    let img = image(&mut store, binder, rel, eid, reached);
                    reached = store.union(reached, img);
                }
                if store.over_limit() {
                    return Err(over_budget());
                }
                if reached == before {
                    break;
                }
            },
        }

        // Per-event enabled sets over the whole reached set: the census
        // behind transitions, never-enabled events and deadlocks.
        let enb: Vec<Ldd> = rels
            .iter()
            .zip(&event_ids)
            .map(|(rel, &eid)| enabled(&mut store, binder, rel, eid, reached))
            .collect();
        if store.over_limit() {
            return Err(over_budget());
        }
        let states = usize::try_from(store.satcount(reached)).expect("state count fits usize");
        let transitions = enb
            .iter()
            .map(|&e| usize::try_from(store.satcount(e)).expect("transition count fits usize"))
            .sum();
        let mut report = ExploreReport {
            states,
            transitions,
            truncated: false,
            deadlock_states: 0,
            deadlocks: Vec::new(),
            never_enabled: Vec::new(),
            livelock: None,
            ample_hist: Vec::new(),
            orbit_count: 0,
            canon_hits: 0,
            sym_states_saved: 0,
            sym_transitions_saved: 0,
            sym_exact: false,
            ldd_nodes: store.ldd_size(reached),
            peak_nodes: 0,
            cache_hits: 0,
        };
        if detail == Detail::Counts {
            report.peak_nodes = store.inner_nodes();
            report.cache_hits = store.cache_hits();
            return Ok(report);
        }

        let mut any_enabled = EMPTY;
        for &e in &enb {
            any_enabled = store.union(any_enabled, e);
        }
        let dead = store.minus(reached, any_enabled);
        report.deadlock_states =
            usize::try_from(store.satcount(dead)).expect("deadlock count fits usize");
        report.never_enabled = self
            .universe
            .iter()
            .zip(&enb)
            .filter(|(_, &e)| e == EMPTY)
            .map(|(event, _)| event.clone())
            .collect();

        // Full-expansion histogram by partition refinement: after folding
        // in event `e`, `parts[k]` holds the states with exactly `k`
        // enabled events among those seen so far.
        let mut parts: Vec<Ldd> = vec![reached];
        for &e in &enb {
            for k in (0..parts.len()).rev() {
                let hit = store.intersect(parts[k], e);
                if hit == EMPTY {
                    continue;
                }
                parts[k] = store.minus(parts[k], hit);
                if parts.len() == k + 1 {
                    parts.push(EMPTY);
                }
                parts[k + 1] = store.union(parts[k + 1], hit);
            }
        }
        let top = (1..parts.len()).rev().find(|&k| parts[k] != EMPTY);
        report.ample_hist = match top {
            // Deadlock states are counted, never expanded: index 0 stays 0.
            Some(top) => (0..=top)
                .map(|k| if k == 0 { 0 } else { store.satcount(parts[k]) })
                .collect(),
            None => Vec::new(),
        };

        let inverse = build_inverse(binder, &rels);

        // Deadlock witnesses in explicit BFS discovery order: plies
        // ascending, and within a ply by lexicographic trace order —
        // extract the lex-min member, remove it, repeat up to the quota.
        'plies: for d in 0..layers.len() {
            let mut dd = store.intersect(layers[d], dead);
            while dd != EMPTY {
                if report.deadlocks.len() >= MAX_DEADLOCK_WITNESSES {
                    break 'plies;
                }
                let (steps, endpoint) = self.lex_min_trace(
                    &mut store, binder, &inverse, &rels, &event_ids, &layers, d, dd, &init_key,
                );
                report.deadlocks.push(
                    steps
                        .iter()
                        .map(|&ei| self.universe[ei as usize].clone())
                        .collect(),
                );
                let single = store.singleton(&endpoint);
                dd = store.minus(dd, single);
            }
        }

        // Livelock: greatest fixpoint of non-quiescent states with a
        // non-progress successor staying inside the set. Non-empty ⟺ the
        // full explicit graph has a reachable non-progress cycle through
        // non-quiescent states.
        let non_progress: Vec<usize> = (0..n)
            .filter(|&ei| {
                let primitive = &self.universe[ei].primitive;
                !options.progress.iter().any(|p| p == primitive)
            })
            .collect();
        let quiet = quiescent_subset(&mut store, binder, width, reached);
        let mut core = store.minus(reached, quiet);
        while core != EMPTY {
            let mut pre_any = EMPTY;
            for &ei in &non_progress {
                let pre = preimage(
                    &mut store,
                    &inverse[ei],
                    event_ids[ei],
                    rels[ei].max_depth,
                    core,
                );
                pre_any = store.union(pre_any, pre);
            }
            let refined = store.intersect(core, pre_any);
            if refined == core {
                break;
            }
            core = refined;
        }
        if store.over_limit() {
            return Err(over_budget());
        }
        report.livelock = (core != EMPTY).then(|| {
            let (d, entry_set) = layers
                .iter()
                .enumerate()
                .find_map(|(d, &layer)| {
                    let cut = store.intersect(layer, core);
                    (cut != EMPTY).then_some((d, cut))
                })
                .expect("the livelock core is reachable");
            let (prefix_steps, entry) = self.lex_min_trace(
                &mut store, binder, &inverse, &rels, &event_ids, &layers, d, entry_set, &init_key,
            );
            // Greedy concrete lasso inside the core: every core state has
            // a non-progress successor in the core, so walking smallest
            // indices first must eventually revisit a state.
            let mut visited: Vec<Vec<u32>> = vec![entry.clone()];
            let mut walk: Vec<u32> = Vec::new();
            let mut next = vec![0; entry.len()];
            let mut key = entry;
            let split = loop {
                let landed = non_progress.iter().any(|&ei| {
                    let stepped = binder
                        .step_wide_into(&key, binder.edges(event_ids[ei]), &mut next)
                        .is_ok();
                    if stepped && store.contains(core, &next) {
                        walk.push(u32::try_from(ei).expect("universe index fits u32"));
                        return true;
                    }
                    false
                });
                assert!(landed, "core states keep a non-progress successor");
                if let Some(pos) = visited.iter().position(|s| s == &next) {
                    break pos;
                }
                visited.push(next.clone());
                std::mem::swap(&mut key, &mut next);
            };
            let prefix: Vec<AbstractEvent> = prefix_steps
                .iter()
                .chain(&walk[..split])
                .map(|&ei| self.universe[ei as usize].clone())
                .collect();
            let cycle: Vec<AbstractEvent> = walk[split..]
                .iter()
                .map(|&ei| self.universe[ei as usize].clone())
                .collect();
            LivelockWitness { prefix, cycle }
        });
        if store.over_limit() {
            return Err(over_budget());
        }
        report.peak_nodes = store.inner_nodes();
        report.cache_hits = store.cache_hits();
        Ok(report)
    }

    /// The lexicographically minimal trace of length `d` from the initial
    /// state into `target ⊆ layers[d]`, and its concrete endpoint. Chains
    /// preimages backward ply-by-ply (`chain[j]` = ply-`j` states that can
    /// still reach `target` in exactly `d − j` steps), then walks forward
    /// taking the smallest universe index that stays on the chain — the
    /// same trace the explicit BFS tree records for its first-discovered
    /// member of `target`.
    #[allow(clippy::too_many_arguments)]
    fn lex_min_trace(
        &self,
        store: &mut LddStore,
        binder: &Binder,
        inverse: &[EventInverse],
        rels: &[EventRel],
        event_ids: &[u32],
        layers: &[Ldd],
        d: usize,
        target: Ldd,
        init_key: &[u32],
    ) -> (Vec<u32>, Vec<u32>) {
        let mut chain: Vec<Ldd> = vec![EMPTY; d + 1];
        chain[d] = target;
        for j in (0..d).rev() {
            let mut pre_any = EMPTY;
            for ei in 0..self.universe.len() {
                let pre = preimage(
                    store,
                    &inverse[ei],
                    event_ids[ei],
                    rels[ei].max_depth,
                    chain[j + 1],
                );
                pre_any = store.union(pre_any, pre);
            }
            chain[j] = store.intersect(layers[j], pre_any);
        }
        debug_assert!(
            store.contains(chain[0], init_key),
            "backward chaining reaches the initial ply"
        );
        let mut key = init_key.to_vec();
        let mut next = vec![0; key.len()];
        let mut steps: Vec<u32> = Vec::with_capacity(d);
        for &next_set in chain.iter().skip(1) {
            let ei = (0..self.universe.len())
                .find(|&ei| {
                    binder
                        .step_wide_into(&key, binder.edges(event_ids[ei]), &mut next)
                        .is_ok()
                        && store.contains(next_set, &next)
                })
                .expect("every chained ply is forward-reachable");
            steps.push(u32::try_from(ei).expect("universe index fits u32"));
            std::mem::swap(&mut key, &mut next);
        }
        (steps, key)
    }
}
