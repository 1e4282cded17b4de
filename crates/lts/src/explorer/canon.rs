//! The symmetry canonicalizer behind
//! [`ExploreOptions::symmetry`](super::ExploreOptions::symmetry): state
//! fragments per group member, the orbit representative, and the slot
//! permutation that rewrites a DFA key to it.

use std::collections::BTreeMap;

use svckit_model::hash::FastMap;
use svckit_model::{CState, Sap, Value};

use crate::symmetry::{factorial, orbit_factor, SymmetryGroups};

use super::engine::{Runtime, StepEngine};
use super::store::StateStore;
use super::{AbstractEvent, ServiceExplorer};

/// One constraint-instance entry owned by a symmetric-group member — the
/// atom of a member's *state fragment* under the interpreter. A product
/// state over a symmetric group decomposes into one fragment per member
/// plus a renaming-invariant residue (global counters, non-member
/// entries), so permuting members permutes fragments and canonicalization
/// is "sort the fragments".
///
/// The DFA engine writes the same fragment as a fixed-width word vector
/// (see [`Fragments::Dfa`]). Within a group the two forms have the same
/// equality relation (slot states and interned constraint states have the
/// same distinguishing power — the dual-engine equivalence tests pin
/// this), and fragment *ids* are assigned per group in first-encounter
/// order along identical searches, so both engines sort members
/// identically and pick identical orbit representatives. Across groups
/// the forms differ (the interpreter's atoms name a `(constraint, key)`
/// pair, the DFA words a family position), which is why each group
/// numbers its fragments on its own.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum FragAtom {
    /// The member's counter for `(constraint, key)` is at `count` (zero
    /// counters are dropped, so absence means zero).
    Count {
        ci: u32,
        key: Vec<Value>,
        count: u32,
    },
    /// The member holds mutex `ci`'s instance `key`.
    Held { ci: u32, key: Vec<Value> },
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

/// Each engine's fragment form, its id interners (one per group) and its
/// scratch buffer. Ids are dense from 0 in each group's first-encounter
/// order; sorting a group's members by them is the canonical form.
enum Fragments {
    /// Interpreter: a fragment is its atom list, interned through a map.
    Interp {
        ids: Vec<FastMap<Vec<FragAtom>, u32>>,
        frag: Vec<FragAtom>,
    },
    /// DFA: a fragment is one word per slot family — the member's slot
    /// state, 0 in the positions past its group's families — then one
    /// held-flag word per mutex slot, interned in a [`StateStore`].
    Dfa {
        /// `families[g][f][j]` = the slot of group `g`'s member `j` in
        /// family `f` (one family per non-mutex `(constraint, key)`
        /// instance bound to a member, sorted by that pair).
        families: Vec<Vec<Vec<u32>>>,
        /// Every mutex slot, ascending.
        mutex: Vec<MutexSlot>,
        /// The widest group's family count: where the held flags start.
        held_at: usize,
        ids: Vec<StateStore>,
        frag: Vec<u32>,
    },
}

impl Fragments {
    /// Writes the fragment of group `g`'s member `j` in `key` into the
    /// scratch buffer. Deterministic within each engine (constraint
    /// order, then `BTreeMap` / family order), so equal fragments produce
    /// equal buffers.
    fn write(
        &mut self,
        engine: &StepEngine<'_, '_>,
        groups: &[Vec<Sap>],
        g: usize,
        j: usize,
        key: &[u32],
    ) {
        match (self, &*engine.rt) {
            (Fragments::Interp { frag, .. }, Runtime::Interp(product)) => {
                frag.clear();
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
            (
                Fragments::Dfa {
                    families,
                    mutex,
                    held_at,
                    frag,
                    ..
                },
                Runtime::Dfa(_),
            ) => {
                frag.fill(0);
                for (word, family) in frag.iter_mut().zip(&families[g]) {
                    *word = key[family[j] as usize];
                }
                for (word, mutex) in frag[*held_at..].iter_mut().zip(mutex.iter()) {
                    let state = key[mutex.slot as usize] as usize;
                    *word = u32::from(mutex.holder.get(state).copied().flatten() == Some((g, j)));
                }
            }
            _ => unreachable!("fragments from a different engine"),
        }
    }

    /// The id of the fragment in the scratch buffer among group `g`'s
    /// fragments, if interned.
    fn find(&self, g: usize) -> Option<u32> {
        match self {
            Fragments::Interp { ids, frag } => ids[g].get(frag.as_slice()).copied(),
            Fragments::Dfa { ids, frag, .. } => ids[g].find(frag),
        }
    }

    /// The id of the fragment in the scratch buffer among group `g`'s
    /// fragments, interning it on first sight.
    fn intern(&mut self, g: usize) -> u32 {
        match self {
            Fragments::Interp { ids, frag } => {
                let ids = &mut ids[g];
                if let Some(&id) = ids.get(frag.as_slice()) {
                    return id;
                }
                let id = u32::try_from(ids.len()).expect("fewer than 2^32 fragments");
                ids.insert(frag.clone(), id);
                id
            }
            Fragments::Dfa { ids, frag, .. } => ids[g].intern(frag),
        }
    }
}

/// The canonicalizer behind
/// [`ExploreOptions::symmetry`](super::ExploreOptions::symmetry): detected
/// symmetric groups, the fragment-id interner, (under the DFA engine) the
/// slot families that tie each member's slots together, and the scratch
/// buffers [`SymCanon::canonical`] reuses from call to call.
pub(super) struct SymCanon {
    /// The detected groups, each sorted by SAP order.
    pub(super) groups: Vec<Vec<Sap>>,
    /// SAP → (group index, member index within the group).
    pub(super) member_index: FastMap<Sap, (usize, usize)>,
    /// Universe index → the (group, member) at the event's SAP, `None`
    /// for events outside every group.
    event_member: Vec<Option<(usize, usize)>>,
    /// `parent[g][j]` = the fragment id of group `g`'s member `j` in the
    /// state last passed to [`SymCanon::expand_from`].
    parent: Vec<Vec<u32>>,
    /// Fragment → dense id per group, assigned in first-encounter order
    /// (see [`FragAtom`]), with the engine's fragment form.
    fragments: Fragments,
    /// Non-identity canonicalizations performed so far.
    pub(super) canon_hits: u64,
    /// The per-group member orders the last [`SymCanon::canonical`] call
    /// applied: canonical position `p` took the fragment of member
    /// `orders[g][p]`.
    pub(super) orders: Vec<Vec<usize>>,
    /// Scratch: the current group's fragment ids, those ids in canonical
    /// order, and a copy of the key being permuted.
    frags: Vec<u32>,
    sorted: Vec<u32>,
    source: Vec<u32>,
}

impl SymCanon {
    /// Builds the canonicalizer, or `None` when the detected groups are
    /// trivial. Call only after every universe event has been interned
    /// into `engine` — the DFA slot set and mutex holder alphabet must be
    /// complete.
    pub(super) fn build(
        explorer: &ServiceExplorer<'_>,
        engine: &StepEngine<'_, '_>,
    ) -> Option<SymCanon> {
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
        let fragments = match &*engine.rt {
            Runtime::Dfa(rt) => {
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
                let held_at = families.iter().map(Vec::len).max().unwrap_or(0);
                let width = held_at + mutexes.len();
                Fragments::Dfa {
                    families,
                    mutex: mutexes,
                    held_at,
                    ids: groups.iter().map(|_| StateStore::new(width)).collect(),
                    frag: vec![0; width],
                }
            }
            Runtime::Interp(_) => Fragments::Interp {
                ids: groups.iter().map(|_| FastMap::default()).collect(),
                frag: Vec::new(),
            },
        };
        let event_member = explorer
            .universe
            .iter()
            .map(|event| member_index.get(&event.sap).copied())
            .collect();
        let parent = groups
            .iter()
            .map(|members| vec![0; members.len()])
            .collect();
        let orders = vec![Vec::new(); groups.len()];
        Some(SymCanon {
            groups,
            member_index,
            event_member,
            parent,
            fragments,
            canon_hits: 0,
            orders,
            frags: Vec::new(),
            sorted: Vec::new(),
            source: Vec::new(),
        })
    }

    /// Records the fragment ids of `key`, a stored (so canonical) state
    /// about to be expanded, for [`SymCanon::canonical`] to reuse on its
    /// successors. Every fragment of a stored state is already interned.
    pub(super) fn expand_from(&mut self, engine: &StepEngine<'_, '_>, key: &[u32]) {
        for g in 0..self.groups.len() {
            for j in 0..self.groups[g].len() {
                self.fragments.write(engine, &self.groups, g, j, key);
                debug_assert!(self.fragments.find(g).is_some());
                self.parent[g][j] = self.fragments.intern(g);
            }
        }
    }

    /// Rewrites `key` in place to its orbit representative. Returns the
    /// orbit's size and whether the canonicalization was not the identity
    /// — in which case [`SymCanon::orders`] holds the member orders
    /// applied.
    ///
    /// With `step = Some(i)`, `key` is the successor by universe event `i`
    /// of the state last passed to [`SymCanon::expand_from`]. An event at
    /// access point `s` writes only instances owned by `s` or global ones
    /// (which belong to no fragment), and moves a mutex holder only
    /// between "free" and `s`, so only `s`'s fragment is recomputed; every
    /// other member reuses its parent's id. The reused fragments are
    /// interned already and the recomputed one is looked up where the
    /// full computation would look it up, so fragment ids — and with them
    /// the member orders and representatives — are those of computing
    /// every fragment. Debug builds check each reused id against that
    /// computation. `step = None` computes every fragment.
    ///
    /// The representative is well-defined on orbits: permuting members
    /// permutes the fragment multiset, and "position `p` gets the `p`-th
    /// smallest fragment" lands every orbit member on the same state. Ties
    /// (equal fragments) are broken stably by member index, which cannot
    /// change the resulting state — tied fragments are identical. Applying
    /// the form twice is the identity, since sorted fragments stay sorted.
    pub(super) fn canonical(
        &mut self,
        engine: &mut StepEngine<'_, '_>,
        key: &mut [u32],
        step: Option<usize>,
    ) -> (u64, bool) {
        let moved = step.map(|i| self.event_member[i]);
        let mut orbit = 1u64;
        let mut identity = true;
        for g in 0..self.groups.len() {
            let members = self.groups[g].len();
            self.frags.clear();
            for j in 0..members {
                let id = match moved {
                    Some(moved) if moved != Some((g, j)) => {
                        let id = self.parent[g][j];
                        if cfg!(debug_assertions) {
                            self.fragments.write(engine, &self.groups, g, j, key);
                            assert_eq!(
                                self.fragments.find(g),
                                Some(id),
                                "an event moved the fragment of a member at another access point"
                            );
                        }
                        id
                    }
                    _ => {
                        self.fragments.write(engine, &self.groups, g, j, key);
                        self.fragments.intern(g)
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
        let explorer = engine.explorer;
        match (&mut *engine.rt, &self.fragments) {
            (Runtime::Interp(product), _) => {
                product.rename_key(explorer, key, &self.groups, &self.orders);
            }
            (
                Runtime::Dfa(_),
                Fragments::Dfa {
                    families, mutex, ..
                },
            ) => {
                self.source.clear();
                self.source.extend_from_slice(key);
                permute_slots(families, mutex, &self.orders, &self.source, key);
            }
            (Runtime::Dfa(_), Fragments::Interp { .. }) => {
                unreachable!("fragments from a different engine")
            }
        }
        (orbit, true)
    }
}

/// DFA only: where one fragment word of a member lives in a key.
#[derive(Debug, Clone, Copy)]
enum WordRead {
    /// The slot state at this level.
    Slot(u32),
    /// 1 when the mutex slot at this level holds the member, else 0.
    Held {
        slot: u32,
        mutex: usize,
        member: (usize, usize),
    },
}

/// One word two adjacent group members' fragments are compared on.
#[derive(Debug, Clone, Copy)]
struct WordPair {
    /// The deepest level the two words read: a prefix this long fixes
    /// both.
    known_at: u32,
    left: WordRead,
    right: WordRead,
}

/// DFA only: whether a key's member fragments are non-decreasing within
/// every group ([`SymCanon::sorted_fragments`]), decided level by level
/// so that a depth-first walk over keys can drop a prefix as soon as two
/// adjacent members are out of order.
///
/// Fragments compare lexicographically over their words, taken in one
/// fixed order per group: any fixed order is a total order on fragments.
/// Each orbit then holds exactly one such key: permuting members permutes
/// their fragments, the key outside the fragments stays put, and equal
/// fragments are interchangeable. Counting sorted keys therefore counts
/// orbits, whatever order the explicit search's fragment ids give.
pub(super) struct SortedFragments<'c> {
    /// Per adjacent member pair `(j, j + 1)` of a group, the words their
    /// fragments are compared on — the family slot states and the mutex
    /// held flags (padding words are equal and left out) — in the
    /// group's order.
    pairs: Vec<Vec<WordPair>>,
    /// Level → the pairs with a word that level fixes.
    at_level: Vec<Vec<usize>>,
    mutex: &'c [MutexSlot],
}

/// A pair's progress: the index of the next word to compare, or
/// `DECIDED` once a word ordered the pair strictly or every word matched.
const DECIDED: u32 = u32::MAX;

impl SortedFragments<'_> {
    /// Number of adjacent member pairs: the length of a status vector.
    pub(super) fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    fn read(&self, word: WordRead, prefix: &[u32]) -> u32 {
        match word {
            WordRead::Slot(slot) => prefix[slot as usize],
            WordRead::Held {
                slot,
                mutex,
                member,
            } => {
                let state = prefix[slot as usize] as usize;
                u32::from(self.mutex[mutex].holder.get(state).copied().flatten() == Some(member))
            }
        }
    }

    /// Advances `status` — every pair's progress on `prefix` without its
    /// last level, all zero for the empty prefix — by the last level of
    /// `prefix`. Returns `false` when that level puts some pair out of
    /// order; `status` is then unspecified.
    pub(super) fn admit(&self, prefix: &[u32], status: &mut [u32]) -> bool {
        let level = prefix.len() - 1;
        for &p in &self.at_level[level] {
            let words = &self.pairs[p];
            let mut next = status[p];
            while next != DECIDED {
                let Some(word) = words.get(next as usize) else {
                    next = DECIDED;
                    break;
                };
                if word.known_at as usize > level {
                    break;
                }
                let (left, right) = (self.read(word.left, prefix), self.read(word.right, prefix));
                if left > right {
                    return false;
                }
                next = if left < right { DECIDED } else { next + 1 };
            }
            status[p] = next;
        }
        true
    }
}

impl SymCanon {
    /// The sorted-fragment test over DFA keys of `width` slots.
    ///
    /// # Panics
    ///
    /// Under the interpreter, whose fragments are not key words.
    pub(super) fn sorted_fragments(&self, width: usize) -> SortedFragments<'_> {
        let Fragments::Dfa {
            families, mutex, ..
        } = &self.fragments
        else {
            unreachable!("sorted fragments read DFA keys");
        };
        let words_of = |g: usize, j: usize| -> Vec<(u32, WordRead)> {
            let slots = families[g]
                .iter()
                .map(|family| (family[j], WordRead::Slot(family[j])));
            let held = mutex.iter().enumerate().map(|(m, slot)| {
                let read = WordRead::Held {
                    slot: slot.slot,
                    mutex: m,
                    member: (g, j),
                };
                (slot.slot, read)
            });
            slots.chain(held).collect()
        };
        let mut pairs = Vec::new();
        let mut at_level = vec![Vec::new(); width];
        for (g, members) in self.groups.iter().enumerate() {
            // One word order per group, by the levels that fix the second
            // member's words: members' slots intern in universe order, so
            // this compares every pair's words about as early as a walk
            // fixes them.
            let levels = words_of(g, 1);
            let mut order: Vec<usize> = (0..levels.len()).collect();
            order.sort_by_key(|&w| levels[w].0);
            for j in 1..members.len() {
                let (left, right) = (words_of(g, j - 1), words_of(g, j));
                let words: Vec<WordPair> = order
                    .iter()
                    .map(|&w| WordPair {
                        known_at: left[w].0.max(right[w].0),
                        left: left[w].1,
                        right: right[w].1,
                    })
                    .collect();
                let p = pairs.len();
                let mut levels: Vec<u32> = words.iter().map(|w| w.known_at).collect();
                levels.sort_unstable();
                levels.dedup();
                for level in levels {
                    at_level[level as usize].push(p);
                }
                pairs.push(words);
            }
        }
        SortedFragments {
            pairs,
            at_level,
            mutex,
        }
    }
}

/// How a permutation of each group's members acts on universe indices:
/// the event at group `g`'s member `j` maps to the event with the same
/// primitive and arguments at the member `j` is sent to. Events outside
/// every group stay put. A permutation is written `perm[g][j]` = the
/// member group `g`'s member `j` is sent to.
pub(super) struct EventAction {
    /// Per universe event: its group, member, and rank among the
    /// member's events in `(primitive, args)` order; `None` outside every
    /// group.
    at: Vec<Option<(usize, usize, usize)>>,
    /// `index[g][j][rank]` = the universe index of group `g`'s member
    /// `j`'s event of that rank.
    index: Vec<Vec<Vec<usize>>>,
}

impl SymCanon {
    /// The action of member permutations on `universe`, or `None` when
    /// some member's events are not another's one for one (an event
    /// listed twice at one member only).
    pub(super) fn event_action(&self, universe: &[AbstractEvent]) -> Option<EventAction> {
        let mut index: Vec<Vec<Vec<usize>>> = self
            .groups
            .iter()
            .map(|members| vec![Vec::new(); members.len()])
            .collect();
        for (i, member) in self.event_member.iter().enumerate() {
            if let Some((g, j)) = *member {
                index[g][j].push(i);
            }
        }
        let sig = |i: usize| (&universe[i].primitive, &universe[i].args);
        for members in &mut index {
            for events in members.iter_mut() {
                events.sort_by(|&a, &b| sig(a).cmp(&sig(b)));
            }
            let (first, rest) = members.split_first().expect("groups are non-empty");
            if rest.iter().any(|events| {
                events.len() != first.len()
                    || events.iter().zip(first).any(|(&a, &b)| sig(a) != sig(b))
            }) {
                return None;
            }
        }
        let mut at = vec![None; universe.len()];
        for (g, members) in index.iter().enumerate() {
            for (j, events) in members.iter().enumerate() {
                for (rank, &i) in events.iter().enumerate() {
                    at[i] = Some((g, j, rank));
                }
            }
        }
        Some(EventAction { at, index })
    }
}

impl EventAction {
    /// The identity permutation of every group.
    pub(super) fn identity(&self) -> Vec<Vec<usize>> {
        self.index
            .iter()
            .map(|members| (0..members.len()).collect())
            .collect()
    }

    /// The image of universe event `i` under `perm`.
    pub(super) fn image(&self, perm: &[Vec<usize>], i: usize) -> usize {
        match self.at[i] {
            Some((g, j, rank)) => self.index[g][perm[g][j]][rank],
            None => i,
        }
    }

    /// The number of permutations [`EventAction::all_perms`] visits: the
    /// product of the groups' factorials (saturating).
    pub(super) fn order(&self) -> u64 {
        self.index.iter().fold(1u64, |order, members| {
            order.saturating_mul(factorial(members.len() as u64))
        })
    }

    /// Calls `check` with every permutation in the product of the groups'
    /// symmetric groups, the identity first, until one returns `false`.
    /// Returns whether every call returned `true`.
    pub(super) fn all_perms(&self, mut check: impl FnMut(&[Vec<usize>]) -> bool) -> bool {
        let mut perm = self.identity();
        loop {
            if !check(&perm) {
                return false;
            }
            // Odometer: advance the first group that has a next
            // permutation; the groups before it wrapped to the identity.
            let mut g = 0;
            loop {
                if g == perm.len() {
                    return true;
                }
                if next_permutation(&mut perm[g]) {
                    break;
                }
                g += 1;
            }
        }
    }
}

/// Rearranges `p` into its lexicographic successor and returns `true`, or
/// from the last permutation wraps to the first (ascending) and returns
/// `false`.
fn next_permutation(p: &mut [usize]) -> bool {
    let Some(i) = (1..p.len()).rev().find(|&i| p[i - 1] < p[i]) else {
        p.reverse();
        return false;
    };
    let j = (i..p.len())
        .rev()
        .find(|&j| p[j] > p[i - 1])
        .expect("p[i] exceeds p[i - 1]");
    p.swap(i - 1, j);
    p[i..].reverse();
    true
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

    #[test]
    fn next_permutation_walks_every_order_then_wraps() {
        let mut p = vec![0, 1, 2];
        let mut seen = vec![p.clone()];
        while next_permutation(&mut p) {
            seen.push(p.clone());
        }
        assert_eq!(
            seen,
            [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0]
            ]
        );
        assert_eq!(p, [0, 1, 2], "wraps to the identity");
    }

    #[test]
    fn all_perms_visits_the_product_of_the_groups_once_each() {
        let action = EventAction {
            at: Vec::new(),
            index: vec![vec![Vec::new(); 3], vec![Vec::new(); 2]],
        };
        let mut seen = Vec::new();
        assert!(action.all_perms(|perm| {
            seen.push(perm.to_vec());
            true
        }));
        assert_eq!(seen.len() as u64, action.order());
        assert_eq!(seen[0], action.identity());
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 12);
        let mut calls = 0;
        assert!(!action.all_perms(|_| {
            calls += 1;
            calls < 5
        }));
        assert_eq!(calls, 5, "stops at the first failed check");
    }
}
