//! The binder: mapping concrete occurrences onto DFA slots.
//!
//! A compiled constraint is a *template*: one automaton per
//! (scope-instance, correlation-key) pair. The [`Binder`] interns those
//! pairs into dense **slot** ids, so a product state is a plain vector of
//! `u16` DFA states indexed by slot, and stepping an event is:
//!
//! 1. resolve the occurrence to its *edges* — at most one
//!    `(slot, class)` per constraint that mentions the primitive
//!    (cached per distinct occurrence, so the steady-state cost is one
//!    hash lookup);
//! 2. for each edge, one dense-table load: `DEAD` vetoes the event,
//!    anything else is the slot's next state.
//!
//! The tables live in one row array: every constraint's current table,
//! concatenated, with each slot holding its table's offset, row stride
//! (class count) and state count inline. A step reads the slot's entry
//! and one `u16` of the array, with no pointer to chase. Slots of one
//! constraint share its table, and structurally identical tables are
//! stored once. The fixed shapes' tables come first; when a mutex
//! alphabet regrows, the mutex tables after them are laid out again and
//! every mutex slot is re-pointed. The `allowed`, dense and wide steps
//! all read the array through one lookup.
//!
//! There are two steps. Run-time checkers (the admission gate, the
//! conformance monitor) keep one *dense* `u16` vector with a state per
//! interned slot and step it in place (`Binder::step_dense`). Searches
//! keep `u32` product keys and write each successor into a reused buffer
//! ([`Binder::step_wide_into`]). Every automaton starts at state 0, so a
//! key is read as 0 past its end: the explorer trims trailing zeros off
//! its states, which keeps them canonical however many slots are interned
//! later, just as the interpreter drops a counter that returns to zero.
//!
//! Slots and occurrences are interned through fingerprint indexes: a
//! lookup hashes the caller's borrowed values once and confirms a hit by
//! comparing against the stored key, so it never allocates, and only a
//! new slot or occurrence copies its key. Every map is a [`FastMap`];
//! nothing iterates one into an observable output (slot numbering follows
//! interning order alone).

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use svckit_model::hash::{FastMap, FxHasher};
use svckit_model::{ConstraintScope, Instance, Sap, Value, Violation};

use crate::compile::{
    mutex_acquire, mutex_release, Compiled, CounterFlavor, Shape, CHECK, DOWN, ENABLE, UP,
};
use crate::dfa::{Dfa, DEAD};

/// One resolved transition of an occurrence: which slot it drives, on
/// which class, for which constraint index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The interned slot.
    pub slot: u32,
    /// The class of the occurrence in the slot's alphabet.
    pub class: u16,
    /// The constraint index (edges come in ascending order, so the first
    /// rejecting edge is the lowest violated constraint — the same choice
    /// the interpreter makes).
    pub ci: u32,
}

/// A rejected step: which edge hit [`DEAD`], from which slot state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Index into the resolved edge list.
    pub edge: usize,
    /// The slot state the edge was taken from.
    pub state: u16,
}

/// A slot's constraint and where its constraint's current table sits in
/// [`Binder::rows`].
#[derive(Debug, Clone, Copy)]
struct SlotInfo {
    ci: u32,
    /// Offset of the table's state 0, class 0 entry.
    base: u32,
    /// Classes per row.
    stride: u16,
    /// States in the table; a state at or past it rejects (see
    /// [`Dfa::next`]).
    nstates: u16,
}

/// The end of a fingerprint chain.
const NONE: u32 = u32::MAX;

/// A slot's scope instance — its access point ([`NONE`] for a global
/// scope) and correlation-key values — and the next older slot sharing
/// its fingerprint.
#[derive(Debug, Clone)]
struct SlotKey {
    sap: u32,
    keyvals: Vec<Value>,
    next: u32,
}

/// An interned occurrence, and the next older occurrence sharing its
/// fingerprint.
#[derive(Debug, Clone)]
struct OccKey {
    sap: u32,
    primitive: u32,
    args: Vec<Value>,
    next: u32,
}

/// Values interned to dense ids in first-seen order, so keys that repeat
/// them (an access point, a primitive name) store a `u32`.
#[derive(Debug, Clone)]
struct Interner<T> {
    items: Vec<T>,
    ids: FastMap<T, u32>,
}

impl<T: Hash + Eq + Clone> Interner<T> {
    fn new() -> Self {
        Interner {
            items: Vec::new(),
            ids: FastMap::default(),
        }
    }

    fn id<Q>(&mut self, item: &Q) -> u32
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = T> + ?Sized,
    {
        if let Some(&id) = self.ids.get(item) {
            return id;
        }
        let id = u32::try_from(self.items.len()).expect("interned count fits u32");
        self.items.push(item.to_owned());
        self.ids.insert(item.to_owned(), id);
        id
    }
}

/// The value a correlation key reads at argument position `i` (`Unit`
/// past the end, like the interpreter's keys).
fn key_value(args: &[Value], i: usize) -> &Value {
    static MISSING: Value = Value::Unit;
    args.get(i).unwrap_or(&MISSING)
}

/// A slot state read from a `u32` product key. Keys only ever hold
/// states the tables produced, so the narrowing is lossless; it does not
/// branch in release builds, which keeps the search loops tight.
#[inline]
fn wide_state(state: u32) -> u16 {
    debug_assert!(u16::try_from(state).is_ok(), "slot states fit u16");
    state as u16
}

/// Finishes an Fx hash with murmur3's 64-bit finalizer, so the index
/// maps' bucket bits depend on every input bit.
fn fingerprint(hasher: &FxHasher) -> u64 {
    let mut h = hasher.finish();
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    // This crate's unit tests give every key one fingerprint, so each
    // lookup walks a chain through all earlier keys and must tell them
    // apart by comparing.
    if cfg!(test) {
        0
    } else {
        h
    }
}

#[derive(Debug, Clone, Default)]
struct MutexRt {
    /// Interned holder SAPs (index = holder id in the alphabet).
    holders: Vec<Sap>,
}

/// Binds concrete occurrences to DFA slots for one compiled service.
/// A clone carries every slot and occurrence interned so far.
#[derive(Debug, Clone)]
pub struct Binder {
    compiled: Arc<Compiled>,
    /// The access points and primitive names occurrence and slot keys
    /// refer to.
    saps: Interner<Sap>,
    primitives: Interner<String>,
    /// Slot fingerprint → the newest slot with it; older ones chain
    /// through [`SlotKey::next`].
    slot_index: FastMap<u64, u32>,
    /// Per slot, parallel to `slot_info` (kept apart so the stepping
    /// path reads only the small `SlotInfo`s).
    slot_keys: Vec<SlotKey>,
    slot_info: Vec<SlotInfo>,
    /// Per-constraint mutex runtime (empty holder set for other shapes).
    mutex: Vec<MutexRt>,
    /// Per-constraint *current* DFA (mutex tables regrow with holders):
    /// the source of the row array and of per-state metadata.
    current_dfa: Vec<Arc<Dfa>>,
    /// Every distinct current table, row-major, concatenated; what the
    /// steps read. The tables of the fixed shapes (counters, latches)
    /// come first and never move; the mutex tables follow from
    /// `fixed_rows` on.
    rows: Vec<u16>,
    fixed_rows: usize,
    /// Per constraint, the offset of its current table in `rows`.
    table_base: Vec<u32>,
    /// The slots of mutex constraints: the ones a regrowth re-points.
    mutex_slots: Vec<u32>,
    /// Occurrence fingerprint → the newest resolution id with it; older
    /// ones chain through [`OccKey::next`]. Steady-state resolution is
    /// one hash of the caller's borrowed values, one probe and one
    /// compare — no allocation on the admission/explorer hot path.
    occ_index: FastMap<u64, u32>,
    occ_keys: Vec<OccKey>,
    edge_lists: Vec<Vec<Edge>>,
}

impl Binder {
    /// Creates a binder over a compiled constraint set.
    pub fn new(compiled: Arc<Compiled>) -> Binder {
        let n = compiled.constraints.len();
        let mutex = vec![MutexRt::default(); n];
        let current_dfa = compiled
            .constraints
            .iter()
            .map(|cc| Arc::clone(&cc.dfa))
            .collect();
        let mut binder = Binder {
            compiled,
            saps: Interner::new(),
            primitives: Interner::new(),
            slot_index: FastMap::default(),
            slot_keys: Vec::new(),
            slot_info: Vec::new(),
            mutex,
            current_dfa,
            rows: Vec::new(),
            fixed_rows: 0,
            table_base: vec![0; n],
            mutex_slots: Vec::new(),
            occ_index: FastMap::default(),
            occ_keys: Vec::new(),
            edge_lists: Vec::new(),
        };
        binder.lay_out_tables(false);
        binder.fixed_rows = binder.rows.len();
        binder.lay_out_tables(true);
        binder
    }

    /// Appends the current tables of the mutex constraints (`mutex`) or
    /// of every other constraint to the row array, each distinct table
    /// once, and records where each constraint's table starts.
    fn lay_out_tables(&mut self, mutex: bool) {
        for ci in 0..self.current_dfa.len() {
            if self.is_mutex(ci) != mutex {
                continue;
            }
            let dfa = &self.current_dfa[ci];
            let shared = (0..ci).find(|&earlier| {
                self.is_mutex(earlier) == mutex && Arc::ptr_eq(&self.current_dfa[earlier], dfa)
            });
            self.table_base[ci] = match shared {
                Some(earlier) => self.table_base[earlier],
                None => {
                    let base = u32::try_from(self.rows.len()).expect("row array fits u32");
                    self.rows.extend_from_slice(dfa.table());
                    base
                }
            };
        }
    }

    /// The row-array entry of a slot of constraint `ci`.
    fn slot_row(&self, ci: u32) -> SlotInfo {
        let dfa = &self.current_dfa[ci as usize];
        SlotInfo {
            ci,
            base: self.table_base[ci as usize],
            stride: dfa.nclasses(),
            nstates: dfa.nstates(),
        }
    }

    /// Slot `slot`'s successor of `state` on `class`, or [`DEAD`] — the
    /// one table lookup every step makes.
    #[inline]
    fn next(&self, slot: u32, state: u16, class: u16) -> u16 {
        let info = self.slot_info[slot as usize];
        debug_assert!(
            class < info.stride,
            "an edge's class is in its slot's alphabet"
        );
        if state >= info.nstates {
            return DEAD;
        }
        self.rows[info.base as usize
            + usize::from(state) * usize::from(info.stride)
            + usize::from(class)]
    }

    /// The current table of slot `slot`'s constraint (for per-state
    /// metadata; steps read [`Binder::next`]).
    fn slot_dfa(&self, slot: usize) -> &Dfa {
        &self.current_dfa[self.slot_info[slot].ci as usize]
    }

    /// The compiled constraint set this binder instantiates.
    pub fn compiled(&self) -> &Arc<Compiled> {
        &self.compiled
    }

    /// Number of slots interned so far.
    pub fn slot_count(&self) -> usize {
        self.slot_info.len()
    }

    /// Number of states in slot `slot`'s DFA — the symbolic backend's
    /// per-level domain size. Only meaningful once every universe event
    /// has been interned (interning can regrow mutex tables).
    pub fn slot_nstates(&self, slot: u32) -> u16 {
        self.slot_info[slot as usize].nstates
    }

    /// Slot `slot`'s raw transition on occurrence class `class`
    /// ([`DEAD`] when rejected). Exposes the per-slot step function so a
    /// symbolic backend can tabulate each level's partial map directly.
    pub fn slot_next(&self, slot: u32, state: u16, class: u16) -> u16 {
        self.next(slot, state, class)
    }

    /// Whether slot `slot` in state `state` counts as quiescent (the
    /// per-slot conjunct of [`Binder::is_quiescent_wide`]).
    pub fn slot_state_quiescent(&self, slot: u32, state: u16) -> bool {
        state == 0 || self.slot_dfa(slot as usize).meta(state).quiescent
    }

    /// The display form of constraint `ci` (what violations name).
    pub fn constraint_display(&self, ci: usize) -> &str {
        &self.compiled.constraints[ci].display
    }

    /// The slot of constraint `ci` (correlation key positions `key`) for
    /// the scope instance `(sap id, key values of args)`, interned on
    /// first sight. Only a new slot copies its key values.
    fn intern_slot(&mut self, ci: usize, key: &[usize], sap: u32, args: &[Value]) -> u32 {
        let mut hasher = FxHasher::default();
        ci.hash(&mut hasher);
        sap.hash(&mut hasher);
        for &i in key {
            key_value(args, i).hash(&mut hasher);
        }
        let fp = fingerprint(&hasher);
        let newest = self.slot_index.get(&fp).copied().unwrap_or(NONE);
        let mut slot = newest;
        while slot != NONE {
            let held = &self.slot_keys[slot as usize];
            if self.slot_info[slot as usize].ci as usize == ci
                && held.sap == sap
                && held.keyvals.len() == key.len()
                && key
                    .iter()
                    .zip(&held.keyvals)
                    .all(|(&i, v)| key_value(args, i) == v)
            {
                return slot;
            }
            slot = held.next;
        }
        let fresh = u32::try_from(self.slot_info.len()).expect("slot count fits u32");
        self.slot_keys.push(SlotKey {
            sap,
            keyvals: key.iter().map(|&i| key_value(args, i).clone()).collect(),
            next: newest,
        });
        self.slot_index.insert(fp, fresh);
        if self.is_mutex(ci) {
            self.mutex_slots.push(fresh);
        }
        let ci = u32::try_from(ci).expect("constraint count fits u32");
        self.slot_info.push(self.slot_row(ci));
        fresh
    }

    /// Interns `sap` as a holder of mutex constraint `ci`, regrowing the
    /// constraint's table when the holder is new: the row array's mutex
    /// part is laid out again, and every mutex slot re-pointed.
    fn holder_index(&mut self, ci: usize, sap: &Sap) -> u16 {
        if let Some(i) = self.mutex[ci].holders.iter().position(|h| h == sap) {
            return u16::try_from(i).expect("holder count fits u16");
        }
        self.mutex[ci].holders.push(sap.clone());
        let holders = u16::try_from(self.mutex[ci].holders.len()).expect("holder count fits u16");
        self.current_dfa[ci] = self.compiled.mutex_table(holders);
        self.rows.truncate(self.fixed_rows);
        self.lay_out_tables(true);
        for &slot in &self.mutex_slots {
            let row = self.slot_row(self.slot_info[slot as usize].ci);
            self.slot_info[slot as usize] = row;
        }
        holders - 1
    }

    /// Resolves an occurrence to its edges, interning slots (and mutex
    /// holders) as needed. Edges come in ascending constraint order.
    pub fn resolve(&mut self, sap: &Sap, primitive: &str, args: &[Value]) -> Vec<Edge> {
        // Borrow the constraint set through a local `Arc` so shape data
        // stays readable across the `&mut self` interning below.
        let compiled = Arc::clone(&self.compiled);
        let Some(cis) = compiled.by_primitive.get(primitive) else {
            return Vec::new();
        };
        let mut edges = Vec::with_capacity(cis.len());
        let sap_id = self.saps.id(sap);
        for &ci in cis {
            let cc = &compiled.constraints[ci];
            let (scope_sap, class) = match &cc.shape {
                Shape::Counter { up, scope, .. } => {
                    // The interpreter checks the `up` name first, so a
                    // constraint relating a primitive to itself counts up.
                    let class = if primitive == up { UP } else { DOWN };
                    (Self::scoped(*scope, sap_id), class)
                }
                Shape::After { enable, scope, .. } => {
                    let class = if primitive == enable { ENABLE } else { CHECK };
                    (Self::scoped(*scope, sap_id), class)
                }
                Shape::Mutex { acquire, .. } => {
                    let holder = self.holder_index(ci, sap);
                    let class = if primitive == acquire {
                        mutex_acquire(holder)
                    } else {
                        mutex_release(holder)
                    };
                    (NONE, class)
                }
            };
            let slot = self.intern_slot(ci, &cc.key, scope_sap, args);
            edges.push(Edge {
                slot,
                class,
                ci: u32::try_from(ci).expect("constraint count fits u32"),
            });
        }
        edges
    }

    fn scoped(scope: ConstraintScope, sap: u32) -> u32 {
        match scope {
            ConstraintScope::SameSap => sap,
            ConstraintScope::Global => NONE,
        }
    }

    /// Like [`Binder::resolve`], but memoized per distinct occurrence:
    /// returns an id for [`Binder::edges`]. The steady-state cost of
    /// classifying an occurrence is one hash lookup.
    pub fn resolve_cached(&mut self, sap: &Sap, primitive: &str, args: &[Value]) -> u32 {
        let mut hasher = FxHasher::default();
        sap.hash(&mut hasher);
        primitive.hash(&mut hasher);
        args.hash(&mut hasher);
        let fp = fingerprint(&hasher);
        let newest = self.occ_index.get(&fp).copied().unwrap_or(NONE);
        let mut id = newest;
        while id != NONE {
            let key = &self.occ_keys[id as usize];
            if key.args == args
                && self.primitives.items[key.primitive as usize] == primitive
                && self.saps.items[key.sap as usize] == *sap
            {
                return id;
            }
            id = key.next;
        }
        let id = u32::try_from(self.occ_keys.len()).expect("occurrence count fits u32");
        let edges = self.resolve(sap, primitive, args);
        self.edge_lists.push(edges);
        self.occ_keys.push(OccKey {
            sap: self.saps.id(sap),
            primitive: self.primitives.id(primitive),
            args: args.to_vec(),
            next: newest,
        });
        self.occ_index.insert(fp, id);
        id
    }

    /// The edge list behind a [`Binder::resolve_cached`] id.
    pub fn edges(&self, id: u32) -> &[Edge] {
        &self.edge_lists[id as usize]
    }

    /// The reverse slot map: `result[slot] = (constraint index, instance)`
    /// for every slot interned so far. This is the introspection surface
    /// symmetry reduction builds its slot families from: slots of one
    /// constraint whose instances differ only in the SAP are images of one
    /// another under user permutations.
    pub fn slot_instances(&self) -> Vec<(usize, Instance)> {
        self.slot_info
            .iter()
            .zip(&self.slot_keys)
            .map(|(info, key)| {
                let sap = (key.sap != NONE).then(|| self.saps.items[key.sap as usize].clone());
                (info.ci as usize, (sap, key.keyvals.clone()))
            })
            .collect()
    }

    /// Whether constraint `ci` compiled to the mutual-exclusion shape (its
    /// slot states carry holder identities rather than per-SAP counters).
    pub fn is_mutex(&self, ci: usize) -> bool {
        matches!(self.compiled.constraints[ci].shape, Shape::Mutex { .. })
    }

    /// The holder SAP named by mutex constraint `ci`'s slot state `state`,
    /// or `None` for the free state (or a non-mutex constraint).
    pub fn mutex_holder_of(&self, ci: usize, state: u16) -> Option<Sap> {
        let dfa = &self.current_dfa[ci];
        if state >= dfa.nstates() {
            return None;
        }
        dfa.meta(state)
            .holder
            .map(|h| self.mutex[ci].holders[h as usize].clone())
    }

    /// The slot state of mutex constraint `ci` meaning "held by `sap`", or
    /// `None` when `sap` was never interned as a holder. Permuting users in
    /// a product state rewrites each held mutex slot to the state of the
    /// renamed holder through this map.
    pub fn mutex_holder_state(&self, ci: usize, sap: &Sap) -> Option<u16> {
        let h = self.mutex[ci].holders.iter().position(|held| held == sap)?;
        let h = u16::try_from(h).ok()?;
        let dfa = &self.current_dfa[ci];
        (0..dfa.nstates()).find(|&s| dfa.meta(s).holder == Some(h))
    }

    /// Whether the occurrence behind `edges` is allowed in product key
    /// `key` (slots beyond the key are at their initial state 0). Reads
    /// the key without copying it.
    #[inline]
    pub fn allowed(&self, key: &[u32], edges: &[Edge]) -> bool {
        edges.iter().all(|e| {
            let state = key.get(e.slot as usize).map_or(0, |&s| wide_state(s));
            self.next(e.slot, state, e.class) != DEAD
        })
    }

    /// Whether the occurrence behind `edges` is allowed in product key
    /// `key` and steps it to itself: every edge maps its slot state to
    /// that same state. Reads the key without copying it.
    #[inline]
    pub fn is_self_loop(&self, key: &[u32], edges: &[Edge]) -> bool {
        edges.iter().all(|e| {
            let state = key.get(e.slot as usize).map_or(0, |&s| wide_state(s));
            self.next(e.slot, state, e.class) == state
        })
    }

    /// Steps a *dense* product state — one entry per interned slot — in
    /// place, first growing it with initial (zero) states for slots
    /// interned since the last step. Every edge is checked before any slot
    /// is written, so a rejection leaves `state` exactly as it was (the
    /// reject-and-continue semantics of the admission gate). An
    /// occurrence's edges drive distinct slots (one per constraint), so
    /// checking them all against the pre-state is the same as stepping
    /// them in turn.
    pub(crate) fn step_dense(&self, state: &mut Vec<u16>, edges: &[Edge]) -> Result<(), Rejection> {
        state.resize(self.slot_info.len(), 0);
        for (i, e) in edges.iter().enumerate() {
            let from = state[e.slot as usize];
            if self.next(e.slot, from, e.class) == DEAD {
                return Err(Rejection {
                    edge: i,
                    state: from,
                });
            }
        }
        for e in edges {
            state[e.slot as usize] = self.next(e.slot, state[e.slot as usize], e.class);
        }
        Ok(())
    }

    /// Whether a rejection of `edge` only hit the obligation bound the
    /// counters were compiled with (a `Precedes` / `EventuallyFollows`
    /// trigger past the bound) rather than a violation of the constraint
    /// itself. Trace-level checking has no such bound.
    pub(crate) fn is_bound_rejection(&self, edge: &Edge) -> bool {
        matches!(
            &self.compiled.constraints[edge.ci as usize].shape,
            Shape::Counter {
                flavor: CounterFlavor::Precedes | CounterFlavor::Eventually,
                ..
            } if edge.class == UP
        )
    }

    /// Steps the `u32` product key `key` of a search, writing the
    /// successor into `out` instead of allocating it. `out` may be wider
    /// than `key`: the slots past `key` start at their initial state 0.
    /// Every edge slot must be below `out.len()`. Every edge is checked
    /// against `key` before anything is copied, so a rejection costs no
    /// copy and leaves `out` untouched. An occurrence's edges drive
    /// distinct slots (one per constraint), so the rejection is
    /// the one stepping the edges in turn would report. Slot states always
    /// fit `u16` (they come from the tables); the wide layout is the
    /// caller's.
    pub fn step_wide_into(
        &self,
        key: &[u32],
        edges: &[Edge],
        out: &mut [u32],
    ) -> Result<(), Rejection> {
        debug_assert!(
            edges
                .iter()
                .enumerate()
                .all(|(i, e)| edges[..i].iter().all(|d| d.slot != e.slot)),
            "an occurrence's edges drive distinct slots"
        );
        for (i, e) in edges.iter().enumerate() {
            let state = key.get(e.slot as usize).map_or(0, |&s| wide_state(s));
            if self.next(e.slot, state, e.class) == DEAD {
                return Err(Rejection { edge: i, state });
            }
        }
        let (head, tail) = out.split_at_mut(key.len());
        head.copy_from_slice(key);
        tail.fill(0);
        for e in edges {
            let successor = self.next(e.slot, wide_state(out[e.slot as usize]), e.class);
            out[e.slot as usize] = u32::from(successor);
        }
        Ok(())
    }

    /// Whether the `u32` product key `key` is quiescent: every touched
    /// slot sits in a quiescent state (the `After` latch is quiescent in
    /// both states, exactly like the interpreter's exemption).
    pub fn is_quiescent_wide(&self, key: &[u32]) -> bool {
        key.iter()
            .enumerate()
            .all(|(i, &s)| s == 0 || self.slot_dfa(i).meta(wide_state(s)).quiescent)
    }

    /// Total outstanding `EventuallyFollows` obligations in the dense
    /// state `key` (the sum of the obligation weights of every slot
    /// state).
    pub fn obligations(&self, key: &[u16]) -> u32 {
        key.iter()
            .enumerate()
            .filter(|&(_, &s)| s != 0)
            .map(|(i, &s)| self.slot_dfa(i).meta(s).weight)
            .sum()
    }

    /// Renders the violation message for a rejection through the
    /// interpreter's own [`Violation`] texts.
    pub fn violation_message(&self, edge: &Edge, state: u16, sap: &Sap) -> String {
        let ci = edge.ci as usize;
        let cc = &self.compiled.constraints[ci];
        let violation = match &cc.shape {
            Shape::Counter {
                up,
                down,
                flavor,
                bound,
                ..
            } => {
                let bound = u64::from(*bound);
                match (*flavor, edge.class) {
                    (CounterFlavor::Precedes, UP) => {
                        Violation::UnmatchedBound { earlier: up, bound }
                    }
                    (CounterFlavor::Precedes, _) => Violation::Unpreceded {
                        earlier: up,
                        later: down,
                    },
                    (CounterFlavor::Eventually, _) => {
                        Violation::OutstandingBound { trigger: up, bound }
                    }
                    (CounterFlavor::AtMost, _) => Violation::OverLimit {
                        trigger: up,
                        limit: bound,
                    },
                }
            }
            Shape::After { enable, check, .. } => Violation::NotEnabled {
                enabler: enable,
                then: check,
            },
            Shape::Mutex { acquire, release } => {
                let holder = self
                    .slot_dfa(edge.slot as usize)
                    .meta(state)
                    .holder
                    .map(|h| &self.mutex[ci].holders[h as usize]);
                let acquiring = edge.class % 2 == 1;
                match (acquiring, holder) {
                    (true, Some(holder)) => Violation::Held {
                        acquire,
                        sap,
                        holder,
                    },
                    (false, Some(holder)) => Violation::NotHolder {
                        release,
                        sap,
                        holder,
                    },
                    (false, None) => Violation::NothingHeld { release, sap },
                    // An acquire can only be rejected while held.
                    (true, None) => unreachable!("acquire rejected in a holder-free state"),
                }
            }
        };
        violation.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_model::{Constraint, Direction, PartId, PrimitiveSpec, ServiceDefinition};

    fn sap(k: u64) -> Sap {
        Sap::new("user", PartId::new(k))
    }

    fn binder(constraints: Vec<Constraint>, bound: u32) -> Binder {
        let mut builder = ServiceDefinition::builder("runner-test")
            .role("user", 1, 4)
            .primitive(PrimitiveSpec::new("a", Direction::FromUser).param_id("k"))
            .primitive(PrimitiveSpec::new("b", Direction::FromUser).param_id("k"));
        for c in constraints {
            builder = builder.constraint(c);
        }
        let service = builder.build().expect("test service is well-formed");
        Binder::new(Arc::new(
            Compiled::compile(&service, bound).expect("known kinds compile"),
        ))
    }

    #[test]
    fn same_sap_scopes_intern_one_slot_per_sap_and_key() {
        let mut b = binder(
            vec![Constraint::precedes("a", "b", ConstraintScope::SameSap).keyed(&[0])],
            2,
        );
        let e1 = b.resolve(&sap(1), "a", &[Value::Id(1)]);
        let e2 = b.resolve(&sap(1), "a", &[Value::Id(2)]);
        let e3 = b.resolve(&sap(2), "a", &[Value::Id(1)]);
        let e4 = b.resolve(&sap(1), "b", &[Value::Id(1)]);
        assert_eq!(b.slot_count(), 3, "three distinct (sap, key) instances");
        assert_ne!(e1[0].slot, e2[0].slot);
        assert_ne!(e1[0].slot, e3[0].slot);
        assert_eq!(e1[0].slot, e4[0].slot, "`b` discharges `a`'s instance");
    }

    #[test]
    fn wide_stepping_reads_slots_past_the_key_as_initial() {
        let mut b = binder(
            vec![Constraint::precedes("a", "b", ConstraintScope::SameSap)],
            2,
        );
        let up = b.resolve(&sap(1), "a", &[]);
        let down = b.resolve(&sap(1), "b", &[]);
        let mut s1 = [7u32];
        b.step_wide_into(&[], &up, &mut s1)
            .expect("a is allowed initially");
        assert_eq!(s1, [1]);
        let mut s0 = [7u32];
        b.step_wide_into(&s1, &down, &mut s0).expect("b discharges");
        assert_eq!(s0, [0]);
        assert!(b.allowed(&[], &up));
        assert!(!b.allowed(&[], &down));
        assert_eq!(
            b.step_wide_into(&[], &down, &mut s0),
            Err(Rejection { edge: 0, state: 0 }),
            "b before a violates"
        );
    }

    #[test]
    fn wide_stepping_rejects_like_stepping_the_edges_in_turn() {
        // `b` raises the first constraint's counter and discharges the
        // second's, so in a fresh instance its second edge rejects.
        let mut b = binder(
            vec![
                Constraint::precedes("b", "a", ConstraintScope::SameSap),
                Constraint::precedes("a", "b", ConstraintScope::SameSap),
            ],
            2,
        );
        let down = b.resolve(&sap(1), "b", &[]);
        assert_eq!(down.len(), 2, "one edge per constraint");
        for key in [&[][..], &[1][..], &[1, 0][..]] {
            let mut dense: Vec<u16> = key.iter().map(|&s| s as u16).collect();
            let in_turn = down
                .iter()
                .enumerate()
                .find_map(|(i, e)| {
                    b.step_dense(&mut dense, std::slice::from_ref(e))
                        .err()
                        .map(|r| Rejection {
                            edge: i,
                            state: r.state,
                        })
                })
                .expect("the second edge rejects");
            assert_eq!(in_turn.edge, 1, "key {key:?}");
            let mut out = [7u32, 7];
            assert_eq!(
                b.step_wide_into(key, &down, &mut out),
                Err(in_turn),
                "key {key:?}"
            );
            assert_eq!(
                out,
                [7, 7],
                "key {key:?}: a rejection leaves `out` as it was"
            );
        }
    }

    #[test]
    fn mutex_messages_name_the_holder() {
        let mut b = binder(vec![Constraint::mutual_exclusion("a", "b").keyed(&[0])], 2);
        let acq1 = b.resolve(&sap(1), "a", &[Value::Id(9)]);
        let acq2 = b.resolve(&sap(2), "a", &[Value::Id(9)]);
        let rel2 = b.resolve(&sap(2), "b", &[Value::Id(9)]);
        assert_eq!(acq1[0].slot, acq2[0].slot, "same key, same slot");
        let mut held = Vec::new();
        b.step_dense(&mut held, &acq1).unwrap();
        let rejection = b.step_dense(&mut held, &acq2).unwrap_err();
        let msg = b.violation_message(&acq2[rejection.edge], rejection.state, &sap(2));
        assert_eq!(msg, format!("`a` at {} while held by {}", sap(2), sap(1)));
        let rejection = b.step_dense(&mut held, &rel2).unwrap_err();
        let msg = b.violation_message(&rel2[rejection.edge], rejection.state, &sap(2));
        assert_eq!(msg, format!("`b` at {} but holder is {}", sap(2), sap(1)));
        let rejection = b.step_dense(&mut Vec::new(), &rel2).unwrap_err();
        let msg = b.violation_message(&rel2[rejection.edge], rejection.state, &sap(2));
        assert_eq!(msg, format!("`b` at {} but nothing is held", sap(2)));
    }

    #[test]
    fn regrowing_the_holder_alphabet_keeps_old_states_valid() {
        let mut b = binder(vec![Constraint::mutual_exclusion("a", "b")], 2);
        let acq1 = b.resolve(&sap(1), "a", &[]);
        let mut held = Vec::new();
        b.step_dense(&mut held, &acq1).unwrap();
        // A new holder appears only now: the table regrows, but the state
        // reached under the smaller alphabet must still mean "held by 1".
        let rel9 = b.resolve(&sap(9), "b", &[]);
        let rejection = b.step_dense(&mut held, &rel9).unwrap_err();
        let msg = b.violation_message(&rel9[rejection.edge], rejection.state, &sap(9));
        assert_eq!(msg, format!("`b` at {} but holder is {}", sap(9), sap(1)));
        let rel1 = b.resolve(&sap(1), "b", &[]);
        b.step_dense(&mut held, &rel1).unwrap();
        assert_eq!(held, vec![0]);
    }

    /// Asserts that the row array answers every (slot, state, class)
    /// exactly like the slot's current table — including one state past
    /// the table, which rejects — and that `allowed`, `is_self_loop`,
    /// `step_wide_into` and `step_dense` agree with stepping each edge
    /// through [`Dfa::next`] in turn, from every combination of states of
    /// the slots each occurrence drives.
    fn assert_rows_match_tables(b: &Binder, occurrences: &[Vec<Edge>]) {
        for slot in 0..b.slot_count() {
            let dfa = b.slot_dfa(slot);
            let slot = slot as u32;
            assert_eq!(b.slot_nstates(slot), dfa.nstates(), "slot {slot}");
            for state in 0..=dfa.nstates() {
                for class in 0..dfa.nclasses() {
                    assert_eq!(
                        b.slot_next(slot, state, class),
                        dfa.next(state, class),
                        "slot {slot}, state {state}, class {class}"
                    );
                }
            }
        }
        let width = b.slot_count();
        for edges in occurrences {
            // Every combination of states (one past each table included)
            // of the slots the occurrence drives; other slots stay at 0.
            let mut keys = vec![vec![0u32; width]];
            for e in edges {
                let states = u32::from(b.slot_dfa(e.slot as usize).nstates());
                keys = keys
                    .into_iter()
                    .flat_map(|key| {
                        (0..=states).map(move |s| {
                            let mut key = key.clone();
                            key[e.slot as usize] = s;
                            key
                        })
                    })
                    .collect();
            }
            for key in keys {
                let reference = edges.iter().try_fold(key.clone(), |mut next, e| {
                    let dfa = b.slot_dfa(e.slot as usize);
                    let to = dfa.next(next[e.slot as usize] as u16, e.class);
                    (to != DEAD).then(|| {
                        next[e.slot as usize] = u32::from(to);
                        next
                    })
                });
                let what = format!("edges {edges:?}, key {key:?}");
                assert_eq!(b.allowed(&key, edges), reference.is_some(), "{what}");
                assert_eq!(
                    b.is_self_loop(&key, edges),
                    reference.as_ref() == Some(&key),
                    "{what}"
                );
                let mut out = vec![7u32; width];
                let wide = b.step_wide_into(&key, edges, &mut out);
                assert_eq!(wide.is_ok(), reference.is_some(), "{what}");
                let dense_key: Vec<u16> = key.iter().map(|&s| s as u16).collect();
                let mut dense = dense_key.clone();
                let stepped = b.step_dense(&mut dense, edges);
                assert_eq!(stepped.is_ok(), reference.is_some(), "{what}");
                match &reference {
                    Some(next) => {
                        assert_eq!(&out, next, "{what}");
                        let wide_dense: Vec<u32> = dense.iter().map(|&s| u32::from(s)).collect();
                        assert_eq!(&wide_dense, next, "{what}");
                    }
                    None => {
                        assert_eq!(out, vec![7; width], "{what}");
                        assert_eq!(dense, dense_key, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn row_array_agrees_with_the_tables_across_regrowth() {
        let mut b = binder(
            vec![
                Constraint::precedes("a", "b", ConstraintScope::SameSap).keyed(&[0]),
                Constraint::eventually_follows("a", "b", ConstraintScope::Global),
                Constraint::after("a", "b", ConstraintScope::SameSap),
                Constraint::mutual_exclusion("a", "b").keyed(&[0]),
            ],
            2,
        );
        let mut occurrences = Vec::new();
        let acquire = b.resolve(&sap(1), "a", &[Value::Id(1)]);
        let mut held = Vec::new();
        b.step_dense(&mut held, &acquire).unwrap();
        occurrences.push(acquire);
        occurrences.push(b.resolve(&sap(1), "b", &[Value::Id(1)]));
        assert_rows_match_tables(&b, &occurrences);
        // New holders regrow the mutex table after "held by 1" was
        // reached; a new key interns a slot under the regrown table.
        for k in 2..=4 {
            occurrences.push(b.resolve(&sap(k), "a", &[Value::Id(1)]));
            occurrences.push(b.resolve(&sap(k), "b", &[Value::Id(2)]));
            assert_rows_match_tables(&b, &occurrences);
        }
        // The state reached before the regrowth still means "held by 1".
        let release = b.resolve(&sap(1), "b", &[Value::Id(1)]);
        assert!(
            b.step_dense(&mut held, &occurrences[4]).is_err(),
            "held by 1"
        );
        b.step_dense(&mut held, &release).unwrap();
        assert_eq!(held[release[3].slot as usize], 0, "released");
    }

    #[test]
    fn cached_resolution_returns_stable_ids() {
        let mut b = binder(
            vec![Constraint::precedes("a", "b", ConstraintScope::SameSap)],
            2,
        );
        let id1 = b.resolve_cached(&sap(1), "a", &[]);
        let id2 = b.resolve_cached(&sap(1), "a", &[]);
        let id3 = b.resolve_cached(&sap(1), "b", &[]);
        assert_eq!(id1, id2);
        assert_ne!(id1, id3);
        assert_eq!(b.edges(id1).len(), 1);
        // Every field of the occurrence tells it apart.
        let id4 = b.resolve_cached(&sap(1), "a", &[Value::Id(1)]);
        let id5 = b.resolve_cached(&sap(2), "a", &[]);
        assert_eq!([id3, id4, id5], [1, 2, 3], "three new occurrences");
        assert_eq!(b.resolve_cached(&sap(1), "a", &[Value::Id(1)]), id4);
        assert_eq!(b.resolve_cached(&sap(2), "a", &[]), id5);
    }

    #[test]
    fn quiescence_and_obligations_mirror_the_interpreter() {
        let mut b = binder(
            vec![
                Constraint::eventually_follows("a", "b", ConstraintScope::SameSap),
                Constraint::after("a", "b", ConstraintScope::Global),
            ],
            3,
        );
        let wide = |state: &[u16]| state.iter().map(|&s| u32::from(s)).collect::<Vec<_>>();
        let up = b.resolve(&sap(1), "a", &[]);
        let mut state = Vec::new();
        b.step_dense(&mut state, &up).unwrap();
        b.step_dense(&mut state, &up).unwrap();
        assert_eq!(b.obligations(&state), 2);
        assert!(
            !b.is_quiescent_wide(&wide(&state)),
            "outstanding EF obligations"
        );
        let down = b.resolve(&sap(1), "b", &[]);
        b.step_dense(&mut state, &down).unwrap();
        b.step_dense(&mut state, &down).unwrap();
        // The After latch stays enabled (state 1) but is quiescent.
        assert_eq!(state, vec![0, 1]);
        assert!(b.is_quiescent_wide(&wide(&state)));
        assert_eq!(b.obligations(&state), 0);
    }
}
