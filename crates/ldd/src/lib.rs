//! # svckit-ldd — list decision diagrams for symbolic reachability
//!
//! Product states in the `svckit-lts` explorer are fixed-width vectors of
//! small interned integers (per-constraint state ids under the
//! interpreter, per-slot DFA states under the compiled engine). This crate
//! stores *sets* of such vectors as **list decision diagrams** (LDDs, the
//! mCRL2 representation): a hash-consed DAG where each node
//! `(value, down, right)` reads "the vector's next component is `value`
//! (continue in `down`), or skip to a larger component (continue in
//! `right`)". Right-chains are strictly ascending, structurally equal
//! diagrams are interned to the same id, and every set has exactly one
//! canonical diagram — set equality is id equality.
//!
//! The [`LddStore`] owns the unique table and the operation caches:
//!
//! * binary set operations ([`LddStore::union`], [`LddStore::minus`],
//!   [`LddStore::intersect`]) are memoized per node pair;
//! * the relational product of a set with one event's transition relation
//!   is applied level-by-level ([`LddStore::image`],
//!   [`LddStore::preimage`], [`LddStore::filter_enabled`]) — the step
//!   relations of this workload factorize into independent deterministic
//!   partial maps per level, so no monolithic transition relation is ever
//!   built; walks are memoized per `(event, node, depth)`;
//! * [`LddStore::satcount`] counts the concrete vectors a diagram denotes.
//!
//! A [`Backend`] knob (explicit vs symbolic) rides here so every consumer
//! crate can thread it the way `svckit-dfa`'s `Engine` is threaded.
//!
//! The store enforces a node budget ([`LddStore::with_node_limit`]):
//! exceeding it never corrupts results — callers poll
//! [`LddStore::over_limit`] between fixpoint rounds and fall back to the
//! explicit engine, mirroring the DFA >4096-state fallback.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;

pub use backend::Backend;

use svckit_model::hash::FastMap;

/// A diagram id: an index into the store's node table. Equal sets have
/// equal ids (hash-consing), so this is also the set's identity.
pub type Ldd = u32;

/// The empty set.
pub const EMPTY: Ldd = 0;

/// The set containing exactly the empty vector (the terminal every
/// complete vector path ends in).
pub const UNIT: Ldd = 1;

/// How one event treats one `(level, value)` pair during a forward walk
/// ([`LddStore::image`], [`LddStore::filter_enabled`]).
///
/// For a fixed `(event, level)` the closure must answer uniformly: either
/// `Identity` for every value (the event does not touch the level) or
/// `To`/`Blocked` per value — that is what keeps image chains canonical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelStep {
    /// The event does not touch this level; the component passes through.
    Identity,
    /// The component steps deterministically to this value.
    To(u32),
    /// The event is disallowed at this component value.
    Blocked,
}

/// How one event treats one `(level, target value)` pair during a backward
/// walk ([`LddStore::preimage`]): either untouched, or the (possibly
/// empty) list of source values that map onto the target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreStep {
    /// The event does not touch this level; the component passes through.
    Identity,
    /// The source values whose deterministic step lands on the target.
    Sources(Vec<u32>),
}

const OP_UNION: u8 = 0;
const OP_MINUS: u8 = 1;
const OP_INTERSECT: u8 = 2;

const OP_IMAGE: u8 = 0;
const OP_FILTER: u8 = 1;
const OP_PREIMAGE: u8 = 2;

#[derive(Debug, Clone, Copy)]
struct Node {
    value: u32,
    down: Ldd,
    right: Ldd,
}

#[derive(Debug)]
enum Head {
    /// A chain head in original (ascending) position.
    Ordered(u32, Ldd),
    /// An out-of-order contribution to merge in via union.
    Single(u32, Ldd),
    /// Out-of-order contributions, one per value over the same `down`, to
    /// merge in via union.
    Singles(Vec<u32>, Ldd),
    /// No contribution from this chain entry.
    None,
}

/// The hash-consed node table plus every operation cache.
#[derive(Debug)]
pub struct LddStore {
    nodes: Vec<Node>,
    unique: FastMap<(u32, Ldd, Ldd), Ldd>,
    /// Binary-op memo: `(op, a, b) → result`.
    op_cache: FastMap<OpKey, Ldd>,
    /// Relational-product memo: `(op, event, node, depth) → result`.
    rel_cache: FastMap<RelKey, Ldd>,
    count_cache: FastMap<Ldd, u64>,
    cache_hits: u64,
    node_limit: usize,
    /// Work stacks shared by every (recursive) walk: each call pushes one
    /// entry per chain node it visits — the memo key and the chain head
    /// it contributes — and pops back down to where it started while
    /// rebuilding its result, so no walk allocates per call.
    pair_stack: Vec<(OpKey, Option<(u32, Ldd)>)>,
    rel_stack: Vec<(RelKey, Head)>,
}

/// A binary-op memo key: `(op, a, b)`.
type OpKey = (u8, Ldd, Ldd);

/// A relational-product memo key: `(op, event, node, depth)`.
type RelKey = (u8, u32, Ldd, u32);

impl Default for LddStore {
    fn default() -> Self {
        LddStore::new()
    }
}

impl LddStore {
    /// Creates a store with no node budget.
    pub fn new() -> LddStore {
        LddStore::with_node_limit(usize::MAX)
    }

    /// Creates a store whose unique table is budgeted at `node_limit`
    /// inner nodes; see [`LddStore::over_limit`].
    pub fn with_node_limit(node_limit: usize) -> LddStore {
        let sentinel = Node {
            value: 0,
            down: EMPTY,
            right: EMPTY,
        };
        LddStore {
            nodes: vec![sentinel; 2],
            unique: FastMap::default(),
            op_cache: FastMap::default(),
            rel_cache: FastMap::default(),
            count_cache: FastMap::default(),
            cache_hits: 0,
            node_limit,
            pair_stack: Vec::new(),
            rel_stack: Vec::new(),
        }
    }

    /// Number of inner nodes interned so far (terminals excluded). The
    /// store never garbage-collects, so this is also the high-water mark.
    pub fn inner_nodes(&self) -> usize {
        self.nodes.len() - 2
    }

    /// Total operation-cache hits (set ops, relational products, counts).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Whether the node budget has been exceeded. Results stay correct;
    /// the caller is expected to abandon the symbolic search and fall back
    /// to the explicit engine.
    pub fn over_limit(&self) -> bool {
        self.inner_nodes() > self.node_limit
    }

    /// Number of distinct nodes in the diagram rooted at `a` (terminals
    /// excluded) — the size of the *answer*, as opposed to
    /// [`LddStore::inner_nodes`], the size of the whole table.
    pub fn ldd_size(&self, a: Ldd) -> usize {
        let mut seen: std::collections::HashSet<Ldd> = std::collections::HashSet::new();
        let mut stack = vec![a];
        while let Some(x) = stack.pop() {
            if x <= UNIT || !seen.insert(x) {
                continue;
            }
            let n = self.nodes[x as usize];
            stack.push(n.down);
            stack.push(n.right);
        }
        seen.len()
    }

    #[inline]
    fn node(&self, a: Ldd) -> Node {
        debug_assert!(a > UNIT, "terminals have no node");
        self.nodes[a as usize]
    }

    /// Interns `(value, down, right)`, normalizing `down == EMPTY` to
    /// `right` (a component with no continuation denotes nothing).
    fn mk(&mut self, value: u32, down: Ldd, right: Ldd) -> Ldd {
        if down == EMPTY {
            return right;
        }
        debug_assert!(
            right == EMPTY || self.node(right).value > value,
            "right chains are strictly ascending"
        );
        if let Some(&id) = self.unique.get(&(value, down, right)) {
            return id;
        }
        let id = Ldd::try_from(self.nodes.len()).expect("fewer than 2^32 LDD nodes");
        self.nodes.push(Node { value, down, right });
        self.unique.insert((value, down, right), id);
        id
    }

    /// The diagram denoting exactly `{vector}`.
    pub fn singleton(&mut self, vector: &[u32]) -> Ldd {
        let mut result = UNIT;
        for &value in vector.iter().rev() {
            result = self.mk(value, result, EMPTY);
        }
        result
    }

    /// Whether `vector` is in the set `a`.
    pub fn contains(&self, mut a: Ldd, vector: &[u32]) -> bool {
        for &value in vector {
            loop {
                if a <= UNIT {
                    return false;
                }
                let n = self.node(a);
                match n.value.cmp(&value) {
                    std::cmp::Ordering::Less => a = n.right,
                    std::cmp::Ordering::Equal => {
                        a = n.down;
                        break;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
        }
        a == UNIT
    }

    /// Every vector in `a`, in ascending lexicographic order.
    pub fn enumerate(&self, a: Ldd) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        self.enumerate_into(a, &mut prefix, &mut out);
        out
    }

    fn enumerate_into(&self, a: Ldd, prefix: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if a == EMPTY {
            return;
        }
        if a == UNIT {
            out.push(prefix.clone());
            return;
        }
        let mut x = a;
        while x != EMPTY {
            let n = self.node(x);
            prefix.push(n.value);
            self.enumerate_into(n.down, prefix, out);
            prefix.pop();
            x = n.right;
        }
    }

    /// `a ∪ b`. Both must hold vectors of one common width.
    pub fn union(&mut self, a: Ldd, b: Ldd) -> Ldd {
        if a == b || b == EMPTY {
            return a;
        }
        if a == EMPTY {
            return b;
        }
        debug_assert!(a > UNIT && b > UNIT, "width mismatch in union");
        let base = self.pair_stack.len();
        let (mut x, mut y) = (a, b);
        let tail = loop {
            if x == y || y == EMPTY {
                break x;
            }
            if x == EMPTY {
                break y;
            }
            let key = (OP_UNION, x.min(y), x.max(y));
            if let Some(&r) = self.op_cache.get(&key) {
                self.cache_hits += 1;
                break r;
            }
            let nx = self.node(x);
            let ny = self.node(y);
            let head = match nx.value.cmp(&ny.value) {
                std::cmp::Ordering::Less => {
                    x = nx.right;
                    (nx.value, nx.down)
                }
                std::cmp::Ordering::Greater => {
                    y = ny.right;
                    (ny.value, ny.down)
                }
                std::cmp::Ordering::Equal => {
                    let down = self.union(nx.down, ny.down);
                    x = nx.right;
                    y = ny.right;
                    (nx.value, down)
                }
            };
            self.pair_stack.push((key, Some(head)));
        };
        self.unwind_pairs(base, tail)
    }

    /// `a \ b`.
    pub fn minus(&mut self, a: Ldd, b: Ldd) -> Ldd {
        if a == b || a == EMPTY {
            return EMPTY;
        }
        if b == EMPTY {
            return a;
        }
        let base = self.pair_stack.len();
        let (mut x, mut y) = (a, b);
        let tail = loop {
            if x == EMPTY || x == y {
                break EMPTY;
            }
            if y == EMPTY {
                break x;
            }
            let key = (OP_MINUS, x, y);
            if let Some(&r) = self.op_cache.get(&key) {
                self.cache_hits += 1;
                break r;
            }
            let nx = self.node(x);
            let ny = self.node(y);
            let head = match nx.value.cmp(&ny.value) {
                std::cmp::Ordering::Less => {
                    x = nx.right;
                    Some((nx.value, nx.down))
                }
                std::cmp::Ordering::Greater => {
                    y = ny.right;
                    None
                }
                std::cmp::Ordering::Equal => {
                    let down = self.minus(nx.down, ny.down);
                    x = nx.right;
                    y = ny.right;
                    (down != EMPTY).then_some((nx.value, down))
                }
            };
            self.pair_stack.push((key, head));
        };
        self.unwind_pairs(base, tail)
    }

    /// `a ∩ b`.
    pub fn intersect(&mut self, a: Ldd, b: Ldd) -> Ldd {
        if a == b {
            return a;
        }
        if a == EMPTY || b == EMPTY {
            return EMPTY;
        }
        let base = self.pair_stack.len();
        let (mut x, mut y) = (a, b);
        let tail = loop {
            if x == y {
                break x;
            }
            if x == EMPTY || y == EMPTY {
                break EMPTY;
            }
            let key = (OP_INTERSECT, x.min(y), x.max(y));
            if let Some(&r) = self.op_cache.get(&key) {
                self.cache_hits += 1;
                break r;
            }
            let nx = self.node(x);
            let ny = self.node(y);
            let head = match nx.value.cmp(&ny.value) {
                std::cmp::Ordering::Less => {
                    x = nx.right;
                    None
                }
                std::cmp::Ordering::Greater => {
                    y = ny.right;
                    None
                }
                std::cmp::Ordering::Equal => {
                    let down = self.intersect(nx.down, ny.down);
                    x = nx.right;
                    y = ny.right;
                    (down != EMPTY).then_some((nx.value, down))
                }
            };
            self.pair_stack.push((key, head));
        };
        self.unwind_pairs(base, tail)
    }

    /// Pops the set-operation chain entries above `base` (innermost
    /// first), prepending each head to the result chain built on `tail`
    /// and memoizing every intermediate result under its step's key.
    fn unwind_pairs(&mut self, base: usize, tail: Ldd) -> Ldd {
        let mut result = tail;
        while self.pair_stack.len() > base {
            let (key, head) = self.pair_stack.pop().expect("entries above the base");
            if let Some((value, down)) = head {
                result = self.mk(value, down, result);
            }
            self.op_cache.insert(key, result);
        }
        result
    }

    /// Number of vectors in `a` (memoized per node).
    pub fn satcount(&mut self, a: Ldd) -> u64 {
        if a == EMPTY {
            return 0;
        }
        if a == UNIT {
            return 1;
        }
        let mut steps: Vec<Ldd> = Vec::new();
        let mut downs: Vec<u64> = Vec::new();
        let mut x = a;
        let tail = loop {
            if x == EMPTY {
                break 0;
            }
            if let Some(&c) = self.count_cache.get(&x) {
                self.cache_hits += 1;
                break c;
            }
            steps.push(x);
            let n = self.node(x);
            downs.push(self.satcount(n.down));
            x = n.right;
        };
        let mut total = tail;
        for i in (0..steps.len()).rev() {
            total += downs[i];
            self.count_cache.insert(steps[i], total);
        }
        total
    }

    /// The image of `a` under one event's step relation: every vector of
    /// `a` on which the event is defined, stepped. `f(level, value)`
    /// answers per component (uniformly `Identity` on untouched levels);
    /// levels at or beyond `max_depth` are untouched wholesale, so the
    /// walk short-circuits there. Memoized per `(event, node, depth)`.
    pub fn image<F>(&mut self, a: Ldd, event: u32, max_depth: u32, f: &mut F) -> Ldd
    where
        F: FnMut(u32, u32) -> LevelStep,
    {
        self.relational(OP_IMAGE, a, event, 0, max_depth, f)
    }

    /// The subset of `a` on which one event is defined (enabled), without
    /// stepping — same closure contract as [`LddStore::image`].
    pub fn filter_enabled<F>(&mut self, a: Ldd, event: u32, max_depth: u32, f: &mut F) -> Ldd
    where
        F: FnMut(u32, u32) -> LevelStep,
    {
        self.relational(OP_FILTER, a, event, 0, max_depth, f)
    }

    fn relational<F>(
        &mut self,
        op: u8,
        a: Ldd,
        event: u32,
        depth: u32,
        max_depth: u32,
        f: &mut F,
    ) -> Ldd
    where
        F: FnMut(u32, u32) -> LevelStep,
    {
        if a == EMPTY || depth >= max_depth {
            return a;
        }
        let base = self.rel_stack.len();
        let mut x = a;
        let tail = loop {
            if x == EMPTY {
                break EMPTY;
            }
            let key = (op, event, x, depth);
            if let Some(&r) = self.rel_cache.get(&key) {
                self.cache_hits += 1;
                break r;
            }
            let n = self.node(x);
            let down = self.relational(op, n.down, event, depth + 1, max_depth, f);
            let head = if down == EMPTY {
                Head::None
            } else {
                match f(depth, n.value) {
                    LevelStep::Identity => Head::Ordered(n.value, down),
                    LevelStep::To(target) => {
                        if op == OP_FILTER {
                            Head::Ordered(n.value, down)
                        } else {
                            Head::Single(target, down)
                        }
                    }
                    LevelStep::Blocked => Head::None,
                }
            };
            self.rel_stack.push((key, head));
            x = n.right;
        };
        self.unwind_rel(base, tail)
    }

    /// The preimage of `a` under one event: every vector the event steps
    /// *into* `a`. `g(level, target)` lists the source values mapping onto
    /// a target component (or `Identity` on untouched levels). Memoized
    /// per `(event, node, depth)`; the closure must stay stable for the
    /// lifetime of the event's cache entries.
    pub fn preimage<G>(&mut self, a: Ldd, event: u32, max_depth: u32, g: &mut G) -> Ldd
    where
        G: FnMut(u32, u32) -> PreStep,
    {
        self.preimage_at(a, event, 0, max_depth, g)
    }

    fn preimage_at<G>(&mut self, a: Ldd, event: u32, depth: u32, max_depth: u32, g: &mut G) -> Ldd
    where
        G: FnMut(u32, u32) -> PreStep,
    {
        if a == EMPTY || depth >= max_depth {
            return a;
        }
        let base = self.rel_stack.len();
        let mut x = a;
        let tail = loop {
            if x == EMPTY {
                break EMPTY;
            }
            let key = (OP_PREIMAGE, event, x, depth);
            if let Some(&r) = self.rel_cache.get(&key) {
                self.cache_hits += 1;
                break r;
            }
            let n = self.node(x);
            let down = self.preimage_at(n.down, event, depth + 1, max_depth, g);
            let head = if down == EMPTY {
                Head::None
            } else {
                match g(depth, n.value) {
                    PreStep::Identity => Head::Ordered(n.value, down),
                    PreStep::Sources(sources) => {
                        if sources.is_empty() {
                            Head::None
                        } else {
                            Head::Singles(sources, down)
                        }
                    }
                }
            };
            self.rel_stack.push((key, head));
            x = n.right;
        };
        self.unwind_rel(base, tail)
    }

    /// [`LddStore::unwind_pairs`] for the relational walks: combines each
    /// popped head into the result and memoizes it in the relational
    /// cache.
    fn unwind_rel(&mut self, base: usize, tail: Ldd) -> Ldd {
        let mut result = tail;
        while self.rel_stack.len() > base {
            let (key, head) = self.rel_stack.pop().expect("entries above the base");
            result = self.combine(head, result);
            self.rel_cache.insert(key, result);
        }
        result
    }

    fn combine(&mut self, head: Head, rest: Ldd) -> Ldd {
        match head {
            Head::None => rest,
            Head::Ordered(value, down) => self.mk(value, down, rest),
            Head::Single(value, down) => {
                let single = self.mk(value, down, EMPTY);
                self.union(rest, single)
            }
            Head::Singles(values, down) => {
                let mut result = rest;
                for value in values {
                    let single = self.mk(value, down, EMPTY);
                    result = self.union(result, single);
                }
                result
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_makes_structural_equality_pointer_equality() {
        let mut store = LddStore::new();
        // The same set built in two insertion orders interns to one id.
        let mut a = EMPTY;
        for v in [[0u32, 1], [2, 0], [1, 1], [0, 0]] {
            let s = store.singleton(&v);
            a = store.union(a, s);
        }
        let mut b = EMPTY;
        for v in [[1u32, 1], [0, 0], [0, 1], [2, 0]] {
            let s = store.singleton(&v);
            b = store.union(b, s);
        }
        assert_eq!(a, b, "structurally equal diagrams share one node");
        assert_eq!(store.satcount(a), 4);
    }

    #[test]
    fn union_minus_intersect_behave_like_sets() {
        let mut store = LddStore::new();
        let vecs_a = [[0u32, 0], [0, 1], [1, 2]];
        let vecs_b = [[0u32, 1], [1, 2], [3, 3]];
        let mut a = EMPTY;
        let mut b = EMPTY;
        for v in vecs_a {
            let s = store.singleton(&v);
            a = store.union(a, s);
        }
        for v in vecs_b {
            let s = store.singleton(&v);
            b = store.union(b, s);
        }
        let u = store.union(a, b);
        let i = store.intersect(a, b);
        let d = store.minus(a, b);
        assert_eq!(store.satcount(u), 4);
        assert_eq!(store.satcount(i), 2);
        assert_eq!(store.satcount(d), 1);
        assert!(store.contains(d, &[0, 0]));
        assert!(!store.contains(d, &[0, 1]));
        let rejoined = store.union(i, d);
        assert_eq!(rejoined, a, "(a∩b) ∪ (a\\b) = a, canonically");
    }

    #[test]
    fn enumeration_is_sorted_and_canonical() {
        let mut store = LddStore::new();
        let mut a = EMPTY;
        for v in [[2u32, 1], [0, 3], [2, 0], [1, 9]] {
            let s = store.singleton(&v);
            a = store.union(a, s);
        }
        assert_eq!(
            store.enumerate(a),
            vec![vec![0, 3], vec![1, 9], vec![2, 0], vec![2, 1]],
            "vectors come out in ascending lexicographic order"
        );
    }

    #[test]
    fn cache_hits_are_accounted() {
        let mut store = LddStore::new();
        let a = store.singleton(&[0, 1, 2]);
        let b = store.singleton(&[0, 2, 2]);
        let before = store.cache_hits();
        let u1 = store.union(a, b);
        let u2 = store.union(a, b);
        assert_eq!(u1, u2);
        assert!(
            store.cache_hits() > before,
            "the repeated union must hit the memo"
        );
        let c1 = store.satcount(u1);
        let hits = store.cache_hits();
        let c2 = store.satcount(u1);
        assert_eq!(c1, c2);
        assert!(store.cache_hits() > hits, "repeated counts hit the memo");
    }

    #[test]
    fn image_and_preimage_invert_on_a_deterministic_map() {
        let mut store = LddStore::new();
        let mut a = EMPTY;
        for v in [[0u32, 0], [1, 0], [2, 0]] {
            let s = store.singleton(&v);
            a = store.union(a, s);
        }
        // Event 7: level 0 steps v → v+1 except 2 (blocked); level 1 untouched.
        let mut step = |level: u32, value: u32| -> LevelStep {
            if level != 0 {
                return LevelStep::Identity;
            }
            if value >= 2 {
                LevelStep::Blocked
            } else {
                LevelStep::To(value + 1)
            }
        };
        let img = store.image(a, 7, 1, &mut step);
        assert_eq!(store.enumerate(img), vec![vec![1, 0], vec![2, 0]]);
        let enabled = store.filter_enabled(a, 7, 1, &mut step);
        assert_eq!(store.enumerate(enabled), vec![vec![0, 0], vec![1, 0]]);
        let mut back = |level: u32, target: u32| -> PreStep {
            if level != 0 {
                return PreStep::Identity;
            }
            match target {
                1 => PreStep::Sources(vec![0]),
                2 => PreStep::Sources(vec![1]),
                _ => PreStep::Sources(vec![]),
            }
        };
        let pre = store.preimage(img, 7, 1, &mut back);
        assert_eq!(pre, enabled, "preimage of the image is the enabled set");
    }

    #[test]
    fn the_node_budget_trips_over_limit() {
        let mut store = LddStore::with_node_limit(8);
        assert!(!store.over_limit());
        let mut a = EMPTY;
        for i in 0..16u32 {
            let s = store.singleton(&[i, i ^ 1, i ^ 2]);
            a = store.union(a, s);
        }
        assert!(store.over_limit(), "16 scattered vectors exceed 8 nodes");
        // Results stay correct past the budget — refusal is the caller's job.
        assert_eq!(store.satcount(a), 16);
    }
}
