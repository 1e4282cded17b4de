//! Dense-table DFAs and the content interner.

use std::collections::HashMap;
use std::sync::Arc;

/// The rejection sentinel: `next(state, class) == DEAD` means the event is
/// forbidden in that state (a constraint violation).
pub const DEAD: u16 = u16::MAX;

/// Per-state metadata carried alongside the transition table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateMeta {
    /// Whether the state counts as quiescent (no outstanding obligation,
    /// nothing held).
    pub quiescent: bool,
    /// Outstanding-obligation weight (the counter value for
    /// `EventuallyFollows` shapes; 0 elsewhere).
    pub weight: u32,
    /// For mutual-exclusion automata: the interned holder index when the
    /// state means "held by holder `i`".
    pub holder: Option<u16>,
}

/// A deterministic safety automaton with a dense row-major transition
/// table: `table[state * nclasses + class]` is the successor, or [`DEAD`].
///
/// States and classes are dense small integers, so a constraint step is a
/// single indexed load. DFAs are immutable after construction and shared
/// via [`Arc`] through the [`DfaCache`] content interner.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dfa {
    nclasses: u16,
    nstates: u16,
    table: Vec<u16>,
    meta: Vec<StateMeta>,
}

impl Dfa {
    /// Builds a DFA from a row-major table (length `nstates * nclasses`,
    /// state 0 initial) and per-state metadata.
    pub fn new(nclasses: u16, table: Vec<u16>, meta: Vec<StateMeta>) -> Dfa {
        assert!(nclasses > 0, "a DFA needs at least the OTHER class");
        assert_eq!(table.len() % nclasses as usize, 0, "ragged table");
        let nstates = u16::try_from(table.len() / nclasses as usize).expect("state count fits u16");
        assert_eq!(meta.len(), nstates as usize, "metadata per state");
        Dfa {
            nclasses,
            nstates,
            table,
            meta,
        }
    }

    /// The successor of `state` on `class`, or [`DEAD`].
    ///
    /// A `state` beyond this table (possible when a mutual-exclusion
    /// alphabet was regrown after the state was reached) rejects: the only
    /// way to be in such a state is to hold through a newer holder, and
    /// both acquiring over it and releasing it by anyone else is a
    /// violation.
    #[inline]
    pub fn next(&self, state: u16, class: u16) -> u16 {
        if state >= self.nstates {
            return DEAD;
        }
        self.table[state as usize * self.nclasses as usize + class as usize]
    }

    /// The row-major transition table (`nstates * nclasses` entries).
    pub(crate) fn table(&self) -> &[u16] {
        &self.table
    }

    /// Number of states.
    pub fn nstates(&self) -> u16 {
        self.nstates
    }

    /// Number of classes.
    pub fn nclasses(&self) -> u16 {
        self.nclasses
    }

    /// Metadata of `state`.
    ///
    /// # Panics
    ///
    /// Panics when `state` is out of range.
    pub fn meta(&self, state: u16) -> StateMeta {
        self.meta[state as usize]
    }
}

/// Content interner for DFAs: structurally identical automata share one
/// [`Arc`], so a service whose constraints reduce to the same shape (the
/// floor-control service has two `Precedes` and two `EventuallyFollows`
/// over the same bound) pays for each table once.
#[derive(Debug, Default)]
pub struct DfaCache {
    interned: HashMap<Arc<Dfa>, Arc<Dfa>>,
}

impl DfaCache {
    /// Creates an empty cache.
    pub fn new() -> DfaCache {
        DfaCache::default()
    }

    /// Interns `dfa`, returning the shared instance.
    pub fn intern(&mut self, dfa: Dfa) -> Arc<Dfa> {
        if let Some(shared) = self.interned.get(&dfa) {
            return Arc::clone(shared);
        }
        let shared = Arc::new(dfa);
        self.interned
            .insert(Arc::clone(&shared), Arc::clone(&shared));
        shared
    }

    /// Number of distinct automata interned.
    pub fn len(&self) -> usize {
        self.interned.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.interned.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(table: Vec<u16>) -> Dfa {
        let meta = vec![
            StateMeta {
                quiescent: true,
                weight: 0,
                holder: None,
            };
            table.len()
        ];
        Dfa::new(1, table, meta)
    }

    #[test]
    fn interning_is_by_content() {
        let mut cache = DfaCache::new();
        let a = cache.intern(tiny(vec![0, 1]));
        let b = cache.intern(tiny(vec![0, 1]));
        let c = cache.intern(tiny(vec![1, 0]));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn out_of_range_states_reject() {
        let dfa = tiny(vec![0]);
        assert_eq!(dfa.next(0, 0), 0);
        assert_eq!(dfa.next(7, 0), DEAD);
    }
}
