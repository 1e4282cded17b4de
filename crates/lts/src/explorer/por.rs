//! Ample-set partial-order reduction for
//! [`Reduction::AmpleSets`](super::Reduction::AmpleSets): the static
//! dependence classes over constraint instances and the per-state
//! ample-set choice.

use svckit_model::hash::FastMap;
use svckit_model::Instance;

use super::canon::EventAction;
use super::ServiceExplorer;

impl<'a> ServiceExplorer<'a> {
    /// Per universe event, its dependence class: the lowest universe index
    /// in the class.
    ///
    /// Two events are *dependent* when some constraint is relevant to both
    /// **at the same constraint instance** (same scope-SAP and key values):
    /// every current constraint kind reads and writes only the map entry of
    /// the event's own instance, so events touching disjoint instances
    /// commute and cannot affect each other's enabledness. The classes are
    /// the transitive closure of that (reflexive, symmetric) relation, so
    /// the class of any event `e` contains every event that can
    /// (transitively) interact with it — which makes `class(e) ∩ enabled`
    /// a stubborn set: enabled members have all their dependents inside,
    /// and disabled members can only be enabled from inside.
    pub(super) fn dependence_classes(&self) -> Vec<usize> {
        let constraints = self.service.constraints();
        // Union-find over universe indices; a root is the lowest index of
        // its class.
        let mut parent: Vec<usize> = (0..self.universe.len()).collect();
        fn root(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        // The first event seen reading/writing each (constraint, instance)
        // entry; every later one joins its class.
        let mut first: FastMap<(usize, Instance), usize> = FastMap::default();
        for (i, event) in self.universe.iter().enumerate() {
            for &ci in self.relevant(&event.primitive) {
                let j = *first
                    .entry((ci, constraints[ci].instance(&event.sap, &event.args)))
                    .or_insert(i);
                let (a, b) = (root(&mut parent, i), root(&mut parent, j));
                parent[a.max(b)] = a.min(b);
            }
        }
        (0..parent.len()).map(|i| root(&mut parent, i)).collect()
    }
}

/// Ample-set selection for
/// [`Reduction::AmpleSets`](super::Reduction::AmpleSets): the static
/// dependence classes and the per-expansion scratch buffers.
pub(super) struct AmpleSets {
    /// Per universe event, its dependence class
    /// ([`ServiceExplorer::dependence_classes`]).
    class: Vec<usize>,
    /// Scratch: enabled events per class, and the chosen ample set.
    counts: Vec<usize>,
    ample: Vec<usize>,
}

/// What [`AmpleSets::expand`] decided besides the events to expand.
#[derive(Debug, Clone, Copy)]
pub(super) struct Choice {
    /// Two or more classes tied for the smallest `|class ∩ enabled|`, so
    /// the lowest universe index picked the class.
    pub(super) tied: bool,
    /// Every member of the picked class was a self-loop, so all of
    /// `enabled` was expanded.
    pub(super) guarded: bool,
}

impl AmpleSets {
    pub(super) fn new(class: Vec<usize>) -> Self {
        let n = class.len();
        AmpleSets {
            class,
            counts: vec![0; n],
            ample: Vec::with_capacity(n),
        }
    }

    /// The enabled event that picks the class to expand in a state whose
    /// enabled events are `enabled` (ascending, non-empty): the lowest one
    /// among those minimising `|class ∩ enabled|`. Returns that event, the
    /// minimum, and whether a second class reaches it.
    fn smallest(&mut self, enabled: &[usize]) -> (usize, usize, bool) {
        for &i in enabled {
            self.counts[self.class[i]] = 0;
        }
        for &i in enabled {
            self.counts[self.class[i]] += 1;
        }
        // Ties go to the lowest universe index, for determinism.
        let (mut best, mut best_len, mut tied) = (enabled[0], usize::MAX, false);
        for &i in enabled {
            let len = self.counts[self.class[i]];
            if len < best_len {
                (best, best_len, tied) = (i, len, false);
            } else if len == best_len && self.class[i] != self.class[best] {
                tied = true;
            }
        }
        (best, best_len, tied)
    }

    /// The events to expand in a state whose enabled events are `enabled`
    /// (ascending, non-empty): the smallest `class ∩ enabled` over the
    /// enabled events, or all of `enabled` when that set is no smaller or
    /// every one of its members is a self-loop (`self_loop(i)`).
    pub(super) fn expand<'s>(
        &'s mut self,
        enabled: &'s [usize],
        mut self_loop: impl FnMut(usize) -> bool,
    ) -> (&'s [usize], Choice) {
        let (best, best_len, tied) = self.smallest(enabled);
        let mut choice = Choice {
            tied,
            guarded: false,
        };
        if best_len >= enabled.len() {
            return (enabled, choice);
        }
        // Only the winner's set is materialised.
        let class = self.class[best];
        self.ample.clear();
        self.ample
            .extend(enabled.iter().copied().filter(|&j| self.class[j] == class));
        // Guard against trivial starvation: an ample set whose every
        // transition loops back to this very state would let the search
        // idle forever and ignore the rest of the enabled events
        // (constraint-irrelevant events self-loop; under symmetry,
        // orbit-internal moves count as self-loops too, which only ever
        // forces *more* expansion).
        if self.ample.iter().all(|&i| self_loop(i)) {
            choice.guarded = true;
            return (enabled, choice);
        }
        (&self.ample, choice)
    }

    /// Whether every permutation of `action`'s groups maps dependence
    /// classes onto dependence classes. Checks each group's generators, a
    /// transposition and a full cycle of its members: a bijection that
    /// maps every class into some class maps it onto one.
    pub(super) fn classes_are_symmetric(&self, action: &EventAction) -> bool {
        let mut perm = action.identity();
        for g in 0..perm.len() {
            let members = perm[g].len();
            let mut swap: Vec<usize> = (0..members).collect();
            swap.swap(0, 1);
            let cycle = (0..members).map(|j| (j + 1) % members).collect();
            for generator in [swap, cycle] {
                perm[g] = generator;
                // `image[c]` = the class that class `c`'s first member maps into.
                let mut image = vec![usize::MAX; self.class.len()];
                for (i, &c) in self.class.iter().enumerate() {
                    let to = self.class[action.image(&perm, i)];
                    if image[c] == usize::MAX {
                        image[c] = to;
                    } else if image[c] != to {
                        return false;
                    }
                }
            }
            perm[g] = (0..members).collect();
        }
        true
    }

    /// Whether the lowest-index tie-break commutes with every permutation
    /// of `action`'s groups at a state whose enabled events are `enabled`:
    /// the class picked from σ(`enabled`) is the σ-image of the class
    /// picked from `enabled`, for every σ. Call only when
    /// [`AmpleSets::classes_are_symmetric`] holds: σ then keeps every
    /// class's count, so the events tied at σ(`enabled`) are the images
    /// of those tied at `enabled`, the pick is the tied event with the
    /// lowest image, and its class is the σ-image of the picked class
    /// exactly when the event lies in the picked class. `tied` is
    /// scratch.
    pub(super) fn tie_break_is_symmetric(
        &mut self,
        action: &EventAction,
        enabled: &[usize],
        tied: &mut Vec<usize>,
    ) -> bool {
        let (best, best_len, _) = self.smallest(enabled);
        tied.clear();
        tied.extend(
            enabled
                .iter()
                .copied()
                .filter(|&i| self.counts[self.class[i]] == best_len),
        );
        action.all_perms(|perm| {
            let picked = tied
                .iter()
                .copied()
                .min_by_key(|&i| action.image(perm, i))
                .expect("the picked event is tied with itself");
            self.class[picked] == self.class[best]
        })
    }
}
