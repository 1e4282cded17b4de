//! Ample-set partial-order reduction for
//! [`Reduction::AmpleSets`](super::Reduction::AmpleSets): the static
//! dependence classes over constraint instances and the per-state
//! ample-set choice.

use svckit_model::hash::FastMap;
use svckit_model::{ConstraintKind, ConstraintScope};

use super::engine::{instance, Instance};
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
                let constraint = &constraints[ci];
                let scope = match constraint.kind() {
                    ConstraintKind::Precedes { scope, .. }
                    | ConstraintKind::After { scope, .. }
                    | ConstraintKind::EventuallyFollows { scope, .. }
                    | ConstraintKind::AtMostOutstanding { scope, .. } => *scope,
                    // Mutual exclusion keeps one global holder map.
                    ConstraintKind::MutualExclusion { .. } => ConstraintScope::Global,
                };
                let j = *first
                    .entry((ci, instance(scope, event, constraint.key())))
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

impl AmpleSets {
    pub(super) fn new(class: Vec<usize>) -> Self {
        let n = class.len();
        AmpleSets {
            class,
            counts: vec![0; n],
            ample: Vec::with_capacity(n),
        }
    }

    /// The events to expand in a state whose enabled events are `enabled`
    /// (ascending, non-empty): the smallest `class ∩ enabled` over the
    /// enabled events, or all of `enabled` when that set is no smaller or
    /// every one of its members is a self-loop (`self_loop(i)`).
    pub(super) fn expand<'s>(
        &'s mut self,
        enabled: &'s [usize],
        mut self_loop: impl FnMut(usize) -> bool,
    ) -> &'s [usize] {
        for &i in enabled {
            self.counts[self.class[i]] = 0;
        }
        for &i in enabled {
            self.counts[self.class[i]] += 1;
        }
        // Candidate minimising |class ∩ enabled| (ties: lowest universe
        // index, for determinism); only the winner's set is materialised.
        let (mut best, mut best_len) = (enabled[0], usize::MAX);
        for &i in enabled {
            let len = self.counts[self.class[i]];
            if len < best_len {
                (best, best_len) = (i, len);
            }
        }
        if best_len >= enabled.len() {
            return enabled;
        }
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
            return enabled;
        }
        &self.ample
    }
}
