//! Ample-set partial-order reduction for
//! [`Reduction::AmpleSets`](super::Reduction::AmpleSets): the static
//! dependence closures over constraint instances and the per-state
//! ample-set choice.

use svckit_model::{ConstraintKind, ConstraintScope};

use super::engine::{instance, Instance};
use super::ServiceExplorer;

impl<'a> ServiceExplorer<'a> {
    /// Per-universe-event dependence closures, as bitsets over universe
    /// indices.
    ///
    /// Two events are *dependent* when some constraint is relevant to both
    /// **at the same constraint instance** (same scope-SAP and key values):
    /// every current constraint kind reads and writes only the map entry of
    /// the event's own instance, so events touching disjoint instances
    /// commute and cannot affect each other's enabledness. The returned
    /// sets are transitive closures of that relation, so for any event `e`
    /// the set contains every event that can (transitively) interact with
    /// it — which makes `closure(e) ∩ enabled` a stubborn set: enabled
    /// members have all their dependents inside, and disabled members can
    /// only be enabled from inside.
    pub(super) fn dependence_closures(&self) -> Vec<Vec<u64>> {
        let constraints = self.service.constraints();
        let n = self.universe.len();
        // Footprint of each event: the (constraint, instance) entries it
        // reads/writes.
        let footprints: Vec<Vec<(usize, Instance)>> = self
            .universe
            .iter()
            .map(|event| {
                self.relevant(&event.primitive)
                    .iter()
                    .map(|&ci| {
                        let constraint = &constraints[ci];
                        let scope = match constraint.kind() {
                            ConstraintKind::Precedes { scope, .. }
                            | ConstraintKind::After { scope, .. }
                            | ConstraintKind::EventuallyFollows { scope, .. }
                            | ConstraintKind::AtMostOutstanding { scope, .. } => *scope,
                            // Mutual exclusion keeps one global holder map.
                            ConstraintKind::MutualExclusion { .. } => ConstraintScope::Global,
                        };
                        (ci, instance(scope, event, constraint.key()))
                    })
                    .collect()
            })
            .collect();
        let words = n.div_ceil(64);
        let mut dep = vec![vec![0u64; words]; n];
        for i in 0..n {
            dep[i][i / 64] |= 1 << (i % 64);
            for j in i + 1..n {
                let hit = footprints[i]
                    .iter()
                    .any(|a| footprints[j].iter().any(|b| a == b));
                if hit {
                    dep[i][j / 64] |= 1 << (j % 64);
                    dep[j][i / 64] |= 1 << (i % 64);
                }
            }
        }
        // Transitive closure (the universe is small; O(n·n²/64) is fine).
        let mut closures = dep.clone();
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                let mut acc = closures[i].clone();
                for j in 0..n {
                    if acc[j / 64] >> (j % 64) & 1 == 1 {
                        for w in 0..words {
                            acc[w] |= closures[j][w];
                        }
                    }
                }
                if acc != closures[i] {
                    closures[i] = acc;
                    changed = true;
                }
            }
        }
        closures
    }
}

/// Ample-set selection for
/// [`Reduction::AmpleSets`](super::Reduction::AmpleSets): the static
/// dependence closures and the per-expansion scratch buffers.
pub(super) struct AmpleSets {
    /// Per universe event, its dependence closure as a bitset
    /// ([`ServiceExplorer::dependence_closures`]).
    closures: Vec<Vec<u64>>,
    /// Scratch: the enabled set as a bitset, and the chosen ample set.
    enabled_bits: Vec<u64>,
    ample: Vec<usize>,
}

impl AmpleSets {
    pub(super) fn new(closures: Vec<Vec<u64>>) -> Self {
        let n = closures.len();
        AmpleSets {
            closures,
            enabled_bits: vec![0; n.div_ceil(64)],
            ample: Vec::with_capacity(n),
        }
    }

    /// The events to expand in a state whose enabled events are `enabled`
    /// (ascending, non-empty): the smallest `closure ∩ enabled` over the
    /// enabled events, or all of `enabled` when that set is no smaller or
    /// every one of its members is a self-loop (`self_loop(i)`).
    pub(super) fn expand<'s>(
        &'s mut self,
        enabled: &'s [usize],
        self_loop: impl Fn(usize) -> bool,
    ) -> &'s [usize] {
        // Candidate minimising |closure ∩ enabled| (ties: lowest universe
        // index, for determinism); only the winner's set is materialised.
        self.enabled_bits.fill(0);
        for &i in enabled {
            self.enabled_bits[i / 64] |= 1 << (i % 64);
        }
        let (mut best, mut best_len) = (enabled[0], usize::MAX);
        for &i in enabled {
            let len: u32 = self.closures[i]
                .iter()
                .zip(&self.enabled_bits)
                .map(|(c, e)| (c & e).count_ones())
                .sum();
            if (len as usize) < best_len {
                (best, best_len) = (i, len as usize);
            }
        }
        if best_len >= enabled.len() {
            return enabled;
        }
        let closure = &self.closures[best];
        self.ample.clear();
        self.ample.extend(
            enabled
                .iter()
                .copied()
                .filter(|&j| closure[j / 64] >> (j % 64) & 1 == 1),
        );
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
