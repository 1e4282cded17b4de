//! Statistics oracle: the analyzer's `por`, `sym` and `ldd` blocks report
//! what fresh, full explorations report.
//!
//! `analyze_service` fills those blocks from count-only counterpart
//! searches. For every real target and every fixture, at each symmetry ×
//! reduction setting under the symbolic backend, each count must equal the
//! one a full `ServiceExplorer::explore` run with the flipped knob
//! reports — the same relation the traced benchmark checks on its own
//! runs.

use std::collections::BTreeSet;

use svckit_analyze::{
    all_targets, analyze_service, fixtures, progress_primitives, Reduction, ServicePassOptions,
    Symmetry,
};
use svckit_lts::explorer::{ExploreOptions, ServiceExplorer};
use svckit_lts::Backend;
use svckit_sweep::{PorStats, SymStats};

#[test]
fn stats_blocks_equal_fresh_full_explorations() {
    let mut targets = all_targets();
    targets.extend(fixtures::expected_codes().into_iter().map(|(t, _)| t));
    let mut seen = BTreeSet::new();
    for target in &targets {
        if !seen.insert((target.service.name().to_owned(), target.universe.len())) {
            continue; // same (service, universe) as an earlier target
        }
        for symmetry in [Symmetry::On, Symmetry::Off] {
            for reduction in [Reduction::AmpleSets, Reduction::Full] {
                let options = ServicePassOptions {
                    reduction,
                    symmetry,
                    backend: Backend::Symbolic,
                    ..ServicePassOptions::default()
                };
                let what = format!("{}: {reduction:?}, symmetry {symmetry}", target.name);
                let analysis = analyze_service(&target.service, target.universe.clone(), &options);

                let explorer = ServiceExplorer::with_engine(
                    &target.service,
                    target.universe.clone(),
                    options.max_outstanding,
                    options.engine,
                );
                let at = |reduction, symmetry| {
                    explorer.explore(&ExploreOptions {
                        max_states: options.max_states,
                        reduction,
                        progress: progress_primitives(&target.service),
                        symmetry,
                        ..ExploreOptions::default()
                    })
                };

                let full = at(Reduction::Full, symmetry);
                let reduced = at(Reduction::AmpleSets, symmetry);
                let por = PorStats {
                    full_states: full.states as u64,
                    full_transitions: full.transitions as u64,
                    reduced_states: reduced.states as u64,
                    reduced_transitions: reduced.transitions as u64,
                    ample_hist: reduced.ample_hist,
                };
                assert_eq!(analysis.por, por, "{what}: por block");

                let off = at(reduction, Symmetry::Off);
                let on = at(reduction, Symmetry::On);
                let sym = SymStats {
                    full_states: off.states as u64,
                    full_transitions: off.transitions as u64,
                    full_truncated: off.truncated,
                    quotient_states: on.states as u64,
                    quotient_transitions: on.transitions as u64,
                    orbit_count: on.orbit_count as u64,
                    canon_hits: on.canon_hits,
                    states_saved: on.sym_states_saved,
                };
                assert_eq!(analysis.sym, sym, "{what}: sym block");

                let symbolic = explorer.explore(&ExploreOptions {
                    max_states: options.max_states,
                    reduction,
                    progress: progress_primitives(&target.service),
                    symmetry,
                    backend: Backend::Symbolic,
                    ..ExploreOptions::default()
                });
                let ldd = &analysis.ldd;
                assert_eq!(ldd.states, symbolic.states as u64, "{what}: ldd states");
                assert_eq!(
                    ldd.transitions, symbolic.transitions as u64,
                    "{what}: ldd transitions"
                );
                assert_eq!(
                    ldd.ldd_nodes, symbolic.ldd_nodes as u64,
                    "{what}: ldd nodes"
                );
            }
        }
    }
}
