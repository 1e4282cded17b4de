//! Exact-count regression for the explicit state search.
//!
//! The floor-control service over 4 users × 2 resources is the analyzer's
//! heaviest explicit workload. Every count `ServiceExplorer::explore`
//! reports for it — states, transitions, the expansion histogram and the
//! symmetry bookkeeping — is pinned here for all four (reduction ×
//! symmetry) combinations under both engines. The search order, the
//! ample-set choice and the canonicalizer all feed these numbers, so any
//! change to the kernel that is not a pure speed-up shows up as a
//! mismatch.
//!
//! A two-role universe (two symmetric groups with different slot
//! families, sharing one mutex slot) pins the same counts where fragment
//! ids are shared across groups.
//!
//! The count-only search (`ServiceExplorer::explore_counts`) is locked
//! against the full search here too: over the 2–4-user floor universes,
//! complete and truncated, it must report exactly the full report's
//! counts. Its symbolic fixpoint is pinned exactly on the 4 × 2
//! universe as well.

use svckit_lts::explorer::{AbstractEvent, ExploreOptions, Reduction, ServiceExplorer};
use svckit_lts::{Backend, Engine, Symmetry};
use svckit_model::{
    Constraint, ConstraintScope, Direction, PartId, PrimitiveSpec, Sap, ServiceDefinition, Value,
};

/// The paper's floor-control service (Figure 5), constraint for
/// constraint as the floor-control solutions define it.
fn floor_control() -> ServiceDefinition {
    floor_control_service(false)
}

/// [`floor_control`], optionally with a constraint-free `status`
/// primitive: its events step every state to itself, so the search
/// meets self-loops.
fn floor_control_service(status: bool) -> ServiceDefinition {
    let builder = ServiceDefinition::builder("floor-control")
        .role("subscriber", 2, usize::MAX)
        .primitive(PrimitiveSpec::new("request", Direction::FromUser).param_id("resid"))
        .primitive(PrimitiveSpec::new("granted", Direction::ToUser).param_id("resid"))
        .primitive(PrimitiveSpec::new("free", Direction::FromUser).param_id("resid"))
        .constraint(
            Constraint::eventually_follows("request", "granted", ConstraintScope::SameSap)
                .keyed(&[0]),
        )
        .constraint(
            Constraint::eventually_follows("granted", "free", ConstraintScope::SameSap).keyed(&[0]),
        )
        .constraint(
            Constraint::precedes("request", "granted", ConstraintScope::SameSap).keyed(&[0]),
        )
        .constraint(Constraint::precedes("granted", "free", ConstraintScope::SameSap).keyed(&[0]))
        .constraint(Constraint::mutual_exclusion("granted", "free").keyed(&[0]));
    let builder = if status {
        builder.primitive(PrimitiveSpec::new("status", Direction::ToUser))
    } else {
        builder
    };
    builder
        .build()
        .expect("the floor-control service is well-formed")
}

fn universe(users: u64, resources: u64) -> Vec<AbstractEvent> {
    let mut events = Vec::new();
    for s in 1..=users {
        let sap = Sap::new("subscriber", PartId::new(s));
        for r in 1..=resources {
            for primitive in ["request", "granted", "free"] {
                events.push(AbstractEvent::new(
                    sap.clone(),
                    primitive,
                    vec![Value::Id(r)],
                ));
            }
        }
    }
    events
}

/// The pinned counts of one (reduction, symmetry) combination.
struct Expected {
    reduction: Reduction,
    symmetry: Symmetry,
    states: usize,
    transitions: usize,
    ample_hist: &'static [u64],
    canon_hits: u64,
    sym_states_saved: u64,
}

const EXPECTED: [Expected; 4] = [
    Expected {
        reduction: Reduction::AmpleSets,
        symmetry: Symmetry::On,
        states: 1630,
        transitions: 6414,
        ample_hist: &[0, 26, 146, 352, 586, 438, 69, 12, 1],
        canon_hits: 7650,
        sym_states_saved: 25504,
    },
    Expected {
        reduction: Reduction::AmpleSets,
        symmetry: Symmetry::Off,
        states: 27134,
        transitions: 105476,
        ample_hist: &[0, 280, 2240, 6720, 10085, 6720, 1008, 80, 1],
        canon_hits: 0,
        sym_states_saved: 0,
    },
    Expected {
        reduction: Reduction::Full,
        symmetry: Symmetry::On,
        states: 8595,
        transitions: 69630,
        ample_hist: &[
            0, 0, 2, 20, 104, 380, 968, 1670, 2031, 1734, 1000, 430, 185, 52, 14, 4, 1,
        ],
        canon_hits: 29468,
        sym_states_saved: 155430,
    },
    Expected {
        reduction: Reduction::Full,
        symmetry: Symmetry::Off,
        states: 164025,
        transitions: 1312200,
        ample_hist: &[
            0, 0, 16, 256, 1792, 7296, 19200, 33984, 40768, 32776, 17728, 7104, 2400, 576, 112, 16,
            1,
        ],
        canon_hits: 0,
        sym_states_saved: 0,
    },
];

fn check_engine(engine: Engine) {
    let service = floor_control();
    let explorer = ServiceExplorer::with_engine(&service, universe(4, 2), 2, engine);
    assert_eq!(explorer.engine(), engine, "floor-control compiles");
    for expected in &EXPECTED {
        let report = explorer.explore(&ExploreOptions {
            max_states: 200_000,
            reduction: expected.reduction,
            symmetry: expected.symmetry,
            ..ExploreOptions::default()
        });
        let what = format!(
            "{engine:?} engine, {:?}, symmetry {}",
            expected.reduction, expected.symmetry
        );
        assert!(!report.truncated, "{what}: truncated");
        assert_eq!(report.states, expected.states, "{what}: states");
        assert_eq!(
            report.transitions, expected.transitions,
            "{what}: transitions"
        );
        assert_eq!(report.ample_hist, expected.ample_hist, "{what}: ample_hist");
        assert_eq!(report.canon_hits, expected.canon_hits, "{what}: canon_hits");
        let orbit_count = match expected.symmetry {
            Symmetry::On => expected.states,
            Symmetry::Off => 0,
        };
        assert_eq!(report.orbit_count, orbit_count, "{what}: orbit_count");
        assert_eq!(
            report.sym_states_saved, expected.sym_states_saved,
            "{what}: sym_states_saved"
        );
        assert_eq!(report.deadlock_states, 0, "{what}: deadlocks");
    }
    // The quotient is exact under full expansion: representatives plus
    // the states they stand for are the unreduced state count.
    assert_eq!(
        EXPECTED[2].states as u64 + EXPECTED[2].sym_states_saved,
        EXPECTED[3].states as u64
    );
}

#[test]
fn floor_control_4x2_counts_are_pinned_under_the_dfa_engine() {
    check_engine(Engine::Dfa);
}

#[test]
fn floor_control_4x2_counts_are_pinned_under_the_interpreter() {
    check_engine(Engine::Interp);
}

/// Six interchangeable users on one resource, symmetry on: every
/// successor reuses five of its parent's six fragments, so this pins the
/// incremental canonicalizer on a group wider than the 4-user one. One
/// resource makes every event dependent on the mutex, so the ample sets
/// are the enabled sets; 91 representatives plus the 5 012 states they
/// stand for are the 5 103 states of the unreduced search.
fn check_six_members(engine: Engine) {
    let service = floor_control();
    let explorer = ServiceExplorer::with_engine(&service, universe(6, 1), 2, engine);
    for reduction in [Reduction::AmpleSets, Reduction::Full] {
        let report = explorer.explore(&ExploreOptions {
            max_states: 200_000,
            reduction,
            symmetry: Symmetry::On,
            ..ExploreOptions::default()
        });
        let what = format!("{engine:?} engine, {reduction:?}");
        assert!(!report.truncated, "{what}: truncated");
        assert_eq!(report.states, 91, "{what}: states");
        assert_eq!(report.transitions, 539, "{what}: transitions");
        assert_eq!(
            report.ample_hist,
            [0, 1, 4, 7, 10, 13, 23, 18, 5, 4, 3, 2, 1],
            "{what}: ample_hist"
        );
        assert_eq!(report.canon_hits, 310, "{what}: canon_hits");
        assert_eq!(report.orbit_count, 91, "{what}: orbit_count");
        assert_eq!(report.sym_states_saved, 5012, "{what}: sym_states_saved");
        assert_eq!(report.deadlock_states, 0, "{what}: deadlocks");
    }
    let unreduced = explorer.explore(&ExploreOptions {
        max_states: 200_000,
        reduction: Reduction::Full,
        symmetry: Symmetry::Off,
        ..ExploreOptions::default()
    });
    assert_eq!(unreduced.states, 91 + 5012);
}

#[test]
fn floor_control_6x1_symmetric_counts_are_pinned_under_the_dfa_engine() {
    check_six_members(Engine::Dfa);
}

#[test]
fn floor_control_6x1_symmetric_counts_are_pinned_under_the_interpreter() {
    check_six_members(Engine::Interp);
}

/// [`universe`] plus one `status` event per user.
fn universe_with_status(users: u64, resources: u64) -> Vec<AbstractEvent> {
    let mut events = universe(users, resources);
    for s in 1..=users {
        let sap = Sap::new("subscriber", PartId::new(s));
        events.push(AbstractEvent::new(sap, "status", Vec::new()));
    }
    events
}

/// `explore_counts` returns exactly the count fields of `explore` for
/// every reduction × symmetry combination on the 2–4-user floor
/// universes (with `status` self-loops), under a bound that lets the small universes finish and one
/// that truncates every universe. Under the symbolic backend (on the
/// one-resource universes) the state, transition and final-diagram
/// counts match, from a store no larger than the full search's; an
/// interpreter explorer reports the explicit search instead.
fn check_count_only(engine: Engine) {
    let service = floor_control_service(true);
    let progress = vec!["granted".to_owned(), "free".to_owned()];
    let (mut complete, mut truncated) = (0, 0);
    for users in 2..=4 {
        let explorer =
            ServiceExplorer::with_engine(&service, universe_with_status(users, 2), 2, engine);
        for reduction in [Reduction::AmpleSets, Reduction::Full] {
            for symmetry in [Symmetry::On, Symmetry::Off] {
                for max_states in [20_000, 300] {
                    let options = ExploreOptions {
                        max_states,
                        reduction,
                        symmetry,
                        progress: progress.clone(),
                        ..ExploreOptions::default()
                    };
                    let full = explorer.explore(&options);
                    assert_eq!(
                        explorer.explore_counts(&options),
                        full.counts(),
                        "{engine:?} engine, {users} users, {reduction:?}, symmetry {symmetry}, \
                         bound {max_states}"
                    );
                    if full.truncated {
                        truncated += 1;
                    } else {
                        complete += 1;
                    }
                }
            }
        }

        let explorer =
            ServiceExplorer::with_engine(&service, universe_with_status(users, 1), 2, engine);
        let symbolic = ExploreOptions {
            backend: Backend::Symbolic,
            progress: progress.clone(),
            ..ExploreOptions::default()
        };
        let full = explorer.explore(&symbolic);
        let counts = explorer.explore_counts(&symbolic);
        let what = format!("{engine:?} engine, {users} users, symbolic");
        if engine == Engine::Interp {
            // No slot layout to order the diagram by: the symbolic backend
            // reports the explicit search, findings and counts alike.
            let explicit = explorer.explore(&ExploreOptions {
                backend: Backend::Explicit,
                ..symbolic.clone()
            });
            assert_eq!(format!("{full:?}"), format!("{explicit:?}"), "{what}");
            assert_eq!(counts, explicit.counts(), "{what}");
            assert_eq!(full.peak_nodes, 0, "{what}: no diagram was built");
            continue;
        }
        assert!(full.peak_nodes > 0, "{what}: the full search fell back");
        assert!(!counts.truncated, "{what}: truncated");
        assert_eq!(counts.states, full.states, "{what}: states");
        assert_eq!(counts.transitions, full.transitions, "{what}: transitions");
        assert_eq!(counts.ldd_nodes, full.ldd_nodes, "{what}: ldd_nodes");
        assert!(
            counts.peak_nodes > 0 && counts.peak_nodes <= full.peak_nodes,
            "{what}: peak_nodes {} vs {}",
            counts.peak_nodes,
            full.peak_nodes
        );
    }
    assert!(
        complete > 0 && truncated > 0,
        "{complete} complete, {truncated} truncated"
    );
}

#[test]
fn count_only_search_matches_the_full_search_under_the_dfa_engine() {
    check_count_only(Engine::Dfa);
}

#[test]
fn count_only_search_matches_the_full_search_under_the_interpreter() {
    check_count_only(Engine::Interp);
}

/// The count-only symbolic search on the 4 × 2 floor universe, pinned
/// exactly. States and `ldd_nodes` describe the reached set, which is
/// canonical; `peak_nodes` and `cache_hits` describe how the fixpoint got
/// there (one reached set folded event by event), so a change of the
/// fixpoint's order shows up here as a count change.
#[test]
fn floor_control_4x2_symbolic_counts_are_pinned() {
    let service = floor_control();
    let explorer = ServiceExplorer::with_engine(&service, universe(4, 2), 2, Engine::Dfa);
    let options = ExploreOptions {
        backend: Backend::Symbolic,
        ..ExploreOptions::default()
    };
    let counts = explorer.explore_counts(&options);
    assert!(!counts.truncated);
    assert_eq!(counts.states, EXPECTED[3].states, "states");
    assert_eq!(counts.transitions, EXPECTED[3].transitions, "transitions");
    assert_eq!(counts.ldd_nodes, 467, "ldd_nodes");
    assert_eq!(counts.peak_nodes, 15_392, "peak_nodes");
    assert_eq!(counts.cache_hits, 9_218, "cache_hits");
}

/// Two roles over the floor-control primitives: `client` and `agent`
/// users may hold the same resources, so one mutex slot per resource
/// names holders from either role.
fn two_role_service() -> ServiceDefinition {
    ServiceDefinition::builder("two-roles")
        .role("client", 2, usize::MAX)
        .role("agent", 2, usize::MAX)
        .primitive(PrimitiveSpec::new("request", Direction::FromUser).param_id("resid"))
        .primitive(PrimitiveSpec::new("granted", Direction::ToUser).param_id("resid"))
        .primitive(PrimitiveSpec::new("free", Direction::FromUser).param_id("resid"))
        .constraint(
            Constraint::eventually_follows("request", "granted", ConstraintScope::SameSap)
                .keyed(&[0]),
        )
        .constraint(Constraint::precedes("granted", "free", ConstraintScope::SameSap).keyed(&[0]))
        .constraint(Constraint::mutual_exclusion("granted", "free").keyed(&[0]))
        .build()
        .expect("the two-role service is well-formed")
}

/// Three clients on resource 1 and two agents on resources 1 and 2: two
/// symmetric groups, `agent` (four slot families per member) and
/// `client` (two).
fn two_role_universe() -> Vec<AbstractEvent> {
    let mut events = Vec::new();
    for (role, users, resources) in [("client", 3, &[1][..]), ("agent", 2, &[1, 2][..])] {
        for s in 1..=users {
            let sap = Sap::new(role, PartId::new(s));
            for &r in resources {
                for primitive in ["request", "granted", "free"] {
                    events.push(AbstractEvent::new(
                        sap.clone(),
                        primitive,
                        vec![Value::Id(r)],
                    ));
                }
            }
        }
    }
    events
}

/// The counts of every (reduction, symmetry) combination on the two-group
/// universe. Fragment ids are shared across groups (one first-encounter
/// numbering), and the engines key a fragment differently: the DFA
/// engine by each group's family index, the interpreter by constraint
/// and key. An agent's second family (constraint 0, resource 2) and a
/// client's second family (constraint 1, resource 1) therefore share ids
/// under the DFA engine only, which orders members differently in some
/// states: the two engines reach the same orbits but canonicalize a
/// different number of times under full expansion.
fn check_two_groups(engine: Engine) {
    let service = two_role_service();
    let explorer = ServiceExplorer::with_engine(&service, two_role_universe(), 2, engine);
    assert_eq!(explorer.engine(), engine, "the two-role service compiles");
    let full_on_canon_hits = match engine {
        Engine::Dfa => 12_320,
        Engine::Interp => 12_350,
    };
    // (reduction, symmetry, states, transitions, canon_hits, sym_states_saved)
    let expected = [
        (Reduction::AmpleSets, Symmetry::On, 15, 41, 82, 12),
        (Reduction::AmpleSets, Symmetry::Off, 27, 72, 0, 0),
        (
            Reduction::Full,
            Symmetry::On,
            5_958,
            46_830,
            full_on_canon_hits,
            33_408,
        ),
        (Reduction::Full, Symmetry::Off, 39_366, 301_806, 0, 0),
    ];
    for (reduction, symmetry, states, transitions, canon_hits, saved) in expected {
        let report = explorer.explore(&ExploreOptions {
            max_states: 200_000,
            reduction,
            symmetry,
            ..ExploreOptions::default()
        });
        let what = format!("{engine:?} engine, {reduction:?}, symmetry {symmetry}");
        assert!(!report.truncated, "{what}: truncated");
        assert_eq!(report.states, states, "{what}: states");
        assert_eq!(report.transitions, transitions, "{what}: transitions");
        assert_eq!(report.canon_hits, canon_hits, "{what}: canon_hits");
        let orbit_count = match symmetry {
            Symmetry::On => states,
            Symmetry::Off => 0,
        };
        assert_eq!(report.orbit_count, orbit_count, "{what}: orbit_count");
        assert_eq!(report.sym_states_saved, saved, "{what}: sym_states_saved");
        assert_eq!(report.deadlock_states, 0, "{what}: deadlocks");
    }
}

#[test]
fn two_group_counts_are_pinned_under_the_dfa_engine() {
    check_two_groups(Engine::Dfa);
}

#[test]
fn two_group_counts_are_pinned_under_the_interpreter() {
    check_two_groups(Engine::Interp);
}
