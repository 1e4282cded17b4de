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
//! families, sharing one mutex slot) pins the same counts, one value for
//! both engines, where each group numbers its fragments on its own.
//!
//! The orbit-weighted sums (`sym_states_saved`, `sym_transitions_saved`)
//! and their exactness certificate (`sym_exact`) are pinned on both
//! universes, with one negative case the certificate must reject and a
//! proptest that every certified sum equals a fresh unquotiented search.
//!
//! The count-only search (`ServiceExplorer::explore_counts`) is locked
//! against the full search here too: over the 2–4-user floor universes,
//! complete and truncated, it must report exactly the full report's
//! counts. Its symbolic fixpoint is pinned exactly on the 4 × 2
//! universe as well.
//!
//! The walk over that fixpoint's reached set
//! (`ServiceExplorer::symbolic_counts`) is pinned on the 4 × 2, 6 × 2
//! and two-role universes against the explicit `Reduction::Full`
//! quotient, with its own work on the 4 × 2 floor and the state bound
//! past which it must decline; `walk_oracle.rs` holds its proptest.

use proptest::prelude::*;
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
    sym_transitions_saved: u64,
    sym_exact: bool,
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
        sym_transitions_saved: 99_062,
        sym_exact: true,
    },
    Expected {
        reduction: Reduction::AmpleSets,
        symmetry: Symmetry::Off,
        states: 27134,
        transitions: 105476,
        ample_hist: &[0, 280, 2240, 6720, 10085, 6720, 1008, 80, 1],
        canon_hits: 0,
        sym_states_saved: 0,
        sym_transitions_saved: 0,
        sym_exact: false,
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
        sym_transitions_saved: 1_242_570,
        sym_exact: true,
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
        sym_transitions_saved: 0,
        sym_exact: false,
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
        assert_eq!(
            report.sym_transitions_saved, expected.sym_transitions_saved,
            "{what}: sym_transitions_saved"
        );
        assert_eq!(report.sym_exact, expected.sym_exact, "{what}: sym_exact");
        assert_eq!(report.deadlock_states, 0, "{what}: deadlocks");
    }
    // Both quotients are certified: representatives plus the states and
    // transitions they stand for are the unquotiented counts.
    for (on, off) in [(&EXPECTED[0], &EXPECTED[1]), (&EXPECTED[2], &EXPECTED[3])] {
        assert_eq!(on.states as u64 + on.sym_states_saved, off.states as u64);
        assert_eq!(
            on.transitions as u64 + on.sym_transitions_saved,
            off.transitions as u64
        );
    }
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
/// universe, one value per count for both engines. The engines key a
/// fragment differently (the DFA engine by each group's family index,
/// the interpreter by constraint and key), but each group numbers its
/// fragments on its own, so both order members alike. Both quotients are
/// certified: their orbit-weighted sums are the unquotiented rows. (No
/// AmpleSets representative ties here, so that certificate rests on
/// the dependence classes mapping onto classes under both groups.)
fn check_two_groups(engine: Engine) {
    let service = two_role_service();
    let explorer = ServiceExplorer::with_engine(&service, two_role_universe(), 2, engine);
    assert_eq!(explorer.engine(), engine, "the two-role service compiles");
    // (reduction, symmetry, states, transitions, canon_hits,
    //  sym_states_saved, sym_transitions_saved, sym_exact)
    let expected = [
        (Reduction::AmpleSets, Symmetry::On, 15, 41, 82, 12, 31, true),
        (Reduction::AmpleSets, Symmetry::Off, 27, 72, 0, 0, 0, false),
        (
            Reduction::Full,
            Symmetry::On,
            5_958,
            46_830,
            12_320,
            33_408,
            254_976,
            true,
        ),
        (
            Reduction::Full,
            Symmetry::Off,
            39_366,
            301_806,
            0,
            0,
            0,
            false,
        ),
    ];
    for (reduction, symmetry, states, transitions, canon_hits, saved, transitions_saved, exact) in
        expected
    {
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
        assert_eq!(
            report.sym_transitions_saved, transitions_saved,
            "{what}: sym_transitions_saved"
        );
        assert_eq!(report.sym_exact, exact, "{what}: sym_exact");
        assert_eq!(report.deadlock_states, 0, "{what}: deadlocks");
    }
    for (on, off) in [(expected[0], expected[1]), (expected[2], expected[3])] {
        assert_eq!(on.2 as u64 + on.5, off.2 as u64, "states");
        assert_eq!(on.3 as u64 + on.6, off.3 as u64, "transitions");
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

const NAMES: [&str; 3] = ["a", "b", "c"];

/// The symmetry-oracle service shape: one role, three primitives with one
/// key parameter each, and the given constraints.
fn oracle_service(constraints: &[Constraint]) -> Option<ServiceDefinition> {
    let mut builder = ServiceDefinition::builder("sym-oracle")
        .role("user", 1, 8)
        .primitive(PrimitiveSpec::new("a", Direction::FromUser).param_id("k"))
        .primitive(PrimitiveSpec::new("b", Direction::FromUser).param_id("k"))
        .primitive(PrimitiveSpec::new("c", Direction::ToUser).param_id("k"));
    for constraint in constraints {
        builder = builder.constraint(constraint.clone());
    }
    builder.build().ok()
}

/// Every primitive at every one of `users` access points for each of
/// `keys` key values: one symmetric group of `users` members.
fn oracle_universe(users: u64, keys: u64) -> Vec<AbstractEvent> {
    let mut events = Vec::new();
    for s in 1..=users {
        let sap = Sap::new("user", PartId::new(s));
        for k in 1..=keys {
            for name in NAMES {
                events.push(AbstractEvent::new(sap.clone(), name, vec![Value::Id(k)]));
            }
        }
    }
    events
}

/// A quotient the certificate must reject: with `c` preceding `a` per
/// user and key, `a` and `c` of one user share a dependence class while
/// `b` is alone in its own. At a representative where both users' `b`
/// and one user's `a`–`c` class tie, the lowest index picks the first
/// user's class, so the unquotiented search expands a different class
/// at the renamed state than the renaming of the one the quotient
/// expanded. The orbit-weighted transition sum then overcounts (39
/// against the real 32), so the certificate must not hold.
#[test]
fn the_certificate_rejects_a_tie_break_that_does_not_commute() {
    let service =
        oracle_service(&[Constraint::precedes("c", "a", ConstraintScope::SameSap).keyed(&[0])])
            .expect("the oracle service builds");
    for engine in [Engine::Dfa, Engine::Interp] {
        let explorer = ServiceExplorer::with_engine(&service, oracle_universe(2, 1), 2, engine);
        let at = |symmetry| {
            explorer.explore_counts(&ExploreOptions {
                reduction: Reduction::AmpleSets,
                symmetry,
                ..ExploreOptions::default()
            })
        };
        let (on, off) = (at(Symmetry::On), at(Symmetry::Off));
        let what = format!("{engine:?} engine");
        assert_eq!(
            (off.states, off.transitions),
            (9, 32),
            "{what}: real search"
        );
        assert_eq!(
            (
                on.states as u64 + on.sym_states_saved,
                on.transitions as u64 + on.sym_transitions_saved
            ),
            (9, 39),
            "{what}: uncertified arithmetic"
        );
        assert!(!on.sym_exact, "{what}: the certificate holds");
    }
}

fn arb_constraint() -> impl Strategy<Value = Constraint> {
    (
        0usize..5,
        0usize..NAMES.len(),
        0usize..NAMES.len(),
        0usize..2,
        1usize..3,
        0usize..2,
    )
        .prop_map(|(kind, p1, p2, scope, limit, keyed)| {
            let (x, y) = (NAMES[p1], NAMES[p2]);
            let scope = [ConstraintScope::SameSap, ConstraintScope::Global][scope];
            let constraint = match kind {
                0 => Constraint::precedes(x, y, scope),
                1 => Constraint::after(x, y, scope),
                2 => Constraint::eventually_follows(x, y, scope),
                3 => Constraint::at_most_outstanding(x, y, limit, scope),
                _ => Constraint::mutual_exclusion(x, y),
            };
            match keyed {
                0 => constraint,
                _ => constraint.keyed(&[0]),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whenever the certificate holds, the orbit-weighted sums are the
    /// counts of a fresh unquotiented search, under both engines and
    /// both reductions, for random keyed and unkeyed constraint sets over
    /// 2–4 users and 1–2 key values.
    #[test]
    fn certified_sums_equal_the_unquotiented_search(
        constraints in proptest::collection::vec(arb_constraint(), 1..4),
        users in 2u64..=4,
        keys in 1u64..=2,
    ) {
        // A set that does not build has nothing to search.
        if let Some(service) = oracle_service(&constraints) {
            for engine in [Engine::Dfa, Engine::Interp] {
                let explorer =
                    ServiceExplorer::with_engine(&service, oracle_universe(users, keys), 2, engine);
                for reduction in [Reduction::AmpleSets, Reduction::Full] {
                    let at = |symmetry| {
                        explorer.explore_counts(&ExploreOptions {
                            max_states: 20_000,
                            reduction,
                            symmetry,
                            ..ExploreOptions::default()
                        })
                    };
                    let on = at(Symmetry::On);
                    if !on.sym_exact {
                        continue;
                    }
                    let off = at(Symmetry::Off);
                    prop_assert!(!off.truncated);
                    prop_assert_eq!(on.states as u64 + on.sym_states_saved, off.states as u64);
                    prop_assert_eq!(
                        on.transitions as u64 + on.sym_transitions_saved,
                        off.transitions as u64
                    );
                }
            }
        }
    }
}

/// The symbolic walk's quotient counts (`ServiceExplorer::symbolic_counts`)
/// on the pinned universes: the orbits of the 4 × 2 and 6 × 2 floors and
/// of the two-role universe, with the events enabled at one state per
/// orbit, equal the explicit `Reduction::Full` quotient's `states` and
/// `transitions`. On the 4 × 2 floor the walk's own work is pinned too.
#[test]
fn walk_counts_are_pinned() {
    let options = ExploreOptions {
        max_states: 200_000,
        reduction: Reduction::Full,
        symmetry: Symmetry::On,
        ..ExploreOptions::default()
    };
    let service = floor_control();
    let explorer = ServiceExplorer::with_engine(&service, universe(4, 2), 2, Engine::Dfa);
    let counts = explorer
        .symbolic_counts(&options)
        .expect("the fixpoint fits the node budget");
    assert_eq!(
        counts.fixpoint.states, EXPECTED[3].states,
        "fixpoint states"
    );
    assert_eq!(counts.fixpoint.transitions, EXPECTED[3].transitions);
    let full = counts.full.expect("8 595 orbits fit the bound");
    assert_eq!((full.states, full.transitions), (8_595, 69_630), "4 x 2");
    assert_eq!(
        (full.prefixes_visited, full.prefixes_kept),
        (54_555, 53_493),
        "4 x 2 walk"
    );

    let two_roles = two_role_service();
    let explorer = ServiceExplorer::with_engine(&two_roles, two_role_universe(), 2, Engine::Dfa);
    let full = explorer
        .symbolic_counts(&options)
        .expect("the fixpoint fits the node budget")
        .full
        .expect("the orbits fit the bound");
    assert_eq!(
        (full.states, full.transitions),
        (5_958, 46_830),
        "two roles"
    );

    let explorer = ServiceExplorer::with_engine(&service, universe(6, 2), 2, Engine::Dfa);
    let full = explorer
        .symbolic_counts(&options)
        .expect("the fixpoint fits the node budget")
        .full
        .expect("the orbits fit the bound");
    assert_eq!((full.states, full.transitions), (77_847, 865_986), "6 x 2");
}

/// Past the state bound the walk gives up exactly where the explicit
/// search starts to truncate: at 8 594 states the 4 × 2 floor's 8 595
/// orbits do not fit, so the counts must come from the explicit search,
/// which reports its truncated prefix. Without symmetry the fixpoint's
/// own counts obey the same bound.
#[test]
fn the_walk_falls_back_past_the_state_bound() {
    let service = floor_control();
    let explorer = ServiceExplorer::with_engine(&service, universe(4, 2), 2, Engine::Dfa);
    for (symmetry, states, transitions) in [
        (Symmetry::On, 8_595, 69_630),
        (Symmetry::Off, 164_025, 1_312_200),
    ] {
        let at = |max_states| ExploreOptions {
            max_states,
            reduction: Reduction::Full,
            symmetry,
            ..ExploreOptions::default()
        };
        let fits = explorer
            .symbolic_counts(&at(states))
            .expect("the fixpoint fits the node budget");
        let full = fits
            .full
            .expect("exactly at the bound the search completes");
        assert_eq!((full.states, full.transitions), (states, transitions));
        let past = explorer
            .symbolic_counts(&at(states - 1))
            .expect("the fixpoint fits the node budget");
        assert_eq!(past.full, None, "symmetry {symmetry}: one state too many");
        assert_eq!(
            past.fixpoint, fits.fixpoint,
            "the bound leaves the fixpoint alone"
        );
        let explicit = explorer.explore_counts(&at(states - 1));
        assert!(explicit.truncated, "symmetry {symmetry}");
        assert_eq!(explicit.states, states - 1, "symmetry {symmetry}");
    }
    // The interpreter has no slot layout to walk.
    let interp = ServiceExplorer::with_engine(&service, universe(2, 1), 2, Engine::Interp);
    assert!(interp.symbolic_counts(&ExploreOptions::default()).is_err());
}
