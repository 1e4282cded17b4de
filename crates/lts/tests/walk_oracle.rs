//! Property-based oracle for the symbolic walk
//! (`ServiceExplorer::symbolic_counts`): for random constraint sets over
//! symmetric universes, the counts it reads off the LDD reached set —
//! orbits and their enabled events with symmetry on, the reached states
//! with it off — must equal a fresh explicit `Reduction::Full` search's
//! `states` and `transitions`, and the walk must decline exactly where
//! that search truncates. Exact pins on the floor-control and two-role
//! universes live in `explore_counts.rs`.

use proptest::prelude::*;
use svckit_lts::explorer::{AbstractEvent, ExploreOptions, Reduction, ServiceExplorer};
use svckit_lts::{Engine, Symmetry};
use svckit_model::{
    Constraint, ConstraintScope, Direction, PartId, PrimitiveSpec, Sap, ServiceDefinition, Value,
};

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

/// Two groups of one role: users `1..=a` see key 1 only, users
/// `a + 1..=a + b` keys 1 and 2, so the groups' fragments have different
/// widths and share key 1's slots (a mutex there names holders from
/// both).
fn split_universe(a: u64, b: u64) -> Vec<AbstractEvent> {
    let mut events = Vec::new();
    for s in 1..=a + b {
        let sap = Sap::new("user", PartId::new(s));
        let keys = if s <= a { 1 } else { 2 };
        for k in 1..=keys {
            for name in NAMES {
                events.push(AbstractEvent::new(sap.clone(), name, vec![Value::Id(k)]));
            }
        }
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The walk's counts equal a fresh explicit `Reduction::Full` search
    /// with symmetry on (and the fixpoint's, a fresh search with symmetry
    /// off), for random keyed and unkeyed constraint sets over one group
    /// of 2–4 users and 1–2 key values and over two groups; where the
    /// walk declines, that search truncates.
    #[test]
    fn walk_counts_equal_the_explicit_full_search(
        constraints in proptest::collection::vec(arb_constraint(), 1..4),
        users in 2u64..=4,
        keys in 1u64..=2,
    ) {
        // A set that does not build has nothing to search.
        if let Some(service) = oracle_service(&constraints) {
            for universe in [oracle_universe(users, keys), split_universe(2, users - 1)] {
                let walker = ServiceExplorer::with_engine(&service, universe.clone(), 2, Engine::Dfa);
                for symmetry in [Symmetry::On, Symmetry::Off] {
                    let options = ExploreOptions {
                        max_states: 5_000,
                        reduction: Reduction::Full,
                        symmetry,
                        ..ExploreOptions::default()
                    };
                    let walked = walker
                        .symbolic_counts(&options)
                        .expect("the fixpoint fits the node budget");
                    let explicit = ServiceExplorer::with_engine(&service, universe.clone(), 2, Engine::Dfa)
                        .explore_counts(&options);
                    match walked.full {
                        Some(full) => {
                            prop_assert!(!explicit.truncated);
                            prop_assert_eq!(
                                (full.states, full.transitions),
                                (explicit.states, explicit.transitions)
                            );
                        }
                        None => prop_assert!(explicit.truncated),
                    }
                }
            }
        }
    }
}
