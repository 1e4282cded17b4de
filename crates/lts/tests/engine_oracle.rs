//! Property-based dual-engine oracle: for random constraint sets, random
//! universes and random walks, the compiled-DFA engine must answer every
//! explorer query **byte-identically** to the reference interpreter —
//! allowed sets, step verdicts (down to the rendered violation strings),
//! quiescence, unfolded LTSs, exploration reports and
//! verification counterexamples.
//!
//! This is the same dual-backend discipline the queue backends use: the
//! interpreter stays authoritative, and the table compiler has to earn its
//! speed by proving equivalence on exactly the surfaces callers consume.

use proptest::prelude::*;

use svckit_lts::explorer::{AbstractEvent, ExploreOptions, Reduction, ServiceExplorer};
use svckit_lts::{Engine, LtsBuilder};
use svckit_model::{
    Constraint, ConstraintScope, Direction, PartId, PrimitiveSpec, Sap, ServiceDefinition, Value,
};

const NAMES: [&str; 3] = ["a", "b", "c"];

fn arb_constraint() -> impl Strategy<Value = Constraint> {
    (
        0usize..5,
        0usize..NAMES.len(),
        0usize..NAMES.len(),
        0usize..2,
        any::<bool>(),
        1usize..3,
    )
        .prop_map(|(kind, p1, p2, scope, keyed, limit)| {
            let (x, y) = (NAMES[p1], NAMES[p2]);
            let scope = [ConstraintScope::SameSap, ConstraintScope::Global][scope];
            let constraint = match kind {
                0 => Constraint::precedes(x, y, scope),
                1 => Constraint::after(x, y, scope),
                2 => Constraint::eventually_follows(x, y, scope),
                3 => Constraint::at_most_outstanding(x, y, limit, scope),
                _ => Constraint::mutual_exclusion(x, y),
            };
            if keyed {
                constraint.keyed(&[0])
            } else {
                constraint
            }
        })
}

fn service(constraints: &[Constraint]) -> Option<ServiceDefinition> {
    let mut builder = ServiceDefinition::builder("oracle")
        .role("user", 1, 8)
        .primitive(PrimitiveSpec::new("a", Direction::FromUser).param_id("k"))
        .primitive(PrimitiveSpec::new("b", Direction::FromUser).param_id("k"))
        .primitive(PrimitiveSpec::new("c", Direction::ToUser).param_id("k"));
    for constraint in constraints {
        builder = builder.constraint(constraint.clone());
    }
    builder.build().ok()
}

/// Every (sap, primitive, key) combination over 2 SAPs and 2 key values:
/// 12 events, exercising both scopes and correlation keys.
fn full_universe() -> Vec<AbstractEvent> {
    let mut events = Vec::new();
    for s in 1..=2u64 {
        let sap = Sap::new("user", PartId::new(s));
        for name in NAMES {
            for k in 1..=2u64 {
                events.push(AbstractEvent::new(sap.clone(), name, vec![Value::Id(k)]));
            }
        }
    }
    events
}

fn engines(svc: &ServiceDefinition, bound: u32) -> (ServiceExplorer<'_>, ServiceExplorer<'_>) {
    let dfa = ServiceExplorer::with_engine(svc, full_universe(), bound, Engine::Dfa);
    let interp = ServiceExplorer::with_engine(svc, full_universe(), bound, Engine::Interp);
    assert_eq!(dfa.engine(), Engine::Dfa, "small bounds always compile");
    (dfa, interp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random walks: at every reached state both engines agree on the
    /// allowed set, quiescence, obligations, and on each attempted step's
    /// verdict including the exact violation text.
    #[test]
    fn walk_verdicts_are_byte_identical(
        constraints in proptest::collection::vec(arb_constraint(), 1..5),
        walk in proptest::collection::vec(0usize..12, 1..40),
        bound in 1u32..3,
    ) {
        let Some(svc) = service(&constraints) else { return; };
        let (dfa, interp) = engines(&svc, bound);
        let mut ds = dfa.initial_state();
        let mut is = interp.initial_state();
        for &ei in &walk {
            prop_assert_eq!(dfa.allowed(&ds), interp.allowed(&is));
            prop_assert_eq!(ds.is_quiescent(&dfa), is.is_quiescent(&interp));
            let event = &dfa.universe()[ei].clone();
            match (dfa.step(&ds, event), interp.step(&is, event)) {
                (Ok(dn), Ok(inn)) => {
                    ds = dn;
                    is = inn;
                }
                (Err(de), Err(ie)) => {
                    prop_assert_eq!(de.constraint(), ie.constraint());
                    prop_assert_eq!(de.message(), ie.message());
                }
                (d, i) => prop_assert!(false, "engines disagree at {event}: {d:?} vs {i:?}"),
            }
        }
    }

    /// Whole-automaton surfaces: the unfolded LTS (compared structurally
    /// via DOT), and the exploration report under both reductions.
    #[test]
    fn unfolding_and_exploration_are_identical(
        constraints in proptest::collection::vec(arb_constraint(), 1..4),
    ) {
        let Some(svc) = service(&constraints) else { return; };
        let (dfa, interp) = engines(&svc, 1);
        prop_assert_eq!(dfa.to_lts(3000).to_dot("g"), interp.to_lts(3000).to_dot("g"));
        for reduction in [Reduction::Full, Reduction::AmpleSets] {
            let options = ExploreOptions {
                max_states: 3000,
                reduction,
                progress: vec!["c".into()],
                ..ExploreOptions::default()
            };
            prop_assert_eq!(
                format!("{:?}", dfa.explore(&options)),
                format!("{:?}", interp.explore(&options))
            );
        }
    }

    /// Verification: random implementation LTSs over the universe produce
    /// the same accept/reject outcome, and rejections carry the same
    /// shortest counterexample, rendered identically.
    #[test]
    fn verification_counterexamples_are_identical(
        constraints in proptest::collection::vec(arb_constraint(), 1..4),
        edges in proptest::collection::vec((0usize..4, 0usize..12, 0usize..4), 1..10),
    ) {
        let Some(svc) = service(&constraints) else { return; };
        let (dfa, interp) = engines(&svc, 1);
        let events = full_universe();
        let mut builder = LtsBuilder::new();
        let ids: Vec<_> = (0..4).map(|i| builder.add_state(format!("s{i}"))).collect();
        for &(from, event, to) in &edges {
            builder.add_transition(ids[from], events[event].clone(), ids[to]);
        }
        let implementation = builder.build(ids[0]);
        match (dfa.verify_lts(&implementation), interp.verify_lts(&implementation)) {
            (Ok(()), Ok(())) => {}
            (Err(de), Err(ie)) => {
                prop_assert_eq!(de.trace(), ie.trace());
                prop_assert_eq!(de.to_string(), ie.to_string());
            }
            (d, i) => prop_assert!(false, "engines disagree: {d:?} vs {i:?}"),
        }
    }
}
