//! Explorer-level oracle lock for the symbolic LDD backend.
//!
//! The contract under test: `Backend::Symbolic` reports exactly what the
//! explicit engine reports for an *untruncated* `Reduction::Full` /
//! `Symmetry::Off` search — same state and transition counts, the same
//! deadlock census with byte-identical witness traces, the same
//! never-enabled census — and falls back to the explicit engine (with its
//! configured reduction) when the LDD node budget trips or the explorer
//! runs the interpreter engine, whose constraint states have no slot
//! layout to order a diagram by.

use svckit_lts::explorer::{
    AbstractEvent, ExploreOptions, ExploreReport, Reduction, ServiceExplorer,
};
use svckit_lts::{Backend, Engine, Symmetry};
use svckit_model::{
    Constraint, ConstraintScope, Direction, PartId, PrimitiveSpec, Sap, ServiceDefinition, Value,
};

/// The floor-control service of Figure 5 (re-declared: `svckit-lts` sits
/// below `svckit-floorctl` in the crate graph).
fn floor_service() -> ServiceDefinition {
    ServiceDefinition::builder("floor-control")
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
        .constraint(Constraint::mutual_exclusion("granted", "free").keyed(&[0]))
        .build()
        .unwrap()
}

fn floor_universe(subscribers: u64, resources: u64) -> Vec<AbstractEvent> {
    let mut universe = Vec::new();
    for s in 1..=subscribers {
        for r in 1..=resources {
            let sap = Sap::new("subscriber", PartId::new(s));
            for primitive in ["request", "granted", "free"] {
                universe.push(AbstractEvent::new(
                    sap.clone(),
                    primitive,
                    vec![Value::Id(r)],
                ));
            }
        }
    }
    universe
}

fn full_options() -> ExploreOptions {
    ExploreOptions {
        reduction: Reduction::Full,
        symmetry: Symmetry::Off,
        progress: vec!["granted".to_owned(), "free".to_owned()],
        ..ExploreOptions::default()
    }
}

/// Asserts every field the two backends promise to agree on.
fn assert_reports_agree(explicit: &ExploreReport, symbolic: &ExploreReport) {
    assert!(
        !explicit.truncated,
        "oracle needs an untruncated explicit run"
    );
    assert!(!symbolic.truncated);
    assert_eq!(explicit.states, symbolic.states);
    assert_eq!(explicit.transitions, symbolic.transitions);
    assert_eq!(explicit.deadlock_states, symbolic.deadlock_states);
    assert_eq!(explicit.deadlocks, symbolic.deadlocks);
    assert_eq!(explicit.never_enabled, symbolic.never_enabled);
    assert_eq!(explicit.ample_hist, symbolic.ample_hist);
    assert_eq!(explicit.livelock.is_some(), symbolic.livelock.is_some());
    assert!(symbolic.peak_nodes > 0, "the symbolic engine actually ran");
    assert!(symbolic.ldd_nodes > 0);
}

/// Asserts the symbolic backend's report for `engine`: under the DFA
/// engine the diagram search agrees with the explicit one
/// ([`assert_reports_agree`]); under the interpreter it *is* the explicit
/// report — findings, counts and all — and no diagram was built.
fn assert_symbolic_report(engine: Engine, explicit: &ExploreReport, symbolic: &ExploreReport) {
    match engine {
        Engine::Dfa => assert_reports_agree(explicit, symbolic),
        Engine::Interp => {
            assert_eq!(format!("{explicit:?}"), format!("{symbolic:?}"));
            assert_eq!(symbolic.peak_nodes, 0, "the interpreter reports explicitly");
        }
    }
}

#[test]
fn symbolic_matches_full_explicit_on_the_floor_universe() {
    let service = floor_service();
    for engine in [Engine::Dfa, Engine::Interp] {
        for (subscribers, resources) in [(2, 1), (2, 2), (3, 2)] {
            let universe = floor_universe(subscribers, resources);
            let explorer = ServiceExplorer::with_engine(&service, universe, 2, engine);
            let explicit = explorer.explore(&full_options());
            let symbolic = explorer.explore(&ExploreOptions {
                backend: Backend::Symbolic,
                ..full_options()
            });
            assert_symbolic_report(engine, &explicit, &symbolic);
        }
    }
}

#[test]
fn symbolic_count_matches_a_brute_force_search() {
    let service = floor_service();
    let universe = floor_universe(2, 2);
    let explorer = ServiceExplorer::new(&service, universe.clone(), 2);
    let mut seen = std::collections::HashSet::new();
    let mut queue = std::collections::VecDeque::new();
    let init = explorer.initial_state();
    seen.insert(init.clone());
    queue.push_back(init);
    let mut transitions = 0usize;
    while let Some(state) = queue.pop_front() {
        for event in &universe {
            if let Ok(next) = explorer.step(&state, event) {
                transitions += 1;
                if seen.insert(next.clone()) {
                    queue.push_back(next);
                }
            }
        }
    }
    let symbolic = explorer.explore(&ExploreOptions {
        backend: Backend::Symbolic,
        ..full_options()
    });
    assert_eq!(symbolic.states, seen.len());
    assert_eq!(symbolic.transitions, transitions);
}

/// A service whose product space deadlocks two plies in: each user may
/// `open` at most once (the universe carries no `close` to match it), so
/// once both users have opened, nothing is enabled.
fn deadlocking_service() -> ServiceDefinition {
    ServiceDefinition::builder("jam")
        .role("user", 1, usize::MAX)
        .primitive(PrimitiveSpec::new("open", Direction::FromUser))
        .primitive(PrimitiveSpec::new("close", Direction::FromUser))
        .constraint(Constraint::at_most_outstanding(
            "open",
            "close",
            1,
            ConstraintScope::SameSap,
        ))
        .build()
        .unwrap()
}

#[test]
fn deadlock_witnesses_are_byte_identical() {
    let service = deadlocking_service();
    let universe: Vec<AbstractEvent> = (1..=2)
        .map(|s| {
            let sap = Sap::new("user", PartId::new(s));
            AbstractEvent::new(sap, "open", vec![Value::Id(1)])
        })
        .collect();
    for engine in [Engine::Dfa, Engine::Interp] {
        let explorer = ServiceExplorer::with_engine(&service, universe.clone(), 1, engine);
        let explicit = explorer.explore(&full_options());
        let symbolic = explorer.explore(&ExploreOptions {
            backend: Backend::Symbolic,
            ..full_options()
        });
        assert!(explicit.deadlock_states > 0, "the fixture must deadlock");
        assert_symbolic_report(engine, &explicit, &symbolic);
        // The witnesses replay: every step is accepted, and the end state
        // really is dead.
        for witness in &symbolic.deadlocks {
            let mut state = explorer.initial_state();
            for event in witness {
                state = explorer.step(&state, event).expect("witness step replays");
            }
            assert!(explorer.allowed(&state).is_empty(), "witness ends dead");
        }
    }
}

#[test]
fn livelock_witnesses_replay_under_both_backends() {
    // `ping` is unconstrained and never progress, so after `request` the
    // space can spin on `ping` forever with an obligation outstanding.
    let service = ServiceDefinition::builder("spin")
        .role("user", 1, usize::MAX)
        .primitive(PrimitiveSpec::new("request", Direction::FromUser))
        .primitive(PrimitiveSpec::new("grant", Direction::ToUser))
        .primitive(PrimitiveSpec::new("ping", Direction::FromUser))
        .constraint(Constraint::eventually_follows(
            "request",
            "grant",
            ConstraintScope::SameSap,
        ))
        .build()
        .unwrap();
    let sap = Sap::new("user", PartId::new(1));
    let universe = vec![
        AbstractEvent::new(sap.clone(), "request", vec![]),
        AbstractEvent::new(sap.clone(), "grant", vec![]),
        AbstractEvent::new(sap, "ping", vec![]),
    ];
    let options = ExploreOptions {
        progress: vec!["grant".to_owned()],
        reduction: Reduction::Full,
        symmetry: Symmetry::Off,
        ..ExploreOptions::default()
    };
    let explorer = ServiceExplorer::new(&service, universe, 2);
    let explicit = explorer.explore(&options);
    let symbolic = explorer.explore(&ExploreOptions {
        backend: Backend::Symbolic,
        ..options.clone()
    });
    for (label, report) in [("explicit", &explicit), ("symbolic", &symbolic)] {
        let witness = report
            .livelock
            .as_ref()
            .unwrap_or_else(|| panic!("{label} backend must find the livelock"));
        assert!(!witness.cycle.is_empty());
        let mut state = explorer.initial_state();
        for event in &witness.prefix {
            state = explorer.step(&state, event).expect("prefix replays");
        }
        let entry = state.clone();
        for event in &witness.cycle {
            state = explorer.step(&state, event).expect("cycle replays");
        }
        assert_eq!(state, entry, "{label} cycle returns to its entry state");
    }
}

#[test]
fn node_budget_overflow_falls_back_to_the_explicit_engine() {
    let service = floor_service();
    let universe = floor_universe(3, 2);
    let explorer = ServiceExplorer::new(&service, universe, 2);
    let explicit = explorer.explore(&ExploreOptions::default());
    // 16 nodes cannot hold a 3-user product space: the symbolic engine
    // must refuse and re-run the *configured* exploration (here the
    // default ample-sets reduction) on the explicit engine.
    let fallback = explorer.explore(&ExploreOptions {
        backend: Backend::Symbolic,
        ldd_node_limit: 16,
        ..ExploreOptions::default()
    });
    assert_eq!(explicit.states, fallback.states);
    assert_eq!(explicit.transitions, fallback.transitions);
    assert_eq!(explicit.deadlocks, fallback.deadlocks);
    assert_eq!(explicit.ample_hist, fallback.ample_hist);
    assert_eq!(fallback.peak_nodes, 0, "fallback reports no LDD statistics");
    assert_eq!(fallback.ldd_nodes, 0);
    assert_eq!(fallback.cache_hits, 0);
}
