//! Property-based backend oracle: the symbolic LDD backend is locked
//! against the explicit engine. For random constraint sets over 2–5-user
//! universes, under both constraint engines (`dfa` | `interp`) and both
//! symmetry settings, the two backends must agree on reachable-state
//! counts, report **byte-identical** diagnostic sets and `verify_lts`
//! verdicts, and produce witness traces that replay concretely — plus a
//! regression test that a truncated explicit pass is rescued by a
//! completed (full, not count-only) symbolic fixpoint without changing
//! the diagnosis.

use proptest::prelude::*;

use svckit_analyze::{
    analyze_service, fixtures, progress_primitives, verify_implementation, AnalysisReport,
    ServicePassOptions,
};
use svckit_lts::explorer::{ExploreOptions, Reduction, ServiceExplorer};
use svckit_lts::LtsBuilder;
use svckit_lts::{Backend, Engine, Symmetry};
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
        1usize..3,
    )
        .prop_map(|(kind, p1, p2, scope, limit)| {
            let (x, y) = (NAMES[p1], NAMES[p2]);
            let scope = [ConstraintScope::SameSap, ConstraintScope::Global][scope];
            match kind {
                0 => Constraint::precedes(x, y, scope),
                1 => Constraint::after(x, y, scope),
                2 => Constraint::eventually_follows(x, y, scope),
                3 => Constraint::at_most_outstanding(x, y, limit, scope),
                _ => Constraint::mutual_exclusion(x, y),
            }
        })
}

fn service(constraints: &[Constraint]) -> Option<ServiceDefinition> {
    let mut builder = ServiceDefinition::builder("ldd-oracle")
        .role("user", 1, 8)
        .primitive(PrimitiveSpec::new("a", Direction::FromUser).param_id("k"))
        .primitive(PrimitiveSpec::new("b", Direction::FromUser).param_id("k"))
        .primitive(PrimitiveSpec::new("c", Direction::ToUser).param_id("k"));
    for constraint in constraints {
        builder = builder.constraint(constraint.clone());
    }
    builder.build().ok()
}

fn symmetric_universe(users: u64) -> Vec<svckit_lts::explorer::AbstractEvent> {
    let mut events = Vec::new();
    for s in 1..=users {
        let sap = Sap::new("user", PartId::new(s));
        for name in NAMES {
            events.push(svckit_lts::explorer::AbstractEvent::new(
                sap.clone(),
                name,
                vec![Value::Id(1)],
            ));
        }
    }
    events
}

fn pass_options(backend: Backend, symmetry: Symmetry, engine: Engine) -> ServicePassOptions {
    ServicePassOptions {
        backend,
        symmetry,
        engine,
        max_states: 20_000,
        ..ServicePassOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Explorer-level lock: under the DFA engine, the symbolic fixpoint
    /// reports exactly what an untruncated `Reduction::Full` /
    /// `Symmetry::Off` explicit search reports — counts, deadlock census
    /// with byte-identical witnesses, never-enabled census — and every
    /// witness replays through the concrete step function. Under the
    /// interpreter the symbolic request falls back to that explicit
    /// search.
    #[test]
    fn symbolic_reports_match_the_explicit_engine(
        constraints in proptest::collection::vec(arb_constraint(), 1..4),
        users in 2u64..=4,
    ) {
        let Some(svc) = service(&constraints) else { return; };
        let universe = symmetric_universe(users);
        let options = ExploreOptions {
            reduction: Reduction::Full,
            symmetry: Symmetry::Off,
            progress: vec!["c".to_owned()],
            ..ExploreOptions::default()
        };
        for engine in [Engine::Dfa, Engine::Interp] {
            let explorer = ServiceExplorer::with_engine(&svc, universe.clone(), 2, engine);
            let explicit = explorer.explore(&options);
            if explicit.truncated {
                return;
            }
            let symbolic = explorer.explore(&ExploreOptions {
                backend: Backend::Symbolic,
                ..options.clone()
            });
            prop_assert!(!symbolic.truncated);
            if engine == Engine::Interp {
                // No slot layout to order a diagram by: the interpreter's
                // symbolic request is answered by the explicit search.
                prop_assert_eq!(format!("{:?}", explicit), format!("{:?}", symbolic));
                prop_assert_eq!(symbolic.peak_nodes, 0);
                continue;
            }
            prop_assert!(symbolic.peak_nodes > 0, "the symbolic engine actually ran");
            prop_assert_eq!(explicit.states, symbolic.states);
            prop_assert_eq!(explicit.transitions, symbolic.transitions);
            prop_assert_eq!(explicit.deadlock_states, symbolic.deadlock_states);
            prop_assert_eq!(&explicit.deadlocks, &symbolic.deadlocks);
            prop_assert_eq!(&explicit.never_enabled, &symbolic.never_enabled);
            prop_assert_eq!(&explicit.ample_hist, &symbolic.ample_hist);
            prop_assert_eq!(explicit.livelock.is_some(), symbolic.livelock.is_some());
            for witness in &symbolic.deadlocks {
                let mut state = explorer.initial_state();
                for event in witness {
                    state = explorer.step(&state, event).expect("witness step replays");
                }
                prop_assert!(explorer.allowed(&state).is_empty(), "witness ends dead");
            }
            if let Some(witness) = &symbolic.livelock {
                let mut state = explorer.initial_state();
                for event in &witness.prefix {
                    state = explorer.step(&state, event).expect("prefix replays");
                }
                let entry = state.clone();
                for event in &witness.cycle {
                    state = explorer.step(&state, event).expect("cycle replays");
                }
                prop_assert_eq!(state, entry, "cycle returns to its entry state");
            }
        }
    }

    /// Analyzer-level lock: the full diagnostic set is byte-identical
    /// across backends for every engine × symmetry combination, and the
    /// symbolic pass fills a consistent `ldd` statistics block.
    #[test]
    fn analyzer_diagnostics_are_backend_invariant(
        constraints in proptest::collection::vec(arb_constraint(), 1..4),
        users in 2u64..=5,
    ) {
        let Some(svc) = service(&constraints) else { return; };
        for engine in [Engine::Dfa, Engine::Interp] {
            for symmetry in [Symmetry::On, Symmetry::Off] {
                let universe = symmetric_universe(users);
                let explicit = analyze_service(
                    &svc,
                    universe.clone(),
                    &pass_options(Backend::Explicit, symmetry, engine),
                );
                let symbolic = analyze_service(
                    &svc,
                    universe,
                    &pass_options(Backend::Symbolic, symmetry, engine),
                );
                // Truncation can legitimately split the backends (the
                // symbolic fixpoint finishes where the bounded explicit
                // search cannot and rescues the diagnosis) — the rescue
                // path has its own regression test below.
                let truncated = explicit
                    .diagnostics
                    .iter()
                    .any(|d| d.code == "SA009");
                if truncated {
                    continue;
                }
                prop_assert_eq!(
                    format!("{:?}", explicit.diagnostics),
                    format!("{:?}", symbolic.diagnostics)
                );
                prop_assert_eq!(explicit.states, symbolic.states);
                prop_assert_eq!(explicit.transitions, symbolic.transitions);
                prop_assert_eq!(&explicit.por, &symbolic.por);
                prop_assert_eq!(&explicit.sym, &symbolic.sym);
                // The explicit pass reports no LDD work; under the DFA
                // engine the symbolic pass must report a real run, under
                // the interpreter the `ldd` block holds the configured
                // explicit search's counts and no diagram statistics.
                prop_assert_eq!(explicit.ldd.peak_nodes, 0);
                match engine {
                    Engine::Dfa => {
                        prop_assert!(symbolic.ldd.peak_nodes > 0);
                        prop_assert!(symbolic.ldd.states > 0);
                    }
                    Engine::Interp => {
                        prop_assert_eq!(symbolic.ldd.peak_nodes, 0);
                        prop_assert_eq!(symbolic.ldd.ldd_nodes, 0);
                        prop_assert_eq!(symbolic.ldd.states, explicit.states as u64);
                        prop_assert_eq!(symbolic.ldd.transitions, explicit.transitions as u64);
                    }
                }
            }
        }
    }

    /// `SA010` lock: conformance verdicts — including the rendered
    /// shortest counterexample — are identical whichever backend the pass
    /// options carry.
    #[test]
    fn verification_verdicts_are_backend_invariant(
        constraints in proptest::collection::vec(arb_constraint(), 1..4),
        users in 2u64..=3,
        edges in proptest::collection::vec((0usize..4, 0usize..6, 0usize..4), 1..10),
    ) {
        let Some(svc) = service(&constraints) else { return; };
        let universe = symmetric_universe(users);
        let mut builder = LtsBuilder::new();
        let ids: Vec<_> = (0..4).map(|i| builder.add_state(format!("s{i}"))).collect();
        for &(from, event, to) in &edges {
            builder.add_transition(ids[from], universe[event % universe.len()].clone(), ids[to]);
        }
        let implementation = builder.build(ids[0]);
        let explicit = verify_implementation(
            &svc,
            &universe,
            &implementation,
            &pass_options(Backend::Explicit, Symmetry::On, Engine::Dfa),
        );
        let symbolic = verify_implementation(
            &svc,
            &universe,
            &implementation,
            &pass_options(Backend::Symbolic, Symmetry::On, Engine::Dfa),
        );
        prop_assert_eq!(explicit, symbolic);
    }
}

/// Every analyzer bug fixture still triggers exactly its SA code under the
/// symbolic backend, with a diagnostic set byte-identical to the explicit
/// backend's.
#[test]
fn fixtures_trigger_their_codes_under_the_symbolic_backend() {
    for (target, code) in fixtures::expected_codes() {
        let explicit = AnalysisReport::run(
            std::slice::from_ref(&target),
            &ServicePassOptions::default(),
        );
        let symbolic = AnalysisReport::run(
            std::slice::from_ref(&target),
            &ServicePassOptions {
                backend: Backend::Symbolic,
                ..ServicePassOptions::default()
            },
        );
        assert!(
            symbolic.targets[0]
                .diagnostics
                .iter()
                .any(|d| d.code == code),
            "{} must still report {code} under the symbolic backend",
            target.name,
        );
        assert_eq!(
            explicit.to_diag_json(),
            symbolic.to_diag_json(),
            "{}: diagnostics JSON must be byte-identical across backends",
            target.name,
        );
    }
}

/// The rescue path: when the bounded explicit search truncates (`SA009`)
/// but the symbolic fixpoint completes, the symbolic backend replaces the
/// inconclusive diagnosis with the real one — byte-identical to what an
/// unbounded explicit pass reports.
#[test]
fn a_completed_symbolic_fixpoint_rescues_a_truncated_explicit_pass() {
    let svc = service(&[
        Constraint::eventually_follows("a", "c", ConstraintScope::SameSap),
        Constraint::at_most_outstanding("a", "c", 2, ConstraintScope::SameSap),
    ])
    .expect("the oracle service builds");
    let universe = symmetric_universe(4);
    let tight = |backend| ServicePassOptions {
        backend,
        symmetry: Symmetry::Off,
        max_states: 50,
        ..ServicePassOptions::default()
    };
    let truncated = analyze_service(&svc, universe.clone(), &tight(Backend::Explicit));
    assert!(
        truncated.diagnostics.iter().any(|d| d.code == "SA009"),
        "the 50-state bound must truncate the explicit search"
    );
    let rescued = analyze_service(&svc, universe.clone(), &tight(Backend::Symbolic));
    assert!(
        rescued.diagnostics.iter().all(|d| d.code != "SA009"),
        "the completed fixpoint must clear the truncation warning"
    );
    // The rescue reads the findings of a full symbolic run, not of the
    // count-only one the untruncated case uses: the `ldd` block carries
    // the full run's store statistics, which the count-only run (no
    // witness chains, no livelock fixpoint) stays below.
    let options = tight(Backend::Symbolic);
    let explorer = ServiceExplorer::with_engine(
        &svc,
        universe.clone(),
        options.max_outstanding,
        options.engine,
    );
    let symbolic = ExploreOptions {
        max_states: options.max_states,
        reduction: options.reduction,
        progress: progress_primitives(&svc),
        symmetry: options.symmetry,
        backend: Backend::Symbolic,
        ..ExploreOptions::default()
    };
    let full = explorer.explore(&symbolic);
    assert_eq!(rescued.ldd.peak_nodes, full.peak_nodes as u64);
    assert_eq!(rescued.ldd.cache_hits, full.cache_hits);
    assert!(explorer.explore_counts(&symbolic).peak_nodes < full.peak_nodes);
    let unbounded = analyze_service(
        &svc,
        universe,
        &ServicePassOptions {
            symmetry: Symmetry::Off,
            max_states: 1_000_000,
            ..ServicePassOptions::default()
        },
    );
    assert!(unbounded.diagnostics.iter().all(|d| d.code != "SA009"));
    assert_eq!(
        format!("{:?}", rescued.diagnostics),
        format!("{:?}", unbounded.diagnostics),
        "the rescued diagnosis matches the unbounded explicit one"
    );
}
