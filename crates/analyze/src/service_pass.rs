//! Exhaustive service-level passes: deadlock, unreachable-primitive and
//! livelock detection over the constraint automaton's product state space.
//!
//! All three passes share one call to
//! [`ServiceExplorer::explore`](svckit_lts::explorer::ServiceExplorer::explore),
//! which (by default) applies the ample-set partial-order reduction — the
//! diagnostics are reduction-invariant, only the visited state count
//! changes.
//!
//! Up to three counterpart searches fill the report's statistics blocks:
//! the flipped symmetry setting ([`ServiceAnalysis::sym`]), the flipped
//! reduction ([`ServiceAnalysis::por`]) and, under [`Backend::Symbolic`],
//! the LDD fixpoint ([`ServiceAnalysis::ldd`]). They run count-only
//! ([`ServiceExplorer::explore_counts`]): the same search without witness
//! trees, edge lists, livelock searches or (symbolic) witness relations.
//! Two of them run in full when their findings can be reported: the
//! unquotiented counterpart of a quotient run that found a defect, and
//! the symbolic run when the configured search truncated. The
//! unquotiented counterpart of a clean quotient run does not run at all
//! when the quotient certifies its orbit-weighted sums
//! ([`ExploreReport::sym_exact`]); the sums fill the block instead, and
//! debug builds run the real counterpart to compare.
//!
//! A pass runs on two threads. The calling thread runs the reduction
//! counterpart, the longest single search, on a clone of the explorer.
//! A worker runs, in order, the configured search, the symmetry
//! counterpart (full, arithmetic or count-only) and, under the symbolic
//! backend, the symbolic search (count-only, or full when the configured
//! search truncated). Every search is deterministic and reads only its
//! own explorer, so the report does not depend on the schedule.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use svckit_dfa::{check_product, Binder, Compiled, Edge, Engine, ProductCheck};
use svckit_lts::explorer::{
    AbstractEvent, ExploreCounts, ExploreOptions, ExploreReport, Reduction, ServiceExplorer,
};
use svckit_lts::{Backend, Symmetry};
use svckit_model::{ConstraintKind, Sap, ServiceDefinition, Value};
use svckit_sweep::{LddStats, PorStats, SymStats};

use crate::diag::Diagnostic;

/// Tunables for the exhaustive passes.
#[derive(Debug, Clone)]
pub struct ServicePassOptions {
    /// Reduction strategy handed to the explorer.
    pub reduction: Reduction,
    /// Product-state bound; hitting it emits `SA009`.
    pub max_states: usize,
    /// Per-instance bound on outstanding obligations (keeps the state
    /// space finite in the presence of unbounded liveness constraints).
    pub max_outstanding: u32,
    /// Constraint-evaluation engine handed to the explorer. Diagnostics
    /// are engine-invariant (CI `cmp`s the diag JSON of both engines);
    /// under [`Engine::Dfa`] the exploration additionally cross-checks
    /// its `SA001`/`SA002` findings against the direct product-automaton
    /// sweep ([`product_check`]) in debug builds.
    pub engine: Engine,
    /// Whether the exploration quotients product states by the detected
    /// user-permutation symmetry. Diagnostics are symmetry-invariant: when
    /// the quotient run finds a defect, the witnesses are re-derived from
    /// the unquotiented counterpart run, so `--symmetry on|off` produce
    /// byte-identical diag JSON (CI `cmp`s them). The knob only changes
    /// how many states the search must store — and therefore which
    /// universes fit under the state bound at all.
    pub symmetry: Symmetry,
    /// Which reachability backend the pass reports for. Diagnostics are
    /// backend-invariant (CI `cmp`s the diag JSON of both backends, the
    /// `ldd_oracle` proptests pin the equality): the explicit runs above
    /// always execute and supply the diagnostics, and under
    /// [`Backend::Symbolic`] one additional LDD exploration fills the
    /// [`ServiceAnalysis::ldd`] block — and *replaces* the diagnostics
    /// only when every explicit source hit the state bound while the
    /// symbolic search completed, which is how universes past the
    /// explicit ceiling (the `--users 8` floor) stay analyzable with
    /// complete, replayable witnesses instead of an `SA009` stub. That
    /// LDD exploration runs count-only unless the configured search
    /// truncated.
    pub backend: Backend,
}

impl Default for ServicePassOptions {
    fn default() -> Self {
        ServicePassOptions {
            reduction: Reduction::AmpleSets,
            max_states: 200_000,
            max_outstanding: 2,
            engine: Engine::default(),
            symmetry: Symmetry::On,
            backend: Backend::default(),
        }
    }
}

/// What the exhaustive passes produced for one target.
#[derive(Debug, Clone)]
pub struct ServiceAnalysis {
    /// The findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Product states visited (reduction- and symmetry-dependent).
    pub states: usize,
    /// Transitions taken (reduction- and symmetry-dependent).
    pub transitions: usize,
    /// Full-vs-reduced exploration statistics, in the schema the explorer
    /// benchmarks share (`BENCH_hotpath.stats.json`). Both halves run at the
    /// configured symmetry setting; the counterpart half comes from a
    /// count-only search, equal in every field to a full one.
    pub por: PorStats,
    /// Unquotiented-vs-quotient exploration statistics, in the schema the
    /// explorer benchmarks share (`BENCH_hotpath.stats.json`). Both halves
    /// run at the configured reduction setting, so the block is identical
    /// whichever symmetry setting the caller picked. Under symmetry on,
    /// the unquotiented half is the quotient's orbit-weighted sums
    /// (`states + sym_states_saved`, `transitions +
    /// sym_transitions_saved`, not truncated) when the quotient's
    /// exactness certificate holds ([`ExploreReport::sym_exact`]);
    /// otherwise it comes from a real search, count-only unless it
    /// supplies the diagnostics. Both give the same numbers.
    pub sym: SymStats,
    /// Symbolic-backend statistics, filled only under
    /// [`Backend::Symbolic`] (all zeros otherwise — the explicit backend
    /// builds no diagrams). `states`, `transitions` and `ldd_nodes` equal
    /// a full symbolic search's. `peak_nodes` and `cache_hits` describe
    /// the store of the count-only search that fills the block, which
    /// chains event images into one reached set instead of building BFS
    /// plies and builds no witness relations (15 392 nodes on the 4-user
    /// floor, against 91 636 for the full search) — except when the
    /// configured search truncated, where the full (rescue) search fills
    /// it. Under [`Engine::Interp`] the symbolic
    /// backend falls back to the explicit search (diagrams run on the DFA
    /// slot layout only), so the block holds the configured search's
    /// `states` and `transitions` and zero diagram statistics.
    pub ldd: LddStats,
}

/// The progress-labelled primitives used by the livelock pass: every
/// primitive that *discharges or consumes* constraint bookkeeping — an
/// `EventuallyFollows`/`AtMostOutstanding` response, a `Precedes` later
/// side, a `MutualExclusion` release.
///
/// Rationale: a cycle in the product graph must either contain such a
/// consuming event (each cycle returns to its entry state, so whatever the
/// cycle produces it must also consume) or consist entirely of events that
/// no constraint relates to anything. Only the latter can starve pending
/// obligations forever, so labelling the consuming side as progress makes
/// `SA004` precisely a "constraint-free events can spin while obligations
/// pend" lint, with no false positives on constraint-complete services.
pub fn progress_primitives(service: &ServiceDefinition) -> Vec<String> {
    let mut progress: Vec<String> = Vec::new();
    for constraint in service.constraints() {
        let name = match constraint.kind() {
            ConstraintKind::EventuallyFollows { response, .. }
            | ConstraintKind::AtMostOutstanding { response, .. } => response,
            ConstraintKind::Precedes { later, .. } => later,
            ConstraintKind::MutualExclusion { release, .. } => release,
            ConstraintKind::After { .. } => continue,
        };
        if !progress.iter().any(|p| p == name) {
            progress.push(name.clone());
        }
    }
    progress
}

/// Runs the exhaustive passes for `service` over `universe`.
pub fn analyze_service(
    service: &ServiceDefinition,
    universe: Vec<AbstractEvent>,
    options: &ServicePassOptions,
) -> ServiceAnalysis {
    let explorer =
        ServiceExplorer::with_engine(service, universe, options.max_outstanding, options.engine);
    let explore_options = ExploreOptions {
        max_states: options.max_states,
        reduction: options.reduction,
        progress: progress_primitives(service),
        symmetry: options.symmetry,
        ..ExploreOptions::default()
    };
    // The symmetry counterpart: same reduction, flipped quotient knob. It
    // fills the shared `SymStats` block, and — when the quotient run found
    // a defect — supplies the diagnostics, so witness traces are
    // byte-identical under `--symmetry on|off`. (The quotient's expanded
    // witnesses are sound, but BFS order over orbit representatives can
    // pick a different same-length witness than the concrete search; for
    // clean targets the quotient report is used directly, which is what
    // makes universes that only the quotient can finish analyzable at
    // all.) Only that case needs the counterpart's findings. Otherwise it
    // runs count-only, or not at all when the quotient search certifies
    // its orbit-weighted sums (`ExploreReport::sym_exact`): those are the
    // unquotiented counts.
    let sym_options = ExploreOptions {
        symmetry: match options.symmetry {
            Symmetry::On => Symmetry::Off,
            Symmetry::Off => Symmetry::On,
        },
        ..explore_options.clone()
    };
    // Under the symbolic backend one extra exploration runs the LDD
    // fixpoint engine. It feeds the `ldd` statistics block, and — because
    // the diagram never truncates — rescues the diagnostics when the
    // configured run stopped at the state bound and the symmetry
    // counterpart offers no complete witnesses either: witnesses are then
    // re-extracted concrete minimal traces instead of an SA009 stub.
    // (`peak_nodes > 0` distinguishes a completed symbolic run from the
    // explicit fallback taken past the node budget or under the
    // interpreter engine.)
    let symbolic_options = ExploreOptions {
        backend: Backend::Symbolic,
        ..explore_options.clone()
    };
    // The reduction counterpart fills in the other half of the shared POR
    // statistics block at the same state bound and symmetry setting.
    let por_options = ExploreOptions {
        reduction: match options.reduction {
            Reduction::Full => Reduction::AmpleSets,
            Reduction::AmpleSets => Reduction::Full,
        },
        ..explore_options.clone()
    };

    // The reduction counterpart reads nothing of the other searches and,
    // once the symmetry counterpart is arithmetic, is the longest single
    // search, so this thread runs it while one worker runs the configured
    // search and what depends on it: the symmetry counterpart and the
    // symbolic search. The two threads search
    // separate explorers: every search holds its explorer's runtime for
    // its whole length, so sharing one would serialize them. Obs counters
    // the worker records are folded into this thread's recorder after the
    // join; counters add up, so the totals do not depend on the schedule.
    let por_explorer = explorer.clone();
    let worker_recorder = svckit_obs::active().then(svckit_obs::Recorder::new);
    let (searches, counterpart) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let run = || {
                configured_searches(
                    &explorer,
                    options,
                    &explore_options,
                    &sym_options,
                    &symbolic_options,
                )
            };
            match worker_recorder {
                Some(recorder) => {
                    let (searches, recorder) = svckit_obs::with_recorder(recorder, run);
                    (searches, Some(recorder))
                }
                None => (run(), None),
            }
        });
        let counterpart = por_explorer.explore_counts(&por_options);
        let (searches, recorder) = worker
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        if let Some(recorder) = &recorder {
            svckit_obs::absorb_into_current(recorder);
        }
        (searches, counterpart)
    });
    let Configured {
        report,
        sym_witness,
        sym_counterpart,
        symbolic_witness,
        symbolic,
    } = searches;

    let mut diag_report = match &sym_witness {
        Some(full) if !full.truncated => full,
        _ => &report,
    };
    if let Some(symbolic) = &symbolic_witness {
        if diag_report.truncated && !symbolic.truncated && symbolic.peak_nodes > 0 {
            diag_report = symbolic;
        }
    }
    let diagnostics = diagnostics_from(service, &explorer, diag_report);

    // Under the DFA engine, the direct product-automaton sweep must agree
    // with the exploration on the two findings it can read off (empty
    // language ⟺ SA001, reachable sink ⟺ SA002). Debug-build-only: the
    // sweep re-walks the whole product space.
    if cfg!(debug_assertions) && options.engine == Engine::Dfa && !diag_report.truncated {
        if let Some(check) = product_check(service, explorer.universe(), options) {
            if !check.truncated {
                let initial_dead = diag_report.deadlocks.iter().any(Vec::is_empty);
                debug_assert_eq!(
                    check.empty_language, initial_dead,
                    "product sweep and exploration disagree on SA001"
                );
                debug_assert_eq!(
                    check.dead_states > 0,
                    diag_report.deadlock_states > 0,
                    "product sweep and exploration disagree on SA002"
                );
            }
        }
    }

    let configured = report.counts();
    let (full, reduced) = match options.reduction {
        Reduction::Full => (&configured, &counterpart),
        Reduction::AmpleSets => (&counterpart, &configured),
    };
    let por = PorStats {
        full_states: full.states as u64,
        full_transitions: full.transitions as u64,
        reduced_states: reduced.states as u64,
        reduced_transitions: reduced.transitions as u64,
        ample_hist: reduced.ample_hist.clone(),
    };

    let (sym_on, sym_off) = match options.symmetry {
        Symmetry::On => (&configured, sym_counterpart.as_ref()),
        Symmetry::Off => (
            sym_counterpart
                .as_ref()
                .expect("an unquotiented search certifies nothing"),
            Some(&configured),
        ),
    };
    // Without an unquotiented search, the quotient's certified
    // orbit-weighted sums stand in for its counts.
    let (full_states, full_transitions, full_truncated) = match sym_off {
        Some(off) => (off.states as u64, off.transitions as u64, off.truncated),
        None => (
            sym_on.states as u64 + sym_on.sym_states_saved,
            sym_on.transitions as u64 + sym_on.sym_transitions_saved,
            false,
        ),
    };
    let sym = SymStats {
        full_states,
        full_transitions,
        full_truncated,
        quotient_states: sym_on.states as u64,
        quotient_transitions: sym_on.transitions as u64,
        orbit_count: sym_on.orbit_count as u64,
        canon_hits: sym_on.canon_hits,
        states_saved: sym_on.sym_states_saved,
    };
    // Debug builds run the counterpart the certificate replaced and
    // compare, under a recorder of its own so obs counts do not depend
    // on the build.
    if cfg!(debug_assertions) && sym_counterpart.is_none() {
        let (real, _) = svckit_obs::with_recorder(svckit_obs::Recorder::new(), || {
            explorer.explore_counts(&sym_options)
        });
        assert_eq!(
            (real.states as u64, real.transitions as u64, real.truncated),
            (sym.full_states, sym.full_transitions, sym.full_truncated),
            "certified orbit-weighted counts disagree with the unquotiented search"
        );
    }

    let ldd = symbolic
        .as_ref()
        .map(|r| LddStats {
            states: r.states as u64,
            transitions: r.transitions as u64,
            ldd_nodes: r.ldd_nodes as u64,
            peak_nodes: r.peak_nodes as u64,
            cache_hits: r.cache_hits,
        })
        .unwrap_or_default();

    ServiceAnalysis {
        diagnostics,
        states: report.states,
        transitions: report.transitions,
        por,
        sym,
        ldd,
    }
}

/// What the worker's searches produced: the configured search, the
/// symmetry counterpart and the symbolic search.
struct Configured {
    /// The configured search.
    report: ExploreReport,
    /// The unquotiented counterpart in full, when the quotient found a
    /// defect: it supplies the diagnostics.
    sym_witness: Option<ExploreReport>,
    /// The flipped-symmetry counterpart's counts; `None` when the
    /// configured quotient search certified its orbit-weighted sums
    /// ([`ExploreReport::sym_exact`]), which then stand in for them.
    sym_counterpart: Option<ExploreCounts>,
    /// The symbolic search in full, when the configured search truncated:
    /// it may rescue the diagnostics.
    symbolic_witness: Option<ExploreReport>,
    /// The symbolic search's counts, under [`Backend::Symbolic`].
    symbolic: Option<ExploreCounts>,
}

/// The configured search, then the symmetry counterpart (the full
/// witness search when the quotient found a defect, nothing when the
/// quotient's certificate holds, the count-only search otherwise), then,
/// under [`Backend::Symbolic`], the symbolic search (count-only when the
/// configured search completed, full when it truncated).
fn configured_searches(
    explorer: &ServiceExplorer<'_>,
    options: &ServicePassOptions,
    explore_options: &ExploreOptions,
    sym_options: &ExploreOptions,
    symbolic_options: &ExploreOptions,
) -> Configured {
    let report = explorer.explore(explore_options);
    let sym_witness = (options.symmetry == Symmetry::On && has_defect(&report))
        .then(|| explorer.explore(sym_options));
    let sym_counterpart = match &sym_witness {
        Some(full) => Some(full.counts()),
        None if report.sym_exact => None,
        None => Some(explorer.explore_counts(sym_options)),
    };
    let symbolic_witness = (options.backend == Backend::Symbolic && report.truncated)
        .then(|| explorer.explore(symbolic_options));
    let symbolic = match &symbolic_witness {
        Some(full) => Some(full.counts()),
        None => (options.backend == Backend::Symbolic)
            .then(|| explorer.explore_counts(symbolic_options)),
    };
    Configured {
        report,
        sym_witness,
        sym_counterpart,
        symbolic_witness,
        symbolic,
    }
}

/// Whether `report` contains any finding whose witness the analyzer would
/// report — the trigger for re-deriving diagnostics on the unquotiented
/// state space so witness traces stay knob-invariant.
fn has_defect(report: &ExploreReport) -> bool {
    report.deadlock_states > 0
        || report.deadlocks.iter().any(Vec::is_empty)
        || report.livelock.is_some()
        || report.truncated
        || !report.never_enabled.is_empty()
}

/// Sweeps the compiled product automaton of `service` over `universe`
/// directly (no explorer): the language-emptiness and reachable-sink
/// answers correspond to `SA001` and `SA002`, and the reported word is
/// minimal by BFS order. Returns `None` when the constraint set does not
/// compile to dense tables (the explorer then falls back to the
/// interpreter anyway).
pub fn product_check(
    service: &ServiceDefinition,
    universe: &[AbstractEvent],
    options: &ServicePassOptions,
) -> Option<ProductCheck> {
    let compiled = Arc::new(Compiled::compile(service, options.max_outstanding)?);
    let mut binder = Binder::new(compiled);
    let edges: Vec<Vec<Edge>> = universe
        .iter()
        .map(|event| binder.resolve(&event.sap, &event.primitive, &event.args))
        .collect();
    Some(check_product(&binder, &edges, options.max_states))
}

fn render_trace(trace: &[AbstractEvent]) -> Vec<String> {
    trace.iter().map(ToString::to_string).collect()
}

fn diagnostics_from(
    service: &ServiceDefinition,
    explorer: &ServiceExplorer<'_>,
    report: &ExploreReport,
) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let service_loc = format!("service `{}`", service.name());

    let initial_dead = report.deadlocks.iter().any(Vec::is_empty);
    if initial_dead {
        // Everything is unreachable from a dead initial state; reporting
        // SA003/SA004 on top would only restate the root cause.
        diagnostics.push(Diagnostic::new(
            "SA001",
            service_loc,
            format!(
                "the constraint set is contradictory: none of the {} universe events is \
                 allowed in the initial state",
                explorer.universe().len()
            ),
        ));
        return diagnostics;
    }

    if report.deadlock_states > 0 {
        for trace in &report.deadlocks {
            diagnostics.push(
                Diagnostic::new(
                    "SA002",
                    service_loc.clone(),
                    format!(
                        "reachable deadlock: after {} event(s) no event is allowed ({} dead \
                         state(s) in total)",
                        trace.len(),
                        report.deadlock_states
                    ),
                )
                .with_trace(render_trace(trace)),
            );
        }
    }

    // SA003 fires per *primitive* all of whose universe occurrences are
    // never enabled: a primitive dead at one SAP but live at another is a
    // property of the chosen universe, not of the service definition.
    let mut by_primitive: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for event in explorer.universe() {
        by_primitive.entry(&event.primitive).or_default().1 += 1;
    }
    for event in &report.never_enabled {
        by_primitive
            .get_mut(event.primitive.as_str())
            .expect("never_enabled events come from the universe")
            .0 += 1;
    }
    for (primitive, (dead, total)) in &by_primitive {
        if dead == total {
            diagnostics.push(Diagnostic::new(
                "SA003",
                format!("primitive `{primitive}`"),
                format!(
                    "`{primitive}` is never enabled: all {total} of its universe events are \
                     disallowed in every reachable state"
                ),
            ));
        }
    }

    if let Some(witness) = &report.livelock {
        let progress = progress_primitives(service);
        diagnostics.push(
            Diagnostic::new(
                "SA004",
                service_loc,
                format!(
                    "livelock: a reachable cycle of {} event(s) repeats forever without \
                     passing a progress primitive ({:?}) while obligations are outstanding",
                    witness.cycle.len(),
                    progress
                ),
            )
            .with_trace(
                render_trace(&witness.prefix)
                    .into_iter()
                    .chain(std::iter::once("<cycle>".to_owned()))
                    .chain(render_trace(&witness.cycle))
                    .collect(),
            ),
        );
    }

    if report.truncated {
        diagnostics.push(Diagnostic::new(
            "SA009",
            format!("service `{}`", service.name()),
            format!(
                "exploration stopped at the {}-state bound; deadlock/livelock results \
                 cover only the explored prefix",
                report.states
            ),
        ));
    }

    // SA011 is structural — computed from the service and universe alone,
    // so it is trivially engine- and symmetry-invariant. It is suppressed
    // while reachable deadlocks exist: an asymmetry that already manifests
    // as a deadlock (the token-drop shape) is reported through the
    // witness-bearing SA002, and restating it here would bury the root
    // cause — the same philosophy as the SA001 early return above.
    if report.deadlock_states == 0 {
        diagnostics.extend(asymmetric_constraint_diagnostics(
            service,
            explorer.universe(),
        ));
    }

    diagnostics
}

/// The `SA011` pass: for every constraint and every role the universe
/// instantiates at two or more access points, the universe's events for
/// the constraint's primitives must look the same at every member —
/// otherwise the users behind the role are not interchangeable, the
/// service's implied-identification reading breaks, and the symmetry
/// quotient finds no orbit to collapse.
fn asymmetric_constraint_diagnostics(
    service: &ServiceDefinition,
    universe: &[AbstractEvent],
) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    for role in service.roles() {
        // SAP → the (primitive, args) events the universe offers there,
        // restricted per constraint below. Collect membership first so
        // members with *no* event for a constraint still participate.
        let mut members: BTreeSet<&Sap> = BTreeSet::new();
        for event in universe {
            if event.sap.role() == role.name() {
                members.insert(&event.sap);
            }
        }
        if members.len() < 2 {
            continue;
        }
        for constraint in service.constraints() {
            let referenced = constraint.kind().referenced_primitives();
            let mut restricted: BTreeMap<&Sap, BTreeSet<(&str, &[Value])>> =
                members.iter().map(|sap| (*sap, BTreeSet::new())).collect();
            for event in universe {
                if event.sap.role() == role.name() && referenced.contains(&event.primitive.as_str())
                {
                    restricted
                        .get_mut(&event.sap)
                        .expect("membership was collected from the same universe")
                        .insert((event.primitive.as_str(), event.args.as_slice()));
                }
            }
            let mut sets = restricted.iter();
            let (first_sap, first_set) = sets.next().expect("two or more members");
            if let Some((other_sap, other_set)) = sets.find(|(_, set)| *set != first_set) {
                diagnostics.push(Diagnostic::new(
                    "SA011",
                    format!("constraint `{constraint}`"),
                    format!(
                        "role `{}` members are not interchangeable under this constraint: \
                         `{first_sap}` sees {} event(s) for {:?} but `{other_sap}` sees {}",
                        role.name(),
                        first_set.len(),
                        referenced,
                        other_set.len(),
                    ),
                ));
            }
        }
    }
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit_floorctl::{floor_control_service, floor_event_universe};

    #[test]
    fn floor_control_is_clean_under_both_reductions() {
        let service = floor_control_service();
        for reduction in [Reduction::Full, Reduction::AmpleSets] {
            let analysis = analyze_service(
                &service,
                floor_event_universe(2, 2),
                &ServicePassOptions {
                    reduction,
                    ..ServicePassOptions::default()
                },
            );
            assert!(
                analysis.diagnostics.is_empty(),
                "unexpected: {:?}",
                analysis.diagnostics
            );
        }
    }

    /// The configured search and the symmetry counterpart run on the
    /// worker thread, the reduction counterpart on the caller's; the
    /// worker's obs counters still reach the caller's recorder. Under the
    /// explicit backend every search counts its states into `lts.states`,
    /// so with the sites compiled in (`--features svckit-lts/obs`) the
    /// counter is the configured search's states plus the reduction
    /// counterpart's, plus the unquotiented counterpart's only when it
    /// ran — when the quotient's certificate does not hold. (The debug
    /// cross-check of a certified block records into a recorder of its
    /// own.)
    #[test]
    fn worker_counters_reach_the_callers_recorder() {
        let options = ServicePassOptions::default();
        let service = floor_control_service();
        let certified = ServiceExplorer::with_engine(
            &service,
            floor_event_universe(2, 2),
            options.max_outstanding,
            options.engine,
        )
        .explore_counts(&ExploreOptions {
            max_states: options.max_states,
            reduction: options.reduction,
            progress: progress_primitives(&service),
            symmetry: options.symmetry,
            ..ExploreOptions::default()
        })
        .sym_exact;
        let (analysis, recorder) = svckit_obs::with_recorder(svckit_obs::Recorder::new(), || {
            analyze_service(&service, floor_event_universe(2, 2), &options)
        });
        let mut searched = analysis.states as u64 + analysis.por.full_states;
        if !certified {
            searched += analysis.sym.full_states;
        }
        assert_eq!(
            recorder.counter("lts.states"),
            searched * u64::from(svckit_obs::sites_enabled())
        );
    }

    #[test]
    fn progress_set_is_the_consuming_side() {
        let progress = progress_primitives(&floor_control_service());
        assert_eq!(progress, vec!["granted".to_owned(), "free".to_owned()]);
    }

    #[test]
    fn diagnostics_are_engine_invariant() {
        for (target, _) in crate::fixtures::expected_codes() {
            if target.implementation.is_some() {
                continue; // verification fixtures exercise a different pass
            }
            let per_engine: Vec<_> = [Engine::Interp, Engine::Dfa]
                .into_iter()
                .map(|engine| {
                    analyze_service(
                        &target.service,
                        target.universe.clone(),
                        &ServicePassOptions {
                            engine,
                            ..ServicePassOptions::default()
                        },
                    )
                    .diagnostics
                })
                .collect();
            assert_eq!(per_engine[0], per_engine[1], "{}", target.name);
        }
    }

    #[test]
    fn product_sweep_reads_off_contradiction_and_deadlock() {
        let options = ServicePassOptions::default();

        let contradiction = crate::fixtures::contradictory_constraints();
        let check = product_check(&contradiction.service, &contradiction.universe, &options)
            .expect("After constraints compile");
        assert!(check.empty_language);
        assert_eq!(check.minimal_word, Some(vec![]));

        let drop = crate::fixtures::token_drop();
        let check = product_check(&drop.service, &drop.universe, &options)
            .expect("MutualExclusion compiles");
        assert!(!check.empty_language);
        assert!(check.dead_states > 0);
        // The minimal word is the single event `acquire@user#1` — universe
        // index 0 — matching the SA002 witness trace length.
        assert_eq!(check.minimal_word, Some(vec![0]));

        let clean = product_check(
            &floor_control_service(),
            &svckit_floorctl::floor_event_universe(2, 2),
            &options,
        )
        .expect("floor-control constraints compile");
        assert!(!check.truncated);
        assert!(!clean.empty_language);
        assert_eq!(clean.dead_states, 0);
    }
}
