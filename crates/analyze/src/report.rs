//! The analysis driver and its text/JSON reports.

use std::collections::BTreeMap;

use svckit_lts::explorer::Reduction;
use svckit_lts::Backend;
use svckit_sweep::{JsonWriter, LddStats, PorStats, SymStats};

use crate::diag::{Diagnostic, Severity};
use crate::protocol_pass::analyze_protocol;
use crate::service_pass::{analyze_service, ServiceAnalysis, ServicePassOptions};
use crate::targets::Target;
use crate::verify::verify_implementation;

/// One target's findings plus exploration statistics.
#[derive(Debug, Clone)]
pub struct TargetReport {
    /// Target name.
    pub target: String,
    /// Target kind (`solution`, `platform`, `fixture`).
    pub kind: &'static str,
    /// Product states visited by the exhaustive passes.
    pub states: usize,
    /// Transitions taken by the exhaustive passes.
    pub transitions: usize,
    /// All findings, service passes first, then protocol passes.
    pub diagnostics: Vec<Diagnostic>,
    /// Context lines (trajectory milestones, solution classification).
    pub notes: Vec<String>,
    /// Full-vs-reduced exploration statistics (shared schema with the
    /// explorer benchmarks' `BENCH_hotpath.stats.json` sidecar).
    pub por: PorStats,
    /// Unquotiented-vs-symmetry-quotient exploration statistics (shared
    /// schema with the explorer benchmarks' `BENCH_hotpath.stats.json`
    /// sidecar). Identical whichever `--symmetry` setting ran.
    pub sym: SymStats,
    /// Symbolic-backend statistics (shared schema with the explorer
    /// benchmarks' `BENCH_hotpath.stats.json` sidecar). All zeros — and
    /// omitted from the JSON report — under `--backend explicit`.
    pub ldd: LddStats,
}

/// The whole run: every target, one pass configuration.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The reduction the exhaustive passes ran with.
    pub reduction: Reduction,
    /// The reachability backend the passes reported for.
    pub backend: Backend,
    /// Per-target results, in target order.
    pub targets: Vec<TargetReport>,
}

impl AnalysisReport {
    /// Analyzes every target.
    ///
    /// Targets providing the same service over the same universe (the six
    /// floor-control solutions, notably) share one exploration: the
    /// exhaustive passes depend only on `(service, universe, options)`,
    /// which the cache key captures.
    pub fn run(targets: &[Target], options: &ServicePassOptions) -> AnalysisReport {
        let mut cache: BTreeMap<(String, usize), ServiceAnalysis> = BTreeMap::new();
        let mut reports = Vec::new();
        for target in targets {
            let key = (target.service.name().to_owned(), target.universe.len());
            let analysis = cache
                .entry(key)
                .or_insert_with(|| {
                    analyze_service(&target.service, target.universe.clone(), options)
                })
                .clone();
            let mut diagnostics = analysis.diagnostics;
            if let Some(decl) = &target.protocol {
                diagnostics.extend(analyze_protocol(&target.service, decl));
            }
            if let Some(implementation) = &target.implementation {
                diagnostics.extend(verify_implementation(
                    &target.service,
                    &target.universe,
                    implementation,
                    options,
                ));
            }
            reports.push(TargetReport {
                target: target.name.clone(),
                kind: target.kind,
                states: analysis.states,
                transitions: analysis.transitions,
                diagnostics,
                notes: target.notes.clone(),
                por: analysis.por,
                sym: analysis.sym,
                ldd: analysis.ldd,
            });
        }
        AnalysisReport {
            reduction: options.reduction,
            backend: options.backend,
            targets: reports,
        }
    }

    /// Number of error-severity findings across all targets.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings across all targets.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, severity: Severity) -> usize {
        self.targets
            .iter()
            .flat_map(|t| &t.diagnostics)
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Renders the clippy-style text report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for target in &self.targets {
            out.push_str(&format!(
                "analyzing {} `{}`: {} state(s), {} transition(s)\n",
                target.kind, target.target, target.states, target.transitions
            ));
            for diagnostic in &target.diagnostics {
                out.push_str(&format!("{diagnostic}\n"));
            }
        }
        out.push_str(&format!(
            "analysis: {} error(s), {} warning(s) across {} target(s) [{}]\n",
            self.errors(),
            self.warnings(),
            self.targets.len(),
            reduction_label(self.reduction),
        ));
        out
    }

    /// The full JSON report: per-target statistics (reduction-dependent)
    /// plus every diagnostic.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("name").string("svckit-analyze");
        w.key("reduction").string(reduction_label(self.reduction));
        w.key("backend").string(&self.backend.to_string());
        w.key("errors").uint(self.errors() as u64);
        w.key("warnings").uint(self.warnings() as u64);
        w.key("targets").begin_array();
        for target in &self.targets {
            w.begin_object();
            w.key("target").string(&target.target);
            w.key("kind").string(target.kind);
            w.key("states").uint(target.states as u64);
            w.key("transitions").uint(target.transitions as u64);
            w.key("por");
            target.por.write(&mut w);
            w.key("sym");
            target.sym.write(&mut w);
            if self.backend == Backend::Symbolic {
                w.key("ldd");
                target.ldd.write(&mut w);
            }
            write_diagnostics(&mut w, &target.diagnostics);
            w.key("notes").begin_array();
            for note in &target.notes {
                w.string(note);
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// The diagnostics-only JSON report. Deliberately excludes state and
    /// transition counts and the reduction label, so runs with and without
    /// partial-order reduction must produce byte-identical output — CI
    /// compares the two files with `cmp`.
    pub fn to_diag_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("name").string("svckit-analyze-diagnostics");
        w.key("errors").uint(self.errors() as u64);
        w.key("warnings").uint(self.warnings() as u64);
        w.key("targets").begin_array();
        for target in &self.targets {
            w.begin_object();
            w.key("target").string(&target.target);
            write_diagnostics(&mut w, &target.diagnostics);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Stable label for a reduction strategy.
pub fn reduction_label(reduction: Reduction) -> &'static str {
    match reduction {
        Reduction::Full => "full",
        Reduction::AmpleSets => "ample-sets",
    }
}

fn write_diagnostics(w: &mut JsonWriter, diagnostics: &[Diagnostic]) {
    w.key("diagnostics").begin_array();
    for diagnostic in diagnostics {
        w.begin_object();
        w.key("code").string(diagnostic.code);
        w.key("severity").string(&diagnostic.severity.to_string());
        w.key("location").string(&diagnostic.location);
        w.key("message").string(&diagnostic.message);
        w.key("trace").begin_array();
        for event in &diagnostic.trace {
            w.string(event);
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn fixture_reports_count_their_severities() {
        let (target, _) = &fixtures::expected_codes()[0];
        let report =
            AnalysisReport::run(std::slice::from_ref(target), &ServicePassOptions::default());
        assert_eq!(report.errors(), 1);
        assert_eq!(report.warnings(), 0);
        let text = report.render_text();
        assert!(text.contains("error[SA001]"));
        assert!(text.contains("1 error(s)"));
    }

    #[test]
    fn diag_json_has_no_state_counts() {
        let (target, _) = &fixtures::expected_codes()[0];
        let report =
            AnalysisReport::run(std::slice::from_ref(target), &ServicePassOptions::default());
        let diag = report.to_diag_json();
        assert!(diag.contains("\"code\": \"SA001\"") || diag.contains("\"code\":\"SA001\""));
        assert!(!diag.contains("states"));
        assert!(!diag.contains("reduction"));
        let full = report.to_json();
        assert!(full.contains("states"));
        assert!(full.contains("ample-sets"));
    }

    #[test]
    fn por_stats_ride_in_the_full_report_only() {
        let (target, _) = &fixtures::expected_codes()[0];
        let report =
            AnalysisReport::run(std::slice::from_ref(target), &ServicePassOptions::default());
        let full = report.to_json();
        assert!(full.contains("\"por\""));
        assert!(full.contains("\"reduction_ratio\""));
        assert!(full.contains("\"ample_hist\""));
        let diag = report.to_diag_json();
        assert!(!diag.contains("por"));
        assert!(!diag.contains("reduction_ratio"));
        // Both sides of the A/B actually ran.
        let stats = &report.targets[0].por;
        assert!(stats.full_states > 0);
        assert!(stats.reduced_states > 0);
    }

    #[test]
    fn sym_stats_ride_in_the_full_report_only() {
        let (target, _) = &fixtures::expected_codes()[0];
        let report =
            AnalysisReport::run(std::slice::from_ref(target), &ServicePassOptions::default());
        let full = report.to_json();
        assert!(full.contains("\"sym\""));
        assert!(full.contains("\"quotient_states\""));
        assert!(full.contains("\"canon_hits\""));
        let diag = report.to_diag_json();
        assert!(!diag.contains("sym"));
        assert!(!diag.contains("quotient"));
        // Both sides of the on/off A/B actually ran.
        let stats = &report.targets[0].sym;
        assert!(stats.full_states > 0);
        assert!(stats.quotient_states > 0);
    }
}
