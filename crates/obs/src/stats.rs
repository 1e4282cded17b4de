//! The shared state-space-reduction statistics schemas.
//!
//! Both `svckit-analyze` (in `ANALYZE_report.json`) and the explorer
//! benchmarks (in `BENCH_hotpath.stats.json`) report partial-order
//! ([`PorStats`]) and symmetry-quotient ([`SymStats`]) work through these
//! structs, so the two artifacts stay field-compatible and a single
//! reader can compare analyzer runs against benchmark runs.

use crate::json::JsonWriter;

/// Full-vs-reduced exploration statistics for one (service, universe).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PorStats {
    /// States visited without reduction.
    pub full_states: u64,
    /// Transitions taken without reduction.
    pub full_transitions: u64,
    /// States visited with ample-set reduction.
    pub reduced_states: u64,
    /// Transitions taken with ample-set reduction.
    pub reduced_transitions: u64,
    /// Ample-set size histogram from the reduced run: `ample_hist[k]` =
    /// number of state expansions whose ample (or full enabled) set had
    /// `k` events. Index 0 is unused (deadlock states are not expanded).
    pub ample_hist: Vec<u64>,
}

impl PorStats {
    /// `full_states / reduced_states` — how much smaller reduction made
    /// the search. 1.0 when either side is unknown.
    pub fn reduction_ratio(&self) -> f64 {
        if self.full_states == 0 || self.reduced_states == 0 {
            1.0
        } else {
            self.full_states as f64 / self.reduced_states as f64
        }
    }

    /// Mean ample-set size over all expansions, or zero when empty.
    pub fn mean_ample(&self) -> f64 {
        let expansions: u64 = self.ample_hist.iter().sum();
        if expansions == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .ample_hist
            .iter()
            .enumerate()
            .map(|(size, &n)| size as u64 * n)
            .sum();
        weighted as f64 / expansions as f64
    }

    /// Writes the stats as one JSON object — the shared schema:
    ///
    /// ```json
    /// {
    ///   "full_states": ..., "full_transitions": ...,
    ///   "reduced_states": ..., "reduced_transitions": ...,
    ///   "reduction_ratio": ..., "ample_mean": ...,
    ///   "ample_hist": { "1": ..., "2": ... }
    /// }
    /// ```
    pub fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("full_states").uint(self.full_states);
        w.key("full_transitions").uint(self.full_transitions);
        w.key("reduced_states").uint(self.reduced_states);
        w.key("reduced_transitions").uint(self.reduced_transitions);
        w.key("reduction_ratio").float(self.reduction_ratio(), 3);
        w.key("ample_mean").float(self.mean_ample(), 3);
        w.key("ample_hist").begin_object();
        for (size, &n) in self.ample_hist.iter().enumerate() {
            if n > 0 {
                w.key(&size.to_string()).uint(n);
            }
        }
        w.end_object();
        w.end_object();
    }
}

/// Symmetry-quotient statistics for one (service, universe): the
/// unreduced run next to the quotient run at the same reduction setting,
/// plus the quotient's orbit accounting. Shares the artifact conventions
/// of [`PorStats`] — `svckit-analyze` reports one block per target and the
/// benchmarks reuse the same schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymStats {
    /// States visited without symmetry (same reduction setting).
    pub full_states: u64,
    /// Transitions taken without symmetry.
    pub full_transitions: u64,
    /// Whether the unreduced run hit its state bound (the quotient run
    /// may still have completed — that asymmetry is the point).
    pub full_truncated: bool,
    /// Orbit representatives visited with symmetry on.
    pub quotient_states: u64,
    /// Transitions taken with symmetry on.
    pub quotient_transitions: u64,
    /// Distinct orbits stored (equals `quotient_states`).
    pub orbit_count: u64,
    /// Non-identity canonicalizations during the quotient search.
    pub canon_hits: u64,
    /// Concrete states covered by stored representatives but never
    /// stored: Σ (orbit size − 1).
    pub states_saved: u64,
}

impl SymStats {
    /// `full_states / quotient_states` — how much smaller the quotient
    /// made the search. 1.0 when either side is unknown.
    pub fn reduction_ratio(&self) -> f64 {
        if self.full_states == 0 || self.quotient_states == 0 {
            1.0
        } else {
            self.full_states as f64 / self.quotient_states as f64
        }
    }

    /// Writes the stats as one JSON object:
    ///
    /// ```json
    /// {
    ///   "full_states": ..., "full_transitions": ..., "full_truncated": ...,
    ///   "quotient_states": ..., "quotient_transitions": ...,
    ///   "orbit_count": ..., "canon_hits": ..., "states_saved": ...,
    ///   "reduction_ratio": ...
    /// }
    /// ```
    pub fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("full_states").uint(self.full_states);
        w.key("full_transitions").uint(self.full_transitions);
        w.key("full_truncated").boolean(self.full_truncated);
        w.key("quotient_states").uint(self.quotient_states);
        w.key("quotient_transitions")
            .uint(self.quotient_transitions);
        w.key("orbit_count").uint(self.orbit_count);
        w.key("canon_hits").uint(self.canon_hits);
        w.key("states_saved").uint(self.states_saved);
        w.key("reduction_ratio").float(self.reduction_ratio(), 3);
        w.end_object();
    }
}

/// Symbolic-backend statistics for one (service, universe): the reached
/// state/transition counts next to the size of the decision diagrams that
/// carried them. Shares the artifact conventions of [`PorStats`] and
/// [`SymStats`] — `svckit-analyze` reports one block per target under
/// `--backend symbolic` and the explorer benchmarks reuse the same schema
/// (the `ldd` block of `BENCH_hotpath.stats.json`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LddStats {
    /// Concrete states the symbolic search reached (never truncated).
    pub states: u64,
    /// Concrete transitions of the reached graph.
    pub transitions: u64,
    /// Nodes in the final reached-set diagram.
    pub ldd_nodes: u64,
    /// High-water unique-table size: every node interned over the search.
    pub peak_nodes: u64,
    /// Operation-cache hits (set ops, relational products, satcounts).
    pub cache_hits: u64,
}

impl LddStats {
    /// `states / ldd_nodes` — how many concrete states each diagram node
    /// carried. 1.0 when either side is unknown.
    pub fn compression_ratio(&self) -> f64 {
        if self.states == 0 || self.ldd_nodes == 0 {
            1.0
        } else {
            self.states as f64 / self.ldd_nodes as f64
        }
    }

    /// Writes the stats as one JSON object:
    ///
    /// ```json
    /// {
    ///   "states": ..., "transitions": ...,
    ///   "ldd_nodes": ..., "peak_nodes": ..., "cache_hits": ...,
    ///   "compression_ratio": ...
    /// }
    /// ```
    pub fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("states").uint(self.states);
        w.key("transitions").uint(self.transitions);
        w.key("ldd_nodes").uint(self.ldd_nodes);
        w.key("peak_nodes").uint(self.peak_nodes);
        w.key("cache_hits").uint(self.cache_hits);
        w.key("compression_ratio")
            .float(self.compression_ratio(), 3);
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ldd_ratio_and_schema() {
        let stats = LddStats {
            states: 20_000,
            transitions: 95_000,
            ldd_nodes: 400,
            peak_nodes: 5_200,
            cache_hits: 31_337,
        };
        assert!((stats.compression_ratio() - 50.0).abs() < 1e-9);
        let mut w = JsonWriter::compact();
        stats.write(&mut w);
        assert_eq!(
            w.finish(),
            "{\"states\":20000,\"transitions\":95000,\"ldd_nodes\":400,\
             \"peak_nodes\":5200,\"cache_hits\":31337,\"compression_ratio\":50.000}\n"
        );
        assert!((LddStats::default().compression_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sym_ratio_and_schema() {
        let stats = SymStats {
            full_states: 9854,
            full_transitions: 23886,
            full_truncated: false,
            quotient_states: 1330,
            quotient_transitions: 3200,
            orbit_count: 1330,
            canon_hits: 4934,
            states_saved: 6385,
        };
        assert!((stats.reduction_ratio() - 9854.0 / 1330.0).abs() < 1e-9);
        let mut w = JsonWriter::compact();
        stats.write(&mut w);
        assert_eq!(
            w.finish(),
            "{\"full_states\":9854,\"full_transitions\":23886,\"full_truncated\":false,\
             \"quotient_states\":1330,\"quotient_transitions\":3200,\"orbit_count\":1330,\
             \"canon_hits\":4934,\"states_saved\":6385,\"reduction_ratio\":7.409}\n"
        );
        assert!((SymStats::default().reduction_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_and_mean() {
        let stats = PorStats {
            full_states: 100,
            full_transitions: 400,
            reduced_states: 20,
            reduced_transitions: 40,
            ample_hist: vec![0, 6, 2], // 6 singleton ample sets, 2 pairs
        };
        assert!((stats.reduction_ratio() - 5.0).abs() < 1e-9);
        assert!((stats.mean_ample() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_neutral() {
        let stats = PorStats::default();
        assert!((stats.reduction_ratio() - 1.0).abs() < 1e-9);
        assert!((stats.mean_ample()).abs() < 1e-9);
    }

    #[test]
    fn json_schema_has_all_fields() {
        let stats = PorStats {
            full_states: 10,
            full_transitions: 12,
            reduced_states: 5,
            reduced_transitions: 6,
            ample_hist: vec![0, 3],
        };
        let mut w = JsonWriter::compact();
        stats.write(&mut w);
        let text = w.finish();
        assert_eq!(
            text,
            "{\"full_states\":10,\"full_transitions\":12,\"reduced_states\":5,\
             \"reduced_transitions\":6,\"reduction_ratio\":2.000,\"ample_mean\":1.000,\
             \"ample_hist\":{\"1\":3}}\n"
        );
    }
}
