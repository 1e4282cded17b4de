//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names a grid of experiment *cells*: targets (solutions
//! or MDA platforms) × workload variations × optional fault campaigns ×
//! seeds. The grid is expanded by [`SweepSpec::cells`] in a fixed,
//! documented order, and the executor merges results back in that order —
//! which is what makes parallel output byte-identical to serial.

use std::fmt;

use svckit::floorctl::{FaultEvent, RunParams, Solution};
use svckit::protocol::ReliabilityConfig;

/// What one cell runs: a floor-control solution directly, or an MDA
/// trajectory target (PIM → PSM on the named catalog platform → deploy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellTarget {
    /// One of the seven executable solutions.
    Solution(Solution),
    /// A concrete platform from `svckit::mda::catalog::all_platforms()`,
    /// by name (e.g. `"corba-like"`); the cell transforms the floor-control
    /// PIM onto it and runs the resulting PSM.
    Platform(String),
}

impl fmt::Display for CellTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellTarget::Solution(s) => write!(f, "{s}"),
            CellTarget::Platform(p) => write!(f, "psm:{p}"),
        }
    }
}

/// One workload/environment variation: a label (used in tables and group
/// keys), the run parameters, and an optional reliability sub-layer.
#[derive(Debug, Clone)]
pub struct Variation {
    /// Label used in group keys, tables and JSON.
    pub label: String,
    /// Workload and link parameters for every cell of this variation.
    pub params: RunParams,
    /// Optional stop-and-wait reliability sub-layer (honoured by the
    /// protocol callback solution; ignored elsewhere).
    pub reliability: Option<ReliabilityConfig>,
}

/// A named partition/heal schedule applied to every cell it is crossed
/// with.
#[derive(Debug, Clone)]
pub struct FaultCampaign {
    /// Label used in group keys, tables and JSON.
    pub label: String,
    /// The schedule, applied in `at` order during the run.
    pub events: Vec<FaultEvent>,
}

/// A declarative description of a full experiment sweep.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name; becomes the `"sweep"` field of `SWEEP_<name>.json`.
    pub name: String,
    /// The targets to run (inner loop of the grid, after seeds).
    pub targets: Vec<CellTarget>,
    /// Workload variations (outermost loop of the grid).
    pub variations: Vec<Variation>,
    /// Fault campaigns; when empty, every cell runs fault-free with the
    /// campaign label `"none"`.
    pub campaigns: Vec<FaultCampaign>,
    /// Seeds; when empty, each variation runs once with the seed already
    /// set in its `params`.
    pub seeds: Vec<u64>,
    /// Optional group filter: when set, [`SweepSpec::cells`] keeps only
    /// cells whose group label (`target/variation/campaign`) contains this
    /// substring. Lets `--filter` re-run a single group of a large sweep.
    pub filter: Option<String>,
    /// Optional simulator shard count override applied to every cell
    /// (`--shards`). `None` keeps each variation's own setting.
    pub shards: Option<u32>,
}

/// One expanded grid point, by index into the owning [`SweepSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Position in the expanded grid (also the merge position).
    pub index: usize,
    /// Index into [`SweepSpec::targets`].
    pub target: usize,
    /// Index into [`SweepSpec::variations`].
    pub variation: usize,
    /// Index into [`SweepSpec::campaigns`], or `None` when the spec has no
    /// campaigns.
    pub campaign: Option<usize>,
    /// The seed this cell runs with.
    pub seed: u64,
}

impl SweepSpec {
    /// An empty spec with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SweepSpec {
            name: name.into(),
            targets: Vec::new(),
            variations: Vec::new(),
            campaigns: Vec::new(),
            seeds: Vec::new(),
            filter: None,
            shards: None,
        }
    }

    /// Adds solution targets (builder-style).
    #[must_use]
    pub fn solutions(mut self, solutions: impl IntoIterator<Item = Solution>) -> Self {
        self.targets
            .extend(solutions.into_iter().map(CellTarget::Solution));
        self
    }

    /// Adds an MDA platform target by catalog name (builder-style).
    #[must_use]
    pub fn platform(mut self, name: impl Into<String>) -> Self {
        self.targets.push(CellTarget::Platform(name.into()));
        self
    }

    /// Adds a workload variation (builder-style).
    #[must_use]
    pub fn variation(mut self, label: impl Into<String>, params: RunParams) -> Self {
        self.variations.push(Variation {
            label: label.into(),
            params,
            reliability: None,
        });
        self
    }

    /// Adds a workload variation with a reliability sub-layer
    /// (builder-style).
    #[must_use]
    pub fn variation_with_reliability(
        mut self,
        label: impl Into<String>,
        params: RunParams,
        reliability: ReliabilityConfig,
    ) -> Self {
        self.variations.push(Variation {
            label: label.into(),
            params,
            reliability: Some(reliability),
        });
        self
    }

    /// Adds a fault campaign (builder-style).
    #[must_use]
    pub fn campaign(
        mut self,
        label: impl Into<String>,
        events: impl IntoIterator<Item = FaultEvent>,
    ) -> Self {
        self.campaigns.push(FaultCampaign {
            label: label.into(),
            events: events.into_iter().collect(),
        });
        self
    }

    /// Adds seeds (builder-style); every (variation, campaign, target)
    /// group runs once per seed.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Restricts the expanded grid to cells whose group label
    /// ([`SweepSpec::group_label`]) contains `needle` (builder-style).
    ///
    /// Filtering happens during [`SweepSpec::cells`] expansion, before any
    /// cell runs, so re-running a single group of an expensive sweep costs
    /// only that group. The surviving cells keep the canonical order and
    /// are re-indexed, so parallel execution stays byte-identical to
    /// serial.
    #[must_use]
    pub fn filter(mut self, needle: impl Into<String>) -> Self {
        self.filter = Some(needle.into());
        self
    }

    /// Forces every cell onto the given simulator shard count
    /// (builder-style). See [`SweepSpec::shards`].
    #[must_use]
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// The label of a campaign index (the implicit no-fault campaign is
    /// `"none"`).
    pub fn campaign_label(&self, campaign: Option<usize>) -> &str {
        match campaign {
            Some(i) => &self.campaigns[i].label,
            None => "none",
        }
    }

    /// The `target/variation/campaign` group label of a cell — the key
    /// [`SweepSpec::filter`] matches against and the identity under which
    /// the aggregator groups results.
    pub fn group_label(&self, cell: &Cell) -> String {
        format!(
            "{}/{}/{}",
            self.targets[cell.target],
            self.variations[cell.variation].label,
            self.campaign_label(cell.campaign)
        )
    }

    /// Expands the grid in the canonical cell order:
    /// variations → campaigns → targets → seeds. Seeds are innermost so a
    /// (variation, campaign, target) group occupies a contiguous run of
    /// cells; variations are outermost so text tables read like the
    /// experiment binaries' existing sections.
    pub fn cells(&self) -> Vec<Cell> {
        let campaign_indices: Vec<Option<usize>> = if self.campaigns.is_empty() {
            vec![None]
        } else {
            (0..self.campaigns.len()).map(Some).collect()
        };
        let mut cells = Vec::new();
        for (variation, v) in self.variations.iter().enumerate() {
            let seeds: Vec<u64> = if self.seeds.is_empty() {
                vec![v.params.seed_value()]
            } else {
                self.seeds.clone()
            };
            for &campaign in &campaign_indices {
                for target in 0..self.targets.len() {
                    for &seed in &seeds {
                        cells.push(Cell {
                            index: cells.len(),
                            target,
                            variation,
                            campaign,
                            seed,
                        });
                    }
                }
            }
        }
        if let Some(needle) = &self.filter {
            cells.retain(|c| self.group_label(c).contains(needle.as_str()));
            for (i, cell) in cells.iter_mut().enumerate() {
                cell.index = i;
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit::model::Duration;

    #[test]
    fn grid_order_is_variation_campaign_target_seed() {
        let spec = SweepSpec::new("t")
            .solutions([Solution::MwCallback, Solution::ProtoCallback])
            .variation("a", RunParams::default())
            .variation("b", RunParams::default())
            .seeds([1, 2, 3]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 2 * 2 * 3);
        assert_eq!(cells[0].variation, 0);
        assert_eq!(cells[0].target, 0);
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[2].seed, 3);
        assert_eq!(cells[3].target, 1);
        assert_eq!(cells[6].variation, 1);
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
        assert!(cells.iter().all(|c| c.campaign.is_none()));
    }

    #[test]
    fn empty_seeds_fall_back_to_variation_seed() {
        let spec = SweepSpec::new("t")
            .solutions([Solution::MwCallback])
            .variation("a", RunParams::default().seed(99));
        let cells = spec.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].seed, 99);
    }

    #[test]
    fn campaigns_multiply_the_grid() {
        let spec = SweepSpec::new("t")
            .solutions([Solution::MwCallback])
            .variation("a", RunParams::default())
            .campaign("none-early", [])
            .campaign(
                "cut",
                [FaultEvent::partition(
                    Duration::from_millis(1),
                    svckit::model::PartId::new(1),
                    svckit::model::PartId::new(1000),
                )],
            )
            .seeds([5]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].campaign, Some(0));
        assert_eq!(cells[1].campaign, Some(1));
        assert_eq!(spec.campaign_label(Some(1)), "cut");
        assert_eq!(spec.campaign_label(None), "none");
    }

    #[test]
    fn filter_keeps_one_group_and_reindexes() {
        let spec = SweepSpec::new("t")
            .solutions([Solution::MwCallback, Solution::ProtoCallback])
            .variation("a", RunParams::default())
            .variation("b", RunParams::default())
            .seeds([1, 2])
            .filter("proto-callback/b");
        let cells = spec.cells();
        assert_eq!(cells.len(), 2, "one target x one variation x two seeds");
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i, "filtered cells are re-indexed");
            assert_eq!(spec.group_label(cell), "proto-callback/b/none");
        }
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[1].seed, 2);

        let none = SweepSpec::new("t")
            .solutions([Solution::MwCallback])
            .variation("a", RunParams::default())
            .filter("no-such-group");
        assert!(none.cells().is_empty());
    }

    #[test]
    fn target_display_labels() {
        assert_eq!(
            CellTarget::Solution(Solution::MwToken).to_string(),
            "mw-token"
        );
        assert_eq!(
            CellTarget::Platform("corba-like".into()).to_string(),
            "psm:corba-like"
        );
    }
}
