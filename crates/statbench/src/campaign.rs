//! Randomized fault campaigns: a verdict-stability surface over seeds × scales
//! × topologies.
//!
//! The scenario catalogue answers "does the tool diagnose *this* fault at *this*
//! scale?"  A campaign asks the sharper question the paper's 208K experience
//! raises: is the verdict **stable** — does the same class of fault stay
//! diagnosable as the job grows, as the overlay deepens, as daemons die, and as
//! the fault parameters themselves are randomized instead of hand-picked?
//!
//! [`run_campaign`] sweeps the deterministic catalogue plus seed-derived
//! randomized scenarios (see [`appsim::randomized_scenarios`]) across every
//! requested scale × overlay depth × degraded-overlay combination, pushing each
//! cell through [`Session::run_scenario`] over the placement-rule overlay of that
//! depth.  The result is a [`StabilitySurface`]: one [`CampaignCell`] per run,
//! with the aggregate pass rate, the **first-flip frontier** (for each
//! scenario/topology group, the smallest scale at which the verdict first fails)
//! and a check-level failure histogram.  Mid-tree corruption cells are judged inverted: the cell
//! passes when the corruption is *detected* (a failed verdict or a typed decode
//! error), and fails when the poisoned diagnosis sails through clean.
//!
//! The campaign is deterministic: the same [`CampaignConfig`] (including the
//! seed list) produces an identical surface, cell for cell — a property the
//! test suite pins with the vendored proptest harness.

use std::collections::BTreeMap;

use appsim::scenario::{catalogue, randomized_scenarios, FaultScenario, OverlayFault};
use appsim::FrameVocabulary;
use machine::cluster::Cluster;
use machine::placement::PlacementPlan;
use stat_core::prelude::{Representation, ScenarioRun, Session, StatError, WaveReport};
use tbon::topology::TreeShape;

/// The grid a campaign sweeps.  Every axis is explicit so a surface can be
/// reproduced cell-by-cell from the config alone.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Machine whose placement rules shape every emulated overlay.
    pub cluster: Cluster,
    /// Frame vocabulary the scenario workloads emit.
    pub vocab: FrameVocabulary,
    /// Seeds for the randomized scenario generator (one batch per seed per
    /// scale).  An empty list runs the deterministic catalogue only.
    pub seeds: Vec<u64>,
    /// Job sizes (MPI task counts) to sweep.
    pub scales: Vec<u64>,
    /// Overlay tree depths (edges, front end to daemons) to sweep.
    pub depths: Vec<u32>,
    /// Samples gathered per task in every cell.
    pub samples_per_task: u32,
    /// Randomized scenarios generated per seed (at each scale).
    pub randomized_per_seed: usize,
    /// Also run a `_degraded` variant (last back-end daemon killed via
    /// [`OverlayFault::BackendFromEnd`]) of every scenario that does not
    /// already carry overlay faults.
    pub include_degraded: bool,
    /// Include the deterministic catalogue (seed axis collapsed: each
    /// catalogue scenario runs once per scale × depth, not once per seed).
    pub include_catalogue: bool,
    /// Restrict the catalogue to these scenario names (`None` = the whole
    /// catalogue).  Lets the largest scales of a campaign stay within a
    /// runtime budget without dropping the scale axis entirely.
    pub catalogue_filter: Option<Vec<String>>,
    /// Task-set representation every cell uses.
    pub representation: Representation,
    /// Waves a streamed variant of every non-corrupting cell is observed for
    /// *after* its fault appears, to measure verdict latency (see
    /// [`CampaignCell::verdict_latency`]).  `0` disables the streamed runs and
    /// leaves the latency column empty.
    pub latency_waves: u32,
    /// Wave at which a streamed cell's fault first appears (pre-fault waves
    /// observe the healthy baseline).
    pub latency_fault_wave: u32,
}

impl CampaignConfig {
    /// A small, fast campaign on the given cluster: catalogue plus two
    /// randomized scenarios for each of two seeds, at one scale, two depths.
    ///
    /// ```
    /// use machine::cluster::Cluster;
    /// use statbench::campaign::{run_campaign, CampaignConfig};
    ///
    /// let config = CampaignConfig::quick(Cluster::test_cluster(16, 8), 128);
    /// let surface = run_campaign(&config);
    /// assert!(!surface.cells.is_empty());
    /// // Deterministic: the same config reproduces the same surface.
    /// assert_eq!(surface, run_campaign(&config));
    /// ```
    pub fn quick(cluster: Cluster, tasks: u64) -> Self {
        CampaignConfig {
            cluster,
            vocab: FrameVocabulary::Linux,
            seeds: vec![1, 2],
            scales: vec![tasks],
            depths: vec![2, 3],
            samples_per_task: 3,
            randomized_per_seed: 2,
            include_degraded: true,
            include_catalogue: true,
            catalogue_filter: None,
            representation: Representation::HierarchicalTaskList,
            latency_waves: 3,
            latency_fault_wave: 2,
        }
    }
}

/// One point of the stability surface: a single scenario run under a single
/// (seed, scale, depth, overlay) combination, with its judgement.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignCell {
    /// Scenario name (seed-derived names already encode the seed and draw).
    pub scenario: String,
    /// Seed that generated the scenario; `None` for deterministic catalogue
    /// entries.
    pub seed: Option<u64>,
    /// Job size (MPI tasks) of this cell.
    pub tasks: u64,
    /// Overlay tree depth the cell ran under.
    pub depth: u32,
    /// Samples gathered per task.
    pub samples: u32,
    /// Whether the cell ran with overlay faults (daemon loss) injected.
    pub degraded: bool,
    /// Whether the cell injected mid-tree filter corruption (judged inverted:
    /// the cell passes when the corruption is detected).
    pub corrupting: bool,
    /// The cell's judgement — for corrupting cells, "the corruption was
    /// detected"; otherwise "the verdict passed".
    pub passed: bool,
    /// Names of the ground-truth checks that failed (empty when `passed`, or
    /// when the failure was a pipeline error instead).
    pub failed_checks: Vec<String>,
    /// Pipeline error, if the run did not complete.  For corrupting cells a
    /// decode/merge error *is* the expected detection and the cell passes.
    pub error: Option<String>,
    /// Verdict latency of the cell's *streamed* variant: how many waves after
    /// the fault first appeared the per-wave verdict first passed **and stayed
    /// passing** through the end of the observation window (`0` = diagnosed in
    /// the very wave the fault appeared).  `None` when latency measurement is
    /// off ([`CampaignConfig::latency_waves`] = 0), for corrupting cells (their
    /// inverted judgement has no latency), or when the verdict never
    /// stabilised inside the window.
    pub verdict_latency: Option<u32>,
}

/// One entry of the first-flip frontier: the smallest scale at which a
/// scenario/topology group's verdict first failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlipFrontier {
    /// Scenario name.
    pub scenario: String,
    /// Overlay depth of the group.
    pub depth: u32,
    /// Whether the group ran degraded.
    pub degraded: bool,
    /// Smallest task count at which the group's verdict failed.
    pub first_failing_tasks: u64,
    /// Largest task count at which the group's verdict still passed
    /// (`None` when the scenario failed at every swept scale).
    pub last_passing_tasks: Option<u64>,
}

/// The accumulated result of a campaign: every cell, with aggregate views.
///
/// ```
/// use machine::cluster::Cluster;
/// use statbench::campaign::{run_campaign, CampaignConfig};
///
/// let mut config = CampaignConfig::quick(Cluster::test_cluster(16, 8), 128);
/// config.seeds = vec![7];
/// config.randomized_per_seed = 1;
/// let surface = run_campaign(&config);
/// assert!(surface.pass_rate() > 0.0);
/// assert!(surface.to_csv().starts_with("scenario,seed,tasks,depth"));
/// assert!(surface.to_markdown().contains("first-flip frontier"));
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct StabilitySurface {
    /// Every cell the campaign ran, in sweep order (scales outermost, then
    /// scenarios, then depths).
    pub cells: Vec<CampaignCell>,
}

impl StabilitySurface {
    /// Fraction of cells that passed, in `[0, 1]`; `1.0` for an empty surface.
    pub fn pass_rate(&self) -> f64 {
        if self.cells.is_empty() {
            return 1.0;
        }
        self.cells.iter().filter(|c| c.passed).count() as f64 / self.cells.len() as f64
    }

    /// Cells restricted to deterministic catalogue entries (no seed axis).
    pub fn catalogue_cells(&self) -> Vec<&CampaignCell> {
        self.cells.iter().filter(|c| c.seed.is_none()).collect()
    }

    /// The first-flip frontier: for every (scenario, depth, degraded) group
    /// that failed anywhere, the smallest failing scale and the largest scale
    /// that still passed.  An empty frontier means the verdict was stable
    /// across the whole surface.
    pub fn first_flip_frontier(&self) -> Vec<FlipFrontier> {
        let mut groups: BTreeMap<(String, u32, bool), Vec<&CampaignCell>> = BTreeMap::new();
        for cell in &self.cells {
            groups
                .entry((cell.scenario.clone(), cell.depth, cell.degraded))
                .or_default()
                .push(cell);
        }
        let mut frontier = Vec::new();
        for ((scenario, depth, degraded), cells) in groups {
            let first_failing = cells.iter().filter(|c| !c.passed).map(|c| c.tasks).min();
            let Some(first_failing_tasks) = first_failing else {
                continue;
            };
            let last_passing_tasks = cells.iter().filter(|c| c.passed).map(|c| c.tasks).max();
            frontier.push(FlipFrontier {
                scenario,
                depth,
                degraded,
                first_failing_tasks,
                last_passing_tasks,
            });
        }
        frontier
    }

    /// How often each ground-truth check failed across the surface.  Cells
    /// that failed with a pipeline error are counted under `pipeline-error`;
    /// corrupting cells whose poison went unnoticed under
    /// `undetected-corruption`.
    pub fn check_failure_histogram(&self) -> BTreeMap<String, usize> {
        let mut histogram = BTreeMap::new();
        for cell in self.cells.iter().filter(|c| !c.passed) {
            if cell.failed_checks.is_empty() {
                let key = if cell.error.is_some() {
                    "pipeline-error"
                } else {
                    "undetected-corruption"
                };
                *histogram.entry(key.to_string()).or_insert(0) += 1;
            }
            for check in &cell.failed_checks {
                *histogram.entry(check.clone()).or_insert(0) += 1;
            }
        }
        histogram
    }

    /// Verdict-latency distribution per scale over the measured cells:
    /// `tasks -> (latency in waves -> cell count)`.  Cells whose latency is
    /// `None` (unmeasured or never stabilised) are not counted.
    pub fn verdict_latency_by_scale(&self) -> BTreeMap<u64, BTreeMap<u32, usize>> {
        let mut by_scale: BTreeMap<u64, BTreeMap<u32, usize>> = BTreeMap::new();
        for cell in &self.cells {
            if let Some(latency) = cell.verdict_latency {
                *by_scale
                    .entry(cell.tasks)
                    .or_default()
                    .entry(latency)
                    .or_insert(0) += 1;
            }
        }
        by_scale
    }

    /// The surface as CSV, one row per cell.  The `verdict_latency` column is
    /// in waves-after-fault (empty = unmeasured or never stabilised; see
    /// [`CampaignCell::verdict_latency`]).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,seed,tasks,depth,samples,degraded,corrupting,passed,verdict_latency,\
             failed_checks,error\n",
        );
        for c in &self.cells {
            let seed = c.seed.map(|s| s.to_string()).unwrap_or_default();
            let latency = c.verdict_latency.map(|w| w.to_string()).unwrap_or_default();
            let error = c
                .error
                .as_deref()
                .unwrap_or("")
                .replace(',', ";")
                .replace('\n', " ");
            out_line!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{}",
                c.scenario,
                seed,
                c.tasks,
                c.depth,
                c.samples,
                c.degraded,
                c.corrupting,
                c.passed,
                latency,
                c.failed_checks.join(";"),
                error
            );
        }
        out
    }

    /// The surface as a markdown report: aggregate pass rate, the first-flip
    /// frontier (explicitly reported as empty when there were no flips), and
    /// the check-level failure histogram.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out_line!(out, "## Verdict-stability surface\n");
        out_line!(
            out,
            "{} cells, pass rate {:.1}% ({} failed)\n",
            self.cells.len(),
            self.pass_rate() * 100.0,
            self.cells.iter().filter(|c| !c.passed).count()
        );
        let frontier = self.first_flip_frontier();
        out_line!(out, "### first-flip frontier\n");
        if frontier.is_empty() {
            out_line!(
                out,
                "No flips: every scenario's verdict was stable across all swept \
                 scales, depths and overlays.\n"
            );
        } else {
            out_line!(
                out,
                "| scenario | depth | degraded | first failing tasks | last passing tasks |"
            );
            out_line!(out, "|---|---|---|---|---|");
            for f in &frontier {
                out_line!(
                    out,
                    "| {} | {} | {} | {} | {} |",
                    f.scenario,
                    f.depth,
                    f.degraded,
                    f.first_failing_tasks,
                    f.last_passing_tasks
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "never passed".into()),
                );
            }
            out_line!(out);
        }
        let latency = self.verdict_latency_by_scale();
        out_line!(out, "### verdict latency\n");
        if latency.is_empty() {
            out_line!(out, "No streamed cells were measured.\n");
        } else {
            out_line!(
                out,
                "Waves between the fault first appearing mid-stream and a stable \
                 correct verdict (0 = diagnosed in the same wave), per scale:\n"
            );
            out_line!(out, "| tasks | latency (waves) → cells | measured |");
            out_line!(out, "|---|---|---|");
            for (tasks, histogram) in &latency {
                let measured: usize = histogram.values().sum();
                let spread = histogram
                    .iter()
                    .map(|(waves, count)| format!("{waves} → {count}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                out_line!(out, "| {tasks} | {spread} | {measured} |");
            }
            out_line!(out);
        }
        let histogram = self.check_failure_histogram();
        out_line!(out, "### check-level failure histogram\n");
        if histogram.is_empty() {
            out_line!(out, "No check failures.\n");
        } else {
            out_line!(out, "| check | failures |");
            out_line!(out, "|---|---|");
            for (check, count) in &histogram {
                out_line!(out, "| {check} | {count} |");
            }
            out_line!(out);
        }
        out
    }
}

/// The wave at which a streamed run's verdict became *stable*: the smallest
/// wave index `w >= fault_wave` whose verdict passed and whose every later
/// observed wave also passed.  `None` when the verdict never stabilised (or no
/// post-fault waves were observed).
pub fn stable_wave(reports: &[WaveReport], fault_wave: u32) -> Option<u32> {
    let mut stable = None;
    for report in reports.iter().filter(|r| r.wave >= fault_wave) {
        if report.verdict.passed() {
            if stable.is_none() {
                stable = Some(report.wave);
            }
        } else {
            stable = None;
        }
    }
    stable
}

/// Measure one cell's verdict latency by re-running it as a continuous stream
/// (fault first appearing at [`CampaignConfig::latency_fault_wave`], observed
/// for [`CampaignConfig::latency_waves`] further waves).  Corrupting cells and
/// streams that error out (e.g. a prune that kills the session) are unmeasured.
fn measure_latency(
    config: &CampaignConfig,
    session: &Session,
    scenario: &FaultScenario,
) -> Option<u32> {
    if config.latency_waves == 0 || scenario.is_corrupting() {
        return None;
    }
    let reports = session
        .stream_scenario(
            scenario,
            config.vocab,
            config.latency_fault_wave,
            config.latency_waves,
        )
        .ok()?;
    stable_wave(&reports, config.latency_fault_wave).map(|w| w - config.latency_fault_wave)
}

/// Judge one scenario run as a campaign cell.
///
/// Healthy and degraded cells pass when the ground-truth verdict passes.
/// Corrupting (mid-tree) cells are judged *inverted*: the injected corruption
/// must be **detected** — either the verdict fails (the parent's merge dropped
/// the poisoned subtree, so coverage/class checks trip) or the pipeline
/// surfaces a typed decode/merge error.  A corrupting cell whose diagnosis
/// comes back clean is a miss.
fn judge(
    scenario: &FaultScenario,
    result: Result<ScenarioRun, StatError>,
) -> (bool, Vec<String>, Option<String>) {
    let corrupting = scenario.is_corrupting();
    match result {
        Ok(run) => {
            let verdict_passed = run.verdict.passed();
            if corrupting {
                if verdict_passed {
                    // Poison sailed through clean: undetected.
                    (false, Vec::new(), None)
                } else {
                    (true, Vec::new(), None)
                }
            } else {
                let failed: Vec<String> = run
                    .verdict
                    .failures()
                    .iter()
                    .map(|c| c.name.to_string())
                    .collect();
                (verdict_passed, failed, None)
            }
        }
        Err(err) => {
            let detected = corrupting
                && matches!(
                    err,
                    StatError::Decode { .. }
                        | StatError::RankMapMismatch { .. }
                        | StatError::Reduce(_)
                );
            (detected, Vec::new(), Some(err.to_string()))
        }
    }
}

/// The session one cell runs under: the placement-rule overlay of `depth` for a
/// job of `tasks`, with the campaign's representation and sampling depth.
fn cell_session(config: &CampaignConfig, tasks: u64, depth: u32) -> Session {
    let plan = PlacementPlan::for_job(&config.cluster, tasks);
    Session::builder(config.cluster.clone())
        .representation(config.representation)
        .topology(TreeShape::for_placement(&plan, depth))
        .samples_per_task(config.samples_per_task)
        .build()
}

/// Run one scenario in one cell of the grid and record the judged result.
fn run_cell(
    config: &CampaignConfig,
    scenario: &FaultScenario,
    seed: Option<u64>,
    tasks: u64,
    depth: u32,
) -> CampaignCell {
    let session = cell_session(config, tasks, depth);
    let (passed, failed_checks, error) = judge(scenario, session.run_scenario(scenario));
    let verdict_latency = measure_latency(config, &session, scenario);
    CampaignCell {
        scenario: scenario.name.clone(),
        seed,
        tasks,
        depth,
        samples: config.samples_per_task,
        degraded: !scenario.overlay_faults.is_empty(),
        corrupting: scenario.is_corrupting(),
        passed,
        failed_checks,
        error,
        verdict_latency,
    }
}

/// Expand a scenario into its overlay variants for this campaign.
fn variants(config: &CampaignConfig, scenario: &FaultScenario) -> Vec<FaultScenario> {
    let mut out = vec![scenario.clone()];
    if config.include_degraded && scenario.overlay_faults.is_empty() {
        out.push(scenario.with_overlay(OverlayFault::BackendFromEnd(0)));
    }
    out
}

/// Sweep the campaign grid and accumulate the stability surface.
///
/// For every scale: the deterministic catalogue runs once (its cells carry no
/// seed), then each seed generates its own batch of randomized scenarios; every
/// scenario runs at every depth, in both healthy and (when enabled) degraded
/// overlay variants.  Cells go through [`Session::run_scenario`] — there is no
/// campaign-local merge or judging shortcut.
pub fn run_campaign(config: &CampaignConfig) -> StabilitySurface {
    let mut surface = StabilitySurface::default();
    for &tasks in &config.scales {
        if config.include_catalogue {
            for scenario in catalogue(tasks, config.vocab) {
                if let Some(filter) = &config.catalogue_filter {
                    if !filter.iter().any(|n| n == &scenario.name) {
                        continue;
                    }
                }
                for variant in variants(config, &scenario) {
                    for &depth in &config.depths {
                        surface
                            .cells
                            .push(run_cell(config, &variant, None, tasks, depth));
                    }
                }
            }
        }
        for &seed in &config.seeds {
            for scenario in
                randomized_scenarios(tasks, config.vocab, seed, config.randomized_per_seed)
            {
                for variant in variants(config, &scenario) {
                    for &depth in &config.depths {
                        surface
                            .cells
                            .push(run_cell(config, &variant, Some(seed), tasks, depth));
                    }
                }
            }
        }
    }
    surface
}

#[cfg(test)]
mod tests {
    use super::*;
    use appsim::scenario::{MidTreeCorruption, MidTreeFault};

    fn tiny_config() -> CampaignConfig {
        let mut config = CampaignConfig::quick(Cluster::test_cluster(16, 8), 128);
        config.seeds = vec![11];
        config.randomized_per_seed = 2;
        config.depths = vec![2];
        config.include_catalogue = false;
        config
    }

    #[test]
    fn campaigns_are_deterministic_cell_for_cell() {
        let config = tiny_config();
        let a = run_campaign(&config);
        let b = run_campaign(&config);
        assert!(!a.cells.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn catalogue_cells_carry_no_seed_and_all_pass_at_small_scale() {
        let mut config = tiny_config();
        config.include_catalogue = true;
        config.seeds = vec![];
        let surface = run_campaign(&config);
        assert!(surface.cells.iter().all(|c| c.seed.is_none()));
        let failed: Vec<&CampaignCell> = surface.cells.iter().filter(|c| !c.passed).collect();
        assert!(
            failed.is_empty(),
            "catalogue cells must be stable at 128 tasks: {failed:?}"
        );
        assert!(surface.first_flip_frontier().is_empty());
        assert!(surface.to_markdown().contains("No flips"));
    }

    #[test]
    fn degraded_variants_double_the_healthy_scenarios() {
        // The catalogue is guaranteed to contain healthy scenarios, so turning
        // the degraded axis on must add exactly one variant per healthy entry.
        let mut with = tiny_config();
        with.include_catalogue = true;
        with.seeds = vec![];
        with.include_degraded = true;
        let mut without = with.clone();
        without.include_degraded = false;
        let sw = run_campaign(&with);
        let so = run_campaign(&without);
        let healthy = so.cells.iter().filter(|c| !c.degraded).count();
        assert!(healthy > 0);
        assert_eq!(sw.cells.len(), so.cells.len() + healthy);
        assert!(sw.cells.iter().any(|c| c.degraded));
    }

    #[test]
    fn the_frontier_reports_a_flip_instead_of_dropping_it() {
        // Force a failure by mis-wiring a catalogue scenario's ground truth:
        // run `stragglers` but judge it with `deadlock_pair`'s truth.
        let scenarios = catalogue(128, FrameVocabulary::Linux);
        let stragglers = scenarios.iter().find(|s| s.name == "stragglers").unwrap();
        let deadlock = scenarios
            .iter()
            .find(|s| s.name == "deadlock_pair")
            .unwrap();
        let mut cross_wired = stragglers.clone();
        cross_wired.truth = deadlock.truth.clone();
        cross_wired.name = "cross_wired".into();

        let config = tiny_config();
        let run = cell_session(&config, 128, 2).run_scenario(&cross_wired);
        let (passed, failed_checks, error) = judge(&cross_wired, run);
        assert!(!passed, "a cross-wired truth must fail its verdict");
        assert!(error.is_none());
        assert!(!failed_checks.is_empty());

        let cell = run_cell(&config, &cross_wired, None, 128, 2);
        let surface = StabilitySurface { cells: vec![cell] };
        let frontier = surface.first_flip_frontier();
        assert_eq!(frontier.len(), 1);
        assert_eq!(frontier[0].first_failing_tasks, 128);
        assert_eq!(frontier[0].last_passing_tasks, None);
        assert!(surface.to_markdown().contains("cross_wired"));
        assert!(!surface.check_failure_histogram().is_empty());
    }

    #[test]
    fn corrupting_cells_pass_only_when_the_poison_is_detected() {
        // A mid-tree garbage fault on a pinned scenario must be *detected* —
        // judged pass — and the same scenario stripped of the fault must pass
        // its verdict the ordinary way.
        let scenarios = catalogue(128, FrameVocabulary::Linux);
        let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
        let mut corrupted = ring.clone();
        corrupted.name = "ring_hang_midtree".into();
        corrupted.mid_tree_faults = vec![MidTreeFault {
            comm_from_end: 0,
            kind: MidTreeCorruption::Garbage,
        }];

        let config = tiny_config();
        let clean_cell = run_cell(&config, ring, None, 128, 2);
        assert!(
            clean_cell.passed,
            "clean ring_hang must pass: {clean_cell:?}"
        );
        assert!(!clean_cell.corrupting);

        let corrupt_cell = run_cell(&config, &corrupted, None, 128, 2);
        assert!(corrupt_cell.corrupting);
        assert!(
            corrupt_cell.passed,
            "mid-tree garbage must be detected, not sail through: {corrupt_cell:?}"
        );
    }

    #[test]
    fn csv_has_one_row_per_cell_plus_header() {
        let surface = run_campaign(&tiny_config());
        let csv = surface.to_csv();
        assert_eq!(csv.lines().count(), surface.cells.len() + 1);
        assert!(csv.starts_with("scenario,seed,tasks,depth"));
        assert!(csv.lines().next().unwrap().contains("verdict_latency"));
    }

    #[test]
    fn streamed_cells_measure_their_verdict_latency() {
        let mut config = tiny_config();
        config.include_catalogue = true;
        config.seeds = vec![];
        config.catalogue_filter = Some(vec!["ring_hang".into(), "all_equivalent".into()]);
        let surface = run_campaign(&config);
        // Every cell here is non-corrupting and stable at this scale, so every
        // streamed run stabilises inside the window — and the catalogue's
        // hand-picked faults are diagnosed in the very wave they appear.
        assert!(!surface.cells.is_empty());
        for cell in &surface.cells {
            assert_eq!(
                cell.verdict_latency,
                Some(0),
                "cell {} (degraded={}) latency",
                cell.scenario,
                cell.degraded
            );
        }
        assert!(!surface.verdict_latency_by_scale().is_empty());
        assert!(surface.to_markdown().contains("verdict latency"));

        // With the latency axis off, the column stays empty.
        config.latency_waves = 0;
        let off = run_campaign(&config);
        assert!(off.cells.iter().all(|c| c.verdict_latency.is_none()));
    }

    #[test]
    fn stable_wave_requires_the_verdict_to_stay_passing() {
        let session = Session::builder(Cluster::test_cluster(16, 8))
            .samples_per_task(2)
            .build();
        let scenarios = catalogue(128, FrameVocabulary::Linux);
        let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
        let mut reports = session
            .stream_scenario(ring, FrameVocabulary::Linux, 1, 3)
            .expect("stream runs");
        assert_eq!(stable_wave(&reports, 1), Some(1));
        // A later failing wave invalidates an earlier pass.
        if let Some(last) = reports.last_mut() {
            last.verdict.checks.clear();
            last.verdict.checks.push(appsim::scenario::Check {
                name: "class-count",
                passed: false,
                detail: "forced flip".into(),
            });
        }
        assert_eq!(stable_wave(&reports, 1), None);
        assert_eq!(stable_wave(&reports, 99), None);
    }
}
