//! The fault-scenario catalogue: workloads bundled with machine-checkable verdicts.
//!
//! The paper's value claim is not "trees merge" — it is "a human pointed STAT at a
//! 212,992-task hang and the merged tree named the faulty equivalence class".  To
//! test *that*, every scenario in this module bundles three things:
//!
//! 1. an [`Application`] with a known injected fault (or, for the noise scenarios,
//!    a known *absence* of one);
//! 2. a [`GroundTruth`]: which ranks the fault was injected into, the band of
//!    behaviour classes the merged tree should collapse to, which frame must
//!    distinguish the faulty ranks, and which frame combinations must never appear
//!    (a corrupted stack must not graft onto the healthy spine);
//! 3. a [`Verdict`] checker — [`GroundTruth::check`] — that takes a
//!    representation-agnostic [`Diagnosis`] of a finished session and decides,
//!    check by check, whether the tool actually recovered the injected fault.
//!
//! [`catalogue`] is the registry the integration suite, the STATBench campaigns and
//! the `scenario_gallery` example all iterate; [`OverlayFault`] modifiers let any
//! scenario also run *degraded*, with tool daemons pruned mid-session the way
//! `tbon::fault` prunes a real overlay.
//!
//! ```
//! use appsim::scenario::{catalogue, DiagnosedClass, Diagnosis};
//! use appsim::FrameVocabulary;
//!
//! let scenarios = catalogue(64, FrameVocabulary::Linux);
//! assert!(scenarios.len() >= 8);
//!
//! // The deadlock scenario's ground truth accepts a diagnosis that isolates the
//! // deadlocked pair under `PMPI_Recv`...
//! let deadlock = scenarios
//!     .iter()
//!     .find(|s| s.name == "deadlock_pair")
//!     .unwrap();
//! let good = Diagnosis {
//!     tasks: 64,
//!     lost_ranks: vec![],
//!     classes: vec![
//!         DiagnosedClass {
//!             frames: vec!["_start".into(), "main".into(), "PMPI_Recv".into()],
//!             ranks: vec![0, 1],
//!         },
//!         DiagnosedClass {
//!             frames: vec!["_start".into(), "main".into(), "PMPI_Barrier".into()],
//!             ranks: (2..64).collect(),
//!         },
//!     ],
//! };
//! assert!(deadlock.truth.check(&deadlock.name, &good).passed());
//!
//! // ...and rejects one that blames an innocent rank.
//! let mut bad = good.clone();
//! bad.classes[0].ranks = vec![0, 5];
//! bad.classes[1].ranks = (1..64).filter(|&r| r != 5).collect();
//! let verdict = deadlock.truth.check(&deadlock.name, &bad);
//! assert!(!verdict.passed());
//! assert!(verdict.summary().contains("PMPI_Recv"));
//! ```

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::app::Application;
use crate::progress::{CheckpointStormApp, StragglerApp};
use crate::ring::RingHangApp;
use crate::vocab::FrameVocabulary;
use crate::workloads::{
    AllEquivalentApp, CollectiveMismatchApp, CorruptedStackApp, DeadlockPairApp, IoStormApp,
    OsNoiseApp, RandomFaultApp, RandomFaultFlavor,
};
use simkit::rng::DeterministicRng;

/// One frame-level expectation: the set of ranks that must appear in (exactly the
/// union of) the behaviour classes whose call path contains `frame`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Isolation {
    /// The distinguishing frame the faulty ranks must be found under.
    pub frame: &'static str,
    /// The ranks the fault was injected into, ascending.
    pub ranks: Vec<u64>,
}

/// Machine-checkable ground truth for one fault scenario.
///
/// A scenario's ground truth is written down *when the fault is injected*, not
/// after the tool has run — the workloads that take configurable fault ranks
/// ([`DeadlockPairApp`], [`StragglerApp`], and the new scenario workloads) derive
/// their rank getters from this type, so the workload and the expectation cannot
/// drift apart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroundTruth {
    /// Inclusive `(min, max)` band for the number of behaviour classes the merged
    /// 3D tree should produce.  A band rather than a point because sampling depth
    /// legitimately splits time-varying workloads over a few extra classes.
    pub class_count: (usize, usize),
    /// Frame-level expectations: each distinguishing frame must isolate exactly
    /// its injected ranks.  Empty for healthy / noise-only scenarios.
    pub isolations: Vec<Isolation>,
    /// A frame that must appear on *every* class path — how a healthy scenario
    /// asserts "the tool shows one coherent behaviour, not invented outliers".
    pub ubiquitous_frame: Option<&'static str>,
    /// Frame pairs that must never share a class path: the "corrupted stacks must
    /// not poison the merge" check.
    pub never_coincide: Vec<(&'static str, &'static str)>,
}

impl GroundTruth {
    /// Every rank a fault was injected into, ascending and deduplicated.
    pub fn faulty_ranks(&self) -> Vec<u64> {
        let set: BTreeSet<u64> = self
            .isolations
            .iter()
            .flat_map(|i| i.ranks.iter().copied())
            .collect();
        set.into_iter().collect()
    }

    /// Whether the fault was injected into `rank`.
    pub fn is_faulty(&self, rank: u64) -> bool {
        self.isolations.iter().any(|i| i.ranks.contains(&rank))
    }

    /// The primary distinguishing frame (the first isolation's), if any.
    pub fn distinguishing_frame(&self) -> Option<&'static str> {
        self.isolations.first().map(|i| i.frame)
    }

    /// Judge a diagnosis against this ground truth, check by check.
    pub fn check(&self, scenario: &str, diagnosis: &Diagnosis) -> Verdict {
        let mut checks = Vec::new();
        let lost: BTreeSet<u64> = diagnosis.lost_ranks.iter().copied().collect();

        // 1. Coverage: every rank the (possibly degraded) session still covers
        // appears in at least one class, and no class invents a rank.
        let mut seen: Vec<u64> = diagnosis
            .classes
            .iter()
            .flat_map(|c| c.ranks.iter().copied())
            .collect();
        seen.sort_unstable();
        seen.dedup();
        let expected: Vec<u64> = (0..diagnosis.tasks).filter(|r| !lost.contains(r)).collect();
        checks.push(Check {
            name: "coverage",
            passed: seen == expected,
            detail: format!(
                "{} of {} covered ranks appear in classes ({} lost to daemon faults)",
                seen.len(),
                expected.len(),
                lost.len()
            ),
        });

        // 2. Class count within the expected band.
        let (min, max) = self.class_count;
        let n = diagnosis.classes.len();
        checks.push(Check {
            name: "class-count",
            passed: (min..=max).contains(&n),
            detail: format!("{n} classes, expected {min}..={max}"),
        });

        // 3. Isolation: the union of the classes under each distinguishing frame
        // is exactly the injected ranks (minus any lost to daemon faults).
        for isolation in &self.isolations {
            let mut flagged: Vec<u64> = diagnosis
                .classes
                .iter()
                .filter(|c| c.frames.iter().any(|f| f == isolation.frame))
                .flat_map(|c| c.ranks.iter().copied())
                .collect();
            flagged.sort_unstable();
            flagged.dedup();
            let mut injected: Vec<u64> = isolation
                .ranks
                .iter()
                .copied()
                .filter(|r| !lost.contains(r))
                .collect();
            injected.sort_unstable();
            checks.push(Check {
                name: "isolation",
                passed: flagged == injected,
                detail: format!(
                    "`{}` isolates {} ranks, expected {} (injected: {:?}...)",
                    isolation.frame,
                    flagged.len(),
                    injected.len(),
                    injected.iter().take(4).collect::<Vec<_>>()
                ),
            });
        }

        // 3b. Clean separation: an injected rank must not *also* appear in a
        // class carrying none of the distinguishing frames.  The coverage check
        // deduplicates members, so without this a merge regression that listed a
        // faulty rank in both its fault class and the healthy crowd would pass.
        if !self.isolations.is_empty() {
            let faulty: BTreeSet<u64> = self.faulty_ranks().into_iter().collect();
            let mut leaked: Vec<u64> = diagnosis
                .classes
                .iter()
                .filter(|c| {
                    !self
                        .isolations
                        .iter()
                        .any(|i| c.frames.iter().any(|f| f == i.frame))
                })
                .flat_map(|c| c.ranks.iter().copied())
                .filter(|r| faulty.contains(r))
                .collect();
            leaked.sort_unstable();
            leaked.dedup();
            checks.push(Check {
                name: "clean-separation",
                passed: leaked.is_empty(),
                detail: format!(
                    "{} injected ranks also appear in undistinguished classes ({:?}...)",
                    leaked.len(),
                    leaked.iter().take(4).collect::<Vec<_>>()
                ),
            });
        }

        // 4. Healthy scenarios: every class must stay inside the one behaviour.
        if let Some(frame) = self.ubiquitous_frame {
            let missing = diagnosis
                .classes
                .iter()
                .filter(|c| !c.frames.iter().any(|f| f == frame))
                .count();
            checks.push(Check {
                name: "ubiquitous-frame",
                passed: missing == 0,
                detail: format!("`{frame}` missing from {missing} class paths"),
            });
        }

        // 5. Poison check: forbidden frame pairs never share a class path.
        for &(a, b) in &self.never_coincide {
            let poisoned = diagnosis
                .classes
                .iter()
                .filter(|c| c.frames.iter().any(|f| f == a) && c.frames.iter().any(|f| f == b))
                .count();
            checks.push(Check {
                name: "no-poison",
                passed: poisoned == 0,
                detail: format!("`{a}` and `{b}` share {poisoned} class paths"),
            });
        }

        Verdict {
            scenario: scenario.to_string(),
            checks,
        }
    }
}

/// A representation-agnostic summary of what a finished session concluded: the
/// behaviour classes by frame *name* plus which ranks a degraded gather lost.
///
/// `stat_core::scenario::diagnose` builds one from a real `GatherResult`; tests
/// and doctests can also construct one by hand.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnosis {
    /// Total tasks in the job (including any lost to daemon faults).
    pub tasks: u64,
    /// Ranks whose daemons were pruned from a degraded gather, ascending.
    pub lost_ranks: Vec<u64>,
    /// The behaviour classes the merged 3D tree produced.
    pub classes: Vec<DiagnosedClass>,
}

/// One behaviour class of a [`Diagnosis`]: a call path by frame name plus members.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagnosedClass {
    /// The call path, outermost frame first, by name.
    pub frames: Vec<String>,
    /// The MPI ranks in the class, ascending.
    pub ranks: Vec<u64>,
}

/// One pass/fail check of a [`Verdict`], with human-readable detail.
#[derive(Clone, Debug)]
pub struct Check {
    /// Which rule was checked (`coverage`, `class-count`, `isolation`, ...).
    pub name: &'static str,
    /// Whether the diagnosis satisfied the rule.
    pub passed: bool,
    /// What was observed vs. expected.
    pub detail: String,
}

/// The outcome of judging one diagnosis against one ground truth.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The scenario that was judged.
    pub scenario: String,
    /// Every rule that was evaluated.
    pub checks: Vec<Check>,
}

impl Verdict {
    /// Whether every check passed — "the tool found the injected bug".
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The checks that failed.
    pub fn failures(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| !c.passed).collect()
    }

    /// A one-line-per-check report, failures first.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{}: {}\n",
            self.scenario,
            if self.passed() { "PASS" } else { "FAIL" }
        );
        let mut ordered: Vec<&Check> = self.checks.iter().collect();
        ordered.sort_by_key(|c| c.passed);
        for check in ordered {
            out.push_str(&format!(
                "  [{}] {:<16} {}\n",
                if check.passed { "ok" } else { "FAIL" },
                check.name,
                check.detail
            ));
        }
        out
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// A tool-side overlay fault to inject while running a scenario, so every entry in
/// the catalogue can also run *degraded* (the `tbon::fault` pruning path).
///
/// Faults address endpoints from the *end* of the level order because the
/// interesting application faults in the catalogue live at low ranks (hence early
/// backends): pruning from the end degrades coverage without deleting the bug.
/// An index past the addressed level's width is a *typed error* when the
/// scenario runs — never a silent no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverlayFault {
    /// Kill the `i`-th back-end daemon counting from the end of backend order.
    BackendFromEnd(usize),
    /// Kill the `i`-th communication process counting from the end (orphaning its
    /// whole subtree of daemons).  Falls back to the last backend on flat trees.
    CommProcessFromEnd(usize),
}

/// How a mid-tree fault corrupts the filter output of an interior TBON node.
/// Mirrors `tbon::fault::FilterFaultKind` without making appsim depend on tbon:
/// the runner resolves this abstract description against the real topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MidTreeCorruption {
    /// The node's merged packet is replaced with plausible-length garbage.
    Garbage,
    /// The node's merged packet is cut to its first half.
    Truncate,
}

/// One mid-tree fault: an interior (communication-process) node whose filter
/// state is corrupted, so the packet it forwards upward no longer describes its
/// subtree.  Unlike [`OverlayFault`] the node is *not* pruned — the damage is
/// silent at the transport layer, and the test is whether the verdict machinery
/// *detects* it (the parent's merge drops the subtree, coverage fails, or the
/// front end refuses to decode).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MidTreeFault {
    /// Which communication process, counting from the end of the level order.
    /// Out-of-range indices (including any index on a flat tree, which has no
    /// communication processes) are a typed error when the scenario runs.
    pub comm_from_end: usize,
    /// How the node's filter output is corrupted.
    pub kind: MidTreeCorruption,
}

/// One entry of the fault-scenario catalogue.
#[derive(Clone)]
pub struct FaultScenario {
    /// Registry name (stable for catalogue entries, seed-derived for randomized
    /// ones; used by tests to select scenarios).
    pub name: String,
    /// Human description of the injected fault.
    pub fault: String,
    /// Human description of the diagnosis the tool is expected to produce.
    pub expected: String,
    /// The workload with the fault injected.
    pub app: Arc<dyn Application>,
    /// The machine-checkable expectation.
    pub truth: GroundTruth,
    /// Tool-side daemon faults to inject while the scenario runs (empty = the
    /// overlay stays healthy).
    pub overlay_faults: Vec<OverlayFault>,
    /// Mid-tree filter corruptions to inject while the scenario runs (empty =
    /// every interior node merges honestly).
    pub mid_tree_faults: Vec<MidTreeFault>,
}

impl FaultScenario {
    /// Whether this entry exercises the degraded (daemon-fault) path.
    pub fn is_degraded(&self) -> bool {
        !self.overlay_faults.is_empty()
    }

    /// Whether this entry corrupts interior-node filter state.  A corrupting
    /// scenario is judged *correct* when the corruption is detected — its
    /// verdict fails or the pipeline reports a decode/coverage error — and
    /// *incorrect* if the diagnosis sails through clean.
    pub fn is_corrupting(&self) -> bool {
        !self.mid_tree_faults.is_empty()
    }

    /// Derive a degraded variant: the same scenario with an extra overlay fault.
    pub fn with_overlay(&self, fault: OverlayFault) -> FaultScenario {
        let mut v = self.clone();
        v.name = format!("{}_degraded", v.name);
        v.overlay_faults.push(fault);
        v
    }
}

impl fmt::Debug for FaultScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultScenario")
            .field("name", &self.name)
            .field("fault", &self.fault)
            .field("app", &self.app.name())
            .field("truth", &self.truth)
            .field("overlay_faults", &self.overlay_faults)
            .field("mid_tree_faults", &self.mid_tree_faults)
            .finish()
    }
}

/// The scenario registry: every fault the suite knows how to inject *and* verify,
/// at the requested job size.
///
/// The registry always contains the paper's ring hang, the classic deadlock /
/// straggler / checkpoint-storm workloads, the four adversarial workloads (shared
/// file-system I/O storm, OS-noise jitter, collective mismatch, corrupted stacks),
/// a healthy baseline, and degraded variants that prune tool daemons via
/// [`OverlayFault`] while the application fault is still live.
pub fn catalogue(tasks: u64, vocab: FrameVocabulary) -> Vec<FaultScenario> {
    let tasks = tasks.max(16);

    let ring = RingHangApp::new(tasks, vocab);
    let ring_truth = ring.ground_truth();
    let deadlock = DeadlockPairApp::new(tasks, vocab);
    let deadlock_truth = deadlock.ground_truth().clone();
    let stragglers = StragglerApp::new(tasks, 4.min(tasks / 4).max(1), vocab);
    let straggler_truth = stragglers.ground_truth().clone();
    let storm = CheckpointStormApp::new(tasks, 0.75, vocab);
    let storm_truth = storm.ground_truth();
    let io_storm = IoStormApp::new(tasks, 3.min(tasks / 4).max(1), vocab);
    let io_truth = io_storm.ground_truth().clone();
    let noise = OsNoiseApp::new(tasks, vocab);
    let noise_truth = noise.ground_truth().clone();
    let mismatch = CollectiveMismatchApp::new(tasks, vocab);
    let mismatch_truth = mismatch.ground_truth().clone();
    let corrupted = CorruptedStackApp::new(tasks, 3.min(tasks / 8).max(1), vocab);
    let corrupted_truth = corrupted.ground_truth().clone();

    vec![
        FaultScenario {
            name: "ring_hang".into(),
            fault: "MPI ring test; rank 1 hangs before its send (the paper's Figure 1 bug)".into(),
            expected: "3-8 classes; the hung rank alone under do_SendOrStall, its victim under PMPI_Waitall".into(),
            app: Arc::new(ring.clone()),
            truth: ring_truth.clone(),
            overlay_faults: vec![],
            mid_tree_faults: vec![],
        },
        FaultScenario {
            name: "ring_hang_daemon_loss".into(),
            fault: "the ring hang, with the last tool daemon killed mid-session".into(),
            expected: "same diagnosis over the surviving daemons; the lost ranks reported uncovered".into(),
            app: Arc::new(ring),
            truth: ring_truth,
            overlay_faults: vec![OverlayFault::BackendFromEnd(0)],
            mid_tree_faults: vec![],
        },
        FaultScenario {
            name: "deadlock_pair".into(),
            fault: "ranks 0 and 1 deadlocked in blocking receives against each other".into(),
            expected: "the pair isolated under PMPI_Recv; everyone else in the barrier".into(),
            app: Arc::new(deadlock.clone()),
            truth: deadlock_truth.clone(),
            overlay_faults: vec![],
            mid_tree_faults: vec![],
        },
        FaultScenario {
            name: "deadlock_pair_comm_loss".into(),
            fault: "the deadlocked pair, with a communication process (and its subtree) killed".into(),
            expected: "the pair still isolated; the orphaned daemons' ranks reported uncovered".into(),
            app: Arc::new(deadlock),
            truth: deadlock_truth,
            overlay_faults: vec![OverlayFault::CommProcessFromEnd(0)],
            mid_tree_faults: vec![],
        },
        FaultScenario {
            name: "stragglers".into(),
            fault: "a few ranks persistently compute while the job waits in the barrier".into(),
            expected: "the stragglers alone under compute_interior".into(),
            app: Arc::new(stragglers),
            truth: straggler_truth,
            overlay_faults: vec![],
            mid_tree_faults: vec![],
        },
        FaultScenario {
            name: "checkpoint_storm".into(),
            fault: "a checkpoint write storm; a quarter of the job still inside the I/O stack".into(),
            expected: "writers isolated under MPI_File_write_all, the rest in the barrier".into(),
            app: Arc::new(storm),
            truth: storm_truth,
            overlay_faults: vec![],
            mid_tree_faults: vec![],
        },
        FaultScenario {
            name: "io_storm".into(),
            fault: "shared-filesystem metadata storm: a few ranks wedged opening a file over NFS".into(),
            expected: "the wedged ranks alone under MPI_File_open / nfs_getattr_wait".into(),
            app: Arc::new(io_storm),
            truth: io_truth,
            overlay_faults: vec![],
            mid_tree_faults: vec![],
        },
        FaultScenario {
            name: "os_noise".into(),
            fault: "no application fault; ranks are sampled mid-kernel inside OS interrupt frames".into(),
            expected: "every class stays inside the compute kernel — no invented outliers".into(),
            app: Arc::new(noise),
            truth: noise_truth,
            overlay_faults: vec![],
            mid_tree_faults: vec![],
        },
        FaultScenario {
            name: "collective_mismatch".into(),
            fault: "one rank enters PMPI_Reduce while the rest of the job is in PMPI_Allreduce".into(),
            expected: "the mismatched rank alone under PMPI_Reduce".into(),
            app: Arc::new(mismatch),
            truth: mismatch_truth,
            overlay_faults: vec![],
            mid_tree_faults: vec![],
        },
        FaultScenario {
            name: "corrupted_stacks".into(),
            fault: "a few ranks return garbage frames from the stack walk".into(),
            expected: "garbage quarantined under ??? without grafting onto the healthy spine".into(),
            app: Arc::new(corrupted),
            truth: corrupted_truth,
            overlay_faults: vec![],
            mid_tree_faults: vec![],
        },
        FaultScenario {
            name: "all_equivalent".into(),
            fault: "no fault: the whole job waits in one barrier".into(),
            expected: "a single class covering every task".into(),
            app: Arc::new(AllEquivalentApp::new(tasks, vocab)),
            truth: GroundTruth {
                class_count: (1, 1),
                isolations: vec![],
                ubiquitous_frame: Some(vocab.barrier()),
                never_coincide: vec![],
            },
            overlay_faults: vec![],
            mid_tree_faults: vec![],
        },
    ]
}

/// Generate `count` randomized fault scenarios at the given job size, fully
/// determined by `seed`: fault archetype, faulty-rank placement, overlay
/// degradation and mid-tree corruption are all drawn from a
/// [`DeterministicRng`], and each scenario still carries a machine-checkable
/// [`GroundTruth`] derived from the drawn ranks — randomization moves the
/// fault, never the expectation.
///
/// Scenario `i` draws from `DeterministicRng::new(seed).fork(i)`, so the
/// population is stable under prefix extension: the first `k` scenarios of a
/// `count = n` population equal the `count = k` population for the same seed.
///
/// ```
/// use appsim::scenario::randomized_scenarios;
/// use appsim::FrameVocabulary;
///
/// let a = randomized_scenarios(1_024, FrameVocabulary::BlueGeneL, 7, 6);
/// let b = randomized_scenarios(1_024, FrameVocabulary::BlueGeneL, 7, 6);
/// assert_eq!(a.len(), 6);
/// // Same seed, same population: names, faulty ranks, overlays all agree.
/// for (x, y) in a.iter().zip(&b) {
///     assert_eq!(x.name, y.name);
///     assert_eq!(x.truth, y.truth);
///     assert_eq!(x.overlay_faults, y.overlay_faults);
///     assert_eq!(x.mid_tree_faults, y.mid_tree_faults);
/// }
/// ```
pub fn randomized_scenarios(
    tasks: u64,
    vocab: FrameVocabulary,
    seed: u64,
    count: usize,
) -> Vec<FaultScenario> {
    let tasks = tasks.max(16);
    let mut base = DeterministicRng::new(seed);
    (0..count)
        .map(|i| {
            let mut rng = base.fork(i as u64);
            let flavor = RandomFaultFlavor::ALL[rng.uniform_usize(0, RandomFaultFlavor::ALL.len())];
            // 1..=3 faulty ranks drawn anywhere past rank 0.
            let fault_count = rng.uniform_usize(1, 4);
            let mut ranks = BTreeSet::new();
            while ranks.len() < fault_count {
                ranks.insert(rng.uniform_usize(1, tasks as usize) as u64);
            }
            let ranks: Vec<u64> = ranks.into_iter().collect();
            let app = RandomFaultApp::new(tasks, vocab, flavor, ranks.clone());
            let truth = app.ground_truth().clone();

            // A third of the population also degrades the tool overlay...
            let mut suffix = String::new();
            let mut overlay_faults = Vec::new();
            if rng.chance(1.0 / 3.0) {
                overlay_faults.push(OverlayFault::BackendFromEnd(rng.uniform_usize(0, 2)));
                suffix.push_str("_degraded");
            }
            // ...and a quarter corrupts an interior node's filter state.
            let mut mid_tree_faults = Vec::new();
            if rng.chance(0.25) {
                let kind = if rng.chance(0.5) {
                    MidTreeCorruption::Garbage
                } else {
                    MidTreeCorruption::Truncate
                };
                mid_tree_faults.push(MidTreeFault {
                    comm_from_end: rng.uniform_usize(0, 2),
                    kind,
                });
                suffix.push_str("_midtree");
            }

            FaultScenario {
                name: format!("rand_{}_s{}_{}{}", flavor.label(), seed, i, suffix),
                fault: format!(
                    "randomized {} fault injected into ranks {:?} (seed {seed}, draw {i})",
                    flavor.label(),
                    ranks
                ),
                expected: format!(
                    "the injected ranks isolated under {}",
                    flavor.distinguishing_frame(vocab)
                ),
                app: Arc::new(app),
                truth,
                overlay_faults,
                mid_tree_faults,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diagnosis(classes: Vec<(Vec<&str>, Vec<u64>)>, tasks: u64) -> Diagnosis {
        Diagnosis {
            tasks,
            lost_ranks: vec![],
            classes: classes
                .into_iter()
                .map(|(frames, ranks)| DiagnosedClass {
                    frames: frames.into_iter().map(String::from).collect(),
                    ranks,
                })
                .collect(),
        }
    }

    #[test]
    fn catalogue_has_every_required_scenario() {
        let scenarios = catalogue(256, FrameVocabulary::Linux);
        assert!(scenarios.len() >= 8);
        for required in [
            "ring_hang",
            "io_storm",
            "os_noise",
            "collective_mismatch",
            "corrupted_stacks",
        ] {
            assert!(
                scenarios.iter().any(|s| s.name == required),
                "missing scenario {required}"
            );
        }
        assert!(scenarios.iter().any(FaultScenario::is_degraded));
        // Names are unique: the registry is addressable.
        let mut names: Vec<_> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len());
    }

    #[test]
    fn randomized_scenarios_are_seed_deterministic_and_prefix_stable() {
        let a = randomized_scenarios(512, FrameVocabulary::Linux, 42, 8);
        let b = randomized_scenarios(512, FrameVocabulary::Linux, 42, 8);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.truth, y.truth);
            assert_eq!(x.overlay_faults, y.overlay_faults);
            assert_eq!(x.mid_tree_faults, y.mid_tree_faults);
        }
        // Prefix stability: scenario i does not depend on how many follow it.
        let prefix = randomized_scenarios(512, FrameVocabulary::Linux, 42, 3);
        for (x, y) in prefix.iter().zip(&a) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.truth, y.truth);
        }
        // A different seed moves the population.
        let other = randomized_scenarios(512, FrameVocabulary::Linux, 43, 8);
        assert!(a
            .iter()
            .zip(&other)
            .any(|(x, y)| x.truth != y.truth || x.name != y.name));
    }

    #[test]
    fn randomized_scenarios_carry_sound_ground_truths() {
        for seed in [1u64, 9, 77] {
            for s in randomized_scenarios(256, FrameVocabulary::BlueGeneL, seed, 12) {
                let faulty = s.truth.faulty_ranks();
                assert!(!faulty.is_empty() && faulty.len() <= 3, "{}", s.name);
                assert!(
                    faulty.iter().all(|&r| (1..256).contains(&r)),
                    "{}: rank 0 or out-of-job rank drawn",
                    s.name
                );
                // The app's behaviour matches the truth rank for rank.
                let frame = s.truth.distinguishing_frame().unwrap();
                for rank in 0..256 {
                    let flagged = s.app.main_thread_path(rank, 0).contains(&frame);
                    assert_eq!(flagged, s.truth.is_faulty(rank), "{} rank {rank}", s.name);
                }
                // Suffixes advertise the tool-side modifiers.
                assert_eq!(s.is_degraded(), s.name.contains("_degraded"));
                assert_eq!(s.is_corrupting(), s.name.contains("_midtree"));
            }
        }
    }

    #[test]
    fn with_overlay_derives_a_renamed_degraded_variant() {
        let base = &catalogue(64, FrameVocabulary::Linux)[0];
        let degraded = base.with_overlay(OverlayFault::BackendFromEnd(1));
        assert_eq!(degraded.name, format!("{}_degraded", base.name));
        assert!(degraded.is_degraded());
        assert_eq!(degraded.truth, base.truth);
        assert!(!base.is_degraded());
    }

    #[test]
    fn verdict_catches_a_missed_isolation() {
        let truth = GroundTruth {
            class_count: (2, 3),
            isolations: vec![Isolation {
                frame: "PMPI_Recv",
                ranks: vec![0, 1],
            }],
            ubiquitous_frame: None,
            never_coincide: vec![],
        };
        let good = diagnosis(
            vec![
                (vec!["main", "PMPI_Recv"], vec![0, 1]),
                (vec!["main", "PMPI_Barrier"], (2..16).collect()),
            ],
            16,
        );
        assert!(truth.check("t", &good).passed());

        // The tool blamed rank 2 as well: isolation must fail.
        let over = diagnosis(
            vec![
                (vec!["main", "PMPI_Recv"], vec![0, 1, 2]),
                (vec!["main", "PMPI_Barrier"], (3..16).collect()),
            ],
            16,
        );
        let verdict = truth.check("t", &over);
        assert!(!verdict.passed());
        assert_eq!(verdict.failures().len(), 1);
        assert_eq!(verdict.failures()[0].name, "isolation");
    }

    #[test]
    fn verdict_catches_a_faulty_rank_hiding_in_the_healthy_crowd() {
        // Coverage deduplicates members, so a diagnosis that lists rank 1 in both
        // its fault class and the barrier crowd covers every rank — only the
        // clean-separation check can catch the leak.
        let truth = GroundTruth {
            class_count: (2, 3),
            isolations: vec![Isolation {
                frame: "PMPI_Recv",
                ranks: vec![0, 1],
            }],
            ubiquitous_frame: None,
            never_coincide: vec![],
        };
        let leaked = diagnosis(
            vec![
                (vec!["main", "PMPI_Recv"], vec![0, 1]),
                (vec!["main", "PMPI_Barrier"], (1..16).collect()),
            ],
            16,
        );
        let verdict = truth.check("t", &leaked);
        assert!(!verdict.passed());
        let failed: Vec<&str> = verdict.failures().iter().map(|c| c.name).collect();
        assert_eq!(failed, vec!["clean-separation"]);
    }

    #[test]
    fn verdict_catches_coverage_holes_and_class_count() {
        let truth = GroundTruth {
            class_count: (1, 1),
            isolations: vec![],
            ubiquitous_frame: Some("PMPI_Barrier"),
            never_coincide: vec![],
        };
        // Rank 7 vanished from every class.
        let holey = diagnosis(
            vec![(
                vec!["main", "PMPI_Barrier"],
                (0..16).filter(|&r| r != 7).collect(),
            )],
            16,
        );
        let verdict = truth.check("t", &holey);
        assert!(!verdict.passed());
        assert!(verdict.failures().iter().any(|c| c.name == "coverage"));

        // Two classes where one was expected.
        let split = diagnosis(
            vec![
                (vec!["main", "PMPI_Barrier"], (0..8).collect()),
                (vec!["main", "PMPI_Barrier", "poll"], (8..16).collect()),
            ],
            16,
        );
        let verdict = truth.check("t", &split);
        assert!(verdict.failures().iter().any(|c| c.name == "class-count"));
    }

    #[test]
    fn verdict_accounts_for_lost_ranks_in_a_degraded_gather() {
        let truth = GroundTruth {
            class_count: (2, 3),
            isolations: vec![Isolation {
                frame: "do_SendOrStall",
                ranks: vec![1],
            }],
            ubiquitous_frame: None,
            never_coincide: vec![],
        };
        let mut d = diagnosis(
            vec![
                (vec!["main", "do_SendOrStall"], vec![1]),
                (vec!["main", "PMPI_Barrier"], (2..12).collect()),
            ],
            16,
        );
        // Ranks 0 and 12..16 were on pruned daemons: coverage must still pass.
        d.lost_ranks = vec![0, 12, 13, 14, 15];
        assert!(truth.check("t", &d).passed(), "{}", truth.check("t", &d));
    }

    #[test]
    fn verdict_detects_poisoned_paths() {
        let truth = GroundTruth {
            class_count: (1, 8),
            isolations: vec![],
            ubiquitous_frame: None,
            never_coincide: vec![("???", "main")],
        };
        let poisoned = diagnosis(vec![(vec!["main", "???", "0xdead"], (0..4).collect())], 4);
        let verdict = truth.check("t", &poisoned);
        assert!(!verdict.passed());
        assert!(verdict.failures().iter().any(|c| c.name == "no-poison"));
        assert!(verdict.summary().contains("no-poison"));
    }

    #[test]
    fn ground_truth_exposes_the_faulty_ranks() {
        let truth = GroundTruth {
            class_count: (3, 8),
            isolations: vec![
                Isolation {
                    frame: "a",
                    ranks: vec![5, 1],
                },
                Isolation {
                    frame: "b",
                    ranks: vec![2, 1],
                },
            ],
            ubiquitous_frame: None,
            never_coincide: vec![],
        };
        assert_eq!(truth.faulty_ranks(), vec![1, 2, 5]);
        assert!(truth.is_faulty(2));
        assert!(!truth.is_faulty(3));
        assert_eq!(truth.distinguishing_frame(), Some("a"));
    }
}
