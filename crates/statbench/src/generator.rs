//! Synthetic trace generation.
//!
//! STATBench's key idea is that, for evaluating the *tool*, the application can be
//! replaced by a trace generator with a handful of knobs: how deep the stacks are,
//! how many distinct behaviour (equivalence) classes exist, where in the stack the
//! classes diverge, and how the classes are spread over the tasks.  Those knobs span
//! the space between STAT's best case (every task identical — the merged tree is one
//! path) and its worst case (every task different — the merged tree is as wide as the
//! job).
//!
//! The generator runs once, when a [`SyntheticApp`] is built: every distinct path
//! of the shape goes into one `appsim` [`Rule`] table, its frame names interned
//! then, so sampling a task is a lookup that lends a path, as for every other
//! simulated application.

use appsim::{Application, Ranks, Rule};

/// The shape knobs of a synthetic workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceShape {
    /// Frames in every trace (stack depth).
    pub depth: u32,
    /// Number of distinct behaviour classes across the job.
    pub classes: u32,
    /// Depth at which classes diverge: frames above this are shared by every task
    /// (the common `_start → main → solver …` spine), frames below differ per class.
    pub divergence_depth: u32,
    /// How many of the trailing frames vary *per sample* (models progress-engine
    /// polling noise; 0 makes every sample identical).
    pub temporal_frames: u32,
}

impl TraceShape {
    /// The shape STATBench used as its default: moderately deep stacks, a shared
    /// spine, and a handful of classes.
    pub fn typical() -> Self {
        TraceShape {
            depth: 16,
            classes: 8,
            divergence_depth: 10,
            temporal_frames: 2,
        }
    }

    /// The tool's best case: one class, no temporal variation.
    pub fn best_case(depth: u32) -> Self {
        TraceShape {
            depth,
            classes: 1,
            divergence_depth: depth,
            temporal_frames: 0,
        }
    }

    /// The tool's adversarial case: every task its own class.
    pub fn worst_case(depth: u32, tasks: u32) -> Self {
        TraceShape {
            depth,
            classes: tasks.max(1),
            divergence_depth: depth / 2,
            temporal_frames: 1,
        }
    }

    fn clamped(self) -> Self {
        let depth = self.depth.max(2);
        TraceShape {
            depth,
            classes: self.classes.max(1),
            divergence_depth: self.divergence_depth.clamp(1, depth),
            // A sample catches the polling chain at most 3 frames deep.
            temporal_frames: self.temporal_frames.min(depth / 2).min(3),
        }
    }
}

/// A synthetic application generating traces of a given shape.
///
/// Frame names are drawn from a fixed synthetic vocabulary (`spine_k`, `class_c_k`,
/// `poll_v`) so that the number of *distinct* frames — and therefore the size of the
/// frame table travelling with each packet — is controlled by the shape, not by the
/// job size, just as in the real tool.  The names are interned and the paths built
/// once, by [`SyntheticApp::new`]: one path per class and polling depth, which
/// [`Application::call_path`] lends.
#[derive(Clone, Debug)]
pub struct SyntheticApp {
    tasks: u64,
    shape: TraceShape,
    paths: Rule,
}

impl SyntheticApp {
    /// A synthetic job of `tasks` tasks with the given trace shape.
    pub fn new(tasks: u64, shape: TraceShape) -> Self {
        let shape = shape.clamped();
        let (divergence, temporal) = (shape.divergence_depth, shape.temporal_frames);
        // One path per class and polling depth: the shared spine, the class's own
        // frames, then the polling chain caught 1 to `temporal` frames deep (or not
        // at all), so every shallower variant is a prefix of the deepest one — the
        // same structure the ring test's progress engine produces.
        let path = |class, depth| -> Vec<_> {
            let spine = (0..divergence).map(|level| Self::frame_name("spine", level, 0));
            let own = divergence..shape.depth.saturating_sub(temporal);
            let own = own.map(|level| Self::frame_name("class", class, level));
            let polls = (0..depth).map(|k| Self::frame_name("poll", k, 0));
            spine.chain(own).chain(polls).collect()
        };
        let (classes, caught) = (u64::from(shape.classes), temporal.max(1));
        let depths = move |class| (1..=caught).map(move |depth| path(class, depth.min(temporal)));
        let paths = (0..shape.classes).flat_map(depths).collect();
        // Classes stripe over ranks; sample `s` is caught `1 + s % 3` deep, at most `temporal`.
        let pick = move |rank: u64, _, sample: u32| {
            (rank % classes) as usize * caught as usize + (sample % 3).min(caught - 1) as usize
        };
        SyntheticApp {
            tasks: tasks.max(1),
            shape,
            paths: Rule::new(Ranks::All, paths).picked(pick),
        }
    }

    /// The shape in effect (after clamping).
    pub fn shape(&self) -> TraceShape {
        self.shape
    }

    /// The behaviour class of a rank: classes are striped over ranks, matching
    /// STATBench's uniform spread.
    pub fn class_of(&self, rank: u64) -> u32 {
        (rank % self.shape.classes as u64) as u32
    }

    fn frame_name(kind: &str, a: u32, b: u32) -> &'static str {
        // Synthetic frame names must be 'static for the Application trait; an app
        // interns them when it is built, in a process-wide leak-once table.  The
        // vocabulary is bounded by the shape, so the leak is bounded and shared.
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        type NameTable = Mutex<HashMap<(String, u32, u32), &'static str>>;
        static NAMES: OnceLock<NameTable> = OnceLock::new();
        let table = NAMES.get_or_init(|| Mutex::new(HashMap::new()));
        let mut table = table.lock().expect("frame-name table lock");
        let key = (kind.to_string(), a, b);
        if let Some(&name) = table.get(&key) {
            return name;
        }
        let name: &'static str = Box::leak(format!("{kind}_{a}_{b}").into_boxed_str());
        table.insert(key, name);
        name
    }
}

impl Application for SyntheticApp {
    fn name(&self) -> &str {
        "statbench_synthetic"
    }

    fn num_tasks(&self) -> u64 {
        self.tasks
    }

    fn frame_hints(&self) -> Vec<&'static str> {
        let shape = self.shape;
        let mut hints = Vec::new();
        for level in 0..shape.divergence_depth {
            hints.push(Self::frame_name("spine", level, 0));
        }
        // Hinting is best-effort: cap the per-class enumeration so adversarial
        // many-class shapes don't pre-intern an unbounded vocabulary — unhinted
        // class frames simply ship as incremental dictionary records.
        for class in 0..shape.classes.min(256) {
            for level in shape.divergence_depth..shape.depth.saturating_sub(shape.temporal_frames) {
                hints.push(Self::frame_name("class", class, level));
            }
        }
        for k in 0..shape.temporal_frames {
            hints.push(Self::frame_name("poll", k, 0));
        }
        hints
    }

    fn call_path(&self, rank: u64, thread: u32, sample_index: u32) -> &[&'static str] {
        self.paths.path(rank, thread, sample_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::{Cluster, PlacementPlan};
    use stat_core::prelude::{Representation, Session, SessionReport};
    use tbon::topology::TreeShape;

    #[test]
    fn traces_have_the_requested_depth() {
        // More temporal frames than a sample can catch are clamped to the 3 it can.
        let deep_polling = TraceShape {
            temporal_frames: 5,
            ..TraceShape::typical()
        };
        for shape in [TraceShape::typical(), deep_polling] {
            let app = SyntheticApp::new(100, shape);
            // The deepest sample of the polling chain reaches the full requested
            // depth; shallower samples are prefixes of it.
            let deepest = (0..3)
                .map(|s| app.main_thread_path(0, s).len())
                .max()
                .unwrap();
            assert_eq!(deepest as u32, app.shape().depth);
            let shallowest = (0..3)
                .map(|s| app.main_thread_path(0, s).len())
                .min()
                .unwrap();
            assert!(shallowest as u32 >= app.shape().depth - app.shape().temporal_frames);
            // Every hinted polling frame is one a path contains.
            let walked: std::collections::HashSet<&str> = (0..3)
                .flat_map(|s| app.main_thread_path(0, s).iter().copied())
                .collect();
            let hints = app.frame_hints();
            let mut polls = hints.iter().filter(|h| h.starts_with("poll"));
            assert!(polls.all(|h| walked.contains(h)), "{shape:?}");
        }
    }

    /// The generator as it ran per trace before the table: the spine, the class's
    /// frames and the polling chain caught `1 + s % 3` deep, name by name.
    fn reference_path(app: &SyntheticApp, rank: u64, sample_index: u32) -> Vec<&'static str> {
        let shape = app.shape();
        let class = app.class_of(rank);
        let mut path = Vec::with_capacity(shape.depth as usize);
        for level in 0..shape.divergence_depth {
            path.push(SyntheticApp::frame_name("spine", level, 0));
        }
        for level in shape.divergence_depth..shape.depth.saturating_sub(shape.temporal_frames) {
            path.push(SyntheticApp::frame_name("class", class, level));
        }
        if shape.temporal_frames > 0 {
            let reps = (1 + sample_index % 3).min(shape.temporal_frames);
            for k in 0..reps {
                path.push(SyntheticApp::frame_name("poll", k, 0));
            }
        }
        path
    }

    #[test]
    fn the_lent_paths_are_the_generated_paths() {
        // Every shape statbench runs: the default, both extremes, the class counts
        // the sweeps and the emulation tests use, and the shapes the clamp fixes.
        let mut shapes = vec![
            TraceShape::typical(),
            TraceShape::best_case(12),
            TraceShape::worst_case(12, 200),
            TraceShape::worst_case(10, 128),
            TraceShape {
                temporal_frames: 5,
                ..TraceShape::typical()
            },
            TraceShape {
                depth: 0,
                classes: 0,
                divergence_depth: 99,
                temporal_frames: 99,
            },
        ];
        for temporal_frames in 0..4 {
            shapes.push(TraceShape {
                temporal_frames,
                ..TraceShape::typical()
            });
        }
        for classes in [1, 2, 3, 4, 6, 8, 16, 64, 256, 1_000, 1_024] {
            shapes.push(TraceShape {
                classes,
                ..TraceShape::typical()
            });
        }
        for shape in shapes {
            let app = SyntheticApp::new(4_096, shape);
            let classes = u64::from(app.shape().classes);
            let ranks = (0..2 * classes + 3).chain([4_095, 1 << 40]);
            for rank in ranks {
                for sample in 0..6 {
                    let lent = app.call_path(rank, 0, sample);
                    // Lent from the table: a second call returns the same slice.
                    assert!(std::ptr::eq(lent, app.call_path(rank, 0, sample)));
                    assert_eq!(
                        lent,
                        reference_path(&app, rank, sample),
                        "{shape:?} {rank} {sample}"
                    );
                }
            }
        }
    }

    #[test]
    fn class_count_controls_distinct_paths() {
        for classes in [1u32, 4, 16] {
            let shape = TraceShape {
                classes,
                ..TraceShape::typical()
            };
            let app = SyntheticApp::new(256, shape);
            let distinct: std::collections::HashSet<&[&str]> =
                (0..256).map(|r| app.main_thread_path(r, 0)).collect();
            assert_eq!(distinct.len() as u32, classes);
        }
    }

    #[test]
    fn spine_is_shared_across_classes() {
        let app = SyntheticApp::new(64, TraceShape::typical());
        let a = app.main_thread_path(0, 0);
        let b = app.main_thread_path(1, 0);
        let shared = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
        assert_eq!(shared as u32, app.shape().divergence_depth);
    }

    #[test]
    fn temporal_frames_vary_with_the_sample_index() {
        let shape = TraceShape {
            temporal_frames: 2,
            ..TraceShape::typical()
        };
        let app = SyntheticApp::new(8, shape);
        let s0 = app.main_thread_path(3, 0);
        let s1 = app.main_thread_path(3, 1);
        assert_ne!(s0, s1);
        // The shallower sample is a prefix of the deeper one.
        assert_eq!(&s1[..s0.len()], s0);
    }

    #[test]
    fn best_and_worst_cases_bracket_the_class_count() {
        let best = SyntheticApp::new(1_000, TraceShape::best_case(12));
        let distinct_best: std::collections::HashSet<&[&str]> =
            (0..1_000).map(|r| best.main_thread_path(r, 0)).collect();
        assert_eq!(distinct_best.len(), 1);

        let worst = SyntheticApp::new(200, TraceShape::worst_case(12, 200));
        let distinct_worst: std::collections::HashSet<&[&str]> =
            (0..200).map(|r| worst.main_thread_path(r, 0)).collect();
        assert_eq!(distinct_worst.len(), 200);
    }

    #[test]
    fn degenerate_shapes_are_clamped_not_panicking() {
        let app = SyntheticApp::new(
            4,
            TraceShape {
                depth: 0,
                classes: 0,
                divergence_depth: 99,
                temporal_frames: 99,
            },
        );
        let path = app.main_thread_path(0, 0);
        assert!(path.len() >= 2);
    }

    /// Attach a synthetic job through the real pipeline, over the placement-rule
    /// overlay of the given depth on a 64-node machine.
    fn emulate(
        tasks: u64,
        shape: TraceShape,
        representation: Representation,
        depth: u32,
    ) -> SessionReport {
        let cluster = Cluster::test_cluster(64, 8);
        let plan = PlacementPlan::for_job(&cluster, tasks);
        Session::builder(cluster)
            .representation(representation)
            .topology(TreeShape::for_placement(&plan, depth))
            .build()
            .attach(&SyntheticApp::new(tasks, shape))
            .expect("the emulation merges cleanly")
    }

    #[test]
    fn best_case_merged_tree_is_one_path() {
        let hier = Representation::HierarchicalTaskList;
        let report = emulate(256, TraceShape::best_case(12), hier, 2);
        assert_eq!(report.gather.classes.len(), 1);
        // Root + 12 frames.
        assert_eq!(report.gather.tree_3d.node_count(), 13);
    }

    #[test]
    fn worst_case_merged_tree_grows_with_tasks() {
        let hier = Representation::HierarchicalTaskList;
        let report = emulate(128, TraceShape::worst_case(10, 128), hier, 3);
        assert_eq!(report.gather.classes.len(), 128);
        assert!(report.gather.tree_3d.node_count() > 128);
    }

    #[test]
    fn representations_agree_on_classes_but_not_on_bytes() {
        let shape = TraceShape::typical();
        let dense = emulate(1_024, shape, Representation::GlobalBitVector, 2);
        let hier = emulate(1_024, shape, Representation::HierarchicalTaskList, 2);
        assert_eq!(dense.gather.classes.len(), hier.gather.classes.len());
        assert!(dense.gather.metrics.total_link_bytes > hier.gather.metrics.total_link_bytes);
        assert!(dense.max_daemon_packet_bytes > hier.max_daemon_packet_bytes);
    }
}
