//! Workloads as rule tables.
//!
//! STAT observes nothing but call paths, so a simulated application is fully
//! described by which path each (rank, thread, sample) is caught in.  A
//! [`RuleApp`] states exactly that as an ordered table of [`Rule`]s: the first
//! rule covering a rank's thread picks one of its paths for the sample.  A fault
//! rule also names the frame that must isolate its ranks, so
//! [`RuleApp::ground_truth`] is computed from the very rows that inject the fault
//! — the workload and the verdict checker's expectation cannot drift apart.
//!
//! Every workload of the suite is a constructor that returns a table.  Besides
//! the paper's ring hang ([`crate::ring::RingHangApp`]) the suite needs a job where
//! *everything* is equivalent ([`all_equivalent`], the best case for prefix-tree
//! compression), ranks spread over many kernels ([`compute_spread`], the worst
//! case), a message deadlock ([`deadlock_pair`]), a multithreaded job for the
//! Section VII projection ([`threaded`]), time-evolving jobs whose 2D and 3D trees
//! disagree ([`iterative_solver`], [`stragglers`], [`checkpoint_storm`]), the
//! adversarial scenario workloads ([`io_storm`], [`os_noise`],
//! [`collective_mismatch`], [`corrupted_stacks`]) and the randomized campaign's
//! [`random_fault`].

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::app::Application;
use crate::scenario::{GroundTruth, Isolation};
use crate::vocab::FrameVocabulary;

/// A deterministic 64-bit mix used by the jitter/corruption workloads, so that
/// "random" sampling artifacts are reproducible run to run (a hard requirement of
/// [`Application::call_path`]).
fn mix(rank: u64, sample: u32) -> u64 {
    let mut x = rank
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((sample as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    x
}

/// The ranks a [`Rule`] covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ranks {
    /// Every rank.
    All,
    /// The listed ranks.
    List(Vec<u64>),
    /// Every rank from the given one on.
    From(u64),
    /// Every rank `r` with `r % modulus == residue` (none when `modulus` is 0).
    Residue {
        /// The divisor.
        modulus: u64,
        /// The remainder a covered rank leaves.
        residue: u64,
    },
}

impl Ranks {
    fn contains(&self, rank: u64) -> bool {
        match self {
            Ranks::All => true,
            Ranks::List(ranks) => ranks.contains(&rank),
            Ranks::From(first) => rank >= *first,
            Ranks::Residue { modulus, residue } => rank.checked_rem(*modulus) == Some(*residue),
        }
    }

    /// Every rank below `tasks` this covers, ascending.
    fn candidates(&self, tasks: u64) -> Box<dyn Iterator<Item = u64>> {
        match *self {
            Ranks::All => Box::new(0..tasks),
            Ranks::List(ref ranks) => {
                let listed: BTreeSet<u64> = ranks.iter().copied().filter(|&r| r < tasks).collect();
                Box::new(listed.into_iter())
            }
            Ranks::From(first) => Box::new(first..tasks),
            Ranks::Residue { modulus, residue } => {
                let stride = usize::try_from(modulus).map_or(usize::MAX, |m| m.max(1));
                let stepped = (residue..tasks).step_by(stride);
                Box::new(stepped.take_while(move |_| residue < modulus))
            }
        }
    }
}

/// One row of a [`RuleApp`]: which ranks' threads it covers, the distinct paths
/// they are caught in (built once), which path a sample sees and — for a fault —
/// the frame that must isolate the ranks the row decides.
#[derive(Clone)]
pub struct Rule {
    ranks: Ranks,
    workers: bool,
    paths: Vec<Box<[&'static str]>>,
    pick: Arc<dyn Fn(u64, u32, u32) -> usize + Send + Sync>,
    isolated_by: Option<&'static str>,
}

impl Rule {
    /// The main threads of `ranks`, caught in `paths` (outermost frame first) in
    /// turn: sample `s` sees `paths[s % paths.len()]`.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty.
    pub fn new(ranks: Ranks, paths: Vec<Vec<&'static str>>) -> Rule {
        assert!(!paths.is_empty(), "a rule needs at least one path");
        Rule {
            ranks,
            workers: false,
            paths: paths.into_iter().map(Vec::into_boxed_slice).collect(),
            pick: Arc::new(|_, _, sample| sample as usize),
            isolated_by: None,
        }
    }

    /// Pick the path from `(rank, thread, sample)` instead, modulo the path count.
    pub fn picked(self, pick: impl Fn(u64, u32, u32) -> usize + Send + Sync + 'static) -> Rule {
        Rule {
            pick: Arc::new(pick),
            ..self
        }
    }

    /// Cover the worker threads (every thread but 0) instead of the main thread.
    pub fn on_workers(self) -> Rule {
        Rule {
            workers: true,
            ..self
        }
    }

    /// Make this row an injected fault: `frame` must isolate exactly its ranks.
    pub fn isolated_by(self, frame: &'static str) -> Rule {
        Rule {
            isolated_by: Some(frame),
            ..self
        }
    }

    /// The path `(rank, thread, sample)` is caught in, lent from the row's table.
    pub fn path(&self, rank: u64, thread: u32, sample: u32) -> &[&'static str] {
        &self.paths[(self.pick)(rank, thread, sample) % self.paths.len()]
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rule")
            .field("ranks", &self.ranks)
            .field("workers", &self.workers)
            .field("paths", &self.paths)
            .field("isolated_by", &self.isolated_by)
            .finish_non_exhaustive()
    }
}

/// A simulated application as an ordered rule table: the first [`Rule`] covering
/// a rank's thread decides the path each sample catches it in (a thread no rule
/// covers shows an empty path).  Besides the rules, the table holds what the
/// rules cannot say: the band of classes the merged tree should show, a frame
/// every class must carry, and frame pairs no class may carry together.
#[derive(Clone, Debug)]
pub struct RuleApp {
    name: &'static str,
    tasks: u64,
    threads: u32,
    vocab: FrameVocabulary,
    rules: Vec<Rule>,
    class_count: (usize, usize),
    ubiquitous_frame: Option<&'static str>,
    never_coincide: Vec<(&'static str, &'static str)>,
}

impl RuleApp {
    /// A single-threaded `tasks`-rank table whose merged tree should show a
    /// `class_count` (inclusive) band of classes, hinting `vocab`'s frames.
    pub fn new(
        name: &'static str,
        tasks: u64,
        vocab: FrameVocabulary,
        class_count: (usize, usize),
        rules: Vec<Rule>,
    ) -> RuleApp {
        RuleApp {
            name,
            tasks,
            threads: 1,
            vocab,
            rules,
            class_count,
            ubiquitous_frame: None,
            never_coincide: Vec::new(),
        }
    }

    /// The index of the rule deciding `thread` of `rank`.
    fn rule_for(&self, rank: u64, thread: u32) -> Option<usize> {
        self.rules
            .iter()
            .position(|rule| rule.workers == (thread > 0) && rule.ranks.contains(rank))
    }

    /// The machine-checkable expectation, computed from the table: one
    /// [`Isolation`] per fault rule in rule order, holding the ranks that rule
    /// decides (of its own ranks, those no earlier rule takes), plus the table's
    /// class band, ubiquitous frame and never-coincide pairs.
    pub fn ground_truth(&self) -> GroundTruth {
        let isolations = self.rules.iter().enumerate().filter_map(|(index, rule)| {
            let thread = u32::from(rule.workers);
            let decided = |&rank: &u64| self.rule_for(rank, thread) == Some(index);
            Some(Isolation {
                frame: rule.isolated_by?,
                ranks: rule.ranks.candidates(self.tasks).filter(decided).collect(),
            })
        });
        GroundTruth {
            class_count: self.class_count,
            isolations: isolations.collect(),
            ubiquitous_frame: self.ubiquitous_frame,
            never_coincide: self.never_coincide.clone(),
        }
    }
}

impl Application for RuleApp {
    fn name(&self) -> &str {
        self.name
    }
    fn num_tasks(&self) -> u64 {
        self.tasks
    }
    fn threads_per_task(&self) -> u32 {
        self.threads
    }
    fn frame_hints(&self) -> Vec<&'static str> {
        self.vocab.dictionary_hints()
    }

    fn call_path(&self, rank: u64, thread: u32, sample: u32) -> &[&'static str] {
        self.rule_for(rank, thread)
            .map_or(&[], |index| self.rules[index].path(rank, thread, sample))
    }
}

/// `start → main → parts…`: the shape of every main-thread path.
pub(crate) fn main_path(v: FrameVocabulary, parts: &[&[&'static str]]) -> Vec<&'static str> {
    let mut path = vec![v.start(), v.main()];
    for part in parts {
        path.extend_from_slice(part);
    }
    path
}

/// The barrier entry point over the platform's implementation of it.
fn barrier(v: FrameVocabulary) -> Vec<&'static str> {
    [&[v.barrier()][..], v.barrier_impl()].concat()
}

/// The healthy crowd around a fault: in the barrier, caught inside the progress
/// engine every other sample.
fn barrier_crowd(v: FrameVocabulary) -> Rule {
    let paths = vec![
        main_path(v, &[&barrier(v), v.progress_impl()]),
        main_path(v, &[&barrier(v)]),
    ];
    Rule::new(Ranks::All, paths)
}

/// `count` ranks spread evenly past rank 0 (so the fault is not confused with
/// "the first daemon is slow"), at least one and at most all the others.
fn spread_past_zero(tasks: u64, count: u64) -> Ranks {
    let count = count.clamp(1, tasks - 1);
    let stride = ((tasks - 1) / count).max(1);
    Ranks::List(
        (0..count)
            .map(|i| (1 + i * stride).min(tasks - 1))
            .collect(),
    )
}

/// Every rank waiting in the barrier: the ideal case for STAT, whose merged tree
/// is a single path no matter how many tasks participate.
pub fn all_equivalent(tasks: u64, vocab: FrameVocabulary) -> RuleApp {
    let v = vocab;
    let everyone = Rule::new(
        Ranks::All,
        vec![main_path(v, &[&barrier(v), v.progress_impl()])],
    );
    RuleApp {
        ubiquitous_frame: Some(v.barrier()),
        ..RuleApp::new("all_equivalent", tasks.max(1), v, (1, 1), vec![everyone])
    }
}

/// Ranks dealt round robin over `classes` compute kernels — the adversarial case
/// where the merged tree is wide and every edge label matters.  Classes past the
/// kernel list carry a `phase_extra` marker once per lap, so every requested
/// class is distinct.
pub fn compute_spread(tasks: u64, classes: u32, vocab: FrameVocabulary) -> RuleApp {
    let v = vocab;
    let tasks = tasks.max(1);
    let classes = u64::from(classes.max(1));
    let kernels = v.compute_kernels();
    let rules = (0..classes)
        .map(|class| {
            let class_index = class as usize;
            let kernel = ["timestep_loop", kernels[class_index % kernels.len()]];
            let laps = vec!["phase_extra"; class_index / kernels.len()];
            // Alternate between the kernel body and a nested helper over time so
            // the 3D tree has temporal structure too.
            let paths = vec![
                main_path(v, &[&kernel, &laps]),
                main_path(v, &[&kernel, &["stencil_inner"], &laps]),
            ];
            let ranks = Ranks::Residue {
                modulus: classes,
                residue: class,
            };
            Rule::new(ranks, paths)
        })
        .collect();
    let shown = classes.min(tasks) as usize;
    RuleApp::new("compute_spread", tasks, v, (shown, shown), rules)
}

/// Ranks 0 and 1 deadlocked against each other in blocking receives; everyone
/// else is in the barrier.  A classic "needs a debugger" situation distinct from
/// the ring hang.
pub fn deadlock_pair(tasks: u64, vocab: FrameVocabulary) -> RuleApp {
    let v = vocab;
    let recv = main_path(v, &[&["exchange_halo", "PMPI_Recv"], v.progress_impl()]);
    let pair = Rule::new(Ranks::List(vec![0, 1]), vec![recv]).isolated_by("PMPI_Recv");
    // The barrier crowd plus the receive class; one extra for shallow sampling
    // that has not yet fanned the progress frames out.
    let rules = vec![pair, barrier_crowd(v)];
    RuleApp::new("deadlock_pair", tasks.max(2), v, (2, 3), rules)
}

/// Each rank runs one MPI thread plus `worker_threads` OpenMP-style workers —
/// the Section VII projection, where threads multiply the data volume the tool
/// must collect and merge.
pub fn threaded(tasks: u64, worker_threads: u32, vocab: FrameVocabulary) -> RuleApp {
    let v = vocab;
    let worker = |region: &[&'static str]| [&[v.start()][..], v.thread_entry(), region].concat();
    let rules = vec![
        Rule::new(Ranks::All, vec![main_path(v, &[&barrier(v)])]),
        // Workers split between two regions by rank, thread and time, so threads
        // genuinely multiply the distinct traces the tool must manage.
        Rule::new(
            Ranks::All,
            vec![
                worker(&["omp_region_a", "dgemm_kernel"]),
                worker(&["omp_region_b", "halo_pack"]),
            ],
        )
        .on_workers()
        .picked(|rank, thread, sample| (rank + u64::from(thread) + u64::from(sample)) as usize),
    ];
    RuleApp {
        threads: 1 + worker_threads,
        ..RuleApp::new("threaded_hybrid", tasks.max(1), v, (1, 2), rules)
    }
}

/// A shared-filesystem I/O storm: `stuck_count` ranks wedged opening a restart
/// file over NFS (the metadata server serialises them away) while the rest of the
/// job has opened its file and waits in the barrier — the application-side
/// cousin of the paper's Section VI lesson.
pub fn io_storm(tasks: u64, stuck_count: u64, vocab: FrameVocabulary) -> RuleApp {
    let v = vocab;
    let tasks = tasks.max(2);
    let open = [&["open_restart_file"][..], v.shared_fs_open_impl()].concat();
    // Every other sample catches the RPC retry sleep.
    let paths = vec![
        main_path(v, &[&open, &[v.shared_fs_retry()]]),
        main_path(v, &[&open]),
    ];
    let stuck = Rule::new(spread_past_zero(tasks, stuck_count), paths).isolated_by("MPI_File_open");
    let opened = main_path(v, &[&["open_restart_file"], &barrier(v)]);
    let rules = vec![stuck, Rule::new(Ranks::All, vec![opened])];
    RuleApp::new("io_storm", tasks, v, (2, 3), rules)
}

/// OS-noise jitter: a perfectly healthy compute job, except that about one sample
/// in 13 catches a rank inside an OS interrupt frame on top of the kernel.  There
/// is nothing to diagnose — every class must stay inside the kernel.
pub fn os_noise(tasks: u64, vocab: FrameVocabulary) -> RuleApp {
    let v = vocab;
    let kernel = main_path(
        v,
        &[&["timestep_loop", "compute_interior", "stencil_inner"]],
    );
    let noise = v.noise_frames();
    let noisy = noise.iter().map(|&frame| [&kernel[..], &[frame]].concat());
    let paths = std::iter::once(kernel.clone()).chain(noisy).collect();
    let jitter = Rule::new(Ranks::All, paths).picked(move |rank, _, sample| {
        let h = mix(rank, sample);
        if h.is_multiple_of(13) {
            1 + ((h >> 8) % noise.len() as u64) as usize
        } else {
            0
        }
    });
    RuleApp {
        ubiquitous_frame: Some("compute_interior"),
        // The undisturbed kernel class plus one class per noise frame the
        // sampling window happened to catch.
        ..RuleApp::new(
            "os_noise",
            tasks.max(1),
            v,
            (1, 1 + noise.len()),
            vec![jitter],
        )
    }
}

/// A collective mismatch: the middle rank entered `PMPI_Reduce` while the rest of
/// its communicator entered `PMPI_Allreduce`.  Every rank is "stuck in MPI", so
/// only the distinguishing frame separates the culprit from its victims.
pub fn collective_mismatch(tasks: u64, vocab: FrameVocabulary) -> RuleApp {
    let v = vocab;
    let tasks = tasks.max(2);
    let reduce = main_path(v, &[&["solve_timestep", "PMPI_Reduce"], v.progress_impl()]);
    let culprit = Rule::new(Ranks::List(vec![tasks / 2]), vec![reduce]).isolated_by("PMPI_Reduce");
    let allreduce = ["solve_timestep", "PMPI_Allreduce", "MPIR_Allreduce_impl"];
    let victims = main_path(v, &[&allreduce, v.progress_impl()]);
    let rules = vec![culprit, Rule::new(Ranks::All, vec![victims])];
    RuleApp::new("collective_mismatch", tasks, v, (2, 3), rules)
}

/// Corrupted stacks: `corrupt_count` ranks return an unwalkable `???` frame over a
/// garbage frame that varies from sample to sample.  The garbage ranks must be
/// quarantined under `???`, and the garbage must never graft onto the healthy
/// spine of the merged tree.
pub fn corrupted_stacks(tasks: u64, corrupt_count: u64, vocab: FrameVocabulary) -> RuleApp {
    let v = vocab;
    let tasks = tasks.max(2);
    let garbage = v.garbage_frames();
    let walks = garbage
        .iter()
        .map(|&frame| vec![v.unknown_frame(), frame])
        .collect();
    let corrupt = Rule::new(spread_past_zero(tasks, corrupt_count), walks)
        .picked(|rank, _, sample| mix(rank, sample) as usize)
        .isolated_by(v.unknown_frame());
    let healthy = Rule::new(Ranks::All, vec![main_path(v, &[&barrier(v)])]);
    RuleApp {
        never_coincide: vec![
            (v.unknown_frame(), v.main()),
            (v.unknown_frame(), v.barrier()),
        ],
        // The healthy barrier class plus up to one class per distinct garbage
        // frame the corrupted ranks emitted.
        ..RuleApp::new(
            "corrupted_stacks",
            tasks,
            v,
            (2, 2 + garbage.len()),
            vec![corrupt, healthy],
        )
    }
}

/// The fault archetypes a randomized campaign scenario can draw.  Each flavor
/// reuses the frame structure of one catalogue workload, so the randomized
/// population explores *placement* (which ranks, how many, at what scale) rather
/// than inventing new call-path shapes the merge was never specified to handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RandomFaultFlavor {
    /// Faulty ranks wedged before a send, like the paper's ring hang.
    SendStall,
    /// Faulty ranks stuck in blocking receives, like the deadlock pair.
    BlockedRecv,
    /// Faulty ranks wedged opening a shared file, like the I/O storm.
    WedgedOpen,
    /// Faulty ranks in the wrong collective, like the mismatch scenario.
    WrongCollective,
}

impl RandomFaultFlavor {
    /// All flavors, in the order the generator's RNG indexes them.
    pub const ALL: [RandomFaultFlavor; 4] = [
        RandomFaultFlavor::SendStall,
        RandomFaultFlavor::BlockedRecv,
        RandomFaultFlavor::WedgedOpen,
        RandomFaultFlavor::WrongCollective,
    ];

    /// Stable short label used in generated scenario names.
    pub fn label(self) -> &'static str {
        match self {
            RandomFaultFlavor::SendStall => "stall",
            RandomFaultFlavor::BlockedRecv => "recv",
            RandomFaultFlavor::WedgedOpen => "open",
            RandomFaultFlavor::WrongCollective => "collective",
        }
    }

    /// The frame that must isolate the faulty ranks for this flavor.
    pub fn distinguishing_frame(self, vocab: FrameVocabulary) -> &'static str {
        match self {
            RandomFaultFlavor::SendStall => vocab.send_stall(),
            RandomFaultFlavor::BlockedRecv => "PMPI_Recv",
            RandomFaultFlavor::WedgedOpen => "MPI_File_open",
            RandomFaultFlavor::WrongCollective => "PMPI_Reduce",
        }
    }
}

/// A randomized-campaign workload: `flavor` injected into `faulty_ranks` (clamped
/// past rank 0 and into the job, so the fault is not confused with "the first
/// daemon"; rank 1 when none are given) amid the barrier crowd.
pub fn random_fault(
    tasks: u64,
    vocab: FrameVocabulary,
    flavor: RandomFaultFlavor,
    faulty_ranks: Vec<u64>,
) -> RuleApp {
    let v = vocab;
    let tasks = tasks.max(16);
    let mut ranks: Vec<u64> = faulty_ranks
        .into_iter()
        .map(|r| r.clamp(1, tasks - 1))
        .collect();
    if ranks.is_empty() {
        ranks.push(1);
    }
    let (name, path) = match flavor {
        RandomFaultFlavor::SendStall => (
            "rand_stall",
            main_path(v, &[&["ring_step", v.send_stall()], v.progress_impl()]),
        ),
        RandomFaultFlavor::BlockedRecv => (
            "rand_recv",
            main_path(v, &[&["exchange_halo", "PMPI_Recv"], v.progress_impl()]),
        ),
        RandomFaultFlavor::WedgedOpen => (
            "rand_open",
            main_path(v, &[&["open_restart_file"], v.shared_fs_open_impl()]),
        ),
        RandomFaultFlavor::WrongCollective => (
            "rand_collective",
            main_path(v, &[&["solve_timestep", "PMPI_Reduce"], v.progress_impl()]),
        ),
    };
    let faulty =
        Rule::new(Ranks::List(ranks), vec![path]).isolated_by(flavor.distinguishing_frame(v));
    RuleApp::new(name, tasks, v, (2, 3), vec![faulty, barrier_crowd(v)])
}

/// A healthy iterative solver: every rank cycles compute → exchange → barrier,
/// one phase per `phase_length` samples.  No rank is stuck anywhere; the 3D tree
/// shows every rank in every phase, which is exactly how a user tells "working"
/// from "hung".
pub fn iterative_solver(tasks: u64, phase_length: u32, vocab: FrameVocabulary) -> RuleApp {
    let v = vocab;
    let phase_length = phase_length.max(1);
    let phases = vec![
        main_path(
            v,
            &[&["timestep_loop", "compute_interior", "stencil_inner"]],
        ),
        main_path(
            v,
            &[
                &["timestep_loop", "exchange_halo", "PMPI_Waitall"],
                v.progress_impl(),
            ],
        ),
        main_path(v, &[&["timestep_loop"], &barrier(v)]),
    ];
    // Ranks are slightly out of phase with each other, as in any real bulk-
    // synchronous code between barriers.
    let cycle = Rule::new(Ranks::All, phases)
        .picked(move |rank, _, sample| (sample / phase_length) as usize + (rank % 3) as usize);
    // A snapshot shows up to three phases; a long enough window shows one class.
    RuleApp::new("iterative_solver", tasks.max(1), v, (1, 3), vec![cycle])
}

/// `straggler_count` ranks (spread evenly from rank 0, at most the whole job)
/// still computing while the rest of the job waits in the barrier.  The paper's
/// equivalence-class strategy points the debugger straight at them.
pub fn stragglers(tasks: u64, straggler_count: u64, vocab: FrameVocabulary) -> RuleApp {
    let v = vocab;
    let tasks = tasks.max(1);
    let count = straggler_count.min(tasks);
    let stride = (tasks / count.max(1)).max(1);
    let compute = ["timestep_loop", "compute_interior"];
    // Every other sample catches the kernel in a cache-miss storm.
    let paths = vec![
        main_path(v, &[&compute, &["cache_miss_storm"]]),
        main_path(v, &[&compute]),
    ];
    let slow = Rule::new(Ranks::List((0..count).map(|i| i * stride).collect()), paths)
        .isolated_by("compute_interior");
    let waiting = main_path(v, &[&["timestep_loop"], &barrier(v)]);
    // The barrier crowd plus the straggler class; one extra when a single-sample
    // window splits the cache-miss frame off.
    let rules = vec![slow, Rule::new(Ranks::All, vec![waiting])];
    RuleApp::new("stragglers", tasks, v, (2, 3), rules)
}

/// A checkpoint storm: every rank past `completed_fraction` of the job (clamped
/// into `[0, 1]`) is still inside the I/O stack, serialising behind the parallel
/// file system, while the rest wait in the barrier.
///
/// # Panics
///
/// Panics if `completed_fraction` is NaN: it would otherwise flow through `clamp`
/// unchanged and silently make *every* rank a writer (`NaN as u64 == 0`), a
/// different workload than any the caller could have meant.
pub fn checkpoint_storm(tasks: u64, completed_fraction: f64, vocab: FrameVocabulary) -> RuleApp {
    assert!(
        !completed_fraction.is_nan(),
        "checkpoint_storm: completed_fraction must be a number in [0, 1], got NaN"
    );
    let v = vocab;
    let tasks = tasks.max(1);
    let cutoff = (tasks as f64 * completed_fraction.clamp(0.0, 1.0)) as u64;
    let write = [
        "write_checkpoint",
        "MPI_File_write_all",
        "ADIOI_GEN_WriteStridedColl",
    ];
    let paths = vec![
        main_path(v, &[&write]),
        main_path(v, &[&write, &["pwrite64"]]),
    ];
    let writers = Rule::new(Ranks::From(cutoff), paths).isolated_by("MPI_File_write_all");
    let done = main_path(v, &[&["write_checkpoint"], &barrier(v)]);
    let rules = vec![writers, Rule::new(Ranks::All, vec![done])];
    RuleApp::new("checkpoint_storm", tasks, v, (2, 3), rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::gather_samples_for_ranks;
    use crate::ring::RingHangApp;
    use crate::scenario::{catalogue, randomized_scenarios, FaultScenario};
    use stackwalk::FrameTable;
    use FrameVocabulary::{BlueGeneL, Linux};

    /// The per-rank scan `ground_truth` used to be: every rank through
    /// `rule_for`, once per fault rule.
    fn scanned_truth(app: &RuleApp) -> GroundTruth {
        let isolations = app.rules.iter().enumerate().filter_map(|(index, rule)| {
            let thread = u32::from(rule.workers);
            let ranks = (0..app.tasks).filter(|&rank| app.rule_for(rank, thread) == Some(index));
            Some(Isolation {
                frame: rule.isolated_by?,
                ranks: ranks.collect(),
            })
        });
        GroundTruth {
            class_count: app.class_count,
            isolations: isolations.collect(),
            ubiquitous_frame: app.ubiquitous_frame,
            never_coincide: app.never_coincide.clone(),
        }
    }

    #[test]
    fn the_candidate_ranks_give_the_scanned_truth() {
        for (tasks, v) in [
            (1_024, Linux),
            (1_024, BlueGeneL),
            (1_001, Linux),
            (1_001, BlueGeneL),
        ] {
            // The tables `catalogue` runs, by the name its scenarios start with.
            let tables = [
                ("ring_hang", RingHangApp::new(tasks, v).table),
                ("deadlock_pair", deadlock_pair(tasks, v)),
                ("stragglers", stragglers(tasks, 4, v)),
                ("checkpoint_storm", checkpoint_storm(tasks, 0.75, v)),
                ("io_storm", io_storm(tasks, 3, v)),
                ("os_noise", os_noise(tasks, v)),
                ("collective_mismatch", collective_mismatch(tasks, v)),
                ("corrupted_stacks", corrupted_stacks(tasks, 3, v)),
                ("all_equivalent", all_equivalent(tasks, v)),
            ];
            for scenario in catalogue(tasks, v) {
                let table = tables
                    .iter()
                    .find(|(name, _)| scenario.name.starts_with(name));
                let (_, table) = table.unwrap_or_else(|| panic!("no table for {}", scenario.name));
                let at = format!("{} at {tasks}", scenario.name);
                assert_eq!(table.ground_truth(), scenario.truth, "{at}");
                assert_eq!(table.ground_truth(), scanned_truth(table), "{at}");
            }
            for flavor in RandomFaultFlavor::ALL {
                let app = random_fault(tasks, v, flavor, vec![1, 3, tasks - 1]);
                assert_eq!(
                    app.ground_truth(),
                    scanned_truth(&app),
                    "{flavor:?} at {tasks}"
                );
            }
        }
    }

    #[test]
    fn a_shadowed_rule_isolates_only_the_ranks_it_decides() {
        let path = |frame| vec![vec!["_start", "main", frame]];
        let rule = |ranks, frame| Rule::new(ranks, path(frame)).isolated_by(frame);
        let rules = vec![
            rule(Ranks::List(vec![40, 5, 3]), "first"),
            // 5 is the first rule's.
            rule(
                Ranks::Residue {
                    modulus: 8,
                    residue: 5,
                },
                "residue",
            ),
            // Unsorted, repeated and past the job; 3 and 40 are the first rule's.
            rule(Ranks::List(vec![40, 7, 3, 7, 2_000, 99]), "listed"),
            // 40 is the first rule's, 45, 53 and 61 the residue rule's.
            rule(Ranks::From(38), "from"),
            rule(
                Ranks::Residue {
                    modulus: 0,
                    residue: 0,
                },
                "no modulus",
            ),
            rule(
                Ranks::Residue {
                    modulus: 4,
                    residue: 9,
                },
                "past its modulus",
            ),
            rule(Ranks::List(vec![2, 5]), "workers").on_workers(),
            rule(Ranks::All, "crowd"),
        ];
        let app = RuleApp {
            threads: 2,
            ..RuleApp::new("shadowed", 64, Linux, (1, 8), rules)
        };
        let truth = app.ground_truth();
        assert_eq!(truth, scanned_truth(&app));
        let ranks = |frame| {
            let isolation = truth.isolations.iter().find(|i| i.frame == frame);
            isolation.map(|i| i.ranks.clone()).unwrap_or_default()
        };
        assert_eq!(ranks("first"), [3, 5, 40]);
        assert_eq!(ranks("residue"), [13, 21, 29, 37, 45, 53, 61]);
        assert_eq!(ranks("listed"), [7]);
        let from: Vec<u64> = (38..64).filter(|r| ![40, 45, 53, 61].contains(r)).collect();
        assert_eq!(ranks("from"), from);
        assert!(ranks("no modulus").is_empty() && ranks("past its modulus").is_empty());
        assert_eq!(ranks("workers"), [2, 5]);
        assert_eq!(ranks("crowd").len(), 64 - 3 - 7 - 1 - from.len());
    }

    #[test]
    fn all_equivalent_has_one_class() {
        let app = all_equivalent(500, FrameVocabulary::Linux);
        let p0 = app.main_thread_path(0, 0);
        let p499 = app.main_thread_path(499, 0);
        assert_eq!(p0, p499);
    }

    #[test]
    fn compute_spread_produces_the_requested_classes() {
        let app = compute_spread(1_000, 5, FrameVocabulary::Linux);
        let mut leaves = std::collections::HashSet::new();
        for rank in 0..1_000 {
            leaves.insert(app.main_thread_path(rank, 0));
        }
        assert_eq!(leaves.len(), 5);
        let wide = compute_spread(100, 8, FrameVocabulary::Linux);
        let mut wide_leaves = std::collections::HashSet::new();
        for rank in 0..100 {
            wide_leaves.insert(wide.main_thread_path(rank, 0));
        }
        assert_eq!(
            wide_leaves.len(),
            8,
            "classes beyond the kernel list still distinct"
        );
    }

    #[test]
    fn compute_spread_yields_every_requested_class() {
        // Classes 5 and 10 used to share a path: past the kernel list every lap
        // added the same single marker.
        for classes in [5, 8, 10, 11, 16, 64] {
            let app = compute_spread(1_000, classes, Linux);
            let paths: std::collections::HashSet<&[&str]> = (0..1_000)
                .map(|rank| app.main_thread_path(rank, 0))
                .collect();
            assert_eq!(paths.len(), classes as usize, "{classes} classes requested");
        }
    }

    #[test]
    fn deadlock_pair_isolates_two_ranks() {
        let app = deadlock_pair(64, FrameVocabulary::Linux);
        let in_recv: Vec<u64> = (0..64)
            .filter(|&r| app.main_thread_path(r, 0).contains(&"PMPI_Recv"))
            .collect();
        assert_eq!(in_recv, vec![0, 1]);
    }

    #[test]
    fn threaded_app_multiplies_gathered_traces() {
        let app = threaded(8, 3, FrameVocabulary::Linux);
        assert_eq!(app.threads_per_task(), 4);
        let mut table = FrameTable::new();
        let samples = gather_samples_for_ranks(&app, 0..8, 2, &mut table);
        assert_eq!(samples.len(), 8);
        // 2 samples × 4 threads = 8 traces per task.
        assert!(samples.iter().all(|s| s.sample_count() == 8));
    }

    #[test]
    fn worker_threads_have_distinct_stacks_from_the_mpi_thread() {
        let app = threaded(4, 2, FrameVocabulary::BlueGeneL);
        let mpi = app.call_path(0, 0, 0);
        let worker = app.call_path(0, 1, 0);
        assert!(mpi.contains(&"PMPI_Barrier"));
        assert!(!worker.contains(&"PMPI_Barrier"));
        assert!(worker.contains(&"worker_main"));
    }

    #[test]
    fn deadlock_ranks_are_fed_from_the_ground_truth() {
        // Which ranks show `PMPI_Recv` is checked for every fault rule by
        // `every_fault_rule_is_isolated_by_its_frame`.
        let app = deadlock_pair(64, FrameVocabulary::Linux);
        assert_eq!(app.ground_truth().faulty_ranks().len(), 2);
    }

    #[test]
    fn io_storm_wedges_exactly_the_ground_truth_ranks() {
        let app = io_storm(1_000, 3, FrameVocabulary::Linux);
        let stuck = app.ground_truth().faulty_ranks();
        assert_eq!(stuck.len(), 3);
        for rank in 0..1_000 {
            let wedged = app.main_thread_path(rank, 0).contains(&"nfs_getattr_wait");
            assert_eq!(wedged, app.ground_truth().faulty_ranks().contains(&rank));
        }
        // Deterministic but time-varying: the retry frame alternates.
        assert_ne!(
            app.main_thread_path(stuck[0], 0),
            app.main_thread_path(stuck[0], 1)
        );
    }

    #[test]
    fn os_noise_is_sparse_deterministic_and_on_top_of_the_kernel() {
        let app = os_noise(2_048, FrameVocabulary::Linux);
        assert!(app.ground_truth().faulty_ranks().is_empty());
        let mut noisy = 0usize;
        for rank in 0..2_048 {
            let path = app.main_thread_path(rank, 0);
            assert_eq!(path[3], "compute_interior");
            assert_eq!(path, app.main_thread_path(rank, 0), "deterministic");
            if path.len() > 5 {
                noisy += 1;
                assert!(FrameVocabulary::Linux
                    .noise_frames()
                    .contains(path.last().unwrap()));
            }
        }
        // Roughly 1 in 13 samples is noisy: sparse, but present.
        assert!(noisy > 50 && noisy < 400, "noisy samples: {noisy}");
    }

    #[test]
    fn collective_mismatch_puts_one_rank_in_the_wrong_reduction() {
        let app = collective_mismatch(512, FrameVocabulary::BlueGeneL);
        assert_eq!(app.ground_truth().faulty_ranks(), vec![256]);
        let reducers: Vec<u64> = (0..512)
            .filter(|&r| app.main_thread_path(r, 0).contains(&"PMPI_Reduce"))
            .collect();
        assert_eq!(reducers, vec![256]);
        assert!(app.main_thread_path(0, 0).contains(&"PMPI_Allreduce"));
    }

    #[test]
    fn corrupted_stacks_emit_garbage_only_for_the_injected_ranks() {
        let app = corrupted_stacks(256, 3, FrameVocabulary::Linux);
        let corrupted = app.ground_truth().faulty_ranks();
        assert_eq!(corrupted.len(), 3);
        for rank in 0..256 {
            let path = app.main_thread_path(rank, 0);
            if app.ground_truth().faulty_ranks().contains(&rank) {
                assert_eq!(path[0], "???");
                assert!(FrameVocabulary::Linux.garbage_frames().contains(&path[1]));
            } else {
                assert_eq!(path[0], "_start");
                assert!(path.contains(&"PMPI_Barrier"));
            }
        }
        // Garbage varies over time (harder on the merge than a fixed bad frame).
        let corrupt = corrupted[0];
        let distinct: std::collections::HashSet<&[&str]> =
            (0..8).map(|s| app.main_thread_path(corrupt, s)).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn random_fault_app_is_driven_by_its_ground_truth() {
        for flavor in RandomFaultFlavor::ALL {
            let app = random_fault(128, FrameVocabulary::Linux, flavor, vec![3, 77, 3, 0]);
            // Rank 0 is clamped to 1, duplicates collapse.
            assert_eq!(app.ground_truth().faulty_ranks(), vec![1, 3, 77]);
            let frame = flavor.distinguishing_frame(FrameVocabulary::Linux);
            for rank in 0..128 {
                let flagged = app.main_thread_path(rank, 0).contains(&frame);
                assert_eq!(
                    flagged,
                    app.ground_truth().faulty_ranks().contains(&rank),
                    "{flavor:?}"
                );
            }
        }
    }

    #[test]
    fn random_fault_app_never_faults_an_empty_set() {
        let app = random_fault(
            64,
            FrameVocabulary::BlueGeneL,
            RandomFaultFlavor::SendStall,
            vec![],
        );
        assert_eq!(app.ground_truth().faulty_ranks(), vec![1]);
        assert!(app.main_thread_path(1, 0).contains(&"do_SendOrStall"));
    }

    #[test]
    fn corrupted_trees_still_gather_and_intern_cleanly() {
        // The poison test at the walker level: garbage frames intern like any
        // other name and never panic the gather.
        let app = corrupted_stacks(128, 2, FrameVocabulary::BlueGeneL);
        let mut table = FrameTable::new();
        let samples = gather_samples_for_ranks(&app, 0..128, 4, &mut table);
        assert_eq!(samples.len(), 128);
        assert!(table.len() < 32);
    }

    #[test]
    fn solver_tasks_visit_every_phase_over_time() {
        let app = iterative_solver(16, 1, FrameVocabulary::Linux);
        let mut phases = std::collections::HashSet::new();
        for sample in 0..6 {
            phases.insert(app.main_thread_path(5, sample)[3]);
        }
        assert_eq!(phases.len(), 3, "one rank moves through all three phases");
        // At any single instant the job spans several phases.
        let mut snapshot = std::collections::HashSet::new();
        for rank in 0..16 {
            snapshot.insert(app.main_thread_path(rank, 0)[3]);
        }
        assert!(snapshot.len() >= 2);
    }

    #[test]
    fn stragglers_are_exactly_the_configured_ranks() {
        let app = stragglers(1_000, 4, FrameVocabulary::Linux);
        let slow = app.ground_truth().faulty_ranks();
        assert_eq!(slow.len(), 4);
        for rank in 0..1_000 {
            let computing = app.main_thread_path(rank, 1).contains(&"compute_interior");
            assert_eq!(computing, slow.contains(&rank));
        }
    }

    #[test]
    fn straggler_count_is_clamped_to_the_job() {
        let app = stragglers(4, 100, FrameVocabulary::Linux);
        assert!(app.ground_truth().faulty_ranks().len() <= 4);
    }

    #[test]
    fn checkpoint_storm_splits_writers_from_waiters() {
        let app = checkpoint_storm(100, 0.75, FrameVocabulary::Linux);
        let writers = (0..100)
            .filter(|&r| app.main_thread_path(r, 0).contains(&"MPI_File_write_all"))
            .count();
        assert_eq!(writers, 25);
        let extremes = checkpoint_storm(10, 2.0, FrameVocabulary::Linux);
        let writers = (0..10)
            .filter(|&r| {
                extremes
                    .main_thread_path(r, 0)
                    .contains(&"MPI_File_write_all")
            })
            .count();
        assert_eq!(writers, 0, "completed fraction clamps to 1.0");
    }

    #[test]
    fn checkpoint_storm_clamps_negative_fractions_to_zero() {
        // Regression: a negative fraction means "nobody finished" (everyone still
        // writing), not an out-of-range cutoff.
        let app = checkpoint_storm(10, -3.5, FrameVocabulary::Linux);
        let writers = (0..10)
            .filter(|&r| app.main_thread_path(r, 0).contains(&"MPI_File_write_all"))
            .count();
        assert_eq!(writers, 10);
        assert_eq!(
            app.ground_truth().faulty_ranks(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "completed_fraction must be a number")]
    fn checkpoint_storm_rejects_nan() {
        // Regression: NaN used to slip through `clamp` and silently make every
        // rank a writer; now it is rejected at construction.
        let _ = checkpoint_storm(10, f64::NAN, FrameVocabulary::Linux);
    }

    #[test]
    fn checkpoint_storm_ground_truth_matches_the_walked_paths() {
        let app = checkpoint_storm(100, 0.75, FrameVocabulary::Linux);
        let truth = app.ground_truth();
        for rank in 0..100 {
            let writing = app
                .main_thread_path(rank, 0)
                .contains(&"MPI_File_write_all");
            assert_eq!(writing, truth.faulty_ranks().contains(&rank));
        }
        assert_eq!(truth.faulty_ranks(), (75..100).collect::<Vec<_>>());
    }

    #[test]
    fn straggler_ranks_are_fed_from_the_ground_truth() {
        // Which ranks compute is checked for every fault rule by
        // `every_fault_rule_is_isolated_by_its_frame`.
        let app = stragglers(1_000, 4, FrameVocabulary::Linux);
        assert_eq!(
            app.ground_truth().distinguishing_frame(),
            Some("compute_interior")
        );
    }

    #[test]
    fn the_first_matching_rule_decides_and_the_truth_follows_it() {
        let v = Linux;
        let rules = vec![
            Rule::new(Ranks::List(vec![2]), vec![vec!["shadow"]]),
            Rule::new(
                Ranks::Residue {
                    modulus: 2,
                    residue: 0,
                },
                vec![vec!["a"], vec!["b"]],
            )
            .isolated_by("a"),
            Rule::new(Ranks::From(6), vec![vec!["late"]]).isolated_by("late"),
            Rule::new(
                Ranks::Residue {
                    modulus: 0,
                    residue: 0,
                },
                vec![vec!["never"]],
            ),
        ];
        let app = RuleApp::new("table", 8, v, (1, 4), rules);
        // Rank 2 is shadowed by the first row; rank 6 by the second.
        assert_eq!(app.call_path(2, 0, 0), ["shadow"]);
        assert_eq!(app.call_path(4, 0, 1), ["b"]);
        assert_eq!(app.call_path(7, 0, 0), ["late"]);
        // Nothing covers odd ranks below 6, nor any worker thread.
        assert!(app.call_path(3, 0, 0).is_empty());
        assert!(app.call_path(4, 1, 0).is_empty());
        let truth = app.ground_truth();
        assert_eq!(truth.isolations[0].ranks, [0, 4, 6]);
        assert_eq!(truth.isolations[1].ranks, [7]);
        assert_eq!(truth.class_count, (1, 4));
    }

    #[test]
    fn every_fault_rule_is_isolated_by_its_frame() {
        // The table invariant behind every computed truth: the ranks whose
        // paths show an isolation's frame are exactly that isolation's ranks.
        for vocab in [Linux, BlueGeneL] {
            for tasks in [64, 1_000] {
                let mut scenarios = catalogue(tasks, vocab);
                for seed in [1, 7, 42] {
                    scenarios.extend(randomized_scenarios(tasks, vocab, seed, 12));
                }
                for s in &scenarios {
                    let app = s.app.as_ref();
                    for isolation in &s.truth.isolations {
                        let shown: Vec<u64> = (0..app.num_tasks())
                            .filter(|&rank| {
                                (0..8).any(|sample| {
                                    (0..app.threads_per_task()).any(|thread| {
                                        app.call_path(rank, thread, sample)
                                            .contains(&isolation.frame)
                                    })
                                })
                            })
                            .collect();
                        assert_eq!(shown, isolation.ranks, "{} `{}`", s.name, isolation.frame);
                    }
                }
            }
        }
    }

    /// 64-bit FNV-1a fed field by field; each field ends with a 0xff byte, which
    /// no frame name contains.
    struct Fnv(u64);

    impl Fnv {
        fn field(&mut self, bytes: &[u8]) {
            for &byte in bytes.iter().chain(&[0xff]) {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// Everything an application shows the tool — name, size, threads, hints and
    /// the path of every thread of every rank at samples 0..13 — plus the `Debug`
    /// of its ground truth when it has one.
    fn digest(app: &dyn Application, truth: Option<&GroundTruth>) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.field(app.name().as_bytes());
        h.field(&app.num_tasks().to_le_bytes());
        h.field(&app.threads_per_task().to_le_bytes());
        for hint in app.frame_hints() {
            h.field(hint.as_bytes());
        }
        for rank in 0..app.num_tasks() {
            for sample in 0..13 {
                for thread in 0..app.threads_per_task() {
                    for frame in app.call_path(rank, thread, sample) {
                        h.field(frame.as_bytes());
                    }
                    h.field(b"");
                }
            }
        }
        if let Some(truth) = truth {
            h.field(format!("{truth:?}").as_bytes());
        }
        h.0
    }

    /// The pinned grid: the catalogue at four sizes and the randomized
    /// population at two, under both vocabularies, plus workloads the
    /// catalogue does not carry.
    fn pinned_grid() -> Vec<(String, u64)> {
        let scenarios_digest = |scenarios: Vec<FaultScenario>| {
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            for s in &scenarios {
                h.field(format!("{s:?}").as_bytes());
                h.field(&digest(s.app.as_ref(), Some(&s.truth)).to_le_bytes());
            }
            h.0
        };
        let mut grid = Vec::new();
        for vocab in [Linux, BlueGeneL] {
            for tasks in [16, 64, 1_000, 1_024] {
                let label = format!("catalogue {tasks} {vocab:?}");
                grid.push((label, scenarios_digest(catalogue(tasks, vocab))));
            }
            for tasks in [64, 1_000] {
                for seed in [1, 7, 42] {
                    let label = format!("randomized {tasks} {vocab:?} seed {seed}");
                    let population = randomized_scenarios(tasks, vocab, seed, 12);
                    grid.push((label, scenarios_digest(population)));
                }
            }
        }

        let mut pin = |label: &str, app: &dyn Application, truth: Option<GroundTruth>| {
            grid.push((label.to_string(), digest(app, truth.as_ref())));
        };
        pin("compute_spread 640/5", &compute_spread(640, 5, Linux), None);
        pin(
            "compute_spread 100/8",
            &compute_spread(100, 8, BlueGeneL),
            None,
        );
        pin(
            "compute_spread 1000/10",
            &compute_spread(1_000, 10, Linux),
            None,
        );
        pin("threaded 8/3", &threaded(8, 3, Linux), None);
        pin("threaded 256/3", &threaded(256, 3, BlueGeneL), None);
        pin(
            "iterative_solver 256/1",
            &iterative_solver(256, 1, Linux),
            None,
        );
        pin(
            "iterative_solver 64/3",
            &iterative_solver(64, 3, BlueGeneL),
            None,
        );
        let app = stragglers(4, 100, Linux);
        pin("stragglers 4/100", &app, Some(app.ground_truth()));
        let app = checkpoint_storm(10, 2.0, Linux);
        pin("checkpoint_storm 10/2.0", &app, Some(app.ground_truth()));
        let app = checkpoint_storm(10, -3.5, BlueGeneL);
        pin("checkpoint_storm 10/-3.5", &app, Some(app.ground_truth()));
        let app = RingHangApp::new(16, BlueGeneL).with_hung_rank(15);
        pin("ring_hang 16 hung 15", &app, Some(app.ground_truth()));
        let flavor = RandomFaultFlavor::WrongCollective;
        let app = random_fault(128, Linux, flavor, vec![3, 77, 3, 0]);
        pin(
            "random_fault collective 128",
            &app,
            Some(app.ground_truth()),
        );
        let app = corrupted_stacks(128, 2, BlueGeneL);
        pin("corrupted_stacks 128/2", &app, Some(app.ground_truth()));
        grid
    }

    #[test]
    fn workload_tables_are_pinned_to_the_pre_table_values() {
        // Recorded before the workloads became rule tables: every path every
        // workload shows the tool, and every ground truth, must stay the same.
        // Never re-record for a refactor.
        const PINNED: [(&str, u64); 33] = [
            ("catalogue 16 Linux", 0xdf8d_7d00_43c6_dd4f),
            ("catalogue 64 Linux", 0x955b_45db_4319_fd9e),
            ("catalogue 1000 Linux", 0x4fc7_ab04_6f9e_76ba),
            ("catalogue 1024 Linux", 0x1396_9e27_920c_8f18),
            ("randomized 64 Linux seed 1", 0x3778_d867_4148_f0ed),
            ("randomized 64 Linux seed 7", 0x452f_8b02_5117_29b0),
            ("randomized 64 Linux seed 42", 0xbc89_acdc_ed59_2501),
            ("randomized 1000 Linux seed 1", 0x8ddc_7f55_c180_29d4),
            ("randomized 1000 Linux seed 7", 0xff6a_8fa0_0850_48df),
            ("randomized 1000 Linux seed 42", 0xe0b1_2a1e_438c_98bc),
            ("catalogue 16 BlueGeneL", 0xe9bc_484e_d581_db16),
            ("catalogue 64 BlueGeneL", 0xbde8_82db_1b5b_038e),
            ("catalogue 1000 BlueGeneL", 0x9476_c319_f795_2315),
            ("catalogue 1024 BlueGeneL", 0x5564_79f2_cb36_7ef8),
            ("randomized 64 BlueGeneL seed 1", 0x6f53_587a_cca0_771a),
            ("randomized 64 BlueGeneL seed 7", 0x42d2_8f2c_e648_c04d),
            ("randomized 64 BlueGeneL seed 42", 0xb52d_e1d2_f5cd_3589),
            ("randomized 1000 BlueGeneL seed 1", 0xd994_98ab_b266_3497),
            ("randomized 1000 BlueGeneL seed 7", 0x1025_7468_2939_f0f2),
            ("randomized 1000 BlueGeneL seed 42", 0xa4a7_7fd4_8d6e_f2c4),
            ("compute_spread 640/5", 0x2f70_8ccc_1090_9f6d),
            ("compute_spread 100/8", 0xe3fd_1afe_b625_64bf),
            ("compute_spread 1000/10", 0xe848_43a1_e37d_76a8),
            ("threaded 8/3", 0x29a2_084e_df2c_10ad),
            ("threaded 256/3", 0x831a_06f7_cef8_f0ff),
            ("iterative_solver 256/1", 0x7ef5_bfe9_78ff_7447),
            ("iterative_solver 64/3", 0xe101_9428_22b6_893d),
            ("stragglers 4/100", 0x2ac5_ecd6_ba6c_8ee3),
            ("checkpoint_storm 10/2.0", 0x5de9_0c69_efa8_fbb4),
            ("checkpoint_storm 10/-3.5", 0x1b3c_4a8f_c8ab_3ece),
            ("ring_hang 16 hung 15", 0x1d7c_6008_f3f3_688b),
            ("random_fault collective 128", 0xeb2c_5ee4_cad4_2833),
            ("corrupted_stacks 128/2", 0x46d0_b9b7_a031_c442),
        ];
        let grid = pinned_grid();
        let got: Vec<(&str, u64)> = grid.iter().map(|(l, h)| (l.as_str(), *h)).collect();
        assert_eq!(got, PINNED, "{got:#x?}");
    }
}
