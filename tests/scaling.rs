//! Scaling laws of the front end, pinned as tests: the memory one attach's
//! classification, diagnosis and judgement allocate grows with the words its
//! classes keep, and has no per-task term.
//!
//! A behaviour class keeps its task set as packed words or as listed members,
//! whichever is fewer: `min(members, words)` words, where `words` is the size of
//! a job-wide task set.  The diagnosis copies each class's set, and the judge ORs
//! them into a job-wide set per check, so the bytes allocated by
//! `equivalence_classes` + `SessionReport::diagnosis` + `GroundTruth::check` are
//! at most [`BYTES_PER_WORD`] × (the classes' kept words + one job-wide set),
//! plus a fixed amount per class for its path and frame names.  Two sweeps hold
//! the law at its two ends:
//!
//! * the ring hang, a job-wide healthy crowd beside two singleton classes: a
//!   class that listed its members would add 8 B per task — 512 B per word —
//!   and fail the bound;
//! * 1,024 classes dealt round robin, each far smaller than a job-wide set: a
//!   class that kept a job-wide bitmap whatever its size would cost 1,024 words
//!   per word of the job and fail the bound.
//!
//! The allocator counts only on the thread that armed it, so the tests of this
//! binary may run side by side.
//!
//! ```text
//! cargo test -q --test scaling                                     # 64 daemons x 64..1,024 tasks each, debug, seconds
//! cargo test --release --test scaling -- --ignored --nocapture     # the tables up to 1,048,576 tasks
//! ```

// A counting `#[global_allocator]` must implement the unsafe `GlobalAlloc`; the
// workspace denies unsafe code, and this test binary alone is exempt.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use appsim::scenario::GroundTruth;
use appsim::workloads::{Ranks, Rule, RuleApp};
use appsim::{Application, FrameVocabulary, RingHangApp};
use machine::cluster::Cluster;
use stat_core::prelude::*;

/// The system allocator, adding up the bytes each allocation asks for on a
/// thread that armed it (`realloc` and `alloc_zeroed` go through `alloc` by
/// default, so a growth counts its new size).
struct Counting;

thread_local! {
    /// `Some(bytes so far)` while this thread counts.
    static COUNTED: Cell<Option<usize>> = const { Cell::new(None) };
}

// SAFETY: every call is forwarded unchanged to the system allocator, which upholds
// `GlobalAlloc`'s contract; counting reads and writes a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTED.try_with(|c| c.set(c.get().map(|bytes| bytes + layout.size())));
        // SAFETY: forwarded unchanged from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the bytes this thread allocated while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNTED.with(|c| c.set(Some(0)));
    let out = f();
    (out, COUNTED.with(|c| c.take()).unwrap_or(0))
}

/// Allocated bytes allowed per word a class keeps and per word of one job-wide
/// set.  A class's words are held twice — its set and its diagnosis copy — and
/// the judge unites the classes once per check (coverage, each isolation, the
/// crowd); the ring hang measures 19–35 B a word, the round robin 16–23 B
/// from 65,536 tasks on (below that its per-class strings dominate).
const BYTES_PER_WORD: usize = 64;

/// Allocated bytes allowed per class that do not grow with the job: its path,
/// its frames by name, the verdict's strings.
const BYTES_PER_CLASS: usize = 512;

const DAEMONS: u32 = 64;

/// The classes of the round-robin sweep.
const ROUND_ROBIN_CLASSES: u64 = 1_024;

/// Ranks dealt round robin over [`ROUND_ROBIN_CLASSES`] kernels, one shallow
/// path each: as many classes as kernels, each of `tasks / 1,024` ranks.
fn round_robin(tasks: u64) -> RuleApp {
    let rules = (0..ROUND_ROBIN_CLASSES).map(|residue| {
        let kernel: &'static str = Box::leak(format!("kernel_{residue}").into_boxed_str());
        let ranks = Ranks::Residue {
            modulus: ROUND_ROBIN_CLASSES,
            residue,
        };
        Rule::new(ranks, vec![vec!["_start", "main", kernel]])
    });
    let classes = ROUND_ROBIN_CLASSES.min(tasks) as usize;
    RuleApp::new(
        "round_robin",
        tasks,
        FrameVocabulary::Linux,
        (classes, classes),
        rules.collect(),
    )
}

/// One point of the law: an attach of 64 daemons, then classification,
/// diagnosis and judgement under the counter.
struct Point {
    tasks: u64,
    classes: usize,
    /// Words a job-wide task set takes.
    words: usize,
    /// Words the classes keep: `min(members, words)` summed over the classes.
    kept: usize,
    bytes: usize,
}

fn measure(app: &impl Application, truth: &GroundTruth, per_daemon: u16) -> Point {
    let tasks = app.num_tasks();
    assert_eq!(tasks, u64::from(DAEMONS) * u64::from(per_daemon));
    let session = Session::builder(Cluster::test_cluster(DAEMONS, per_daemon))
        .samples_per_task(1)
        .build();
    let report = session.attach(app).expect("the job attaches");
    assert_eq!(report.daemons, DAEMONS);
    let ((classes, verdict), bytes) = counted(|| {
        let classes = equivalence_classes(&report.gather.tree_3d);
        let verdict = truth.check("scaling", &report.diagnosis());
        (classes, verdict)
    });
    assert!(verdict.passed(), "{verdict}");
    assert_eq!(classes, report.gather.classes);
    let words = tasks.div_ceil(64) as usize;
    Point {
        tasks,
        classes: classes.len(),
        words,
        kept: classes.iter().map(|c| c.size().min(words)).sum(),
        bytes,
    }
}

/// Measure every point, print the table and hold each point to the bound.
fn assert_the_law<A: Application>(per_daemon: &[u16], job: impl Fn(u64) -> (A, GroundTruth)) {
    println!("tasks       classes  words   kept     bytes      B/word   B/task");
    for &n in per_daemon {
        let (app, truth) = job(u64::from(DAEMONS) * u64::from(n));
        let p = measure(&app, &truth, n);
        let per_word = p.bytes as f64 / (p.kept + p.words) as f64;
        let per_task = p.bytes as f64 / p.tasks as f64;
        println!(
            "{:<11} {:<8} {:<7} {:<8} {:<10} {per_word:<8.1} {per_task:.3}",
            p.tasks, p.classes, p.words, p.kept, p.bytes
        );
        let bound = BYTES_PER_WORD * (p.kept + p.words) + BYTES_PER_CLASS * p.classes;
        assert!(
            p.bytes <= bound,
            "{} tasks: {} B allocated, over the {bound} B that {} classes keeping {} words allow",
            p.tasks,
            p.bytes,
            p.classes,
            p.kept
        );
    }
}

fn ring_hang(tasks: u64) -> (RingHangApp, GroundTruth) {
    let app = RingHangApp::new(tasks, FrameVocabulary::Linux);
    let truth = app.ground_truth();
    (app, truth)
}

fn many_classes(tasks: u64) -> (RuleApp, GroundTruth) {
    let app = round_robin(tasks);
    let truth = app.ground_truth();
    (app, truth)
}

#[test]
fn classes_diagnosis_and_judge_allocate_per_kept_word_not_per_task() {
    assert_the_law(&[64, 256, 1_024], ring_hang);
    assert_the_law(&[64, 256, 1_024], many_classes);
}

#[test]
#[ignore = "the tables up to 1,048,576 tasks; run in release"]
fn the_scaling_tables_up_to_a_million_tasks() {
    assert_the_law(&[64, 256, 1_024, 4_096, 16_384], ring_hang);
    assert_the_law(&[64, 256, 1_024, 4_096, 16_384], many_classes);
}
