//! Scaling laws, pinned as tests: the memory one attach's classification,
//! diagnosis and judgement allocate grows with the words its classes keep, and
//! has no per-task term; and the daemon map holds no more than its packets and
//! one arena at once, whether the dictionary covers the frames or not.
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
//! The daemon map's law is read at one worker, where the map runs inline on
//! the calling thread: the most bytes live at once during `contribute_all` (so
//! also when the map returns) are at most a small multiple of what the
//! contributions hold, plus one daemon's arena.  A map that kept every arena
//! whose table overflowed until it ended breaks it on `compute_spread`, whose
//! frames the hints do not all cover.
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
use appsim::workloads::{compute_spread, Ranks, Rule, RuleApp};
use appsim::{Application, FrameVocabulary, RingHangApp};
use machine::cluster::Cluster;
use stat_core::prelude::*;
use tbon::network::InProcessTbon;
use tbon::packet::EndpointId;
use tbon::topology::{Topology, TreeShape};

/// The system allocator, counting the bytes each allocation asks for and each
/// free gives back on a thread that armed it (`realloc` and `alloc_zeroed` go
/// through `alloc` and `dealloc` by default, so a growth counts its new size).
struct Counting;

/// A thread's count while it is armed.
#[derive(Clone, Copy, Default)]
struct Count {
    /// Bytes allocated.
    allocated: usize,
    /// Bytes allocated less bytes freed (a block allocated before the thread
    /// armed can be freed while it counts).
    live: isize,
    /// The most `live` has been.
    peak: isize,
}

thread_local! {
    /// `Some(count so far)` while this thread counts.
    static COUNTED: Cell<Option<Count>> = const { Cell::new(None) };
}

/// Add `bytes` (negative: a free) to this thread's count, if it is armed.
fn count(bytes: isize) {
    let _ = COUNTED.try_with(|c| {
        c.set(c.get().map(|n| {
            let live = n.live + bytes;
            Count {
                allocated: n.allocated + bytes.max(0) as usize,
                live,
                peak: n.peak.max(live),
            }
        }))
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator, which upholds
// `GlobalAlloc`'s contract; counting reads and writes a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: forwarded unchanged from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and this thread's count while it ran.
fn counting<T>(f: impl FnOnce() -> T) -> (T, Count) {
    COUNTED.with(|c| c.set(Some(Count::default())));
    let out = f();
    (out, COUNTED.with(|c| c.take()).unwrap_or_default())
}

/// What `f` returns, and the bytes this thread allocated while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let (out, count) = counting(f);
    (out, count.allocated)
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

/// Bytes live at the daemon map's high-water mark per byte its contributions
/// hold: a packet's payload behind a shared header, and each contribution's own
/// struct.  Past one arena, the ring hang measures 1.4 and the cold
/// `compute_spread` 1.0 (the shared header and the result vector's slack); a map
/// that keeps the arena of every daemon whose table overflowed until it ends
/// measures 9.3 on the cold point.
const LIVE_PER_HELD_BYTE: usize = 3;

/// One point of the daemon map's law, at one worker.
struct MapPoint {
    /// Bytes the returned contributions hold.
    held: usize,
    /// The most bytes one daemon's `contribute` has live at once: its arena, and
    /// what it ships.
    arena: usize,
    /// The most bytes `contribute_all` had live at once.
    peak: usize,
    /// The most names past the negotiated base one daemon's packets ship.
    interned: usize,
}

/// How many frames past the base a contribution's 3D packet names.
fn own_frames(c: &DaemonContribution) -> usize {
    let decoded = decode_tree::<SubtreeTaskList>(&c.tree_3d.payload);
    decoded.map_or(0, |(_, frames)| frames.records().count())
}

/// `contribute_all` over 64 daemons of `per_daemon` tasks at one worker, where
/// the map runs inline on this thread and the counter sees every block its
/// daemons allocate and free, against the largest of the daemons' arenas.
fn daemon_map(app: &dyn Application, per_daemon: u16) -> MapPoint {
    let tasks = app.num_tasks();
    assert_eq!(tasks, u64::from(DAEMONS) * u64::from(per_daemon));
    let daemons = StatDaemon::partition(tasks, DAEMONS);
    let net = InProcessTbon::new(Topology::build(TreeShape::flat(DAEMONS))).with_workers(1);
    let leaves = daemons
        .iter()
        .zip(net.topology().backends().iter().copied());
    let strategy = Representation::HierarchicalTaskList.strategy();
    let arena = |daemon: &StatDaemon| {
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let (_, count) = counting(|| strategy.contribute(daemon, app, 1, EndpointId(0), &dict));
        count.peak as usize
    };
    let arena = daemons.iter().map(arena).max().unwrap_or(0);
    let dict = FrameDictionary::negotiate(app.frame_hints());
    let (contributions, count) = counting(|| {
        let mapped = strategy.contribute_all(leaves.collect(), app, 1, &dict, &net);
        mapped.expect("no daemon dies")
    });
    // A one-column 2D packet is its 3D packet's buffer.
    let shared = |c: &DaemonContribution| std::ptr::eq(&*c.tree_2d.payload, &*c.tree_3d.payload);
    let packets = contributions.iter().flat_map(|c| {
        let tree_2d = (!shared(c)).then_some(&c.tree_2d);
        tree_2d.into_iter().chain([&c.tree_3d, &c.rank_map])
    });
    let structs = contributions.len() * std::mem::size_of::<DaemonContribution>();
    MapPoint {
        held: packets.map(|p| p.size_bytes()).sum::<usize>() + structs,
        arena,
        peak: count.peak as usize,
        interned: contributions.iter().map(own_frames).max().unwrap_or(0),
    }
}

/// Hold one point to the daemon map's law, and print it.
fn assert_the_map_law(case: &str, p: &MapPoint) {
    let per_held = p.peak.saturating_sub(p.arena) as f64 / p.held as f64;
    println!(
        "{case:<24} held {:<8} arena {:<8} peak {:<9} (peak - arena) / held {per_held:.2}, {} names past the base",
        p.held, p.arena, p.peak, p.interned
    );
    let bound = LIVE_PER_HELD_BYTE * p.held + p.arena;
    assert!(
        p.peak <= bound,
        "{case}: {} B live at the daemon map's peak, over the {bound} B that {} B of \
         contributions and one {} B arena allow",
        p.peak,
        p.held,
        p.arena
    );
}

#[test]
fn the_daemon_map_holds_its_packets_and_one_arena_whatever_the_dictionary() {
    let ring = RingHangApp::new(u64::from(DAEMONS) * 256, FrameVocabulary::Linux);
    let ring = daemon_map(&ring, 256);
    assert_eq!(
        ring.interned, 0,
        "the ring hang's frames are all negotiated"
    );
    assert_the_map_law("ring hang", &ring);
    // `compute_spread` walks frames its hints leave out, so every daemon's table
    // overflows: the path a job whose frames no one listed takes.
    let spread = compute_spread(u64::from(DAEMONS) * 256, 64, FrameVocabulary::Linux);
    let spread = daemon_map(&spread, 256);
    assert!(
        spread.interned > 0,
        "compute_spread walks un-negotiated frames"
    );
    assert_the_map_law("cold compute_spread", &spread);
}
