//! The four workloads, what a run of one returns, and the pieces they share.
//!
//! Every workload is a **closed loop with one client thread**: the next
//! operation starts when the previous one has returned.  The only other threads
//! are the library's own TBON worker pool.  Inputs depend on `--seed` alone (it
//! picks the hung rank of the ring hang); the library receives only the
//! generated application.

use std::time::Instant;

use appsim::scenario::{Diagnosis, GroundTruth};
use appsim::{FrameVocabulary, RingHangApp};
use stackwalk::FrameDictionary;
use stat_core::serialize::encode_dictionary;

use crate::metrics::MetricSet;
use crate::trace::OpSummary;

/// The frame vocabulary of every workload: the paper's BlueGene/L traces.
pub const VOCAB: FrameVocabulary = FrameVocabulary::BlueGeneL;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 208;

/// The run length used when `--seconds` is not given; `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// Operations (sessions, on the stream) an untraced run under
/// `Budget::Seconds` finishes however long they take, so that no reported
/// median stands on fewer.  It binds on `attach_1m` alone (about 2.4 s an
/// operation, 10 or 11 in 25 s).
pub const MIN_TIMED_OPS: u32 = 12;

/// Untraced/traced pairs (sessions, on the stream) a traced run under
/// `Budget::Seconds` finishes however long they take.
pub const MIN_TRACED_PAIRS: u32 = 2;

/// Set-ups per untraced run; `setup_s` is their median.  The driver's contract
/// asks for several: it rejects a later change on `setup_s` alone, so it wants
/// more than one cold sample behind each value.  A fixed count, so that every
/// run does the same untimed work whatever the machine's speed.
const SETUPS: usize = 3;

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// `Session::attach` + `diagnose`, 212,992 tasks / 1,664 daemons, 10
    /// samples per task.
    Attach208k,
    /// `Session::merge` over 65,536 pre-sampled one-task daemons.
    MergeWide64kd,
    /// `Session::attach` + `diagnose`, 1,048,576 tasks / 16,384 daemons, 1
    /// sample per task.
    Attach1m,
    /// `StreamingSession::advance` waves, 65,536 tasks / 1,024 daemons, ring
    /// hang striking at wave 4 of 12.
    Stream64kHang,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Attach208k,
        Workload::MergeWide64kd,
        Workload::Attach1m,
        Workload::Stream64kHang,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Attach208k => "attach_208k",
            Workload::MergeWide64kd => "merge_wide_64kd",
            Workload::Attach1m => "attach_1m",
            Workload::Stream64kHang => "stream_64k_hang",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: the real workloads, or the 1,024-task shapes the self-test
/// runs in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workload names promise.
    Full,
    /// 1,024 tasks on the same machine families.
    Smoke,
}

impl Scale {
    /// The name stamped into run records.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// How long the measurement loop runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Start operations until this many seconds have passed (`--seconds`), and
    /// until a floor the caller names has been reached.
    Seconds(f64),
    /// Exactly this many operations (sessions, on the stream).  Not on the
    /// command line: the self-test uses it to run in seconds.
    Reps(u32),
}

impl Budget {
    /// Whether another operation should start after `done` have finished;
    /// a time budget runs `at_least` operations whatever they take.
    pub fn wants_more(self, done: u32, since: Instant, at_least: u32) -> bool {
        match self {
            Budget::Seconds(s) => done < at_least || since.elapsed().as_secs_f64() < s,
            Budget::Reps(n) => done < n.max(1),
        }
    }
}

/// Everything one run (one workload, one seed, traced or not) produced.
#[derive(Debug)]
pub struct RunResult {
    /// The workload that ran.
    pub workload: Workload,
    /// Operations started: timed ops, plus traced ops in a traced run.
    pub attempted: u64,
    /// Operations that returned `Err`, failed their ground-truth verdict, or
    /// produced a class partition (or, traced, a 3D-tree size) different from
    /// the reference operation's.
    pub failed: u64,
    /// Whether every output check passed, the replays' included.
    pub correct: bool,
    /// The run's metrics, each only where it is defined: those whose
    /// `Kind::measured_by` names this kind of run.
    pub metrics: MetricSet,
    /// Per traced operation, its spans summed by name (empty when untraced).
    pub ops: Vec<OpSummary>,
    /// Every set-up of an untraced run in seconds, in run order; `setup_s` is
    /// their median and the first started at process start.
    pub setups_s: Vec<f64>,
    /// Wall of every untraced operation behind `op_p50_ms`, in run order.
    pub op_walls_ms: Vec<f64>,
    /// Wall of every untraced operation behind `active_op_p50_ms`, in run order
    /// (empty on the one-shot workloads, where it is the same set).
    pub active_walls_ms: Vec<f64>,
}

/// The ring hang for `seed`: the seed picks which rank never posts its send.
pub fn ring_hang(tasks: u64, seed: u64) -> RingHangApp {
    // SplitMix64 finaliser, so neighbouring seeds land on unrelated ranks.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    RingHangApp::new(tasks, VOCAB).with_hung_rank(z % tasks)
}

/// What the output checks compare between operations of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Observed {
    /// The class partition by frame name, as the verdict checker sees it.
    pub diagnosis: Diagnosis,
    /// Node count of the job-wide 3D tree.
    pub nodes_3d: usize,
}

impl Observed {
    /// Whether this operation's output is right: the ground truth accepts the
    /// diagnosis and it equals the reference operation's output.
    pub fn passes(&self, truth: &GroundTruth, reference: &Observed) -> bool {
        truth.check("benchmark", &self.diagnosis).passed() && self == reference
    }
}

/// Set the workload up `SETUPS` times, tearing the previous set-up down before
/// the clock restarts, and return the last set-up with every set-up's duration
/// in seconds.  The first is measured from `process_start`.
pub fn repeated_set_up<T, E>(
    process_start: Instant,
    mut set_up: impl FnMut() -> Result<T, E>,
) -> Result<(T, Vec<f64>), E> {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut start = process_start;
    loop {
        let ready = set_up()?;
        seconds.push(start.elapsed().as_secs_f64());
        if seconds.len() == SETUPS {
            return Ok((ready, seconds));
        }
        drop(ready);
        start = Instant::now();
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`); 0 where `/proc`
/// is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Time `call` once, in milliseconds.
pub fn time_ms<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = call();
    (out, ms_since(start))
}

/// One dictionary negotiation as a session performs it at attach/open: intern
/// the application's frame hints and encode the table for the broadcast.
/// Returns the dictionary and the broadcast payload's size in bytes.
pub fn negotiate(hints: Vec<&'static str>) -> (FrameDictionary, u64) {
    let dict = FrameDictionary::negotiate(hints);
    let payload = encode_dictionary(&dict.negotiated_names()).len() as u64;
    (dict, payload)
}
