//! The application abstraction and sample gathering.
//!
//! An [`Application`] is anything that can answer: "what is the call path of thread
//! `t` of rank `r` at sample `s`?"  STAT's daemons answer that question with the
//! StackWalker API against live processes; the reproduction answers it from a state
//! machine.  Everything downstream (walking, interning, local merge, the TBON merge,
//! equivalence classes) is the real tool code.

use std::ops::Range;

use stackwalk::{FrameTable, TaskSamples, Walker};

/// A simulated parallel application.
pub trait Application: Send + Sync {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// Number of MPI tasks (ranks) in the job.
    fn num_tasks(&self) -> u64;

    /// Number of threads per task (1 for single-threaded MPI codes).
    fn threads_per_task(&self) -> u32 {
        1
    }

    /// The call path (outermost frame first) of `thread` of `rank` at sample
    /// `sample_index`.  Implementations must be deterministic in their arguments so
    /// that experiments are reproducible.
    fn call_path(&self, rank: u64, thread: u32, sample_index: u32) -> Vec<&'static str>;

    /// Convenience: the call path of the main thread.
    fn main_thread_path(&self, rank: u64, sample_index: u32) -> Vec<&'static str> {
        self.call_path(rank, 0, sample_index)
    }

    /// Frame names this application's traces are expected to contain — the seed
    /// for the session-global frame dictionary that wire format v2 negotiates at
    /// session setup.  Hints are best-effort: a frame the application produces
    /// but does not hint still works, it just ships its name once per packet as
    /// an incremental dictionary record instead of never.
    fn frame_hints(&self) -> Vec<&'static str> {
        Vec::new()
    }
}

/// Gather `samples` stack traces from every rank of an application, exactly as a
/// whole job's worth of daemons would.  Traces from all threads of a task are
/// associated with the task (the paper's planned thread support keeps per-process
/// attribution, Section VII).
pub fn gather_samples(
    app: &dyn Application,
    samples: u32,
    table: &mut FrameTable,
) -> Vec<TaskSamples> {
    let ranks: Vec<u64> = (0..app.num_tasks()).collect();
    gather_samples_for_ranks(app, &ranks, samples, table)
}

/// Gather samples for a subset of ranks — what a single daemon does for the tasks on
/// its node.
pub fn gather_samples_for_ranks(
    app: &dyn Application,
    ranks: &[u64],
    samples: u32,
    table: &mut FrameTable,
) -> Vec<TaskSamples> {
    gather_samples_for_ranks_from(app, ranks, 0, samples, table)
}

/// [`gather_samples_for_ranks`] starting at sample index `base` instead of 0.
///
/// Streaming sessions advance the sample clock across waves: wave `w` of a
/// session taking `samples` traces per wave observes sample indices
/// `base = w * samples` onward, so a time-varying application (a straggler
/// drifting, a hang developing) shows each wave a *later* slice of its
/// behaviour rather than replaying sample 0 forever.
pub fn gather_samples_for_ranks_from(
    app: &dyn Application,
    ranks: &[u64],
    base: u32,
    samples: u32,
    table: &mut FrameTable,
) -> Vec<TaskSamples> {
    let per_task = samples as usize * app.threads_per_task() as usize;
    let mut gathered: Vec<TaskSamples> = ranks
        .iter()
        .map(|&rank| TaskSamples::new(rank, Vec::with_capacity(per_task)))
        .collect();
    let mut walker = Walker::new();
    let window = base..base.saturating_add(samples);
    for_each_sampled_path(app, ranks, window, |position, _, path| {
        gathered[position].traces.push(walker.walk(table, path));
    });
    gathered
}

/// The order a daemon samples its tasks in, stated once: rank by rank (in the
/// order given), sample index by sample index over `window` within a rank, thread
/// by thread within a sample.  `visit` receives the rank's position in `ranks`, the
/// trace's number within that rank's series (0 for the task's first trace — the
/// one the 2D analysis keeps) and the call path, outermost frame first.
///
/// [`gather_samples_for_ranks_from`] materialises the visit as [`TaskSamples`];
/// `stat_core`'s daemons walk each path straight into their local prefix trees.
pub fn for_each_sampled_path(
    app: &dyn Application,
    ranks: &[u64],
    window: Range<u32>,
    mut visit: impl FnMut(usize, usize, &[&'static str]),
) {
    let threads = app.threads_per_task();
    for (position, &rank) in ranks.iter().enumerate() {
        let mut nth = 0;
        for sample in window.clone() {
            for thread in 0..threads {
                visit(position, nth, &app.call_path(rank, thread, sample));
                nth += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TrivialApp {
        tasks: u64,
    }

    impl Application for TrivialApp {
        fn name(&self) -> &str {
            "trivial"
        }
        fn num_tasks(&self) -> u64 {
            self.tasks
        }
        fn call_path(&self, rank: u64, _thread: u32, _sample: u32) -> Vec<&'static str> {
            if rank == 0 {
                vec!["_start", "main", "io_wait"]
            } else {
                vec!["_start", "main", "compute"]
            }
        }
    }

    #[test]
    fn gather_produces_one_series_per_rank() {
        let app = TrivialApp { tasks: 5 };
        let mut table = FrameTable::new();
        let samples = gather_samples(&app, 3, &mut table);
        assert_eq!(samples.len(), 5);
        for s in &samples {
            assert_eq!(s.sample_count(), 3);
        }
        // Frames were interned: 4 distinct names across the whole job.
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn sampled_paths_are_visited_rank_then_sample_then_thread() {
        struct Echo;
        impl Application for Echo {
            fn name(&self) -> &str {
                "echo"
            }
            fn num_tasks(&self) -> u64 {
                8
            }
            fn threads_per_task(&self) -> u32 {
                2
            }
            fn call_path(&self, rank: u64, thread: u32, sample: u32) -> Vec<&'static str> {
                const NAMES: [&str; 8] = ["f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"];
                vec![
                    NAMES[rank as usize],
                    NAMES[thread as usize],
                    NAMES[sample as usize],
                ]
            }
        }
        let mut seen = Vec::new();
        for_each_sampled_path(&Echo, &[6, 3], 5..7, |position, nth, path| {
            seen.push((position, nth, path.concat()));
        });
        let expected = [
            (0, 0, "f6f0f5"),
            (0, 1, "f6f1f5"),
            (0, 2, "f6f0f6"),
            (0, 3, "f6f1f6"),
            (1, 0, "f3f0f5"),
            (1, 1, "f3f1f5"),
            (1, 2, "f3f0f6"),
            (1, 3, "f3f1f6"),
        ];
        assert_eq!(seen.len(), expected.len());
        for (got, want) in seen.iter().zip(expected) {
            assert_eq!((got.0, got.1, got.2.as_str()), want);
        }

        // The materialised form is the same visit, one series per rank — even
        // when the window is empty.
        let mut table = FrameTable::new();
        let gathered = gather_samples_for_ranks_from(&Echo, &[6, 3], 5, 2, &mut table);
        assert_eq!(gathered.len(), 2);
        assert_eq!(gathered[1].rank, 3);
        assert_eq!(gathered[1].sample_count(), 4);
        let leaf = gathered[1].traces[3].leaf().unwrap();
        assert_eq!(table.name(leaf), "f6");
        let none = gather_samples_for_ranks_from(&Echo, &[6, 3], 5, 0, &mut table);
        assert_eq!(none.iter().map(|t| t.sample_count()).sum::<usize>(), 0);
        assert_eq!(none.len(), 2);
    }

    #[test]
    fn gather_for_ranks_restricts_to_the_subset() {
        let app = TrivialApp { tasks: 100 };
        let mut table = FrameTable::new();
        let samples = gather_samples_for_ranks(&app, &[10, 11, 12, 13], 2, &mut table);
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[0].rank, 10);
        assert_eq!(samples[3].rank, 13);
    }
}
