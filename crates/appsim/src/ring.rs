//! The paper's target application: an MPI ring test with an injected hang.
//!
//! Section III: "Our target application is a simple MPI ring topology test with an
//! injected bug that causes the application to hang.  Each task does an MPI_Irecv
//! from the previous task in the ring and an MPI_Isend to the next task, followed by
//! an MPI_Waitall and an MPI_Barrier.  The injected bug causes MPI task 1 to hang
//! before its send."
//!
//! The observable consequence — and what Figure 1 shows — is three behaviour classes:
//!
//! * **rank 1** never posts its send; it sits in `do_SendOrStall`, occasionally caught
//!   inside `__gettimeofday` while it spins on its stall condition;
//! * **rank 2** posted both of its requests but its receive (from rank 1) can never
//!   complete, so it is stuck in `PMPI_Waitall` driving the progress engine;
//! * **every other rank** completed its sends and receives and is waiting in
//!   `PMPI_Barrier`, with the progress-engine polling frames recursing to varying
//!   depths from sample to sample (the "time" dimension of the 3D tree).
//!
//! Like every workload it is a rule table ([`RuleApp`]), one row per class;
//! [`RingHangApp`] names the table and remembers where the bug was injected.

use crate::app::Application;
use crate::scenario::GroundTruth;
use crate::vocab::FrameVocabulary;
use crate::workloads::{main_path, Ranks, Rule, RuleApp};

/// The ring-topology hang.
#[derive(Clone, Debug)]
pub struct RingHangApp {
    pub(crate) table: RuleApp,
    vocab: FrameVocabulary,
    hung_rank: u64,
}

impl RingHangApp {
    /// The paper's configuration: rank 1 hangs before its send.
    pub fn new(tasks: u64, vocab: FrameVocabulary) -> Self {
        RingHangApp::hung_at(tasks.max(3), vocab, 1)
    }

    /// A variant with the bug injected at a different rank; used by tests to check
    /// that the tool finds the outlier wherever it is.
    pub fn with_hung_rank(self, rank: u64) -> Self {
        let tasks = self.num_tasks();
        RingHangApp::hung_at(tasks, self.vocab, rank.min(tasks - 1))
    }

    /// The rank that never posts its send.
    pub fn hung_rank(&self) -> u64 {
        self.hung_rank
    }

    /// The rank whose receive can never complete (the next rank around the ring).
    pub fn victim_rank(&self) -> u64 {
        (self.hung_rank + 1) % self.num_tasks()
    }

    /// The machine-checkable expectation for this workload: the hung rank alone
    /// under the stall frame, its victim alone under the waitall, and a small band
    /// of classes (shallow sampling windows split the barrier crowd by how deep
    /// the polling recursion was caught).
    pub fn ground_truth(&self) -> GroundTruth {
        self.table.ground_truth()
    }

    fn hung_at(tasks: u64, vocab: FrameVocabulary, hung_rank: u64) -> Self {
        let v = vocab;
        let victim = (hung_rank + 1) % tasks;
        // One path per polling recursion depth, 1 to the platform's maximum.
        let polling = |head: Vec<&'static str>| -> Vec<Vec<&'static str>> {
            (1..=v.max_poll_depth())
                .map(|depth| [&head[..], &v.poll_step().repeat(depth)].concat())
                .collect()
        };
        let stall = main_path(v, &[&[v.send_stall()]]);
        let rules = vec![
            // Hung before its send: spinning in the application's stall routine,
            // every third sample caught reading the clock.
            Rule::new(
                Ranks::List(vec![hung_rank]),
                vec![stall.clone(), [&stall[..], &[v.timer()]].concat()],
            )
            .picked(|_, _, sample| usize::from(sample % 3 == 2))
            .isolated_by(v.send_stall()),
            // Waiting for a receive that will never complete.
            Rule::new(
                Ranks::List(vec![victim]),
                polling(main_path(v, &[&[v.waitall()], v.progress_impl()])),
            )
            .isolated_by(v.waitall()),
            // Everyone else has entered the barrier and is driving the progress
            // engine; the polling recursion depth varies from sample to sample and
            // from rank to rank, which is what gives the 3D tree its fan of leaves.
            Rule::new(
                Ranks::All,
                polling(main_path(
                    v,
                    &[&[v.barrier()], v.barrier_impl(), v.progress_impl()],
                )),
            )
            .picked(|rank, _, sample| rank as usize + sample as usize),
        ];
        RingHangApp {
            table: RuleApp::new("mpi_ring_hang", tasks, v, (3, 8), rules),
            vocab,
            hung_rank,
        }
    }
}

impl Application for RingHangApp {
    fn name(&self) -> &str {
        self.table.name()
    }
    fn num_tasks(&self) -> u64 {
        self.table.num_tasks()
    }
    fn frame_hints(&self) -> Vec<&'static str> {
        self.table.frame_hints()
    }
    fn call_path(&self, rank: u64, thread: u32, sample_index: u32) -> &[&'static str] {
        self.table.call_path(rank, thread, sample_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::gather_samples_for_ranks;
    use stackwalk::FrameTable;

    #[test]
    fn exactly_three_behaviour_classes_by_third_frame() {
        let app = RingHangApp::new(1_024, FrameVocabulary::BlueGeneL);
        let mut classes = std::collections::HashSet::new();
        for rank in 0..1_024 {
            let path = app.main_thread_path(rank, 0);
            classes.insert(path[2]);
        }
        assert_eq!(classes.len(), 3);
        assert!(classes.contains("PMPI_Barrier"));
        assert!(classes.contains("PMPI_Waitall"));
        assert!(classes.contains("do_SendOrStall"));
    }

    #[test]
    fn hung_and_victim_ranks_are_singletons() {
        let app = RingHangApp::new(256, FrameVocabulary::Linux);
        assert_eq!(app.hung_rank(), 1);
        assert_eq!(app.victim_rank(), 2);
        let stall_ranks: Vec<u64> = (0..256)
            .filter(|&r| app.main_thread_path(r, 0).contains(&"do_SendOrStall"))
            .collect();
        assert_eq!(stall_ranks, vec![1]);
        let waitall_ranks: Vec<u64> = (0..256)
            .filter(|&r| app.main_thread_path(r, 0).contains(&"PMPI_Waitall"))
            .collect();
        assert_eq!(waitall_ranks, vec![2]);
    }

    #[test]
    fn hung_rank_can_be_moved() {
        let app = RingHangApp::new(64, FrameVocabulary::Linux).with_hung_rank(40);
        assert_eq!(app.hung_rank(), 40);
        assert_eq!(app.victim_rank(), 41);
        assert!(app.main_thread_path(40, 0).contains(&"do_SendOrStall"));
        assert!(app.main_thread_path(1, 0).contains(&"PMPI_Barrier"));
    }

    #[test]
    fn wraparound_victim_when_last_rank_hangs() {
        let app = RingHangApp::new(16, FrameVocabulary::Linux).with_hung_rank(15);
        assert_eq!(app.victim_rank(), 0);
    }

    #[test]
    fn samples_vary_over_time_but_keep_the_class() {
        let app = RingHangApp::new(32, FrameVocabulary::BlueGeneL);
        let p0 = app.main_thread_path(7, 0);
        let p1 = app.main_thread_path(7, 1);
        let p2 = app.main_thread_path(7, 2);
        // Same high-level class (barrier)...
        assert_eq!(p0[2], "PMPI_Barrier");
        assert_eq!(p1[2], "PMPI_Barrier");
        // ...but the polling depth varies between samples.
        assert!(p0.len() != p1.len() || p1.len() != p2.len());
    }

    #[test]
    fn tiny_jobs_are_clamped_to_a_valid_ring() {
        let app = RingHangApp::new(1, FrameVocabulary::Linux);
        assert!(app.num_tasks() >= 3);
    }

    #[test]
    fn gathering_at_figure_1_scale_produces_the_expected_shape() {
        let app = RingHangApp::new(1_024, FrameVocabulary::BlueGeneL);
        let mut table = FrameTable::new();
        let samples = gather_samples_for_ranks(&app, 0..1_024, 3, &mut table);
        assert_eq!(samples.len(), 1_024);
        // The whole 1,024-task, 3-sample job only needs a couple dozen distinct frames
        // — this is why interning matters.
        assert!(table.len() < 32, "distinct frames: {}", table.len());
    }
}
