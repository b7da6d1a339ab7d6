//! Stack traces and per-task sample series.
//!
//! A [`StackTrace`] is a single call path, outermost frame first (`_start`, `main`,
//! ...).  STAT's 2D "trace/space" analysis merges one trace per task; the 3D
//! "trace/space/time" analysis merges several traces per task collected over a
//! sampling window, which is what lets it distinguish "stuck in the barrier the whole
//! time" from "passing through the barrier repeatedly".  [`TaskSamples`] carries that
//! per-task time series.

use crate::frame::FrameId;

/// A single call path, outermost frame first.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct StackTrace {
    frames: Vec<FrameId>,
}

impl StackTrace {
    /// A trace from an ordered frame list (outermost first).
    pub fn new(frames: Vec<FrameId>) -> Self {
        StackTrace { frames }
    }

    /// The frames, outermost first.
    pub fn frames(&self) -> &[FrameId] {
        &self.frames
    }

    /// Depth of the trace.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// True for the empty trace (a task that could not be walked).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The innermost (leaf) frame, if any.
    pub fn leaf(&self) -> Option<FrameId> {
        self.frames.last().copied()
    }
}

/// The stack-trace samples gathered from one MPI task over one sampling window.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TaskSamples {
    /// The task's MPI rank.
    pub rank: u64,
    /// Traces in sampling order (index = sample number).
    pub traces: Vec<StackTrace>,
}

impl TaskSamples {
    /// Samples for one rank.
    pub fn new(rank: u64, traces: Vec<StackTrace>) -> Self {
        TaskSamples { rank, traces }
    }

    /// Number of samples taken.
    pub fn sample_count(&self) -> usize {
        self.traces.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameTable;

    fn trace(table: &mut FrameTable, path: &[&str]) -> StackTrace {
        StackTrace::new(table.intern_path(path))
    }

    #[test]
    fn leaf_and_depth() {
        let mut t = FrameTable::new();
        let a = trace(&mut t, &["_start", "main", "compute"]);
        assert_eq!(a.depth(), 3);
        assert_eq!(t.name(a.leaf().unwrap()), "compute");
        assert!(StackTrace::default().leaf().is_none());
        assert!(StackTrace::default().is_empty());
    }
}
