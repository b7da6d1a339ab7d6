//! In-memory spans, recorded from the benchmark's own files around each call
//! into a layer.  Nothing under `crates/` is instrumented: the traced run
//! re-drives an operation stage by stage through the layers' public functions
//! and wraps each call here.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One timed call (or, for the op itself, one whole operation).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The per-layer metric the span feeds (`<module>.<metric>`), or `"op"`.
    pub name: &'static str,
    /// The operation the span belongs to; spans of one op share it.
    pub op: u32,
    /// The span that caused this one (`None` for an op span).
    pub parent: Option<SpanId>,
    /// Nanoseconds from the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Collects spans in memory; they are summarised (and written out) only when
/// the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open the span of operation `op`.
    pub fn open_op(&mut self, op: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: "op",
            op,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close a span opened with [`Recorder::open_op`]; returns its duration in
    /// milliseconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.ms()
    }

    /// Time one call into a layer as a child of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, call: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.push(name, parent, start_ns, end_ns);
        out
    }

    /// Record a child span whose duration the program reported itself (a
    /// `WaveReport` phase): it is laid out from `offset_ms` after the parent's
    /// start, since only its length is known.
    pub fn reported(&mut self, name: &'static str, parent: SpanId, offset_ms: f64, ms: f64) {
        let start_ns = self.spans[parent].start_ns + (offset_ms * 1e6) as u64;
        self.push(name, parent, start_ns, start_ns + (ms * 1e6) as u64);
    }

    fn push(&mut self, name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) {
        let op = self.spans[parent].op;
        self.spans.push(Span {
            name,
            op,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
    }

    /// Per operation: its wall, and per span name the number of calls and the
    /// summed duration of its direct children (milliseconds).  An op's self
    /// time — wall minus the children's sum — is the unaccounted time.
    pub fn per_op(&self) -> Vec<OpSummary> {
        let mut ops: BTreeMap<SpanId, OpSummary> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            match span.parent {
                None => {
                    ops.insert(
                        id,
                        OpSummary {
                            op: span.op,
                            wall_ms: span.ms(),
                            stages: BTreeMap::new(),
                        },
                    );
                }
                Some(parent) => {
                    if let Some(summary) = ops.get_mut(&parent) {
                        let stage = summary.stages.entry(span.name).or_insert((0, 0.0));
                        stage.0 += 1;
                        stage.1 += span.ms();
                    }
                }
            }
        }
        ops.into_values().collect()
    }
}

/// The spans of one operation, summed by name.
#[derive(Clone, Debug)]
pub struct OpSummary {
    /// The operation id.
    pub op: u32,
    /// Wall time of the op span.
    pub wall_ms: f64,
    /// Per span name: `(calls, summed milliseconds)`.
    pub stages: BTreeMap<&'static str, (u32, f64)>,
}

impl OpSummary {
    /// Summed duration of the spans called `name`, 0 if there were none.
    pub fn stage_ms(&self, name: &str) -> f64 {
        self.stages.get(name).map_or(0.0, |s| s.1)
    }

    /// Wall time no child span covers.
    pub fn self_ms(&self) -> f64 {
        self.wall_ms - self.stages.values().map(|s| s.1).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_sum_under_their_op_and_self_time_is_the_rest() {
        let mut rec = Recorder::default();
        let op = rec.open_op(7);
        for _ in 0..3 {
            rec.time("a.b_ms", op, || {
                std::hint::black_box((0..1000u64).sum::<u64>())
            });
        }
        rec.reported("c.d_ms", op, 0.0, 1.5);
        let wall = rec.close(op);
        let summary = &rec.per_op()[0];
        assert_eq!(summary.op, 7);
        assert_eq!(summary.wall_ms, wall);
        assert_eq!(summary.stages["a.b_ms"].0, 3);
        assert_eq!(summary.stage_ms("c.d_ms"), 1.5);
        assert_eq!(summary.stage_ms("missing"), 0.0);
        assert!((summary.self_ms() + summary.stage_ms("a.b_ms") + 1.5 - wall).abs() < 1e-9);
        assert!(rec
            .spans
            .iter()
            .skip(1)
            .all(|s| s.parent == Some(op) && s.op == 7));
    }
}
