//! The metric catalogue: every name the benchmark emits, with its unit, which
//! run produces it and on which workloads it is defined.  `BENCHMARK.json`, the
//! README table and the self-test are all checked against this one table.

use crate::workloads::Workload;

/// What a metric says, which decides the runs that measure it and how it is
/// judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Untraced run: what a user of the tool sees.  Bounded in
    /// `BENCHMARK.json`'s `end_to_end`.
    EndToEnd,
    /// End to end by meaning and measured by **both** runs, but 0 on a healthy
    /// baseline — and the driver's end-to-end metrics may never be 0, because a
    /// bound is a share of the parent's median.  `BENCHMARK.json` therefore
    /// lists it under `per_layer`; result files file it under `end_to_end`, and
    /// `compare` fails any rise of its worst run.
    NoRise,
    /// Traced run: one layer's share, or a count that explains an end-to-end
    /// number.
    PerLayer,
}

impl Kind {
    /// Whether a traced (or an untraced) run measures metrics of this kind.
    pub fn measured_by(self, traced: bool) -> bool {
        match self {
            Kind::EndToEnd => !traced,
            Kind::NoRise => true,
            Kind::PerLayer => traced,
        }
    }

    /// Whether the driver's result line of a traced (or an untraced) run carries
    /// metrics of this kind: `--trace 0` is exactly `end_to_end`, `--trace 1`
    /// exactly `per_layer`.
    pub fn in_driver_line(self, traced: bool) -> bool {
        (self == Kind::EndToEnd) != traced
    }
}

/// Workload masks for [`MetricDef::on`].
const A208: u8 = 1;
const MERGE: u8 = 2;
const A1M: u8 = 4;
const STREAM: u8 = 8;
const ONE_SHOT: u8 = A208 | MERGE | A1M;
const ATTACH: u8 = A208 | A1M;
const ALL: u8 = ONE_SHOT | STREAM;

/// One metric of the catalogue.  Every metric is better when lower: times,
/// bytes, failure shares, and counts whose growth means more work.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// `<module>.<metric>` for per-layer metrics, a bare name end to end.
    pub name: &'static str,
    /// Unit, in the driver's alphabet.
    pub unit: &'static str,
    /// Which run measures it.
    pub kind: Kind,
    on: u8,
}

impl MetricDef {
    /// Whether the metric is defined on `workload`.  Where it is not, the
    /// driver-facing result line still carries the name (the driver wants one
    /// fixed set of names per run) with the value 0.
    pub fn applies_to(&self, workload: Workload) -> bool {
        let bit = match workload {
            Workload::Attach208k => A208,
            Workload::MergeWide64kd => MERGE,
            Workload::Attach1m => A1M,
            Workload::Stream64kHang => STREAM,
        };
        self.on & bit != 0
    }
}

const fn e2e(name: &'static str, unit: &'static str, on: u8) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::EndToEnd,
        on,
    }
}

const fn no_rise(name: &'static str, unit: &'static str, on: u8) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::NoRise,
        on,
    }
}

const fn layer(name: &'static str, unit: &'static str, on: u8) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::PerLayer,
        on,
    }
}

/// Every metric: `BENCHMARK.json`'s `end_to_end` list, then its `per_layer`
/// list, in order.
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s", ALL),
    e2e("op_p50_ms", "ms", ALL),
    // One-shot ops always ship full trees, so every op is an "active" op and the
    // metric repeats `op_p50_ms` there; on the stream it is waves 4-6 only.
    e2e("active_op_p50_ms", "ms", ALL),
    e2e("leaf_bytes_per_op", "bytes", ALL),
    e2e("peak_rss_mb", "MB", ALL),
    no_rise("ops_failed_frac", "frac", ALL),
    no_rise("verdict_latency_waves", "waves", STREAM),
    layer("stackwalk.sample_ms", "ms", ATTACH),
    layer("stackwalk.traces", "count", ATTACH),
    layer("stackwalk.dictionary_negotiate_ms", "ms", ALL),
    layer("core.daemon.build_trees_ms", "ms", ATTACH),
    layer("core.serialize.encode_leaf_ms", "ms", ATTACH),
    layer("core.serialize.leaf_bytes", "bytes", ONE_SHOT),
    layer("core.session.drop_ms", "ms", ATTACH),
    layer("tbon.topology.build_ms", "ms", ONE_SHOT),
    layer("tbon.planner.plan_ms", "ms", ALL),
    layer("tbon.network.reduce_ms", "ms", ALL),
    layer("tbon.network.filter_invocations", "count", ONE_SHOT),
    layer("tbon.network.link_bytes", "bytes", ONE_SHOT),
    layer("tbon.network.max_node_bytes_in", "bytes", ONE_SHOT),
    layer("tbon.network.frontend_bytes_in", "bytes", ONE_SHOT),
    layer("core.filter.comm_level_ms", "ms", ONE_SHOT),
    layer("core.filter.frontend_ms", "ms", ONE_SHOT),
    layer("tbon.network.reduce_vs_filter_ratio", "ratio", ONE_SHOT),
    layer("core.serialize.decode_leaf_ms", "ms", ONE_SHOT),
    layer("core.graph.merge_fold_ms", "ms", ONE_SHOT),
    layer("core.serialize.encode_merged_ms", "ms", ONE_SHOT),
    layer("core.strategy.finish_ms", "ms", ONE_SHOT),
    layer("core.graph.remap_ms", "ms", ONE_SHOT),
    layer("core.equivalence.classify_ms", "ms", ONE_SHOT),
    layer("core.equivalence.classes", "count", ALL),
    layer("core.scenario.diagnose_ms", "ms", ATTACH),
    layer("core.session.unaccounted_frac", "frac", ONE_SHOT),
    layer("core.session.op_p90_ms", "ms", ONE_SHOT),
    layer("core.streaming.sample_reported_ms", "ms", STREAM),
    layer("core.streaming.local_merge_reported_ms", "ms", STREAM),
    layer("core.streaming.full_view_ms", "ms", STREAM),
    layer("core.streaming.fold_reported_ms", "ms", STREAM),
    layer("core.streaming.unaccounted_frac", "frac", STREAM),
    layer("core.streaming.wave_quiescent_p90_ms", "ms", STREAM),
    layer("core.streaming.wave_active_p90_ms", "ms", STREAM),
    layer("core.streaming.delta_bytes_active", "bytes", STREAM),
    layer("core.streaming.full_packet_bytes", "bytes", STREAM),
    layer("core.graph.delta_from_ms", "ms", STREAM),
    layer("tbon.delta.fold_quiescent_ms", "ms", STREAM),
    layer("tbon.delta.fold_active_ms", "ms", STREAM),
    layer("tbon.delta.delta_link_bytes", "bytes", STREAM),
    layer("tbon.delta.resident_bytes", "bytes", STREAM),
    layer("trace.overhead_frac", "frac", ALL),
];

/// The catalogue entry for `name`.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// Catalogue name.
    pub name: &'static str,
    /// The value, in the catalogue's unit.
    pub value: f64,
    /// How many samples the value summarises (1 for a single count or time).
    pub samples: usize,
}

/// The measured metrics of one run, in emission order.
#[derive(Clone, Debug, Default)]
pub struct MetricSet(pub Vec<Measured>);

impl MetricSet {
    /// Record a single value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.put_n(name, value, 1);
    }

    /// Record a value that summarises `samples` samples.
    pub fn put_n(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(def(name).is_some(), "{name} is not in the catalogue");
        self.0.push(Measured {
            name,
            value,
            samples,
        });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics), 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    match sorted.len() {
        0 => 0.0,
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), which is what the driver uses for its
/// spreads.  Fewer than two values have no spread: both quartiles are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |quarter: usize| {
        let numerator = quarter * (n + 1);
        let below = (numerator / 4).clamp(1, n - 1);
        let fraction = numerator as f64 / 4.0 - below as f64;
        sorted[below - 1] + (sorted[below] - sorted[below - 1]) * fraction
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_in_the_drivers_alphabet() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(METRICS[..i].iter().all(|other| other.name != m.name));
        }
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
