//! Cost-model primitives.
//!
//! The launch, file-system and network models in the `machine` and `launch` crates are
//! all expressed as *cost models*: functions from a problem size to a duration.  This
//! module provides the small algebra they share — constant, linear, affine, quadratic,
//! logarithmic and piecewise models — so that calibration constants live in one place
//! per model and the figure generators can print them.
//!
//! A concrete example from the paper: the unpatched BG/L resource manager packed its
//! process table with repeated `strcat` calls, each of which scans the destination
//! buffer for the terminating NUL.  Packing n entries therefore costs Θ(n²) character
//! scans; the IBM patch replaced this with pointer-bumping, i.e. Θ(n).  Those are a
//! [`QuadraticCost`] and a [`LinearCost`] respectively, and Figure 3's "before/after
//! patch" curves fall out of swapping one for the other.

use crate::time::SimDuration;

/// A deterministic mapping from a problem size to a time cost.
pub trait CostModel: std::fmt::Debug + Send + Sync {
    /// Cost of processing `n` units.
    fn cost(&self, n: u64) -> SimDuration;

    /// Cost per additional unit around size `n` (finite difference); used by reports.
    fn marginal(&self, n: u64) -> SimDuration {
        self.cost(n + 1) - self.cost(n)
    }
}

/// `cost(n) = fixed` regardless of `n`.
#[derive(Clone, Copy, Debug)]
pub struct ConstantCost {
    /// The fixed cost.
    pub fixed: SimDuration,
}

impl CostModel for ConstantCost {
    fn cost(&self, _n: u64) -> SimDuration {
        self.fixed
    }
}

/// `cost(n) = base + per_unit * n`.
#[derive(Clone, Copy, Debug)]
pub struct LinearCost {
    /// Fixed component paid once.
    pub base: SimDuration,
    /// Cost per unit.
    pub per_unit: SimDuration,
}

impl LinearCost {
    /// A linear model with no fixed component.
    pub fn per_unit(per_unit: SimDuration) -> Self {
        LinearCost {
            base: SimDuration::ZERO,
            per_unit,
        }
    }
}

impl CostModel for LinearCost {
    fn cost(&self, n: u64) -> SimDuration {
        self.base + self.per_unit * n
    }
}

/// `cost(n) = base + per_unit * n + per_unit_sq * n²` — the `strcat` pathology.
#[derive(Clone, Copy, Debug)]
pub struct QuadraticCost {
    /// Fixed component.
    pub base: SimDuration,
    /// Linear coefficient.
    pub per_unit: SimDuration,
    /// Quadratic coefficient.
    pub per_unit_sq: SimDuration,
}

impl CostModel for QuadraticCost {
    fn cost(&self, n: u64) -> SimDuration {
        self.base + self.per_unit * n + self.per_unit_sq.mul_f64((n as f64) * (n as f64))
    }
}

/// `cost(n) = base + per_level * ceil(log2(max(n,1)))` — tree-structured operations.
#[derive(Clone, Copy, Debug)]
pub struct LogarithmicCost {
    /// Fixed component.
    pub base: SimDuration,
    /// Cost per tree level.
    pub per_level: SimDuration,
}

impl CostModel for LogarithmicCost {
    fn cost(&self, n: u64) -> SimDuration {
        let levels = 64 - n.max(1).leading_zeros() as u64;
        self.base + self.per_level * levels
    }
}

/// Transfer-time model for moving `bytes` across a link: `latency + bytes/bandwidth`.
#[derive(Clone, Copy, Debug)]
pub struct BandwidthCost {
    /// One-way latency per message.
    pub latency: SimDuration,
    /// Bandwidth in bytes per second.
    pub bytes_per_sec: f64,
}

impl BandwidthCost {
    /// Time to move `bytes` bytes in a single message.
    pub fn transfer(&self, bytes: u64) -> SimDuration {
        let serialization = if self.bytes_per_sec > 0.0 {
            SimDuration::from_secs(bytes as f64 / self.bytes_per_sec)
        } else {
            SimDuration::ZERO
        };
        self.latency + serialization
    }
}

impl CostModel for BandwidthCost {
    fn cost(&self, n: u64) -> SimDuration {
        self.transfer(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration as D;

    #[test]
    fn constant_ignores_n() {
        let m = ConstantCost {
            fixed: D::from_secs(2.0),
        };
        assert_eq!(m.cost(0), D::from_secs(2.0));
        assert_eq!(m.cost(1_000_000), D::from_secs(2.0));
        assert_eq!(m.marginal(10), D::ZERO);
    }

    #[test]
    fn linear_grows_linearly() {
        let m = LinearCost {
            base: D::from_secs(1.0),
            per_unit: D::from_millis(10.0),
        };
        assert_eq!(m.cost(0), D::from_secs(1.0));
        assert_eq!(m.cost(100), D::from_secs(2.0));
        assert_eq!(m.marginal(50), D::from_millis(10.0));
    }

    #[test]
    fn quadratic_dominates_at_scale() {
        let m = QuadraticCost {
            base: D::ZERO,
            per_unit: D::from_micros(1.0),
            per_unit_sq: D::from_nanos(10),
        };
        let small = m.cost(100).as_secs();
        let big = m.cost(10_000).as_secs();
        // 100x the size should be much more than 100x the cost.
        assert!(big / small > 500.0, "ratio {}", big / small);
    }

    #[test]
    fn logarithmic_grows_with_levels() {
        let m = LogarithmicCost {
            base: D::ZERO,
            per_level: D::from_secs(1.0),
        };
        assert_eq!(m.cost(1), D::from_secs(1.0));
        assert_eq!(m.cost(2), D::from_secs(2.0));
        assert_eq!(m.cost(1024), D::from_secs(11.0));
        assert_eq!(m.cost(0), m.cost(1), "n=0 treated as n=1");
    }

    #[test]
    fn bandwidth_cost_combines_latency_and_serialization() {
        let link = BandwidthCost {
            latency: SimDuration::from_micros(5.0),
            bytes_per_sec: 1.0e9,
        };
        let t = link.transfer(1_000_000); // 1 MB at 1 GB/s = 1 ms
        assert!((t.as_secs() - 0.001005).abs() < 1e-6);
        let zero_bw = BandwidthCost {
            latency: SimDuration::from_micros(5.0),
            bytes_per_sec: 0.0,
        };
        assert_eq!(zero_bw.transfer(1_000_000), SimDuration::from_micros(5.0));
    }
}
