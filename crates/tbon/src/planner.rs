//! Cost-model-driven topology planning.
//!
//! The paper hand-picked three tree shapes and measured them; the question it left
//! open — *which shape should the tool pick at a scale nobody has measured yet?* —
//! is what [`TopologyPlanner`] answers.  Given a [`Cluster`] and a task count, the
//! planner enumerates candidate [`TreeShape`]s (the paper's placement-rule shapes at
//! every depth, plus a fan-in × depth grid of uniform trees), prices each one with
//! [`price_reduction`] under the hierarchical-representation payload the paper
//! converges on, checks each against the machine's
//! [`CommProcessBudget`](machine::placement::CommProcessBudget), and returns them
//! ranked as [`PlannedTopology`] values: predicted merge latency, the fan-out and
//! daemon count behind it, and the constraint that bound the shape (if any).
//!
//! Beyond the physical machine the planner extrapolates the machine family
//! ([`PlacementPlan::for_scaled_job`]), so the same API sweeps the merge question
//! out to millions of simulated cores — the title of the paper.
//!
//! Each candidate is priced through [`price_reduction`], which builds the full
//! [`Topology`](crate::topology::Topology), so the planner and the figure
//! estimators share one cost path (`plan` at a million cores is ~30 ms).  For
//! sweeps far beyond that, an analytic per-level evaluation over the raw
//! [`TreeShape`] would avoid materialising multi-million-node trees per
//! candidate — a known optimisation lever, deliberately not taken while there is
//! one pricing path.

use std::fmt;

use machine::cluster::Cluster;
use machine::placement::PlacementPlan;
use simkit::time::SimDuration;

use crate::cost::{price_reduction, Labels, TreePayload};
use crate::topology::TreeShape;

/// Deepest tree the planner considers (edges from front end to daemons).
const MAX_DEPTH: u32 = 6;
/// Uniform fan-ins enumerated at every depth, alongside the placement-rule shapes.
const FAN_INS: [u32; 6] = [2, 4, 8, 16, 32, 64];

/// Where a candidate shape came from — the stable identity of one row of a
/// fan-in × depth sweep table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CandidateOrigin {
    /// The paper's placement rules ([`PlacementPlan::level_widths`]) at this depth.
    Placement {
        /// Tree depth in edges.
        depth: u32,
    },
    /// A uniform tree: every internal level grows by `fan_in`, the leaf level
    /// absorbs the rest.
    Uniform {
        /// Fan-in of the upper levels.
        fan_in: u32,
        /// Tree depth in edges.
        depth: u32,
    },
}

impl CandidateOrigin {
    /// A stable series label ("placement 2-deep", "fan-in 8 × 3-deep").
    pub fn label(&self) -> String {
        match self {
            CandidateOrigin::Placement { depth } => format!("placement {depth}-deep"),
            CandidateOrigin::Uniform { fan_in, depth } => {
                format!("fan-in {fan_in} × {depth}-deep")
            }
        }
    }
}

impl fmt::Display for CandidateOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The machine constraint that bound (or disqualified) a candidate shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanConstraint {
    /// The shape wants more communication processes than the machine (or its
    /// scaled-out extrapolation) can host.
    CommBudget {
        /// Communication processes the shape asks for.
        requested: u32,
        /// Processes the budget allows.
        allowed: u32,
    },
    /// A flat tree's front end cannot absorb this many direct daemon connections —
    /// the failure the paper observed at 256 I/O-node daemons on BG/L.
    FrontEndFanOut {
        /// Direct connections the shape requires.
        daemons: u32,
        /// The observed failure threshold.
        limit: u32,
    },
}

impl fmt::Display for PlanConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanConstraint::CommBudget { requested, allowed } => write!(
                f,
                "comm-process budget: shape wants {requested}, machine hosts {allowed}"
            ),
            PlanConstraint::FrontEndFanOut { daemons, limit } => write!(
                f,
                "front-end fan-out: {daemons} direct daemon connections (observed failure at {limit})"
            ),
        }
    }
}

/// One evaluated candidate: a shape, its predicted cost, and what (if anything)
/// constrained it.
#[derive(Clone, Debug)]
pub struct PlannedTopology {
    /// Which enumeration family produced the shape.
    pub origin: CandidateOrigin,
    /// The candidate shape itself.
    pub shape: TreeShape,
    /// Predicted merge critical path under the hierarchical representation.
    pub predicted: SimDuration,
    /// Largest fan-out any node of the shape has.
    pub max_fanout: u32,
    /// Back-end daemons the shape serves.
    pub daemons: u32,
    /// Communication processes the shape employs.
    pub comm_processes: u32,
    /// Whether the machine can actually run this shape.
    pub feasible: bool,
    /// The constraint that made the shape infeasible, or that it runs exactly at
    /// the edge of (`feasible` with the budget fully spent).
    pub bound_by: Option<PlanConstraint>,
}

/// Daemon count above which the paper observed the flat tree's front end failing
/// outright on I/O-node machines (Section V).
pub const FLAT_FRONTEND_LIMIT: u32 = 256;

/// The paper's hard flat-tree failure: on machines whose daemons live on
/// dedicated I/O nodes, a 1-deep tree stops working once the front end must
/// absorb [`FLAT_FRONTEND_LIMIT`] or more direct daemon connections.  Shared
/// between the planner's feasibility check and `PhaseEstimator`'s failure
/// annotation so the two can never drift.
pub fn flat_frontend_overloaded(shape: &TreeShape, daemons_on_io_nodes: bool) -> bool {
    shape.depth() == 1 && daemons_on_io_nodes && shape.backends() >= FLAT_FRONTEND_LIMIT
}

/// Searches candidate tree shapes for a cluster and job size using the reduction
/// cost model, under the machine's placement constraints.
#[derive(Clone, Debug)]
pub struct TopologyPlanner {
    cluster: Cluster,
    class_saturation_tasks: Option<u64>,
}

impl TopologyPlanner {
    /// A planner for the given machine, pricing candidates under the ring-hang
    /// payload calibration the figure generators use, so planner predictions and
    /// figure estimates agree by construction.
    pub fn new(cluster: Cluster) -> Self {
        TopologyPlanner {
            cluster,
            class_saturation_tasks: None,
        }
    }

    /// Price candidates under the class-saturated payload: subtrees holding more
    /// than `tasks` tasks emit packets no larger than a subtree at that knee
    /// ([`TreePayload::saturation_tasks`]).  Without it the planner prices the
    /// unsaturated worst case.
    pub fn with_class_saturation(mut self, tasks: u64) -> Self {
        self.class_saturation_tasks = Some(tasks);
        self
    }

    /// The machine the planner searches for.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Evaluate every candidate shape for a job of `tasks` MPI tasks and return
    /// them ranked: feasible candidates first, cheapest predicted merge first, with
    /// infeasible candidates (still priced, for the sweep tables) at the end.
    pub fn rank(&self, tasks: u64) -> Vec<PlannedTopology> {
        let tasks = tasks.max(1);
        let plan = PlacementPlan::for_scaled_job(&self.cluster, tasks);
        let mut candidates = Vec::new();
        for depth in 1..=MAX_DEPTH {
            candidates.push((
                CandidateOrigin::Placement { depth },
                TreeShape::for_placement(&plan, depth),
            ));
        }
        // Uniform candidates need at least one comm level.
        for fan_in in FAN_INS {
            for depth in 2..=MAX_DEPTH {
                candidates.push((
                    CandidateOrigin::Uniform { fan_in, depth },
                    TreeShape::uniform_with_depth(plan.daemons, fan_in, depth),
                ));
            }
        }

        let mut evaluated: Vec<PlannedTopology> = candidates
            .into_iter()
            .map(|(origin, shape)| self.evaluate(origin, shape, &plan, tasks))
            .collect();
        evaluated.sort_by(|a, b| {
            b.feasible
                .cmp(&a.feasible)
                .then(a.predicted.cmp(&b.predicted))
                .then(a.shape.depth().cmp(&b.shape.depth()))
                .then(a.max_fanout.cmp(&b.max_fanout))
        });
        evaluated
    }

    /// The cheapest feasible candidate for a job of `tasks` MPI tasks.
    ///
    /// The grid always contains a feasible shape: the placement 2-deep tree fits
    /// any budget by construction.
    pub fn plan(&self, tasks: u64) -> PlannedTopology {
        self.rank(tasks)
            .into_iter()
            .next()
            .expect("the candidate grid is never empty")
    }

    /// Price one shape with the reduction cost model and the machine constraints.
    fn evaluate(
        &self,
        origin: CandidateOrigin,
        shape: TreeShape,
        plan: &PlacementPlan,
        tasks: u64,
    ) -> PlannedTopology {
        let payload = TreePayload {
            saturation_tasks: self.class_saturation_tasks,
            ..TreePayload::ring_hang(tasks, plan.tasks_per_daemon.max(1) as u64, Labels::Subtree)
        };
        let cost = price_reduction(&self.cluster, &shape, &payload);

        let comm = shape.comm_processes();
        let allowed = plan.comm_budget.max_processes;
        let mut feasible = true;
        let mut bound_by = None;
        if comm > allowed {
            feasible = false;
            bound_by = Some(PlanConstraint::CommBudget {
                requested: comm,
                allowed,
            });
        } else if flat_frontend_overloaded(&shape, plan.daemons_on_io_nodes) {
            feasible = false;
            bound_by = Some(PlanConstraint::FrontEndFanOut {
                daemons: shape.backends(),
                limit: FLAT_FRONTEND_LIMIT,
            });
        } else if comm == allowed && comm > 0 {
            // Feasible, but the budget is exactly spent: the shape is bound by it.
            bound_by = Some(PlanConstraint::CommBudget {
                requested: comm,
                allowed,
            });
        }

        PlannedTopology {
            origin,
            max_fanout: shape.max_fanout(),
            daemons: shape.backends(),
            comm_processes: comm,
            shape,
            predicted: cost.critical_path,
            feasible,
            bound_by,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::cluster::BglMode;

    #[test]
    fn planner_rejects_the_flat_tree_at_bgl_scale() {
        let planner = TopologyPlanner::new(Cluster::bluegene_l(BglMode::VirtualNode));
        let ranked = planner.rank(212_992);
        let flat = ranked
            .iter()
            .find(|c| c.origin == CandidateOrigin::Placement { depth: 1 })
            .expect("the flat candidate is always enumerated");
        assert!(!flat.feasible);
        assert_eq!(
            flat.bound_by,
            Some(PlanConstraint::FrontEndFanOut {
                daemons: 1_664,
                limit: 256,
            })
        );
    }

    #[test]
    fn planner_pick_respects_the_comm_budget() {
        let planner = TopologyPlanner::new(Cluster::bluegene_l(BglMode::VirtualNode));
        let pick = planner.plan(212_992);
        assert!(pick.feasible);
        assert!(
            pick.comm_processes <= 28,
            "BG/L hosts at most 28 comm processes"
        );
        assert_eq!(pick.daemons, 1_664);
        // Every feasible candidate is at least as expensive as the pick.
        for c in planner.rank(212_992).iter().filter(|c| c.feasible) {
            assert!(c.predicted >= pick.predicted);
        }
    }

    #[test]
    fn wide_uniform_shapes_are_bound_by_the_budget() {
        let planner = TopologyPlanner::new(Cluster::bluegene_l(BglMode::VirtualNode));
        let ranked = planner.rank(212_992);
        let wide = ranked
            .iter()
            .find(|c| {
                c.origin
                    == CandidateOrigin::Uniform {
                        fan_in: 64,
                        depth: 3,
                    }
            })
            .expect("fan-in 64 is in the default grid");
        // 64 + 1,664-capped second level wants far more than 28 processes.
        assert!(!wide.feasible);
        assert!(matches!(
            wide.bound_by,
            Some(PlanConstraint::CommBudget { .. })
        ));
    }

    #[test]
    fn planning_extends_beyond_the_physical_machine() {
        let planner = TopologyPlanner::new(Cluster::bluegene_l(BglMode::VirtualNode));
        let pick = planner.plan(1_048_576);
        assert_eq!(pick.daemons, 8_192, "128 tasks per daemon, unclamped");
        assert!(pick.feasible);
        assert!(pick.predicted > SimDuration::ZERO);
        // At a million tasks a deeper-than-paper tree must at least be on the
        // table; the grid prices depths the old enum could not express.
        assert!(planner
            .rank(1_048_576)
            .iter()
            .any(|c| c.shape.depth() >= 4 && c.feasible));
    }

    #[test]
    fn atlas_small_jobs_prefer_shallow_trees() {
        let planner = TopologyPlanner::new(Cluster::atlas());
        let pick = planner.plan(512);
        // 64 daemons with fast links: a deep chain of filter hops only adds
        // latency, so the planner stays shallow.
        assert!(pick.shape.depth() <= 2, "picked {:?}", pick.shape);
        assert!(pick.feasible);
    }

    #[test]
    fn class_saturation_shifts_the_pick_toward_depth() {
        // At 64M simulated tasks the unsaturated worst-case payload punishes
        // extra filter hops (every level re-ships near-job-sized bit vectors),
        // while the saturated model makes packets constant-size past the knee
        // so fan-in dominates and the planner goes deeper — the crossover the
        // campaign surface records.
        let cluster = Cluster::bluegene_l(BglMode::VirtualNode);
        let tasks = 67_108_864;
        let flat_world = TopologyPlanner::new(cluster.clone()).plan(tasks);
        let saturated = TopologyPlanner::new(cluster)
            .with_class_saturation(1 << 20)
            .plan(tasks);
        assert!(
            saturated.shape.depth() >= flat_world.shape.depth(),
            "saturation must never make the planner shallower: {:?} vs {:?}",
            saturated.shape,
            flat_world.shape
        );
        assert!(
            saturated.predicted < flat_world.predicted,
            "saturated payloads must price the same job cheaper"
        );
    }

    /// One ranked candidate on one line: origin, level widths, predicted
    /// nanoseconds, feasibility and the binding constraint.
    fn row(c: &PlannedTopology) -> String {
        let widths: Vec<String> = c.shape.level_widths.iter().map(u32::to_string).collect();
        let bound = match c.bound_by {
            None => "-".to_string(),
            Some(PlanConstraint::CommBudget { requested, allowed }) => {
                format!("budget {requested}/{allowed}")
            }
            Some(PlanConstraint::FrontEndFanOut { daemons, limit }) => {
                format!("fan-out {daemons}/{limit}")
            }
        };
        let feasible = if c.feasible { "ok" } else { "no" };
        let nanos = c.predicted.as_nanos();
        format!(
            "{} [{}] {nanos} {feasible} {bound}",
            c.origin,
            widths.join(",")
        )
    }

    // `TopologyPlanner::rank` on BG/L CO, recorded at the parent commit (9759d71),
    // where `evaluate` spelled the payload arithmetic inline.
    const AT_64K: &[&str] = &[
        "placement 2-deep [1,28,1024] 20355340 ok budget 28/28",
        "fan-in 16 × 2-deep [1,16,1024] 21776992 ok -",
        "placement 3-deep [1,4,24,1024] 22787410 ok budget 28/28",
        "fan-in 4 × 3-deep [1,4,16,1024] 24613632 ok -",
        "fan-in 8 × 2-deep [1,8,1024] 27155480 ok -",
        "placement 4-deep [1,2,4,22,1024] 30511482 ok budget 28/28",
        "fan-in 2 × 4-deep [1,2,4,8,1024] 37601878 ok -",
        "fan-in 4 × 2-deep [1,4,1024] 39091444 ok -",
        "fan-in 2 × 3-deep [1,2,4,1024] 46111708 ok -",
        "placement 5-deep [1,1,1,1,25,1024] 62187204 ok budget 28/28",
        "fan-in 2 × 2-deep [1,2,1024] 63552866 ok -",
        "placement 6-deep [1,1,1,1,1,24,1024] 76195372 ok budget 28/28",
        "fan-in 16 × 3-deep [1,16,256,1024] 18617640 no budget 272/28",
        "fan-in 8 × 4-deep [1,8,64,512,1024] 18925768 no budget 584/28",
        "fan-in 16 × 4-deep [1,16,256,1024,1024] 18993128 no budget 1296/28",
        "fan-in 8 × 3-deep [1,8,64,1024] 19064176 no budget 72/28",
        "fan-in 8 × 5-deep [1,8,64,512,1024,1024] 19274172 no budget 1608/28",
        "fan-in 16 × 5-deep [1,16,256,1024,1024,1024] 19327990 no budget 2320/28",
        "fan-in 8 × 6-deep [1,8,64,512,1024,1024,1024] 19609034 no budget 2632/28",
        "fan-in 16 × 6-deep [1,16,256,1024,1024,1024,1024] 19662852 no budget 3344/28",
        "fan-in 32 × 2-deep [1,32,1024] 20266736 no budget 32/28",
        "fan-in 32 × 3-deep [1,32,1024,1024] 21021400 no budget 1056/28",
        "fan-in 4 × 5-deep [1,4,16,64,256,1024] 21118912 no budget 340/28",
        "fan-in 32 × 4-deep [1,32,1024,1024,1024] 21356262 no budget 2080/28",
        "fan-in 4 × 4-deep [1,4,16,64,1024] 21451040 no budget 84/28",
        "fan-in 4 × 6-deep [1,4,16,64,256,1024,1024] 21494400 no budget 1364/28",
        "fan-in 32 × 5-deep [1,32,1024,1024,1024,1024] 21691124 no budget 3104/28",
        "fan-in 64 × 2-deep [1,64,1024] 21763408 no budget 64/28",
        "fan-in 32 × 6-deep [1,32,1024,1024,1024,1024,1024] 22025986 no budget 4128/28",
        "fan-in 64 × 3-deep [1,64,1024,1024] 22301400 no budget 1088/28",
        "fan-in 64 × 4-deep [1,64,1024,1024,1024] 22636262 no budget 2112/28",
        "fan-in 64 × 5-deep [1,64,1024,1024,1024,1024] 22971124 no budget 3136/28",
        "fan-in 64 × 6-deep [1,64,1024,1024,1024,1024,1024] 23305986 no budget 4160/28",
        "fan-in 2 × 6-deep [1,2,4,8,16,32,1024] 31746378 no budget 62/28",
        "fan-in 2 × 5-deep [1,2,4,8,16,1024] 33557712 no budget 30/28",
        "placement 1-deep [1,1024] 98856680 no fan-out 1024/256",
    ];

    const AT_1M: &[&str] = &[
        "fan-in 16 × 3-deep [1,16,256,16384] 241022424 ok -",
        "placement 2-deep [1,128,16384] 242803280 ok -",
        "fan-in 64 × 2-deep [1,64,16384] 248844304 ok -",
        "placement 4-deep [1,6,36,238,16384] 269809451 ok budget 280/280",
        "fan-in 32 × 2-deep [1,32,16384] 270358256 ok -",
        "fan-in 8 × 3-deep [1,8,64,16384] 271534408 ok -",
        "fan-in 4 × 4-deep [1,4,16,64,16384] 312144632 ok -",
        "fan-in 16 × 2-deep [1,16,16384] 318102112 ok -",
        "placement 5-deep [1,3,9,27,241,16384] 332475427 ok budget 280/280",
        "placement 3-deep [1,4,24,16384] 339261246 ok -",
        "fan-in 4 × 3-deep [1,4,16,16384] 371909868 ok -",
        "fan-in 8 × 2-deep [1,8,16384] 415947800 ok -",
        "placement 6-deep [1,2,4,8,16,250,16384] 432809817 ok budget 280/280",
        "fan-in 2 × 6-deep [1,2,4,8,16,32,16384] 472961334 ok -",
        "fan-in 2 × 5-deep [1,2,4,8,16,16384] 508265148 ok -",
        "fan-in 2 × 4-deep [1,2,4,8,16384] 579294274 ok -",
        "fan-in 4 × 2-deep [1,4,16384] 612824800 ok -",
        "fan-in 2 × 3-deep [1,2,4,16384] 721774024 ok -",
        "fan-in 2 × 2-deep [1,2,16384] 1007151704 ok -",
        "fan-in 32 × 3-deep [1,32,1024,16384] 232694680 no budget 1056/280",
        "fan-in 32 × 4-deep [1,32,1024,16384,16384] 233232672 no budget 17440/280",
        "fan-in 32 × 5-deep [1,32,1024,16384,16384,16384] 233567534 no budget 33824/280",
        "fan-in 32 × 6-deep [1,32,1024,16384,16384,16384,16384] 233902396 no budget 50208/280",
        "fan-in 64 × 3-deep [1,64,4096,16384] 234376056 no budget 4160/280",
        "fan-in 64 × 4-deep [1,64,4096,16384,16384] 234751544 no budget 20544/280",
        "fan-in 64 × 5-deep [1,64,4096,16384,16384,16384] 235086406 no budget 36928/280",
        "fan-in 64 × 6-deep [1,64,4096,16384,16384,16384,16384] 235421268 no budget 53312/280",
        "fan-in 16 × 4-deep [1,16,256,4096,16384] 237863072 no budget 4368/280",
        "fan-in 16 × 5-deep [1,16,256,4096,16384,16384] 238238560 no budget 20752/280",
        "fan-in 16 × 6-deep [1,16,256,4096,16384,16384,16384] 238573422 no budget 37136/280",
        "fan-in 8 × 5-deep [1,8,64,512,4096,16384] 253092816 no budget 4680/280",
        "fan-in 8 × 6-deep [1,8,64,512,4096,16384,16384] 253468304 no budget 21064/280",
        "fan-in 8 × 4-deep [1,8,64,512,16384] 254367352 no budget 584/280",
        "fan-in 4 × 6-deep [1,4,16,64,256,1024,16384] 294504228 no budget 1364/280",
        "fan-in 4 × 5-deep [1,4,16,64,256,16384] 297666820 no budget 340/280",
        "placement 1-deep [1,16384] 1578331880 no fan-out 16384/256",
    ];
    #[test]
    fn rank_through_the_pricing_entry_point_matches_the_recorded_lists() {
        let planner = TopologyPlanner::new(Cluster::bluegene_l(BglMode::CoProcessor));
        for (tasks, recorded) in [(65_536, AT_64K), (1_048_576, AT_1M)] {
            let ranked: Vec<String> = planner.rank(tasks).iter().map(row).collect();
            assert_eq!(ranked, recorded, "{tasks} tasks");
        }
    }

    #[test]
    fn origin_labels_are_stable_series_names() {
        assert_eq!(
            CandidateOrigin::Placement { depth: 2 }.label(),
            "placement 2-deep"
        );
        assert_eq!(
            CandidateOrigin::Uniform {
                fan_in: 8,
                depth: 3
            }
            .label(),
            "fan-in 8 × 3-deep"
        );
    }
}
