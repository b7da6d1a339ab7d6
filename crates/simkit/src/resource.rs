//! Queueing resources.
//!
//! A resource models a contended piece of the environment: an NFS metadata server, a
//! login node's CPU, a resource-manager control daemon, the collective network of a
//! BG/L rack.  Each resource has a number of identical *server slots* and a queueing
//! policy.  Requests occupy a slot for their service time; requests that arrive while
//! all slots are busy wait in the queue.
//!
//! The paper's file-system findings (Section VI) are, at heart, an observation about
//! an M/D/c-like queue: 512 daemons simultaneously parsing a symbol table from one NFS
//! server serialize behind the server, so an operation that is nominally O(1) per
//! daemon becomes O(n/c) in wall-clock time.  Modelling that faithfully only requires
//! a FIFO queue with a configurable number of slots and per-request service times —
//! which is exactly what this module provides.

use std::collections::VecDeque;

use crate::event::ActorId;
use crate::stats::Accumulator;
use crate::time::{SimDuration, SimTime};

/// Identifies a resource within one [`crate::engine::Simulation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub usize);

/// How waiting requests are ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ResourcePolicy {
    /// First in, first out.  Used for file servers and launch daemons.
    #[default]
    Fifo,
    /// Shortest service time first.  Used to model schedulers that favour small
    /// requests (e.g. metadata operations overtaking bulk reads).
    ShortestFirst,
}

/// A contended resource with `slots` identical servers.
#[derive(Clone, Debug)]
pub struct Resource {
    /// Human-readable name used in reports ("nfs", "login-cpu", "ciod", ...).
    pub name: String,
    /// Number of requests that can be in service simultaneously.
    pub slots: usize,
    /// Queueing policy for waiting requests.
    pub policy: ResourcePolicy,
    pub(crate) busy: usize,
    pub(crate) queue: VecDeque<PendingRequest>,
    pub(crate) wait_stats: Accumulator,
    pub(crate) service_stats: Accumulator,
    pub(crate) completed: u64,
    pub(crate) busy_time: SimDuration,
    pub(crate) last_change: SimTime,
}

/// A request waiting for a server slot.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PendingRequest {
    pub actor: ActorId,
    pub service: SimDuration,
    pub arrived: SimTime,
}

impl Resource {
    /// A FIFO resource with `slots` parallel servers.
    pub fn fifo(name: impl Into<String>, slots: usize) -> Self {
        Resource::new(name, slots, ResourcePolicy::Fifo)
    }

    /// A resource with an explicit policy.
    pub fn new(name: impl Into<String>, slots: usize, policy: ResourcePolicy) -> Self {
        Resource {
            name: name.into(),
            slots: slots.max(1),
            policy,
            busy: 0,
            queue: VecDeque::new(),
            wait_stats: Accumulator::new(),
            service_stats: Accumulator::new(),
            completed: 0,
            busy_time: SimDuration::ZERO,
            last_change: SimTime::ZERO,
        }
    }

    /// Total completed requests.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Statistics over queueing delays experienced by completed requests.
    pub fn wait_stats(&self) -> &Accumulator {
        &self.wait_stats
    }

    /// Statistics over service times of completed requests.
    pub fn service_stats(&self) -> &Accumulator {
        &self.service_stats
    }

    /// Aggregate busy time across all slots (for utilisation reports).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Whether a newly arriving request can start service immediately.
    pub(crate) fn has_free_slot(&self) -> bool {
        self.busy < self.slots
    }

    /// Account busy-slot time up to `now`.
    pub(crate) fn accrue(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_change);
        if self.busy > 0 {
            self.busy_time = self
                .busy_time
                .saturating_add(elapsed.mul_f64(self.busy as f64));
        }
        self.last_change = now;
    }

    /// Enqueue a request respecting the policy.
    pub(crate) fn enqueue(&mut self, req: PendingRequest) {
        match self.policy {
            ResourcePolicy::Fifo => self.queue.push_back(req),
            ResourcePolicy::ShortestFirst => {
                // Insert before the first queued request with a strictly longer
                // service time; ties keep arrival order so the policy stays stable.
                let pos = self
                    .queue
                    .iter()
                    .position(|q| q.service > req.service)
                    .unwrap_or(self.queue.len());
                self.queue.insert(pos, req);
            }
        }
    }

    /// Pop the next request to serve, if any.
    pub(crate) fn dequeue(&mut self) -> Option<PendingRequest> {
        self.queue.pop_front()
    }
}

/// Immutable snapshot of a resource's statistics, exposed in run reports.
#[derive(Clone, Debug)]
pub struct ResourceReport {
    /// Resource name.
    pub name: String,
    /// Number of parallel server slots.
    pub slots: usize,
    /// Requests completed over the run.
    pub completed: u64,
    /// Mean queueing delay.
    pub mean_wait: SimDuration,
    /// Maximum queueing delay.
    pub max_wait: SimDuration,
    /// Mean service time.
    pub mean_service: SimDuration,
    /// Aggregate busy time across slots.
    pub busy_time: SimDuration,
}

impl Resource {
    /// Produce the report snapshot.
    pub fn report(&self) -> ResourceReport {
        ResourceReport {
            name: self.name.clone(),
            slots: self.slots,
            completed: self.completed,
            mean_wait: SimDuration::from_secs(self.wait_stats.mean()),
            max_wait: SimDuration::from_secs(self.wait_stats.max()),
            mean_service: SimDuration::from_secs(self.service_stats.mean()),
            busy_time: self.busy_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(actor: ActorId, millis: f64) -> PendingRequest {
        PendingRequest {
            actor,
            service: SimDuration::from_millis(millis),
            arrived: SimTime::ZERO,
        }
    }

    #[test]
    fn slots_are_clamped_to_at_least_one() {
        let r = Resource::fifo("zero", 0);
        assert_eq!(r.slots, 1);
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut r = Resource::fifo("nfs", 1);
        r.enqueue(req(1, 5.0));
        r.enqueue(req(2, 1.0));
        r.enqueue(req(3, 3.0));
        assert_eq!(r.dequeue().unwrap().actor, 1);
        assert_eq!(r.dequeue().unwrap().actor, 2);
        assert_eq!(r.dequeue().unwrap().actor, 3);
        assert!(r.dequeue().is_none());
    }

    #[test]
    fn shortest_first_orders_by_service_time() {
        let mut r = Resource::new("meta", 1, ResourcePolicy::ShortestFirst);
        r.enqueue(req(1, 5.0));
        r.enqueue(req(2, 1.0));
        r.enqueue(req(3, 3.0));
        r.enqueue(req(4, 1.0)); // tie with actor 2, must come after it
        let order: Vec<ActorId> = std::iter::from_fn(|| r.dequeue().map(|p| p.actor)).collect();
        assert_eq!(order, vec![2, 4, 3, 1]);
    }

    #[test]
    fn accrue_tracks_busy_slot_time() {
        let mut r = Resource::fifo("cpu", 2);
        r.busy = 2;
        r.accrue(SimTime::from_secs(1.0));
        assert_eq!(r.busy_time(), SimDuration::from_secs(2.0));
        r.busy = 1;
        r.accrue(SimTime::from_secs(2.0));
        assert_eq!(r.busy_time(), SimDuration::from_secs(3.0));
    }

    #[test]
    fn report_reflects_counters() {
        let mut r = Resource::fifo("nfs", 4);
        r.completed = 10;
        r.wait_stats.add(0.5);
        r.wait_stats.add(1.5);
        r.service_stats.add(2.0);
        let rep = r.report();
        assert_eq!(rep.completed, 10);
        assert_eq!(rep.slots, 4);
        assert_eq!(rep.mean_wait, SimDuration::from_secs(1.0));
        assert_eq!(rep.max_wait, SimDuration::from_secs(1.5));
        assert_eq!(rep.mean_service, SimDuration::from_secs(2.0));
    }
}
