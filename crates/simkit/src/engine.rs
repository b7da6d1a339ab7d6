//! The discrete-event engine.
//!
//! [`Simulation`] owns the event queue, the virtual clock, the resources and the
//! registered processes.  Events are fired in `(time, sequence)` order, which makes
//! the engine deterministic: simultaneous events fire in the order they were
//! scheduled, never in hash or heap-tiebreak order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::event::{ActorId, Event, EventKind, EventLog, LogPolicy};
use crate::resource::{PendingRequest, Resource, ResourceId, ResourceReport};
use crate::rng::DeterministicRng;
use crate::time::{SimDuration, SimTime};

/// A model callback woken by [`EventKind::Wakeup`] events.
///
/// Processes get mutable access to a [`ProcessCtx`] through which they can schedule
/// further events; they cannot touch the engine directly, which keeps the borrow
/// structure simple.
pub trait Process {
    /// Called when a wakeup scheduled for this process fires.
    fn wake(&mut self, ctx: &mut ProcessCtx<'_>, actor: ActorId);
}

/// The scheduling interface handed to [`Process::wake`].
pub struct ProcessCtx<'a> {
    now: SimTime,
    pending: &'a mut Vec<Event>,
    rng: &'a mut DeterministicRng,
}

impl ProcessCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, kind: EventKind) {
        self.pending.push(Event {
            at: self.now + delay,
            kind,
        });
    }

    /// Deterministic RNG shared with the engine.
    pub fn rng(&mut self) -> &mut DeterministicRng {
        self.rng
    }
}

#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Aggregate results of a completed run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Virtual time at which the last event fired.
    pub finished_at: SimTime,
    /// Total events fired.
    pub events_fired: u64,
    /// Total resource requests completed.
    pub completed_requests: u64,
    /// Per-resource statistics.
    pub resources: Vec<ResourceReport>,
}

impl RunReport {
    /// Look up a resource report by name.
    pub fn resource(&self, name: &str) -> Option<&ResourceReport> {
        self.resources.iter().find(|r| r.name == name)
    }
}

/// A deterministic discrete-event simulation.
pub struct Simulation {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled>,
    resources: Vec<Resource>,
    processes: Vec<Box<dyn Process>>,
    log: EventLog,
    rng: DeterministicRng,
    events_fired: u64,
    completed_requests: u64,
    /// Safety valve: a run aborts (with a panic in debug, truncation in release)
    /// after this many events, catching accidental infinite scheduling loops.
    max_events: u64,
}

impl Simulation {
    /// Create a simulation seeded for deterministic pseudo-randomness.
    pub fn new(seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            resources: Vec::new(),
            processes: Vec::new(),
            log: EventLog::default(),
            rng: DeterministicRng::new(seed),
            events_fired: 0,
            completed_requests: 0,
            max_events: 500_000_000,
        }
    }

    /// Switch on event logging with the given retention policy.
    pub fn with_log(mut self, policy: LogPolicy) -> Self {
        self.log = EventLog::with_policy(policy);
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The deterministic RNG.
    pub fn rng(&mut self) -> &mut DeterministicRng {
        &mut self.rng
    }

    /// The event log (empty unless a policy was set with [`Simulation::with_log`]).
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Register a resource and return its handle.
    pub fn add_resource(&mut self, resource: Resource) -> ResourceId {
        self.resources.push(resource);
        ResourceId(self.resources.len() - 1)
    }

    /// Access a resource by id (panics on an id from another simulation).
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.0]
    }

    /// Register a process and return its index for use in wakeup events.
    pub fn add_process(&mut self, process: Box<dyn Process>) -> usize {
        self.processes.push(process);
        self.processes.len() - 1
    }

    /// Schedule an event at an absolute virtual time.  Times in the past are clamped
    /// to "now" — the event still fires, after everything already scheduled for now.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, kind });
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, kind: EventKind) {
        self.schedule(self.now + delay, kind);
    }

    /// Run until the event queue drains, returning aggregate statistics.
    pub fn run(&mut self) -> RunReport {
        self.run_until(SimTime::MAX)
    }

    /// Run until the queue drains or virtual time would pass `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunReport {
        let mut deferred: Vec<Event> = Vec::new();
        while let Some(next) = self.queue.peek() {
            if next.at > deadline {
                break;
            }
            if self.events_fired >= self.max_events {
                debug_assert!(
                    false,
                    "simulation exceeded max_events={}; likely a scheduling loop",
                    self.max_events
                );
                break;
            }
            let ev = self.queue.pop().expect("peeked event must pop");
            self.advance_to(ev.at);
            self.events_fired += 1;
            self.log.record(self.now, ev.seq, &ev.kind);
            self.dispatch(ev.kind, &mut deferred);
            for e in deferred.drain(..) {
                self.schedule(e.at, e.kind);
            }
        }
        self.report()
    }

    fn advance_to(&mut self, at: SimTime) {
        if at > self.now {
            for r in &mut self.resources {
                r.accrue(at);
            }
            self.now = at;
        }
    }

    fn dispatch(&mut self, kind: EventKind, deferred: &mut Vec<Event>) {
        match kind {
            EventKind::Request {
                resource,
                actor,
                service,
            } => {
                let now = self.now;
                let res = &mut self.resources[resource.0];
                res.accrue(now);
                if res.has_free_slot() {
                    res.busy += 1;
                    res.wait_stats.add(0.0);
                    res.service_stats.add(service.as_secs());
                    deferred.push(Event {
                        at: now + service,
                        kind: EventKind::Completion {
                            resource,
                            actor,
                            queued_for: SimDuration::ZERO,
                        },
                    });
                } else {
                    res.enqueue(PendingRequest {
                        actor,
                        service,
                        arrived: now,
                    });
                }
            }
            EventKind::Completion {
                resource, actor, ..
            } => {
                let now = self.now;
                self.completed_requests += 1;
                let res = &mut self.resources[resource.0];
                res.accrue(now);
                res.completed += 1;
                // Free the slot, then admit the next queued request, if any.
                res.busy = res.busy.saturating_sub(1);
                if let Some(next) = res.dequeue() {
                    let waited = now.saturating_since(next.arrived);
                    res.busy += 1;
                    res.wait_stats.add(waited.as_secs());
                    res.service_stats.add(next.service.as_secs());
                    deferred.push(Event {
                        at: now + next.service,
                        kind: EventKind::Completion {
                            resource,
                            actor: next.actor,
                            queued_for: waited,
                        },
                    });
                }
                let _ = actor;
            }
            EventKind::Marker { .. } => {}
            EventKind::Wakeup { process, actor } => {
                if process < self.processes.len() {
                    // Temporarily move the process out so it can borrow the context.
                    let mut proc =
                        std::mem::replace(&mut self.processes[process], Box::new(NoopProcess));
                    let mut ctx = ProcessCtx {
                        now: self.now,
                        pending: deferred,
                        rng: &mut self.rng,
                    };
                    proc.wake(&mut ctx, actor);
                    self.processes[process] = proc;
                }
            }
        }
    }

    /// Produce the aggregate report for the run so far.
    pub fn report(&self) -> RunReport {
        RunReport {
            finished_at: self.now,
            events_fired: self.events_fired,
            completed_requests: self.completed_requests,
            resources: self.resources.iter().map(Resource::report).collect(),
        }
    }
}

struct NoopProcess;
impl Process for NoopProcess {
    fn wake(&mut self, _ctx: &mut ProcessCtx<'_>, _actor: ActorId) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn single_server_serializes_requests() {
        let mut sim = Simulation::new(1);
        let server = sim.add_resource(Resource::fifo("nfs", 1));
        for actor in 0..4 {
            sim.schedule(
                SimTime::ZERO,
                Event::request(server, actor, SimDuration::from_millis(10.0)),
            );
        }
        let report = sim.run();
        assert_eq!(report.completed_requests, 4);
        assert_eq!(sim.now(), SimTime::from_millis(40.0));
        let nfs = report.resource("nfs").unwrap();
        assert_eq!(nfs.completed, 4);
        // The last request waited for the three in front of it.
        assert_eq!(nfs.max_wait, SimDuration::from_millis(30.0));
    }

    #[test]
    fn multiple_slots_run_in_parallel() {
        let mut sim = Simulation::new(1);
        let server = sim.add_resource(Resource::fifo("cpu", 4));
        for actor in 0..4 {
            sim.schedule(
                SimTime::ZERO,
                Event::request(server, actor, SimDuration::from_millis(10.0)),
            );
        }
        sim.run();
        assert_eq!(sim.now(), SimTime::from_millis(10.0));
    }

    #[test]
    fn staggered_arrivals_respect_time_order() {
        let mut sim = Simulation::new(1);
        let server = sim.add_resource(Resource::fifo("nfs", 1));
        sim.schedule(
            SimTime::from_millis(5.0),
            Event::request(server, 2, SimDuration::from_millis(1.0)),
        );
        sim.schedule(
            SimTime::ZERO,
            Event::request(server, 1, SimDuration::from_millis(1.0)),
        );
        let report = sim.run();
        assert_eq!(report.completed_requests, 2);
        assert_eq!(sim.now(), SimTime::from_millis(6.0));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(1);
        let server = sim.add_resource(Resource::fifo("nfs", 1));
        for actor in 0..10 {
            sim.schedule(
                SimTime::from_millis(actor as f64 * 10.0),
                Event::request(server, actor, SimDuration::from_millis(1.0)),
            );
        }
        let report = sim.run_until(SimTime::from_millis(35.0));
        assert!(report.finished_at <= SimTime::from_millis(35.0));
        assert!(report.completed_requests < 10);
        // Resuming picks up the remaining work.
        let report = sim.run();
        assert_eq!(report.completed_requests, 10);
    }

    #[test]
    fn markers_are_recorded_when_logging() {
        let mut sim = Simulation::new(1).with_log(LogPolicy::MarkersOnly);
        sim.schedule(SimTime::from_secs(2.0), Event::marker("attach-done", 0));
        sim.run();
        assert_eq!(
            sim.log().marker_time("attach-done"),
            Some(SimTime::from_secs(2.0))
        );
    }

    #[test]
    fn identical_seeds_produce_identical_timelines() {
        fn run_once() -> (SimTime, u64) {
            let mut sim = Simulation::new(7);
            let server = sim.add_resource(Resource::fifo("nfs", 2));
            for actor in 0..100 {
                let jitter = sim.rng().uniform(0.0, 0.01);
                sim.schedule(
                    SimTime::from_secs(jitter),
                    Event::request(server, actor, SimDuration::from_millis(3.0)),
                );
            }
            let report = sim.run();
            (report.finished_at, report.events_fired)
        }
        assert_eq!(run_once(), run_once());
    }

    struct Repeater {
        remaining: u32,
        fired: std::rc::Rc<std::cell::Cell<u32>>,
    }
    impl Process for Repeater {
        fn wake(&mut self, ctx: &mut ProcessCtx<'_>, actor: ActorId) {
            self.fired.set(self.fired.get() + 1);
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule_in(SimDuration::from_secs(1.0), Event::wakeup(0, actor));
            }
        }
    }

    #[test]
    fn processes_can_self_schedule() {
        let fired = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut sim = Simulation::new(3);
        let idx = sim.add_process(Box::new(Repeater {
            remaining: 4,
            fired: fired.clone(),
        }));
        sim.schedule(SimTime::ZERO, Event::wakeup(idx, 0));
        sim.run();
        assert_eq!(fired.get(), 5);
        assert_eq!(sim.now(), SimTime::from_secs(4.0));
    }

    #[test]
    fn past_events_are_clamped_not_dropped() {
        let mut sim = Simulation::new(1);
        let server = sim.add_resource(Resource::fifo("nfs", 1));
        sim.schedule(
            SimTime::from_secs(1.0),
            Event::request(server, 0, SimDuration::from_secs(1.0)),
        );
        sim.run();
        // Scheduling "in the past" after the run still executes at the current time.
        sim.schedule(
            SimTime::ZERO,
            Event::request(server, 1, SimDuration::from_secs(1.0)),
        );
        let report = sim.run();
        assert_eq!(report.completed_requests, 2);
        assert_eq!(sim.now(), SimTime::from_secs(3.0));
    }
}
