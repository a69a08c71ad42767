//! The two-class event core: one `k`-server cluster's queues, clock and
//! capacity, and the only copy of the model's service rules.
//!
//! Both the discrete-event simulator ([`crate::des::Simulation`]) and the
//! serving shards of `eirs_serve` are a [`Cluster`] plus their own
//! bookkeeping. The caller drives the event loop; every rule that decides
//! *what happens* lives here:
//!
//! * **Decisions.** [`Cluster::decide`] applies the degraded-decision
//!   rule: with `avail` servers up the policy is called with `avail`
//!   (which is `k` on a healthy cluster — the hot path); at zero capacity
//!   the allocation is [`ClassAllocation::IDLE`] *without consulting the
//!   policy* (policies need not be defined on an empty cluster).
//! * **Service.** Within each class service is FCFS: the first `⌊π_I⌋`
//!   inelastic jobs get one server each, the next inelastic job gets the
//!   fractional remainder, and the head-of-line elastic job receives the
//!   entire elastic share (for linear-speedup jobs the split within the
//!   class does not affect the class-level completion rate, and
//!   head-of-line matches the paper's EF/IF definitions). Between events
//!   every rate is constant, so [`Cluster::next_event`] is exact and
//!   [`Cluster::advance`] moves the clock straight to the next event.
//! * **Departures.** [`Cluster::collect_departures`] sweeps finished jobs:
//!   inelastic front pops, then a positional sweep for a fractionally
//!   served straggler, then elastic front pops.
//! * **Arrivals.** [`Cluster::arrives`] is the tie-break: an arrival is
//!   the event that ended a step only if it was due no later than the
//!   earliest completion, so a simultaneous completion departs first.
//!   [`Cluster::admit`] queues the job; a zero-size job departs at once.
//! * **Capacity loss.** Capacity-change events are first-class events.
//!   Elastic jobs are malleable and simply shrink onto the surviving
//!   servers — no work is lost. Inelastic jobs use one server each and
//!   cannot migrate mid-flight: when capacity drops below the served
//!   prefix, every partially-served inelastic job beyond queue position
//!   `avail` is **preempt-restarted** — its remaining work resets to its
//!   full size and it re-enters at the back of the inelastic queue.
//!   Untouched jobs keep their position; capacity increases never
//!   disturb state.
//!
//! The core keeps no statistics. Every mutation that removes or restores
//! work reports it (the return value of [`Cluster::advance`], the job
//! handed to a departure callback, the lost progress handed to a restart
//! callback), so a caller can keep running work totals in a fixed
//! float-operation order.

use crate::arrivals::Arrival;
use crate::availability::{CapacityEvent, FaultSchedule};
use crate::job::{Job, JobClass};
use crate::policy::{assert_feasible, AllocationPolicy, ClassAllocation};
use std::collections::VecDeque;

/// Times from now to the candidate next events of one step.
#[derive(Debug, Clone, Copy)]
pub struct NextEvent {
    /// Time to the earliest completion under the step's allocation.
    completion: f64,
    /// Time to the pending arrival (`∞` without one; negative if the
    /// arrival is already overdue).
    arrival: f64,
    /// Time the step advances: the earliest of the completion, the
    /// arrival and the next capacity event, never negative. A caller
    /// with its own horizon may shorten it.
    pub dt: f64,
}

/// One `k`-server two-class cluster: FCFS queues per class, a clock,
/// job ids, and a capacity-change schedule with the servers currently
/// available. See the [module docs](self) for the rules it applies.
#[derive(Debug)]
pub struct Cluster {
    k: u32,
    time: f64,
    next_id: u64,
    inelastic: VecDeque<Job>,
    elastic: VecDeque<Job>,
    faults: Vec<CapacityEvent>,
    fault_cursor: usize,
    avail: u32,
}

impl Cluster {
    /// An empty, healthy `k`-server cluster at time zero.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1, "need at least one server");
        Self {
            k,
            time: 0.0,
            next_id: 0,
            inelastic: VecDeque::with_capacity(64),
            elastic: VecDeque::with_capacity(64),
            faults: Vec::new(),
            fault_cursor: 0,
            avail: k,
        }
    }

    /// Attaches a capacity-change schedule, replayed from its start. The
    /// schedule's `k` must match the cluster's.
    pub fn with_faults(mut self, schedule: &FaultSchedule) -> Self {
        assert_eq!(
            schedule.k(),
            self.k,
            "fault schedule generated for k={}, cluster has k={}",
            schedule.k(),
            self.k
        );
        assert_eq!(self.time, 0.0, "attach faults before running");
        self.faults = schedule.events().to_vec();
        self.fault_cursor = 0;
        self
    }

    /// Replaces the clock, id counter, capacity, fault-replay position
    /// and queue contents with frozen values (jobs in queue order; the
    /// class tag picks the queue). Rejects a capacity above `k` or a
    /// cursor past the end of the schedule, leaving `self` untouched.
    pub fn restore(
        &mut self,
        time: f64,
        next_id: u64,
        avail: u32,
        fault_cursor: usize,
        jobs: impl IntoIterator<Item = Job>,
    ) -> Result<(), String> {
        if avail > self.k {
            return Err(format!("{avail} available servers of {}", self.k));
        }
        if fault_cursor > self.faults.len() {
            return Err(format!(
                "fault cursor {fault_cursor} beyond the {}-event schedule",
                self.faults.len()
            ));
        }
        self.time = time;
        self.next_id = next_id;
        self.avail = avail;
        self.fault_cursor = fault_cursor;
        self.inelastic.clear();
        self.elastic.clear();
        for job in jobs {
            self.queue_mut(job.class).push_back(job);
        }
        Ok(())
    }

    /// Servers the cluster was built with.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The clock.
    pub fn now(&self) -> f64 {
        self.time
    }

    /// Servers currently available (`k` when healthy).
    pub fn avail(&self) -> u32 {
        self.avail
    }

    /// Id the next admitted job will get.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Capacity events applied so far.
    pub fn fault_cursor(&self) -> usize {
        self.fault_cursor
    }

    /// Occupancy `(i, j)`: inelastic and elastic jobs present.
    #[inline]
    pub fn occupancy(&self) -> (usize, usize) {
        (self.inelastic.len(), self.elastic.len())
    }

    /// `true` with no job present.
    pub fn is_empty(&self) -> bool {
        self.inelastic.is_empty() && self.elastic.is_empty()
    }

    /// Every job present: the inelastic queue front to back, then the
    /// elastic queue front to back.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.inelastic.iter().chain(self.elastic.iter())
    }

    fn queue_mut(&mut self, class: JobClass) -> &mut VecDeque<Job> {
        match class {
            JobClass::Inelastic => &mut self.inelastic,
            JobClass::Elastic => &mut self.elastic,
        }
    }

    /// Queues a job of `class` and `size` that arrived at `arrival`,
    /// without moving the clock or sweeping departures.
    pub fn push(&mut self, class: JobClass, size: f64, arrival: f64) {
        let job = Job::new(self.next_id, class, size, arrival);
        self.next_id += 1;
        self.queue_mut(class).push_back(job);
    }

    /// The allocation at the current occupancy under the degraded-decision
    /// rule, checked for feasibility (`name` labels a violation). Pure:
    /// the same state always gets the same answer.
    #[inline]
    pub fn decide<P: AllocationPolicy + ?Sized>(&self, policy: &P, name: &str) -> ClassAllocation {
        let (i, j) = self.occupancy();
        let alloc = if self.avail == 0 {
            ClassAllocation::IDLE
        } else {
            policy.allocate(i, j, self.avail)
        };
        assert_feasible(alloc, i, j, self.avail, name);
        alloc
    }

    /// Applies every capacity event due at the current clock (after any
    /// simultaneous completion has been collected, before the next
    /// decision). `on_restart` gets the lost progress of each
    /// preempt-restarted inelastic job, in queue order.
    #[inline]
    pub fn apply_due_capacity(&mut self, mut on_restart: impl FnMut(f64)) {
        while let Some(&e) = self.faults.get(self.fault_cursor) {
            if e.time > self.time + 1e-12 {
                break;
            }
            self.fault_cursor += 1;
            self.avail = e.available;
            // FCFS progress lives only in the queue prefix of length
            // `avail`, so every job with progress beyond it lost its server.
            let keep = e.available as usize;
            if keep >= self.inelastic.len() {
                continue;
            }
            let mut preempted: Vec<Job> = Vec::new();
            let mut idx = keep;
            while idx < self.inelastic.len() {
                let job = &self.inelastic[idx];
                if job.remaining < job.size {
                    let mut job = self.inelastic.remove(idx).expect("index in range");
                    on_restart(job.size - job.remaining);
                    job.remaining = job.size;
                    preempted.push(job);
                } else {
                    idx += 1;
                }
            }
            self.inelastic.extend(preempted);
        }
    }

    /// Times to the next completion under `alloc`, to the pending arrival
    /// at `arrival`, and to the next capacity event, with the step length
    /// `dt` they imply.
    #[inline]
    pub fn next_event(&self, alloc: ClassAllocation, arrival: Option<f64>) -> NextEvent {
        let (whole, frac) = split(alloc);
        let mut completion = f64::INFINITY;
        for (idx, job) in self.inelastic.iter().enumerate().take(whole + 1) {
            let rate = if idx < whole { 1.0 } else { frac };
            if rate > 0.0 {
                completion = completion.min(job.remaining / rate);
            }
        }
        if alloc.elastic > 0.0 {
            if let Some(head) = self.elastic.front() {
                completion = completion.min(head.remaining / alloc.elastic);
            }
        }
        let arrival = arrival.map_or(f64::INFINITY, |t| t - self.time);
        debug_assert!(arrival >= -1e-9, "arrival in the past");
        let fault = self
            .faults
            .get(self.fault_cursor)
            .map_or(f64::INFINITY, |e| e.time - self.time);
        NextEvent {
            completion,
            arrival,
            dt: completion.min(arrival.max(0.0)).min(fault.max(0.0)),
        }
    }

    /// Serves `alloc` for `dt` and moves the clock (a no-op unless
    /// `dt > 0`). Returns the work removed from each class,
    /// `(inelastic, elastic)`, exactly as subtracted from the jobs.
    #[inline]
    pub fn advance(&mut self, alloc: ClassAllocation, dt: f64) -> (f64, f64) {
        if dt <= 0.0 || dt.is_nan() {
            return (0.0, 0.0);
        }
        let (whole, frac) = split(alloc);
        let mut reduced_i = 0.0;
        for (idx, job) in self.inelastic.iter_mut().enumerate().take(whole + 1) {
            let rate = if idx < whole { 1.0 } else { frac };
            if rate > 0.0 {
                let before = job.remaining;
                job.remaining = (before - rate * dt).max(0.0);
                reduced_i += before - job.remaining;
            }
        }
        let mut reduced_e = 0.0;
        if alloc.elastic > 0.0 {
            if let Some(head) = self.elastic.front_mut() {
                let before = head.remaining;
                head.remaining = (before - alloc.elastic * dt).max(0.0);
                reduced_e = before - head.remaining;
            }
        }
        self.time += dt;
        (reduced_i, reduced_e)
    }

    /// Removes every finished job, handing each to `on_departure` with its
    /// response time. A departing job still carries its numerical residual
    /// (`is_done` tolerates ~1e-12) in `remaining`.
    #[inline]
    pub fn collect_departures(&mut self, mut on_departure: impl FnMut(Job, f64)) {
        let now = self.time;
        let mut depart = |job: Job| {
            let response = now - job.arrival;
            on_departure(job, response);
        };
        while self.inelastic.front().is_some_and(Job::is_done) {
            depart(self.inelastic.pop_front().expect("front exists"));
        }
        // A fractionally-served inelastic job may complete while earlier
        // jobs have not (only when sizes differ); sweep the rest once.
        let mut idx = 0;
        while idx < self.inelastic.len() {
            if self.inelastic[idx].is_done() {
                depart(self.inelastic.remove(idx).expect("index in range"));
            } else {
                idx += 1;
            }
        }
        while self.elastic.front().is_some_and(Job::is_done) {
            depart(self.elastic.pop_front().expect("front exists"));
        }
    }

    /// The arrival tie-break, after the step planned by `next` has been
    /// advanced: `true` when the arrival at `at` is the event that ended
    /// the step (due now, and no later than the earliest completion). The
    /// clock then moves to the arrival epoch; the caller either
    /// [admits](Cluster::admit) the arrival or drops it.
    #[inline]
    pub fn arrives(&mut self, at: f64, next: &NextEvent) -> bool {
        if at <= self.time + 1e-12 && next.arrival <= next.completion {
            self.time = self.time.max(at);
            true
        } else {
            false
        }
    }

    /// Queues the arrival `a`; a zero-size job departs at once through
    /// `on_departure`.
    #[inline]
    pub fn admit(&mut self, a: Arrival, on_departure: impl FnMut(Job, f64)) {
        self.push(a.class, a.size, a.time);
        self.collect_departures(on_departure);
    }

    /// Panics unless the cluster is empty: a step with no next event and
    /// jobs present means `name` idles forever.
    pub fn assert_idle(&self, name: &str) {
        let (i, j) = self.occupancy();
        assert!(
            i == 0 && j == 0,
            "policy {name} idles forever with jobs present \
             (state ({i},{j}), {}/{} servers available)",
            self.avail,
            self.k
        );
    }
}

/// The FCFS split of the inelastic share: `whole` jobs at rate one, then
/// one at the fractional remainder.
#[inline]
fn split(alloc: ClassAllocation) -> (usize, f64) {
    let whole = alloc.inelastic.floor() as usize;
    (whole, alloc.inelastic - whole as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::{CapacityEvent, FaultSchedule};
    use crate::policy::InelasticFirst;

    #[test]
    fn simultaneous_completion_departs_before_the_arrival() {
        // One size-1 inelastic job on k=1; the next arrival lands exactly
        // at its completion epoch.
        let mut c = Cluster::new(1);
        c.push(JobClass::Inelastic, 1.0, 0.0);
        let alloc = c.decide(&InelasticFirst, "IF");
        let next = c.next_event(alloc, Some(1.0));
        assert_eq!((next.completion, next.arrival, next.dt), (1.0, 1.0, 1.0));
        assert_eq!(c.advance(alloc, next.dt), (1.0, 0.0));
        let mut departed = Vec::new();
        c.collect_departures(|job, t| departed.push((job.id, t)));
        assert_eq!(departed, vec![(0, 1.0)]);
        assert!(c.arrives(1.0, &next));
        c.admit(
            Arrival {
                time: 1.0,
                class: JobClass::Elastic,
                size: 2.0,
            },
            |_, _| panic!("a sized job cannot depart on arrival"),
        );
        assert_eq!(c.occupancy(), (0, 1));
        assert_eq!(c.next_id(), 2);
    }

    #[test]
    fn restore_validates_before_touching_state() {
        let schedule = FaultSchedule::from_events(
            2,
            vec![CapacityEvent {
                time: 1.0,
                available: 1,
            }],
        );
        let mut c = Cluster::new(2).with_faults(&schedule);
        assert!(c.restore(5.0, 3, 3, 0, []).is_err());
        assert!(c.restore(5.0, 3, 2, 2, []).is_err());
        assert_eq!((c.now(), c.next_id(), c.avail()), (0.0, 0, 2));
        let mut job = Job::new(7, JobClass::Inelastic, 2.0, 4.0);
        job.remaining = 0.5;
        c.restore(5.0, 8, 1, 1, [job.clone()]).unwrap();
        assert_eq!(
            (c.now(), c.next_id(), c.avail(), c.fault_cursor()),
            (5.0, 8, 1, 1)
        );
        assert_eq!(c.jobs().collect::<Vec<_>>(), vec![&job]);
    }
}
