//! Processor-sharing resource with per-job weights.
//!
//! Models a (possibly multi-core) client CPU on which benchmark worker
//! processes, disturbance processes ("CPU hogs", paper Fig. 4.4/4.6) and
//! priority-scheduled competitors (paper §4.4) share cycles. Scheduling is
//! weighted processor sharing: an active job with weight `w` receives a rate
//! of `min(1, cores · w / W)` cores, where `W` is the sum of active weights —
//! i.e. fair sharing with per-job cap of one core, which is how a
//! single-threaded benchmark process behaves on an SMP node.

use crate::{JobId, SimDuration, SimTime};

/// Predicted completion returned by [`PsResource::next_completion`].
///
/// The prediction stays valid while the resource's generation is unchanged.
/// Every arrival, removal and completion bumps the generation and
/// invalidates it: the caller must then cancel the scheduled completion
/// event and schedule the new prediction, so that at most one completion
/// event per resource is ever pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsCompletion {
    /// Job predicted to finish first.
    pub job: JobId,
    /// Predicted completion instant.
    pub at: SimTime,
    /// Generation the prediction was made at.
    pub generation: u64,
}

#[derive(Debug, Clone, Copy)]
struct PsJob {
    id: JobId,
    /// Remaining demand in seconds of dedicated single-core CPU time, as of
    /// the resource's `last_update`. `f64::INFINITY` marks a background job
    /// that never completes.
    remaining: f64,
    weight: f64,
}

/// A weighted processor-sharing CPU.
///
/// The resource is passive like [`FifoResource`](crate::FifoResource): the
/// caller owns the event loop and re-schedules the predicted completion each
/// time the generation changes.
///
/// The state changes only when the population does (an arrival, a removal
/// or a completion). Between those, every job runs at a constant rate, so
/// [`next_completion`](PsResource::next_completion) is a pure query of the
/// state at the last change: however often it is called, no completion
/// instant moves.
///
/// # Example
///
/// ```
/// use simcore::{JobId, PsResource, SimDuration, SimTime};
///
/// let mut cpu = PsResource::new(1);
/// cpu.arrive(SimTime::ZERO, JobId(1), SimDuration::from_secs(1), 1.0);
/// cpu.arrive(SimTime::ZERO, JobId(2), SimDuration::from_secs(1), 1.0);
/// // Two equal-weight jobs share the core, so the first completion is at 2s.
/// let c = cpu.next_completion().unwrap();
/// assert_eq!(c.at, SimTime::from_secs(2));
/// let done = cpu.on_completion(c.at, c.generation).unwrap();
/// assert_eq!(done, JobId(1));
/// ```
#[derive(Debug)]
pub struct PsResource {
    cores: usize,
    /// Active jobs, sorted by `JobId` (the deterministic iteration order).
    jobs: Vec<PsJob>,
    /// Sum of the active jobs' weights, updated on every population change.
    total_weight: f64,
    /// Instant of the last population change; every `remaining` is as of it.
    last_update: SimTime,
    generation: u64,
}

impl PsResource {
    /// Create a CPU with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "a CPU needs at least one core");
        PsResource {
            cores,
            jobs: Vec::new(),
            total_weight: 0.0,
            last_update: SimTime::ZERO,
            generation: 0,
        }
    }

    /// The current generation: the one a prediction made now would carry.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cores a job of `weight` receives under the current population.
    fn rate(&self, weight: f64) -> f64 {
        (self.cores as f64 * weight / self.total_weight).min(1.0)
    }

    /// Bring every job's remaining demand forward to `now`.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update);
        let dt = now.since(self.last_update).as_secs_f64();
        if dt > 0.0 && self.total_weight > 0.0 {
            for i in 0..self.jobs.len() {
                let j = self.jobs[i];
                if j.remaining.is_finite() {
                    let rate = self.rate(j.weight);
                    self.jobs[i].remaining = (j.remaining - rate * dt).max(0.0);
                }
            }
        }
        self.last_update = now;
    }

    fn insert(&mut self, now: SimTime, id: JobId, remaining: f64, weight: f64) {
        assert!(weight > 0.0, "weight must be positive");
        let at = match self.jobs.binary_search_by_key(&id, |j| j.id) {
            Ok(_) => panic!("job {id} already active on this CPU"),
            Err(at) => at,
        };
        self.advance(now);
        self.jobs.insert(
            at,
            PsJob {
                id,
                remaining,
                weight,
            },
        );
        self.total_weight += weight;
        self.generation += 1;
    }

    /// Drop the job at index `i`; the caller has already advanced to now.
    /// The running total restarts from exactly zero once the CPU is idle,
    /// so no rounding in it outlives the population that caused it.
    fn take(&mut self, i: usize) -> JobId {
        let j = self.jobs.remove(i);
        self.total_weight = if self.jobs.is_empty() {
            0.0
        } else {
            self.total_weight - j.weight
        };
        self.generation += 1;
        j.id
    }

    /// A job arrives with `demand` seconds of dedicated-core work and the
    /// given scheduling `weight` (use e.g. `2.0` for a higher-priority
    /// process, `0.5` for a niced-down one).
    ///
    /// # Panics
    ///
    /// Panics if the job is already active or `weight` is not positive.
    pub fn arrive(&mut self, now: SimTime, job: JobId, demand: SimDuration, weight: f64) {
        self.insert(now, job, demand.as_secs_f64(), weight);
    }

    /// Add a background job that consumes its fair share forever (a CPU hog).
    /// Remove it with [`remove`](PsResource::remove).
    pub fn arrive_background(&mut self, now: SimTime, job: JobId, weight: f64) {
        self.insert(now, job, f64::INFINITY, weight);
    }

    /// Remove a job (cancel a hog or abort a worker). Returns `true` if the
    /// job was active; removing an inactive job changes nothing.
    pub fn remove(&mut self, now: SimTime, job: JobId) -> bool {
        let Ok(i) = self.jobs.binary_search_by_key(&job, |j| j.id) else {
            return false;
        };
        self.advance(now);
        self.take(i);
        true
    }

    /// Predict the next completion given the current population: the
    /// finite job with the earliest finish (ties go to the lowest `JobId`).
    ///
    /// Returns `None` if no finite-demand job is active.
    pub fn next_completion(&self) -> Option<PsCompletion> {
        let mut best: Option<(JobId, f64)> = None;
        for j in &self.jobs {
            if !j.remaining.is_finite() {
                continue;
            }
            let eta = j.remaining / self.rate(j.weight);
            match best {
                Some((_, t)) if t <= eta => {}
                _ => best = Some((j.id, eta)),
            }
        }
        let (job, eta) = best?;
        Some(PsCompletion {
            job,
            at: self.last_update + SimDuration::from_secs_f64(eta),
            generation: self.generation,
        })
    }

    /// Handle a completion event that was scheduled from a
    /// [`PsCompletion`]: complete the job whose work ran out and return it.
    ///
    /// Returns `None` if the event is stale (the generation changed since
    /// it was scheduled). A current prediction always completes a job: the
    /// population it was made on is unchanged, so the predicted job's work
    /// runs out at this instant, up to rounding it to whole nanoseconds.
    pub fn on_completion(&mut self, now: SimTime, generation: u64) -> Option<JobId> {
        if generation != self.generation {
            return None;
        }
        self.advance(now);
        // The finite job with the least remaining work (the first in
        // `JobId` order on a tie) is the one finishing now.
        let mut done: Option<usize> = None;
        for (i, j) in self.jobs.iter().enumerate() {
            if j.remaining.is_finite() && done.is_none_or(|d| j.remaining < self.jobs[d].remaining)
            {
                done = Some(i);
            }
        }
        Some(self.take(done?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn single_job_runs_at_full_speed() {
        let mut cpu = PsResource::new(1);
        cpu.arrive(SimTime::ZERO, JobId(1), secs(3.0), 1.0);
        let c = cpu.next_completion().unwrap();
        assert_eq!(c.at, SimTime::from_secs(3));
    }

    #[test]
    fn equal_weights_share_equally() {
        let mut cpu = PsResource::new(1);
        cpu.arrive(SimTime::ZERO, JobId(1), secs(1.0), 1.0);
        cpu.arrive(SimTime::ZERO, JobId(2), secs(2.0), 1.0);
        // job 1 finishes after 2s of half-speed execution
        let c = cpu.next_completion().unwrap();
        assert_eq!(c.job, JobId(1));
        assert_eq!(c.at, SimTime::from_secs(2));
        assert_eq!(cpu.on_completion(c.at, c.generation), Some(JobId(1)));
        // job 2 then has 1s left at full speed
        let c2 = cpu.next_completion().unwrap();
        assert_eq!(c2.job, JobId(2));
        assert_eq!(c2.at, SimTime::from_secs(3));
    }

    #[test]
    fn weights_bias_allocation() {
        let mut cpu = PsResource::new(1);
        cpu.arrive(SimTime::ZERO, JobId(1), secs(1.0), 3.0);
        cpu.arrive(SimTime::ZERO, JobId(2), secs(1.0), 1.0);
        // job 1 runs at 3/4 speed => completes at 4/3 s
        let c = cpu.next_completion().unwrap();
        assert_eq!(c.job, JobId(1));
        let t = c.at.as_secs_f64();
        assert!((t - 4.0 / 3.0).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn multi_core_caps_per_job_rate() {
        let mut cpu = PsResource::new(4);
        cpu.arrive(SimTime::ZERO, JobId(1), secs(1.0), 1.0);
        cpu.arrive(SimTime::ZERO, JobId(2), secs(1.0), 1.0);
        // 4 cores, 2 jobs: each runs at 1 core, both done at t=1
        let c = cpu.next_completion().unwrap();
        assert_eq!(c.at, SimTime::from_secs(1));
    }

    #[test]
    fn background_hog_slows_worker() {
        let mut cpu = PsResource::new(1);
        cpu.arrive(SimTime::ZERO, JobId(1), secs(1.0), 1.0);
        cpu.arrive_background(SimTime::ZERO, JobId(99), 1.0);
        let c = cpu.next_completion().unwrap();
        assert_eq!(c.job, JobId(1));
        assert_eq!(c.at, SimTime::from_secs(2), "hog halves the rate");
        // removing the hog mid-flight speeds the worker back up
        cpu.remove(SimTime::from_secs(1), JobId(99));
        let c2 = cpu.next_completion().unwrap();
        // 0.5s of work remains, now at full speed
        assert_eq!(c2.at, SimTime::from_millis(1500));
    }

    #[test]
    fn stale_generation_rejected() {
        let mut cpu = PsResource::new(1);
        cpu.arrive(SimTime::ZERO, JobId(1), secs(1.0), 1.0);
        let c = cpu.next_completion().unwrap();
        cpu.arrive(SimTime::from_millis(500), JobId(2), secs(1.0), 1.0);
        assert_eq!(cpu.on_completion(c.at, c.generation), None);
        let c2 = cpu.next_completion().unwrap();
        assert_eq!(c2.job, JobId(1));
        assert_eq!(c2.at, SimTime::from_millis(1500));
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn duplicate_arrival_panics() {
        let mut cpu = PsResource::new(1);
        cpu.arrive(SimTime::ZERO, JobId(1), secs(1.0), 1.0);
        cpu.arrive(SimTime::ZERO, JobId(1), secs(1.0), 1.0);
    }
}
