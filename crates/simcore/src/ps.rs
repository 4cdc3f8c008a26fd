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
use std::collections::HashMap;

/// Predicted completion returned by [`PsResource::next_completion`].
///
/// The prediction is only valid while the resource's generation (bumped by
/// every state change) is unchanged; any arrival, removal or re-weighting
/// invalidates it, and the caller must discard the scheduled event and
/// re-query.
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
    /// Remaining demand in seconds of dedicated single-core CPU time.
    /// `f64::INFINITY` marks a background job that never completes.
    remaining: f64,
    weight: f64,
}

/// A weighted processor-sharing CPU.
///
/// The resource is passive like [`FifoResource`](crate::FifoResource): the
/// caller owns the event loop and re-schedules the predicted completion each
/// time the generation changes.
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
/// let c = cpu.next_completion(SimTime::ZERO).unwrap();
/// assert_eq!(c.at, SimTime::from_secs(2));
/// let done = cpu.on_completion(c.at, c.generation).unwrap();
/// assert_eq!(done, JobId(1));
/// ```
#[derive(Debug)]
pub struct PsResource {
    cores: usize,
    jobs: HashMap<JobId, PsJob>,
    last_update: SimTime,
    generation: u64,
}

const EPS: f64 = 1e-9;

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
            jobs: HashMap::new(),
            last_update: SimTime::ZERO,
            generation: 0,
        }
    }

    fn total_weight(&self) -> f64 {
        self.jobs.values().map(|j| j.weight).sum()
    }

    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update);
        let dt = now.since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            let w = self.total_weight();
            if w > 0.0 {
                let cores = self.cores as f64;
                for j in self.jobs.values_mut() {
                    if j.remaining.is_finite() {
                        let rate = (cores * j.weight / w).min(1.0);
                        j.remaining = (j.remaining - rate * dt).max(0.0);
                    }
                }
            }
        }
        self.last_update = now;
    }

    /// A job arrives with `demand` seconds of dedicated-core work and the
    /// given scheduling `weight` (use e.g. `2.0` for a higher-priority
    /// process, `0.5` for a niced-down one).
    ///
    /// # Panics
    ///
    /// Panics if the job is already active or `weight` is not positive.
    pub fn arrive(&mut self, now: SimTime, job: JobId, demand: SimDuration, weight: f64) {
        assert!(weight > 0.0, "weight must be positive");
        self.advance(now);
        let prev = self.jobs.insert(
            job,
            PsJob {
                remaining: demand.as_secs_f64(),
                weight,
            },
        );
        assert!(prev.is_none(), "job {job} already active on this CPU");
        self.generation += 1;
    }

    /// Add a background job that consumes its fair share forever (a CPU hog).
    /// Remove it with [`remove`](PsResource::remove).
    pub fn arrive_background(&mut self, now: SimTime, job: JobId, weight: f64) {
        assert!(weight > 0.0, "weight must be positive");
        self.advance(now);
        let prev = self.jobs.insert(
            job,
            PsJob {
                remaining: f64::INFINITY,
                weight,
            },
        );
        assert!(prev.is_none(), "job {job} already active on this CPU");
        self.generation += 1;
    }

    /// Remove a job (cancel a hog or abort a worker). Returns `true` if the
    /// job was active.
    pub fn remove(&mut self, now: SimTime, job: JobId) -> bool {
        self.advance(now);
        let removed = self.jobs.remove(&job).is_some();
        if removed {
            self.generation += 1;
        }
        removed
    }

    /// Predict the next completion given the current population.
    ///
    /// Returns `None` if no finite-demand job is active.
    pub fn next_completion(&mut self, now: SimTime) -> Option<PsCompletion> {
        self.advance(now);
        let w = self.total_weight();
        if w <= 0.0 {
            return None;
        }
        let cores = self.cores as f64;
        let mut best: Option<(JobId, f64)> = None;
        // Iterate in sorted-job order for determinism.
        let mut ids: Vec<JobId> = self.jobs.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let j = self.jobs[&id];
            if !j.remaining.is_finite() {
                continue;
            }
            let rate = (cores * j.weight / w).min(1.0);
            if rate <= 0.0 {
                continue;
            }
            let eta = j.remaining / rate;
            match best {
                Some((_, t)) if t <= eta => {}
                _ => best = Some((id, eta)),
            }
        }
        let (job, eta) = best?;
        Some(PsCompletion {
            job,
            at: now + SimDuration::from_secs_f64(eta),
            generation: self.generation,
        })
    }

    /// Handle a completion event that was scheduled from a
    /// [`PsCompletion`]. Returns the completed job, or `None` if the event is
    /// stale (the generation changed since it was scheduled).
    pub fn on_completion(&mut self, now: SimTime, generation: u64) -> Option<JobId> {
        if generation != self.generation {
            return None;
        }
        self.advance(now);
        // Find the finite job with the least remaining work; it must be ~0.
        let mut ids: Vec<JobId> = self.jobs.keys().copied().collect();
        ids.sort_unstable();
        let done = ids
            .into_iter()
            .filter(|id| self.jobs[id].remaining.is_finite())
            .min_by(|a, b| {
                self.jobs[a]
                    .remaining
                    .partial_cmp(&self.jobs[b].remaining)
                    .expect("remaining demands are never NaN")
            })?;
        if self.jobs[&done].remaining > EPS {
            return None;
        }
        self.jobs.remove(&done);
        self.generation += 1;
        Some(done)
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
        let c = cpu.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(c.at, SimTime::from_secs(3));
    }

    #[test]
    fn equal_weights_share_equally() {
        let mut cpu = PsResource::new(1);
        cpu.arrive(SimTime::ZERO, JobId(1), secs(1.0), 1.0);
        cpu.arrive(SimTime::ZERO, JobId(2), secs(2.0), 1.0);
        // job 1 finishes after 2s of half-speed execution
        let c = cpu.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(c.job, JobId(1));
        assert_eq!(c.at, SimTime::from_secs(2));
        assert_eq!(cpu.on_completion(c.at, c.generation), Some(JobId(1)));
        // job 2 then has 1s left at full speed
        let c2 = cpu.next_completion(c.at).unwrap();
        assert_eq!(c2.job, JobId(2));
        assert_eq!(c2.at, SimTime::from_secs(3));
    }

    #[test]
    fn weights_bias_allocation() {
        let mut cpu = PsResource::new(1);
        cpu.arrive(SimTime::ZERO, JobId(1), secs(1.0), 3.0);
        cpu.arrive(SimTime::ZERO, JobId(2), secs(1.0), 1.0);
        // job 1 runs at 3/4 speed => completes at 4/3 s
        let c = cpu.next_completion(SimTime::ZERO).unwrap();
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
        let c = cpu.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(c.at, SimTime::from_secs(1));
    }

    #[test]
    fn background_hog_slows_worker() {
        let mut cpu = PsResource::new(1);
        cpu.arrive(SimTime::ZERO, JobId(1), secs(1.0), 1.0);
        cpu.arrive_background(SimTime::ZERO, JobId(99), 1.0);
        let c = cpu.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(c.job, JobId(1));
        assert_eq!(c.at, SimTime::from_secs(2), "hog halves the rate");
        // removing the hog mid-flight speeds the worker back up
        cpu.remove(SimTime::from_secs(1), JobId(99));
        let c2 = cpu.next_completion(SimTime::from_secs(1)).unwrap();
        // 0.5s of work remains, now at full speed
        assert_eq!(c2.at, SimTime::from_millis(1500));
    }

    #[test]
    fn stale_generation_rejected() {
        let mut cpu = PsResource::new(1);
        cpu.arrive(SimTime::ZERO, JobId(1), secs(1.0), 1.0);
        let c = cpu.next_completion(SimTime::ZERO).unwrap();
        cpu.arrive(SimTime::from_millis(500), JobId(2), secs(1.0), 1.0);
        assert_eq!(cpu.on_completion(c.at, c.generation), None);
        let c2 = cpu.next_completion(SimTime::from_millis(500)).unwrap();
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
