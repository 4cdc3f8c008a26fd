//! FIFO queueing resources (k-server stations).

use crate::{JobId, SimDuration, SimTime};
use std::collections::VecDeque;

/// Outcome of a job arriving at a [`FifoResource`]: the job enters service
/// immediately and will complete at the given time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStart {
    /// The job that entered service.
    pub job: JobId,
    /// Virtual time at which the caller must invoke [`FifoResource::complete`].
    pub completes_at: SimTime,
}

/// A k-server FIFO queueing station.
///
/// This models a metadata server, an NVRAM commit log, a disk, or any other
/// stage where requests queue and are serviced in order. The resource is
/// *passive*: the caller owns the event loop. The contract is:
///
/// 1. Call [`arrive`](FifoResource::arrive) when a job reaches the station.
///    If it returns `Some(start)`, schedule a completion event for
///    `start.completes_at`.
/// 2. When a completion event fires, call
///    [`complete`](FifoResource::complete); if it returns a new
///    [`ServiceStart`] (the next queued job entering service), schedule that
///    completion too.
///
/// The resource supports *pause windows* ([`pause_until`]) during which no
/// new job may start service — used to model WAFL consistency points, where
/// the filer briefly stops admitting metadata modifications while flushing
/// NVRAM to disk (paper §4.2.3, Fig. 4.6).
///
/// [`pause_until`]: FifoResource::pause_until
///
/// # Example
///
/// ```
/// use simcore::{FifoResource, JobId, SimDuration, SimTime};
///
/// let mut server = FifoResource::new(1);
/// let t0 = SimTime::ZERO;
/// let s = server
///     .arrive(t0, JobId(1), SimDuration::from_millis(2))
///     .expect("idle server starts service at once");
/// assert_eq!(s.completes_at, SimTime::from_millis(2));
/// // A second job queues behind the first.
/// assert!(server.arrive(t0, JobId(2), SimDuration::from_millis(2)).is_none());
/// let next = server.complete(s.completes_at).expect("queued job starts");
/// assert_eq!(next.job, JobId(2));
/// assert_eq!(next.completes_at, SimTime::from_millis(4));
/// ```
#[derive(Debug)]
pub struct FifoResource {
    servers: usize,
    busy: usize,
    queue: VecDeque<(JobId, SimDuration)>,
    paused_until: SimTime,
}

impl FifoResource {
    /// Create a station with `servers` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a resource needs at least one server");
        FifoResource {
            servers,
            busy: 0,
            queue: VecDeque::new(),
            paused_until: SimTime::ZERO,
        }
    }

    /// Jobs currently waiting (not in service).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently in service.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Forbid new service starts until `until`. Jobs already in service are
    /// unaffected; arrivals continue to queue.
    ///
    /// Returns the jobs whose service could not start because of the pause —
    /// none; pausing never returns jobs, it only delays future starts. After
    /// the pause expires the caller must invoke [`kick`](FifoResource::kick)
    /// (typically from a timer event at `until`) to start any queued jobs.
    pub fn pause_until(&mut self, until: SimTime) {
        self.paused_until = self.paused_until.max(until);
    }

    /// A job arrives with the given service `demand`.
    ///
    /// Returns `Some(ServiceStart)` if it enters service immediately,
    /// `None` if it queued.
    pub fn arrive(
        &mut self,
        now: SimTime,
        job: JobId,
        demand: SimDuration,
    ) -> Option<ServiceStart> {
        if self.busy < self.servers && now >= self.paused_until {
            Some(self.start_service(now, job, demand))
        } else {
            self.queue.push_back((job, demand));
            None
        }
    }

    /// A service completion event fired at `now`. Records the completed job
    /// and, if possible, starts the next queued job, returning its
    /// [`ServiceStart`] so the caller can schedule the matching completion.
    ///
    /// # Panics
    ///
    /// Panics if no job is in service.
    pub fn complete(&mut self, now: SimTime) -> Option<ServiceStart> {
        assert!(self.busy > 0, "complete() called with no job in service");
        self.busy -= 1;
        self.try_start_next(now)
    }

    /// After a pause window expires, start as many queued jobs as there are
    /// free servers. Returns the started jobs for the caller to schedule.
    pub fn kick(&mut self, now: SimTime) -> Vec<ServiceStart> {
        let mut started = Vec::new();
        while self.busy < self.servers {
            match self.try_start_next(now) {
                Some(s) => started.push(s),
                None => break,
            }
        }
        started
    }

    fn try_start_next(&mut self, now: SimTime) -> Option<ServiceStart> {
        if now < self.paused_until || self.busy >= self.servers {
            return None;
        }
        let (job, demand) = self.queue.pop_front()?;
        Some(self.start_service(now, job, demand))
    }

    fn start_service(&mut self, now: SimTime, job: JobId, demand: SimDuration) -> ServiceStart {
        self.busy += 1;
        let completes_at = now + demand;
        ServiceStart { job, completes_at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn single_server_fifo_order() {
        let mut r = FifoResource::new(1);
        let s1 = r.arrive(SimTime::ZERO, JobId(1), ms(10)).unwrap();
        assert!(r.arrive(SimTime::ZERO, JobId(2), ms(5)).is_none());
        assert!(r.arrive(SimTime::ZERO, JobId(3), ms(1)).is_none());
        let s2 = r.complete(s1.completes_at).unwrap();
        assert_eq!(s2.job, JobId(2));
        assert_eq!(s2.completes_at, SimTime::from_millis(15));
        let s3 = r.complete(s2.completes_at).unwrap();
        assert_eq!(s3.job, JobId(3));
        assert_eq!(s3.completes_at, SimTime::from_millis(16));
        assert!(r.complete(s3.completes_at).is_none());
    }

    #[test]
    fn multi_server_parallelism() {
        let mut r = FifoResource::new(2);
        assert!(r.arrive(SimTime::ZERO, JobId(1), ms(10)).is_some());
        assert!(r.arrive(SimTime::ZERO, JobId(2), ms(10)).is_some());
        assert!(r.arrive(SimTime::ZERO, JobId(3), ms(10)).is_none());
        assert_eq!(r.busy(), 2);
        assert_eq!(r.queue_len(), 1);
    }

    #[test]
    fn pause_blocks_new_service() {
        let mut r = FifoResource::new(1);
        r.pause_until(SimTime::from_millis(100));
        assert!(r.arrive(SimTime::ZERO, JobId(1), ms(10)).is_none());
        assert!(r.kick(SimTime::from_millis(50)).is_empty());
        let started = r.kick(SimTime::from_millis(100));
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].completes_at, SimTime::from_millis(110));
    }

    #[test]
    fn pause_does_not_interrupt_in_service() {
        let mut r = FifoResource::new(1);
        let s = r.arrive(SimTime::ZERO, JobId(1), ms(10)).unwrap();
        r.pause_until(SimTime::from_millis(100));
        // completion still happens at the originally computed time
        assert_eq!(s.completes_at, SimTime::from_millis(10));
        // but the next queued job waits for the pause
        r.arrive(SimTime::from_millis(1), JobId(2), ms(10));
        assert!(r.complete(s.completes_at).is_none());
        let started = r.kick(SimTime::from_millis(100));
        assert_eq!(started.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = FifoResource::new(0);
    }
}
