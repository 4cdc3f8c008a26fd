//! Counting semaphores with FIFO wakeup.

use crate::JobId;
use std::collections::VecDeque;

/// A counting semaphore held across simulation stages.
///
/// Used to model client-side concurrency windows: a Lustre client's single
/// modifying metadata RPC in flight (permits = 1), or a metadata write-back
/// cache that admits a window of uncommitted operations (permits = window
/// size, paper §4.8).
///
/// # Example
///
/// ```
/// use simcore::{JobId, Semaphore};
///
/// let mut sem = Semaphore::new(2);
/// assert!(sem.acquire(JobId(1)));
/// assert!(sem.acquire(JobId(2)));
/// assert!(!sem.acquire(JobId(3)), "third job waits");
/// assert_eq!(sem.release(), Some(JobId(3)));
/// assert_eq!(sem.release(), None);
/// ```
#[derive(Debug)]
pub struct Semaphore {
    permits: usize,
    available: usize,
    queue: VecDeque<JobId>,
}

impl Semaphore {
    /// Create a semaphore with `permits` permits, all available.
    ///
    /// # Panics
    ///
    /// Panics if `permits` is zero.
    pub fn new(permits: usize) -> Self {
        assert!(permits > 0, "a semaphore needs at least one permit");
        Semaphore {
            permits,
            available: permits,
            queue: VecDeque::new(),
        }
    }

    /// Queued waiters.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Try to take a permit for `job`. `true` if granted immediately;
    /// otherwise the job queues FIFO and is returned by a later
    /// [`release`](Semaphore::release).
    pub fn acquire(&mut self, job: JobId) -> bool {
        if self.available > 0 {
            self.available -= 1;
            true
        } else {
            self.queue.push_back(job);
            false
        }
    }

    /// Return a permit; if a job is waiting, the permit passes directly to
    /// it and the job is returned so the caller can resume it.
    ///
    /// # Panics
    ///
    /// Panics if all permits are already available and no one is waiting
    /// (double release).
    pub fn release(&mut self) -> Option<JobId> {
        let next = self.queue.pop_front();
        if next.is_none() {
            assert!(self.available < self.permits, "double release on semaphore");
            self.available += 1;
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_grant_order() {
        let mut s = Semaphore::new(1);
        assert!(s.acquire(JobId(1)));
        assert!(!s.acquire(JobId(2)));
        assert!(!s.acquire(JobId(3)));
        assert_eq!(s.release(), Some(JobId(2)));
        assert_eq!(s.release(), Some(JobId(3)));
        assert_eq!(s.release(), None);
        assert_eq!(s.available, 1);
    }

    #[test]
    fn multiple_permits() {
        let mut s = Semaphore::new(3);
        for i in 0..3 {
            assert!(s.acquire(JobId(i)));
        }
        assert_eq!(s.available, 0);
        assert!(!s.acquire(JobId(9)));
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut s = Semaphore::new(1);
        s.release();
    }
}
