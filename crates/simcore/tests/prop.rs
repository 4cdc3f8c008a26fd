//! Property-based tests for the simulation engine.

use proptest::prelude::*;
use simcore::{DetRng, FifoResource, JobId, Scheduler, SimDuration, SimTime};

proptest! {
    /// Events always come out of the scheduler in non-decreasing time order,
    /// and same-time events in scheduling order.
    #[test]
    fn scheduler_is_time_and_fifo_ordered(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut prev: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = s.pop() {
            if let Some((pt, pi)) = prev {
                prop_assert!(t >= pt);
                if t == pt {
                    prop_assert!(i > pi, "FIFO violated at equal timestamps");
                }
            }
            prop_assert_eq!(t, SimTime::from_nanos(times[i]));
            prev = Some((t, i));
        }
    }

    /// A FIFO resource conserves jobs: every arrival is eventually serviced
    /// exactly once, in arrival order for a single server.
    #[test]
    fn fifo_resource_conserves_jobs(demands in prop::collection::vec(1u64..10_000, 1..100)) {
        let mut r = FifoResource::new(1);
        let mut completions: Vec<(JobId, SimTime)> = Vec::new();
        let mut pending: Option<simcore::ServiceStart> = None;
        for (i, &d) in demands.iter().enumerate() {
            if let Some(s) = r.arrive(SimTime::ZERO, JobId(i as u64), SimDuration::from_nanos(d)) {
                prop_assert!(pending.is_none());
                pending = Some(s);
            }
        }
        while let Some(s) = pending {
            completions.push((s.job, s.completes_at));
            pending = r.complete(s.completes_at);
        }
        prop_assert_eq!(completions.len(), demands.len());
        // order preserved
        for (i, (job, _)) in completions.iter().enumerate() {
            prop_assert_eq!(*job, JobId(i as u64));
        }
        // total busy time = sum of demands
        let total: u64 = demands.iter().sum();
        prop_assert_eq!(completions.last().unwrap().1, SimTime::from_nanos(total));
    }

    /// Deterministic RNG: identical seeds give identical streams across
    /// arbitrary interleavings of the helper calls.
    #[test]
    fn det_rng_reproducible(seed in any::<u64>(), ops in prop::collection::vec(0u8..4, 1..64)) {
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for op in ops {
            match op {
                0 => prop_assert_eq!(a.uniform(0.0, 10.0), b.uniform(0.0, 10.0)),
                1 => prop_assert_eq!(a.uniform_u64(0, 1000), b.uniform_u64(0, 1000)),
                2 => prop_assert_eq!(a.exponential(1.5), b.exponential(1.5)),
                _ => prop_assert_eq!(a.chance(0.3), b.chance(0.3)),
            }
        }
    }
}
