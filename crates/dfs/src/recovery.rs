//! Shared client-side failure-recovery machinery.
//!
//! Real clients survive faults with a timeout → retransmit → backoff loop
//! (NFS `timeo`/`retrans`, AFS cache-manager retries). The models compile
//! that loop into the [`OpPlan`](crate::OpPlan) at plan time: each lost
//! attempt becomes a `NetDelay` stall equal to the timeout that expired,
//! and the accounting rides along in [`FaultStats`](crate::plan::FaultStats)
//! so the engine can attribute retries per worker.

use crate::plan::{FaultStats, Stage};
use netsim::fault::FaultPlan;
use simcore::{SimDuration, SimTime};

/// Retry tuning of a client RPC path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Initial RPC timeout before the first retransmit.
    pub timeout: SimDuration,
    /// Timeout multiplier per retry (exponential backoff).
    pub backoff: f64,
    /// Upper bound on the per-attempt timeout.
    pub max_timeout: SimDuration,
    /// Stop retrying (send anyway, soft-mount style) after this many
    /// retransmits.
    pub max_retries: u32,
}

impl RetryPolicy {
    /// NFS-style soft-mount defaults: `timeo` 700 ms, doubling per major
    /// timeout, capped at 60 s.
    pub fn nfs_soft() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_millis(700),
            backoff: 2.0,
            max_timeout: SimDuration::from_secs(60),
            max_retries: 10,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::nfs_soft()
    }
}

/// Walk the fault plan forward from `now`: while the RPC attempt would be
/// lost (link down, `server` crashed, or a loss-window draw), charge one
/// timeout as a `NetDelay` stall and retry with exponential backoff.
/// Appends the stall stages to `stages` and returns the accounting.
///
/// Makes **zero** RNG draws when no loss window covers an attempt, so an
/// inert plan cannot perturb the simulation.
pub fn retry_backoff(
    faults: &mut FaultPlan,
    server: Option<usize>,
    now: SimTime,
    policy: RetryPolicy,
    stages: &mut Vec<Stage>,
) -> FaultStats {
    let mut stats = FaultStats::default();
    let mut attempt_at = now;
    let mut timeout = policy.timeout;
    loop {
        let lost = faults.link_down(attempt_at)
            || server.is_some_and(|s| faults.server_down(s, attempt_at).is_some())
            || faults.rpc_lost(attempt_at);
        if !lost || stats.retries >= policy.max_retries {
            break;
        }
        stats.retries += 1;
        stats.injected += 1;
        stages.push(Stage::NetDelay { delay: timeout });
        attempt_at += timeout;
        timeout = timeout.mul_f64(policy.backoff).min(policy.max_timeout);
    }
    stats.stall = attempt_at.since(now);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::fault::FaultSpec;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// `retry_backoff` into a fresh stage buffer.
    fn retry(
        plan: &mut FaultPlan,
        server: Option<usize>,
        now: SimTime,
        policy: RetryPolicy,
    ) -> (Vec<Stage>, FaultStats) {
        let mut stages = Vec::new();
        let stats = retry_backoff(plan, server, now, policy, &mut stages);
        (stages, stats)
    }

    #[test]
    fn healthy_path_is_free() {
        let mut plan = FaultSpec::parse("down@100s..110s").unwrap().build();
        let (stages, stats) = retry(&mut plan, Some(0), t(1), RetryPolicy::nfs_soft());
        assert!(stages.is_empty());
        assert_eq!(stats, FaultStats::default());
    }

    #[test]
    fn link_down_retries_until_window_passes() {
        let mut plan = FaultSpec::parse("down@10s..11s").unwrap().build();
        let (stages, stats) = retry(&mut plan, None, t(10), RetryPolicy::nfs_soft());
        // 0.7 s timeout, then 1.4 s: second attempt at 2.1 s > 1 s outage
        assert_eq!(stages.len(), 2);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.stall, SimDuration::from_millis(2100));
    }

    #[test]
    fn server_crash_stalls_until_restart() {
        let mut plan = FaultSpec::parse("crash:3@10s+2s").unwrap().build();
        let (_, other) = retry(&mut plan, Some(1), t(10), RetryPolicy::nfs_soft());
        assert_eq!(other.retries, 0, "other servers are unaffected");
        let (stages, stats) = retry(&mut plan, Some(3), t(10), RetryPolicy::nfs_soft());
        assert!(!stages.is_empty());
        assert!(stats.stall >= SimDuration::from_secs(2));
    }

    #[test]
    fn gives_up_after_max_retries() {
        let mut plan = FaultSpec::parse("down@0s..1000s").unwrap().build();
        let policy = RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::nfs_soft()
        };
        let (stages, stats) = retry(&mut plan, None, t(0), policy);
        assert_eq!(stages.len(), 3);
        assert_eq!(stats.retries, 3);
        // 0.7 + 1.4 + 2.8 s of backoff, then the soft mount sends anyway
        assert_eq!(stats.stall, SimDuration::from_millis(4900));
    }

    #[test]
    fn backoff_caps_at_max_timeout() {
        // A long outage drives the doubling sequence 0.7, 1.4, … 44.8 into
        // the 60 s ceiling; once there, every further stall is exactly 60 s.
        let mut plan = FaultSpec::parse("down@0s..100000s").unwrap().build();
        let policy = RetryPolicy {
            max_retries: 12,
            ..RetryPolicy::nfs_soft()
        };
        let (stages, stats) = retry(&mut plan, None, t(0), policy);
        assert_eq!(stages.len(), 12);
        let delays: Vec<SimDuration> = stages
            .iter()
            .map(|s| match s {
                Stage::NetDelay { delay } => *delay,
                other => panic!("unexpected stage {other:?}"),
            })
            .collect();
        // 0.7 * 2^6 = 44.8 s is the last uncapped timeout (attempt index 6).
        assert_eq!(delays[6], SimDuration::from_millis(44_800));
        for d in &delays[7..] {
            assert_eq!(*d, SimDuration::from_secs(60), "capped at max_timeout");
        }
        assert!(delays.windows(2).all(|w| w[0] <= w[1]), "monotone backoff");
        let expected: SimDuration = delays.iter().copied().sum();
        assert_eq!(stats.stall, expected);
    }

    #[test]
    fn default_policy_exhausts_at_ten_retries() {
        let mut plan = FaultSpec::parse("down@0s..100000s").unwrap().build();
        let (stages, stats) = retry(&mut plan, Some(0), t(0), RetryPolicy::default());
        assert_eq!(stages.len(), 10, "nfs_soft gives up after 10 retransmits");
        assert_eq!(stats.retries, 10);
        assert_eq!(stats.injected, 10);
        // Charged delays: 0.7, 1.4, 2.8, 5.6, 11.2, 22.4, 44.8 s, then the
        // 60 s cap for the remaining three retransmits.
        let expected = SimDuration::from_millis(700 + 1_400 + 2_800 + 5_600 + 11_200 + 22_400)
            + SimDuration::from_millis(44_800)
            + SimDuration::from_secs(60) * 3;
        assert_eq!(stats.stall, expected);
    }

    #[test]
    fn zero_retry_policy_never_stalls() {
        // max_retries = 0 is a hard-fail policy: even mid-outage the plan
        // charges nothing and sends immediately.
        let mut plan = FaultSpec::parse("down@0s..1000s,crash:0@0s+500s")
            .unwrap()
            .build();
        let policy = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::nfs_soft()
        };
        let (stages, stats) = retry(&mut plan, Some(0), t(5), policy);
        assert!(stages.is_empty());
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.stall, SimDuration::ZERO);
    }
}
