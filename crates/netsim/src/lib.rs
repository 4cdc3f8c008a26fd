//! Network model for the distributed file-system simulations.
//!
//! Metadata operations in distributed file systems are dominated by network
//! round trips (paper §4.6 studies the influence of network latency
//! explicitly). This crate provides:
//!
//! * [`LinkSpec`] — latency + bandwidth + jitter of one link,
//! * [`RpcProfile`] — request/response payload sizes per operation so RPC
//!   cost scales with message size,
//! * [`fault`] — a declarative, seedable fault schedule ([`fault::FaultPlan`])
//!   that [`LinkSpec::one_way_at`] consults.
//!
//! # Example
//!
//! ```
//! use netsim::{LinkSpec, RpcProfile};
//! use simcore::{DetRng, SimDuration};
//!
//! let wan = LinkSpec::wan(SimDuration::from_millis(5));
//! let rpc = RpcProfile::metadata();
//! let mut rng = DetRng::new(1);
//! let rtt = wan.one_way(rpc.request_bytes, &mut rng) + wan.one_way(rpc.response_bytes, &mut rng);
//! assert!(rtt >= SimDuration::from_millis(10), "two WAN crossings");
//! assert!(wan.min_latency() <= wan.one_way(0, &mut rng));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;

use fault::FaultPlan;
use simcore::{DetRng, SimDuration, SimTime};

/// One directed link's characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Usable bandwidth in bytes per second.
    pub bandwidth_bps: u64,
    /// Multiplicative latency jitter spread in `[0, 1)` (0 = deterministic).
    pub jitter: f64,
}

impl LinkSpec {
    /// A typical data-center Gigabit-Ethernet link: 100 µs one-way latency,
    /// 1 Gbit/s (the LRZ Linux cluster network of §4.1.2).
    pub fn lan() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(100),
            bandwidth_bps: 125_000_000,
            jitter: 0.0,
        }
    }

    /// A 10-GigE link: 50 µs one-way latency, 10 Gbit/s.
    pub fn ten_gige() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(50),
            bandwidth_bps: 1_250_000_000,
            jitter: 0.0,
        }
    }

    /// An intra-node "link" (loopback / NUMAlink): 5 µs, effectively
    /// unlimited bandwidth — used when client and server share a node.
    pub fn local() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(5),
            bandwidth_bps: 12_500_000_000,
            jitter: 0.0,
        }
    }

    /// A WAN link with the given one-way latency and 100 Mbit/s bandwidth
    /// (the latency-sweep experiment of §4.6).
    pub fn wan(latency: SimDuration) -> Self {
        LinkSpec {
            latency,
            bandwidth_bps: 12_500_000,
            jitter: 0.0,
        }
    }

    /// Builder-style jitter override.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        self.jitter = jitter;
        self
    }

    /// Time to move `payload` bytes one way across this link.
    pub fn one_way(&self, payload: u64, rng: &mut DetRng) -> SimDuration {
        let transmit =
            SimDuration::from_secs_f64(payload as f64 / self.bandwidth_bps.max(1) as f64);
        let latency = if self.jitter > 0.0 {
            self.latency.mul_f64(rng.jitter(self.jitter))
        } else {
            self.latency
        };
        let total = latency + transmit;
        if simcore::telemetry::enabled() {
            simcore::telemetry::count("net.messages", 1);
            simcore::telemetry::count("net.bytes", payload);
            simcore::telemetry::observe("net.delay", total);
        }
        total
    }

    /// Lower bound on this link's one-way latency: the base latency under
    /// worst-case downward jitter (`latency × (1 − jitter)`), ignoring the
    /// transmit term (payload may be zero). A partitioned model uses it as
    /// its conservative lookahead (`dfs::PartitionPlan::lookahead`).
    #[must_use]
    pub fn min_latency(&self) -> SimDuration {
        if self.jitter > 0.0 {
            self.latency.mul_f64(1.0 - self.jitter)
        } else {
            self.latency
        }
    }

    /// This link with a degradation applied: latency multiplied, bandwidth
    /// divided (jitter untouched — it is relative).
    pub fn degraded(&self, d: fault::Degradation) -> LinkSpec {
        LinkSpec {
            latency: self.latency.mul_f64(d.latency_factor),
            bandwidth_bps: ((self.bandwidth_bps as f64 / d.bandwidth_factor).round() as u64).max(1),
            jitter: self.jitter,
        }
    }

    /// Fault-aware [`LinkSpec::one_way`]: consult `faults` for a degradation
    /// window covering `now`. With no plan, or no window active, this is
    /// **exactly** `one_way` — same cost, same telemetry, same RNG draws —
    /// so fault-free runs stay bit-identical.
    pub fn one_way_at(
        &self,
        payload: u64,
        now: SimTime,
        faults: Option<&FaultPlan>,
        rng: &mut DetRng,
    ) -> SimDuration {
        match faults.and_then(|f| f.degradation(now)) {
            Some(d) => self.degraded(d).one_way(payload, rng),
            None => self.one_way(payload, rng),
        }
    }
}

/// Request/response payload sizes of one RPC (bytes on the wire).
///
/// The defaults follow typical NFSv3 message sizes: small requests, small
/// replies for pure metadata operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcProfile {
    /// Request payload bytes.
    pub request_bytes: u64,
    /// Response payload bytes.
    pub response_bytes: u64,
}

impl RpcProfile {
    /// A small metadata RPC (LOOKUP/GETATTR/CREATE-sized, ~128/128 bytes).
    pub fn metadata() -> Self {
        RpcProfile {
            request_bytes: 128,
            response_bytes: 128,
        }
    }

    /// A metadata RPC carrying `extra` data bytes in the request (e.g. a
    /// small file write piggy-backed on creation).
    pub fn metadata_with_data(extra: u64) -> Self {
        RpcProfile {
            request_bytes: 128 + extra,
            response_bytes: 128,
        }
    }

    /// A readdir-style RPC whose response grows with the entry count.
    pub fn readdir(entries: u64) -> Self {
        RpcProfile {
            request_bytes: 128,
            response_bytes: 128 + entries * 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(42)
    }

    fn plan(spec: &str) -> FaultPlan {
        fault::FaultSpec::parse(spec).unwrap().build()
    }

    #[test]
    fn one_way_includes_transmit_time() {
        let link = LinkSpec {
            latency: SimDuration::from_millis(1),
            bandwidth_bps: 1_000_000, // 1 MB/s
            jitter: 0.0,
        };
        let d = link.one_way(500_000, &mut rng());
        assert_eq!(
            d,
            SimDuration::from_millis(501),
            "1 ms latency + 0.5 s transmit"
        );
    }

    #[test]
    fn jitter_varies_latency_within_bounds() {
        let link = LinkSpec::lan().with_jitter(0.2);
        let mut r = rng();
        let base = LinkSpec::lan().latency;
        for _ in 0..100 {
            let d = link.one_way(0, &mut r);
            assert!(d >= base.mul_f64(0.8) && d <= base.mul_f64(1.2), "{d}");
        }
    }

    #[test]
    fn rpc_profiles_scale_with_content() {
        let small = RpcProfile::metadata();
        let big = RpcProfile::readdir(10_000);
        assert!(big.response_bytes > small.response_bytes * 100);
        let with_data = RpcProfile::metadata_with_data(64);
        assert_eq!(with_data.request_bytes, 192);
    }

    #[test]
    fn one_way_at_matches_one_way_outside_fault_windows() {
        let plan = plan("degrade@10s..20s:4x");
        let link = LinkSpec::lan().with_jitter(0.1);
        let mut r1 = DetRng::new(3);
        let mut r2 = DetRng::new(3);
        for i in 0..50u64 {
            let now = SimTime::from_millis(i * 100); // all before 10 s
            assert_eq!(
                link.one_way_at(128, now, Some(&plan), &mut r1),
                link.one_way(128, &mut r2),
                "outside the window the fault path must be inert"
            );
        }
    }

    #[test]
    fn degradation_window_slows_the_link() {
        let plan = plan("degrade@10s..20s:4x");
        let link = LinkSpec::lan();
        let healthy = link.one_way_at(1_000_000, SimTime::from_secs(5), Some(&plan), &mut rng());
        let degraded = link.one_way_at(1_000_000, SimTime::from_secs(15), Some(&plan), &mut rng());
        // latency ×4 and bandwidth ÷4 ⇒ exactly 4× for a deterministic link
        assert_eq!(degraded, healthy.mul_f64(4.0));
    }

    #[test]
    fn one_way_at_without_a_plan_is_one_way() {
        let link = LinkSpec::lan();
        let now = SimTime::from_secs(1);
        let bare = link.one_way_at(128, now, None, &mut rng());
        assert_eq!(bare, link.one_way(128, &mut rng()));
        let slowed = link.one_way_at(128, now, Some(&plan("degrade@0s..60s:2x")), &mut rng());
        assert!(slowed > bare);
    }

    #[test]
    fn deterministic_given_seed() {
        let link = LinkSpec::lan().with_jitter(0.1);
        let mut r1 = DetRng::new(7);
        let mut r2 = DetRng::new(7);
        for _ in 0..50 {
            assert_eq!(link.one_way(128, &mut r1), link.one_way(128, &mut r2));
        }
    }

    #[test]
    fn min_latency_covers_jitter() {
        assert_eq!(LinkSpec::lan().min_latency(), SimDuration::from_micros(100));
        let link = LinkSpec::ten_gige().with_jitter(0.2); // 50 µs ± 20%
        assert_eq!(link.min_latency(), SimDuration::from_micros(40));
        let mut r = rng();
        for _ in 0..100 {
            assert!(link.one_way(0, &mut r) >= link.min_latency());
        }
    }
}
