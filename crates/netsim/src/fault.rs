//! Deterministic fault injection on virtual time.
//!
//! The paper's evaluation repeatedly meets *degraded* service — MDS
//! saturation, latency sensitivity (§4.6), stalls during consistency
//! points — but a healthy simulated cluster never exercises the recovery
//! machinery real deployments depend on. This module injects faults the
//! same way everything else in the stack works: scheduled on **virtual
//! time** and drawn from a **seeded** stream, so a faulted run is exactly
//! as reproducible as a healthy one.
//!
//! A [`FaultSpec`] is the declarative description (parseable from the
//! `--faults` CLI grammar); [`FaultSpec::build`] compiles it into a
//! [`FaultPlan`] that links and file-system models consult:
//!
//! * `down@A..B` — the client↔server link drops every message in `[A, B)`,
//! * `degrade@A..B:Fx` — latency ×F and bandwidth ÷F in `[A, B)`
//!   (overlapping windows compose multiplicatively),
//! * `loss@A..B:P` — each RPC attempt in `[A, B)` is lost with
//!   probability P (drawn from the plan's own RNG stream),
//! * `crash:S@T+D` — server S crashes at T and restarts D later,
//! * `seed=N` — seed of the loss stream.
//!
//! Times accept `s` (default), `ms`, `us` and `ns` suffixes.
//!
//! # Example
//!
//! ```
//! use netsim::fault::FaultSpec;
//! use simcore::SimTime;
//!
//! let plan = FaultSpec::parse("down@2s..3s,crash:0@10s+5s").unwrap().build();
//! assert!(plan.link_down(SimTime::from_millis(2500)));
//! assert!(!plan.link_down(SimTime::from_secs(3)));
//! assert!(plan.server_down(0, SimTime::from_secs(12)).is_some());
//! assert!(plan.server_down(0, SimTime::from_secs(15)).is_none());
//! ```
//!
//! Determinism contract: a plan makes **zero** RNG draws outside its loss
//! windows, and the loss stream is private to the plan — attaching a plan
//! whose windows never cover the run leaves every simulation bit-identical
//! to a fault-free run.

use simcore::{DetRng, SimDuration, SimTime};

/// Seed of the loss stream when the spec does not pin one.
const DEFAULT_SEED: u64 = 0xFA01;

/// One clause of a [`FaultSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultClause {
    /// The client↔server link drops every message in `[start, end)`.
    LinkDown {
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive).
        end: SimTime,
    },
    /// Latency multiplied and bandwidth divided by `factor` in `[start, end)`.
    Degrade {
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive).
        end: SimTime,
        /// Degradation factor (≥ 1 slows the link down).
        factor: f64,
    },
    /// Each RPC attempt in `[start, end)` is lost with `probability`.
    RpcLoss {
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive).
        end: SimTime,
        /// Per-attempt loss probability in `[0, 1]`.
        probability: f64,
    },
    /// Server `server` crashes at `at` and restarts `down` later.
    ServerCrash {
        /// Model-specific server index (matches `ServerId.0`).
        server: usize,
        /// Crash instant.
        at: SimTime,
        /// Outage duration.
        down: SimDuration,
    },
}

/// A declarative, seedable fault schedule. Cheap to clone; compile it into
/// a [`FaultPlan`] per model instance with [`FaultSpec::build`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// The scheduled fault clauses.
    pub clauses: Vec<FaultClause>,
    /// Seed of the loss stream (`DEFAULT_SEED` when `None`).
    pub seed: Option<u64>,
}

impl FaultSpec {
    /// Parse the `--faults` grammar: comma-separated clauses
    /// `down@A..B`, `degrade@A..B:Fx`, `loss@A..B:P`, `crash:S@T+D`,
    /// `seed=N`.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut out = FaultSpec::default();
        for raw in spec.split(',') {
            let clause = raw.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(seed) = clause.strip_prefix("seed=") {
                let n: u64 = seed
                    .parse()
                    .map_err(|e| format!("bad seed in {clause:?}: {e}"))?;
                out.seed = Some(n);
            } else if let Some(window) = clause.strip_prefix("down@") {
                let (start, end) = parse_window(window, clause)?;
                out.clauses.push(FaultClause::LinkDown { start, end });
            } else if let Some(rest) = clause.strip_prefix("degrade@") {
                let (window, factor) = rest
                    .rsplit_once(':')
                    .ok_or_else(|| format!("{clause:?}: expected degrade@A..B:Fx"))?;
                let factor = factor
                    .strip_suffix('x')
                    .unwrap_or(factor)
                    .parse::<f64>()
                    .map_err(|e| format!("bad factor in {clause:?}: {e}"))?;
                if !(factor.is_finite() && factor > 0.0) {
                    return Err(format!("{clause:?}: factor must be finite and > 0"));
                }
                let (start, end) = parse_window(window, clause)?;
                out.clauses
                    .push(FaultClause::Degrade { start, end, factor });
            } else if let Some(rest) = clause.strip_prefix("loss@") {
                let (window, p) = rest
                    .rsplit_once(':')
                    .ok_or_else(|| format!("{clause:?}: expected loss@A..B:P"))?;
                let probability = p
                    .parse::<f64>()
                    .map_err(|e| format!("bad probability in {clause:?}: {e}"))?;
                if !(0.0..=1.0).contains(&probability) {
                    return Err(format!("{clause:?}: probability must be in [0, 1]"));
                }
                let (start, end) = parse_window(window, clause)?;
                out.clauses.push(FaultClause::RpcLoss {
                    start,
                    end,
                    probability,
                });
            } else if let Some(rest) = clause.strip_prefix("crash:") {
                let (server, timing) = rest
                    .split_once('@')
                    .ok_or_else(|| format!("{clause:?}: expected crash:S@T+D"))?;
                let server: usize = server
                    .parse()
                    .map_err(|e| format!("bad server in {clause:?}: {e}"))?;
                let (at, down) = timing
                    .split_once('+')
                    .ok_or_else(|| format!("{clause:?}: expected crash:S@T+D"))?;
                let at = parse_time(at, clause)?;
                let down = parse_time(down, clause)?.since(SimTime::ZERO);
                out.clauses
                    .push(FaultClause::ServerCrash { server, at, down });
            } else {
                return Err(format!(
                    "unknown fault clause {clause:?} (expected down@A..B, \
                     degrade@A..B:Fx, loss@A..B:P, crash:S@T+D or seed=N)"
                ));
            }
        }
        Ok(out)
    }

    /// Builder: pin the loss-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Builder: add a link-down window.
    pub fn link_down(mut self, start: SimTime, end: SimTime) -> Self {
        self.clauses.push(FaultClause::LinkDown { start, end });
        self
    }

    /// Builder: add a degradation window.
    pub fn degrade(mut self, start: SimTime, end: SimTime, factor: f64) -> Self {
        self.clauses
            .push(FaultClause::Degrade { start, end, factor });
        self
    }

    /// Builder: add a server crash.
    pub fn crash(mut self, server: usize, at: SimTime, down: SimDuration) -> Self {
        self.clauses
            .push(FaultClause::ServerCrash { server, at, down });
        self
    }

    /// `true` if the spec schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Compile into a queryable plan with its own loss stream.
    pub fn build(&self) -> FaultPlan {
        let mut link_down = Vec::new();
        let mut degrades = Vec::new();
        let mut losses = Vec::new();
        let mut crashes = Vec::new();
        for clause in &self.clauses {
            match *clause {
                FaultClause::LinkDown { start, end } => link_down.push((start, end)),
                FaultClause::Degrade { start, end, factor } => degrades.push((start, end, factor)),
                FaultClause::RpcLoss {
                    start,
                    end,
                    probability,
                } => losses.push((start, end, probability)),
                FaultClause::ServerCrash { server, at, down } => crashes.push(CrashEvent {
                    server,
                    at,
                    restart: at + down,
                }),
            }
        }
        link_down.sort_unstable();
        degrades.sort_unstable_by_key(|a| (a.0, a.1));
        losses.sort_unstable_by_key(|a| (a.0, a.1));
        crashes.sort_unstable_by_key(|c| (c.at, c.server));
        let mut restarts = crashes.clone();
        restarts.sort_unstable_by_key(|c| (c.restart, c.server));
        FaultPlan {
            rng: DetRng::new(self.seed.unwrap_or(DEFAULT_SEED)),
            link_down,
            degrades,
            losses,
            crashes,
            restarts,
        }
    }
}

fn parse_window(window: &str, clause: &str) -> Result<(SimTime, SimTime), String> {
    let (a, b) = window
        .split_once("..")
        .ok_or_else(|| format!("{clause:?}: expected a A..B window"))?;
    let start = parse_time(a, clause)?;
    let end = parse_time(b, clause)?;
    if end <= start {
        return Err(format!("{clause:?}: window end must be after start"));
    }
    Ok((start, end))
}

fn parse_time(text: &str, clause: &str) -> Result<SimTime, String> {
    let text = text.trim();
    let (value, scale_ns) = if let Some(v) = text.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = text.strip_suffix("us") {
        (v, 1e3)
    } else if let Some(v) = text.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = text.strip_suffix('s') {
        (v, 1e9)
    } else {
        (text, 1e9)
    };
    let value: f64 = value
        .parse()
        .map_err(|e| format!("bad time {text:?} in {clause:?}: {e}"))?;
    if !(value.is_finite() && value >= 0.0) {
        return Err(format!("bad time {text:?} in {clause:?}: must be ≥ 0"));
    }
    // Checked conversion: `as u64` silently saturates, so `0..1e30s` would
    // quietly become a window ending at u64::MAX nanoseconds (~584 years)
    // instead of an error. Reject anything past what SimTime can hold.
    let ns = (value * scale_ns).round();
    if ns >= u64::MAX as f64 {
        return Err(format!(
            "time out of range: {text:?} in {clause:?} exceeds {} seconds",
            u64::MAX / 1_000_000_000
        ));
    }
    Ok(SimTime::from_nanos(ns as u64))
}

/// Aggregate link degradation at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degradation {
    /// Multiply the link latency by this.
    pub latency_factor: f64,
    /// Divide the link bandwidth by this.
    pub bandwidth_factor: f64,
}

/// One scheduled server outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CrashEvent {
    /// Model-specific server index.
    pub server: usize,
    /// Crash instant.
    pub at: SimTime,
    /// Instant the server is back.
    pub restart: SimTime,
}

/// A compiled fault schedule. Owns its own RNG so loss draws never perturb
/// the simulation's jitter/workload streams; models that need independent
/// streams each build their own plan from the shared [`FaultSpec`].
#[derive(Debug)]
pub struct FaultPlan {
    rng: DetRng,
    link_down: Vec<(SimTime, SimTime)>,
    degrades: Vec<(SimTime, SimTime, f64)>,
    losses: Vec<(SimTime, SimTime, f64)>,
    /// Sorted by crash instant.
    crashes: Vec<CrashEvent>,
    /// The same events sorted by restart instant.
    restarts: Vec<CrashEvent>,
}

impl FaultPlan {
    /// `true` if the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.link_down.is_empty()
            && self.degrades.is_empty()
            && self.losses.is_empty()
            && self.crashes.is_empty()
    }

    /// Is the client↔server link down at `now`?
    pub fn link_down(&self, now: SimTime) -> bool {
        self.link_down.iter().any(|&(a, b)| a <= now && now < b)
    }

    /// Aggregate degradation at `now` (`None` when every window is closed;
    /// overlapping windows compose multiplicatively).
    pub fn degradation(&self, now: SimTime) -> Option<Degradation> {
        let mut factor = 1.0;
        let mut active = false;
        for &(a, b, f) in &self.degrades {
            if a <= now && now < b {
                factor *= f;
                active = true;
            }
        }
        active.then_some(Degradation {
            latency_factor: factor,
            bandwidth_factor: factor,
        })
    }

    /// Is an RPC attempt at `now` lost? Draws from the plan's private
    /// stream **only** inside a loss window — outside every window this is
    /// a pure predicate and the stream does not advance.
    pub fn rpc_lost(&mut self, now: SimTime) -> bool {
        for &(a, b, p) in &self.losses {
            if a <= now && now < b {
                return self.rng.chance(p);
            }
        }
        false
    }

    /// The outage covering `now` for `server`, if any.
    pub fn server_down(&self, server: usize, now: SimTime) -> Option<CrashEvent> {
        self.crashes
            .iter()
            .copied()
            .find(|c| c.server == server && c.at <= now && now < c.restart)
    }

    /// The latest crash of `server` at or before `now`, with its index in
    /// [`FaultPlan::crashes`] (models use the index to react to each crash
    /// event exactly once).
    pub fn last_crash_at_or_before(
        &self,
        server: usize,
        now: SimTime,
    ) -> Option<(usize, CrashEvent)> {
        self.crashes
            .iter()
            .copied()
            .enumerate()
            .rfind(|(_, c)| c.server == server && c.at <= now)
    }

    /// All scheduled crashes, sorted by crash instant.
    pub fn crashes(&self) -> &[CrashEvent] {
        &self.crashes
    }

    /// All scheduled crashes, sorted by **restart** instant — the order a
    /// client observes servers coming back (AFS callback-break storms).
    pub fn restarts(&self) -> &[CrashEvent] {
        &self.restarts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn parse_full_grammar() {
        let spec = FaultSpec::parse(
            "down@2s..3s, degrade@0s..10s:4x, loss@5s..8s:0.25, crash:1@20s+5s, seed=9",
        )
        .unwrap();
        assert_eq!(spec.seed, Some(9));
        assert_eq!(spec.clauses.len(), 4);
        assert_eq!(
            spec.clauses[3],
            FaultClause::ServerCrash {
                server: 1,
                at: t(20),
                down: SimDuration::from_secs(5),
            }
        );
    }

    #[test]
    fn parse_time_suffixes() {
        let spec = FaultSpec::parse("down@500ms..1500ms,down@2..2500ms").unwrap();
        let plan = spec.build();
        assert!(plan.link_down(SimTime::from_millis(600)));
        assert!(!plan.link_down(SimTime::from_millis(1600)));
        assert!(plan.link_down(SimTime::from_millis(2400)), "bare = seconds");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "explode@1s..2s",
            "down@3s..2s",
            "loss@1s..2s:1.5",
            "degrade@1s..2s:0x",
            "crash:0@5s",
            "seed=banana",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// Absurd times must be *errors*, not silently saturated schedules: the
    /// old `as u64` conversion turned `down@0..1e30s` into an outage ending
    /// at `u64::MAX` nanoseconds.
    #[test]
    fn parse_rejects_out_of_range_times() {
        for bad in [
            "down@0..1e30s",
            "down@1e25s..1e30s",
            "degrade@0..99999999999999999999s:2x",
            "loss@0..1e30ns:0.5",
            "crash:0@1e30s+5s",
            "crash:0@5s+1e30s",
        ] {
            let err = FaultSpec::parse(bad).expect_err(bad);
            assert!(
                err.contains("time out of range"),
                "{bad:?}: expected a range error, got {err:?}"
            );
        }
        // the largest representable whole-second time still parses
        assert!(FaultSpec::parse("down@0..18446744073s").is_ok());
    }

    #[test]
    fn parse_round_trips_through_builder() {
        let parsed = FaultSpec::parse("degrade@1s..2s:2x,crash:0@5s+1s").unwrap();
        let built =
            FaultSpec::default()
                .degrade(t(1), t(2), 2.0)
                .crash(0, t(5), SimDuration::from_secs(1));
        assert_eq!(parsed, built);
    }

    #[test]
    fn degradation_composes_multiplicatively() {
        let plan = FaultSpec::default()
            .degrade(t(0), t(10), 2.0)
            .degrade(t(5), t(15), 3.0)
            .build();
        assert_eq!(plan.degradation(t(1)).unwrap().latency_factor, 2.0);
        assert_eq!(plan.degradation(t(7)).unwrap().latency_factor, 6.0);
        assert_eq!(plan.degradation(t(12)).unwrap().latency_factor, 3.0);
        assert!(plan.degradation(t(15)).is_none(), "end is exclusive");
    }

    #[test]
    fn crash_queries() {
        let plan = FaultSpec::default()
            .crash(0, t(10), SimDuration::from_secs(5))
            .crash(0, t(30), SimDuration::from_secs(1))
            .crash(2, t(20), SimDuration::from_secs(2))
            .build();
        assert!(plan.server_down(0, t(12)).is_some());
        assert!(plan.server_down(0, t(15)).is_none(), "restart is exclusive");
        assert!(plan.server_down(1, t(12)).is_none());
        let (idx, c) = plan.last_crash_at_or_before(0, t(40)).unwrap();
        assert_eq!(c.at, t(30));
        assert_eq!(plan.crashes()[idx], c);
        assert!(plan.last_crash_at_or_before(0, t(9)).is_none());
        assert_eq!(plan.restarts().len(), 3);
        assert!(plan
            .restarts()
            .windows(2)
            .all(|w| w[0].restart <= w[1].restart));
    }

    #[test]
    fn loss_draws_only_inside_windows() {
        let spec = FaultSpec::parse("loss@10s..20s:0.5,seed=1").unwrap();
        let mut a = spec.build();
        let mut b = spec.build();
        // outside the window: pure predicate, stream must not advance
        for i in 0..100 {
            assert!(!a.rpc_lost(t(i % 10)));
        }
        // identical draw sequences inside the window regardless of how many
        // outside-window queries preceded them
        let draws_a: Vec<bool> = (0..64)
            .map(|i| a.rpc_lost(t(10) + SimDuration::from_millis(i)))
            .collect();
        let draws_b: Vec<bool> = (0..64)
            .map(|i| b.rpc_lost(t(10) + SimDuration::from_millis(i)))
            .collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(|&l| l) && draws_a.iter().any(|&l| !l));
    }

    #[test]
    fn certain_loss_is_certain() {
        let mut plan = FaultSpec::parse("loss@0s..1s:1").unwrap().build();
        assert!((0..10).all(|i| plan.rpc_lost(SimTime::from_millis(i))));
        let mut never = FaultSpec::parse("loss@0s..1s:0").unwrap().build();
        assert!((0..10).all(|i| !never.rpc_lost(SimTime::from_millis(i))));
    }

    #[test]
    fn empty_specs() {
        assert!(FaultSpec::parse("").unwrap().is_empty());
        assert!(FaultSpec::parse("seed=3").unwrap().build().is_empty());
    }
}
