//! Known-answer oracles: the processor-sharing CPU against closed forms.
//!
//! The blessed baselines pin the engine against its own past, and the
//! determinism matrices pin it against itself; these properties check that
//! the numbers are right. Each drives a `PsResource` the way the engine
//! does (population changes at their instants, the current prediction
//! delivered when it comes first) and compares every completion instant
//! with an exact formula. Demands are whole nanoseconds, so the only error
//! is rounding each predicted instant to a nanosecond: every bound below is
//! 1 ns. Each failure message names its formula.

use proptest::prelude::*;
use simcore::{JobId, PsResource, SimDuration, SimTime};

/// Scheduling weights drawn by the properties: the ones the scenarios use.
const WEIGHTS: [f64; 6] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// Allowed distance between a completion instant and its closed form.
const BOUND_NS: f64 = 1.0;

#[derive(Debug, Clone, Copy)]
enum Change {
    Arrive(JobId, SimDuration, f64),
    Background(JobId, f64),
    Remove(JobId),
}

/// Apply `changes` (sorted by instant) to a fresh `cores`-core CPU and
/// deliver every predicted completion that comes before the next change.
/// `after_step` sees the resource after every step. Returns each completed
/// job with its instant, in completion order.
fn drive(
    cores: usize,
    changes: &[(SimTime, Change)],
    mut after_step: impl FnMut(&PsResource),
) -> Vec<(JobId, SimTime)> {
    let mut cpu = PsResource::new(cores);
    let mut done = Vec::new();
    let mut next = 0;
    for _ in 0..10_000 {
        let change_at = changes.get(next).map(|&(at, _)| at);
        match cpu.next_completion() {
            Some(c) if change_at.is_none_or(|t| c.at < t) => {
                if let Some(job) = cpu.on_completion(c.at, c.generation) {
                    done.push((job, c.at));
                }
            }
            _ => {
                let Some(&(at, change)) = changes.get(next) else {
                    return done;
                };
                match change {
                    Change::Arrive(job, demand, weight) => cpu.arrive(at, job, demand, weight),
                    Change::Background(job, weight) => cpu.arrive_background(at, job, weight),
                    Change::Remove(job) => {
                        cpu.remove(at, job);
                    }
                }
                next += 1;
            }
        }
        after_step(&cpu);
    }
    panic!("the CPU did not drain in 10 000 steps");
}

fn ns(t: SimTime) -> f64 {
    t.as_nanos() as f64
}

fn arrive_at_zero(jobs: &[(SimDuration, f64)]) -> Vec<(SimTime, Change)> {
    jobs.iter()
        .enumerate()
        .map(|(i, &(d, w))| (SimTime::ZERO, Change::Arrive(JobId(i as u64), d, w)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// k equal-weight jobs of demand D on a c-core CPU all finish at
    /// D · max(1, k / c).
    #[test]
    fn equal_jobs_finish_together(k in 1usize..16, cores in 1usize..8, d_ns in 1u64..100_000_000) {
        let d = SimDuration::from_nanos(d_ns);
        let done = drive(cores, &arrive_at_zero(&vec![(d, 1.0); k]), |_| {});
        let want = d_ns as f64 * (k as f64 / cores as f64).max(1.0);
        prop_assert_eq!(done.len(), k, "{} of {} jobs completed", done.len(), k);
        for &(job, at) in &done {
            prop_assert!(
                (ns(at) - want).abs() <= BOUND_NS,
                "D·max(1, k/c) with D = {d_ns} ns, k = {k}, c = {cores}: want {want} ns, \
                 {job} finished at {} ns",
                at.as_nanos()
            );
        }
    }

    /// A hog of equal weight halves a single-core worker's rate: a worker
    /// of demand D that runs alone until the hog arrives at a < D finishes
    /// at a + 2·(D − a) = 2D − a.
    #[test]
    fn equal_weight_hog_halves_the_rate(d_ns in 2u64..100_000_000, frac in 0u64..1000) {
        let a_ns = d_ns * frac / 1000;
        let changes = [
            (SimTime::ZERO, Change::Arrive(JobId(0), SimDuration::from_nanos(d_ns), 1.0)),
            (SimTime::from_nanos(a_ns), Change::Background(JobId(99), 1.0)),
        ];
        let done = drive(1, &changes, |_| {});
        let want = 2.0 * d_ns as f64 - a_ns as f64;
        prop_assert_eq!(done.len(), 1);
        prop_assert!(
            (ns(done[0].1) - want).abs() <= BOUND_NS,
            "2D − a with D = {d_ns} ns, a = {a_ns} ns: want {want} ns, got {} ns",
            done[0].1.as_nanos()
        );
    }

    /// Two weighted jobs A and B on one core: the one with the smaller
    /// D / w finishes first, at min(Da/wa, Db/wb) · (wa + wb); the other
    /// then runs alone and finishes at Da + Db.
    #[test]
    fn two_weighted_jobs_match_the_closed_form(
        da_ns in 1u64..100_000_000,
        db_ns in 1u64..100_000_000,
        wa_i in 0usize..6,
        wb_i in 0usize..6,
    ) {
        let (wa, wb) = (WEIGHTS[wa_i], WEIGHTS[wb_i]);
        let (da, db) = (da_ns as f64, db_ns as f64);
        let jobs = [(SimDuration::from_nanos(da_ns), wa), (SimDuration::from_nanos(db_ns), wb)];
        let done = drive(1, &arrive_at_zero(&jobs), |_| {});
        prop_assert_eq!(done.len(), 2);
        let first = (da / wa).min(db / wb) * (wa + wb);
        let want = |job: JobId| {
            let own = if job == JobId(0) { da / wa } else { db / wb };
            if own * (wa + wb) <= first { first } else { da + db }
        };
        for &(job, at) in &done {
            prop_assert!(
                (ns(at) - want(job)).abs() <= BOUND_NS,
                "first = min(Da/wa, Db/wb)·(wa + wb), last = Da + Db with Da = {da_ns} ns, \
                 wa = {wa}, Db = {db_ns} ns, wb = {wb}: {job} finished at {} ns, want {} ns",
                at.as_nanos(),
                want(job)
            );
        }
    }

    /// Extra `next_completion` queries between steps are pure: every query
    /// in a step returns the same prediction, and a run that interleaves
    /// any number of them completes every job at the same instant as a run
    /// that makes none.
    #[test]
    fn extra_queries_move_no_completion(
        cores in 1usize..4,
        jobs in prop::collection::vec((0u64..1_000, 1u64..500, 0usize..6), 1..9),
        hog in (0u64..1_000, 1u64..1_000, 0usize..6),
        queries in prop::collection::vec(0usize..4, 1..32),
    ) {
        let us = SimTime::from_micros;
        let mut changes: Vec<(SimTime, Change)> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(at, d, w))| {
                let change = Change::Arrive(JobId(i as u64), SimDuration::from_micros(d), WEIGHTS[w]);
                (us(at), change)
            })
            .collect();
        let (hog_at, hog_for, hog_w) = hog;
        changes.push((us(hog_at), Change::Background(JobId(1_000), WEIGHTS[hog_w])));
        changes.push((us(hog_at + hog_for), Change::Remove(JobId(1_000))));
        changes.sort_by_key(|&(at, _)| at);

        let plain = drive(cores, &changes, |_| {});
        let mut step = 0;
        let queried = drive(cores, &changes, |cpu| {
            let first = cpu.next_completion();
            for _ in 0..queries[step % queries.len()] {
                assert_eq!(cpu.next_completion(), first, "a repeated query changed its answer");
            }
            step += 1;
        });
        prop_assert_eq!(plain.len(), jobs.len(), "every finite job completes");
        prop_assert_eq!(
            &queried, &plain,
            "completion instants moved when queries were interleaved: with {:?}, without {:?}",
            queried, plain
        );
    }
}
