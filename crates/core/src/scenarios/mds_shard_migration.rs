//! SHARD — correctness of lazy migration under live traffic.
//!
//! While a split/migrate/merge schedule edits the subtree table, every
//! operation must still resolve to **exactly one** authoritative shard —
//! no op lost, none double-applied, and the placement layer consulted
//! exactly once per operation. This scenario drives a finite workload
//! through a three-event schedule (split `/hot/sub0` away, migrate
//! `/hot/sub1`, merge `/hot/sub0` back) and audits conservation:
//! `lookups == ops planned == ops completed`, zero errors, and the lazy
//! referral forwards bounded by one per node per moved subtree. The
//! authority function itself is sampled across the event boundaries
//! (the unbounded property-test version lives in
//! `tests/shardmds_placement.rs`). The run is partitioned, and the audited
//! counters are the domain replicas' sums, read from the model after the
//! run.

use crate::suite::{make_workers, node_names, ExpTable, ReportBuilder};
use cluster::{run_sim, OpStream, SimConfig};
use dfs::{MetaOp, ReshardAction, ReshardEvent, ShardMds, ShardMdsConfig, ShardPlacement};
use simcore::SimTime;

const NODES: usize = 4;
const PPN: usize = 2;
const OPS_PER_WORKER: u64 = 1500;
const MOVES: usize = 3;

fn schedule() -> Vec<ReshardEvent> {
    vec![
        ReshardEvent {
            at: SimTime::from_millis(100),
            action: ReshardAction::Assign {
                prefix: "/hot/sub0".to_owned(),
                to: 2,
            },
        },
        ReshardEvent {
            at: SimTime::from_millis(200),
            action: ReshardAction::Assign {
                prefix: "/hot/sub1".to_owned(),
                to: 3,
            },
        },
        ReshardEvent {
            at: SimTime::from_millis(300),
            action: ReshardAction::Remove {
                prefix: "/hot/sub0".to_owned(),
            },
        },
    ]
}

pub fn run(b: &mut ReportBuilder) {
    let mut model = ShardMds::new(ShardMdsConfig {
        shards: 4,
        placement: ShardPlacement::Subtree,
        table: vec![("/".to_owned(), 0), ("/hot".to_owned(), 1)],
        reshard: schedule(),
        ..ShardMdsConfig::default()
    });

    // authority is a pure function of (schedule, time, path): sample the
    // grid around every event boundary before running any traffic
    let mut samples = 0u64;
    let mut unique = true;
    for ms in [0u64, 99, 100, 199, 200, 299, 300, 400] {
        let now = SimTime::from_millis(ms);
        for path in ["/hot/sub0/f", "/hot/sub1/f", "/hot/other/f", "/data/w0/f"] {
            let s = model.authority_of(path, now);
            samples += 1;
            unique &= s < 4 && s == model.authority_of(path, now);
        }
    }

    let workers = make_workers(NODES, PPN);
    let streams: Vec<Box<dyn OpStream>> = (0..workers.len())
        .map(|w| {
            Box::new(move |i: u64| {
                if i >= OPS_PER_WORKER {
                    return None;
                }
                // two thirds of the traffic rides the migrating subtrees
                Some(if !i.is_multiple_of(3) {
                    MetaOp::Create {
                        path: format!("/hot/sub{}/w{w}f{i}", i % 2),
                        data_bytes: 0,
                    }
                } else {
                    MetaOp::Stat {
                        path: format!("/data/w{w}/f{i}"),
                    }
                })
            }) as Box<dyn OpStream>
        })
        .collect();
    let cfg = SimConfig {
        node_cores: 1,
        ..SimConfig::default()
    };
    let res = run_sim(&mut model, &node_names(NODES), workers, streams, &cfg);

    let total = (NODES * PPN) as u64 * OPS_PER_WORKER;
    let done = res.total_ops();
    let errors: u64 = res.workers.iter().map(|w| w.errors).sum();
    let lookups = model.lookups();
    let migrations = model.migrations();
    let placement_rpcs = model.placement_rpcs();

    let mut t = ExpTable::new(
        "Conservation audit — 12 000 ops across a split/migrate/merge schedule",
        &["quantity", "value"],
    );
    t.row(vec!["ops issued".into(), total.to_string()]);
    t.row(vec!["ops completed".into(), done.to_string()]);
    t.row(vec!["placement lookups".into(), lookups.to_string()]);
    t.row(vec!["referral forwards".into(), migrations.to_string()]);
    t.row(vec![
        "cold placement RPCs".into(),
        placement_rpcs.to_string(),
    ]);
    t.row(vec!["plan errors".into(), errors.to_string()]);
    b.table(t);

    b.metric_exact("ops_completed", done as f64);
    b.metric_exact("lookups", lookups as f64);
    b.metric_exact("migrations", migrations as f64);
    b.metric_exact("placement_rpcs", placement_rpcs as f64);

    b.check(
        "authority_unique_at_boundaries",
        unique && samples == 32,
        format!("{samples} samples across the event instants"),
    );
    b.check(
        "no_op_lost_or_duplicated",
        done == total && lookups == total,
        format!("{done} completed, {lookups} resolved, {total} issued"),
    );
    b.check("no_plan_errors", errors == 0, format!("{errors} errors"));
    b.check(
        "migration_really_happened",
        migrations > 0,
        format!("{migrations} referral forwards"),
    );
    b.check(
        "forwarding_bounded_by_node_moves",
        migrations as usize <= NODES * MOVES,
        format!("{migrations} forwards, bound {}", NODES * MOVES),
    );
    b.summary(format!(
        "{done}/{total} ops completed, {lookups} placement resolutions, \
         {migrations} lazy forwards across {MOVES} table moves, {errors} errors"
    ));
}
