//! SHARD — hot-directory skew and online subtree rebalancing.
//!
//! Hash placement spreads uniform traffic, but a skewed workload — every
//! client hammering one subtree — lands on a single shard regardless of the
//! shard count (§2.4.2's large-directory pathology at cluster scale). The
//! VLDB-style subtree table can fix this *online*: a scheduled reshard
//! splits the hot directory's children over the idle shards while traffic
//! is live, clients discover the moves lazily through referral forwarding,
//! and throughput recovers. The shape to hold: pre-split throughput equals
//! one shard's capacity, post-split throughput is a multiple of it, and
//! each node pays the forwarding cost at most once per moved subtree.
//!
//! The sweep runs on the windowed engine, one domain per shard group; the
//! migration counts come from the model after [`dfs::DistFs::rejoin`]
//! folds the domain replicas back.

use crate::suite::{fmt_ops, fmt_x, make_workers, node_names, ExpTable, ReportBuilder};
use crate::{preprocess, ResultSet};
use cluster::{run_sim, OpStream, SimConfig};
use dfs::{MetaOp, ReshardAction, ReshardEvent, ShardMds, ShardMdsConfig, ShardPlacement};
use simcore::{SimDuration, SimTime};

const NODES: usize = 4;
const PPN: usize = 4;
const SPLIT_AT_S: u64 = 4;

/// Every worker creates in one of four children of the hot directory.
fn hot_streams(workers: usize) -> Vec<Box<dyn OpStream>> {
    (0..workers)
        .map(|w| {
            let dir = format!("/hot/part{}", w % 4);
            Box::new(move |i: u64| {
                Some(MetaOp::Create {
                    path: format!("{dir}/w{w}f{i}"),
                    data_bytes: 0,
                })
            }) as Box<dyn OpStream>
        })
        .collect()
}

fn run_skewed(reshard: Vec<ReshardEvent>) -> (cluster::SimRunResult, u64) {
    let mut model = ShardMds::new(ShardMdsConfig {
        shards: 4,
        placement: ShardPlacement::Subtree,
        table: vec![("/".to_owned(), 0), ("/hot".to_owned(), 1)],
        reshard,
        ..ShardMdsConfig::default()
    });
    let mut cfg = SimConfig::default();
    cfg.duration = Some(SimDuration::from_secs(16));
    cfg.node_cores = 1;
    let workers = make_workers(NODES, PPN);
    let streams = hot_streams(workers.len());
    let res = run_sim(&mut model, &node_names(NODES), workers, streams, &cfg);
    (res, model.migrations())
}

pub fn run(b: &mut ReportBuilder) {
    // part0 stays on the hot shard; the other three children split away
    let split: Vec<ReshardEvent> = (1..4)
        .map(|p| ReshardEvent {
            at: SimTime::from_secs(SPLIT_AT_S),
            action: ReshardAction::Assign {
                prefix: format!("/hot/part{p}"),
                to: (p + 1) % 4, // shards 2, 3, 0
            },
        })
        .collect();

    let (static_res, static_migrations) = run_skewed(Vec::new());
    let (split_res, split_migrations) = run_skewed(split);

    let window = |res: &cluster::SimRunResult, from: f64, to: f64| -> f64 {
        let rs = ResultSet::from_run("MakeFiles", NODES, PPN, res);
        let pre = preprocess(&rs, &[]);
        let rows: Vec<_> = pre
            .intervals
            .iter()
            .filter(|r| r.timestamp > from && r.timestamp <= to)
            .collect();
        rows.iter().map(|r| r.throughput).sum::<f64>() / rows.len().max(1) as f64
    };

    let static_rate = window(&static_res, 1.0, 16.0);
    let before = window(&split_res, 1.0, SPLIT_AT_S as f64);
    let after = window(&split_res, (SPLIT_AT_S + 4) as f64, 16.0);

    let mut t = ExpTable::new(
        "16 writers hammering /hot/part{0-3}, subtree placement on 4 shards",
        &["configuration", "ops/s", "vs hot shard"],
    );
    t.row(vec![
        "static table (whole run)".into(),
        fmt_ops(static_rate),
        fmt_x(1.0),
    ]);
    t.row(vec![
        format!("with split, before {SPLIT_AT_S} s"),
        fmt_ops(before),
        fmt_x(before / static_rate),
    ]);
    t.row(vec![
        format!("with split, after {} s", SPLIT_AT_S + 4),
        fmt_ops(after),
        fmt_x(after / static_rate),
    ]);
    b.table(t);

    b.metric_tol("static_ops", static_rate, 1e-6);
    b.metric_tol("presplit_ops", before, 1e-6);
    b.metric_tol("postsplit_ops", after, 1e-6);
    b.metric_exact("static_migrations", static_migrations as f64);
    b.metric_exact("split_migrations", split_migrations as f64);

    b.check(
        "static_table_never_migrates",
        static_migrations == 0,
        format!("{static_migrations} forwards without a schedule"),
    );
    b.check(
        "presplit_matches_static",
        (before - static_rate).abs() < static_rate * 0.1,
        format!("{} vs {} ops/s", fmt_ops(before), fmt_ops(static_rate)),
    );
    b.check(
        "split_relieves_the_hot_shard",
        after > static_rate * 2.0,
        format!(
            "{} → {} ops/s after the split",
            fmt_ops(static_rate),
            fmt_ops(after)
        ),
    );
    b.check(
        "forwarding_paid_once_per_node_per_move",
        split_migrations as usize <= NODES * 3 && split_migrations > 0,
        format!("{split_migrations} forwards, bound {}", NODES * 3),
    );
    b.summary(format!(
        "hot shard {} ops/s; online 3-way split lifts it to {} ({}), {} referral forwards",
        fmt_ops(static_rate),
        fmt_ops(after),
        fmt_x(after / static_rate),
        split_migrations
    ));
}
