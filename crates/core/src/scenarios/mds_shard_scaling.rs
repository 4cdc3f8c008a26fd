//! SHARD — metadata throughput vs. MDS shard count.
//!
//! The paper's testbeds funnel every metadata operation through one server
//! (the NVRAM filer, the Lustre MDS) and §4.3 measures the resulting
//! saturation. This experiment asks the question the paper leaves open in
//! §2.5/§4.7: what happens when the namespace is hash-partitioned over N
//! metadata servers behind a placement layer? The shape to hold: throughput
//! grows monotonically from 1 → 4 → 16 shards, clearing the single-MDS
//! saturation ceiling, and flattens once shards approach the
//! distinct client directory count (64 writers).
//!
//! The hash-mode model is partition-conforming, so this sweep runs on the
//! conservative windowed engine, bit-identical at every `--sim-threads`
//! value.

use crate::suite::{fmt_ops, fmt_x, run_makefiles, ExpTable, ReportBuilder};
use cluster::SimConfig;
use dfs::{ShardMds, ShardMdsConfig};
use simcore::SimDuration;

const SHARD_COUNTS: [usize; 4] = [1, 4, 16, 64];
const NODES: usize = 16;
const PPN: usize = 4;

pub fn run(b: &mut ReportBuilder) {
    let mut cfg = SimConfig::default();
    cfg.duration = Some(SimDuration::from_secs(10));
    cfg.node_cores = 1;

    let mut t = ExpTable::new(
        "MakeFiles 16 nodes x 4 ppn, hash placement over N MDS shards",
        &["shards", "ops/s", "vs 1 shard"],
    );
    let mut rates = Vec::new();
    for shards in SHARD_COUNTS {
        let mut model = ShardMds::new(ShardMdsConfig {
            shards,
            ..ShardMdsConfig::default()
        });
        let res = run_makefiles(&mut model, NODES, PPN, &cfg);
        let rate = res.stonewall_ops_per_sec();
        t.row(vec![
            shards.to_string(),
            fmt_ops(rate),
            fmt_x(rate / rates.first().copied().unwrap_or(rate)),
        ]);
        b.metric_tol(&format!("ops_{shards}_shards"), rate, 1e-6);
        rates.push(rate);
    }
    b.table(t);

    let (r1, r4, r16, r64) = (rates[0], rates[1], rates[2], rates[3]);
    b.check(
        "sharding_scales_1_to_4",
        r4 > r1 * 1.3,
        format!("{} → {} ops/s", fmt_ops(r1), fmt_ops(r4)),
    );
    b.check(
        "sharding_scales_4_to_16",
        r16 > r4 * 1.1,
        format!("{} → {} ops/s", fmt_ops(r4), fmt_ops(r16)),
    );
    b.check(
        "clears_single_mds_saturation",
        r16 > r1 * 2.0,
        format!("{} vs single-MDS {} ops/s", fmt_ops(r16), fmt_ops(r1)),
    );
    b.check(
        "flattens_past_directory_count",
        r64 > r16 * 0.9,
        format!(
            "{} → {} ops/s with only {} writer directories",
            fmt_ops(r16),
            fmt_ops(r64),
            NODES * PPN
        ),
    );
    b.summary(format!(
        "1/4/16/64 shards: {} / {} / {} / {} ops/s ({} past the single-MDS ceiling)",
        fmt_ops(r1),
        fmt_ops(r4),
        fmt_ops(r16),
        fmt_ops(r64),
        fmt_x(r16 / r1)
    ));
}
