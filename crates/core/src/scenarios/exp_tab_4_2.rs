//! TAB-4.2 — Harness overhead (paper §4.2.2, Table 4.2).
//!
//! The paper compares a Python loop creating 200 000 files against a pure C
//! loop on `/dev/shm` (2.1 s vs 0.62 s) and argues the overhead is a fixed
//! per-operation cost that cancels out of comparative measurements. Our
//! harness's equivalent overhead is dynamic plugin dispatch + `MetaOp`
//! allocation vs. a hand-inlined loop on the same in-memory file system.
//!
//! The only wall-clock (non-deterministic) scenario in the suite: its
//! metrics are informational and exempt from baseline value comparison.

use crate::suite::{ExpTable, ReportBuilder};
use crate::{plugin_by_name, BenchParams, WorkerCtx};
use memfs::{MemFs, Vfs};
use std::time::Instant;

const N: u64 = 200_000;

fn raw_loop() -> f64 {
    let mut fs = MemFs::new();
    fs.mkdir("/w").expect("fresh fs");
    let t0 = Instant::now();
    for i in 0..N {
        let fd = fs.create(&format!("/w/{i}")).expect("unique names");
        fs.close(fd).expect("open handle");
    }
    t0.elapsed().as_secs_f64()
}

fn harness_loop() -> f64 {
    let mut fs = MemFs::new();
    let params = BenchParams {
        problem_size: N, // one giant directory chunk, like the raw loop
        workdir: "/w".into(),
        ..BenchParams::default()
    };
    let ctx = WorkerCtx::build(&[(0, 0)], &params, 1).remove(0);
    let plugin = plugin_by_name("MakeFiles").expect("built-in plugin");
    let mut stream = plugin.stream(&ctx);
    let t0 = Instant::now();
    for i in 0..N {
        let op = stream(i).expect("timed stream never ends");
        if i == 0 {
            dfs::ensure_parents(&mut fs, op.primary_path()).expect("mkdir chain");
        }
        dfs::exec_op(&mut fs, &op).expect("unique names");
    }
    t0.elapsed().as_secs_f64()
}

pub fn run(b: &mut ReportBuilder) {
    // warm up allocators, then measure
    let _ = raw_loop();
    let raw = raw_loop();
    let harness = harness_loop();
    let mut t = ExpTable::new(
        "Table 4.2 — loop runtime for 200 000 file creations (in-memory fs)",
        &["variant", "runtime [s]", "per-op overhead [ns]"],
    );
    t.row(vec![
        "hand-inlined loop (\"C\")".into(),
        format!("{raw:.3}"),
        "-".into(),
    ]);
    t.row(vec![
        "plugin dispatch loop (\"Python\")".into(),
        format!("{harness:.3}"),
        format!("{:.0}", (harness - raw).max(0.0) * 1e9 / N as f64),
    ]);
    b.table(t);
    b.note(format!(
        "\noverhead factor {:.2}x (paper's Python/C factor was {:.2}x; their point — the overhead",
        harness / raw,
        2.1 / 0.62
    ));
    b.note(
        "is constant per operation and vanishes against slow distributed file systems — holds here too)."
            .to_owned(),
    );

    b.metric_info("raw_loop_s", raw);
    b.metric_info("harness_loop_s", harness);
    b.metric_info("overhead_factor", harness / raw);
    b.check(
        "dispatch_overhead_stays_moderate",
        harness / raw < 3.5,
        format!("{:.2}x", harness / raw),
    );
    b.summary(format!(
        "dispatch loop a constant ~{:.1}× over the inlined loop (wall-clock, varies per machine)",
        harness / raw
    ));
}
