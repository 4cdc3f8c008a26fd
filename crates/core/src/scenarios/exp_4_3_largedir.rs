//! EXP-4.3.3 — Sequential and parallel file creation in large directories
//! (paper §4.3.3).
//!
//! Creation throughput into one shared directory that already holds N
//! entries, for the three generations of server-side directory indexes the
//! thesis surveys (§2.4.2). Shapes to reproduce:
//!
//! * linear-list directories degrade roughly with N (the uniqueness check
//!   scans the whole entry list, §2.6.3),
//! * hashed and B-tree directories stay nearly flat to large N,
//! * parallel creation into one directory helps until the server
//!   serializes on the directory itself.

use crate::suite::{fmt_ops, fmt_x, make_workers, node_names, ExpTable, ReportBuilder};
use cluster::{run_sim, OpStream, SimConfig, WorkerSpec};
use dfs::{MetaOp, NfsConfig, NfsFs};
use memfs::{DirIndexKind, MemFs, Vfs};

const MEASURE_OPS: u64 = 2_000;

/// One server namespace per index kind whose shared directory `/big` grows
/// size by size: each measured size reuses the entries made for the sizes
/// before it.
struct GrowingDir {
    config: NfsConfig,
    fs: MemFs,
    entries: u64,
}

impl GrowingDir {
    fn new(kind: DirIndexKind) -> Self {
        let mut config = NfsConfig::default();
        config.fs_config.dir_index = kind;
        let mut fs = MemFs::with_config(config.fs_config.clone());
        fs.mkdir("/big").expect("fresh fs");
        GrowingDir {
            config,
            fs,
            entries: 0,
        }
    }

    /// An NFS model whose server holds a copy of the namespace with `/big`
    /// grown to `n` entries.
    fn model(&mut self, n: u64) -> NfsFs {
        assert!(n >= self.entries, "the directory only grows");
        for i in self.entries..n {
            let fd = self.fs.create(&format!("/big/old{i}")).expect("unique");
            self.fs.close(fd).expect("open");
        }
        self.entries = n;
        let mut model = NfsFs::new(self.config.clone());
        let fs = model.server_fs_mut();
        *fs = self.fs.clone();
        fs.take_cost(); // preparation work is not part of the measurement
        model
    }
}

fn creation_rate(mut model: NfsFs, nodes: usize, ppn: usize) -> f64 {
    let workers: Vec<WorkerSpec> = make_workers(nodes, ppn);
    let quota = MEASURE_OPS / workers.len() as u64;
    let streams: Vec<Box<dyn OpStream>> = workers
        .iter()
        .map(|w| {
            let tag = format!("n{}p{}", w.node, w.proc);
            let s: Box<dyn OpStream> = Box::new(move |i: u64| {
                if i < quota {
                    Some(MetaOp::Create {
                        path: format!("/big/{tag}_new{i}"),
                        data_bytes: 0,
                    })
                } else {
                    None
                }
            });
            s
        })
        .collect();
    let res = run_sim(
        &mut model,
        &node_names(nodes),
        workers,
        streams,
        &SimConfig::default(),
    );
    res.stonewall_ops_per_sec()
}

/// Sequential creation rates into `/big` at each of `sizes`, one growing
/// namespace for all of them.
fn sequential_rates(kind: DirIndexKind, sizes: &[u64]) -> Vec<f64> {
    let mut dir = GrowingDir::new(kind);
    sizes
        .iter()
        .map(|&n| creation_rate(dir.model(n), 1, 1))
        .collect()
}

pub fn run(b: &mut ReportBuilder) {
    // Linear directories are O(N) per lookup, so pre-population itself is
    // O(N²); cap their sizes, as any real benchmark would have to.
    let linear_sizes: [u64; 3] = [1_000, 10_000, 30_000];
    let indexed_sizes: [u64; 5] = [1_000, 10_000, 30_000, 100_000, 300_000];
    const PARALLEL_SIZE: u64 = 100_000;

    let linear = sequential_rates(DirIndexKind::Linear, &linear_sizes);
    let btree = sequential_rates(DirIndexKind::BTree, &indexed_sizes);
    // The hashed namespace also serves the parallel cells, whose
    // sequential baseline is the hashed cell of the same size.
    let mut hashed = Vec::new();
    let (mut seq, mut par4, mut par8) = (0.0, 0.0, 0.0);
    {
        let mut dir = GrowingDir::new(DirIndexKind::Hashed);
        for &n in &indexed_sizes {
            let rate = creation_rate(dir.model(n), 1, 1);
            hashed.push(rate);
            if n == PARALLEL_SIZE {
                seq = rate;
                par4 = creation_rate(dir.model(n), 4, 1);
                par8 = creation_rate(dir.model(n), 4, 2);
            }
        }
    }

    let mut t = ExpTable::new(
        "§4.3.3 — sequential creation into a directory of N entries [ops/s]",
        &["N entries", "linear list", "hashed (WAFL)", "B-tree (XFS)"],
    );
    for (i, &n) in indexed_sizes.iter().enumerate() {
        let lin = match linear_sizes.iter().position(|&l| l == n) {
            Some(j) => fmt_ops(linear[j]),
            None => "(too slow)".to_owned(),
        };
        t.row(vec![
            n.to_string(),
            lin,
            fmt_ops(hashed[i]),
            fmt_ops(btree[i]),
        ]);
    }
    b.table(t);

    let mut t2 = ExpTable::new(
        "§4.3.3 — parallel creation into ONE directory of 100 000 entries (hashed)",
        &["configuration", "ops/s", "speedup vs sequential"],
    );
    t2.row(vec!["1 node × 1 proc".into(), fmt_ops(seq), "1.00x".into()]);
    t2.row(vec![
        "4 nodes × 1 proc".into(),
        fmt_ops(par4),
        fmt_x(par4 / seq),
    ]);
    t2.row(vec![
        "4 nodes × 2 procs".into(),
        fmt_ops(par8),
        fmt_x(par8 / seq),
    ]);
    b.table(t2);

    let (lin_small, lin_big) = (linear[0], linear[2]);
    let hash_small = hashed[0];
    let hash_big = *hashed.last().expect("non-empty");
    b.metric_tol("linear_1k", lin_small, 1e-6);
    b.metric_tol("linear_30k", lin_big, 1e-6);
    b.metric_tol("hashed_1k", hash_small, 1e-6);
    b.metric_tol("hashed_300k", hash_big, 1e-6);
    b.metric_tol("parallel_speedup_4nodes", par4 / seq, 1e-6);

    b.check(
        "linear_directories_degrade",
        lin_big < lin_small * 0.5,
        format!("{lin_small} → {lin_big}"),
    );
    b.check(
        "hashed_directories_stay_flat",
        hash_big > hash_small * 0.8,
        format!("{hash_small} → {hash_big}"),
    );
    b.check(
        "parallel_creation_into_one_dir_scales",
        par4 > seq * 2.0,
        format!("{seq} → {par4} on 4 nodes"),
    );
    b.summary(format!(
        "linear list: {} → {} ops/s from 1 k→30 k entries (≈{:.0}× degradation); hashed/B-tree flat at ≈{} ops/s up to 300 k entries; parallel creation into one 100 k-entry dir scales {:.1}× on 4 nodes",
        fmt_ops(lin_small),
        fmt_ops(lin_big),
        lin_small / lin_big,
        fmt_ops(hash_big),
        par4 / seq
    ));
}
