//! Cross-model semantic guarantees from paper §2.6: what each distributed
//! file system promises about visibility, caching and atomicity — asserted
//! at the `DistFs` plan level, where "client-local" vs "must contact the
//! server" is observable.

use dfs::{
    AfsFs, BackgroundJob, ClientCtx, CxfsFs, DistFs, FaultStats, LocalFs, LustreFs, MetaOp, NfsFs,
    OntapGxFs, OpPlan, PvfsFs, SemId, ServerId, ShardMds, Stage,
};
use memfs::FsError;
use netsim::fault::{FaultPlan, FaultSpec};
use simcore::telemetry::CacheTag;
use simcore::{DetRng, SimDuration, SimTime};

fn ctx(node: usize) -> ClientCtx {
    ClientCtx { node, proc: 0 }
}

fn create(path: &str) -> MetaOp {
    MetaOp::Create {
        path: path.into(),
        data_bytes: 0,
    }
}

fn stat(path: &str) -> MetaOp {
    MetaOp::Stat { path: path.into() }
}

/// §2.6.3 "Visibility of changes": a file created on node A is visible to a
/// stat from node B in every model — the RPC goes to the server holding the
/// authoritative namespace.
#[test]
fn cross_node_visibility_of_creates() {
    let mut rng = DetRng::new(1);
    let models: Vec<(Box<dyn DistFs>, &str)> = vec![
        (Box::new(NfsFs::with_defaults()), "/bench/x"),
        (Box::new(LustreFs::with_defaults()), "/bench/x"),
        (Box::new(CxfsFs::with_defaults()), "/bench/x"),
        (Box::new(OntapGxFs::with_defaults()), "/vol1/x"),
        (Box::new(AfsFs::with_defaults()), "/vol1/x"),
        (Box::new(PvfsFs::with_defaults()), "/bench/x"),
    ];
    for (mut m, path) in models {
        m.register_clients(2);
        m.plan(ctx(0), &create(path), SimTime::ZERO, &mut rng)
            .unwrap_or_else(|e| panic!("{}: create failed: {e}", m.name()));
        let plan = m
            .plan(ctx(1), &stat(path), SimTime::ZERO, &mut rng)
            .unwrap_or_else(|e| panic!("{}: cross-node stat failed: {e}", m.name()));
        assert!(
            !plan.is_client_only(),
            "{}: node 1 has no cached attrs, must RPC",
            m.name()
        );
    }
}

/// NFS close-to-open with TTL attribute caching: same-node stats are local
/// within the TTL and revalidate after it (§2.6.1).
#[test]
fn nfs_ttl_caching_semantics() {
    let mut rng = DetRng::new(2);
    let mut m = NfsFs::with_defaults();
    m.register_clients(1);
    m.plan(
        ctx(0),
        &create("/bench/f"),
        SimTime::from_secs(100),
        &mut rng,
    )
    .expect("fresh path");
    let hit = m
        .plan(ctx(0), &stat("/bench/f"), SimTime::from_secs(101), &mut rng)
        .expect("stat");
    assert!(hit.is_client_only(), "within acregmin TTL");
    let miss = m
        .plan(ctx(0), &stat("/bench/f"), SimTime::from_secs(110), &mut rng)
        .expect("stat");
    assert!(!miss.is_client_only(), "TTL expired → GETATTR revalidation");
}

/// AFS open-to-close with callbacks: cached attributes never expire with
/// time, only with a callback break or cache drop (§2.6.1).
#[test]
fn afs_callback_semantics() {
    let mut rng = DetRng::new(3);
    let mut m = AfsFs::with_defaults();
    m.register_clients(1);
    m.plan(ctx(0), &create("/vol0/f"), SimTime::ZERO, &mut rng)
        .expect("fresh path");
    let much_later = SimTime::from_secs(100_000);
    assert!(m
        .plan(ctx(0), &stat("/vol0/f"), much_later, &mut rng)
        .expect("stat")
        .is_client_only());
    m.drop_caches(0);
    assert!(!m
        .plan(ctx(0), &stat("/vol0/f"), much_later, &mut rng)
        .expect("stat")
        .is_client_only());
}

/// Atomic rename cannot cross volumes in aggregated namespaces: the client
/// sees one tree, but the server answers EXDEV (§2.6.3).
#[test]
fn rename_across_volumes_is_exdev() {
    let mut rng = DetRng::new(4);
    let rename = MetaOp::Rename {
        from: "/vol0/a".into(),
        to: "/vol1/a".into(),
    };
    let mut gx = OntapGxFs::with_defaults();
    gx.register_clients(1);
    gx.plan(ctx(0), &create("/vol0/a"), SimTime::ZERO, &mut rng)
        .expect("fresh path");
    assert_eq!(
        gx.plan(ctx(0), &rename, SimTime::ZERO, &mut rng)
            .unwrap_err(),
        FsError::CrossDevice
    );
    let mut afs = AfsFs::with_defaults();
    afs.register_clients(1);
    afs.plan(ctx(0), &create("/vol0/a"), SimTime::ZERO, &mut rng)
        .expect("fresh path");
    assert_eq!(
        afs.plan(ctx(0), &rename, SimTime::ZERO, &mut rng)
            .unwrap_err(),
        FsError::CrossDevice
    );
    // within one volume the rename is fine
    let ok = MetaOp::Rename {
        from: "/vol0/a".into(),
        to: "/vol0/b".into(),
    };
    gx.plan(ctx(0), &ok, SimTime::ZERO, &mut rng)
        .expect("same volume");
}

/// Uniqueness of file names (§2.6.3): every model rejects a duplicate
/// create with EEXIST, because the authoritative namespace is shared.
#[test]
fn name_uniqueness_across_nodes() {
    let mut rng = DetRng::new(5);
    let models: Vec<(Box<dyn DistFs>, &str)> = vec![
        (Box::new(NfsFs::with_defaults()), "/bench/dup"),
        (Box::new(LustreFs::with_defaults()), "/bench/dup"),
        (Box::new(OntapGxFs::with_defaults()), "/vol2/dup"),
        (Box::new(AfsFs::with_defaults()), "/vol2/dup"),
    ];
    for (mut m, path) in models {
        m.register_clients(2);
        m.plan(ctx(0), &create(path), SimTime::ZERO, &mut rng)
            .expect("first create");
        assert_eq!(
            m.plan(ctx(1), &create(path), SimTime::ZERO, &mut rng)
                .unwrap_err(),
            FsError::Exists,
            "{}: duplicate create from another node must fail",
            m.name()
        );
    }
}

/// The drop-caches control (§3.4.3) forces the next read back to the
/// server on every caching model.
#[test]
fn drop_caches_forces_revalidation_everywhere() {
    let mut rng = DetRng::new(6);
    let models: Vec<(Box<dyn DistFs>, &str)> = vec![
        (Box::new(NfsFs::with_defaults()), "/bench/c"),
        (Box::new(LustreFs::with_defaults()), "/bench/c"),
        (Box::new(CxfsFs::with_defaults()), "/bench/c"),
        (Box::new(OntapGxFs::with_defaults()), "/vol0/c"),
        (Box::new(AfsFs::with_defaults()), "/vol0/c"),
    ];
    for (mut m, path) in models {
        m.register_clients(1);
        m.plan(ctx(0), &create(path), SimTime::ZERO, &mut rng)
            .expect("fresh path");
        let cached = m
            .plan(ctx(0), &stat(path), SimTime::ZERO, &mut rng)
            .expect("stat");
        assert!(cached.is_client_only(), "{}: warm cache hit", m.name());
        m.drop_caches(0);
        let cold = m
            .plan(ctx(0), &stat(path), SimTime::ZERO, &mut rng)
            .expect("stat");
        assert!(!cold.is_client_only(), "{}: dropped cache misses", m.name());
    }
}

/// Metadata mutations are never client-only in any model: NFSv3 specifies
/// synchronous metadata persistence, and even write-back Lustre must reach
/// the MDS (§2.6.4).
#[test]
fn mutations_always_reach_a_server() {
    let mut rng = DetRng::new(7);
    let models: Vec<(Box<dyn DistFs>, &str)> = vec![
        (Box::new(NfsFs::with_defaults()), "/bench/m"),
        (Box::new(LustreFs::with_defaults()), "/bench/m"),
        (Box::new(CxfsFs::with_defaults()), "/bench/m"),
        (Box::new(OntapGxFs::with_defaults()), "/vol3/m"),
        (Box::new(AfsFs::with_defaults()), "/vol3/m"),
    ];
    for (mut m, base) in models {
        m.register_clients(1);
        for (k, op) in [
            create(&format!("{base}/f")),
            MetaOp::Mkdir {
                path: format!("{base}/d"),
            },
            MetaOp::Unlink {
                path: format!("{base}/f"),
            },
            MetaOp::Chmod {
                path: format!("{base}/d"),
                mode: 0o700,
            },
        ]
        .into_iter()
        .enumerate()
        {
            let plan = m
                .plan(ctx(0), &op, SimTime::ZERO, &mut rng)
                .unwrap_or_else(|e| panic!("{} op {k}: {e}", m.name()));
            assert!(
                !plan.is_client_only(),
                "{}: mutation {k} must reach the server",
                m.name()
            );
        }
    }
}

/// PVFS2's nonconflicting-write semantics (§2.6.1): no client state at all —
/// even a same-node repeat stat goes back to the server, and there is
/// nothing for `drop_caches` to drop.
#[test]
fn pvfs_has_no_client_state() {
    let mut rng = DetRng::new(8);
    let mut m = PvfsFs::with_defaults();
    m.register_clients(1);
    m.plan(ctx(0), &create("/bench/p"), SimTime::ZERO, &mut rng)
        .expect("fresh path");
    for _ in 0..2 {
        let plan = m
            .plan(ctx(0), &stat("/bench/p"), SimTime::ZERO, &mut rng)
            .expect("stat");
        assert!(!plan.is_client_only(), "every PVFS stat is a round trip");
        m.drop_caches(0); // must be a harmless no-op
    }
}

/// The pooled planning path is stateless with respect to its buffer: a
/// model planning into one reused buffer that starts dirty (junk stages, a
/// pause, a background job, fault accounting, a cache tag) produces exactly
/// the plans a twin instance returns from `plan`, for every model — with
/// and without fault plans, so the retry stages go through the appender.
#[test]
fn reused_dirty_plan_buffer_matches_fresh_plans() {
    type Factory = Box<dyn Fn() -> Box<dyn DistFs>>;
    fn plain<M: DistFs + 'static>(make: fn() -> M) -> Factory {
        Box::new(move || Box::new(make()))
    }
    fn faulted<M: DistFs + 'static>(
        make: fn() -> M,
        attach: fn(&mut M, FaultPlan),
        spec: &'static str,
    ) -> Factory {
        Box::new(move || {
            let mut m = make();
            attach(&mut m, FaultSpec::parse(spec).expect("valid spec").build());
            Box::new(m)
        })
    }
    let nfs_faults = "down@0s..1s,loss@0s..4s:0.5,seed=3";
    let afs_faults = "crash:1@0s+1s,loss@0s..4s:0.5,seed=5";
    // (model, directory, whether its fault plan must shape some plan)
    let models: Vec<(Factory, &str, bool)> = vec![
        (plain(LocalFs::with_defaults), "/bench", false),
        (plain(NfsFs::with_defaults), "/bench", false),
        (
            faulted(NfsFs::with_defaults, NfsFs::set_faults, nfs_faults),
            "/bench",
            true,
        ),
        (plain(LustreFs::with_defaults), "/bench", false),
        (
            faulted(
                LustreFs::with_defaults,
                LustreFs::set_faults,
                "crash:0@0s+1s",
            ),
            "/bench",
            true,
        ),
        (plain(CxfsFs::with_defaults), "/bench", false),
        (plain(PvfsFs::with_defaults), "/bench", false),
        (plain(OntapGxFs::with_defaults), "/vol1/bench", false),
        (plain(AfsFs::with_defaults), "/vol0/bench", false),
        (
            faulted(AfsFs::with_defaults, AfsFs::set_faults, afs_faults),
            "/vol0/bench",
            true,
        ),
        (plain(ShardMds::with_defaults), "/bench", false),
        (
            faulted(
                ShardMds::with_defaults,
                ShardMds::set_faults,
                "crash:1@0s+2s",
            ),
            "/bench",
            true,
        ),
    ];
    let mut buf = OpPlan {
        stages: vec![
            Stage::ClientCpu {
                demand: SimDuration::from_micros(7),
            },
            Stage::AcquireSem { sem: SemId(3) },
            Stage::NetDelay {
                delay: SimDuration::from_millis(9),
            },
        ],
        background: vec![BackgroundJob {
            server: ServerId(5),
            demand: SimDuration::from_micros(11),
            release_sem: Some(SemId(1)),
            label: Some("junk"),
        }],
        pauses: vec![(ServerId(2), SimDuration::from_millis(13))],
        faults: FaultStats {
            injected: 4,
            retries: 3,
            failovers: 2,
            stall: SimDuration::from_secs(1),
        },
        cache: CacheTag::Miss,
    };
    let dirty = buf.clone();
    for (factory, dir, faulted) in models {
        let (mut fresh, mut pooled) = (factory(), factory());
        fresh.register_clients(2);
        pooled.register_clients(2);
        let (mut rng_fresh, mut rng_pooled) = (DetRng::new(17), DetRng::new(17));
        buf.clone_from(&dirty);
        let f = format!("{dir}/f");
        let g = format!("{dir}/g");
        let ops = [
            create(&f),
            stat(&f),
            stat(&f),
            MetaOp::Mkdir {
                path: format!("{dir}/sub"),
            },
            MetaOp::Readdir { path: dir.into() },
            MetaOp::Rename {
                from: f.clone(),
                to: g.clone(),
            },
            MetaOp::Unlink { path: g },
        ];
        let name = fresh.name().to_owned();
        let mut fault_shaped = false;
        for (i, op) in ops.iter().enumerate() {
            let now = SimTime::from_millis(250 * i as u64);
            let client = ctx(i % 2);
            let want = fresh
                .plan(client, op, now, &mut rng_fresh)
                .unwrap_or_else(|e| panic!("{name}: op {i} ({op:?}) failed: {e}"));
            pooled
                .plan_into(client, op, now, &mut rng_pooled, &mut buf)
                .unwrap_or_else(|e| panic!("{name}: pooled op {i} ({op:?}) failed: {e}"));
            assert_eq!(buf, want, "{name}: op {i} ({op:?}) planned differently");
            fault_shaped |= want.faults != FaultStats::default();
        }
        assert_eq!(
            rng_fresh.uniform_u64(0, u64::MAX),
            rng_pooled.uniform_u64(0, u64::MAX),
            "{name}: RNG streams diverged"
        );
        assert_eq!(
            fault_shaped, faulted,
            "{name}: fault plan fired as intended"
        );
    }
}
