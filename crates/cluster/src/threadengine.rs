//! The real-time execution engine: worker threads against a real [`Vfs`].
//!
//! This is DMetabench's wall-clock mode. Every worker runs in its own OS
//! thread (Rust threads have no GIL — for file-system syscalls a thread is
//! behaviourally equivalent to the paper's per-process Python workers), all
//! workers start together on a barrier (§3.3.3), and a supervisor samples
//! each worker's progress counter every 100 ms (§3.2.5) — the same
//! time-interval log the simulation engine produces in virtual time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dfs::MetaOp;
use memfs::{FsResult, OpenFlags, Vfs};
use simcore::{telemetry, SimDuration, SimTime};

use crate::simengine::{SimRunResult, WorkerTrace};

/// Execute one [`MetaOp`] through a [`Vfs`].
///
/// # Errors
///
/// Propagates the underlying file-system error.
pub fn exec_op(vfs: &mut dyn Vfs, op: &MetaOp) -> FsResult<()> {
    match op {
        MetaOp::Create { path, data_bytes } => {
            let fd = vfs.create(path)?;
            if *data_bytes > 0 {
                vfs.write(fd, &vec![0u8; *data_bytes as usize])?;
            }
            vfs.close(fd)
        }
        MetaOp::Mkdir { path } => vfs.mkdir(path),
        MetaOp::Unlink { path } => vfs.unlink(path),
        MetaOp::Rmdir { path } => vfs.rmdir(path),
        MetaOp::Stat { path } => vfs.stat(path).map(|_| ()),
        MetaOp::OpenClose { path } => {
            let fd = vfs.open(path, OpenFlags::read_only())?;
            vfs.close(fd)
        }
        MetaOp::Readdir { path } => vfs.readdir(path).map(|_| ()),
        MetaOp::Rename { from, to } => vfs.rename(from, to),
        MetaOp::Link { existing, new } => vfs.link(existing, new),
        MetaOp::Symlink { target, linkpath } => vfs.symlink(target, linkpath),
        MetaOp::Chmod { path, mode } => vfs.chmod(path, *mode),
        MetaOp::Utimes {
            path,
            atime_ns,
            mtime_ns,
        } => vfs.utimes(path, *atime_ns, *mtime_ns),
    }
}

/// Create every missing ancestor directory of `path`.
///
/// # Errors
///
/// Propagates errors other than [`memfs::FsError::Exists`].
pub fn ensure_parents(vfs: &mut dyn Vfs, path: &str) -> FsResult<()> {
    let p = memfs::FsPath::parse(path)?;
    let comps = p.components();
    let mut cur = String::new();
    for c in comps.iter().take(comps.len().saturating_sub(1)) {
        cur.push('/');
        cur.push_str(c);
        match vfs.mkdir(&cur) {
            Ok(()) | Err(memfs::FsError::Exists) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Configuration of a real-time run.
#[derive(Debug, Clone)]
pub struct ThreadRunConfig {
    /// Progress-sampling interval (default 100 ms, §3.2.5).
    pub sample_interval: Duration,
    /// Wall-clock bound; `None` = run until all streams end.
    pub duration: Option<Duration>,
}

impl Default for ThreadRunConfig {
    fn default() -> Self {
        ThreadRunConfig {
            sample_interval: Duration::from_millis(100),
            duration: None,
        }
    }
}

/// An operation stream for the real engine (same contract as
/// [`OpStream`](crate::OpStream) but the closure also gets a `&mut dyn Vfs`
/// factory-created backend per worker, so streams stay pure).
pub type RealOpStream = Box<dyn FnMut(u64) -> Option<MetaOp> + Send>;

/// Run worker threads against per-worker [`Vfs`] backends.
///
/// `make_vfs(worker)` constructs the backend each worker uses (e.g. a
/// [`memfs::StdFs`] rooted at a shared directory — separate instances avoid
/// a global lock, matching the paper's independent worker processes).
///
/// Returns the same [`SimRunResult`] shape as the simulation engine; the
/// whole preprocessing/chart pipeline is shared.
///
/// # Panics
///
/// Panics if `streams` is empty or a worker thread panics.
pub fn run_threads(
    make_vfs: impl Fn(usize) -> Box<dyn Vfs> + Sync,
    streams: Vec<RealOpStream>,
    config: &ThreadRunConfig,
) -> SimRunResult {
    assert!(!streams.is_empty(), "at least one worker required");
    let n = streams.len();
    let counters: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let errors: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let finished: Vec<Arc<AtomicU64>> =
        (0..n).map(|_| Arc::new(AtomicU64::new(u64::MAX))).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(n + 1));
    let mut fs_name = String::new();

    let mut samples: Vec<Vec<(SimTime, u64)>> = vec![Vec::new(); n];
    std::thread::scope(|scope| {
        for (w, mut stream) in streams.into_iter().enumerate() {
            let counter = Arc::clone(&counters[w]);
            let errs = Arc::clone(&errors[w]);
            let fin = Arc::clone(&finished[w]);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let mut vfs = make_vfs(w);
            if w == 0 {
                fs_name = vfs.name().to_owned();
            }
            scope.spawn(move || {
                barrier.wait();
                let t0 = Instant::now();
                let mut done: u64 = 0;
                while !stop.load(Ordering::Relaxed) {
                    let Some(op) = stream(done) else { break };
                    let mut outcome = exec_op(vfs.as_mut(), &op);
                    if matches!(outcome, Err(memfs::FsError::NotFound)) && op.is_mutation() {
                        // Benchmarks rotate into fresh subdirectories
                        // (§3.3.7); create missing ancestors and retry once,
                        // like the paper's plugins create them inline.
                        if ensure_parents(vfs.as_mut(), op.primary_path()).is_ok() {
                            outcome = exec_op(vfs.as_mut(), &op);
                        }
                    }
                    match outcome {
                        Ok(()) => {
                            done += 1;
                            counter.store(done, Ordering::Relaxed);
                        }
                        Err(_) => {
                            // the stream would re-issue the same op; like
                            // the simulated engine, a failure ends the worker
                            errs.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                fin.store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            });
        }

        // supervisor (this thread): sample on the common grid
        barrier.wait();
        let t0 = Instant::now();
        let deadline = config.duration.map(|d| t0 + d);
        let mut tick: u32 = 1;
        loop {
            let next = t0 + config.sample_interval * tick;
            let now = Instant::now();
            if next > now {
                std::thread::sleep(next - now);
            }
            let ts = SimTime::from_nanos(t0.elapsed().as_nanos() as u64);
            let mut all_done = true;
            for w in 0..n {
                if finished[w].load(Ordering::Relaxed) == u64::MAX {
                    all_done = false;
                    samples[w].push((ts, counters[w].load(Ordering::Relaxed)));
                }
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    stop.store(true, Ordering::Relaxed);
                }
            }
            if all_done {
                break;
            }
            tick += 1;
        }
    });

    let workers: Vec<WorkerTrace> = (0..n)
        .map(|w| {
            let fin_ns = finished[w].load(Ordering::Relaxed);
            let ops = counters[w].load(Ordering::Relaxed);
            let mut s = std::mem::take(&mut samples[w]);
            let finished_at = if fin_ns == u64::MAX {
                None
            } else {
                Some(SimTime::from_nanos(fin_ns))
            };
            if let Some(f) = finished_at {
                s.push((f, ops));
            }
            WorkerTrace {
                node: 0,
                node_name: hostname(),
                proc: w,
                samples: s,
                ops_done: ops,
                errors: errors[w].load(Ordering::Relaxed),
                finished_at,
                // real mode does not time individual ops (the syscall is
                // the measurement); the histogram stays empty
                latency: simcore::LatencyHistogram::new(),
                // fault injection is simulation-only
                retries: 0,
                failovers: 0,
            }
        })
        .collect();
    // Worker threads cannot see the capturing thread's telemetry sink, so
    // the per-worker summary is recorded here, after the join. Timestamps
    // are the workers' wall-clock run times mapped onto the trace timeline.
    if telemetry::enabled() {
        let pid = telemetry::begin_run(&fs_name);
        for (w, tr) in workers.iter().enumerate() {
            telemetry::name_track(
                pid,
                telemetry::worker_tid(w),
                &format!("{}/p{}", tr.node_name, tr.proc),
            );
            if let Some(f) = tr.finished_at {
                telemetry::span(
                    pid,
                    telemetry::worker_tid(w),
                    "worker",
                    "real",
                    SimTime::ZERO,
                    f,
                );
            }
            telemetry::count("real.ops", tr.ops_done);
            telemetry::count("real.errors", tr.errors);
        }
    }
    let wall_time = workers
        .iter()
        .filter_map(|w| w.finished_at)
        .max()
        .unwrap_or(SimTime::ZERO);
    SimRunResult {
        fs_name,
        interval: SimDuration::from_nanos(config.sample_interval.as_nanos() as u64),
        workers,
        wall_time,
    }
}

/// Best-effort hostname of this machine.
pub fn hostname() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.is_empty())
        .or_else(|| {
            std::fs::read_to_string("/proc/sys/kernel/hostname")
                .ok()
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "localhost".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use memfs::MemFs;
    use parking_lot::Mutex;

    #[test]
    fn exec_op_covers_all_variants() {
        let mut fs = MemFs::new();
        let ops = [
            MetaOp::Mkdir { path: "/d".into() },
            MetaOp::Create {
                path: "/d/f".into(),
                data_bytes: 10,
            },
            MetaOp::Stat {
                path: "/d/f".into(),
            },
            MetaOp::OpenClose {
                path: "/d/f".into(),
            },
            MetaOp::Readdir { path: "/d".into() },
            MetaOp::Chmod {
                path: "/d/f".into(),
                mode: 0o600,
            },
            MetaOp::Utimes {
                path: "/d/f".into(),
                atime_ns: 1,
                mtime_ns: 2,
            },
            MetaOp::Link {
                existing: "/d/f".into(),
                new: "/d/hard".into(),
            },
            MetaOp::Symlink {
                target: "/d/f".into(),
                linkpath: "/d/sym".into(),
            },
            MetaOp::Rename {
                from: "/d/hard".into(),
                to: "/d/renamed".into(),
            },
            MetaOp::Unlink {
                path: "/d/renamed".into(),
            },
            MetaOp::Rmdir { path: "/d2".into() },
        ];
        // need /d2 for the rmdir
        fs.mkdir("/d2").unwrap();
        for op in &ops {
            exec_op(&mut fs, op).unwrap_or_else(|e| panic!("{op:?}: {e}"));
        }
        assert_eq!(fs.stat("/d/f").unwrap().size, 10);
    }

    #[test]
    fn ensure_parents_builds_chain() {
        let mut fs = MemFs::new();
        ensure_parents(&mut fs, "/a/b/c/file").unwrap();
        assert!(fs.stat("/a/b/c").unwrap().is_dir());
        // idempotent
        ensure_parents(&mut fs, "/a/b/c/file").unwrap();
    }

    #[test]
    fn threaded_run_on_shared_memfs() {
        // Workers share one MemFs behind a mutex adapter.
        #[derive(Debug)]
        struct Shared(Arc<Mutex<MemFs>>, String);
        impl Vfs for Shared {
            fn create(&mut self, p: &str) -> memfs::FsResult<memfs::Fd> {
                self.0.lock().create(p)
            }
            fn open(&mut self, p: &str, f: OpenFlags) -> memfs::FsResult<memfs::Fd> {
                self.0.lock().open(p, f)
            }
            fn close(&mut self, fd: memfs::Fd) -> memfs::FsResult<()> {
                self.0.lock().close(fd)
            }
            fn write(&mut self, fd: memfs::Fd, b: &[u8]) -> memfs::FsResult<usize> {
                self.0.lock().write(fd, b)
            }
            fn read(&mut self, fd: memfs::Fd, l: usize) -> memfs::FsResult<Vec<u8>> {
                self.0.lock().read(fd, l)
            }
            fn seek(&mut self, fd: memfs::Fd, p: u64) -> memfs::FsResult<u64> {
                self.0.lock().seek(fd, p)
            }
            fn mkdir(&mut self, p: &str) -> memfs::FsResult<()> {
                self.0.lock().mkdir(p)
            }
            fn rmdir(&mut self, p: &str) -> memfs::FsResult<()> {
                self.0.lock().rmdir(p)
            }
            fn unlink(&mut self, p: &str) -> memfs::FsResult<()> {
                self.0.lock().unlink(p)
            }
            fn rename(&mut self, f: &str, t: &str) -> memfs::FsResult<()> {
                self.0.lock().rename(f, t)
            }
            fn link(&mut self, e: &str, n: &str) -> memfs::FsResult<()> {
                self.0.lock().link(e, n)
            }
            fn symlink(&mut self, t: &str, l: &str) -> memfs::FsResult<()> {
                self.0.lock().symlink(t, l)
            }
            fn readlink(&mut self, p: &str) -> memfs::FsResult<String> {
                self.0.lock().readlink(p)
            }
            fn stat(&mut self, p: &str) -> memfs::FsResult<memfs::FileAttr> {
                self.0.lock().stat(p)
            }
            fn lstat(&mut self, p: &str) -> memfs::FsResult<memfs::FileAttr> {
                self.0.lock().lstat(p)
            }
            fn fstat(&mut self, fd: memfs::Fd) -> memfs::FsResult<memfs::FileAttr> {
                self.0.lock().fstat(fd)
            }
            fn readdir(&mut self, p: &str) -> memfs::FsResult<Vec<memfs::DirEntry>> {
                self.0.lock().readdir(p)
            }
            fn chmod(&mut self, p: &str, m: u32) -> memfs::FsResult<()> {
                self.0.lock().chmod(p, m)
            }
            fn chown(&mut self, p: &str, u: u32, g: u32) -> memfs::FsResult<()> {
                self.0.lock().chown(p, u, g)
            }
            fn utimes(&mut self, p: &str, a: u64, m: u64) -> memfs::FsResult<()> {
                self.0.lock().utimes(p, a, m)
            }
            fn truncate(&mut self, p: &str, s: u64) -> memfs::FsResult<()> {
                self.0.lock().truncate(p, s)
            }
            fn fsync(&mut self, fd: memfs::Fd) -> memfs::FsResult<()> {
                self.0.lock().fsync(fd)
            }
            fn drop_caches(&mut self) -> memfs::FsResult<()> {
                Ok(())
            }
            fn fs_stats(&mut self) -> memfs::FsResult<memfs::FsStats> {
                Ok(self.0.lock().stats())
            }
            fn name(&self) -> &str {
                &self.1
            }
        }

        let fs = Arc::new(Mutex::new(MemFs::new()));
        {
            let mut g = fs.lock();
            for w in 0..4 {
                g.mkdir(&format!("/w{w}")).unwrap();
            }
        }
        let streams: Vec<RealOpStream> = (0..4)
            .map(|w| {
                let b: RealOpStream = Box::new(move |i: u64| {
                    if i < 200 {
                        Some(MetaOp::Create {
                            path: format!("/w{w}/f{i}"),
                            data_bytes: 0,
                        })
                    } else {
                        None
                    }
                });
                b
            })
            .collect();
        let fs2 = Arc::clone(&fs);
        let res = run_threads(
            move |_| Box::new(Shared(Arc::clone(&fs2), "shared-memfs".into())),
            streams,
            &ThreadRunConfig::default(),
        );
        assert_eq!(res.total_ops(), 800);
        assert_eq!(res.workers.len(), 4);
        for w in &res.workers {
            assert_eq!(w.ops_done, 200);
            assert_eq!(w.errors, 0);
            assert!(w.finished_at.is_some());
        }
        assert!(fs.lock().check().is_empty());
    }

    #[test]
    fn duration_bound_stops_unbounded_streams() {
        let streams: Vec<RealOpStream> = vec![Box::new(move |i: u64| {
            Some(MetaOp::Create {
                path: format!("/f{i}"),
                data_bytes: 0,
            })
        })];
        let mut cfg = ThreadRunConfig::default();
        cfg.duration = Some(Duration::from_millis(300));
        let res = run_threads(|_| Box::new(MemFs::new()), streams, &cfg);
        assert!(res.workers[0].finished_at.is_some());
        assert!(res.total_ops() > 0);
        let wall = res.wall_time.as_secs_f64();
        assert!(
            (0.25..5.0).contains(&wall),
            "stopped near the bound: {wall}"
        );
    }
}
