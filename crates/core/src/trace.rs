//! Trace-based benchmarking (paper §3.1.2).
//!
//! The thesis surveys trace tools (LADDIS/SPEC SFS, TBBT) and their scaling
//! techniques: a **spatial scale-up** replays a recorded operation sequence
//! in disjoint directories to multiply the load, a temporal scale-up replays
//! it faster. This module provides an operation-level trace format, a
//! writer/parser, and the [`TraceReplay`] plugin:
//!
//! * one operation per line (`create /dir/f 64`, `rename /a /b`, …),
//! * `$W` at the start of a path substitutes the worker's private working
//!   directory — replaying the same trace with N workers is exactly TBBT's
//!   spatial scale-up on disjoint directories,
//! * replay is closed-loop at maximum speed (each worker issues the next
//!   operation as soon as the previous completes), which corresponds to
//!   TBBT's maximal temporal scale-up.
//!
//! # Example
//!
//! ```
//! use dmetabench::trace::{parse_trace, write_trace};
//! use dfs::MetaOp;
//!
//! let ops = vec![
//!     MetaOp::Mkdir { path: "$W/dir".into() },
//!     MetaOp::Create { path: "$W/dir/f".into(), data_bytes: 64 },
//!     MetaOp::Rename { from: "$W/dir/f".into(), to: "$W/dir/g".into() },
//! ];
//! let text = write_trace(&ops);
//! assert_eq!(parse_trace(&text).unwrap(), ops);
//! ```

use dfs::MetaOp;

use crate::params::WorkerCtx;
use crate::plugin::{BenchmarkPlugin, ProblemMode};

/// Serialize operations into the one-line-per-op trace format.
pub fn write_trace(ops: &[MetaOp]) -> String {
    let mut out = String::from("# dmetabench operation trace v1\n");
    for op in ops {
        let line = match op {
            MetaOp::Create { path, data_bytes } => format!("create {path} {data_bytes}"),
            MetaOp::Mkdir { path } => format!("mkdir {path}"),
            MetaOp::Unlink { path } => format!("unlink {path}"),
            MetaOp::Rmdir { path } => format!("rmdir {path}"),
            MetaOp::Stat { path } => format!("stat {path}"),
            MetaOp::OpenClose { path } => format!("openclose {path}"),
            MetaOp::Readdir { path } => format!("readdir {path}"),
            MetaOp::Rename { from, to } => format!("rename {from} {to}"),
            MetaOp::Link { existing, new } => format!("link {existing} {new}"),
            MetaOp::Symlink { target, linkpath } => format!("symlink {target} {linkpath}"),
            MetaOp::Chmod { path, mode } => format!("chmod {path} {mode:o}"),
            MetaOp::Utimes {
                path,
                atime_ns,
                mtime_ns,
            } => format!("utimes {path} {atime_ns} {mtime_ns}"),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Parse a trace produced by [`write_trace`] (or written by hand).
///
/// Empty lines and `#` comments are ignored.
///
/// # Errors
///
/// Returns `"line N: <problem>"` for the first malformed line.
pub fn parse_trace(text: &str) -> Result<Vec<MetaOp>, String> {
    let mut ops = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let verb = parts.next().expect("non-empty line has a first token");
        let mut arg = |name: &str| -> Result<String, String> {
            parts
                .next()
                .map(str::to_owned)
                .ok_or_else(|| format!("line {}: {verb} needs {name}", no + 1))
        };
        let op = match verb {
            "create" => {
                let path = arg("a path")?;
                let bytes: u64 = arg("a byte count")?
                    .parse()
                    .map_err(|e| format!("line {}: bad byte count: {e}", no + 1))?;
                MetaOp::Create {
                    path,
                    data_bytes: bytes,
                }
            }
            "mkdir" => MetaOp::Mkdir {
                path: arg("a path")?,
            },
            "unlink" => MetaOp::Unlink {
                path: arg("a path")?,
            },
            "rmdir" => MetaOp::Rmdir {
                path: arg("a path")?,
            },
            "stat" => MetaOp::Stat {
                path: arg("a path")?,
            },
            "openclose" => MetaOp::OpenClose {
                path: arg("a path")?,
            },
            "readdir" => MetaOp::Readdir {
                path: arg("a path")?,
            },
            "rename" => MetaOp::Rename {
                from: arg("a source")?,
                to: arg("a destination")?,
            },
            "link" => MetaOp::Link {
                existing: arg("an existing path")?,
                new: arg("a new path")?,
            },
            "symlink" => MetaOp::Symlink {
                target: arg("a target")?,
                linkpath: arg("a link path")?,
            },
            "chmod" => {
                let path = arg("a path")?;
                let mode = u32::from_str_radix(&arg("an octal mode")?, 8)
                    .map_err(|e| format!("line {}: bad mode: {e}", no + 1))?;
                MetaOp::Chmod { path, mode }
            }
            "utimes" => {
                let path = arg("a path")?;
                let atime_ns: u64 = arg("an atime")?
                    .parse()
                    .map_err(|e| format!("line {}: bad atime: {e}", no + 1))?;
                let mtime_ns: u64 = arg("an mtime")?
                    .parse()
                    .map_err(|e| format!("line {}: bad mtime: {e}", no + 1))?;
                MetaOp::Utimes {
                    path,
                    atime_ns,
                    mtime_ns,
                }
            }
            other => return Err(format!("line {}: unknown operation '{other}'", no + 1)),
        };
        if parts.next().is_some() {
            return Err(format!("line {}: trailing tokens", no + 1));
        }
        ops.push(op);
    }
    Ok(ops)
}

fn substitute(path: &str, workdir: &str) -> String {
    match path.strip_prefix("$W") {
        Some(rest) => format!("{workdir}{rest}"),
        None => path.to_owned(),
    }
}

fn substitute_op(op: &MetaOp, workdir: &str) -> MetaOp {
    let mut op = op.clone();
    match &mut op {
        MetaOp::Create { path, .. }
        | MetaOp::Mkdir { path }
        | MetaOp::Unlink { path }
        | MetaOp::Rmdir { path }
        | MetaOp::Stat { path }
        | MetaOp::OpenClose { path }
        | MetaOp::Readdir { path }
        | MetaOp::Chmod { path, .. }
        | MetaOp::Utimes { path, .. } => *path = substitute(path, workdir),
        MetaOp::Rename { from, to } => {
            *from = substitute(from, workdir);
            *to = substitute(to, workdir);
        }
        MetaOp::Link { existing, new } => {
            *existing = substitute(existing, workdir);
            *new = substitute(new, workdir);
        }
        MetaOp::Symlink { target, linkpath } => {
            *target = substitute(target, workdir);
            *linkpath = substitute(linkpath, workdir);
        }
    }
    op
}

/// A plugin that replays a recorded trace — with TBBT-style spatial scale-up
/// when the trace uses `$W` paths.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    ops: std::sync::Arc<Vec<MetaOp>>,
}

impl TraceReplay {
    /// Replay `ops` once per worker.
    pub fn new(ops: Vec<MetaOp>) -> Self {
        TraceReplay {
            ops: std::sync::Arc::new(ops),
        }
    }

    /// Operations in the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl BenchmarkPlugin for TraceReplay {
    fn name(&self) -> &'static str {
        "TraceReplay"
    }

    fn mode(&self) -> ProblemMode {
        ProblemMode::Fixed
    }

    fn stream(&self, ctx: &WorkerCtx) -> Box<dyn FnMut(u64) -> Option<MetaOp> + Send> {
        let ops = std::sync::Arc::clone(&self.ops);
        let workdir = ctx.workdir.clone();
        Box::new(move |i| {
            let op = ops.get(usize::try_from(i).ok()?)?;
            Some(substitute_op(op, &workdir))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BenchParams;

    fn all_op_kinds() -> Vec<MetaOp> {
        vec![
            MetaOp::Mkdir {
                path: "$W/d".into(),
            },
            MetaOp::Create {
                path: "$W/d/f".into(),
                data_bytes: 64,
            },
            MetaOp::Stat {
                path: "$W/d/f".into(),
            },
            MetaOp::OpenClose {
                path: "$W/d/f".into(),
            },
            MetaOp::Readdir {
                path: "$W/d".into(),
            },
            MetaOp::Chmod {
                path: "$W/d/f".into(),
                mode: 0o640,
            },
            MetaOp::Utimes {
                path: "$W/d/f".into(),
                atime_ns: 7,
                mtime_ns: 8,
            },
            MetaOp::Link {
                existing: "$W/d/f".into(),
                new: "$W/d/h".into(),
            },
            MetaOp::Symlink {
                target: "$W/d/f".into(),
                linkpath: "$W/d/s".into(),
            },
            MetaOp::Rename {
                from: "$W/d/h".into(),
                to: "$W/d/r".into(),
            },
            MetaOp::Unlink {
                path: "$W/d/r".into(),
            },
            MetaOp::Rmdir {
                path: "$W/e".into(),
            },
        ]
    }

    #[test]
    fn roundtrip_every_op_kind() {
        let ops = all_op_kinds();
        let text = write_trace(&ops);
        assert_eq!(parse_trace(&text).unwrap(), ops);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let ops = parse_trace("# header\n\nstat /a\n  \n# tail\n").unwrap();
        assert_eq!(ops, vec![MetaOp::Stat { path: "/a".into() }]);
    }

    #[test]
    fn malformed_lines_report_position() {
        assert!(parse_trace("create /a\n").unwrap_err().contains("line 1"));
        assert!(parse_trace("stat /a\nfrobnicate /b\n")
            .unwrap_err()
            .contains("line 2"));
        assert!(parse_trace("stat /a extra\n")
            .unwrap_err()
            .contains("trailing"));
        assert!(parse_trace("chmod /a 9z9\n")
            .unwrap_err()
            .contains("bad mode"));
    }

    #[test]
    fn spatial_scale_up_substitutes_workdir() {
        let trace = TraceReplay::new(parse_trace("create $W/f 0\nstat /shared/global\n").unwrap());
        let params = BenchParams::default();
        let ctxs = crate::params::WorkerCtx::build(&[(0, 0), (1, 0)], &params, 2);
        let mut s0 = trace.stream(&ctxs[0]);
        let mut s1 = trace.stream(&ctxs[1]);
        assert_eq!(
            s0(0).unwrap().primary_path(),
            format!("{}/f", ctxs[0].workdir),
            "worker 0 replays in its own directory"
        );
        assert_eq!(
            s1(0).unwrap().primary_path(),
            format!("{}/f", ctxs[1].workdir),
            "worker 1 in a disjoint one (TBBT spatial scale-up)"
        );
        // absolute paths without $W stay shared
        assert_eq!(s0(1).unwrap().primary_path(), "/shared/global");
        assert!(s0(2).is_none(), "trace exhausted");
    }

    #[test]
    fn replay_runs_on_a_real_memfs() {
        let ops = all_op_kinds();
        let trace = TraceReplay::new(ops);
        let params = BenchParams::default();
        let ctx = crate::params::WorkerCtx::build(&[(0, 0)], &params, 1).remove(0);
        let mut fs = memfs::MemFs::new();
        // make $W and the unrelated /e directory exist
        dfs::ensure_parents(&mut fs, &format!("{}/x", ctx.workdir)).unwrap();
        use memfs::Vfs;
        fs.mkdir(&format!("{}/e", ctx.workdir)).unwrap();
        let mut s = trace.stream(&ctx);
        let mut i = 0;
        while let Some(op) = s(i) {
            dfs::exec_op(&mut fs, &op).unwrap_or_else(|e| panic!("{op:?}: {e}"));
            i += 1;
        }
        assert!(fs.check().is_empty(), "{:?}", fs.check());
    }
}
