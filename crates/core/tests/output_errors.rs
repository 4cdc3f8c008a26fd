//! Output errors are not panics. When the reader of its stdout pipe goes
//! away (`dmetabench suite --list | true`), the CLI exits with status 0 and
//! prints nothing on stderr; any other stdout write error (a full device)
//! is one `error:` line and status 1. A closed stderr loses the messages
//! but keeps the command's own exit status.

use std::fs::File;
use std::process::{Child, Command, Output, Stdio};

fn dmetabench(args: &str, stdout: Stdio, stderr: Stdio) -> Child {
    Command::new(env!("CARGO_BIN_EXE_dmetabench"))
        .args(args.split_whitespace())
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .expect("spawn dmetabench")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn closed_stdout_exits_quietly() {
    let mut child = dmetabench("suite --list", Stdio::piped(), Stdio::piped());
    // close the read end before the child writes its first line
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for dmetabench");
    assert!(
        out.status.success() && out.stderr.is_empty(),
        "closed stdout: {} (stderr: {})",
        out.status,
        stderr_of(&out)
    );
}

#[test]
fn full_stdout_is_an_error() {
    let Ok(full) = File::options().write(true).open("/dev/full") else {
        return; // no /dev/full on this platform
    };
    let child = dmetabench("suite --list", Stdio::from(full), Stdio::piped());
    let out = child.wait_with_output().expect("wait for dmetabench");
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: cannot write to stdout:") && !stderr.contains("panicked"),
        "stderr: {stderr}"
    );
}

#[test]
fn closed_stderr_keeps_the_exit_status() {
    let mut child = dmetabench("--nodes 0", Stdio::null(), Stdio::piped());
    drop(child.stderr.take());
    let status = child.wait().expect("wait for dmetabench");
    assert_eq!(status.code(), Some(1), "a usage error into a closed stderr");
}
