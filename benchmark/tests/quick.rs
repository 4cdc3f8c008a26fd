//! `--quick` smoke test: every workload runs at reduced geometry through
//! the real command line, and every metric `BENCHMARK.json` declares is
//! emitted with its unit.

use std::path::{Path, PathBuf};
use std::process::Command;

use dmetabench_perf::results::{Results, Spec};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository")
        .to_path_buf()
}

#[test]
fn quick_runs_emit_every_declared_metric_with_its_unit() {
    let root = repo_root();
    let spec = Spec::load(&root.join("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick");
    for w in &spec.workloads {
        let run = Command::new(env!("CARGO_BIN_EXE_dmetabench-perf"))
            .current_dir(&root)
            .args([
                "--workload",
                &w.name,
                "--quick",
                "--seconds",
                "0",
                "--trace",
                "1",
            ])
            .arg("--out")
            .arg(&out)
            .output()
            .expect("benchmark binary runs");
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(run.status.success(), "{}: {stdout}", w.name);
        let last =
            serde_json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
        let keys: Vec<&str> = last
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["correct", "attempted", "failed", "metrics"],
            "{}",
            w.name
        );
        assert_eq!(
            last.get("correct"),
            Some(&serde::Value::Bool(true)),
            "{stdout}"
        );
        assert!(last.get("attempted").and_then(|v| v.as_u64()) >= Some(1));
        assert_eq!(last.get("failed").and_then(|v| v.as_u64()), Some(0));
        let metrics = last
            .get("metrics")
            .and_then(|v| v.as_object())
            .expect("metrics");
        assert_eq!(
            metrics.len(),
            spec.per_layer.len(),
            "{}: per-layer count",
            w.name
        );
        for d in &spec.per_layer {
            let m = last
                .get("metrics")
                .and_then(|m| m.get(&d.name))
                .unwrap_or_else(|| panic!("{}: {} missing", w.name, d.name));
            assert!(m.get("value").and_then(|v| v.as_f64()).is_some());
            assert_eq!(
                m.get("unit").and_then(|v| v.as_str()),
                Some(d.unit.as_str())
            );
        }
        let results = Results::load(&out.join(format!("{}.json", w.name))).expect("results file");
        for d in &spec.end_to_end {
            let m = results
                .metric(&d.name)
                .unwrap_or_else(|| panic!("{}: {} missing", w.name, d.name));
            assert_eq!(m.unit, d.unit, "{}: {}", w.name, d.name);
            assert!(m.value > 0.0, "{}: {} must never be 0", w.name, d.name);
        }
    }
}
