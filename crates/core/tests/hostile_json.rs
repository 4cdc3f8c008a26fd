//! The JSON loaders must refuse hostile files with an error that names the
//! file, never with a panic or a stack overflow: arbitrary bytes, truncated
//! and mistyped copies of real baselines and bench reports, and nesting far
//! deeper than any real file.

use std::path::{Path, PathBuf};

use dmetabench::{baseline, bench, EnvironmentProfile};
use proptest::prelude::*;

fn repo_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// A per-test scratch directory under cargo's target tmp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("hostile-json-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Feed `bytes` to every loader. When `must_fail`, both file loaders have to
/// refuse it; either way every refusal names the file.
fn feed(path: &Path, bytes: &[u8], must_fail: bool) {
    std::fs::write(path, bytes).unwrap();
    let shown = path.display().to_string();
    let outcomes = [
        ("baseline::load_from", baseline::load_from(path).err()),
        ("bench::load_report", bench::load_report(path).err()),
    ];
    for (loader, err) in outcomes {
        match err {
            Some(e) => assert!(
                e.contains(&shown),
                "{loader} error does not name the file: {e}"
            ),
            None => assert!(
                !must_fail,
                "{loader} accepted {:?}",
                String::from_utf8_lossy(bytes)
            ),
        }
    }
    if let Ok(text) = std::str::from_utf8(bytes) {
        let _ = EnvironmentProfile::from_json(text);
    }
}

/// Every strict prefix of a real file is refused.
fn truncations(dir: &Path, source: &str) {
    let text = std::fs::read(repo_file(source)).unwrap();
    let len = text.trim_ascii_end().len();
    let path = dir.join("truncated.json");
    let stride = (len / 300).max(1);
    for cut in (0..len.min(64)).chain((64..len).step_by(stride)) {
        feed(&path, &text[..cut], true);
    }
}

/// Values of the wrong type, missing fields and wrong containers.
fn mistypes(dir: &Path, source: &str, edits: &[(&str, &str)]) {
    let text = std::fs::read_to_string(repo_file(source)).unwrap();
    let path = dir.join("mistyped.json");
    for &(from, to) in edits {
        assert!(text.contains(from), "{source} has no {from:?}");
        feed(&path, text.replacen(from, to, 1).as_bytes(), true);
    }
}

#[test]
fn truncated_and_mistyped_baselines_are_refused() {
    let dir = scratch("baseline");
    truncations(&dir, "baselines/exp_tab_3_1.json");
    mistypes(
        &dir,
        "baselines/exp_tab_3_1.json",
        &[
            ("\"value\": 12000.0", "\"value\": \"12000.0\""),
            ("\"deterministic\": true", "\"deterministic\": 1"),
            ("\"metrics\": [", "\"metrics\": {"),
            ("\"id\": \"exp_tab_3_1\", ", ""),
            ("\"tolerance\": 0.0", "\"tolerance\": [0.0]"),
            ("\"passed\": true", "\"passed\": null"),
        ],
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_and_mistyped_bench_reports_are_refused() {
    let dir = scratch("bench");
    truncations(&dir, "BENCH_memfs_ops.json");
    mistypes(
        &dir,
        "BENCH_memfs_ops.json",
        &[
            ("\"reps\": 5", "\"reps\": -5"),
            ("\"quick\": false", "\"quick\": \"no\""),
            ("\"samples_secs\": [", "\"samples_secs\": {"),
            ("\"schema\": \"dmetabench.bench/v1\",", ""),
            ("\"ops\": 370308", "\"ops\": 3.5e400"),
        ],
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let dir = scratch("deep");
    let path = dir.join("deep.json");
    feed(&path, "[".repeat(1 << 20).as_bytes(), true);
    feed(&path, "{\"a\":".repeat(1 << 18).as_bytes(), true);
    let err = bench::load_report(&path).unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic a loader; refusals name the file.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let dir = scratch("arbitrary");
        feed(&dir.join("arbitrary.json"), &bytes, false);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Single-byte damage anywhere in a real baseline never panics a loader.
    #[test]
    fn damaged_baselines_never_panic(at in 0usize..4096, byte in any::<u8>()) {
        let mut text = std::fs::read(repo_file("baselines/exp_tab_3_1.json")).unwrap();
        let at = at % text.len();
        text[at] = byte;
        let dir = scratch("damaged");
        feed(&dir.join("damaged.json"), &text, false);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
