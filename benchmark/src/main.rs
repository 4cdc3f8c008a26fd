//! Command line of the benchmark; run it through `benchmark/run.sh` from
//! the repository root.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dmetabench_perf::compare::compare;
use dmetabench_perf::results::{MetricRecord, Results, Spec};
use dmetabench_perf::runner::{run, Options, BLESSED_SEED};

const USAGE: &str = "usage:
  dmetabench-perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
  dmetabench-perf compare PARENT_DIR CHANGE_DIR";

const SPEC: &str = "BENCHMARK.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare_main(&args[1..])
    } else {
        parse(&args).and_then(|(opts, out)| run_main(&opts, &out))
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dmetabench-perf: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<(Options, PathBuf), String> {
    let mut opts = Options {
        workload: String::new(),
        seed: BLESSED_SEED,
        seconds: 30.0,
        trace: false,
        quick: false,
    };
    let mut out = PathBuf::from("benchmark/results/latest");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if opts.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    if !opts.seconds.is_finite() || opts.seconds < 0.0 {
        return Err("--seconds must be a non-negative number".to_owned());
    }
    Ok((opts, out))
}

fn run_main(opts: &Options, out: &Path) -> Result<ExitCode, String> {
    let spec = Spec::load(Path::new(SPEC))?;
    let results = run(opts)?;
    let path = out.join(format!("{}.json", results.workload));
    results.save(&path)?;
    print_human(&results);
    println!("results: {}", path.display());
    let declared = if opts.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let produced = if opts.trace {
        &results.per_layer
    } else {
        &results.end_to_end
    };
    let mut metrics = Vec::new();
    for d in declared {
        let m = produced.iter().find(|m| m.name == d.name).ok_or_else(|| {
            format!(
                "{SPEC} declares '{}', which this run did not measure",
                d.name
            )
        })?;
        if m.unit != d.unit || !m.value.is_finite() {
            return Err(format!(
                "'{}' measured {:?} {}, but {SPEC} declares unit {}",
                m.name, m.value, m.unit, d.unit
            ));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.correct,
        results.attempted,
        results.failed,
        metrics.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}

fn print_human(r: &Results) {
    let h = &r.host;
    println!(
        "{} ({}): seed {}, {} sim-thread(s), {} build, {} cores, {}",
        r.workload, r.scenario, h.seed, h.sim_threads, h.profile, h.nproc, h.rustc
    );
    for c in &r.checks {
        let verdict = if c.passed { "ok  " } else { "FAIL" };
        println!("check {verdict} {} — {}", c.name, c.detail);
    }
    let line = |kind: &str, m: &MetricRecord| {
        let spread = match (m.q1, m.q3, m.n) {
            (Some(q1), Some(q3), Some(n)) => format!("  (q1 {q1:.6}, q3 {q3:.6}, n {n})"),
            _ => String::new(),
        };
        println!("{kind} {:<32} {:>18.6} {}{spread}", m.name, m.value, m.unit);
    };
    for m in &r.end_to_end {
        line("end_to_end", m);
    }
    for m in &r.per_layer {
        line("per_layer ", m);
    }
    if !r.layers.is_empty() {
        println!(
            "layer {:<26} {:>12} {:>12} {:>7}",
            "", "calls", "total_ms", "share"
        );
        for l in &r.layers {
            println!(
                "layer {:<26} {:>12} {:>12.3} {:>6.1}%",
                l.name,
                l.calls,
                l.ns as f64 / 1e6,
                l.share * 100.0
            );
        }
    }
}

fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err(USAGE.to_owned());
    };
    let spec = Spec::load(Path::new(SPEC))?;
    let (report, pass) = compare(&spec, Path::new(parent), Path::new(change))?;
    print!("{report}");
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
