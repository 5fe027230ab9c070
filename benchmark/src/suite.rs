//! `run` without `--workload`: every workload, `--reps` times, one child
//! process per run, gathered into one result file.
//!
//! A child per run keeps each run's peak memory and CPU its own (VmHWM
//! never goes down within a process) and is exactly how the driver runs
//! the benchmark, so a suite result and a driver result are comparable.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::stats;
use crate::workload::{Better, MetricDef, END_TO_END, OBSERVED, PER_LAYER, WORKLOADS};
use crate::{out_dir, procfs, RunArgs};

/// First line of a command's output, or "unknown" when it cannot run
/// (the driver's checkout is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn environment(a: &RunArgs) -> Json {
    Json::obj()
        .with("commit", tool_line("git", &["rev-parse", "HEAD"]))
        .with("rustc", tool_line("rustc", &["--version"]))
        .with("nproc", procfs::nproc())
        .with("seed", a.seed)
        .with("seconds", a.seconds)
        .with("reps", a.reps)
        .with("trace", a.trace)
}

/// One child run; returns the detail document the child wrote.
fn child_run(
    exe: &Path,
    workload: &str,
    seed: u64,
    a: &RunArgs,
    trace: bool,
) -> Result<Json, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let detail = dir.join(format!(
        "run-{workload}-{seed}-trace{}.json",
        u8::from(trace)
    ));
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&detail)
        .stdout(Stdio::piped());
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    // A run that fails its correctness gate exits 1 but still reports;
    // anything else is a harness failure.
    if !matches!(out.status.code(), Some(0 | 1)) {
        return Err(format!(
            "{workload} seed {seed}: child exited with {}",
            out.status
        ));
    }
    let text =
        std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))?;
    // The driver reads the last stdout line; hold it to the same numbers.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = Json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{workload}: last stdout line is not JSON: {e}"))?;
    if line.get("metrics") != doc.get("metrics") {
        return Err(format!("{workload}: result line and detail file disagree"));
    }
    Ok(doc)
}

/// One metric over the runs of a workload: per-run values and their
/// quartiles. `section` is the run document's member the metric is in.
fn summarize(runs: &[Json], section: &str, def: &MetricDef) -> Option<Json> {
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.get(section)?.get(def.name)?.get("value")?.as_f64())
        .collect();
    if values.is_empty() {
        return None;
    }
    let (q1, median, q3) = stats::quartiles(&values);
    Some(
        Json::obj()
            .with("name", def.name)
            .with("unit", def.unit)
            .with(
                "better",
                if def.better == Better::Lower {
                    "lower"
                } else {
                    "higher"
                },
            )
            .with("values", &values[..])
            .with("q1", q1)
            .with("median", median)
            .with("q3", q3),
    )
}

fn print_summary(m: &Json) {
    let f = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("");
    println!(
        "{:<34} {:>16.4} {:<6} [q1 {:.4}, q3 {:.4}]",
        s("name"),
        f("median"),
        s("unit"),
        f("q1"),
        f("q3"),
    );
}

fn sum_field(runs: &[Json], key: &str) -> f64 {
    runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum()
}

fn all_true(runs: &[Json], key: &str) -> bool {
    runs.iter().all(|r| r.get(key) == Some(&Json::Bool(true)))
}

/// `run --smoke`: every workload, untraced and traced, with one second
/// of windows each on shrunken datasets. Proves the harness end to end; records
/// nothing. Each workload's two runs go side by side (one per CPU):
/// contention spoils timings, which a smoke run does not keep anyway.
fn smoke(exe: &Path, a: &RunArgs) -> Result<bool, String> {
    let started = Instant::now();
    let a = RunArgs {
        seconds: 1.0,
        ..a.clone()
    };
    let mut ok = true;
    for w in &WORKLOADS {
        let docs = std::thread::scope(|s| {
            let runs = [false, true].map(|trace| {
                let a = &a;
                s.spawn(move || child_run(exe, w.name, a.seed, a, trace))
            });
            runs.map(|h| h.join().expect("smoke runner panicked"))
        });
        for (trace, doc) in [false, true].into_iter().zip(docs) {
            let correct = doc?.get("correct") == Some(&Json::Bool(true));
            eprintln!(
                "smoke {:<18} trace={} {}",
                w.name,
                u8::from(trace),
                if correct { "ok" } else { "FAILED" }
            );
            ok &= correct;
        }
    }
    eprintln!(
        "smoke {} in {:.1} s (no metrics of record)",
        if ok { "passed" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    Ok(ok)
}

pub fn run(a: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    if a.smoke {
        return smoke(&exe, a);
    }
    let defs: &[MetricDef] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let mut runs: Vec<Vec<Json>> = vec![Vec::new(); WORKLOADS.len()];
    // Repetitions outermost, so drift over the suite's minutes spreads
    // over all workloads instead of landing on the last one.
    for rep in 0..a.reps {
        for (i, w) in WORKLOADS.iter().enumerate() {
            runs[i].push(child_run(&exe, w.name, a.seed + rep as u64, a, a.trace)?);
        }
    }
    let mut ok = true;
    let mut workloads = Vec::new();
    for (w, runs) in WORKLOADS.iter().zip(runs) {
        let correct = all_true(&runs, "correct");
        ok &= correct;
        let metrics: Vec<Json> = defs
            .iter()
            .filter_map(|d| summarize(&runs, "metrics", d))
            .collect();
        // Measured by the same runs and judged by `compare` with the bound
        // recorded here; not bounded by the driver.
        let observed: Vec<Json> = OBSERVED
            .iter()
            .filter_map(|o| Some(summarize(&runs, "observed", &o.def)?.with("bound", o.bound)))
            .collect();
        println!(
            "== {} ({} run{}) ==",
            w.name,
            runs.len(),
            if runs.len() == 1 { "" } else { "s" }
        );
        metrics.iter().chain(&observed).for_each(print_summary);
        let (failed, attempted) = (sum_field(&runs, "failed"), sum_field(&runs, "attempted"));
        println!("{:<34} {:>16} of {} attempted", "failed", failed, attempted);
        workloads.push(
            Json::obj()
                .with("name", w.name)
                .with("correct", correct)
                .with("valid", all_true(&runs, "valid"))
                .with("attempted", attempted)
                .with("failed", failed)
                .with("metrics", metrics)
                .with("observed", observed)
                .with("runs", runs),
        );
    }
    let doc = Json::obj()
        .with("schema", "slimio-benchmark/1")
        .with("env", environment(a))
        .with("workloads", workloads);
    if let Some(path) = &a.out {
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("results written to {}", path.display());
    }
    Ok(ok)
}
