//! The SlimIO live-server benchmark.
//!
//! ```text
//! slimio-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                      [--reps K] [--out FILE] [--smoke]
//! slimio-benchmark compare <parent.json> <change.json> [--spec BENCHMARK.json]
//! ```
//!
//! `run --workload NAME` performs one run of one workload in this
//! process and prints, as the last line of standard output, the JSON
//! object the driver reads. `run` without `--workload` is the suite: it
//! starts one child process per workload and repetition (so peak memory
//! and CPU are each run's own) and writes a result file. See README.md.

mod client;
mod compare;
mod gen;
mod harness;
mod json;
mod probes;
mod procfs;
mod prom;
mod report;
mod stats;
mod suite;
mod trace;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::RunParams;
use workload::Workload;

/// Where run artefacts (traces, per-run detail) go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Command-line options of `run`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub reps: usize,
    pub out: Option<PathBuf>,
    pub smoke: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            workload: None,
            seed: 42,
            seconds: 16.0,
            trace: false,
            reps: 1,
            out: None,
            smoke: false,
        }
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(a.seconds >= 0.2 && a.seconds <= 600.0) {
                    return Err("--seconds must be between 0.2 and 600".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--reps" => {
                a.reps = value()?
                    .parse()
                    .map_err(|_| "--reps takes a positive integer")?;
                if a.reps == 0 || a.reps > 100 {
                    return Err("--reps must be between 1 and 100".to_string());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(a)
}

/// One run of one workload in this process.
fn run_one(w: &Workload, a: &RunArgs, origin: Instant) -> std::io::Result<bool> {
    let w = if a.smoke { w.smoke() } else { *w };
    let p = RunParams {
        seed: a.seed,
        seconds: a.seconds,
        smoke: a.smoke,
        origin,
    };
    let report = if a.trace {
        let t = traced::run_traced(&w, &p)?;
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, t.document.render_pretty())?;
        if !a.smoke {
            eprintln!("trace written to {}", path.display());
        }
        report::traced(&t)
    } else {
        report::untraced(harness::run_untraced(&w, &p)?)
    };
    let kind = if a.trace { "traced" } else { "untraced" };
    if !a.smoke {
        // A smoke run proves the harness; its numbers are not of record.
        eprint!(
            "{}",
            report.table(&format!(
                "{} seed={} seconds={} {kind}",
                w.name, a.seed, a.seconds
            ))
        );
    }
    if let Some(path) = &a.out {
        std::fs::write(
            path,
            report
                .document(&w, a.seed, a.seconds, a.trace)
                .render_pretty(),
        )?;
    }
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: slimio-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--reps K] [--out FILE] [--smoke]\n       slimio-benchmark compare <parent.json> <change.json> \
         [--spec BENCHMARK.json]\nworkloads:"
    );
    for w in &workload::WORKLOADS {
        eprintln!("  {:<18} {}", w.name, w.why);
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => match parse_run_args(&args[1..]) {
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
            Ok(a) => match a.workload.as_deref() {
                Some(name) => match workload::by_name(name) {
                    Some(w) => run_one(w, &a, origin).map_err(|e| e.to_string()),
                    None => {
                        eprintln!("error: unknown workload {name}");
                        return usage();
                    }
                },
                None => suite::run(&a),
            },
        },
        Some("compare") => match compare::run(&args[1..]) {
            Ok(compare::Outcome::Pass) => Ok(true),
            Ok(compare::Outcome::Fail) => Ok(false),
            // No regression found, none ruled out: not a pass.
            Ok(compare::Outcome::Inconclusive) => return ExitCode::from(4),
            Err(e) => Err(e),
        },
        _ => return usage(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = parse_run_args(&args(
            "--workload set_always --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            RunArgs {
                workload: Some("set_always".into()),
                seed: 7,
                seconds: 15.0,
                trace: true,
                ..RunArgs::default()
            }
        );
        assert_eq!(parse_run_args(&[]).unwrap(), RunArgs::default());
    }

    #[test]
    fn rejects_bad_options() {
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds nan",
            "--reps 0",
            "--frobnicate",
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
