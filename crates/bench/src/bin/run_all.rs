//! Runs every table/figure binary and reprints each suite's output in a
//! stable order. Useful for regenerating EXPERIMENTS.md data in one shot:
//!
//! ```sh
//! cargo run --release -p slimio-bench --bin run_all -- --jobs 4
//! ```
//!
//! * `--jobs <n>` runs up to `n` suites concurrently (each suite is an
//!   independent child process with its own simulated world, so results
//!   are identical to a serial run — output is buffered and printed in
//!   the fixed suite order either way).
//! * A per-suite wall-clock summary is printed at the end.
//! * A machine-readable roll-up (per-suite and per-experiment wall-clock,
//!   simulated events/sec, RPS, p999, WAF) is written to
//!   `BENCH_runall.json` (override with `--perf-json <path>`).
//! * Exits nonzero if any suite fails.

use std::io::Write;
use std::process::Command;
use std::time::Instant;

use slimio_bench::{json_string, run_cells, Cli};

const BINS: [&str; 9] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig2",
    "fig4",
    "fig5",
    "ablations",
];

struct SuiteRun {
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    wall_secs: f64,
    status: String,
    success: bool,
    perf: Option<String>,
}

fn main() {
    let cli = Cli::parse();
    let total_start = Instant::now();

    // Forward everything except the flags that are run_all's own concern:
    // children run serially inside themselves, and each child gets its own
    // perf-json path under target/…/perf/.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut fwd: Vec<String> = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--jobs" | "--perf-json" => i += 1, // skip flag + value
            other => fwd.push(other.to_string()),
        }
        i += 1;
    }

    let exe_dir = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();
    let perf_dir = exe_dir.join("perf");
    std::fs::create_dir_all(&perf_dir).expect("create perf dir");

    let runs = run_cells(&BINS, cli.jobs, |_, bin| {
        let perf_path = perf_dir.join(format!("{bin}.json"));
        let t0 = Instant::now();
        let out = Command::new(exe_dir.join(bin))
            .args(&fwd)
            .arg("--perf-json")
            .arg(&perf_path)
            .output();
        let wall_secs = t0.elapsed().as_secs_f64();
        match out {
            Ok(o) => SuiteRun {
                stdout: o.stdout,
                stderr: o.stderr,
                wall_secs,
                status: if o.status.success() {
                    "ok".to_string()
                } else {
                    format!("FAILED ({})", o.status)
                },
                success: o.status.success(),
                perf: std::fs::read_to_string(&perf_path)
                    .ok()
                    .map(|s| s.trim().to_string()),
            },
            Err(e) => SuiteRun {
                stdout: Vec::new(),
                stderr: format!("failed to launch {bin}: {e} (build with --release first)\n")
                    .into_bytes(),
                wall_secs,
                status: format!("LAUNCH FAILED ({e})"),
                success: false,
                perf: None,
            },
        }
    });

    // Stable-order replay of each suite's captured output.
    for (bin, run) in BINS.iter().zip(&runs) {
        println!("\n================ {bin} ================\n");
        std::io::stdout().write_all(&run.stdout).expect("stdout");
        std::io::stderr().write_all(&run.stderr).expect("stderr");
        if !run.success {
            eprintln!("{bin}: {}", run.status);
        }
    }

    // Timing summary.
    let total_secs = total_start.elapsed().as_secs_f64();
    let serial_secs: f64 = runs.iter().map(|r| r.wall_secs).sum();
    println!("\n================ timing ================\n");
    for (bin, run) in BINS.iter().zip(&runs) {
        println!("  {bin:<10} {:>8.2}s  {}", run.wall_secs, run.status);
    }
    println!(
        "  {:<10} {total_secs:>8.2}s  (sum of suites {serial_secs:.2}s, --jobs {})",
        "total", cli.jobs
    );

    // Machine-readable roll-up.
    let merged_path = cli
        .perf_json
        .clone()
        .unwrap_or_else(|| "BENCH_runall.json".to_string());
    let mut json = format!(
        "{{\"jobs\":{},\"wall_secs\":{total_secs:.4},\"suite_wall_secs_sum\":{serial_secs:.4},\
         \"suites\":[",
        cli.jobs
    );
    for (i, (bin, run)) in BINS.iter().zip(&runs).enumerate() {
        if i > 0 {
            json.push(',');
        }
        match &run.perf {
            Some(p) => json.push_str(p),
            None => json.push_str(&format!(
                "{{\"suite\":{},\"wall_secs\":{:.4},\"error\":{}}}",
                json_string(bin),
                run.wall_secs,
                json_string(&run.status)
            )),
        }
    }
    json.push_str("]}\n");
    std::fs::write(&merged_path, json).unwrap_or_else(|e| panic!("writing {merged_path}: {e}"));
    println!("  perf roll-up written to {merged_path}");

    if runs.iter().any(|r| !r.success) {
        std::process::exit(1);
    }
}
