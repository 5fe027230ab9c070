//! Turning one run's measurements into the metric list, the result line
//! the driver reads, the human-readable table, and the detail document.

use crate::client::Failures;
use crate::harness::Untraced;
use crate::json::Json;
use crate::stats;
use crate::traced::Traced;
use crate::workload::{Better, MetricDef, Workload, END_TO_END, OBSERVED, PER_LAYER};

/// More than this share of open-loop sends starting over 1 ms late (with
/// the previous reply already in) means the generator, not the server,
/// shaped the latencies: the run is void.
pub const MAX_LATE_FRAC: f64 = 0.01;

/// One finished run, traced or not, in reportable form.
pub struct Report {
    /// `(definition, value)` of what the result line carries, in the
    /// order of the metric tables.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Measured, printed and recorded, but not in the result line (see
    /// [`OBSERVED`]); empty for a traced run.
    pub observed: Vec<(MetricDef, f64)>,
    pub attempted: u64,
    pub fails: Failures,
    /// False when the generator could not hold its schedule.
    pub valid: bool,
    /// Per-slice and per-repetition values behind the metrics.
    pub detail: Json,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.fails.total() == 0
    }

    fn metrics_json(list: &[(MetricDef, f64)]) -> Json {
        Json::Obj(
            list.iter()
                .map(|(def, v)| {
                    let m = Json::obj().with("value", *v).with("unit", def.unit);
                    (def.name.to_string(), m)
                })
                .collect(),
        )
    }

    /// The last line of standard output: exactly the four keys the
    /// driver expects.
    pub fn result_line(&self) -> String {
        let metrics = Self::metrics_json(&self.metrics);
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.fails.total())
            .with("metrics", metrics)
            .render()
    }

    /// Aligned `name value unit` rows for a terminal.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("== {title} ==\n");
        for (def, v) in self.metrics.iter().chain(&self.observed) {
            let better = match def.better {
                Better::Lower => "lower is better",
                Better::Higher => "higher is better",
            };
            out.push_str(&format!(
                "{:<34} {:>16.4} {:<6} ({better})\n",
                def.name, v, def.unit
            ));
        }
        out.push_str(&format!(
            "{:<34} {:>16} of {} attempted ({:?})\n",
            "failed",
            self.fails.total(),
            self.attempted,
            self.fails
        ));
        if !self.valid {
            out.push_str(
                "RUN VOID: the generator fell behind its schedule (client.late_frac > 1 %)\n",
            );
        }
        out
    }

    /// The document behind `--out`.
    pub fn document(&self, w: &Workload, seed: u64, seconds: f64, traced: bool) -> Json {
        Json::obj()
            .with("workload", w.name)
            .with("seed", seed)
            .with("seconds", seconds)
            .with("trace", traced)
            .with("correct", self.correct())
            .with("valid", self.valid)
            .with("attempted", self.attempted)
            .with("failed", self.fails.total())
            .with("metrics", Self::metrics_json(&self.metrics))
            .with("observed", Self::metrics_json(&self.observed))
            .with("detail", self.detail.clone())
    }
}

fn failures_json(f: &Failures) -> Json {
    Json::obj()
        .with("error_replies", f.error_replies)
        .with("refusals", f.refusals)
        .with("wrong_replies", f.wrong_replies)
        .with("lost_acked", f.lost_acked)
}

pub fn untraced(mut u: Untraced) -> Report {
    let p50_us = u.lat.quantile_us(0.5);
    let p99_us = u.lat.tail_us(0.99);
    let mut pooled = u.lat.pooled();
    let (p99_q, pooled_p99_us) = pooled.tail_us(0.99);
    let p999_us = pooled.tail_us(0.999).1;
    let sends = u.lag.len() as u64;
    let late_frac = u.late_sends as f64 / sends.max(1) as f64;
    let value = |name: &str| match name {
        "setup_s" => stats::median(&u.setups_s),
        "rps" => u.window.rps(),
        "p50_us" => p50_us,
        "p99_us" => p99_us,
        "cpu_us_per_op" => u.window.cpu_us_per_op(),
        "idle_cpu_cores" => u.idle_cores,
        "recovery_s" => u.recovery_s,
        "snapshot_s" => stats::mean(&u.window.snapshot_ms) / 1000.0,
        "waf" => u.waf,
        "peak_rss_mb" => u.peak_rss_mb,
        other => unreachable!("end-to-end metric {other} has no reading"),
    };
    let metrics: Vec<(MetricDef, f64)> = END_TO_END
        .iter()
        .map(|def| (*def, value(def.name)))
        .collect();
    let observed: Vec<(MetricDef, f64)> = OBSERVED
        .iter()
        .map(|o| (o.def, value(o.def.name)))
        .collect();
    let slice_rps: Vec<f64> = u
        .window
        .slices
        .iter()
        .map(|s| s.ops as f64 / s.secs)
        .collect();
    let slice_cpu: Vec<f64> = u
        .window
        .slices
        .iter()
        .filter(|s| s.ops > 0)
        .map(|s| s.cpu_ns as f64 / 1000.0 / s.ops as f64)
        .collect();
    let detail = Json::obj()
        .with("setups_s", &u.setups_s[..])
        .with("window_s", u.window.secs)
        .with("window_ops", u.window.ops)
        .with("latency_samples", u.lat.len())
        .with("latency_samples_smallest_sub_window", u.lat.min_slice_len())
        .with("sliced_p90_us", u.lat.quantile_us(0.90))
        .with("sliced_p95_us", u.lat.quantile_us(0.95))
        .with("pooled_p50_us", pooled.quantile_us(0.5))
        .with("pooled_p90_us", pooled.quantile_us(0.90))
        .with("pooled_p95_us", pooled.quantile_us(0.95))
        .with("pooled_mean_us", pooled.mean_us())
        .with("pooled_p99_us", pooled_p99_us)
        .with("pooled_p99_quantile_used", p99_q)
        .with("pooled_p999_us", p999_us)
        .with("slice_rps", &slice_rps[..])
        .with(
            "slice_rps_median",
            if slice_rps.is_empty() {
                0.0
            } else {
                stats::median(&slice_rps)
            },
        )
        .with("slice_cpu_us_per_op", &slice_cpu[..])
        .with("snapshots_in_window_ms", &u.window.snapshot_ms[..])
        .with("peak_rss_after_windows_mb", u.peak_rss_after_windows_mb)
        .with("peak_rss_after_recovery_mb", u.peak_rss_after_recovery_mb)
        .with("open_loop_sends", sends)
        .with("late_frac", late_frac)
        .with("keys_read_back", u.verified.read_back)
        .with("lost_unsynced_everysec", u.verified.lost_unsynced)
        .with("failures", failures_json(&u.fails));
    Report {
        metrics,
        observed,
        attempted: u.attempted,
        fails: u.fails,
        valid: late_frac <= MAX_LATE_FRAC,
        detail,
    }
}

pub fn traced(t: &Traced) -> Report {
    // What the trace file holds beyond the per-layer metrics: the cells'
    // own readings behind each ratio, and the self-time estimates.
    let trace_only = Json::Obj(
        t.metrics
            .iter()
            .filter(|(k, _)| PER_LAYER.iter().all(|def| def.name != **k))
            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
            .collect(),
    );
    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let v = *t
                .metrics
                .get(def.name)
                .unwrap_or_else(|| panic!("traced run produced no {}", def.name));
            (*def, v)
        })
        .collect();
    Report {
        metrics,
        observed: Vec::new(),
        attempted: t.attempted,
        fails: t.fails,
        valid: t.metrics["client.late_frac"] <= MAX_LATE_FRAC,
        detail: Json::obj()
            .with("failures", failures_json(&t.fails))
            .with("trace_only", trace_only),
    }
}
