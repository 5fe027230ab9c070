//! `compare <parent.json> <change.json>`: two suite result files held
//! against their bounds, one row per metric × workload. The metrics the
//! driver bounds take their bounds from `BENCHMARK.json`; the observed
//! ones (throughput, latency, recovery, …) carry the issue's bound in
//! the result file itself.
//!
//! Verdicts, with "worse" meaning against the metric's direction:
//!
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **improved** — better by more than the bound;
//! * **within-bound** — neither;
//! * **unresolved** — either side's spread (interquartile distance over
//!   median) is wider than the bound, so the medians cannot separate a
//!   change from noise — unless every run of one side beats every run of
//!   the other, which no spread can explain away.
//!
//! A bound is a share of the parent's median. Two metrics also carry the
//! issue's absolute bound ([`ABSOLUTE`]), which is what counts once the
//! parent's median is small: a share of an idle CPU reading near zero
//! would allow nothing, and a share of zero allows anything.
//!
//! The outcome is *fail* on any regression, any rise in the failed share
//! of operations or a missing workload; otherwise *inconclusive* when a
//! metric is unresolved; otherwise *pass*.

use std::path::PathBuf;

use crate::json::Json;
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Absolute bounds, in the metric's own unit, for the metrics the issue
/// bounds absolutely: the allowance is the larger of this and the
/// relative bound's share of the parent's median.
const ABSOLUTE: [(&str, f64); 2] = [("idle_cpu_cores", 0.10), ("waf", 0.005)];

/// How `compare` ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Pass,
    Fail,
    Inconclusive,
}

/// Judges one metric on one workload. `lower_is_better` gives the
/// direction; the metric may worsen by `bound` as a share of the
/// parent's median, or by `absolute` in its own unit if that is more.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: f64,
    absolute: f64,
) -> Verdict {
    let (pm, cm) = (stats::median(parent), stats::median(change));
    let allowed = (bound * pm.abs()).max(absolute);
    // Positive = worse, in the metric's unit.
    let worse_by = if lower_is_better { cm - pm } else { pm - cm };
    let wide = |v: &[f64]| {
        let (q1, _, q3) = stats::quartiles(v);
        q3 - q1 > allowed
    };
    let noisy = wide(parent) || wide(change);
    let fold = |v: &[f64], f: fn(f64, f64) -> f64| v.iter().copied().reduce(f).expect("non-empty");
    let (pmin, pmax) = (fold(parent, f64::min), fold(parent, f64::max));
    let (cmin, cmax) = (fold(change, f64::min), fold(change, f64::max));
    let (all_better, all_worse) = if lower_is_better {
        (cmax < pmin, cmin > pmax)
    } else {
        (cmin > pmax, cmax < pmin)
    };
    if worse_by > allowed {
        if noisy && !all_worse {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if worse_by < -allowed {
        if noisy && !all_better {
            Verdict::Unresolved
        } else {
            Verdict::Improved
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
    absolute: f64,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The bounds a list of metric entries carries: the spec's `end_to_end`
/// list, or a result file's `observed` list.
fn bounds(list: &[Json]) -> Result<Vec<Bound>, String> {
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            Ok(Bound {
                name: name.to_string(),
                absolute: ABSOLUTE
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, a)| *a),
                lower_is_better: m.get("better").and_then(Json::as_str) != Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn entry<'a>(workload: &'a Json, section: &str, metric: &str) -> Option<&'a Json> {
    workload
        .get(section)?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
}

fn values(entry: &Json) -> Option<Vec<f64>> {
    let v: Vec<f64> = entry
        .get("values")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!v.is_empty()).then_some(v)
}

fn fail_share(workload: &Json) -> f64 {
    let f = |k: &str| workload.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    f("failed") / f("attempted").max(1.0)
}

/// Compares two parsed result files; returns the report text and the
/// outcome.
pub fn compare(parent: &Json, change: &Json, spec: &Json) -> Result<(String, Outcome), String> {
    let spec_bounds = bounds(
        spec.get("end_to_end")
            .and_then(Json::as_arr)
            .ok_or("spec has no end_to_end list")?,
    )?;
    let names: Vec<&str> = parent
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("parent file has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let mut out = format!(
        "{:<18} {:<24} {:>14} {:>14} {:>9} {:>7} {:>8}  {}\n",
        "workload", "metric", "parent", "change", "ratio", "bound", "spread", "verdict"
    );
    let (mut pass, mut unresolved) = (true, 0);
    for name in names {
        let p = workload(parent, name).expect("listed above");
        let Some(c) = workload(change, name) else {
            out.push_str(&format!("{name:<18} missing from the change's results\n"));
            pass = false;
            continue;
        };
        let observed = bounds(p.get("observed").and_then(Json::as_arr).unwrap_or(&[]))?;
        let judged = spec_bounds
            .iter()
            .map(|b| ("metrics", b))
            .chain(observed.iter().map(|b| ("observed", b)));
        for (section, b) in judged {
            let series = |w| entry(w, section, &b.name).and_then(values);
            let (Some(pv), Some(cv)) = (series(p), series(c)) else {
                continue;
            };
            // A void run (generator behind schedule) has no say on
            // latency; everything else it measured stands.
            let void = [p, c]
                .iter()
                .any(|w| w.get("valid") == Some(&Json::Bool(false)));
            let verdict = if void && b.name.ends_with("_us") {
                Verdict::Unresolved
            } else {
                judge(&pv, &cv, b.lower_is_better, b.bound, b.absolute)
            };
            pass &= verdict != Verdict::Regressed;
            unresolved += usize::from(verdict == Verdict::Unresolved);
            let (pm, cm) = (stats::median(&pv), stats::median(&cv));
            out.push_str(&format!(
                "{:<18} {:<24} {:>14.4} {:>14.4} {:>8.4}x {:>6.1}% {:>7.1}%  {}\n",
                name,
                b.name,
                pm,
                cm,
                cm / pm,
                b.bound * 100.0,
                stats::spread(&pv).max(stats::spread(&cv)) * 100.0,
                verdict.label(),
            ));
        }
        let (pf, cf) = (fail_share(p), fail_share(c));
        let rose = cf > pf;
        pass &= !rose;
        out.push_str(&format!(
            "{:<18} {:<24} {:>14.6} {:>14.6} {:>9} {:>7} {:>8}  {}\n",
            name,
            "fail_frac",
            pf,
            cf,
            "",
            "0",
            "",
            if rose { "regressed" } else { "within-bound" },
        ));
    }
    let outcome = match (pass, unresolved) {
        (false, _) => Outcome::Fail,
        (true, 0) => Outcome::Pass,
        (true, _) => Outcome::Inconclusive,
    };
    out.push_str(&format!(
        "ratio = change median / parent median; spread = wider interquartile/median of the two sides\n{}\n",
        match outcome {
            Outcome::Pass => "PASS: no regression".to_string(),
            Outcome::Fail => "FAIL: regression found".to_string(),
            Outcome::Inconclusive => format!(
                "INCONCLUSIVE: no regression found, but {unresolved} reading(s) spread wider than \
                 their bound, so their medians cannot tell a change from noise"
            ),
        }
    ));
    Ok((out, outcome))
}

pub fn run(args: &[String]) -> Result<Outcome, String> {
    let mut files = Vec::new();
    let mut spec = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec = PathBuf::from(it.next().ok_or("--spec needs a path")?);
        } else {
            files.push(a.as_str());
        }
    }
    let [parent, change] = files[..] else {
        return Err("compare takes exactly two result files".to_string());
    };
    let spec = load(&spec.to_string_lossy())?;
    let (text, outcome) = compare(&load(parent)?, &load(change)?, &spec)?;
    print!("{text}");
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
        judge(parent, change, lower_is_better, bound, 0.0)
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scale = |k: f64| steady.map(|v| v * k);
        // Lower is better, 10 % bound.
        assert_eq!(rel(&steady, &scale(1.05), true, 0.10), Verdict::WithinBound);
        assert_eq!(rel(&steady, &scale(1.20), true, 0.10), Verdict::Regressed);
        assert_eq!(rel(&steady, &scale(0.80), true, 0.10), Verdict::Improved);
        // Higher is better flips the sign.
        assert_eq!(rel(&steady, &scale(0.80), false, 0.10), Verdict::Regressed);
        assert_eq!(rel(&steady, &scale(1.20), false, 0.10), Verdict::Improved);
        // Single runs have no spread and are judged on the value alone.
        assert_eq!(rel(&[100.0], &[109.0], true, 0.10), Verdict::WithinBound);
        assert_eq!(rel(&[100.0], &[111.0], true, 0.10), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_runs_do_not_overlap() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        // Same medians, spread 30 % against a 10 % bound.
        assert_eq!(rel(&noisy, &noisy, true, 0.10), Verdict::Unresolved);
        // Median 15 % worse but the runs overlap: cannot call it.
        assert_eq!(
            rel(&noisy, &noisy.map(|v| v * 1.15), true, 0.10),
            Verdict::Unresolved
        );
        // Every run of the change is worse than every run of the parent.
        assert_eq!(
            rel(&noisy, &noisy.map(|v| v * 2.0), true, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            rel(&noisy, &noisy.map(|v| v * 0.5), true, 0.10),
            Verdict::Improved
        );
    }

    #[test]
    fn an_absolute_bound_holds_where_a_share_of_the_parent_means_nothing() {
        // An idle server at 0.002 cores: 10 % of that is no allowance at
        // all, 0.10 cores is.
        let parked = [0.002, 0.0021, 0.0019];
        assert_eq!(
            judge(&parked, &[0.05, 0.051, 0.049], true, 0.10, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&parked, &[0.5, 0.51, 0.49], true, 0.10, 0.10),
            Verdict::Regressed
        );
        // A parent at exactly 0 allows nothing relative; any rise beyond
        // the absolute bound is a regression, none passes unseen.
        assert_eq!(judge(&[0.0], &[0.2], true, 0.10, 0.10), Verdict::Regressed);
        assert_eq!(judge(&[0.0], &[0.2], true, 0.10, 0.0), Verdict::Regressed);
        // Near 1 core the relative share is the wider of the two.
        assert_eq!(
            judge(&[1.02], &[1.12], true, 0.10, 0.10),
            Verdict::WithinBound
        );
    }

    fn result(rps: &[f64], failed: f64) -> Json {
        let m = Json::obj()
            .with("name", "rps")
            .with("unit", "1/s")
            .with("values", rps);
        let o = Json::obj()
            .with("name", "p50_us")
            .with("better", "lower")
            .with("bound", 0.1)
            .with("values", &[500.0, 505.0, 495.0][..]);
        Json::obj().with(
            "workloads",
            vec![Json::obj()
                .with("name", "set_always")
                .with("valid", true)
                .with("attempted", 1000.0)
                .with("failed", failed)
                .with("metrics", vec![m])
                .with("observed", vec![o])],
        )
    }

    fn spec() -> Json {
        Json::parse(r#"{"end_to_end":[{"name":"rps","unit":"1/s","better":"higher","bound":0.1}]}"#)
            .unwrap()
    }

    #[test]
    fn compare_passes_equal_files_and_fails_regressions() {
        let base = result(&[70_000.0, 71_000.0, 69_500.0], 0.0);
        let (text, outcome) = compare(&base, &base, &spec()).unwrap();
        assert_eq!(outcome, Outcome::Pass, "{text}");
        assert!(text.contains("within-bound") && text.contains("PASS"));
        let slow = result(&[50_000.0, 51_000.0, 49_500.0], 0.0);
        let (text, outcome) = compare(&base, &slow, &spec()).unwrap();
        assert!(
            outcome == Outcome::Fail && text.contains("regressed"),
            "{text}"
        );
        let (_, outcome) = compare(&slow, &base, &spec()).unwrap();
        assert_eq!(outcome, Outcome::Pass, "an improvement is not a failure");
    }

    #[test]
    fn observed_metrics_are_judged_by_the_bound_in_the_file() {
        let base = result(&[70_000.0], 0.0);
        // Double every p50 sample of the change.
        let text = base.render().replace("[500,505,495]", "[1000,1010,990]");
        let worse = Json::parse(&text).unwrap();
        let (text, outcome) = compare(&base, &worse, &spec()).unwrap();
        assert!(
            outcome == Outcome::Fail && text.contains("p50_us"),
            "{text}"
        );
        assert_eq!(compare(&worse, &base, &spec()).unwrap().1, Outcome::Pass);
    }

    #[test]
    fn an_unresolved_metric_makes_the_comparison_inconclusive_not_a_pass() {
        let noisy = result(&[50_000.0, 70_000.0, 90_000.0, 60_000.0, 80_000.0], 0.0);
        let (text, outcome) = compare(&noisy, &noisy, &spec()).unwrap();
        assert_eq!(outcome, Outcome::Inconclusive, "{text}");
        assert!(text.contains("unresolved") && text.contains("INCONCLUSIVE"));
    }

    #[test]
    fn any_rise_in_failures_fails_even_with_equal_metrics() {
        let base = result(&[70_000.0], 0.0);
        let broken = result(&[70_000.0], 1.0);
        let (text, outcome) = compare(&base, &broken, &spec()).unwrap();
        assert_eq!(outcome, Outcome::Fail, "{text}");
        assert_eq!(
            compare(&broken, &base, &spec()).unwrap().1,
            Outcome::Pass,
            "a fall in failures passes"
        );
    }

    #[test]
    fn a_missing_workload_fails() {
        let base = result(&[70_000.0], 0.0);
        let empty = Json::obj().with("workloads", Vec::<Json>::new());
        assert_eq!(compare(&base, &empty, &spec()).unwrap().1, Outcome::Fail);
        assert!(compare(&empty, &base, &spec()).is_ok());
    }
}
