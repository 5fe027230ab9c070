//! The traced run: every per-layer number, taken from outside the server.
//!
//! Three sources, none of which needs a change to the server:
//!
//! 1. client spans around each burst (encode → send → wait → parse);
//! 2. the server's own `/metrics` stage series, scraped before and after
//!    the traced window and differenced;
//! 3. the layer probes of [`crate::probes`].
//!
//! Three comparison cells ride along, each with a window as long as the
//! traced one: the same traffic untraced (tracing overhead), on the
//! kernel backend (the paper's relative claims), and at two writer
//! shards. Every number here describes a layer; the end-to-end numbers
//! come only from the untraced run.

use std::collections::BTreeMap;
use std::io;
use std::time::Duration;

use slimio_server::BackendKind;

use crate::client::Failures;
use crate::harness::{merged_latencies, CellCfg, Live, RunParams, WindowStats};
use crate::json::Json;
use crate::probes;
use crate::prom::{delta, mean_between, Scrape};
use crate::trace::{self, PhaseTotals, Span};
use crate::workload::Workload;

/// Everything the traced run of one workload produced.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub fails: Failures,
    /// The document for `out/trace-<workload>.json`.
    pub document: Json,
}

const STAGES: [(&str, &str); 6] = [
    ("admission", "server.stage_admission_us"),
    ("queue", "server.stage_queue_us"),
    ("execute", "server.stage_execute_us"),
    ("wal_append", "server.stage_wal_append_us"),
    ("device_sync", "server.stage_device_sync_us"),
    ("reply", "server.stage_reply_us"),
];

/// A comparison cell: set up, run one window, tear down. With `recover`
/// the cell first goes through the untraced run's own fixed log → kill →
/// restart → verify, and its recovery time is returned.
fn side_cell(
    w: &Workload,
    cfg: CellCfg,
    p: &RunParams,
    dur: Duration,
    recover: bool,
    attempted: &mut u64,
    fails: &mut Failures,
) -> io::Result<(WindowStats, Option<f64>)> {
    let mut live = Live::setup(w, cfg, p)?;
    let win = live.window(w, dur)?;
    let mut recovery = None;
    if recover {
        live.fix_log(w)?;
        recovery = Some(live.timed_recovery(p)?);
        let v = live.verify(w, p)?;
        *attempted += v.read_back;
        fails.add(&v.fails);
    }
    live.tally(attempted, fails);
    live.discard();
    Ok((win, recovery))
}

pub fn run_traced(w: &Workload, p: &RunParams) -> io::Result<Traced> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut attempted, mut fails) = (0u64, Failures::default());
    // Four cells, four windows of the same length: ratios between cells
    // compare equal amounts of work.
    let window = Duration::from_secs_f64(p.seconds / 4.0);

    // The traced cell: client spans on, /metrics scraped around the
    // window, then the same fixed log → kill → restart → verify as the
    // untraced run.
    let traced_cfg = CellCfg {
        trace: true,
        ..CellCfg::UNTRACED
    };
    let mut live = Live::setup(w, traced_cfg, p)?;
    let before = live.scrape()?;
    let win = live.window(w, window)?;
    let after = live.scrape()?;
    let (lat, mut lag) = merged_latencies(&live.workers);
    let mut totals = PhaseTotals::default();
    let mut spans: Vec<Span> = Vec::new();
    let (mut late, mut sends) = (0u64, 0u64);
    for wk in &mut live.workers {
        if let Some(t) = wk.tracer.take() {
            totals.add(&t.totals);
            spans.extend(t.spans);
        }
        late += wk.late_sends;
        sends += wk.lag.len() as u64;
    }
    live.fix_log(w)?;
    let passthru_recovery = live.timed_recovery(p)?;
    let v = live.verify(w, p)?;
    attempted += v.read_back;
    fails.add(&v.fails);
    live.tally(&mut attempted, &mut fails);
    let user_bytes = live.acked_user_bytes();
    let telemetry = live.finish();

    client_metrics(&mut m, &lat, &mut lag, &totals, late, sends);
    server_metrics(&mut m, &before, &after, &win);
    m.insert("nvme.die_busy_s", telemetry.die_busy_ns as f64 / 1e9);
    m.insert("ftl.gc_copied_pages", telemetry.gc_copied_pages as f64);
    m.insert("ftl.erases", telemetry.erases as f64);
    m.insert(
        "backend.dev_bytes_per_user_byte",
        telemetry.host_pages as f64 * 4096.0 / user_bytes.max(1) as f64,
    );

    // Client mean burst latency vs the server's own account of it.
    let burst_mean = m["client.burst_mean_us"];
    let e2e = m["server.write_e2e_us_mean"];
    m.insert("client.residual_us", burst_mean - e2e);
    m.insert(
        "server.stage_sum_us",
        STAGES.iter().map(|(_, name)| m[name]).sum::<f64>(),
    );

    let (plain, _) = side_cell(
        w,
        CellCfg::UNTRACED,
        p,
        window,
        false,
        &mut attempted,
        &mut fails,
    )?;
    m.insert("client.trace_overhead_frac", 1.0 - win.rps() / plain.rps());
    // Traced like the cell it is compared with, so both sides of the
    // ratio carry the same tracing cost.
    let kernel_cfg = CellCfg {
        kind: BackendKind::Kernel,
        ..traced_cfg
    };
    let (kernel, kernel_recovery) =
        side_cell(w, kernel_cfg, p, window, true, &mut attempted, &mut fails)?;
    let kernel_recovery = kernel_recovery.expect("kernel cell recovers");
    m.insert("kpath.rps_ratio", win.rps() / kernel.rps());
    m.insert("kpath.recovery_ratio", passthru_recovery / kernel_recovery);
    let two_shards = CellCfg {
        shards: 2,
        ..CellCfg::UNTRACED
    };
    let (sharded, _) = side_cell(w, two_shards, p, window, false, &mut attempted, &mut fails)?;
    m.insert("server.shards2_rps_ratio", sharded.rps() / plain.rps());

    // The cells' own readings, for the trace document only: they give
    // the ratios above their bases.
    m.insert("cell.traced_rps", win.rps());
    m.insert("cell.untraced_rps", plain.rps());
    m.insert("cell.kernel_rps", kernel.rps());
    m.insert("cell.shards2_rps", sharded.rps());
    m.insert("cell.passthru_recovery_s", passthru_recovery);
    m.insert("cell.kernel_recovery_s", kernel_recovery);

    // Layer probes, with no server running.
    let probed = probes::run(w, p.seed, p.origin, p.smoke);
    m.extend(probed.metrics.iter().map(|(k, v)| (*k, *v)));
    spans.extend(probed.spans.spans);

    let layers = Json::Obj(
        m.iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
            .collect(),
    );
    let document = trace::document(w.name, p.seed, &spans, &totals, layers);
    Ok(Traced {
        metrics: m,
        attempted,
        fails,
        document,
    })
}

fn client_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    lat: &crate::stats::SlicedLatencies,
    lag: &mut crate::stats::Latencies,
    totals: &PhaseTotals,
    late: u64,
    sends: u64,
) {
    let mut pooled = lat.pooled();
    m.insert("client.burst_mean_us", pooled.mean_us());
    m.insert("client.p999_us", pooled.tail_us(0.999).1);
    m.insert(
        "client.encode_ns_per_cmd",
        totals.encode_ns as f64 / totals.cmds.max(1) as f64,
    );
    // Closed loops have no schedule to be late against.
    m.insert("client.late_frac", late as f64 / sends.max(1) as f64);
    m.insert(
        "client.sched_lag_p99_us",
        if lag.is_empty() {
            0.0
        } else {
            lag.tail_us(0.99).1
        },
    );
}

fn server_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    before: &Scrape,
    after: &Scrape,
    win: &WindowStats,
) {
    let us = |name: &str, want: &[(&str, &str)]| {
        mean_between(before, after, name, want).map_or(0.0, |s| s * 1e6)
    };
    for (stage, metric) in STAGES {
        m.insert(
            metric,
            us("slimio_write_stage_seconds", &[("stage", stage)]),
        );
    }
    m.insert(
        "server.write_e2e_us_mean",
        us("slimio_write_e2e_seconds", &[]),
    );
    m.insert("server.read_us_mean", us("slimio_read_seconds", &[]));
    let batches = delta(before, after, "slimio_write_batches_total", &[]);
    let cmds = delta(before, after, "slimio_write_batch_commands_total", &[]);
    m.insert(
        "server.batch_cmds_mean",
        if batches > 0.0 { cmds / batches } else { 0.0 },
    );
    m.insert("govern.queue_hwm", after.max("slimio_shard_queue_hwm"));
    m.insert(
        "govern.busy_refused",
        after.sum("slimio_busy_refused_total", &[]),
    );
    let kops = win.ops.max(1) as f64 / 1000.0;
    m.insert(
        "nvme.write_cmds_per_kop",
        delta(before, after, "slimio_device_write_commands_total", &[]) / kops,
    );
    m.insert(
        "nvme.host_pages_per_kop",
        delta(before, after, "slimio_device_host_pages_total", &[]) / kops,
    );
}
