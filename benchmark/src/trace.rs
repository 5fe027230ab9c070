//! Spans recorded from outside the server: the generator's view of each
//! burst (encode → send → wait → parse) and one span per layer probe.
//!
//! Spans are kept in memory and written when the run ends. A traced
//! window produces far more bursts than a trace file needs, so each
//! connection keeps the spans of its first [`KEEP_BURSTS`] bursts and
//! only totals for the rest; the totals cover every burst.

use std::borrow::Cow;
use std::time::Instant;

use crate::json::Json;

/// Bursts per connection whose spans are kept verbatim.
pub const KEEP_BURSTS: usize = 2_000;

/// One timed interval. `parent` is the `id` of the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    /// Spans of one burst share its id (`conn << 32 | burst number`).
    pub burst: Option<u64>,
}

impl Span {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("id", self.id)
            .with("name", &*self.name)
            .with("start_ns", self.start_ns)
            .with("end_ns", self.end_ns)
            .with("parent", self.parent.map_or(Json::Null, Json::from))
            .with("burst", self.burst.map_or(Json::Null, Json::from))
    }
}

/// Nanoseconds per phase summed over every burst of one connection.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTotals {
    pub bursts: u64,
    pub cmds: u64,
    pub encode_ns: u64,
    pub send_ns: u64,
    pub wait_ns: u64,
    pub parse_ns: u64,
}

impl PhaseTotals {
    pub fn add(&mut self, o: &PhaseTotals) {
        self.bursts += o.bursts;
        self.cmds += o.cmds;
        self.encode_ns += o.encode_ns;
        self.send_ns += o.send_ns;
        self.wait_ns += o.wait_ns;
        self.parse_ns += o.parse_ns;
    }
}

/// Per-connection span recorder, attached to a worker for a traced run.
pub struct Tracer {
    origin: Instant,
    conn: u64,
    pub spans: Vec<Span>,
    pub totals: PhaseTotals,
}

impl Tracer {
    /// `origin` is the time every `start_ns`/`end_ns` counts from.
    pub fn new(origin: Instant, conn: usize) -> Tracer {
        Tracer {
            origin,
            conn: conn as u64,
            spans: Vec::with_capacity(KEEP_BURSTS * 5),
            totals: PhaseTotals::default(),
        }
    }

    /// Drops what warm-up recorded, so a window's trace is its own.
    pub fn reset(&mut self) {
        self.spans.clear();
        self.totals = PhaseTotals::default();
    }

    /// Records one burst of `cmds` commands from its five timestamps.
    pub fn burst(
        &mut self,
        cmds: usize,
        t_enc: Instant,
        t_send: Instant,
        t_sent: Instant,
        t_first: Instant,
        t_done: Instant,
    ) {
        let ns = |a: Instant, b: Instant| b.saturating_duration_since(a).as_nanos() as u64;
        let t = &mut self.totals;
        t.bursts += 1;
        t.cmds += cmds as u64;
        t.encode_ns += ns(t_enc, t_send);
        t.send_ns += ns(t_send, t_sent);
        t.wait_ns += ns(t_sent, t_first);
        t.parse_ns += ns(t_first, t_done);
        if t.bursts as usize > KEEP_BURSTS {
            return;
        }
        let burst = self.conn << 32 | t.bursts;
        let at = |i: Instant| ns(self.origin, i);
        // Ids are unique across connections: burst id × 8 + position.
        let root = burst * 8;
        let mut push = |k: u64, name: &'static str, a: Instant, b: Instant, parent: Option<u64>| {
            self.spans.push(Span {
                id: root + k,
                name: Cow::Borrowed(name),
                start_ns: at(a),
                end_ns: at(b),
                parent,
                burst: Some(burst),
            });
        };
        push(0, "client.burst", t_enc, t_done, None);
        push(1, "client.encode", t_enc, t_send, Some(root));
        push(2, "client.send", t_send, t_sent, Some(root));
        push(3, "client.wait", t_sent, t_first, Some(root));
        push(4, "client.parse", t_first, t_done, Some(root));
    }
}

/// Spans of the layer probes: one root per layer, one child per timed
/// phase. Ids live above every burst span id.
pub struct ProbeSpans {
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl ProbeSpans {
    pub fn new(origin: Instant) -> ProbeSpans {
        ProbeSpans {
            origin,
            next_id: 1 << 62,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records `[start, end]` under `parent`; returns the new span's id.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, parent: Option<u64>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let at = |i: Instant| i.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            name: Cow::Owned(name.to_string()),
            start_ns: at(start),
            end_ns: at(end),
            parent,
            burst: None,
        });
        id
    }
}

/// Self time per span name, summed over the root spans (those without
/// a parent): a span's duration minus what its children cover.
pub fn root_self_times_ns(spans: &[Span]) -> Vec<(String, u64)> {
    let mut covered: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *covered.entry(parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut by_name: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        let own = s.end_ns.saturating_sub(s.start_ns);
        let children = covered.get(&s.id).copied().unwrap_or(0);
        *by_name.entry(&s.name).or_default() += own.saturating_sub(children);
    }
    by_name
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// The trace document written to `benchmark/out/trace-<workload>.json`.
pub fn document(
    workload: &str,
    seed: u64,
    spans: &[Span],
    totals: &PhaseTotals,
    extra: Json,
) -> Json {
    Json::obj()
        .with("workload", workload)
        .with("seed", seed)
        .with("time_origin", "process start, monotonic clock, nanoseconds")
        .with(
            "client_totals",
            Json::obj()
                .with("bursts", totals.bursts)
                .with("cmds", totals.cmds)
                .with("encode_ns", totals.encode_ns)
                .with("send_ns", totals.send_ns)
                .with("wait_ns", totals.wait_ns)
                .with("parse_ns", totals.parse_ns),
        )
        .with(
            "spans_kept_per_connection",
            format!("first {KEEP_BURSTS} bursts; client_totals cover all"),
        )
        .with("layers", extra)
        .with(
            "root_span_self_time_ns",
            Json::Obj(
                root_self_times_ns(spans)
                    .into_iter()
                    .map(|(name, ns)| (name, Json::from(ns)))
                    .collect(),
            ),
        )
        .with("spans", spans.iter().map(Span::to_json).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn burst_spans_nest_and_totals_cover_dropped_bursts() {
        let origin = Instant::now();
        let mut tr = Tracer::new(origin, 1);
        let t = |us: u64| origin + Duration::from_micros(us);
        for _ in 0..KEEP_BURSTS + 5 {
            tr.burst(16, t(10), t(12), t(15), t(100), t(110));
        }
        assert_eq!(tr.spans.len(), KEEP_BURSTS * 5);
        assert_eq!(tr.totals.bursts as usize, KEEP_BURSTS + 5);
        assert_eq!(tr.totals.cmds as usize, (KEEP_BURSTS + 5) * 16);
        assert_eq!(tr.totals.wait_ns as usize, (KEEP_BURSTS + 5) * 85_000);
        let root = &tr.spans[0];
        assert_eq!((&*root.name, root.parent), ("client.burst", None));
        assert_eq!((root.start_ns, root.end_ns), (10_000, 110_000));
        for child in &tr.spans[1..5] {
            assert_eq!(child.parent, Some(root.id));
            assert_eq!(child.burst, root.burst);
            assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        }
        // The four phases tile the burst exactly: no self time left.
        assert_eq!(
            root_self_times_ns(&tr.spans),
            [("client.burst".to_string(), 0)]
        );
        // Connection number is part of the burst id.
        assert_eq!(root.burst, Some(1 << 32 | 1));
    }

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut p = ProbeSpans::new(origin);
        let t = |us: u64| origin + Duration::from_micros(us);
        let root = p.record("probe.engine", t(0), t(100), None);
        p.record("probe.engine.commit", t(10), t(40), Some(root));
        p.record("probe.engine.get", t(50), t(70), Some(root));
        p.record("probe.wal", t(200), t(230), None);
        assert_eq!(
            root_self_times_ns(&p.spans),
            [
                ("probe.engine".to_string(), 50_000),
                ("probe.wal".to_string(), 30_000)
            ]
        );
    }

    #[test]
    fn document_round_trips_through_the_parser() {
        let origin = Instant::now();
        let mut tr = Tracer::new(origin, 0);
        tr.burst(1, origin, origin, origin, origin, origin);
        let doc = document("w", 7, &tr.spans, &tr.totals, Json::obj());
        let back = Json::parse(&doc.render_pretty()).unwrap();
        assert_eq!(back.get("spans").and_then(Json::as_arr).unwrap().len(), 5);
        assert_eq!(back.get("seed").and_then(Json::as_f64), Some(7.0));
    }
}
