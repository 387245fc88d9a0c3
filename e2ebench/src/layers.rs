//! The traced run's per-layer breakdown.
//!
//! Two sources feed it. The program's own `llc-telemetry` spans
//! (`experiment …`, `record_stream`, `compute_annotations`, `replay …`,
//! `shard …`, `merge shards`, `job …`) are switched on around the
//! measured operations and folded into self time per layer. Layers that
//! have no span are timed by the benchmark around single public calls on
//! the workload's own inputs ([`campaign_probes`] here, and the serve and
//! session modules' probes).

use std::collections::BTreeMap;
use std::time::Instant;

use llc_policies::PolicyKind;
use llc_sharing::json::{self, Value};
use llc_sharing::{compute_annotations, oracle_window, record_stream, replay_kind, ExperimentCtx};
use llc_telemetry::spans;
use llc_trace::TraceSource;

use crate::util::Outcome;

/// Span ring size per thread for traced runs: far above what one
/// operation records, so nothing wraps.
const RING_CAPACITY: usize = 1 << 20;

/// Every replacement policy, online ones in report order, then OPT.
fn policies() -> Vec<PolicyKind> {
    let mut v = PolicyKind::REALISTIC.to_vec();
    v.push(PolicyKind::Opt);
    v
}

/// Every per-layer metric the benchmark reports, with its unit. A
/// workload that does not exercise a layer reports it as 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("trace.synth_s", "s"),
        ("trace.synth_ns_per_access", "ns"),
        ("sim.record_s", "s"),
        ("sim.record_ns_per_access", "ns"),
        ("sim.llc_refs", "count"),
        ("core.annotate_s", "s"),
        ("core.annotate_ns_per_ref", "ns"),
        ("core.replay_s", "s"),
        ("core.shard_merge_s", "s"),
        ("core.experiment_self_s", "s"),
        ("stream.cache_hit_ratio", "ratio"),
        ("stream.cache_mib", "MiB"),
        ("trace.encode_s", "s"),
        ("trace.view_validate_s", "s"),
        ("trace.store_load_view_ms", "ms"),
        ("dag.load_replay_us", "us"),
        ("dag.save_replay_us", "us"),
        ("dag.load_annotations_ms", "ms"),
        ("dag.replay_hit_ratio", "ratio"),
        ("core.plan_ms", "ms"),
        ("serve.spec_us", "us"),
        ("serve.result_load_ms", "ms"),
        ("serve.http_rtt_ms", "ms"),
        ("serve.job_self_s", "s"),
        ("mix.warm_s", "s"),
        ("mix.hit_p50_ms", "ms"),
        ("mix.hit_p95_ms", "ms"),
        ("mix.dag_hit_p50_ms", "ms"),
        ("mix.dag_hit_p95_ms", "ms"),
        ("mix.replay_p50_ms", "ms"),
        ("mix.replay_p95_ms", "ms"),
        ("serve.batch_parse_ms", "ms"),
        ("core.online_push_ns", "ns"),
        ("session.batch_p95_ms", "ms"),
        ("session.accesses_per_s", "1/s"),
        ("attributed_frac", "ratio"),
        ("trace_overhead_frac", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for kind in policies() {
        v.push((
            format!(
                "core.replay_ns_per_ref.{}",
                kind.label().to_ascii_lowercase()
            ),
            "ns",
        ));
    }
    for id in llc_sharing::ExperimentId::ALL {
        v.push((format!("suite.{}_s", id.label()), "s"));
    }
    v
}

/// Adds every per-layer metric this workload did not measure as 0, in
/// the canonical order.
pub fn zero_fill(out: &mut Outcome) {
    let measured: BTreeMap<String, f64> = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.value))
        .collect();
    out.metrics = per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = measured.get(&name).copied().unwrap_or(0.0);
            crate::util::Metric::new(name, value, unit)
        })
        .collect();
}

/// Clears the span buffers and switches recording on.
pub fn start_spans() {
    spans::set_ring_capacity(RING_CAPACITY);
    spans::reset();
    spans::set_enabled(true);
}

/// Switches recording off and folds what was recorded. Fails if any span
/// was dropped, since a dropped span silently lowers the attribution.
pub fn finish_spans() -> Result<SpanTotals, String> {
    spans::set_enabled(false);
    let dropped = spans::dropped_events();
    if dropped > 0 {
        return Err(format!("span tracer dropped {dropped} events"));
    }
    SpanTotals::fold(&spans::chrome_trace_json())
}

#[derive(Debug, Clone)]
struct Span {
    tid: u64,
    ts: u64,
    dur: u64,
    name: String,
}

/// Self time in seconds per layer, folded from one trace.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    by_layer: BTreeMap<&'static str, f64>,
}

/// The layer a span name belongs to. `replay` is replay time on the
/// requesting thread (`replay …` and `replay_sharded …`); shard workers
/// run inside a `replay_sharded` span's wall time and are kept apart as
/// `shard`, so their busy time is not counted twice.
fn layer_of(name: &str) -> &'static str {
    match name {
        "record_stream" => "record_stream",
        "compute_annotations" => "compute_annotations",
        "merge shards" => "merge shards",
        n if n.starts_with("replay") => "replay",
        n if n.starts_with("shard ") => "shard",
        n if n.starts_with("experiment ") => "experiment",
        n if n.starts_with("job ") => "job",
        _ => "other",
    }
}

impl SpanTotals {
    /// Folds a Chrome trace-event document into per-layer self time.
    ///
    /// Self time is a span's duration minus its children on the same
    /// thread. An experiment's self time is its duration minus the union
    /// of every other span inside it on any thread, because its
    /// per-application work runs on helper threads (the suite runs one
    /// experiment at a time, so nothing else overlaps it).
    pub fn fold(chrome_json: &str) -> Result<SpanTotals, String> {
        let doc = json::parse(chrome_json).map_err(|e| format!("span trace: {e}"))?;
        let events = doc
            .field("traceEvents")
            .and_then(Value::as_array)
            .ok_or("span trace has no traceEvents")?;
        let mut all = Vec::new();
        for e in events {
            if e.field("ph").and_then(Value::as_str) != Some("X") {
                continue;
            }
            let num = |k: &str| e.field(k).and_then(Value::as_u64);
            let (Some(tid), Some(ts), Some(dur), Some(name)) = (
                num("tid"),
                num("ts"),
                num("dur"),
                e.field("name").and_then(Value::as_str),
            ) else {
                return Err("malformed span event".into());
            };
            all.push(Span {
                tid,
                ts,
                dur,
                name: name.to_string(),
            });
        }
        let mut totals = SpanTotals::default();
        // Same-thread nesting: children start inside and end inside.
        let mut by_tid: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in &all {
            by_tid.entry(s.tid).or_default().push(s);
        }
        for spans in by_tid.values_mut() {
            spans.sort_by_key(|s| (s.ts, std::cmp::Reverse(s.dur)));
            let mut stack: Vec<(u64, &'static str, f64)> = Vec::new(); // (end, layer, self)
            let close = |entry: (u64, &'static str, f64), totals: &mut SpanTotals| {
                if entry.1 != "experiment" {
                    *totals.by_layer.entry(entry.1).or_default() += entry.2;
                }
            };
            for s in spans.iter() {
                while stack.last().is_some_and(|top| top.0 <= s.ts) {
                    let top = stack.pop().expect("checked non-empty");
                    close(top, &mut totals);
                }
                let secs = s.dur as f64 / 1e6;
                if let Some(top) = stack.last_mut() {
                    top.2 -= secs;
                }
                stack.push((s.ts + s.dur, layer_of(&s.name), secs));
            }
            while let Some(top) = stack.pop() {
                close(top, &mut totals);
            }
        }
        // Cross-thread experiment self time.
        let mut others: Vec<(u64, u64)> = all
            .iter()
            .filter(|s| !matches!(layer_of(&s.name), "experiment" | "job"))
            .map(|s| (s.ts, s.ts + s.dur))
            .collect();
        others.sort_unstable();
        let mut exp_self = 0.0;
        for e in all.iter().filter(|s| layer_of(&s.name) == "experiment") {
            let (lo, hi) = (e.ts, e.ts + e.dur);
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in others.iter().filter(|&&(a, b)| b > lo && a < hi) {
                let (a, b) = (a.max(lo), b.min(hi));
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            exp_self += (e.dur - covered.min(e.dur)) as f64 / 1e6;
        }
        totals.by_layer.insert("experiment", exp_self);
        Ok(totals)
    }

    pub fn add(&mut self, other: &SpanTotals) {
        for (k, v) in &other.by_layer {
            *self.by_layer.entry(k).or_default() += v;
        }
    }

    pub fn scale(&mut self, factor: f64) {
        for v in self.by_layer.values_mut() {
            *v *= factor;
        }
    }

    /// Self time of one layer (see [`layer_of`] for the names).
    pub fn get(&self, layer: &str) -> f64 {
        self.by_layer.get(layer).copied().unwrap_or(0.0)
    }
}

/// Single-layer timings on the campaign's own inputs: the main
/// configuration's stream of every app in the context.
#[derive(Debug, Default)]
pub struct CampaignProbes {
    pub synth_ns_per_access: f64,
    pub record_ns_per_access: f64,
    pub llc_refs: u64,
    pub annotate_ns_per_ref: f64,
    pub replay_ns_per_ref: Vec<(String, f64)>,
    synth_s: f64,
    record_total_s: f64,
}

impl CampaignProbes {
    /// The share of `record_stream` time spent generating the trace,
    /// which the `record_stream` span cannot separate.
    pub fn synth_share(&self) -> f64 {
        (self.synth_s / self.record_total_s.max(f64::MIN_POSITIVE)).clamp(0.0, 1.0)
    }
}

pub fn campaign_probes(ctx: &ExperimentCtx) -> Result<CampaignProbes, String> {
    let config = ctx.main_config().map_err(|e| e.to_string())?;
    let mut p = CampaignProbes::default();
    let mut accesses = 0u64;
    let mut annotate_s = 0.0;
    let mut replay_s = vec![0.0; policies().len()];
    for &app in &ctx.apps {
        let t = Instant::now();
        let mut w = ctx.workload(app);
        while let Some(a) = w.next_access() {
            std::hint::black_box(a);
            accesses += 1;
        }
        p.synth_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let stream = record_stream(&config, ctx.workload(app)).map_err(|e| e.to_string())?;
        p.record_total_s += t.elapsed().as_secs_f64();
        p.llc_refs += stream.len() as u64;

        let t = Instant::now();
        std::hint::black_box(compute_annotations(&stream, oracle_window(&config)));
        annotate_s += t.elapsed().as_secs_f64();

        for (i, kind) in policies().into_iter().enumerate() {
            let t = Instant::now();
            let r = replay_kind(&config, kind, &stream, Vec::new()).map_err(|e| e.to_string())?;
            std::hint::black_box(r);
            replay_s[i] += t.elapsed().as_secs_f64();
        }
    }
    let refs = p.llc_refs.max(1) as f64;
    p.synth_ns_per_access = p.synth_s * 1e9 / accesses.max(1) as f64;
    p.record_ns_per_access = (p.record_total_s - p.synth_s).max(0.0) * 1e9 / accesses.max(1) as f64;
    p.annotate_ns_per_ref = annotate_s * 1e9 / refs;
    p.replay_ns_per_ref = policies()
        .into_iter()
        .zip(replay_s)
        .map(|(k, s)| (k.label().to_ascii_lowercase(), s * 1e9 / refs))
        .collect();
    Ok(p)
}
