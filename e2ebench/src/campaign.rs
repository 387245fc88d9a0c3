//! `quick-campaign`: the cold batch path of `repro --ctx test all`.
//!
//! One operation is a whole campaign: `run_suite` over all twenty
//! experiments with a fresh `ExperimentCtx::test()` (and so a fresh,
//! empty stream cache), one experiment at a time, no store. The seed
//! shuffles the experiment order; every experiment's rendered tables must
//! match `goldens/quick-campaign.digests`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use llc_sharing::{run_suite, ExperimentCtx, ExperimentId, ExperimentOutcome, SuiteConfig};

use crate::layers;
use crate::util::{
    digest_tables, median, ms_since, peak_rss_mib, read_goldens, write_goldens, Outcome, Rng,
};

const GOLDENS: &str = "quick-campaign.digests";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;

struct Campaign {
    order: Vec<ExperimentId>,
    config: SuiteConfig,
    ctx: ExperimentCtx,
}

/// Everything a campaign needs before its first experiment: a fresh
/// context with an empty stream cache, the seeded experiment order and
/// the harness configuration.
fn set_up(rng: &mut Rng) -> Campaign {
    let mut order = ExperimentId::ALL.to_vec();
    rng.shuffle(&mut order);
    Campaign {
        order,
        config: SuiteConfig {
            timeout: Some(Duration::from_secs(600)),
            jobs: 1,
            ..SuiteConfig::default()
        },
        ctx: ExperimentCtx::test(),
    }
}

/// Per-campaign observations.
struct Run {
    wall_ms: f64,
    per_experiment: Vec<(ExperimentId, f64)>,
    ctx: ExperimentCtx,
}

/// Runs one campaign and checks every experiment against its golden.
fn run_once(c: Campaign, goldens: &BTreeMap<String, u64>, out: &mut Outcome) -> Run {
    let started = Instant::now();
    let report = run_suite(&c.order, &c.ctx, &c.config);
    let wall_ms = ms_since(started);
    let mut per_experiment = Vec::new();
    match report {
        Err(e) => {
            out.attempted += c.order.len() as u64;
            for _ in &c.order {
                out.fail(format!("campaign: {e}"));
            }
        }
        Ok(report) => {
            for (id, outcome) in &report.outcomes {
                out.attempted += 1;
                match outcome {
                    ExperimentOutcome::Completed { tables, elapsed } => {
                        per_experiment.push((*id, elapsed.as_secs_f64()));
                        let got = digest_tables(tables);
                        match goldens.get(id.label()) {
                            Some(&want) if want == got => {}
                            Some(&want) => out.fail(format!(
                                "{}: tables digest {got:016x}, golden {want:016x}",
                                id.label()
                            )),
                            None => out.fail(format!("{}: no golden digest", id.label())),
                        }
                    }
                    other => out.fail(format!("{}: {other:?}", id.label())),
                }
            }
        }
    }
    Run {
        wall_ms,
        per_experiment,
        ctx: c.ctx,
    }
}

/// Regenerates the golden digests from one sequential campaign.
pub fn write(command: &str) -> Result<(), String> {
    let ctx = ExperimentCtx::test();
    let mut map = BTreeMap::new();
    for id in ExperimentId::ALL {
        let tables = llc_sharing::run_experiment(id, &ctx).map_err(|e| format!("{id:?}: {e}"))?;
        map.insert(id.label().to_string(), digest_tables(&tables));
    }
    write_goldens(GOLDENS, command, &map)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let goldens = read_goldens(GOLDENS)?;
    let mut rng = Rng::new(seed);
    let mut out = Outcome::default();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let c = set_up(&mut rng);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(c));
    }

    if trace {
        return traced(seed, seconds, &goldens, out);
    }

    let mut walls = Vec::new();
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let c = set_up(&mut rng);
        let run = run_once(c, &goldens, &mut out);
        walls.push(run.wall_ms);
    }
    let elapsed = started.elapsed().as_secs_f64();
    out.notes.push(format!("campaign walls (ms): {walls:.0?}"));
    out.notes.push(format!(
        "campaigns: {} in {elapsed:.2} s ({} experiments each, test preset: {} apps, {} cores)",
        walls.len(),
        ExperimentId::ALL.len(),
        ExperimentCtx::test().apps.len(),
        ExperimentCtx::test().cores
    ));
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("op_p50_ms", median(&walls), "ms");
    out.metric("ops_per_s", walls.len() as f64 / elapsed, "1/s");
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    Ok(out)
}

/// The traced run: untraced and traced campaigns alternate, so drift over
/// the run does not masquerade as tracing overhead; the traced ones are
/// folded into per-layer self time, and the benchmark's own timers cover
/// the layers that have no span.
fn traced(
    seed: u64,
    seconds: f64,
    goldens: &BTreeMap<String, u64>,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let mut rng = Rng::new(seed ^ 1);
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut walls = Vec::new();
    let mut per_id: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut spans = layers::SpanTotals::default();
    let mut last_ctx = None;
    while walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        untraced.push(run_once(set_up(&mut rng), goldens, &mut out).wall_ms);
        layers::start_spans();
        let run = run_once(set_up(&mut rng), goldens, &mut out);
        match layers::finish_spans() {
            Ok(t) => spans.add(&t),
            Err(e) => out.fail(e),
        }
        walls.push(run.wall_ms);
        for (id, s) in run.per_experiment {
            per_id.entry(id.label()).or_default().push(s);
        }
        last_ctx = Some(run.ctx);
    }
    let traced_ms = median(&walls);
    let n = walls.len() as f64;
    spans.scale(1.0 / n);

    // Benchmark-side timers on the same inputs as the campaign.
    let ctx = last_ctx.expect("at least one traced campaign ran");
    let probes = layers::campaign_probes(&ctx)?;

    let record_total = spans.get("record_stream");
    let synth_share = probes.synth_share();
    let layer_s = [
        ("trace.synth_s", record_total * synth_share),
        ("sim.record_s", record_total * (1.0 - synth_share)),
        ("core.annotate_s", spans.get("compute_annotations")),
        ("core.replay_s", spans.get("replay")),
        ("core.shard_merge_s", spans.get("merge shards")),
        ("core.experiment_self_s", spans.get("experiment")),
    ];
    let attributed: f64 = layer_s.iter().map(|(_, v)| v).sum();
    for (name, v) in layer_s {
        out.metric(name, v, "s");
    }
    out.metric(
        "trace.synth_ns_per_access",
        probes.synth_ns_per_access,
        "ns",
    );
    out.metric(
        "sim.record_ns_per_access",
        probes.record_ns_per_access,
        "ns",
    );
    out.metric("sim.llc_refs", probes.llc_refs as f64, "count");
    out.metric("core.annotate_ns_per_ref", probes.annotate_ns_per_ref, "ns");
    for (policy, ns) in &probes.replay_ns_per_ref {
        out.metric(format!("core.replay_ns_per_ref.{policy}"), *ns, "ns");
    }
    let stats = ctx.streams.stats();
    let lookups = stats.hits + stats.disk_hits + stats.misses;
    out.metric(
        "stream.cache_hit_ratio",
        stats.hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.metric(
        "stream.cache_mib",
        stats.bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    for id in ExperimentId::ALL {
        let v = per_id.get(id.label()).map_or(0.0, |v| median(v));
        out.metric(format!("suite.{}_s", id.label()), v, "s");
    }
    out.metric("attributed_frac", attributed / (traced_ms / 1e3), "ratio");
    out.metric(
        "trace_overhead_frac",
        traced_ms / median(&untraced) - 1.0,
        "ratio",
    );
    out.notes.push(format!(
        "traced campaigns: {} (median {traced_ms:.1} ms), untraced reference {:.1} ms",
        walls.len(),
        median(&untraced)
    ));
    layers::zero_fill(&mut out);
    Ok(out)
}
