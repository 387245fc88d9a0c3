//! Benchmark-side timers around the daemon's single layers, run on the
//! warmed store of `serve-warm-mix` after its traced period.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use llc_dag::DagStore;
use llc_serve::{Client, JobSpec, ResultStore};
use llc_sharing::plan_experiment;
use llc_trace::{write_stream, StreamStore, StreamView};

use crate::util::{median, Outcome};

/// Repetitions of each cheap probe; the median is reported.
const REPS: usize = 25;

/// Fingerprints of the `<hex>.<ext>` files in `dir`.
fn fingerprints(dir: &Path, ext: &str) -> Vec<u64> {
    let mut fps: Vec<u64> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let path = e.path();
            (path.extension()? == ext)
                .then(|| u64::from_str_radix(path.file_stem()?.to_str()?, 16).ok())
                .flatten()
        })
        .collect();
    fps.sort_unstable();
    fps
}

/// Median seconds of `f` over `REPS` calls per item.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T) -> Result<(), String>) -> Result<f64, String> {
    let mut s = Vec::with_capacity(items.len() * REPS);
    for item in items {
        for _ in 0..REPS {
            let t = Instant::now();
            f(item)?;
            s.push(t.elapsed().as_secs_f64());
        }
    }
    Ok(median(&s))
}

pub fn probe(
    client: &Client,
    store: &Path,
    specs: &[JobSpec],
    out: &mut Outcome,
) -> Result<(), String> {
    let rtt = time_each(&[()], |()| {
        client
            .request("GET", "/healthz", None)
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    out.metric("serve.http_rtt_ms", rtt * 1e3, "ms");

    let bodies: Vec<String> = specs.iter().map(|s| s.to_json().render()).collect();
    let spec_s = time_each(&bodies, |b| {
        let spec = JobSpec::from_json_text(b).map_err(|e| e.to_string())?;
        std::hint::black_box(spec.fingerprint());
        Ok(())
    })?;
    out.metric("serve.spec_us", spec_s * 1e6, "us");

    let results = ResultStore::open(store.join("results")).map_err(|e| e.to_string())?;
    let load_s = time_each(specs, |s| match results.load(s.fingerprint()) {
        Ok(Some(t)) => {
            std::hint::black_box(t);
            Ok(())
        }
        other => Err(format!("result of {} not loadable: {other:?}", s.summary())),
    })?;
    out.metric("serve.result_load_ms", load_s * 1e3, "ms");

    let dag = DagStore::open(store.join("dag")).map_err(|e| e.to_string())?;
    let plan_s = time_each(specs, |s| {
        std::hint::black_box(plan_experiment(s.experiment, &s.build_ctx(), Some(&dag)));
        Ok(())
    })?;
    out.metric("core.plan_ms", plan_s * 1e3, "ms");

    let streams = StreamStore::open(store.join("streams")).map_err(|e| e.to_string())?;
    let stream_fps = fingerprints(streams.dir(), "llcs");
    if stream_fps.is_empty() {
        return Err("warmed store holds no streams".into());
    }
    let view_s = time_each(&stream_fps, |&fp| match streams.load_view(fp) {
        Ok(Some(v)) => {
            std::hint::black_box(v);
            Ok(())
        }
        other => Err(format!("stream {fp:016x} not loadable: {other:?}")),
    })?;
    out.metric("trace.store_load_view_ms", view_s * 1e3, "ms");

    let arenas: Vec<Arc<[u8]>> = stream_fps
        .iter()
        .map(|&fp| fs::read(streams.path_for(fp)).map(Arc::from))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let validate_s = time_each(&arenas, |a| {
        StreamView::new(Arc::clone(a))
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    out.metric("trace.view_validate_s", validate_s, "s");

    let owned = arenas
        .iter()
        .map(|a| StreamView::new(Arc::clone(a)).and_then(|v| v.to_owned_stream()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let encode_s = time_each(&owned, |s| {
        let mut sink = Vec::new();
        write_stream(s, &mut sink).map_err(|e| e.to_string())?;
        std::hint::black_box(sink);
        Ok(())
    })?;
    out.metric("trace.encode_s", encode_s, "s");

    let replay_fps = fingerprints(&dag.root().join("replays"), "llcr");
    let ann_fps = fingerprints(&dag.root().join("ann"), "llca");
    if replay_fps.is_empty() || ann_fps.is_empty() {
        return Err("warmed store holds no DAG replay or annotation artifacts".into());
    }
    let load_replay_s = time_each(&replay_fps, |&fp| {
        dag.load_replay(fp)
            .map(|r| drop(std::hint::black_box(r)))
            .ok_or_else(|| format!("replay artifact {fp:016x} not loadable"))
    })?;
    out.metric("dag.load_replay_us", load_replay_s * 1e6, "us");

    let scratch_dag =
        DagStore::open(store.with_extension("probe-dag")).map_err(|e| e.to_string())?;
    let records: Vec<_> = replay_fps
        .iter()
        .filter_map(|&fp| dag.load_replay(fp).map(|r| (fp, r)))
        .collect();
    let save_s = time_each(&records, |(fp, r)| {
        scratch_dag.save_replay(*fp, r).map_err(|e| e.to_string())
    });
    let _ = fs::remove_dir_all(scratch_dag.root());
    out.metric("dag.save_replay_us", save_s? * 1e6, "us");

    let ann_s = time_each(&ann_fps, |&fp| {
        dag.load_annotations(fp)
            .map(|a| drop(std::hint::black_box(a)))
            .ok_or_else(|| format!("annotation artifact {fp:016x} not loadable"))
    })?;
    out.metric("dag.load_annotations_ms", ann_s * 1e3, "ms");
    Ok(())
}
