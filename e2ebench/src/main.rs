//! End-to-end benchmark of the sharing-aware LLC reproduction.
//!
//! ```text
//! e2ebench --workload <quick-campaign|serve-warm-mix|session-stream>
//!          --seed <n> --seconds <s> --trace <0|1> [--write-goldens]
//! ```
//!
//! With `--trace 0` the run is untraced and reports the end-to-end
//! metrics; with `--trace 1` it reports the per-layer breakdown (see
//! `layers`). The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--write-goldens`
//! regenerates the workload's reference digests under `goldens/` instead
//! of measuring. See README.md for the workloads and metrics.

mod campaign;
mod layers;
mod serve_mix;
mod serve_probes;
mod session;
mod util;

use std::process::ExitCode;

use util::Outcome;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_goldens: bool,
}

const USAGE: &str = "usage: e2ebench --workload <quick-campaign|serve-warm-mix|session-stream> \
--seed <n> --seconds <s> --trace <0|1> [--write-goldens]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        write_goldens: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-goldens" {
            args.write_goldens = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Build facts recorded with every result, so runs stay comparable.
fn provenance() -> String {
    let threads = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host_threads={threads} commit={} profile={profile}",
        commit().unwrap_or_else(|| "unknown".into())
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (a checkout without git metadata has none).
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => std::fs::read_to_string(std::path::Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
    }
}

fn render_result(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            // A value that is not finite is not valid JSON; report it as
            // a failure instead of printing it.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let command = format!(
        "cargo run --release --manifest-path e2ebench/Cargo.toml -- --workload {} --write-goldens",
        args.workload
    );
    let result = match (args.workload.as_str(), args.write_goldens) {
        ("quick-campaign", true) => campaign::write(&command).map(|()| None),
        ("serve-warm-mix", true) => serve_mix::write(&command).map(|()| None),
        ("session-stream", true) => session::write(&command).map(|()| None),
        ("quick-campaign", false) => campaign::run(args.seed, args.seconds, args.trace).map(Some),
        ("serve-warm-mix", false) => serve_mix::run(args.seed, args.seconds, args.trace).map(Some),
        ("session-stream", false) => session::run(args.seed, args.seconds, args.trace).map(Some),
        (other, _) => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let mut out = match result {
        Ok(Some(out)) => out,
        Ok(None) => {
            println!("goldens for {} written", args.workload);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.failed += 1;
            out.notes
                .push(format!("FAILED: metric {} is not finite", m.name));
        }
    }
    println!(
        "# {} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        provenance()
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        // Scientific notation keeps sub-microsecond values readable.
        if m.value != 0.0 && m.value.abs() < 1e-3 {
            println!("{:<36} {:>16.4e} {}", m.name, m.value, m.unit);
        } else {
            println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    println!("{}", render_result(&out));
    ExitCode::SUCCESS
}
