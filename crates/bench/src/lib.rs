//! # llc-bench — the reproduction harness
//!
//! The `repro` binary regenerates every table and figure of the
//! paper-style evaluation (see `DESIGN.md` §6 for the index), and the
//! Criterion benches measure the simulator's own performance.
//!
//! ```text
//! cargo run --release -p llc-bench --bin repro -- list
//! cargo run --release -p llc-bench --bin repro -- fig7
//! cargo run --release -p llc-bench --bin repro -- --ctx quick all
//! ```

#![warn(missing_docs)]

pub mod siphash_observers;

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

use llc_serve::cli::ArgCursor;
use llc_serve::JobSpec;
use llc_sharing::{
    run_suite, ExperimentCtx, ExperimentId, ExperimentOutcome, RunError, SuiteConfig,
};

/// Parsed command line of the `repro` binary.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiments to run.
    pub ids: Vec<ExperimentId>,
    /// Execution context.
    pub ctx: ExperimentCtx,
    /// Print the experiment list and exit.
    pub list: bool,
    /// Suite harness settings (watchdog, result store, worker count).
    pub suite: SuiteConfig,
    /// Write a Chrome-trace JSON timeline of the run to this path
    /// (span tracing is enabled for the whole invocation).
    pub trace_out: Option<PathBuf>,
}

/// Error produced while parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError(message)
    }
}

/// Usage string printed on `--help` or a parse error.
pub const USAGE: &str = "\
usage: repro [OPTIONS] <experiment>... | all | list

experiments: table1 table2 fig1..fig12 table3 abl1..abl5 (see `repro list`)

options:
  --ctx <paper|quick|test>   machine + workload scale preset (default: paper)
  --scale <tiny|small|medium|large>  override the workload scale
  --apps <a,b,c>             restrict to a comma-separated app subset (run in
                             suite order, duplicates dropped)
  --threads <n>              override the core/thread count
  --store <dir>              load finished tables from, and save them to,
                             <dir>/results — the store `repro serve --store`
                             uses, keyed by the resolved run flags (not by
                             the code: after a code change use a fresh <dir>
                             or delete <dir>/results)
  --timeout <secs>           per-experiment wall-clock budget (0 disables; default 1800)
  --jobs <n>                 experiments run concurrently (0 = all cores, the
                             default; pass 1 to force sequential runs); their
                             apps share helper threads, at most twice the
                             host's hardware threads minus one
  --stream-cache-mb <n>      in-memory stream cache cap in MiB, over each
                             resident stream plus its annotation scan (12 B
                             per reference); default sized off --jobs:
                             512 MiB per job, 2 GiB floor
  --trace-out <path>         write a Chrome-trace JSON timeline of the run
                             (open in chrome://tracing or ui.perfetto.dev)
  -h, --help                 show this help

service mode: repro serve | submit | status | watch | result | cancel | stats | stop
              (see `repro serve --help`); `repro submit` resolves the run flags
              exactly as above, so both modes print byte-identical tables
";

/// Parses the `repro` command line. The run flags (`--ctx`, `--scale`,
/// `--threads`, `--apps`) fill a [`JobSpec`] and the context comes from
/// [`JobSpec::build_ctx`], so the same flags resolve to the same context
/// here and under `repro submit`.
///
/// # Errors
///
/// Returns a [`CliError`] describing the first invalid argument.
pub fn parse_cli<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, CliError> {
    let mut args = ArgCursor::new(args);
    // The spec's experiment is a placeholder: the batch runs `ids`.
    let mut spec = JobSpec::new(ExperimentId::Table1, "paper");
    let mut ids: Vec<ExperimentId> = Vec::new();
    let mut list = false;
    // The CLI defaults to all cores (`--jobs 0`); the library-level
    // `SuiteConfig::default()` stays sequential so embedders opt in.
    let mut suite = SuiteConfig {
        jobs: 0,
        ..SuiteConfig::default()
    };
    let mut stream_cache_mb: Option<u64> = None;
    let mut trace_out: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        if spec.parse_run_flag(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--ctx" => {
                let v = args.value("--ctx")?;
                if ExperimentCtx::preset(&v).is_none() {
                    return Err(CliError(format!("unknown ctx preset '{v}'")));
                }
                // A preset starts over: overrides given before it are dropped.
                spec = JobSpec::new(spec.experiment, &v);
            }
            "--store" => suite.store = Some(args.value("--store")?.into()),
            "--timeout" => {
                let secs = args.num("--timeout", "timeout", ..)?;
                suite.timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--jobs" => suite.jobs = args.num("--jobs", "job count", ..)?,
            "--stream-cache-mb" => {
                stream_cache_mb = Some(args.num("--stream-cache-mb", "cache size", 1..)?);
            }
            "--trace-out" => trace_out = Some(args.value("--trace-out")?.into()),
            "-h" | "--help" => return Err(CliError(USAGE.into())),
            "list" => list = true,
            "all" => ids.extend(ExperimentId::ALL),
            other => ids.push(
                ExperimentId::parse(other)
                    .ok_or_else(|| CliError(format!("unknown experiment '{other}'\n\n{USAGE}")))?,
            ),
        }
    }
    if !list && ids.is_empty() {
        return Err(CliError(USAGE.into()));
    }
    // Each experiment runs once, at its first mention.
    let mut seen = HashSet::new();
    ids.retain(|&id| seen.insert(id));
    // Bound the shared stream cache: an explicit --stream-cache-mb wins,
    // otherwise the default is sized off the suite's concurrency.
    let limit = stream_cache_mb.map_or_else(
        || llc_sharing::StreamCache::default_limit(suite.effective_jobs()),
        |mb| mb << 20,
    );
    let ctx = spec.build_ctx();
    ctx.streams.set_limit(Some(limit));
    Ok(Cli {
        ids,
        ctx,
        list,
        suite,
        trace_out,
    })
}

/// Renders the experiment list.
pub fn experiment_list() -> String {
    let mut out = String::from("available experiments:\n");
    for id in ExperimentId::ALL {
        out.push_str(&format!("  {:<8} {}\n", id.label(), id.description()));
    }
    out
}

/// Runs the parsed experiments under the crash-isolating suite harness.
/// Returns the rendered report and the number of failed experiments.
///
/// # Errors
///
/// Fails only if the `--store` result store cannot be opened; failures
/// *inside* experiments become `FAILED` rows in the rendered report.
pub fn run_cli(cli: &Cli) -> Result<(String, usize), RunError> {
    let mut out = String::new();
    if cli.list {
        out.push_str(&experiment_list());
    }
    let report = run_suite(&cli.ids, &cli.ctx, &cli.suite)?;
    for (id, outcome) in &report.outcomes {
        match outcome {
            ExperimentOutcome::Completed { tables, elapsed } => {
                for table in tables {
                    out.push_str(&table.to_string());
                    out.push('\n');
                }
                out.push_str(&format!("[{} finished in {:.1?}]\n\n", id.label(), elapsed));
            }
            ExperimentOutcome::Resumed { tables } => {
                for table in tables {
                    out.push_str(&table.to_string());
                    out.push('\n');
                }
                out.push_str(&format!(
                    "[{} loaded from the result store]\n\n",
                    id.label()
                ));
            }
            ExperimentOutcome::Failed { reason } => {
                out.push_str(&format!("[{} FAILED: {reason}]\n\n", id.label()));
            }
        }
    }
    if report.failed() > 0 || !report.checkpoint_errors.is_empty() {
        out.push_str(&report.summary().to_string());
        out.push('\n');
    }
    Ok((out, report.failed()))
}

/// Where a bench writes its `BENCH_*.json` report: the path in the
/// environment variable `var` when one is named and set, else `file` at
/// the [`workspace_root`] — resolved when the bench runs, so a binary
/// built in one checkout and run in another writes into the one it runs
/// in.
pub fn bench_report_path(var: Option<&str>, file: &str) -> PathBuf {
    match var.and_then(std::env::var_os) {
        Some(path) => path.into(),
        None => workspace_root().join(file),
    }
}

/// The nearest ancestor of the current directory (itself included)
/// whose `Cargo.toml` declares a `[workspace]`, or the current directory
/// if none does. `cargo bench` runs a bench from its package directory,
/// so this is the root of the checkout it runs in.
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|line| line.trim() == "[workspace]"))
        })
        .map_or_else(|| cwd.clone(), Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_trace::App;

    #[test]
    fn bench_reports_land_at_the_root_of_the_running_checkout() {
        // `cargo test` runs this from the package directory, two levels
        // below the workspace root.
        let root = workspace_root();
        assert!(root.join("crates/bench/Cargo.toml").is_file(), "{root:?}");
        assert_eq!(
            bench_report_path(None, "BENCH_x.json"),
            root.join("BENCH_x.json")
        );
        assert_eq!(
            bench_report_path(Some("LLC_BENCH_UNSET_REPORT_VAR"), "BENCH_x.json"),
            root.join("BENCH_x.json")
        );
    }

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_single_experiment() {
        let cli = parse_cli(args("fig7")).unwrap();
        assert_eq!(cli.ids, vec![ExperimentId::Fig7]);
        assert!(!cli.list);
        // Each experiment runs once, at its first mention, repeats
        // adjacent or not.
        let cli = parse_cli(args("table1 table3 table1 table3 table3")).unwrap();
        assert_eq!(cli.ids, vec![ExperimentId::Table1, ExperimentId::Table3]);
        let cli = parse_cli(args("all fig1")).unwrap();
        assert_eq!(cli.ids, ExperimentId::ALL.to_vec());
        let cli = parse_cli(args("fig1 all")).unwrap();
        assert_eq!(cli.ids.len(), ExperimentId::ALL.len());
        assert_eq!(cli.ids[0], ExperimentId::Fig1);
    }

    #[test]
    fn parses_all_and_presets() {
        let cli = parse_cli(args("--ctx quick all")).unwrap();
        assert_eq!(cli.ids.len(), ExperimentId::ALL.len());
        assert_eq!(cli.ctx.llc_capacities, vec![1 << 20, 2 << 20]);
    }

    #[test]
    fn parses_app_subset_and_threads() {
        let cli = parse_cli(args("--apps fft,water --threads 4 fig1")).unwrap();
        assert_eq!(cli.ctx.apps, vec![App::Fft, App::Water]);
        assert_eq!(cli.ctx.cores, 4);
        // Duplicated, out-of-order apps resolve exactly like the daemon's
        // job spec: suite order, each app once.
        let cli = parse_cli(args("--ctx test --apps fft,dedup,fft --threads 2 fig7")).unwrap();
        let daemon = JobSpec::from_json_text(
            r#"{"experiment":"fig7","preset":"test","apps":["fft","dedup","fft"],"threads":2}"#,
        )
        .unwrap()
        .build_ctx();
        assert_eq!(cli.ctx.apps, daemon.apps);
        assert_eq!(cli.ctx.apps, vec![App::Dedup, App::Fft]);
        assert_eq!(cli.ctx.cores, daemon.cores);
        assert_eq!(cli.ctx.scale, daemon.scale);
        assert_eq!(cli.ctx.llc_capacities, daemon.llc_capacities);
    }

    #[test]
    fn rejects_unknown_tokens() {
        assert!(parse_cli(args("bogus")).is_err());
        assert!(parse_cli(args("--apps nope fig1")).is_err());
        assert!(parse_cli(args("--threads 0 fig1")).is_err());
        assert!(parse_cli(args("")).is_err());
        assert!(parse_cli(args("--timeout soon fig1")).is_err());
        assert!(parse_cli(args("--jobs many fig1")).is_err());
        assert!(
            parse_cli(args("fig1 --store")).is_err(),
            "--store needs a dir"
        );
        assert!(
            parse_cli(args("--out m.json fig1")).is_err(),
            "--store replaced the manifest flags"
        );
    }

    #[test]
    fn parses_suite_flags() {
        let cli = parse_cli(args("--store /tmp/s --timeout 60 --jobs 4 fig1")).unwrap();
        assert_eq!(cli.suite.store, Some(PathBuf::from("/tmp/s")));
        assert_eq!(cli.suite.timeout, Some(Duration::from_secs(60)));
        assert_eq!(cli.suite.jobs, 4);
        assert_eq!(parse_cli(args("fig1")).unwrap().suite.store, None);
        assert_eq!(
            parse_cli(args("fig1")).unwrap().suite.jobs,
            0,
            "all cores by default"
        );
        assert_eq!(parse_cli(args("--jobs 1 fig1")).unwrap().suite.jobs, 1);
        let cli = parse_cli(args("--timeout 0 fig1")).unwrap();
        assert_eq!(cli.suite.timeout, None, "--timeout 0 disables the watchdog");
    }

    #[test]
    fn stream_cache_flag_caps_the_shared_cache() {
        let cli = parse_cli(args("--stream-cache-mb 64 fig1")).unwrap();
        assert_eq!(cli.ctx.streams.stats().limit, Some(64 << 20));
        let cli = parse_cli(args("--jobs 1 fig1")).unwrap();
        assert_eq!(
            cli.ctx.streams.stats().limit,
            Some(llc_sharing::StreamCache::default_limit(1)),
            "sequential run: 2 GiB floor"
        );
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cli = parse_cli(args("fig1")).unwrap();
        assert_eq!(
            cli.ctx.streams.stats().limit,
            Some(llc_sharing::StreamCache::default_limit(cores)),
            "default cache cap is sized off the all-cores job count"
        );
        assert!(parse_cli(args("--stream-cache-mb 0 fig1")).is_err());
        assert!(parse_cli(args("--stream-cache-mb lots fig1")).is_err());
    }

    #[test]
    fn parses_trace_out() {
        let cli = parse_cli(args("--trace-out /tmp/trace.json fig1")).unwrap();
        assert_eq!(cli.trace_out, Some(PathBuf::from("/tmp/trace.json")));
        assert_eq!(parse_cli(args("fig1")).unwrap().trace_out, None);
        assert!(parse_cli(args("--trace-out")).is_err());
    }

    #[test]
    fn list_requires_no_ids() {
        let cli = parse_cli(args("list")).unwrap();
        assert!(cli.list);
        assert!(cli.ids.is_empty());
        assert!(experiment_list().contains("fig7"));
    }

    #[test]
    fn test_ctx_runs_an_experiment_end_to_end() {
        let mut cli = parse_cli(args("--ctx test table1")).unwrap();
        cli.ctx.apps.truncate(2);
        let (report, failed) = run_cli(&cli).expect("suite runs");
        assert_eq!(failed, 0);
        assert!(report.contains("Table 1"));
        assert!(report.contains("cores"));
    }

    #[test]
    fn a_stored_table_is_loaded_not_recomputed() {
        let dir = std::env::temp_dir().join(format!("repro-run-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = format!("--ctx test --jobs 1 --store {} table1", dir.display());
        let (first, _) = run_cli(&parse_cli(args(&cmd)).unwrap()).expect("cold run");
        assert!(first.contains("[table1 finished in "), "{first}");
        let (again, _) = run_cli(&parse_cli(args(&cmd)).unwrap()).expect("warm run");
        assert!(
            again.contains("[table1 loaded from the result store]"),
            "{again}"
        );
        assert!(!again.contains("finished in"), "{again}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
