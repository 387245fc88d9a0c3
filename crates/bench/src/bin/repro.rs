//! Regenerates the paper-style tables and figures. See `repro --help`.

use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Service verbs (serve/submit/status/…) go to the llc-serve layer;
    // everything else is the classic batch experiment runner.
    if args
        .first()
        .is_some_and(|v| llc_serve::cli::is_serve_verb(v))
    {
        let command = match llc_serve::cli::parse(&args) {
            Ok(command) => command,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        match llc_serve::cli::run(&command) {
            Ok(out) => {
                print!("{out}");
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    let cli = match llc_bench::parse_cli(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if cli.list {
        print!("{}", llc_bench::experiment_list());
    }
    if cli.trace_out.is_some() {
        llc_telemetry::spans::set_enabled(true);
    }
    // Sequential runs stream experiment by experiment so long campaigns
    // show progress even when stdout is redirected. Parallel runs
    // (--jobs != 1) must hand the whole id list to one suite invocation —
    // the worker pool lives inside run_suite, so a per-id loop would
    // serialize it back down to one experiment at a time.
    let mut failures = 0;
    let batches: Vec<Vec<llc_sharing::ExperimentId>> = if cli.suite.jobs == 1 {
        cli.ids.iter().map(|&id| vec![id]).collect()
    } else {
        vec![cli.ids.clone()]
    };
    let mut batch_cli = cli.clone();
    batch_cli.list = false;
    for ids in batches {
        batch_cli.ids = ids;
        match llc_bench::run_cli(&batch_cli) {
            Ok((out, failed)) => {
                failures += failed;
                print!("{out}");
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &cli.trace_out {
        // Guarded experiment threads have all exited (or been abandoned
        // after their watchdog fired) by now, so the retired buffers
        // hold the full timeline.
        llc_telemetry::spans::set_enabled(false);
        let json = llc_telemetry::spans::chrome_trace_json();
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: writing trace to {}: {e}", path.display());
            std::process::exit(1);
        }
        let dropped = llc_telemetry::spans::dropped_events();
        if dropped > 0 {
            eprintln!("[trace: {dropped} span(s) dropped by ring-buffer caps]");
        }
        eprintln!(
            "[trace written to {} — open in chrome://tracing or ui.perfetto.dev]",
            path.display()
        );
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}
