//! The service subcommands of the `repro` binary:
//!
//! ```text
//! repro serve  --listen 127.0.0.1:7119 --store ./llc-store --jobs 8
//! repro submit fig7 --preset test [--watch]
//! repro status 1 | repro watch 1 | repro result 1 | repro cancel 1
//! repro stats  | repro stop
//! ```
//!
//! Everything speaks the daemon's JSON API through [`Client`]; `serve`
//! hosts the daemon in-process. The batch runner (`llc_bench::parse_cli`)
//! and `repro submit` read their flags through one [`ArgCursor`] and
//! their run flags through [`JobSpec::parse_run_flag`], and both resolve
//! the context through [`JobSpec::build_ctx`]: `--apps` is put in suite
//! order with duplicates dropped, so the same flags print byte-identical
//! tables in batch mode and from the daemon.

use std::ops::RangeBounds;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use llc_ingest::{ingest_fingerprint, IngestFormat, IngestSource};
use llc_sharing::json::{table_from_json, Value};
use llc_sharing::{ExperimentCtx, ExperimentId};
use llc_sim::HierarchyConfig;
use llc_trace::atomic_write;

use crate::chaos::ChaosPlan;
use crate::client::{job_id_of, Client};
use crate::gc;
use crate::jobs::JobId;
use crate::server::{Server, ServerConfig};
use crate::spec::{JobSpec, DEADLINE_SECS};
use crate::store::Store;
use crate::ServeError;

/// The default daemon address used when `--addr`/`--listen` is omitted.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7119";

/// The default persistent store directory.
pub const DEFAULT_STORE: &str = "llc-store";

/// Usage text for the service subcommands.
pub const USAGE: &str = "\
service subcommands:
  repro serve [--listen ADDR] [--store DIR] [--jobs N] [--timeout SECS]
              [--stream-cache-mb MB] [--max-queue N] [--max-inflight N]
              [--max-conns N] [--grace SECS] [--store-cap-mb MB]
              [--chaos-seed N]
      host the simulation daemon (default listen 127.0.0.1:7119,
      store ./llc-store, one worker per hardware thread, 1800 s
      per-job watchdog; --jobs N overrides the worker count;
      submissions past --max-queue/--max-inflight get HTTP 429;
      --store-cap-mb enables background LRU store GC; on stop the
      daemon drains for --grace seconds and checkpoints queued specs;
      --chaos-seed injects deterministic faults — testing only)
  repro submit <experiment> [--preset paper|quick|test] [--scale S]
              [--threads N] [--apps a,b,c] [--deadline SECS]
              [--addr ADDR] [--watch]
      submit a job (with --watch: wait and print its tables;
      --deadline bounds the job's queue + run time server-side);
      the run flags resolve exactly as in batch mode (--apps in suite
      order, duplicates dropped), so the tables are byte-identical
  repro status <id>   [--addr ADDR]   job state
  repro watch  <id>   [--addr ADDR] [--deadline SECS]   wait for a job
  repro result <id>   [--addr ADDR]   print a finished job's tables
  repro cancel <id>   [--addr ADDR]   cancel a job
  repro stats         [--addr ADDR]   store/service counters (JSON)
  repro stop          [--addr ADDR]   shut the daemon down (drains)
  repro explain <spec.json> [--store DIR | --addr ADDR]
      resolve a job spec against the artifact DAG and print the plan:
      per-node kind, fingerprint, hit/miss and stored bytes. With
      --addr the running daemon answers (POST /plan, sees its live
      stream cache); otherwise the store directory is read offline
  repro gc [--store DIR] [--store-cap-mb MB] [--verify]
      offline store sweep: --verify quarantines corrupt entries,
      --store-cap-mb evicts least-recently-used entries to fit;
      also walks session checkpoints and ingested streams
  repro ingest <file> [--format champsim-csv|llcb|cachegrind]
              [--cores N] [--llc-mib M] [--store DIR | --out FILE]
              [--replay]
      convert a foreign trace into a recorded .llcs stream through
      the normal recording pipeline (format auto-detected from the
      extension: .csv/.llcb/.cg). With --store the stream lands in
      the daemon store under its content fingerprint; with --out it
      goes to that file; otherwise next to the input. --replay then
      replays every realistic policy over it and prints the table
";

/// A parsed service subcommand.
#[derive(Debug, Clone)]
pub enum ServeCommand {
    /// Host the daemon.
    Serve(ServerConfig),
    /// Submit a job, optionally waiting for its tables.
    Submit {
        /// Daemon address.
        addr: String,
        /// The job to submit.
        spec: JobSpec,
        /// Wait for completion and print the tables.
        watch: bool,
    },
    /// Print a job's status document.
    Status {
        /// Daemon address.
        addr: String,
        /// The job.
        id: JobId,
    },
    /// Wait for a job to reach a terminal state.
    Watch {
        /// Daemon address.
        addr: String,
        /// The job.
        id: JobId,
        /// Give up after this long.
        deadline: Duration,
    },
    /// Print a finished job's tables.
    Result {
        /// Daemon address.
        addr: String,
        /// The job.
        id: JobId,
    },
    /// Cancel a job.
    Cancel {
        /// Daemon address.
        addr: String,
        /// The job.
        id: JobId,
    },
    /// Print the store/service counters.
    Stats {
        /// Daemon address.
        addr: String,
    },
    /// Ask the daemon to shut down.
    Stop {
        /// Daemon address.
        addr: String,
    },
    /// Print a spec's DAG plan (hit/miss per artifact node).
    Explain {
        /// Path of the JSON job spec to plan.
        spec_path: PathBuf,
        /// Ask a running daemon instead of reading the store offline.
        addr: Option<String>,
        /// The store root for offline planning.
        store: PathBuf,
    },
    /// Convert a foreign trace into a recorded `.llcs` stream.
    Ingest {
        /// The foreign trace file.
        input: PathBuf,
        /// Trace format; `None` auto-detects from the extension.
        format: Option<IngestFormat>,
        /// Core count of the recording hierarchy (also the accepted
        /// core-id range of the trace).
        cores: usize,
        /// LLC size of the recording hierarchy, in MiB.
        llc_mib: u64,
        /// Save into this daemon store (under `streams/`, keyed by the
        /// ingest content fingerprint).
        store: Option<PathBuf>,
        /// Save to this exact file instead.
        out: Option<PathBuf>,
        /// Replay every realistic policy over the ingested stream and
        /// print the stats table.
        replay: bool,
    },
    /// Sweep a store directory offline (verify and/or evict to a cap).
    Gc {
        /// The store root (`streams/` + `results/` live under it).
        store: PathBuf,
        /// Byte budget to evict down to; `None` skips eviction.
        cap: Option<u64>,
        /// Quarantine entries that fail verification.
        verify: bool,
    },
}

/// `true` if `verb` names a service subcommand this module handles.
pub fn is_serve_verb(verb: &str) -> bool {
    matches!(
        verb,
        "serve"
            | "submit"
            | "status"
            | "watch"
            | "result"
            | "cancel"
            | "stats"
            | "stop"
            | "explain"
            | "gc"
            | "ingest"
    )
}

/// A cursor over command-line arguments: the one flag reader of the
/// batch runner and the service subcommands. Iterating yields the next
/// token; [`ArgCursor::value`] and [`ArgCursor::num`] take a flag's value.
#[derive(Debug)]
pub struct ArgCursor(std::vec::IntoIter<String>);

impl ArgCursor {
    /// A cursor positioned before the first of `args`.
    pub fn new(args: impl IntoIterator<Item = String>) -> ArgCursor {
        ArgCursor(args.into_iter().collect::<Vec<_>>().into_iter())
    }

    /// Takes the value following `flag`.
    ///
    /// # Errors
    ///
    /// `"{flag} needs a value"` when the arguments end first.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// Takes the value following `flag` as a number inside `range`.
    ///
    /// # Errors
    ///
    /// `"bad {what} '{value}'"` when the value does not parse or falls
    /// outside `range`, or the [`ArgCursor::value`] error when it is missing.
    pub fn num<T: FromStr + PartialOrd>(
        &mut self,
        flag: &str,
        what: &str,
        range: impl RangeBounds<T>,
    ) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse()
            .ok()
            .filter(|n| range.contains(n))
            .ok_or_else(|| format!("bad {what} '{v}'"))
    }
}

impl Iterator for ArgCursor {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// Parses a service subcommand (the first argument must satisfy
/// [`is_serve_verb`]).
///
/// # Errors
///
/// Returns a human-readable message (often [`USAGE`]) for the first
/// invalid argument.
pub fn parse(args: &[String]) -> Result<ServeCommand, String> {
    let (verb, rest) = args.split_first().ok_or(USAGE)?;
    let mut args = ArgCursor::new(rest.iter().cloned());
    let mut addr = DEFAULT_ADDR.to_string();
    let mut positional: Vec<String> = Vec::new();
    let unknown = |flag: &str| format!("unknown {verb} flag '{flag}'\n\n{USAGE}");
    match verb.as_str() {
        "serve" => {
            let mut config = ServerConfig::new(DEFAULT_ADDR, DEFAULT_STORE);
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--listen" => config.listen = args.value("--listen")?,
                    "--store" => config.store_dir = args.value("--store")?.into(),
                    "--jobs" => config.jobs = args.num("--jobs", "job count", 1..)?,
                    "--timeout" => {
                        let secs = args.num("--timeout", "timeout", ..)?;
                        config.timeout = (secs > 0).then(|| Duration::from_secs(secs));
                    }
                    "--stream-cache-mb" => {
                        let mb: u64 = args.num("--stream-cache-mb", "cache size", 1..)?;
                        config.stream_cache_limit = Some(mb << 20);
                    }
                    "--max-queue" => {
                        config.max_queue = args.num("--max-queue", "queue bound", 1..)?;
                    }
                    "--max-inflight" => {
                        config.max_inflight = args.num("--max-inflight", "in-flight bound", 1..)?;
                    }
                    "--max-conns" => {
                        config.max_connections =
                            args.num("--max-conns", "connection bound", 1..)?;
                    }
                    "--grace" => {
                        config.grace = Duration::from_secs(args.num("--grace", "grace", ..)?);
                    }
                    "--store-cap-mb" => {
                        let mb: u64 = args.num("--store-cap-mb", "store cap", ..)?;
                        config.store_cap = Some(mb << 20);
                    }
                    "--chaos-seed" => {
                        let seed = args.num("--chaos-seed", "chaos seed", ..)?;
                        config.chaos = Some(Arc::new(ChaosPlan::from_seed(seed)));
                    }
                    other => return Err(unknown(other)),
                }
            }
            return Ok(ServeCommand::Serve(config));
        }
        "gc" => {
            let mut store = PathBuf::from(DEFAULT_STORE);
            let mut cap = None;
            let mut verify = false;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--store" => store = args.value("--store")?.into(),
                    "--store-cap-mb" => {
                        cap = Some(args.num::<u64>("--store-cap-mb", "store cap", ..)? << 20);
                    }
                    "--verify" => verify = true,
                    other => return Err(unknown(other)),
                }
            }
            if cap.is_none() && !verify {
                return Err(format!(
                    "gc needs --store-cap-mb and/or --verify (otherwise it has nothing to do)\n\n{USAGE}"
                ));
            }
            return Ok(ServeCommand::Gc { store, cap, verify });
        }
        "ingest" => {
            let mut format = None;
            let mut cores = 8usize;
            let mut llc_mib = 4u64;
            let mut store = None;
            let mut out = None;
            let mut replay = false;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--format" => {
                        let v = args.value("--format")?;
                        format = Some(
                            IngestFormat::from_name(&v)
                                .ok_or_else(|| format!("unknown ingest format '{v}'"))?,
                        );
                    }
                    "--cores" => {
                        cores = args.num("--cores", "core count", 1..=llc_sim::MAX_CORES)?;
                    }
                    "--llc-mib" => llc_mib = args.num("--llc-mib", "LLC size", 1..)?,
                    "--store" => store = Some(PathBuf::from(args.value("--store")?)),
                    "--out" => out = Some(PathBuf::from(args.value("--out")?)),
                    "--replay" => replay = true,
                    other if other.starts_with("--") => return Err(unknown(other)),
                    other => positional.push(other.to_string()),
                }
            }
            if store.is_some() && out.is_some() {
                return Err(format!(
                    "--store and --out are mutually exclusive\n\n{USAGE}"
                ));
            }
            let [input] = positional.as_slice() else {
                return Err(format!("ingest needs exactly one trace file\n\n{USAGE}"));
            };
            return Ok(ServeCommand::Ingest {
                input: input.into(),
                format,
                cores,
                llc_mib,
                store,
                out,
                replay,
            });
        }
        "explain" => {
            let mut store = PathBuf::from(DEFAULT_STORE);
            let mut explain_addr = None;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--store" => store = args.value("--store")?.into(),
                    "--addr" => explain_addr = Some(args.value("--addr")?),
                    other if other.starts_with("--") => return Err(unknown(other)),
                    other => positional.push(other.to_string()),
                }
            }
            let [spec_path] = positional.as_slice() else {
                return Err(format!("explain needs exactly one spec file\n\n{USAGE}"));
            };
            return Ok(ServeCommand::Explain {
                spec_path: spec_path.into(),
                addr: explain_addr,
                store,
            });
        }
        "submit" => {
            let mut spec = JobSpec::new(ExperimentId::Table1, "paper");
            let mut watch = false;
            while let Some(arg) = args.next() {
                if spec.parse_run_flag(&arg, &mut args)? {
                    continue;
                }
                match arg.as_str() {
                    "--addr" => addr = args.value("--addr")?,
                    "--preset" => {
                        let v = args.value("--preset")?;
                        if ExperimentCtx::preset(&v).is_none() {
                            return Err(format!("unknown preset '{v}'"));
                        }
                        spec.preset = v;
                    }
                    "--deadline" => {
                        spec.deadline_secs =
                            Some(args.num("--deadline", "deadline", DEADLINE_SECS)?);
                    }
                    "--watch" => watch = true,
                    other => positional.push(other.to_string()),
                }
            }
            let [experiment] = positional.as_slice() else {
                return Err(format!("submit needs exactly one experiment\n\n{USAGE}"));
            };
            spec.experiment = ExperimentId::parse(experiment)
                .ok_or_else(|| format!("unknown experiment '{experiment}'"))?;
            return Ok(ServeCommand::Submit { addr, spec, watch });
        }
        _ => {}
    }
    // The remaining verbs share the `[id] --addr --deadline` shape.
    let mut deadline = Duration::from_secs(3600);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.value("--addr")?,
            "--deadline" => {
                deadline = Duration::from_secs(args.num("--deadline", "deadline", ..)?);
            }
            other => positional.push(other.to_string()),
        }
    }
    let job_id = |positional: &[String]| -> Result<JobId, String> {
        let [id] = positional else {
            return Err(format!("{verb} needs exactly one job id\n\n{USAGE}"));
        };
        id.parse::<u64>()
            .map(JobId)
            .map_err(|_| format!("bad job id '{id}'"))
    };
    match verb.as_str() {
        "status" => Ok(ServeCommand::Status {
            addr,
            id: job_id(&positional)?,
        }),
        "watch" => Ok(ServeCommand::Watch {
            addr,
            id: job_id(&positional)?,
            deadline,
        }),
        "result" => Ok(ServeCommand::Result {
            addr,
            id: job_id(&positional)?,
        }),
        "cancel" => Ok(ServeCommand::Cancel {
            addr,
            id: job_id(&positional)?,
        }),
        "stats" if positional.is_empty() => Ok(ServeCommand::Stats { addr }),
        "stop" if positional.is_empty() => Ok(ServeCommand::Stop { addr }),
        _ => Err(format!("unknown service subcommand '{verb}'\n\n{USAGE}")),
    }
}

/// Executes a parsed service subcommand and returns its printable
/// output. `Serve` prints its listening line eagerly (it blocks until
/// shutdown), everything else returns quietly.
///
/// # Errors
///
/// Propagates daemon/client failures as [`ServeError`].
pub fn run(command: &ServeCommand) -> Result<String, ServeError> {
    match command {
        ServeCommand::Serve(config) => {
            let server = Server::bind(config)?;
            println!(
                "llc-serve listening on {} (store {}, {} workers)",
                server.local_addr(),
                config.store_dir.display(),
                config.jobs.max(1)
            );
            server.run()?;
            Ok("llc-serve stopped\n".to_string())
        }
        ServeCommand::Submit { addr, spec, watch } => {
            let client = Client::new(addr.clone());
            let doc = client.submit(spec)?;
            let id = job_id_of(&doc)?;
            if !watch {
                return Ok(format!("{}\n", doc.render()));
            }
            let status = client.watch(id, Duration::from_secs(3600))?;
            let state = status.field("state").and_then(Value::as_str).unwrap_or("?");
            if state != "done" {
                return Ok(format!("{}\n", status.render()));
            }
            render_result(&client.result(id)?)
        }
        ServeCommand::Status { addr, id } => Ok(format!(
            "{}\n",
            Client::new(addr.clone()).status(*id)?.render()
        )),
        ServeCommand::Watch { addr, id, deadline } => Ok(format!(
            "{}\n",
            Client::new(addr.clone()).watch(*id, *deadline)?.render()
        )),
        ServeCommand::Result { addr, id } => render_result(&Client::new(addr.clone()).result(*id)?),
        ServeCommand::Cancel { addr, id } => Ok(format!(
            "{}\n",
            Client::new(addr.clone()).cancel(*id)?.render()
        )),
        ServeCommand::Stats { addr } => {
            Ok(format!("{}\n", Client::new(addr.clone()).stats()?.render()))
        }
        ServeCommand::Stop { addr } => Ok(format!(
            "{}\n",
            Client::new(addr.clone()).shutdown()?.render()
        )),
        ServeCommand::Explain {
            spec_path,
            addr,
            store,
        } => {
            let text = std::fs::read_to_string(spec_path)
                .map_err(|e| crate::io_err(format!("reading spec {}", spec_path.display()), e))?;
            let spec = JobSpec::from_json_text(&text)?;
            let doc = match addr {
                Some(addr) => Client::new(addr.clone()).plan(&spec)?,
                None => crate::server::plan_offline(store, &spec)?,
            };
            render_plan(&doc)
        }
        ServeCommand::Gc { store, cap, verify } => {
            let report = gc::sweep(store, *cap, *verify)?;
            Ok(format!("{}\n", report.to_json().render()))
        }
        ServeCommand::Ingest {
            input,
            format,
            cores,
            llc_mib,
            store,
            out,
            replay,
        } => run_ingest(
            input,
            *format,
            *cores,
            *llc_mib,
            store.as_deref(),
            out.as_deref(),
            *replay,
        ),
    }
}

/// `repro ingest`: decode a foreign trace through the hardened parser
/// for its format, push it through the normal LLC-free recording kernel
/// and persist the resulting `.llcs` stream — after which every
/// downstream layer (replay, DAG, sharding, zero-copy views) treats it
/// exactly like a recorded synthetic workload.
fn run_ingest(
    input: &std::path::Path,
    format: Option<IngestFormat>,
    cores: usize,
    llc_mib: u64,
    store: Option<&std::path::Path>,
    out: Option<&std::path::Path>,
    replay: bool,
) -> Result<String, ServeError> {
    let raw = std::fs::read(input)
        .map_err(|e| crate::io_err(format!("reading trace {}", input.display()), e))?;
    let format = format
        .or_else(|| IngestFormat::detect(input))
        .ok_or_else(|| {
            ServeError::Protocol(format!(
                "cannot detect the trace format of {} — pass --format",
                input.display()
            ))
        })?;
    let mut config = HierarchyConfig::baseline(llc_mib);
    config.cores = cores;
    let source = IngestSource::open(format, raw.as_slice(), cores)
        .map_err(|e| ServeError::Run(llc_sharing::RunError::Trace(e)))?;
    let stream = llc_sharing::record_stream(&config, source)?;
    let fingerprint = ingest_fingerprint(format, &raw, cores, config.fingerprint());
    let bytes = stream
        .to_vec()
        .map_err(|e| ServeError::Run(llc_sharing::RunError::Trace(e)))?;
    let saved = match (store, out) {
        (Some(store), _) => Store::open(store)?.streams.path_for(fingerprint),
        (None, Some(out)) => out.to_path_buf(),
        (None, None) => input.with_extension("llcs"),
    };
    atomic_write(&saved, &bytes)
        .map_err(|e| crate::io_err(format!("writing {}", saved.display()), e))?;
    let mut text = format!(
        "ingested {} ({format}): {} accesses, {} upgrades, {} instructions\n\
         recorded under {} cores / {llc_mib} MiB LLC (config {:016x})\n\
         stream fingerprint {fingerprint:016x} → {}\n",
        input.display(),
        stream.len(),
        stream.upgrades.len(),
        stream.instructions,
        config.cores,
        config.fingerprint(),
        saved.display(),
    );
    if replay {
        let mut table = llc_sharing::Table::new(
            "ingest replay",
            &["policy", "llc_accesses", "llc_hits", "llc_misses", "mpki"],
        );
        for kind in llc_policies::PolicyKind::REALISTIC {
            let r = llc_sharing::replay_kind(&config, kind, &stream, vec![])?;
            let mpki = r.llc.misses() as f64 * 1000.0 / r.instructions.max(1) as f64;
            table.row(vec![
                kind.label().to_string(),
                r.llc.accesses.to_string(),
                r.llc.hits.to_string(),
                r.llc.misses().to_string(),
                llc_sharing::f2(mpki),
            ]);
        }
        text.push_str(&table.to_string());
    }
    Ok(text)
}

/// Renders a plan document as an aligned hit/miss listing:
///
/// ```text
/// fig7 (fingerprint 8641…) — 7 nodes: 5 hit, 2 miss, 1.2 MB cached (plan 0.8 ms)
///   HIT   stream       86416d06bf5688ce  fft @256KB  (1234 B)
///   MISS  replay       6f6ea12fe192733f  fft @256KB oracle(LRU, evict, w=4096)
/// ```
fn render_plan(doc: &Value) -> Result<String, ServeError> {
    let bad = || ServeError::Protocol("malformed plan document".into());
    let experiment = doc
        .field("experiment")
        .and_then(Value::as_str)
        .unwrap_or("?");
    let fingerprint = doc
        .field("fingerprint")
        .and_then(Value::as_str)
        .unwrap_or("?");
    let summary = doc.field("summary").ok_or_else(bad)?;
    let grab = |name: &str| summary.field(name).and_then(Value::as_u64).unwrap_or(0);
    let plan_ms = match summary.field("plan_ms") {
        Some(Value::Num(n)) => *n,
        _ => 0.0,
    };
    let mut out = format!(
        "{experiment} (fingerprint {fingerprint}) — {} nodes: {} hit, {} miss, {} B cached (plan {plan_ms:.1} ms)\n",
        grab("nodes"),
        grab("hits"),
        grab("misses"),
        grab("cached_bytes"),
    );
    for node in doc
        .field("nodes")
        .and_then(Value::as_array)
        .ok_or_else(bad)?
    {
        let hit = node.field("hit") == Some(&Value::Bool(true));
        let kind = node.field("kind").and_then(Value::as_str).unwrap_or("?");
        let fp = node.field("fp").and_then(Value::as_str).unwrap_or("?");
        let detail = node.field("detail").and_then(Value::as_str).unwrap_or("");
        let bytes = node.field("bytes").and_then(Value::as_u64).unwrap_or(0);
        out.push_str(&format!(
            "  {:<5} {kind:<12} {fp}  {detail}{}\n",
            if hit { "HIT" } else { "MISS" },
            if hit && bytes > 0 {
                format!("  ({bytes} B)")
            } else {
                String::new()
            },
        ));
    }
    Ok(out)
}

/// Renders a result document's tables as the same text the batch runner
/// prints.
fn render_result(doc: &Value) -> Result<String, ServeError> {
    let tables = doc
        .field("tables")
        .and_then(Value::as_array)
        .ok_or_else(|| ServeError::Protocol("result document has no tables".into()))?;
    let mut out = String::new();
    for table in tables {
        let table = table_from_json(table)
            .map_err(|e| ServeError::Protocol(format!("bad table in result: {e}")))?;
        out.push_str(&table.to_string());
        out.push('\n');
    }
    if let Some(true) = doc.field("from_store").map(|v| v == &Value::Bool(true)) {
        out.push_str("[served from the persistent store]\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sharing::ExperimentId;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_serve_flags() {
        let cmd = parse(&args(
            "serve --listen 127.0.0.1:0 --store /tmp/s --jobs 3 --timeout 60 --stream-cache-mb 64",
        ))
        .expect("parse");
        let ServeCommand::Serve(config) = cmd else {
            panic!("not serve: {cmd:?}")
        };
        assert_eq!(config.listen, "127.0.0.1:0");
        assert_eq!(config.store_dir, std::path::PathBuf::from("/tmp/s"));
        assert_eq!(config.jobs, 3);
        assert_eq!(config.timeout, Some(Duration::from_secs(60)));
        assert_eq!(config.stream_cache_limit, Some(64 << 20));
        let ServeCommand::Serve(config) = parse(&args(
            "serve --max-queue 8 --max-inflight 16 --max-conns 4 --grace 3 --store-cap-mb 2",
        ))
        .expect("overload flags") else {
            panic!()
        };
        assert_eq!(config.max_queue, 8);
        assert_eq!(config.max_inflight, 16);
        assert_eq!(config.max_connections, 4);
        assert_eq!(config.grace, Duration::from_secs(3));
        assert_eq!(config.store_cap, Some(2 << 20));
        let ServeCommand::Serve(config) = parse(&args("serve --chaos-seed 7")).expect("chaos flag")
        else {
            panic!()
        };
        assert_eq!(config.chaos.expect("chaos plan").seed(), 7);
        let ServeCommand::Serve(config) = parse(&args("serve")).expect("defaults") else {
            panic!()
        };
        assert_eq!(config.listen, DEFAULT_ADDR);
        assert!(config.stream_cache_limit.is_none());
        assert!(config.store_cap.is_none() && config.chaos.is_none());
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(
            config.jobs, cores,
            "default worker count tracks the machine"
        );
    }

    #[test]
    fn parses_submit() {
        let cmd = parse(&args(
            "submit fig7 --preset test --scale tiny --threads 4 --apps fft,dedup --deadline 90 --watch",
        ))
        .expect("parse");
        let ServeCommand::Submit { spec, watch, addr } = cmd else {
            panic!("not submit")
        };
        assert_eq!(spec.experiment, ExperimentId::Fig7);
        assert_eq!(spec.preset, "test");
        assert_eq!(spec.threads, Some(4));
        assert_eq!(spec.deadline_secs, Some(90));
        assert!(watch);
        assert_eq!(addr, DEFAULT_ADDR);
    }

    #[test]
    fn parses_gc() {
        let cmd = parse(&args("gc --store /tmp/s --store-cap-mb 64 --verify")).expect("parse");
        let ServeCommand::Gc { store, cap, verify } = cmd else {
            panic!("not gc")
        };
        assert_eq!(store, PathBuf::from("/tmp/s"));
        assert_eq!(cap, Some(64 << 20));
        assert!(verify);
        let ServeCommand::Gc { store, cap, verify } =
            parse(&args("gc --verify")).expect("defaults")
        else {
            panic!()
        };
        assert_eq!(store, PathBuf::from(DEFAULT_STORE));
        assert!(cap.is_none() && verify);
    }

    #[test]
    fn parses_explain() {
        let cmd = parse(&args("explain spec.json --store /tmp/s")).expect("parse");
        let ServeCommand::Explain {
            spec_path,
            addr,
            store,
        } = cmd
        else {
            panic!("not explain: {cmd:?}")
        };
        assert_eq!(spec_path, PathBuf::from("spec.json"));
        assert!(addr.is_none());
        assert_eq!(store, PathBuf::from("/tmp/s"));
        let ServeCommand::Explain { addr, store, .. } =
            parse(&args("explain spec.json --addr 127.0.0.1:9")).expect("addr form")
        else {
            panic!()
        };
        assert_eq!(addr.as_deref(), Some("127.0.0.1:9"));
        assert_eq!(store, PathBuf::from(DEFAULT_STORE));
    }

    #[test]
    fn parses_job_verbs_and_stats() {
        assert!(matches!(
            parse(&args("status 7 --addr 127.0.0.1:9")).expect("parse"),
            ServeCommand::Status { id: JobId(7), .. }
        ));
        assert!(matches!(
            parse(&args("watch 2 --deadline 5")).expect("parse"),
            ServeCommand::Watch { id: JobId(2), deadline, .. } if deadline == Duration::from_secs(5)
        ));
        assert!(matches!(
            parse(&args("result 1")).expect("parse"),
            ServeCommand::Result { .. }
        ));
        assert!(matches!(
            parse(&args("cancel 1")).expect("parse"),
            ServeCommand::Cancel { .. }
        ));
        assert!(matches!(
            parse(&args("stats")).expect("parse"),
            ServeCommand::Stats { .. }
        ));
        assert!(matches!(
            parse(&args("stop")).expect("parse"),
            ServeCommand::Stop { .. }
        ));
    }

    #[test]
    fn rejects_malformed_commands() {
        for bad in [
            "submit",
            "submit nope",
            "submit fig7 fig8",
            "submit fig7 --preset huge",
            "submit fig7 --threads 0",
            "status",
            "status seven",
            "stats 1",
            "serve --jobs 0",
            "serve --bogus",
            "serve --max-queue 0",
            "serve --max-inflight nope",
            "serve --chaos-seed pie",
            "submit fig7 --deadline 0",
            "gc",
            "gc --bogus",
            "explain",
            "explain a.json b.json",
            "explain a.json --bogus x",
            "frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} should be rejected");
        }
        assert!(is_serve_verb("serve") && is_serve_verb("watch") && is_serve_verb("gc"));
        assert!(is_serve_verb("explain"));
        assert!(!is_serve_verb("fig7"));
    }
}
