//! Job specifications: the JSON document a client submits, its
//! validation, and the stable fingerprint that content-addresses the
//! resulting tables in the persistent store.

use std::ops::RangeInclusive;

use llc_sharing::json::{self, Value};
use llc_sharing::{ExperimentCtx, ExperimentId};
use llc_sim::MAX_CORES;
use llc_trace::{App, Scale};

use crate::cli::ArgCursor;
use crate::ServeError;

/// The accepted range of a job's `deadline_secs` (and of `repro submit --deadline`).
pub(crate) const DEADLINE_SECS: RangeInclusive<u64> = 1..=86_400;

/// `apps` in suite ([`App::ALL`]) order with duplicates dropped — the
/// canonical app list, so `dedup,fft` and `fft,fft,dedup` name one run
/// (one fingerprint, one wire form, one MEAN row).
fn suite_order(apps: &[App]) -> Vec<App> {
    App::ALL
        .iter()
        .copied()
        .filter(|a| apps.contains(a))
        .collect()
}

/// A fully-validated job submission.
///
/// The JSON wire form mirrors the `repro` batch flags:
///
/// ```json
/// {"experiment": "fig7", "preset": "test", "scale": "tiny",
///  "threads": 4, "apps": ["fft", "dedup"]}
/// ```
///
/// `experiment` is required; everything else defaults to the preset
/// (`paper` when omitted), exactly like `repro --ctx`. An optional
/// `deadline_secs` bounds the job's total queue + run time (clamped by
/// the server's `--timeout`).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Which table/figure to produce.
    pub experiment: ExperimentId,
    /// Machine + workload preset (`paper`, `quick` or `test`).
    pub preset: String,
    /// Workload-scale override.
    pub scale: Option<Scale>,
    /// Core/thread-count override.
    pub threads: Option<usize>,
    /// App-subset override.
    pub apps: Option<Vec<App>>,
    /// Client-requested deadline in seconds, measured from admission
    /// (queue wait counts against it). Scheduling metadata only: it is
    /// deliberately *not* part of [`JobSpec::fingerprint`], because the
    /// tables a spec produces do not depend on how long the client was
    /// willing to wait for them.
    pub deadline_secs: Option<u64>,
}

impl JobSpec {
    /// A spec that runs `experiment` under the given preset with no
    /// overrides.
    pub fn new(experiment: ExperimentId, preset: &str) -> JobSpec {
        JobSpec {
            experiment,
            preset: preset.to_string(),
            scale: None,
            threads: None,
            apps: None,
            deadline_secs: None,
        }
    }

    /// Parses and validates a submission body.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] naming the first malformed or
    /// unknown field.
    pub fn from_json_text(text: &str) -> Result<JobSpec, ServeError> {
        let v = json::parse(text).map_err(|e| ServeError::Protocol(format!("bad JSON: {e}")))?;
        JobSpec::from_json(&v)
    }

    /// Decodes a spec from a parsed JSON value (see [`JobSpec`] for the
    /// shape).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] naming the first malformed or
    /// unknown field.
    pub fn from_json(v: &Value) -> Result<JobSpec, ServeError> {
        let bad = |msg: String| ServeError::Protocol(msg);
        let fields = match v {
            Value::Object(fields) => fields,
            _ => return Err(bad("job spec must be a JSON object".into())),
        };
        let mut spec = JobSpec::new(ExperimentId::Table1, "paper");
        let mut saw_experiment = false;
        for (key, value) in fields {
            match key.as_str() {
                "experiment" => {
                    let s = value
                        .as_str()
                        .ok_or_else(|| bad("\"experiment\" must be a string".into()))?;
                    spec.experiment = ExperimentId::parse(s)
                        .ok_or_else(|| bad(format!("unknown experiment {s:?}")))?;
                    saw_experiment = true;
                }
                "preset" => {
                    let s = value
                        .as_str()
                        .ok_or_else(|| bad("\"preset\" must be a string".into()))?;
                    if ExperimentCtx::preset(s).is_none() {
                        return Err(bad(format!("unknown preset {s:?}")));
                    }
                    spec.preset = s.to_string();
                }
                "scale" => {
                    let s = value
                        .as_str()
                        .ok_or_else(|| bad("\"scale\" must be a string".into()))?;
                    spec.scale =
                        Some(Scale::parse(s).ok_or_else(|| bad(format!("unknown scale {s:?}")))?);
                }
                "threads" => {
                    let n = value
                        .as_u64()
                        .filter(|&n| n > 0 && n <= MAX_CORES as u64)
                        .ok_or_else(|| {
                            bad(format!("\"threads\" must be an integer in 1..={MAX_CORES}"))
                        })?;
                    spec.threads = Some(n as usize);
                }
                "apps" => {
                    let items = value
                        .as_array()
                        .ok_or_else(|| bad("\"apps\" must be an array of strings".into()))?;
                    let mut apps = Vec::new();
                    for item in items {
                        let s = item
                            .as_str()
                            .ok_or_else(|| bad("\"apps\" must be an array of strings".into()))?;
                        apps.push(App::parse(s).ok_or_else(|| bad(format!("unknown app {s:?}")))?);
                    }
                    if apps.is_empty() {
                        return Err(bad("\"apps\" must name at least one app".into()));
                    }
                    spec.apps = Some(suite_order(&apps));
                }
                "deadline_secs" => {
                    let n = value
                        .as_u64()
                        .filter(|n| DEADLINE_SECS.contains(n))
                        .ok_or_else(|| {
                            bad("\"deadline_secs\" must be an integer in 1..=86400".into())
                        })?;
                    spec.deadline_secs = Some(n);
                }
                other => return Err(bad(format!("unknown job spec field {other:?}"))),
            }
        }
        if !saw_experiment {
            return Err(bad("job spec is missing \"experiment\"".into()));
        }
        Ok(spec)
    }

    /// Reads one run-override flag of the `repro` command lines —
    /// `--scale`, `--threads` or `--apps`, its value taken from `args` —
    /// into the spec, and returns `Ok(false)` for any other flag. The
    /// batch runner and `repro submit` both parse these flags here, with
    /// `--apps` canonicalized exactly as [`JobSpec::from_json`] does, so
    /// the same flags resolve to the same context on either path.
    ///
    /// # Errors
    ///
    /// Names the flag's missing or invalid value.
    pub fn parse_run_flag(&mut self, flag: &str, args: &mut ArgCursor) -> Result<bool, String> {
        match flag {
            "--scale" => {
                let v = args.value(flag)?;
                self.scale = Some(Scale::parse(&v).ok_or_else(|| format!("unknown scale '{v}'"))?);
            }
            "--threads" => self.threads = Some(args.num(flag, "thread count", 1..=MAX_CORES)?),
            "--apps" => {
                let v = args.value(flag)?;
                let apps = v
                    .split(',')
                    .map(|name| {
                        App::parse(name.trim()).ok_or_else(|| format!("unknown app '{name}'"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                self.apps = Some(suite_order(&apps));
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Encodes the spec in its canonical wire form (fields in a fixed
    /// order, overrides omitted when unset).
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            (
                "experiment",
                Value::Str(self.experiment.label().to_string()),
            ),
            ("preset", Value::Str(self.preset.clone())),
        ];
        if let Some(scale) = self.scale {
            fields.push(("scale", Value::Str(scale.to_string())));
        }
        if let Some(threads) = self.threads {
            fields.push(("threads", Value::Num(threads as f64)));
        }
        if let Some(apps) = &self.apps {
            fields.push((
                "apps",
                Value::Array(
                    apps.iter()
                        .map(|a| Value::Str(a.label().to_string()))
                        .collect(),
                ),
            ));
        }
        if let Some(secs) = self.deadline_secs {
            fields.push(("deadline_secs", Value::Num(secs as f64)));
        }
        Value::object(fields)
    }

    /// Builds the execution context this spec resolves to: the preset,
    /// with overrides applied.
    pub fn build_ctx(&self) -> ExperimentCtx {
        let mut ctx = ExperimentCtx::preset(&self.preset).unwrap_or_else(ExperimentCtx::paper);
        if let Some(scale) = self.scale {
            ctx.scale = scale;
        }
        if let Some(threads) = self.threads {
            ctx.cores = threads;
        }
        if let Some(apps) = &self.apps {
            ctx.apps = apps.clone();
        }
        ctx
    }

    /// The spec's stable content-address, which names its stored result:
    /// [`ExperimentCtx::result_fingerprint`] of the *resolved* context,
    /// so two spellings of the same work — say `preset: test` with and
    /// without an explicit `threads: 4` — share one store entry, and the
    /// batch runner's `repro --store` finds it too.
    pub fn fingerprint(&self) -> u64 {
        self.build_ctx().result_fingerprint(self.experiment)
    }

    /// A short human-readable description for logs and status output.
    pub fn summary(&self) -> String {
        let ctx = self.build_ctx();
        format!(
            "{} ({}, {}, {} threads, {} apps)",
            self.experiment.label(),
            self.preset,
            ctx.scale,
            ctx.cores,
            ctx.apps.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_form_round_trips() {
        let spec = JobSpec {
            experiment: ExperimentId::Fig7,
            preset: "test".into(),
            scale: Some(Scale::Tiny),
            threads: Some(4),
            // Canonical (App::ALL) order — parsing normalizes to it.
            apps: Some(vec![App::Dedup, App::Fft]),
            deadline_secs: Some(90),
        };
        let text = spec.to_json().render();
        let back = JobSpec::from_json_text(&text).expect("round trip");
        assert_eq!(back, spec);
    }

    #[test]
    fn defaults_mirror_the_paper_preset() {
        let spec = JobSpec::from_json_text("{\"experiment\":\"fig1\"}").expect("minimal spec");
        assert_eq!(spec.experiment, ExperimentId::Fig1);
        assert_eq!(spec.preset, "paper");
        let ctx = spec.build_ctx();
        assert_eq!(ctx.cores, 8);
        assert_eq!(ctx.scale, Scale::Medium);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "nonsense",
            "[]",
            "{}",
            "{\"experiment\":\"nope\"}",
            "{\"experiment\":\"fig1\",\"preset\":\"huge\"}",
            "{\"experiment\":\"fig1\",\"scale\":\"galactic\"}",
            "{\"experiment\":\"fig1\",\"threads\":0}",
            "{\"experiment\":\"fig1\",\"apps\":[]}",
            "{\"experiment\":\"fig1\",\"apps\":[\"nope\"]}",
            "{\"experiment\":\"fig1\",\"frobnicate\":1}",
            "{\"experiment\":\"fig1\",\"deadline_secs\":0}",
            "{\"experiment\":\"fig1\",\"deadline_secs\":86401}",
            "{\"experiment\":\"fig1\",\"deadline_secs\":\"soon\"}",
        ] {
            assert!(
                JobSpec::from_json_text(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn fingerprint_ignores_spelling_but_not_substance() {
        let implicit = JobSpec::new(ExperimentId::Fig7, "test");
        // `test` defaults to 4 cores / tiny scale; spelling them out must
        // not change the address.
        let explicit = JobSpec {
            scale: Some(Scale::Tiny),
            threads: Some(4),
            ..JobSpec::new(ExperimentId::Fig7, "test")
        };
        assert_eq!(implicit.fingerprint(), explicit.fingerprint());

        let other_exp = JobSpec::new(ExperimentId::Fig8, "test");
        let other_threads = JobSpec {
            threads: Some(2),
            ..JobSpec::new(ExperimentId::Fig7, "test")
        };
        let other_apps = JobSpec {
            apps: Some(vec![App::Fft]),
            ..JobSpec::new(ExperimentId::Fig7, "test")
        };
        let base = implicit.fingerprint();
        assert_ne!(base, other_exp.fingerprint());
        assert_ne!(base, other_threads.fingerprint());
        assert_ne!(base, other_apps.fingerprint());

        // A deadline changes scheduling, not the produced tables, so an
        // impatient client must still hit the patient client's stored
        // result.
        let with_deadline = JobSpec {
            deadline_secs: Some(5),
            ..JobSpec::new(ExperimentId::Fig7, "test")
        };
        assert_eq!(base, with_deadline.fingerprint());
    }

    #[test]
    fn canonicalization_makes_spellings_converge() {
        // Same work, three spellings: shuffled JSON field order,
        // shuffled app order, duplicated apps. All must share one
        // fingerprint AND one canonical wire form, or the serve store
        // (and the DAG table node) would compute duplicates.
        let canonical = JobSpec::from_json_text(
            "{\"experiment\":\"fig7\",\"preset\":\"test\",\"apps\":[\"fft\",\"dedup\"]}",
        )
        .expect("canonical");
        let reordered_fields = JobSpec::from_json_text(
            "{\"apps\":[\"fft\",\"dedup\"],\"preset\":\"test\",\"experiment\":\"fig7\"}",
        )
        .expect("reordered fields");
        let reordered_apps = JobSpec::from_json_text(
            "{\"experiment\":\"fig7\",\"preset\":\"test\",\"apps\":[\"dedup\",\"fft\"]}",
        )
        .expect("reordered apps");
        let duplicated_apps = JobSpec::from_json_text(
            "{\"experiment\":\"fig7\",\"preset\":\"test\",\"apps\":[\"dedup\",\"fft\",\"dedup\"]}",
        )
        .expect("duplicated apps");
        let wire = canonical.to_json().render();
        for other in [&reordered_fields, &reordered_apps, &duplicated_apps] {
            assert_eq!(other.fingerprint(), canonical.fingerprint());
            assert_eq!(other.to_json().render(), wire);
        }
        // Canonicalization must never conflate different app sets.
        let fewer = JobSpec::from_json_text(
            "{\"experiment\":\"fig7\",\"preset\":\"test\",\"apps\":[\"fft\"]}",
        )
        .expect("subset");
        assert_ne!(fewer.fingerprint(), canonical.fingerprint());
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Job fingerprints name `results/*.json` and `dag/manifests/*`
        // in a persistent store; a changed fold orphans every entry.
        let fig7 = JobSpec::from_json_text(
            "{\"experiment\":\"fig7\",\"preset\":\"test\",\"apps\":[\"fft\",\"dedup\"]}",
        )
        .expect("spec");
        assert_eq!(fig7.fingerprint(), 0x43ef_284a_56e4_cd98);
        let fig1 = JobSpec {
            threads: Some(2),
            ..JobSpec::new(ExperimentId::Fig1, "quick")
        };
        assert_eq!(fig1.fingerprint(), 0xd00c_69b3_980f_1e89);
    }

    #[test]
    fn summary_names_the_work() {
        let s = JobSpec::new(ExperimentId::Fig7, "test").summary();
        assert!(
            s.contains("fig7") && s.contains("test") && s.contains("4 threads"),
            "{s}"
        );
    }
}
