//! Small shared helpers: seeded randomness, order statistics, table
//! digests, golden files, process counters and scratch directories.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use llc_sharing::Table;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (experiments, jobs or batches).
    pub attempted: u64,
    /// Operations that failed or whose output did not match its reference.
    pub failed: u64,
    /// The metrics of this run mode (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Records one failure with its reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        let why = why.into();
        // Keep the report readable when one fault repeats many times.
        if self.failed <= 20 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }
}

/// splitmix64: the benchmark's only source of randomness, so one seed
/// always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6532_6562_656e_6368)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// FNV-1a over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of rendered tables: what a user reads, byte for byte.
pub fn digest_tables(tables: &[Table]) -> u64 {
    let mut text = String::new();
    for t in tables {
        text.push_str(&t.to_string());
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

/// Directory holding the checked-in reference digests.
pub fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

/// Reads `goldens/<name>`: one `<key> <hex digest>` pair per line, `#`
/// starting a comment.
pub fn read_goldens(name: &str) -> Result<BTreeMap<String, u64>, String> {
    let path = goldens_dir().join(name);
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, hex) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("{}: malformed line {line:?}", path.display()))?;
        let digest = u64::from_str_radix(hex, 16)
            .map_err(|e| format!("{}: bad digest in {line:?}: {e}", path.display()))?;
        map.insert(key.trim().to_string(), digest);
    }
    Ok(map)
}

/// Writes `goldens/<name>` with a header naming the command that
/// regenerates it.
pub fn write_goldens(name: &str, command: &str, map: &BTreeMap<String, u64>) -> Result<(), String> {
    let path = goldens_dir().join(name);
    let mut text = format!("# Regenerate with: {command}\n");
    for (k, v) in map {
        text.push_str(&format!("{k} {v:016x}\n"));
    }
    fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// A scratch directory under `.bench_tmp/` in the working directory,
/// removed (with its parent, once empty) on drop.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let path = Path::new(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}
