//! Bench: the monomorphized record kernel vs the pre-PR record path.
//!
//! `record_stream` is the cold path of the whole pipeline: every stream
//! that is not already cached pays one full hierarchy simulation here
//! before any policy can replay. This bench reconstructs the record path
//! as it stood *before* the monomorphized record kernel landed (module
//! [`seed`], a line-for-line port of the previous `llc_sim::l1` +
//! `llc_sim::hierarchy` + `llc_sharing::record_stream`):
//!
//! * **seed** — array-of-structs private caches probed line by line, a
//!   `Box<dyn ReplacementPolicy>` recording LLC, every record through
//!   `&mut dyn LlcObserver`, a directory hash-map upsert on *every*
//!   access (including private hits), and trace generation interleaved
//!   one virtual `next_access` call per simulated record. This is the
//!   gate baseline.
//! * **mono** — the in-tree `record_stream`: struct-of-arrays tag planes
//!   with per-set valid bitmasks and branchless probes, a concrete LRU
//!   and concrete recorder observer (zero virtual dispatch in the
//!   hierarchy loop), hit paths that skip the directory map entirely,
//!   and generation batched into chunks so the generator's dispatch and
//!   the probe loop stop interleaving.
//!
//! Both produce bit-identical `RecordedStream`s (asserted here for every
//! workload, including the L1/L2 counters and instruction deltas). The
//! benchmark measures single-thread record throughput (ns per trace
//! record) over a three-app suite with different private-hit profiles
//! and writes `BENCH_record.json` at the workspace root (override with
//! `BENCH_RECORD_OUT`). Exits nonzero if the suite-aggregate speedup
//! (total seed time over total mono time) falls below
//! `BENCH_RECORD_MIN_SPEEDUP` (default 1.5).

use std::hint::black_box;
use std::time::{Duration, Instant};

use llc_sharing::record_stream;
use llc_sim::{CacheConfig, HierarchyConfig, Inclusion};
use llc_trace::{App, RecordedStream, Scale};

const CORES: usize = 4;
const SCALE: Scale = Scale::Small;

/// Workloads measured: mostly-private (swaptions, highest L1 hit rate),
/// producer–consumer heavy (bodytrack) and all-to-all phases (fft) — the
/// mix stresses the private-hit fast path, the coherence path and the
/// LLC path in different proportions.
const SUITE: [App; 3] = [App::Swaptions, App::Bodytrack, App::Fft];

/// Faithful reconstruction of the record path this PR replaced, ported
/// line for line from the previous `llc_sim::l1` (array-of-structs
/// private cache), `llc_sim::hierarchy` (dyn-observer CMP with a
/// directory upsert on every path) and `llc_sharing::record_stream`
/// (interleaved generation, boxed LRU). Kept in the bench — not the
/// library — because the library's hierarchy now shares the SoA private
/// caches and would under-state the PR's delta.
mod seed {
    use fxhash::FxHashMap;
    use llc_policies::{build_policy, PolicyKind};
    use llc_sharing::StreamRecorder;
    use llc_sim::{
        BlockAddr, CacheConfig, CoreId, HierarchyConfig, Inclusion, Llc, LlcObserver, MemAccess,
        PrivateCacheStats, ReplacementPolicy,
    };
    use llc_trace::{RecordedStream, TraceSource};

    #[derive(Debug, Clone, Copy, Default)]
    struct Line {
        valid: bool,
        tag: u64,
        /// LRU timestamp: larger = more recently used.
        stamp: u64,
        dirty: bool,
    }

    enum L1Access {
        Hit,
        Miss { victim: Option<L1Victim> },
    }

    struct L1Victim {
        block: BlockAddr,
        dirty: bool,
    }

    /// The previous private cache: one `Line` struct per way, probed by
    /// iterating the set slice and short-circuiting on the first match.
    struct PrivateCache {
        sets: u64,
        ways: usize,
        lines: Vec<Line>,
        clock: u64,
        stats: PrivateCacheStats,
    }

    impl PrivateCache {
        fn new(config: CacheConfig) -> Self {
            let sets = config.sets();
            let ways = config.ways;
            PrivateCache {
                sets,
                ways,
                lines: vec![Line::default(); (sets * ways as u64) as usize],
                clock: 0,
                stats: PrivateCacheStats::default(),
            }
        }

        fn set_slice_mut(&mut self, set: u64) -> &mut [Line] {
            let base = (set as usize) * self.ways;
            &mut self.lines[base..base + self.ways]
        }

        fn access(&mut self, block: BlockAddr, write: bool) -> L1Access {
            self.stats.accesses += 1;
            self.clock += 1;
            let clock = self.clock;
            let set = block.set_index(self.sets);
            let tag = block.tag(self.sets);
            let sets = self.sets;
            let lines = self.set_slice_mut(set);

            for line in lines.iter_mut() {
                if line.valid && line.tag == tag {
                    line.stamp = clock;
                    line.dirty |= write;
                    self.stats.hits += 1;
                    return L1Access::Hit;
                }
            }

            let mut victim_way = 0;
            let mut victim_stamp = u64::MAX;
            let mut found_invalid = false;
            for (w, line) in lines.iter().enumerate() {
                if !line.valid {
                    victim_way = w;
                    found_invalid = true;
                    break;
                }
                if line.stamp < victim_stamp {
                    victim_stamp = line.stamp;
                    victim_way = w;
                }
            }

            let line = &mut lines[victim_way];
            let victim = if !found_invalid && line.valid {
                Some(L1Victim {
                    block: BlockAddr::new(line.tag * sets + set),
                    dirty: line.dirty,
                })
            } else {
                None
            };
            *line = Line {
                valid: true,
                tag,
                stamp: clock,
                dirty: write,
            };
            if victim.is_some() {
                self.stats.evictions += 1;
            }
            L1Access::Miss { victim }
        }

        fn contains(&self, block: BlockAddr) -> bool {
            let set = block.set_index(self.sets);
            let tag = block.tag(self.sets);
            let base = (set as usize) * self.ways;
            self.lines[base..base + self.ways]
                .iter()
                .any(|l| l.valid && l.tag == tag)
        }

        fn invalidate(&mut self, block: BlockAddr) -> bool {
            let set = block.set_index(self.sets);
            let tag = block.tag(self.sets);
            for line in self.set_slice_mut(set).iter_mut() {
                if line.valid && line.tag == tag {
                    line.valid = false;
                    line.dirty = false;
                    self.stats.invalidations += 1;
                    return true;
                }
            }
            false
        }
    }

    /// The previous CMP: boxed LLC policy, `&mut dyn LlcObserver` per
    /// record, and a `dir_set` hash-map upsert on every path including
    /// private hits.
    struct Cmp {
        config: HierarchyConfig,
        l1: Vec<PrivateCache>,
        l2: Vec<PrivateCache>,
        llc: Llc<Box<dyn ReplacementPolicy>>,
        private_dir: FxHashMap<BlockAddr, u32>,
        instructions: u64,
        trace_accesses: u64,
    }

    impl Cmp {
        fn new(config: HierarchyConfig) -> Self {
            let sets = config.llc.sets() as usize;
            let ways = config.llc.ways;
            let l1 = (0..config.cores)
                .map(|_| PrivateCache::new(config.l1))
                .collect();
            let l2 = match config.l2 {
                Some(l2cfg) => (0..config.cores)
                    .map(|_| PrivateCache::new(l2cfg))
                    .collect(),
                None => Vec::new(),
            };
            Cmp {
                config,
                l1,
                l2,
                llc: Llc::new(config.llc, build_policy(PolicyKind::Lru, sets, ways)),
                private_dir: FxHashMap::default(),
                instructions: 0,
                trace_accesses: 0,
            }
        }

        fn access(&mut self, a: MemAccess, obs: &mut dyn LlcObserver) {
            self.trace_accesses += 1;
            self.instructions += u64::from(a.instr_gap.max(1));
            let block = a.addr.block();
            let core = a.core.index();

            if a.kind.is_write() {
                self.invalidate_remote(block, a.core);
            }

            match self.l1[core].access(block, a.kind.is_write()) {
                L1Access::Hit => {
                    if a.kind.is_write() {
                        self.llc.note_upgrade(block, a.core);
                        obs.on_upgrade(block, a.core);
                    }
                    self.dir_set(block, a.core);
                    return;
                }
                L1Access::Miss { victim } => {
                    if let Some(v) = victim {
                        let _ = v.dirty;
                        self.note_private_eviction(v.block, a.core);
                    }
                }
            }

            if !self.l2.is_empty() {
                match self.l2[core].access(block, a.kind.is_write()) {
                    L1Access::Hit => {
                        if a.kind.is_write() {
                            self.llc.note_upgrade(block, a.core);
                            obs.on_upgrade(block, a.core);
                        }
                        self.dir_set(block, a.core);
                        return;
                    }
                    L1Access::Miss { victim } => {
                        if let Some(v) = victim {
                            let _ = v.dirty;
                            self.note_private_eviction(v.block, a.core);
                        }
                    }
                }
            }

            let result = self.llc.access(block, a.pc, a.core, a.kind, obs);
            debug_assert!(
                self.config.inclusion == Inclusion::NonInclusive || result.victim.is_none(),
                "seed port only models the non-inclusive record path"
            );
            self.dir_set(block, a.core);
        }

        fn dir_set(&mut self, block: BlockAddr, core: CoreId) {
            *self.private_dir.entry(block).or_insert(0) |= core.bit();
        }

        fn note_private_eviction(&mut self, block: BlockAddr, core: CoreId) {
            let still_held = self.l1[core.index()].contains(block)
                || self
                    .l2
                    .get(core.index())
                    .is_some_and(|l2| l2.contains(block));
            if still_held {
                return;
            }
            if let Some(mask) = self.private_dir.get_mut(&block) {
                *mask &= !core.bit();
                if *mask == 0 {
                    self.private_dir.remove(&block);
                }
            }
        }

        fn invalidate_remote(&mut self, block: BlockAddr, writer: CoreId) {
            let Some(&mask) = self.private_dir.get(&block) else {
                return;
            };
            let remote = mask & !writer.bit();
            if remote == 0 {
                return;
            }
            for c in 0..self.config.cores {
                if remote & (1u32 << c) != 0 {
                    self.l1[c].invalidate(block);
                    if let Some(l2) = self.l2.get_mut(c) {
                        l2.invalidate(block);
                    }
                }
            }
            self.private_dir.insert(block, mask & writer.bit());
            if mask & writer.bit() == 0 {
                self.private_dir.remove(&block);
            }
        }

        fn l1_stats(&self) -> PrivateCacheStats {
            let mut total = PrivateCacheStats::default();
            for c in &self.l1 {
                total += c.stats;
            }
            total
        }

        fn l2_stats(&self) -> PrivateCacheStats {
            let mut total = PrivateCacheStats::default();
            for c in &self.l2 {
                total += c.stats;
            }
            total
        }
    }

    /// The previous `record_stream` loop: one virtual `next_access` call
    /// per simulated record, recorder driven as `&mut dyn LlcObserver`.
    pub fn record<W: TraceSource>(config: &HierarchyConfig, mut trace: W) -> RecordedStream {
        let mut cmp = Cmp::new(*config);
        let mut rec = StreamRecorder::with_capacity(trace.len_hint());
        let mut instr_deltas = Vec::with_capacity(rec.blocks.capacity());
        let mut pending_instr = 0u64;
        while let Some(a) = trace.next_access() {
            pending_instr += u64::from(a.instr_gap.max(1));
            let before = rec.blocks.len();
            cmp.access(a, &mut rec);
            if rec.blocks.len() > before {
                instr_deltas.push(pending_instr);
                pending_instr = 0;
            }
        }
        assert!(trace.take_error().is_none(), "synthetic traces don't fail");
        RecordedStream {
            fingerprint: config.recording_fingerprint(),
            blocks: rec.blocks,
            cores: rec.cores,
            pcs: rec.pcs,
            kinds: rec.kinds,
            instr_deltas,
            upgrades: rec.upgrades,
            instructions: cmp.instructions,
            trace_accesses: cmp.trace_accesses,
            l1: cmp.l1_stats(),
            l2: cmp.l2_stats(),
        }
    }
}

fn config() -> HierarchyConfig {
    // Same paper-style hierarchy as the kernel/streams benches.
    HierarchyConfig {
        cores: CORES,
        l1: CacheConfig::from_kib(32, 8).unwrap(),
        l2: Some(CacheConfig::from_kib(256, 8).unwrap()),
        llc: CacheConfig::from_kib(1024, 16).unwrap(),
        inclusion: Inclusion::NonInclusive,
    }
}

/// One timed run of `f`.
fn time_once<F: FnMut() -> RecordedStream>(f: &mut F) -> (Duration, RecordedStream) {
    let start = Instant::now();
    let stream = black_box(f());
    (start.elapsed(), stream)
}

/// Best-of-`samples` wall clock for both kernels, sampled in interleaved
/// rounds (seed, mono, seed, …) so slow phases of the host hit both
/// paths alike. The minimum is the noise-robust estimator: every
/// perturbation only ever adds time.
fn time2<F1, F2>(
    samples: usize,
    mut seed_f: F1,
    mut mono_f: F2,
) -> ([Duration; 2], [RecordedStream; 2])
where
    F1: FnMut() -> RecordedStream,
    F2: FnMut() -> RecordedStream,
{
    let mut best = [Duration::MAX; 2];
    let (mut t, mut s0) = time_once(&mut seed_f);
    best[0] = best[0].min(t);
    let mut s1;
    (t, s1) = time_once(&mut mono_f);
    best[1] = best[1].min(t);
    for _ in 1..samples {
        (t, s0) = time_once(&mut seed_f);
        best[0] = best[0].min(t);
        (t, s1) = time_once(&mut mono_f);
        best[1] = best[1].min(t);
    }
    (best, [s0, s1])
}

fn main() {
    let samples: usize = std::env::var("BENCH_RECORD_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let min_speedup: f64 = std::env::var("BENCH_RECORD_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.5);
    let cfg = config();

    let mut rows = Vec::with_capacity(SUITE.len());
    for &app in &SUITE {
        let ([seed_t, mono_t], [seed_stream, mono_stream]) = time2(
            samples,
            || seed::record(&cfg, app.workload(CORES, SCALE)),
            || record_stream(&cfg, app.workload(CORES, SCALE)).expect("recording runs"),
        );
        assert_eq!(
            seed_stream,
            mono_stream,
            "seed and mono record paths must produce identical streams for {}",
            app.label()
        );
        let records = mono_stream.trace_accesses;
        let llc_refs = mono_stream.len() as u64;
        let seed_ns = seed_t.as_secs_f64() * 1e9 / records as f64;
        let mono_ns = mono_t.as_secs_f64() * 1e9 / records as f64;
        let speedup = seed_ns / mono_ns.max(f64::EPSILON);
        println!(
            "record/{}: seed {seed_ns:.1} ns/record, mono {mono_ns:.1} ({speedup:.2}x, \
             {:.1} Mrec/s, {llc_refs} LLC refs of {records} records)",
            app.label(),
            1e3 / mono_ns
        );
        rows.push((app, records, llc_refs, seed_ns, mono_ns, speedup));
    }

    let min = rows.iter().map(|r| r.5).fold(f64::INFINITY, f64::min);
    let seed_total: f64 = rows.iter().map(|r| r.3 * r.1 as f64).sum();
    let mono_total: f64 = rows.iter().map(|r| r.4 * r.1 as f64).sum();
    let aggregate = seed_total / mono_total.max(f64::EPSILON);
    println!("record/speedup_min:  {min:.2}x");
    println!("record/speedup_agg:  {aggregate:.2}x (gate: >= {min_speedup:.2}x)");

    let fmt_list = |items: Vec<String>| items.join(", ");
    let out = llc_bench::bench_report_path(Some("BENCH_RECORD_OUT"), "BENCH_record.json");
    let json = format!(
        "{{\n  \"benchmark\": \"record\",\n  \"scale\": \"{}\",\n  \"cores\": {},\n  \
         \"sets\": {},\n  \"ways\": {},\n  \"samples\": {},\n  \"workloads\": [\"{}\"],\n  \
         \"trace_records\": [{}],\n  \"llc_refs\": [{}],\n  \"seed_ns_per_record\": [{}],\n  \
         \"mono_ns_per_record\": [{}],\n  \"speedups\": [{}],\n  \"speedup_min\": {:.3},\n  \
         \"speedup_aggregate\": {:.3},\n  \"min_speedup\": {:.3}\n}}\n",
        SCALE,
        CORES,
        cfg.llc.sets(),
        cfg.llc.ways,
        samples,
        SUITE.map(|a| a.label().to_string()).join("\", \""),
        fmt_list(rows.iter().map(|r| r.1.to_string()).collect()),
        fmt_list(rows.iter().map(|r| r.2.to_string()).collect()),
        fmt_list(rows.iter().map(|r| format!("{:.2}", r.3)).collect()),
        fmt_list(rows.iter().map(|r| format!("{:.2}", r.4)).collect()),
        fmt_list(rows.iter().map(|r| format!("{:.3}", r.5)).collect()),
        min,
        aggregate,
        min_speedup,
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("error: writing {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("record/report:       {}", out.display());

    if aggregate < min_speedup {
        eprintln!(
            "error: record aggregate speedup {aggregate:.2}x below required {min_speedup:.2}x"
        );
        std::process::exit(1);
    }
}
