//! Bench: the monomorphized replay kernel vs the pre-PR dyn baseline.
//!
//! Records one LLC reference stream, then replays the same policies
//! through three kernels:
//!
//! * **dyn** — the replay kernel as it stood *before* the monomorphized
//!   drivers landed: array-of-structs line storage, a
//!   `Box<dyn ReplacementPolicy>`, a boxed per-access aux provider, a
//!   `MultiObserver` fan-out and division-based tag arithmetic. The
//!   in-tree fallback now shares the struct-of-arrays cache with the
//!   monomorphized path, so the pre-PR kernel is reconstructed here
//!   (module [`seed`], a line-for-line port of the previous
//!   `Llc`/`replay` hot loop) to stay measurable. This is the gate
//!   baseline.
//! * **fallback** — the in-tree generic driver `replay_on()` over a
//!   boxed policy, a boxed aux provider and a `MultiObserver`: still
//!   virtual calls per access, but over the new SoA storage. Reported for
//!   transparency; not gated.
//! * **mono** — `replay_kind()`: dispatched once per run through
//!   `with_policy!` to a driver compiled against the concrete policy and
//!   `NullObserver` types, with no aux provider installed at all.
//!
//! All three produce bit-identical stats (asserted here and
//! property-tested in `tests/replay_equivalence.rs`); after one untimed
//! pass over the whole suite, the benchmark
//! measures single-thread throughput (ns/access and Maccesses/s) and
//! writes `BENCH_kernel.json` at the workspace root (override with
//! `BENCH_KERNEL_OUT`). Exits nonzero if the *suite-aggregate*
//! mono-over-dyn speedup (total dyn time over total mono time across the
//! suite) falls below `BENCH_KERNEL_MIN_SPEEDUP` (default 1.5).
//!
//! The gate is aggregate rather than per-policy minimum because the dyn
//! baseline's cost is policy-dependent in a way the kernel cannot fix:
//! SHiP's ~50% hit rate halves how often the seed kernel runs its
//! expensive miss path (gather + multi-pass scan), so its dyn time is
//! structurally low even though its mono time matches the other
//! policies at the memory-bound floor. Per-policy speedups and their
//! minimum are still reported in the JSON for transparency.

use std::hint::black_box;
use std::time::{Duration, Instant};

use llc_policies::{build_policy, PolicyKind};
use llc_sharing::{record_stream, replay_kind, replay_on};
use llc_sim::{CacheConfig, HierarchyConfig, Inclusion, LlcStats, MultiObserver, NoAux};
use llc_trace::{App, Scale};

const APP: App = App::Swaptions;
const CORES: usize = 4;
const SCALE: Scale = Scale::Small;

/// Policies measured: LRU (cheapest hooks, dispatch-bound), SRRIP
/// (counter updates on the scan) and SHiP (PC-indexed table work).
const SUITE: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Ship];

/// Faithful reconstruction of the replay kernel this PR replaced, ported
/// line for line from the previous `llc_sim::Llc` + `llc_sharing::replay`
/// (array-of-structs lines, virtual policy/aux/observer calls per access,
/// `tag = block / sets`). Kept in the bench — not the library — because
/// the library's own fallback now shares the SoA storage and would
/// under-state the PR's delta.
mod seed {
    use llc_sim::{
        AccessCtx, AccessKind, AuxProvider, BlockAddr, CacheConfig, CoreId, EvictCause,
        GenerationEnd, HierarchyConfig, LineView, LiveGeneration, LlcObserver, LlcStats,
        MultiObserver, NoAux, Pc, ReplacementPolicy, SetView,
    };
    use llc_trace::RecordedStream;

    #[derive(Debug, Clone, Copy, Default)]
    struct Line {
        valid: bool,
        tag: u64,
        sharer_mask: u32,
        writer_mask: u32,
        hits: u32,
        hits_by_non_filler: u32,
        writes: u32,
        fill_pc: Pc,
        fill_core: CoreId,
        fill_time: u64,
    }

    struct Llc {
        sets: u64,
        ways: usize,
        lines: Vec<Line>,
        policy: Box<dyn ReplacementPolicy>,
        aux: Box<dyn AuxProvider>,
        time: u64,
        stats: LlcStats,
        view_buf: Vec<LineView>,
        full_mask: u64,
    }

    impl Llc {
        fn new(config: CacheConfig, policy: Box<dyn ReplacementPolicy>) -> Self {
            let sets = config.sets();
            let ways = config.ways;
            Llc {
                sets,
                ways,
                lines: vec![Line::default(); (sets * ways as u64) as usize],
                policy,
                aux: Box::new(NoAux),
                time: 0,
                stats: LlcStats::default(),
                view_buf: vec![
                    LineView {
                        block: BlockAddr::new(0),
                        sharer_count: 0,
                        dirty: false
                    };
                    ways
                ],
                full_mask: if ways == 64 {
                    u64::MAX
                } else {
                    (1u64 << ways) - 1
                },
            }
        }

        #[inline]
        fn find_way(&self, base: usize, tag: u64) -> Option<usize> {
            (0..self.ways).find(|&w| {
                let line = &self.lines[base + w];
                line.valid && line.tag == tag
            })
        }

        fn note_upgrade(&mut self, block: BlockAddr, core: CoreId) {
            let set = block.set_index(self.sets);
            let tag = block.raw() / self.sets;
            let base = set as usize * self.ways;
            if let Some(w) = self.find_way(base, tag) {
                let line = &mut self.lines[base + w];
                line.sharer_mask |= core.bit();
                line.writer_mask |= core.bit();
                line.writes = line.writes.saturating_add(1);
            }
        }

        fn access(
            &mut self,
            block: BlockAddr,
            pc: Pc,
            core: CoreId,
            kind: AccessKind,
            obs: &mut dyn LlcObserver,
        ) {
            let time = self.time;
            self.time += 1;
            self.stats.accesses += 1;
            if kind.is_write() {
                self.stats.writes += 1;
            }

            let aux = self.aux.aux_for(time, block);
            let ctx = AccessCtx {
                block,
                pc,
                core,
                kind,
                time,
                aux,
            };

            let set = block.set_index(self.sets);
            let tag = block.raw() / self.sets;
            let base = set as usize * self.ways;

            if let Some(w) = self.find_way(base, tag) {
                let line = &mut self.lines[base + w];
                let was_new_sharer = line.sharer_mask & core.bit() == 0;
                line.sharer_mask |= core.bit();
                line.hits = line.hits.saturating_add(1);
                if core != line.fill_core {
                    line.hits_by_non_filler = line.hits_by_non_filler.saturating_add(1);
                    self.stats.hits_by_non_filler += 1;
                }
                if kind.is_write() {
                    line.writes = line.writes.saturating_add(1);
                    line.writer_mask |= core.bit();
                }
                self.stats.hits += 1;
                let live = LiveGeneration {
                    block,
                    sharer_mask: line.sharer_mask,
                    writer_mask: line.writer_mask,
                    hits: line.hits,
                    fill_core: line.fill_core,
                    fill_time: line.fill_time,
                };
                obs.on_hit(&ctx, &live, was_new_sharer);
                self.policy.on_hit(set as usize, w, &ctx);
                return;
            }

            let mut fill_way = None;
            for w in 0..self.ways {
                if !self.lines[base + w].valid {
                    fill_way = Some(w);
                    break;
                }
            }
            let way = match fill_way {
                Some(w) => w,
                None => {
                    for w in 0..self.ways {
                        let line = &self.lines[base + w];
                        self.view_buf[w] = LineView {
                            block: BlockAddr::new(line.tag * self.sets + set),
                            sharer_count: line.sharer_mask.count_ones(),
                            dirty: line.writes > 0,
                        };
                    }
                    let view = SetView {
                        lines: &self.view_buf,
                        allowed: self.full_mask,
                    };
                    let w = self.policy.choose_victim(set as usize, &view, &ctx);
                    let gen = self.end_generation(set, w, time, EvictCause::Replacement);
                    self.stats.evictions += 1;
                    self.policy.on_evict(set as usize, w, &gen);
                    obs.on_generation_end(&gen);
                    w
                }
            };

            self.stats.fills += 1;
            self.lines[base + way] = Line {
                valid: true,
                tag,
                sharer_mask: core.bit(),
                writer_mask: if kind.is_write() { core.bit() } else { 0 },
                hits: 0,
                hits_by_non_filler: 0,
                writes: if kind.is_write() { 1 } else { 0 },
                fill_pc: pc,
                fill_core: core,
                fill_time: time,
            };
            obs.on_fill(&ctx);
            self.policy.on_fill(set as usize, way, &ctx);
        }

        fn end_generation(
            &mut self,
            set: u64,
            way: usize,
            now: u64,
            cause: EvictCause,
        ) -> GenerationEnd {
            let base = set as usize * self.ways;
            let line = &mut self.lines[base + way];
            let gen = GenerationEnd {
                block: BlockAddr::new(line.tag * self.sets + set),
                set: set as usize,
                fill_pc: line.fill_pc,
                fill_core: line.fill_core,
                fill_time: line.fill_time,
                end_time: now,
                sharer_mask: line.sharer_mask,
                writer_mask: line.writer_mask,
                hits: line.hits,
                hits_by_non_filler: line.hits_by_non_filler,
                writes: line.writes,
                cause,
            };
            line.valid = false;
            gen
        }

        fn flush(&mut self, obs: &mut dyn LlcObserver) {
            let now = self.time;
            for set in 0..self.sets {
                for way in 0..self.ways {
                    let base = set as usize * self.ways;
                    if self.lines[base + way].valid {
                        let gen = self.end_generation(set, way, now, EvictCause::Flush);
                        self.stats.flushed += 1;
                        self.policy.on_evict(set as usize, way, &gen);
                        obs.on_generation_end(&gen);
                    }
                }
            }
        }
    }

    /// The suite policies as they stood before this PR, ported from the
    /// previous `llc-policies` sources. The in-tree policies since gained a
    /// one-pass RRIP victim scan and `needs_line_views` gather skipping;
    /// linking them into the baseline would smuggle those wins into the
    /// denominator. Decisions are bit-identical to the current policies
    /// (asserted below), only the work per decision differs.
    mod policies {
        use llc_sim::{AccessCtx, GenerationEnd, ReplacementPolicy, SetView};

        pub const RRPV_MAX: u8 = 3;
        pub const RRPV_LONG: u8 = RRPV_MAX - 1;

        pub struct Lru {
            ways: usize,
            stamps: Vec<u64>,
            clock: u64,
        }

        impl Lru {
            pub fn new(sets: usize, ways: usize) -> Self {
                Lru {
                    ways,
                    stamps: vec![0; sets * ways],
                    clock: 0,
                }
            }

            fn touch(&mut self, set: usize, way: usize) {
                self.clock += 1;
                self.stamps[set * self.ways + way] = self.clock;
            }
        }

        impl ReplacementPolicy for Lru {
            fn name(&self) -> String {
                "LRU".into()
            }
            fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
                self.touch(set, way);
            }
            fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
                self.touch(set, way);
            }
            fn choose_victim(&mut self, set: usize, view: &SetView<'_>, _ctx: &AccessCtx) -> usize {
                view.allowed_ways()
                    .min_by_key(|&w| self.stamps[set * self.ways + w])
                    .expect("victim candidates must be non-empty")
            }
        }

        /// Multi-pass RRIP victim scan exactly as the seed wrote it: look
        /// for a distant way, age everything by one, rescan.
        fn rescan_victim(rrpv: &mut [u8], view: &SetView<'_>) -> usize {
            loop {
                for (w, v) in rrpv.iter().enumerate() {
                    if view.is_allowed(w) && *v == RRPV_MAX {
                        return w;
                    }
                }
                for v in rrpv.iter_mut() {
                    *v = (*v + 1).min(RRPV_MAX);
                }
            }
        }

        /// The seed's `Rrip` restricted to the Static flavor the suite
        /// measures (no dueling state).
        pub struct Srrip {
            ways: usize,
            rrpv: Vec<u8>,
        }

        impl Srrip {
            pub fn new(sets: usize, ways: usize) -> Self {
                Srrip {
                    ways,
                    rrpv: vec![RRPV_MAX; sets * ways],
                }
            }
        }

        impl ReplacementPolicy for Srrip {
            fn name(&self) -> String {
                "SRRIP".into()
            }
            fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
                self.rrpv[set * self.ways + way] = RRPV_LONG;
            }
            fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
                self.rrpv[set * self.ways + way] = 0;
            }
            fn choose_victim(&mut self, set: usize, view: &SetView<'_>, _ctx: &AccessCtx) -> usize {
                let rrpv = &mut self.rrpv[set * self.ways..(set + 1) * self.ways];
                rescan_victim(rrpv, view)
            }
        }

        pub const SHCT_ENTRIES: usize = 16 * 1024;
        pub const SHCT_MAX: u8 = 7;

        pub struct Ship {
            ways: usize,
            rrpv: Vec<u8>,
            line_sig: Vec<u16>,
            line_outcome: Vec<bool>,
            shct: Vec<u8>,
        }

        impl Ship {
            pub fn new(sets: usize, ways: usize) -> Self {
                Ship {
                    ways,
                    rrpv: vec![RRPV_MAX; sets * ways],
                    line_sig: vec![0; sets * ways],
                    line_outcome: vec![false; sets * ways],
                    shct: vec![1; SHCT_ENTRIES],
                }
            }

            fn signature(ctx: &AccessCtx) -> u16 {
                (ctx.pc.hash() % SHCT_ENTRIES as u64) as u16
            }
        }

        impl ReplacementPolicy for Ship {
            fn name(&self) -> String {
                "SHiP".into()
            }
            fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessCtx) {
                let sig = Self::signature(ctx);
                let i = set * self.ways + way;
                self.line_sig[i] = sig;
                self.line_outcome[i] = false;
                self.rrpv[i] = if self.shct[sig as usize] == 0 {
                    RRPV_MAX
                } else {
                    RRPV_LONG
                };
            }
            fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessCtx) {
                let i = set * self.ways + way;
                self.rrpv[i] = 0;
                if !self.line_outcome[i] {
                    self.line_outcome[i] = true;
                    let c = &mut self.shct[self.line_sig[i] as usize];
                    *c = (*c + 1).min(SHCT_MAX);
                }
            }
            fn on_evict(&mut self, set: usize, way: usize, _gen: &GenerationEnd) {
                let i = set * self.ways + way;
                if !self.line_outcome[i] {
                    let c = &mut self.shct[self.line_sig[i] as usize];
                    *c = c.saturating_sub(1);
                }
            }
            fn choose_victim(&mut self, set: usize, view: &SetView<'_>, _ctx: &AccessCtx) -> usize {
                let rrpv = &mut self.rrpv[set * self.ways..(set + 1) * self.ways];
                rescan_victim(rrpv, view)
            }
        }
    }

    /// Builds the seed-era boxed policy for a suite entry.
    pub fn build_policy(
        kind: llc_policies::PolicyKind,
        sets: usize,
        ways: usize,
    ) -> Box<dyn ReplacementPolicy> {
        use llc_policies::PolicyKind;
        match kind {
            PolicyKind::Lru => Box::new(policies::Lru::new(sets, ways)),
            PolicyKind::Srrip => Box::new(policies::Srrip::new(sets, ways)),
            PolicyKind::Ship => Box::new(policies::Ship::new(sets, ways)),
            other => panic!("no seed port for {}", other.label()),
        }
    }

    /// The previous `replay()` driver: per-iteration upgrade bounds check,
    /// every access through `&mut dyn LlcObserver`.
    pub fn replay(
        config: &HierarchyConfig,
        policy: Box<dyn ReplacementPolicy>,
        stream: &RecordedStream,
    ) -> LlcStats {
        let mut llc = Llc::new(config.llc, policy);
        let mut obs = MultiObserver::new(vec![]);
        let upgrades = &stream.upgrades;
        let mut up = 0usize;
        for i in 0..stream.len() {
            while up < upgrades.len() && upgrades[up].at <= i as u64 {
                llc.note_upgrade(upgrades[up].block, upgrades[up].core);
                obs.on_upgrade(upgrades[up].block, upgrades[up].core);
                up += 1;
            }
            llc.access(
                stream.blocks[i],
                stream.pcs[i],
                stream.cores[i],
                stream.kinds[i],
                &mut obs,
            );
        }
        while up < upgrades.len() {
            llc.note_upgrade(upgrades[up].block, upgrades[up].core);
            obs.on_upgrade(upgrades[up].block, upgrades[up].core);
            up += 1;
        }
        llc.flush(&mut obs);
        llc.stats
    }
}

fn config() -> HierarchyConfig {
    // Same paper-style hierarchy as the streams bench.
    HierarchyConfig {
        cores: CORES,
        l1: CacheConfig::from_kib(32, 8).unwrap(),
        l2: Some(CacheConfig::from_kib(256, 8).unwrap()),
        llc: CacheConfig::from_kib(1024, 16).unwrap(),
        inclusion: Inclusion::NonInclusive,
    }
}

/// One timed run of `f`.
fn time_once<F: FnMut() -> LlcStats>(f: &mut F) -> (Duration, LlcStats) {
    let start = Instant::now();
    let stats = black_box(f());
    (start.elapsed(), stats)
}

/// Best-of-`samples` wall clock for each of the three kernels, sampled in
/// interleaved rounds (dyn, fallback, mono, dyn, …) so slow phases of the
/// host hit all three paths alike. The minimum is the noise-robust
/// estimator: every perturbation only ever adds time.
fn time3<F1, F2, F3>(
    samples: usize,
    mut dyn_f: F1,
    mut fb_f: F2,
    mut mono_f: F3,
) -> ([Duration; 3], [LlcStats; 3])
where
    F1: FnMut() -> LlcStats,
    F2: FnMut() -> LlcStats,
    F3: FnMut() -> LlcStats,
{
    let mut best = [Duration::MAX; 3];
    let mut stats = [LlcStats::default(); 3];
    for _ in 0..samples {
        let (t0, s0) = time_once(&mut dyn_f);
        let (t1, s1) = time_once(&mut fb_f);
        let (t2, s2) = time_once(&mut mono_f);
        best = [best[0].min(t0), best[1].min(t1), best[2].min(t2)];
        stats = [s0, s1, s2];
    }
    (best, stats)
}

fn main() {
    let samples: usize = std::env::var("BENCH_KERNEL_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let min_speedup: f64 = std::env::var("BENCH_KERNEL_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.5);
    let cfg = config();
    let sets = cfg.llc.sets() as usize;
    let ways = cfg.llc.ways;

    let stream = record_stream(&cfg, APP.workload(CORES, SCALE)).expect("recording runs");
    let accesses = stream.len() as u64;

    let run = |kind: PolicyKind, samples: usize| {
        time3(
            samples,
            || seed::replay(&cfg, seed::build_policy(kind, sets, ways), &stream),
            || {
                replay_on(
                    &cfg,
                    build_policy(kind, sets, ways),
                    Some(Box::new(NoAux)),
                    &stream,
                    &mut MultiObserver::new(Vec::new()),
                )
                .expect("fallback replay runs")
                .llc
            },
            || {
                replay_kind(&cfg, kind, &stream, vec![])
                    .expect("mono replay runs")
                    .llc
            },
        )
    };
    // One untimed pass over the whole suite first: otherwise the first
    // policy timed pays the process's cold start alone and reads slow.
    for &kind in &SUITE {
        black_box(run(kind, 1));
    }
    let mut rows = Vec::with_capacity(SUITE.len());
    for &kind in &SUITE {
        let ([dyn_t, fb_t, mono_t], [dyn_stats, fb_stats, mono_stats]) = run(kind, samples);
        assert_eq!(
            dyn_stats,
            mono_stats,
            "seed and mono kernels must produce identical stats for {}",
            kind.label()
        );
        assert_eq!(
            fb_stats,
            mono_stats,
            "fallback and mono kernels must produce identical stats for {}",
            kind.label()
        );
        let miss_ratio = mono_stats.miss_ratio();
        let dyn_ns = dyn_t.as_secs_f64() * 1e9 / accesses as f64;
        let fb_ns = fb_t.as_secs_f64() * 1e9 / accesses as f64;
        let mono_ns = mono_t.as_secs_f64() * 1e9 / accesses as f64;
        let speedup = dyn_ns / mono_ns.max(f64::EPSILON);
        println!(
            "kernel/{}: dyn {dyn_ns:.1} ns/access, fallback {fb_ns:.1}, mono {mono_ns:.1} \
             ({speedup:.2}x, {:.1} Macc/s, miss ratio {miss_ratio:.3})",
            kind.label(),
            1e3 / mono_ns
        );
        rows.push((kind, dyn_ns, fb_ns, mono_ns, speedup));
    }

    let min = rows.iter().map(|r| r.4).fold(f64::INFINITY, f64::min);
    let dyn_total: f64 = rows.iter().map(|r| r.1).sum();
    let mono_total: f64 = rows.iter().map(|r| r.3).sum();
    let aggregate = dyn_total / mono_total.max(f64::EPSILON);
    println!("kernel/speedup_min:  {min:.2}x");
    println!("kernel/speedup_agg:  {aggregate:.2}x (gate: >= {min_speedup:.2}x)");

    let fmt_list = |items: Vec<String>| items.join(", ");
    let out = llc_bench::bench_report_path(Some("BENCH_KERNEL_OUT"), "BENCH_kernel.json");
    let json = format!(
        "{{\n  \"benchmark\": \"kernel\",\n  \"workload\": \"{}\",\n  \"scale\": \"{}\",\n  \
         \"cores\": {},\n  \"sets\": {},\n  \"ways\": {},\n  \"samples\": {},\n  \
         \"llc_refs\": {},\n  \"policies\": [\"{}\"],\n  \"dyn_ns_per_access\": [{}],\n  \
         \"fallback_ns_per_access\": [{}],\n  \"mono_ns_per_access\": [{}],\n  \
         \"speedups\": [{}],\n  \"speedup_min\": {:.3},\n  \"speedup_aggregate\": {:.3},\n  \
         \"min_speedup\": {:.3}\n}}\n",
        APP.label(),
        SCALE,
        CORES,
        cfg.llc.sets(),
        ways,
        samples,
        accesses,
        SUITE.map(|k| k.label()).join("\", \""),
        fmt_list(rows.iter().map(|r| format!("{:.2}", r.1)).collect()),
        fmt_list(rows.iter().map(|r| format!("{:.2}", r.2)).collect()),
        fmt_list(rows.iter().map(|r| format!("{:.2}", r.3)).collect()),
        fmt_list(rows.iter().map(|r| format!("{:.3}", r.4)).collect()),
        min,
        aggregate,
        min_speedup,
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("error: writing {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("kernel/report:       {}", out.display());

    if aggregate < min_speedup {
        eprintln!(
            "error: kernel aggregate speedup {aggregate:.2}x below required {min_speedup:.2}x"
        );
        std::process::exit(1);
    }
}
