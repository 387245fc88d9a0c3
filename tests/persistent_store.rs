//! Cross-crate tests of the persistent content-addressed stream store:
//! `.llcs` disk round-trips, fingerprint stability across independent
//! "runs", and the corruption → typed error → re-record fallback.

use sharing_aware_llc::prelude::*;
use sharing_aware_llc::sharing::{replay_kind, StreamCache, StreamKey, WorkloadId};
use sharing_aware_llc::trace::StreamStore;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("llcs-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_cfg() -> HierarchyConfig {
    HierarchyConfig {
        cores: 4,
        l1: CacheConfig::from_kib(2, 2).expect("valid L1"),
        l2: None,
        llc: CacheConfig::from_kib(64, 8).expect("valid LLC"),
        inclusion: Inclusion::NonInclusive,
    }
}

fn key_for(app: App, cfg: HierarchyConfig) -> StreamKey {
    StreamKey {
        workload: WorkloadId::App(app),
        cores: cfg.cores,
        scale: Scale::Tiny,
        config: cfg,
    }
}

#[test]
fn fingerprints_are_stable_across_independent_runs() {
    let cfg = small_cfg();
    // Two keys built from scratch — as two processes would — agree.
    let a = key_for(App::Fft, cfg).fingerprint();
    let b = key_for(App::Fft, small_cfg()).fingerprint();
    assert_eq!(a, b, "fingerprints must be derivable, not per-process");
    // A key computed on another thread (fresh stack, no shared state)
    // also agrees.
    let c = std::thread::spawn(move || key_for(App::Fft, small_cfg()).fingerprint())
        .join()
        .expect("thread");
    assert_eq!(a, c);
    // And the address space is actually being used: any semantic change
    // moves the fingerprint.
    assert_ne!(a, key_for(App::Dedup, cfg).fingerprint());
    let mut bigger = small_cfg();
    bigger.llc = CacheConfig::from_kib(128, 8).expect("valid LLC");
    assert_ne!(a, key_for(App::Fft, bigger).fingerprint());
}

#[test]
fn llcs_files_round_trip_and_replay_identically() {
    let dir = temp_dir("roundtrip");
    let cfg = small_cfg();
    let key = key_for(App::Bodytrack, cfg);

    // Record through a store-backed cache; the .llcs file appears.
    let store = StreamStore::open(&dir).expect("open store");
    let cache = StreamCache::with_store(store.clone(), None);
    let recorded = cache
        .get_or_record(key, || App::Bodytrack.workload(cfg.cores, Scale::Tiny))
        .expect("record");
    // Stored recordings are named by the recording fingerprint, which
    // every non-inclusive LLC size of the key shares.
    assert!(
        store.contains(key.recording_fingerprint()),
        "recording is persisted"
    );

    // A second store handle (same directory, fresh state — a "new run")
    // loads the identical stream.
    let reopened = StreamStore::open(&dir).expect("reopen store");
    let loaded = reopened
        .load_view(key.recording_fingerprint())
        .expect("load")
        .expect("present")
        .to_owned_stream()
        .expect("decode");
    assert_eq!(loaded, *recorded, "disk round-trip is lossless");

    // And the loaded copy replays bit-identically to the live workload.
    let live = simulate(
        &cfg,
        &ReplayDesc::plain(PolicyKind::Lru),
        &mut || App::Bodytrack.workload(cfg.cores, Scale::Tiny),
        vec![],
    )
    .expect("live run");
    let replayed = replay_kind(&cfg, PolicyKind::Lru, &loaded, vec![]).expect("replay");
    assert_eq!(live.llc, replayed.llc, "replay from disk is bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corruption_is_a_typed_error_and_the_cache_re_records() {
    let dir = temp_dir("corruption");
    let cfg = small_cfg();
    let key = key_for(App::Swaptions, cfg);
    let store = StreamStore::open(&dir).expect("open store");

    let cache = StreamCache::with_store(store.clone(), None);
    let original = cache
        .get_or_record(key, || App::Swaptions.workload(cfg.cores, Scale::Tiny))
        .expect("record");

    // Truncate the stored file: a direct load is a typed TraceError,
    // never a panic.
    let path = store.path_for(key.recording_fingerprint());
    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate");
    assert!(
        matches!(
            store.load_view(key.recording_fingerprint()),
            Err(TraceError::Truncated { .. })
        ),
        "truncation surfaces as TraceError::Truncated"
    );
    // That load moved the bad copy to quarantine/; damage the store
    // again for the cache below.
    std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate again");

    // A fresh cache over the damaged store falls back to re-recording —
    // the caller never sees the corruption — and heals the disk copy.
    let fresh = StreamCache::with_store(store.clone(), None);
    let recovered = fresh
        .get_or_record(key, || App::Swaptions.workload(cfg.cores, Scale::Tiny))
        .expect("re-record over corruption");
    assert_eq!(
        *recovered, *original,
        "deterministic workloads re-record identically"
    );
    let stats = fresh.stats();
    assert_eq!(stats.disk_errors, 1, "the bad copy was counted");
    assert_eq!(stats.misses, 1, "recovery ran one recording simulation");
    let healed = store
        .load_view(key.recording_fingerprint())
        .expect("healed load")
        .expect("present")
        .to_owned_stream()
        .expect("decode");
    assert_eq!(healed, *original, "the overwritten file is intact again");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_bytes_track_view_backed_eviction_and_reload_exactly() {
    // The cap accounting invariant: at every point, `stats.bytes` equals
    // the sum of the resident entries' encoded sizes — including when
    // disk-backed entries are evicted and re-loaded from disk, and when
    // a live handle pins a stream across its entry's eviction.
    let dir = temp_dir("cache-bytes");
    let cfg = small_cfg();
    let store = StreamStore::open(&dir).expect("open store");

    let apps = [App::Fft, App::Dedup, App::Swaptions];
    let warm = StreamCache::with_store(store.clone(), None);
    let mut size = std::collections::HashMap::new();
    for &app in &apps {
        let s = warm
            .get_or_record(key_for(app, cfg), || app.workload(cfg.cores, Scale::Tiny))
            .expect("record");
        size.insert(app, s.encoded_len() as u64);
    }
    drop(warm);

    let resident_sum = |cache: &StreamCache| -> u64 {
        apps.iter()
            .filter(|&&a| cache.resident(&key_for(a, cfg)))
            .map(|&a| size[&a])
            .sum()
    };

    // A cap one byte short of the full set forces an eviction on every
    // third load; cycling the apps then evicts and re-loads each
    // disk-backed entry repeatedly.
    let limit = apps.iter().map(|a| size[a]).sum::<u64>() - 1;
    let cache = StreamCache::with_store(store.clone(), Some(limit));
    for round in 0..4 {
        for &app in &apps {
            cache
                .get_or_record(key_for(app, cfg), || app.workload(cfg.cores, Scale::Tiny))
                .expect("load");
            let stats = cache.stats();
            assert_eq!(
                stats.bytes,
                resident_sum(&cache),
                "drift after round {round} load of {app} ({stats:?})"
            );
            assert!(stats.bytes <= limit, "cap violated ({stats:?})");
        }
    }
    let stats = cache.stats();
    assert!(stats.evictions > 0, "the cap must have evicted something");
    assert!(stats.disk_hits > 0, "re-loads must come from disk");

    // A live handle pins a stream across its entry's eviction; the
    // accounting still matches the resident set exactly, and the pinned
    // copy is never double-counted when its key is re-loaded.
    let pinned = cache
        .get_or_record(key_for(App::Fft, cfg), || {
            App::Fft.workload(cfg.cores, Scale::Tiny)
        })
        .expect("pin fft");
    for &app in &apps[1..] {
        cache
            .get_or_record(key_for(app, cfg), || app.workload(cfg.cores, Scale::Tiny))
            .expect("evict fft");
    }
    assert!(
        !cache.resident(&key_for(App::Fft, cfg)),
        "fft's entry was evicted while the handle is live"
    );
    assert_eq!(cache.stats().bytes, resident_sum(&cache));
    cache
        .get_or_record(key_for(App::Fft, cfg), || {
            App::Fft.workload(cfg.cores, Scale::Tiny)
        })
        .expect("reload fft under a live handle");
    assert_eq!(cache.stats().bytes, resident_sum(&cache));
    assert_eq!(pinned.encoded_len() as u64, size[&App::Fft]);

    // Shrinking the cap mid-flight evicts down and stays exact.
    cache.set_limit(Some(size[&App::Fft]));
    assert_eq!(cache.stats().bytes, resident_sum(&cache));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_bytes_stay_exact_under_concurrent_evict_reload() {
    // Four threads hammer four disk-backed streams through a cap that
    // holds only half of them, so loads constantly evict entries other
    // threads hold live handles to; once quiesced, the byte accounting
    // must equal the resident set exactly (no drift in either direction).
    let dir = temp_dir("cache-race");
    let cfg = small_cfg();
    let store = StreamStore::open(&dir).expect("open store");
    let apps = [App::Fft, App::Dedup, App::Swaptions, App::Bodytrack];
    let warm = StreamCache::with_store(store.clone(), None);
    let mut total = 0u64;
    for &app in &apps {
        total += warm
            .get_or_record(key_for(app, cfg), || app.workload(cfg.cores, Scale::Tiny))
            .expect("record")
            .encoded_len() as u64;
    }
    drop(warm);

    let cache = StreamCache::with_store(store.clone(), Some(total / 2));
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let cache = cache.clone();
            scope.spawn(move || {
                for i in 0..30 {
                    let app = apps[(t + i) % apps.len()];
                    let _held = cache
                        .get_or_record(key_for(app, cfg), || app.workload(cfg.cores, Scale::Tiny))
                        .expect("load");
                }
            });
        }
    });
    let mut resident = 0u64;
    for &app in &apps {
        if cache.resident(&key_for(app, cfg)) {
            resident += cache
                .get_or_record(key_for(app, cfg), || app.workload(cfg.cores, Scale::Tiny))
                .expect("resident hit")
                .encoded_len() as u64;
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.bytes, resident, "post-storm drift: {stats:?}");
    assert!(stats.evictions > 0, "the storm must have evicted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_view_survives_random_corruption_with_typed_errors() {
    // Flip bytes all over a persisted `.llcs` image and map each mutant
    // back through the view validator: every outcome must be a
    // clean `Ok` (mutation landed somewhere semantically inert) or a
    // typed `TraceError` — never a panic, never an abort.
    let dir = temp_dir("view-fault");
    let store = StreamStore::open(&dir).expect("store opens");
    let cfg = small_cfg();
    let stream =
        sharing_aware_llc::sharing::record_stream(&cfg, App::Fft.workload(cfg.cores, Scale::Tiny))
            .expect("record");
    let fp = key_for(App::Fft, cfg).fingerprint();
    store.save(fp, &stream).expect("save");
    let path = store.path_for(fp);
    let clean = std::fs::read(&path).expect("read image");

    let mut x = 0xdead_beef_cafe_f00du64;
    let mut typed_errors = 0usize;
    for _ in 0..300 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut bytes = clean.clone();
        let pos = (x as usize >> 8) % bytes.len();
        bytes[pos] ^= (x as u8) | 1;
        // Truncations too, every few mutants.
        if x.is_multiple_of(7) {
            bytes.truncate(pos);
        }
        std::fs::write(&path, &bytes).expect("write mutant");
        match store.load_view(fp) {
            Ok(_) => {}
            Err(_) => typed_errors += 1,
        }
    }
    assert!(
        typed_errors > 0,
        "at least some mutants must surface as typed errors"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
