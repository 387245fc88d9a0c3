//! Incremental sliding-window sharing characterization for live
//! streaming sessions.
//!
//! The offline pipeline annotates a *complete* recorded stream in one
//! fused backward scan ([`compute_annotations`](crate::compute_annotations)):
//! `shared_soon[i]` asks whether a core other than access `i`'s issuer
//! touches the same block within the next `window` accesses. A live
//! session cannot scan backward from the future, so
//! [`OnlineCharacterizer`] maintains the same per-block recurrence
//! *forward* over a sliding window of the last `window` accesses:
//!
//! * **Sharing taxonomy per access** — private vs shared read-only vs
//!   shared read-write, judged against the cores that touched the block
//!   within the window (the windowed form of the paper's
//!   generation-granular classes).
//! * **Predictor accuracy** — each access predicts its own `shared_soon`
//!   bit from history ("a different core touched this block within the
//!   window"), and the prediction resolves against ground truth as the
//!   stream advances: *shared* the moment a different core touches the
//!   block within `window` accesses, *not shared* when the access slides
//!   out of the window untouched. Ground truth is exact: after
//!   [`OnlineCharacterizer::finish`], the shared-resolution count equals
//!   the offline pass's `shared_soon` popcount (asserted in tests).
//!
//! State is bounded by the window: one ring entry plus at most one
//! pending prediction per in-window access, and a per-block touch table
//! that drains as accesses expire. The whole state checkpoints to JSON
//! ([`OnlineCharacterizer::to_json`]) and restores bit-identically
//! ([`OnlineCharacterizer::from_json`]), which is how `llc-serve`
//! sessions survive a daemon drain/restart.

use std::collections::VecDeque;

use fxhash::FxHashMap;
use llc_sim::{AccessKind, BlockAddr, CoreId, MemAccess, MAX_CORES};

use crate::json::Value;

/// Cumulative counters of an [`OnlineCharacterizer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineTally {
    /// Accesses pushed.
    pub accesses: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Accesses whose block was already touched within the window.
    pub reuses: u64,
    /// Reuses where a *different* core touched the block within the
    /// window.
    pub shared_reuses: u64,
    /// Accesses classified private (no other core in the window).
    pub private_accesses: u64,
    /// Accesses classified shared read-only.
    pub ro_shared_accesses: u64,
    /// Accesses classified shared read-write.
    pub rw_shared_accesses: u64,
    /// Predictions with a resolved ground truth.
    pub predictions_resolved: u64,
    /// Resolved predictions that matched the ground truth.
    pub predictions_correct: u64,
    /// Resolved predictions whose ground truth was *shared* — the online
    /// mirror of the offline `shared_soon` popcount.
    pub resolved_shared: u64,
}

/// A point-in-time snapshot of an [`OnlineCharacterizer`]:
/// the cumulative tally plus the live window occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    /// The configured window, in accesses.
    pub window: u64,
    /// Cumulative counters.
    pub tally: OnlineTally,
    /// Distinct blocks currently inside the window.
    pub blocks_in_window: u64,
    /// Predictions not yet resolved (their windows are still open).
    pub predictions_pending: u64,
}

impl OnlineStats {
    /// Fraction of reuses served by a block another core touched within
    /// the window (0 when nothing reused yet).
    pub fn shared_reuse_fraction(&self) -> f64 {
        if self.tally.reuses == 0 {
            0.0
        } else {
            self.tally.shared_reuses as f64 / self.tally.reuses as f64
        }
    }

    /// Accuracy of the history-based `shared_soon` predictor over the
    /// resolved predictions (0 when nothing resolved yet).
    pub fn accuracy(&self) -> f64 {
        if self.tally.predictions_resolved == 0 {
            0.0
        } else {
            self.tally.predictions_correct as f64 / self.tally.predictions_resolved as f64
        }
    }
}

/// Per-core touch counts of one block inside the window.
#[derive(Debug, Clone, Copy)]
struct CoreTouches {
    core: u8,
    count: u32,
    writes: u32,
}

/// One not-yet-resolved `shared_soon` prediction.
#[derive(Debug, Clone, Copy)]
struct Pending {
    index: u64,
    core: u8,
    predicted: bool,
}

#[derive(Debug, Default)]
struct BlockState {
    touches: Vec<CoreTouches>,
    pending: Vec<Pending>,
}

impl BlockState {
    fn total(&self) -> u64 {
        self.touches.iter().map(|t| u64::from(t.count)).sum()
    }

    fn touched_by_other(&self, core: u8) -> bool {
        self.touches.iter().any(|t| t.core != core && t.count > 0)
    }

    fn any_write(&self) -> bool {
        self.touches.iter().any(|t| t.writes > 0)
    }
}

#[derive(Debug, Clone, Copy)]
struct RingEntry {
    block: u64,
    core: u8,
    write: bool,
}

/// The incremental sliding-window characterizer. See the module docs.
#[derive(Debug)]
pub struct OnlineCharacterizer {
    window: u64,
    clock: u64,
    ring: VecDeque<RingEntry>,
    blocks: FxHashMap<u64, BlockState>,
    tally: OnlineTally,
}

impl OnlineCharacterizer {
    /// Creates a characterizer over a sliding window of `window`
    /// accesses (clamped to at least 1).
    pub fn new(window: u64) -> Self {
        OnlineCharacterizer {
            window: window.max(1),
            clock: 0,
            ring: VecDeque::new(),
            blocks: FxHashMap::default(),
            tally: OnlineTally::default(),
        }
    }

    /// The configured window, in accesses.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Accesses pushed so far.
    pub fn len(&self) -> u64 {
        self.clock
    }

    /// `true` if nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.clock == 0
    }

    /// A snapshot of the counters and window occupancy.
    pub fn stats(&self) -> OnlineStats {
        OnlineStats {
            window: self.window,
            tally: self.tally,
            blocks_in_window: self.blocks.len() as u64,
            predictions_pending: self.blocks.values().map(|s| s.pending.len() as u64).sum(),
        }
    }

    /// Index of the ring's front entry.
    fn front_index(&self) -> u64 {
        self.clock - self.ring.len() as u64
    }

    /// Expires every window entry with index `< upto`, resolving its
    /// still-pending prediction as *not shared*.
    fn expire_below(&mut self, upto: u64) {
        while self.front_index() < upto {
            let index = self.front_index();
            let entry = self.ring.pop_front().expect("front_index < clock");
            let Some(state) = self.blocks.get_mut(&entry.block) else {
                debug_assert!(false, "ring entry without block state");
                continue;
            };
            if let Some(pos) = state.pending.iter().position(|p| p.index == index) {
                let p = state.pending.remove(pos);
                self.tally.predictions_resolved += 1;
                if !p.predicted {
                    self.tally.predictions_correct += 1;
                }
            }
            if let Some(pos) = state
                .touches
                .iter()
                .position(|t| t.core == entry.core && t.count > 0)
            {
                state.touches[pos].count -= 1;
                if entry.write {
                    state.touches[pos].writes -= 1;
                }
                if state.touches[pos].count == 0 {
                    state.touches.remove(pos);
                }
            }
            if state.touches.is_empty() {
                debug_assert!(state.pending.is_empty(), "pending without live touches");
                self.blocks.remove(&entry.block);
            }
        }
    }

    /// Pushes one access: classifies it against the current window,
    /// resolves any predictions its arrival settles, and registers its
    /// own `shared_soon` prediction.
    pub fn push(&mut self, core: CoreId, block: BlockAddr, kind: AccessKind) {
        let index = self.clock;
        let core = core.index().min(MAX_CORES - 1) as u8;
        let block = block.raw();
        let write = kind.is_write();
        self.expire_below(index.saturating_sub(self.window));

        let state = self.blocks.entry(block).or_default();
        let reuse = state.total() > 0;
        let shared = state.touched_by_other(core);
        let any_write = state.any_write() || write;
        self.tally.accesses += 1;
        if write {
            self.tally.writes += 1;
        } else {
            self.tally.reads += 1;
        }
        if reuse {
            self.tally.reuses += 1;
            if shared {
                self.tally.shared_reuses += 1;
            }
        }
        if !shared {
            self.tally.private_accesses += 1;
        } else if any_write {
            self.tally.rw_shared_accesses += 1;
        } else {
            self.tally.ro_shared_accesses += 1;
        }

        // This access is the "different core touches the block" event for
        // every pending prediction made by another core: their windows
        // are open (unexpired), so their ground truth is *shared*.
        let mut resolved_shared = 0u64;
        let mut correct = 0u64;
        state.pending.retain(|p| {
            if p.core == core {
                return true;
            }
            resolved_shared += 1;
            if p.predicted {
                correct += 1;
            }
            false
        });
        self.tally.predictions_resolved += resolved_shared;
        self.tally.predictions_correct += correct;
        self.tally.resolved_shared += resolved_shared;

        // History-based prediction of this access's own shared_soon bit.
        state.pending.push(Pending {
            index,
            core,
            predicted: shared,
        });

        match state.touches.iter_mut().find(|t| t.core == core) {
            Some(t) => {
                t.count += 1;
                t.writes += u32::from(write);
            }
            None => state.touches.push(CoreTouches {
                core,
                count: 1,
                writes: u32::from(write),
            }),
        }
        self.ring.push_back(RingEntry { block, core, write });
        self.clock = index + 1;
    }

    /// Convenience wrapper over [`push`](Self::push) taking a raw trace
    /// record (block-granular address).
    pub fn push_access(&mut self, a: &MemAccess) {
        self.push(a.core, a.addr.block(), a.kind);
    }

    /// Ends the stream: slides the window past every in-flight access so
    /// all remaining predictions resolve as *not shared*. After this,
    /// `predictions_resolved == accesses` and `resolved_shared` equals
    /// the offline `shared_soon` popcount of the same access sequence.
    pub fn finish(&mut self) {
        self.expire_below(self.clock);
    }

    /// Serializes the complete state (tally, ring, pending predictions)
    /// to the checkpoint JSON shape. Blocks render as hex strings —
    /// block addresses can exceed the 2^53 integers JSON numbers carry
    /// exactly.
    pub fn to_json(&self) -> Value {
        let t = &self.tally;
        let ring = self
            .ring
            .iter()
            .map(|e| {
                Value::Array(vec![
                    Value::Str(format!("{:x}", e.block)),
                    Value::Num(f64::from(e.core)),
                    Value::Bool(e.write),
                ])
            })
            .collect();
        let mut pending: Vec<(u64, &Pending, u64)> = Vec::new();
        for (block, state) in &self.blocks {
            for p in &state.pending {
                pending.push((p.index, p, *block));
            }
        }
        // Deterministic order (map iteration is not).
        pending.sort_by_key(|(index, _, _)| *index);
        let pending = pending
            .into_iter()
            .map(|(_, p, block)| {
                Value::Array(vec![
                    Value::Num(p.index as f64),
                    Value::Str(format!("{block:x}")),
                    Value::Num(f64::from(p.core)),
                    Value::Bool(p.predicted),
                ])
            })
            .collect();
        Value::object(vec![
            ("version", Value::Num(1.0)),
            ("window", Value::Num(self.window as f64)),
            ("clock", Value::Num(self.clock as f64)),
            (
                "tally",
                Value::object(vec![
                    ("accesses", Value::Num(t.accesses as f64)),
                    ("reads", Value::Num(t.reads as f64)),
                    ("writes", Value::Num(t.writes as f64)),
                    ("reuses", Value::Num(t.reuses as f64)),
                    ("shared_reuses", Value::Num(t.shared_reuses as f64)),
                    ("private", Value::Num(t.private_accesses as f64)),
                    ("ro_shared", Value::Num(t.ro_shared_accesses as f64)),
                    ("rw_shared", Value::Num(t.rw_shared_accesses as f64)),
                    ("resolved", Value::Num(t.predictions_resolved as f64)),
                    ("correct", Value::Num(t.predictions_correct as f64)),
                    ("resolved_shared", Value::Num(t.resolved_shared as f64)),
                ]),
            ),
            ("ring", Value::Array(ring)),
            ("pending", Value::Array(pending)),
        ])
    }

    /// Restores a characterizer from [`to_json`](Self::to_json) output.
    /// The per-block touch table is rebuilt from the ring; restored state
    /// behaves bit-identically to the uninterrupted original.
    ///
    /// # Errors
    ///
    /// A human-readable message for any structural mismatch (wrong
    /// version, missing field, malformed entry).
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let version = v
            .field("version")
            .and_then(Value::as_u64)
            .ok_or("checkpoint missing version")?;
        if version != 1 {
            return Err(format!(
                "unsupported characterizer checkpoint version {version}"
            ));
        }
        let window = v
            .field("window")
            .and_then(Value::as_u64)
            .ok_or("checkpoint missing window")?;
        let clock = v
            .field("clock")
            .and_then(Value::as_u64)
            .ok_or("checkpoint missing clock")?;
        let t = v.field("tally").ok_or("checkpoint missing tally")?;
        let tn = |name: &str| -> Result<u64, String> {
            t.field(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("tally missing {name}"))
        };
        let tally = OnlineTally {
            accesses: tn("accesses")?,
            reads: tn("reads")?,
            writes: tn("writes")?,
            reuses: tn("reuses")?,
            shared_reuses: tn("shared_reuses")?,
            private_accesses: tn("private")?,
            ro_shared_accesses: tn("ro_shared")?,
            rw_shared_accesses: tn("rw_shared")?,
            predictions_resolved: tn("resolved")?,
            predictions_correct: tn("correct")?,
            resolved_shared: tn("resolved_shared")?,
        };
        let hex = |v: &Value| -> Result<u64, String> {
            let s = v.as_str().ok_or("block must be a hex string")?;
            u64::from_str_radix(s, 16).map_err(|e| format!("bad block {s:?}: {e}"))
        };
        let mut this = OnlineCharacterizer::new(window.max(1));
        this.clock = clock;
        this.tally = tally;
        let ring = v
            .field("ring")
            .and_then(Value::as_array)
            .ok_or("checkpoint missing ring")?;
        if ring.len() as u64 > clock {
            return Err("ring longer than clock".to_string());
        }
        for e in ring {
            let e = e.as_array().ok_or("ring entry must be an array")?;
            let [block, core, write] = e else {
                return Err("ring entry must have 3 fields".to_string());
            };
            let entry = RingEntry {
                block: hex(block)?,
                core: core
                    .as_u64()
                    .filter(|&c| c < MAX_CORES as u64)
                    .ok_or("ring core out of range")? as u8,
                write: matches!(write, Value::Bool(true)),
            };
            let state = this.blocks.entry(entry.block).or_default();
            match state.touches.iter_mut().find(|t| t.core == entry.core) {
                Some(t) => {
                    t.count += 1;
                    t.writes += u32::from(entry.write);
                }
                None => state.touches.push(CoreTouches {
                    core: entry.core,
                    count: 1,
                    writes: u32::from(entry.write),
                }),
            }
            this.ring.push_back(entry);
        }
        let pending = v
            .field("pending")
            .and_then(Value::as_array)
            .ok_or("checkpoint missing pending")?;
        for p in pending {
            let p = p.as_array().ok_or("pending entry must be an array")?;
            let [index, block, core, predicted] = p else {
                return Err("pending entry must have 4 fields".to_string());
            };
            let index = index.as_u64().ok_or("pending index must be an integer")?;
            if index >= clock || index < clock - this.ring.len() as u64 {
                return Err("pending index outside the ring".to_string());
            }
            let block = hex(block)?;
            let state = this
                .blocks
                .get_mut(&block)
                .ok_or("pending prediction on a block outside the window")?;
            state.pending.push(Pending {
                index,
                core: core
                    .as_u64()
                    .filter(|&c| c < MAX_CORES as u64)
                    .ok_or("pending core out of range")? as u8,
                predicted: matches!(predicted, Value::Bool(true)),
            });
        }
        Ok(this)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{compute_annotations, record_stream};
    use llc_sim::HierarchyConfig;
    use llc_trace::{App, Scale};

    fn push_raw(c: &mut OnlineCharacterizer, core: usize, block: u64, write: bool) {
        c.push(
            CoreId::new(core),
            BlockAddr::new(block),
            if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        );
    }

    #[test]
    fn classifies_private_ro_and_rw_sharing() {
        let mut c = OnlineCharacterizer::new(16);
        push_raw(&mut c, 0, 1, false); // private
        push_raw(&mut c, 0, 1, false); // still private (same core)
        push_raw(&mut c, 1, 1, false); // shared RO
        push_raw(&mut c, 2, 1, true); // shared RW (this write)
        push_raw(&mut c, 0, 1, false); // shared RW (window holds the write)
        let s = c.stats();
        assert_eq!(s.tally.accesses, 5);
        assert_eq!(s.tally.private_accesses, 2);
        assert_eq!(s.tally.ro_shared_accesses, 1);
        assert_eq!(s.tally.rw_shared_accesses, 2);
        assert_eq!(s.tally.reuses, 4);
        assert_eq!(s.tally.shared_reuses, 3);
        assert_eq!(s.blocks_in_window, 1);
    }

    #[test]
    fn window_expiry_forgets_old_sharing() {
        let mut c = OnlineCharacterizer::new(2);
        push_raw(&mut c, 0, 7, false);
        push_raw(&mut c, 1, 8, false);
        push_raw(&mut c, 1, 9, false);
        // Block 7's touch (index 0) has expired: index 3 - window 2 = 1 > 0.
        push_raw(&mut c, 1, 7, false);
        let s = c.stats();
        assert_eq!(s.tally.reuses, 0, "expired touches are not reuses");
        assert_eq!(s.tally.private_accesses, 4);
    }

    #[test]
    fn predictions_resolve_to_exact_ground_truth() {
        let mut c = OnlineCharacterizer::new(4);
        push_raw(&mut c, 0, 1, false); // predicts not-shared; core 1 at idx 2 → shared
        push_raw(&mut c, 0, 2, false); // predicts not-shared; never touched again → not shared
        push_raw(&mut c, 1, 1, false); // resolves idx 0 (actual shared, predicted false)
        c.finish();
        let s = c.stats();
        assert_eq!(s.tally.predictions_resolved, 3);
        assert_eq!(s.tally.resolved_shared, 1, "only idx 0 was shared-soon");
        // idx 0 predicted false but was shared (wrong); idx 1 predicted
        // false, not shared (right); idx 2 predicted shared (block 1 core 0
        // in window) and after finish resolves not-shared (wrong).
        assert_eq!(s.tally.predictions_correct, 1);
        assert_eq!(s.predictions_pending, 0);
    }

    #[test]
    fn matches_the_offline_fused_prepass_ground_truth() {
        // The online resolution of shared_soon must agree with the exact
        // offline backward scan on the same access sequence and window.
        let cfg = HierarchyConfig::tiny();
        for app in [App::Bodytrack, App::Fft, App::Dedup] {
            let stream = record_stream(&cfg, app.workload(cfg.cores, Scale::Tiny)).expect("record");
            for window in [8u64, 64, 1024] {
                let offline = compute_annotations(&stream, window);
                let expected = offline.shared_soon.iter().filter(|&&b| b).count() as u64;
                let mut online = OnlineCharacterizer::new(window);
                for a in stream.accesses() {
                    online.push(a.core, a.block, a.kind);
                }
                online.finish();
                let s = online.stats();
                assert_eq!(
                    s.tally.resolved_shared, expected,
                    "{app:?} window {window}: online ground truth diverged"
                );
                assert_eq!(s.tally.predictions_resolved, stream.len() as u64);
            }
        }
    }

    #[test]
    fn checkpoint_restores_bit_identically() {
        let cfg = HierarchyConfig::tiny();
        let stream =
            record_stream(&cfg, App::Bodytrack.workload(cfg.cores, Scale::Tiny)).expect("record");
        let accesses: Vec<_> = stream.accesses().collect();
        let split = accesses.len() / 3;
        for window in [16u64, 256] {
            // Uninterrupted run.
            let mut whole = OnlineCharacterizer::new(window);
            for a in &accesses {
                whole.push(a.core, a.block, a.kind);
            }
            // Run interrupted by a JSON round-trip mid-stream.
            let mut first = OnlineCharacterizer::new(window);
            for a in &accesses[..split] {
                first.push(a.core, a.block, a.kind);
            }
            let json = first.to_json().render();
            let parsed = crate::json::parse(&json).expect("checkpoint parses");
            let mut restored = OnlineCharacterizer::from_json(&parsed).expect("restore");
            for a in &accesses[split..] {
                restored.push(a.core, a.block, a.kind);
            }
            assert_eq!(restored.stats(), whole.stats(), "window {window}");
            whole.finish();
            restored.finish();
            assert_eq!(
                restored.stats(),
                whole.stats(),
                "window {window} after finish"
            );
        }
    }

    #[test]
    fn corrupt_checkpoints_are_errors_not_panics() {
        let mut c = OnlineCharacterizer::new(8);
        push_raw(&mut c, 0, 0xabc, true);
        push_raw(&mut c, 1, 0xabc, false);
        let good = c.to_json().render();
        assert!(OnlineCharacterizer::from_json(
            &crate::json::parse(&good.replace("\"version\":1", "\"version\":9")).unwrap()
        )
        .is_err());
        assert!(OnlineCharacterizer::from_json(
            &crate::json::parse(&good.replace("\"clock\":2", "\"clock\":0")).unwrap()
        )
        .is_err());
        assert!(
            OnlineCharacterizer::from_json(&crate::json::parse("{}").unwrap()).is_err(),
            "empty object is rejected"
        );
    }
}
