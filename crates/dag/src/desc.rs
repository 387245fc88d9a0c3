//! Replay descriptors: the "policy parameters" axis of a replay node.
//!
//! A [`ReplayDesc`] names everything a per-policy replay depends on
//! *besides* the stream: the base [`PolicyKind`] and the wrapper around
//! it — none, the oracle (with its [`ProtectMode`] and the **resolved**
//! retention window), reactive protection, or a fill-time sharing
//! predictor ([`PredictorKind`]).
//! Callers must resolve defaulted windows (`oracle_window(config)`)
//! before building a descriptor — a descriptor never stores "default",
//! so the same effective run always maps to the same fingerprint no
//! matter how it was spelled.

use llc_policies::{PolicyKind, ProtectMode};
use llc_predictors::PredictorKind;

use llc_sim::Fold;

/// The wrapper (if any) around the base policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayWrap {
    /// The base policy replayed bare.
    Plain,
    /// The sharing-aware oracle wrapper with an explicit mode and a
    /// resolved retention window (in LLC accesses).
    Oracle {
        /// How predicted-shared lines are protected.
        mode: ProtectMode,
        /// The resolved retention window, in LLC accesses.
        window: u64,
    },
    /// Reactive (directory-driven, prediction-free) sharing protection.
    Reactive,
    /// Protection driven by a fill-time sharing predictor of this kind,
    /// built with its default table configuration.
    Predictor(PredictorKind),
}

/// Everything a per-policy replay depends on besides the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayDesc {
    /// The base replacement policy.
    pub kind: PolicyKind,
    /// The wrapper configuration.
    pub wrap: ReplayWrap,
}

/// `ProtectMode` as a stable small integer (the enum lives in
/// `llc-policies` without a serialization contract, so the mapping is
/// pinned here where it feeds on-disk fingerprints).
fn mode_code(mode: ProtectMode) -> u64 {
    match mode {
        ProtectMode::Eviction => 0,
        ProtectMode::Insertion => 1,
        ProtectMode::Both => 2,
    }
}

/// Short display name for a [`ProtectMode`].
fn mode_label(mode: ProtectMode) -> &'static str {
    match mode {
        ProtectMode::Eviction => "evict",
        ProtectMode::Insertion => "insert",
        ProtectMode::Both => "both",
    }
}

impl ReplayDesc {
    /// A bare replay of `kind`.
    pub fn plain(kind: PolicyKind) -> ReplayDesc {
        ReplayDesc {
            kind,
            wrap: ReplayWrap::Plain,
        }
    }

    /// An oracle-wrapped replay of `base` with a **resolved** window.
    pub fn oracle(base: PolicyKind, mode: ProtectMode, window: u64) -> ReplayDesc {
        ReplayDesc {
            kind: base,
            wrap: ReplayWrap::Oracle { mode, window },
        }
    }

    /// A reactive-protection replay of `base`.
    pub fn reactive(base: PolicyKind) -> ReplayDesc {
        ReplayDesc {
            kind: base,
            wrap: ReplayWrap::Reactive,
        }
    }

    /// A predictor-driven protection replay of `base`.
    pub fn predicted(base: PolicyKind, predictor: PredictorKind) -> ReplayDesc {
        ReplayDesc {
            kind: base,
            wrap: ReplayWrap::Predictor(predictor),
        }
    }

    /// Stable fingerprint of the descriptor alone (fold it into
    /// [`crate::replay_fp`] with the stream fingerprint to address the
    /// replay node). Folds the policy label rather than the enum
    /// discriminant so reordering `PolicyKind` variants cannot silently
    /// re-key every stored replay.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fold::new(0x4c4c_4344_4453_4331); // "LLCDDSC1"
        f.str(self.kind.label());
        match self.wrap {
            ReplayWrap::Plain => {
                f.u64(0);
            }
            ReplayWrap::Oracle { mode, window } => {
                f.u64(1).u64(mode_code(mode)).u64(window);
            }
            ReplayWrap::Reactive => {
                f.u64(2);
            }
            ReplayWrap::Predictor(predictor) => {
                f.u64(3).str(predictor.label());
            }
        }
        f.finish()
    }

    /// Human-readable descriptor label for plans and `repro explain`
    /// output, e.g. `LRU`, `oracle(LRU, evict, w=4096)`,
    /// `reactive(LRU)` or `predicted(LRU, PC)`.
    pub fn label(&self) -> String {
        let base = self.kind.label();
        match self.wrap {
            ReplayWrap::Plain => base.to_string(),
            ReplayWrap::Oracle { mode, window } => {
                format!("oracle({base}, {}, w={window})", mode_label(mode))
            }
            ReplayWrap::Reactive => format!("reactive({base})"),
            ReplayWrap::Predictor(predictor) => format!("predicted({base}, {predictor})"),
        }
    }

    /// The annotation window this replay needs, if any: oracle wraps
    /// need the shared-soon vector for their window, and any other OPT
    /// replay needs the next-use chains (window 0 — the next-use vector
    /// is window-independent). Every other descriptor needs none.
    pub fn annotation_window(&self) -> Option<u64> {
        match self.wrap {
            ReplayWrap::Oracle { window, .. } => Some(window),
            _ if self.kind == PolicyKind::Opt => Some(0),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KINDS: [PolicyKind; 5] = [
        PolicyKind::Lru,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Ship,
        PolicyKind::Opt,
    ];
    const MODES: [ProtectMode; 3] = [
        ProtectMode::Eviction,
        ProtectMode::Insertion,
        ProtectMode::Both,
    ];

    #[test]
    fn every_field_feeds_the_fingerprint() {
        let base = ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, 4096);
        assert_ne!(
            base.fingerprint(),
            ReplayDesc::oracle(PolicyKind::Srrip, ProtectMode::Eviction, 4096).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Insertion, 4096).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, 4097).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            ReplayDesc::plain(PolicyKind::Lru).fingerprint()
        );
    }

    #[test]
    fn annotation_windows() {
        assert_eq!(ReplayDesc::plain(PolicyKind::Lru).annotation_window(), None);
        assert_eq!(
            ReplayDesc::plain(PolicyKind::Opt).annotation_window(),
            Some(0)
        );
        assert_eq!(
            ReplayDesc::oracle(PolicyKind::Srrip, ProtectMode::Both, 77).annotation_window(),
            Some(77)
        );
        assert_eq!(
            ReplayDesc::reactive(PolicyKind::Lru).annotation_window(),
            None
        );
        assert_eq!(
            ReplayDesc::predicted(PolicyKind::Opt, PredictorKind::Pc).annotation_window(),
            Some(0)
        );
    }

    /// Stored replay nodes are addressed by these values: a change to
    /// the `Plain`/`Oracle` fingerprint scheme would orphan every store
    /// written before it.
    #[test]
    fn plain_and_oracle_fingerprints_are_pinned() {
        let pinned = [
            (ReplayDesc::plain(PolicyKind::Lru), 0x7fb3_b425_eae1_9f9c),
            (ReplayDesc::plain(PolicyKind::Ship), 0x57c9_d571_c5fa_a4a5),
            (ReplayDesc::plain(PolicyKind::Opt), 0xf052_c73b_7801_804a),
            (
                ReplayDesc::oracle(PolicyKind::Lru, ProtectMode::Eviction, 4096),
                0x892a_4ae0_5338_bb0b,
            ),
            (
                ReplayDesc::oracle(PolicyKind::Srrip, ProtectMode::Insertion, 1024),
                0x065c_1c6c_d336_54b2,
            ),
            (
                ReplayDesc::oracle(PolicyKind::Opt, ProtectMode::Both, 16384),
                0x4ea1_6ed3_aa1a_cb81,
            ),
        ];
        for (desc, fp) in pinned {
            assert_eq!(desc.fingerprint(), fp, "{}", desc.label());
        }
    }

    #[test]
    fn labels_name_every_wrap() {
        assert_eq!(
            ReplayDesc::reactive(PolicyKind::Lru).label(),
            "reactive(LRU)"
        );
        assert_eq!(
            ReplayDesc::predicted(PolicyKind::Srrip, PredictorKind::Pc).label(),
            "predicted(SRRIP, PC)"
        );
    }

    proptest! {
        /// All distinct descriptors get distinct fingerprints across the
        /// sampled space (kinds × every wrap × modes × windows ×
        /// predictor kinds).
        #[test]
        fn fingerprints_are_injective_over_sampled_space(
            lhs in (0usize..KINDS.len(), 0usize..MODES.len(), 0u64..1024, 0usize..4, 0usize..PredictorKind::ALL.len()),
            rhs in (0usize..KINDS.len(), 0usize..MODES.len(), 0u64..1024, 0usize..4, 0usize..PredictorKind::ALL.len()),
        ) {
            let mk = |(k, m, w, wrap, p): (usize, usize, u64, usize, usize)| match wrap {
                0 => ReplayDesc::plain(KINDS[k]),
                1 => ReplayDesc::oracle(KINDS[k], MODES[m], w),
                2 => ReplayDesc::reactive(KINDS[k]),
                _ => ReplayDesc::predicted(KINDS[k], PredictorKind::ALL[p]),
            };
            let (a, b) = (mk(lhs), mk(rhs));
            prop_assert_eq!(a == b, a.fingerprint() == b.fingerprint());
        }
    }
}
