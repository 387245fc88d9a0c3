//! Stable node fingerprints.
//!
//! Every DAG node is content-addressed by a 64-bit fingerprint of its
//! *own* inputs, derived with the workspace's one key scheme — an
//! [`llc_sim::Fold`] chain seeded per node kind — so fingerprints do not
//! change across Rust releases, platforms or process restarts.
//! Distinct node kinds use distinct seeds, so a stream fingerprint can
//! never collide with (say) the annotation node derived from it by
//! construction rather than by luck.

use llc_sim::Fold;

/// Fingerprint of an annotation node: the fused next-use/shared-soon
/// pre-pass over `stream_fp` with retention window `window`. Nothing
/// else feeds the backward scan, so nothing else is folded — an
/// annotation artifact survives any change to sibling replay nodes.
pub fn annotations_fp(stream_fp: u64, window: u64) -> u64 {
    Fold::new(0x4c4c_4344_414e_4e31) // "LLCDANN1"
        .u64(stream_fp)
        .u64(window)
        .finish()
}

/// Fingerprint of a per-policy replay node: the [`crate::ReplayDesc`]
/// fingerprint applied to `stream_fp`. The stream fingerprint already
/// covers workload, thread count, scale and the full hierarchy geometry,
/// so the descriptor only needs to identify the policy configuration.
pub fn replay_fp(stream_fp: u64, desc_fp: u64) -> u64 {
    Fold::new(0x4c4c_4344_5250_4c31) // "LLCDRPL1"
        .u64(stream_fp)
        .u64(desc_fp)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_are_order_sensitive_and_seed_separated() {
        assert_ne!(
            Fold::new(1).u64(2).u64(3).finish(),
            Fold::new(1).u64(3).u64(2).finish()
        );
        assert_ne!(annotations_fp(7, 0), replay_fp(7, 0));
    }

    #[test]
    fn derivations_are_pinned() {
        // Pinned values: these address on-disk artifacts, so any change
        // here silently invalidates every existing store.
        assert_eq!(
            annotations_fp(0x8641_6d06_bf56_88ce, 256),
            0x2e7a_0133_c5c6_75c5
        );
        assert_eq!(
            replay_fp(0x8641_6d06_bf56_88ce, 0xdead_beef),
            0x6f6e_a12f_e192_733f
        );
        assert_ne!(annotations_fp(1, 2), annotations_fp(2, 1));
    }
}
