//! # llc-policies — LLC replacement policies for the sharing study
//!
//! Implementations of the replacement policies the paper evaluates or
//! builds on:
//!
//! * the baseline: [`Lru`];
//! * simple hardware policies: [`Nru`], [`Random`];
//! * "recent proposals": the RRIP family ([`Rrip::srrip`], [`Rrip::brrip`],
//!   [`Rrip::drrip`]), the DIP family ([`Dip::lip`], [`Dip::bip`],
//!   [`Dip::dip`]) and [`Ship`] (SHiP-PC);
//! * the offline optimum: [`Opt`] (Belady), driven by next-use
//!   annotations;
//! * the paper's contribution scaffold: [`OracleWrap`], the generic
//!   sharing-aware oracle usable with any of the above;
//! * a realistic prediction-free variant: [`ReactiveWrap`], protecting
//!   lines the directory already knows to be shared.
//!
//! All policies implement [`llc_sim::ReplacementPolicy`] and honour the
//! victim-candidate mask, which is how [`OracleWrap`] composes with them.
//!
//! ## Example
//!
//! ```
//! use llc_policies::{build_policy, PolicyKind};
//!
//! let policy = build_policy(PolicyKind::Srrip, 4096, 16);
//! assert_eq!(policy.name(), "SRRIP");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dip;
pub mod duel;
pub mod lru;
pub mod nru;
pub mod opt;
pub mod oracle;
pub mod random;
pub mod reactive;
pub mod rrip;
pub mod ship;

#[cfg(test)]
pub(crate) mod testutil;

pub use dip::{Dip, DipFlavor, BIP_EPSILON};
pub use duel::{SetDuel, Team, ThreadAwareDuel, LEADERS_PER_TEAM};
pub use lru::Lru;
pub use nru::Nru;
pub use opt::Opt;
pub use oracle::{OracleWrap, ProtectMode};
pub use random::Random;
pub use reactive::ReactiveWrap;
pub use rrip::{Rrip, RripFlavor, BRRIP_EPSILON, RRPV_BITS, RRPV_LONG, RRPV_MAX};
pub use ship::{Ship, SHCT_ENTRIES, SHCT_MAX};

use llc_sim::ReplacementPolicy;

/// Returns `true` when `view.allowed` covers all `ways` ways — the common
/// case outside the masking wrappers, where victim scans may take a dense
/// (mask-test-free, vectorizable) path over the whole row.
#[inline]
pub(crate) fn full_row_mask(view: &llc_sim::SetView<'_>, ways: usize) -> bool {
    let full = if ways >= 64 {
        u64::MAX
    } else {
        (1u64 << ways) - 1
    };
    view.allowed == full
}

/// The policies the experiment harness can instantiate by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// True least-recently-used (the paper's baseline).
    Lru,
    /// Uniform-random replacement.
    Random,
    /// Not-recently-used (one reference bit).
    Nru,
    /// Static RRIP.
    Srrip,
    /// Bimodal RRIP.
    Brrip,
    /// Dynamic (set-dueling) RRIP.
    Drrip,
    /// Thread-aware DRRIP (per-thread PSELs).
    TaDrrip,
    /// LRU-insertion policy.
    Lip,
    /// Bimodal insertion policy.
    Bip,
    /// Dynamic (set-dueling) insertion policy.
    Dip,
    /// SHiP-PC.
    Ship,
    /// Belady's OPT (requires next-use annotations).
    Opt,
}

impl PolicyKind {
    /// All realistic (online) policies, in the order the paper-style
    /// figures report them.
    pub const REALISTIC: [PolicyKind; 11] = [
        PolicyKind::Lru,
        PolicyKind::Random,
        PolicyKind::Nru,
        PolicyKind::Srrip,
        PolicyKind::Brrip,
        PolicyKind::Drrip,
        PolicyKind::TaDrrip,
        PolicyKind::Lip,
        PolicyKind::Bip,
        PolicyKind::Dip,
        PolicyKind::Ship,
    ];

    /// The short display name used in tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Random => "Random",
            PolicyKind::Nru => "NRU",
            PolicyKind::Srrip => "SRRIP",
            PolicyKind::Brrip => "BRRIP",
            PolicyKind::Drrip => "DRRIP",
            PolicyKind::TaDrrip => "TA-DRRIP",
            PolicyKind::Lip => "LIP",
            PolicyKind::Bip => "BIP",
            PolicyKind::Dip => "DIP",
            PolicyKind::Ship => "SHiP",
            PolicyKind::Opt => "OPT",
        }
    }

    /// Parses a label as produced by [`PolicyKind::label`]
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<PolicyKind> {
        let s = s.to_ascii_lowercase();
        Some(match s.as_str() {
            "lru" => PolicyKind::Lru,
            "random" | "rand" => PolicyKind::Random,
            "nru" => PolicyKind::Nru,
            "srrip" => PolicyKind::Srrip,
            "brrip" => PolicyKind::Brrip,
            "drrip" => PolicyKind::Drrip,
            "ta-drrip" | "tadrrip" => PolicyKind::TaDrrip,
            "lip" => PolicyKind::Lip,
            "bip" => PolicyKind::Bip,
            "dip" => PolicyKind::Dip,
            "ship" | "ship-pc" => PolicyKind::Ship,
            "opt" | "belady" | "min" => PolicyKind::Opt,
            _ => return None,
        })
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The monomorphization matrix: one constructor per [`PolicyKind`],
/// returning the *concrete* policy type (no `Box<dyn>`), so generic
/// drivers instantiated through [`with_policy!`] compile one specialized
/// copy per concrete type — `Lru`, `Random`, `Nru`, `Rrip` (×4 kinds),
/// `Dip` (×3 kinds), `Ship` and `Opt` resolve to seven distinct
/// instantiations.
///
/// These are the single source of truth for the fixed seeds of the
/// pseudo-random policies; [`build_policy`] is defined on top, so the
/// boxed and monomorphized paths construct bit-identical policies by
/// construction.
pub mod mono {
    use super::{Dip, Lru, Nru, Opt, Random, Rrip, Ship};

    /// True LRU.
    pub fn lru(sets: usize, ways: usize) -> Lru {
        Lru::new(sets, ways)
    }
    /// Uniform-random replacement (fixed seed).
    pub fn random(_sets: usize, _ways: usize) -> Random {
        Random::new(0x9d2c_5680)
    }
    /// Not-recently-used.
    pub fn nru(sets: usize, ways: usize) -> Nru {
        Nru::new(sets, ways)
    }
    /// Static RRIP.
    pub fn srrip(sets: usize, ways: usize) -> Rrip {
        Rrip::srrip(sets, ways)
    }
    /// Bimodal RRIP (fixed seed).
    pub fn brrip(sets: usize, ways: usize) -> Rrip {
        Rrip::brrip(sets, ways, 0xb111)
    }
    /// Dynamic (set-dueling) RRIP (fixed seed).
    pub fn drrip(sets: usize, ways: usize) -> Rrip {
        Rrip::drrip(sets, ways, 0xd111)
    }
    /// Thread-aware DRRIP (fixed seed, per-thread PSELs).
    pub fn ta_drrip(sets: usize, ways: usize) -> Rrip {
        Rrip::ta_drrip(sets, ways, llc_sim::MAX_CORES, 0x7ad1)
    }
    /// LRU-insertion policy.
    pub fn lip(sets: usize, ways: usize) -> Dip {
        Dip::lip(sets, ways)
    }
    /// Bimodal insertion policy (fixed seed).
    pub fn bip(sets: usize, ways: usize) -> Dip {
        Dip::bip(sets, ways, 0xb19)
    }
    /// Dynamic (set-dueling) insertion policy (fixed seed).
    pub fn dip(sets: usize, ways: usize) -> Dip {
        Dip::dip(sets, ways, 0xd19)
    }
    /// SHiP-PC.
    pub fn ship(sets: usize, ways: usize) -> Ship {
        Ship::new(sets, ways)
    }
    /// Belady's OPT.
    pub fn opt(sets: usize, ways: usize) -> Opt {
        Opt::new(sets, ways)
    }
}

/// Dispatches on a [`PolicyKind`] at runtime, binding `$ctor` to the
/// *monomorphic* constructor function for that kind (a plain `fn(usize,
/// usize) -> ConcretePolicy` item from [`mono`]) and evaluating `$body`
/// once per arm. Each arm therefore compiles `$body` against a concrete
/// policy type — this is how the replay drivers in `llc-sharing` get a
/// specialized, devirtualized inner loop per policy while keeping a single
/// generic implementation.
///
/// The constructor is a `Copy` function item, so `$body` can call it any
/// number of times or wrap it in `Sync` closures.
///
/// ```
/// use llc_policies::{with_policy, PolicyKind};
/// use llc_sim::ReplacementPolicy;
///
/// let name = with_policy!(PolicyKind::Srrip, |ctor| ctor(64, 8).name());
/// assert_eq!(name, "SRRIP");
/// ```
#[macro_export]
macro_rules! with_policy {
    ($kind:expr, |$ctor:ident| $body:expr) => {
        match $kind {
            $crate::PolicyKind::Lru => {
                let $ctor = $crate::mono::lru;
                $body
            }
            $crate::PolicyKind::Random => {
                let $ctor = $crate::mono::random;
                $body
            }
            $crate::PolicyKind::Nru => {
                let $ctor = $crate::mono::nru;
                $body
            }
            $crate::PolicyKind::Srrip => {
                let $ctor = $crate::mono::srrip;
                $body
            }
            $crate::PolicyKind::Brrip => {
                let $ctor = $crate::mono::brrip;
                $body
            }
            $crate::PolicyKind::Drrip => {
                let $ctor = $crate::mono::drrip;
                $body
            }
            $crate::PolicyKind::TaDrrip => {
                let $ctor = $crate::mono::ta_drrip;
                $body
            }
            $crate::PolicyKind::Lip => {
                let $ctor = $crate::mono::lip;
                $body
            }
            $crate::PolicyKind::Bip => {
                let $ctor = $crate::mono::bip;
                $body
            }
            $crate::PolicyKind::Dip => {
                let $ctor = $crate::mono::dip;
                $body
            }
            $crate::PolicyKind::Ship => {
                let $ctor = $crate::mono::ship;
                $body
            }
            $crate::PolicyKind::Opt => {
                let $ctor = $crate::mono::opt;
                $body
            }
        }
    };
}

/// Instantiates a policy for an LLC of `sets` sets and `ways` ways,
/// behind a `Box<dyn>` — for callers that need type erasure (reference
/// drivers in benches and tests, external policies). The replay drivers
/// dispatch through [`with_policy!`] instead.
///
/// Deterministic: pseudo-random policies (Random, BRRIP, BIP and their
/// dueling variants) derive their streams from fixed internal seeds (see
/// [`mono`]).
pub fn build_policy(kind: PolicyKind, sets: usize, ways: usize) -> Box<dyn ReplacementPolicy> {
    with_policy!(kind, |ctor| Box::new(ctor(sets, ways)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_realistic_policies() {
        for kind in PolicyKind::REALISTIC {
            let p = build_policy(kind, 64, 8);
            assert_eq!(p.name(), kind.label());
        }
    }

    #[test]
    fn parse_round_trips_labels() {
        for kind in PolicyKind::REALISTIC.into_iter().chain([PolicyKind::Opt]) {
            assert_eq!(PolicyKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("belady"), Some(PolicyKind::Opt));
        assert_eq!(PolicyKind::parse("nonsense"), None);
    }
}
