//! # llc-sim — trace-driven CMP cache hierarchy simulator
//!
//! The substrate of the IISWC 2013 reproduction *Characterizing
//! multi-threaded applications for designing sharing-aware last-level cache
//! replacement policies*: a chip-multiprocessor memory hierarchy with
//! per-core private caches, MESI-lite coherence, and a shared last-level
//! cache that tracks, for every block *generation* (fill → eviction), which
//! cores touched it, so that generations can be classified as **shared** or
//! **private** exactly as the paper does.
//!
//! The crate deliberately contains no replacement policies beyond the
//! private caches' fixed LRU: the LLC is generic over the
//! [`ReplacementPolicy`] trait, implemented by the `llc-policies` crate.
//!
//! ## Example
//!
//! ```
//! use llc_sim::{
//!     AccessCtx, AccessKind, Addr, Cmp, CoreId, HierarchyConfig, MemAccess,
//!     NullObserver, Pc, ReplacementPolicy, SetView,
//! };
//!
//! /// A policy that always evicts the first candidate way.
//! #[derive(Debug)]
//! struct First;
//! impl ReplacementPolicy for First {
//!     fn name(&self) -> String { "First".into() }
//!     fn on_fill(&mut self, _: usize, _: usize, _: &AccessCtx) {}
//!     fn on_hit(&mut self, _: usize, _: usize, _: &AccessCtx) {}
//!     fn choose_victim(&mut self, _: usize, v: &SetView<'_>, _: &AccessCtx) -> usize {
//!         v.allowed_ways().next().unwrap()
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cmp = Cmp::new(HierarchyConfig::tiny(), First)?;
//! let mut obs = NullObserver;
//! for core in 0..2 {
//!     cmp.access(
//!         MemAccess::new(CoreId::new(core), Pc::new(0x400), Addr::new(0x1000), AccessKind::Read),
//!         &mut obs,
//!     );
//! }
//! cmp.finish(&mut obs);
//! assert_eq!(cmp.llc_stats().accesses, 2);
//! assert_eq!(cmp.llc_stats().hits_by_non_filler, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod config;
pub mod dir;
pub mod fingerprint;
pub mod hierarchy;
pub mod l1;
pub mod llc;
pub mod replace;
pub mod stats;

pub use addr::{
    splitmix64, AccessKind, Addr, BlockAddr, CoreId, Pc, BLOCK_BYTES, BLOCK_SHIFT, MAX_CORES,
};
pub use config::{CacheConfig, ConfigError, HierarchyConfig, Inclusion, SimError};
pub use dir::CoherenceDir;
pub use fingerprint::{fnv1a64, Fold};
pub use hierarchy::{Cmp, MemAccess, RecordCmp};
pub use l1::{L1Access, L1Victim, PrivateCache};
pub use llc::{
    EvictCause, GenerationEnd, LiveGeneration, Llc, LlcAccess, LlcObserver, MultiObserver,
    NullObserver,
};
pub use replace::{AccessCtx, Aux, AuxProvider, LineView, NoAux, ReplacementPolicy, SetView};
pub use stats::{LlcStats, PrivateCacheStats};
