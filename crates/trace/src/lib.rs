//! # llc-trace — synthetic multi-threaded workload models
//!
//! The paper characterizes multi-threaded programs from PARSEC, SPEC OMP
//! and SPLASH-2 on a simulated CMP. Real traces of those suites are not
//! redistributable, so this crate builds the closest synthetic equivalent:
//! a library of access-pattern primitives spanning the established sharing
//! taxonomy (private, read-only shared, producer–consumer, migratory,
//! boundary, phase-shifting all-to-all, contended hot blocks) and sixteen
//! named [`App`] models composed from them, one per benchmark the study
//! draws on.
//!
//! Everything is deterministic: an (app, thread-count, scale) triple
//! always produces the same access stream.
//!
//! ## Example
//!
//! ```
//! use llc_trace::{App, Scale, TraceSource};
//!
//! let mut workload = App::Bodytrack.workload(8, Scale::Tiny);
//! let first = workload.next_access().expect("non-empty workload");
//! assert!(first.core.index() < 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
pub mod error;
pub mod fault;
pub mod layout;
pub mod multiprogram;
pub mod patterns;
pub mod source;
pub mod store;
pub mod stream;
pub mod view;
pub mod workload;
pub mod zipf;

pub use apps::{App, Scale, SharingClass, Suite};
pub use error::TraceError;
pub use fault::{CorruptingReader, Fault, FaultInjectingSource, FaultPlan};
pub use layout::{AddressSpace, PcAllocator, PcSite, Region, PAGE_BYTES};
pub use multiprogram::Multiprogram;
pub use patterns::{
    pipeline_channel, Consumer, LockHot, Migratory, Pattern, PatternAccess, PhaseAlternate,
    PrivateStream, PrivateWorkingSet, Producer, SharedReadOnly, Stencil, Transpose,
};
pub use source::{TraceSource, VecSource};
pub use store::{
    atomic_write, sync_dir, ArtifactDir, ArtifactEntry, LoadError, StreamStore, QUARANTINE_DIR,
};
pub use stream::{write_stream, AccessRecord, RecordedStream, UpgradeEvent};
pub use view::StreamView;
pub use workload::{ThreadSpec, Workload};
pub use zipf::ZipfSampler;
