//! Deterministic fault injection for exercising the failure paths of the
//! trace pipeline.
//!
//! Robustness claims are only as good as the faults they were tested
//! against, so this module provides two adversaries:
//!
//! * [`CorruptingReader`] — a byte-level wrapper around any [`Read`] that
//!   flips chosen bits and truncates the stream at a chosen offset, for
//!   attacking the *decoders*: the `.llcs` validator
//!   ([`StreamView::new`](crate::StreamView::new)) and the raw-trace
//!   parsers of `llc-ingest`.
//! * [`FaultInjectingSource`] — a record-level wrapper around any
//!   [`TraceSource`] that duplicates and drops records, for attacking the
//!   *writer*: `llc-ingest`'s `write_binary_trace` writes the header from
//!   [`TraceSource::len_hint`] before streaming the records, so it relies
//!   on the hint being honest; this source lies.
//!
//! Both are fully deterministic: a [`FaultPlan`] either lists faults
//! explicitly or derives them from a seed via splitmix64, so a failing
//! fuzz case reproduces from its seed alone.

use std::io::{self, Read};

use llc_sim::{splitmix64, MemAccess};

use crate::source::TraceSource;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// XOR `mask` into the byte at `offset` (byte-level; [`CorruptingReader`]).
    BitFlip {
        /// Absolute byte offset in the stream.
        offset: u64,
        /// Mask XORed into the byte (0 is a no-op).
        mask: u8,
    },
    /// End the stream after `offset` bytes (byte-level; [`CorruptingReader`]).
    TruncateAt {
        /// Bytes delivered before the artificial EOF.
        offset: u64,
    },
    /// Emit the record at input index `index` twice (record-level;
    /// [`FaultInjectingSource`]).
    DuplicateRecord {
        /// Zero-based index in the inner source's stream.
        index: u64,
    },
    /// Swallow the record at input index `index` (record-level;
    /// [`FaultInjectingSource`]).
    DropRecord {
        /// Zero-based index in the inner source's stream.
        index: u64,
    },
}

/// A deterministic collection of faults to inject.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (inject nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Derives `flips` bit-flips at pseudo-random offsets within a stream
    /// of `len` bytes, deterministically from `seed`.
    pub fn random_bit_flips(seed: u64, len: u64, flips: usize) -> Self {
        let mut plan = FaultPlan::new();
        let mut state = seed;
        for _ in 0..flips {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let r = splitmix64(state);
            if len == 0 {
                break;
            }
            let offset = r % len;
            let mask = 1u8 << (splitmix64(r) % 8);
            plan.faults.push(Fault::BitFlip { offset, mask });
        }
        plan
    }

    /// The planned faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }
}

/// A [`Read`] adapter that applies a [`FaultPlan`]'s byte-level faults
/// (bit flips and truncation) to the bytes flowing through it.
///
/// Record-level faults in the plan are ignored here.
#[derive(Debug)]
pub struct CorruptingReader<R> {
    inner: R,
    pos: u64,
    flips: Vec<(u64, u8)>,
    truncate_at: Option<u64>,
}

impl<R: Read> CorruptingReader<R> {
    /// Wraps `inner`, applying the byte-level faults in `plan`.
    pub fn new(inner: R, plan: &FaultPlan) -> Self {
        let mut flips = Vec::new();
        let mut truncate_at: Option<u64> = None;
        for f in plan.faults() {
            match *f {
                Fault::BitFlip { offset, mask } => flips.push((offset, mask)),
                Fault::TruncateAt { offset } => {
                    truncate_at = Some(truncate_at.map_or(offset, |t| t.min(offset)));
                }
                Fault::DuplicateRecord { .. } | Fault::DropRecord { .. } => {}
            }
        }
        CorruptingReader {
            inner,
            pos: 0,
            flips,
            truncate_at,
        }
    }
}

impl<R: Read> Read for CorruptingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let limit = match self.truncate_at {
            Some(t) if self.pos >= t => return Ok(0),
            Some(t) => usize::try_from(t - self.pos)
                .unwrap_or(usize::MAX)
                .min(buf.len()),
            None => buf.len(),
        };
        let n = self.inner.read(&mut buf[..limit])?;
        for &(offset, mask) in &self.flips {
            if offset >= self.pos && offset < self.pos + n as u64 {
                buf[(offset - self.pos) as usize] ^= mask;
            }
        }
        self.pos += n as u64;
        Ok(n)
    }
}

/// A [`TraceSource`] adapter that applies a [`FaultPlan`]'s record-level
/// faults (duplicates and drops) to an inner source.
///
/// Deliberately keeps forwarding the inner source's
/// [`len_hint`](TraceSource::len_hint) even though the faults make it
/// wrong — that is the point: it models a buggy source whose declared
/// length disagrees with what it produces, which the hardened writer must
/// catch ([`TraceError::RecordOverflow`](crate::TraceError::RecordOverflow)
/// on duplicates, [`TraceError::CountMismatch`](crate::TraceError::CountMismatch)
/// on drops). Byte-level faults in the plan are ignored here.
#[derive(Debug)]
pub struct FaultInjectingSource<S> {
    inner: S,
    duplicate_at: Vec<u64>,
    drop_at: Vec<u64>,
    next_index: u64,
    pending: Option<MemAccess>,
}

impl<S: TraceSource> FaultInjectingSource<S> {
    /// Wraps `inner`, applying the record-level faults in `plan`.
    pub fn new(inner: S, plan: &FaultPlan) -> Self {
        let mut duplicate_at = Vec::new();
        let mut drop_at = Vec::new();
        for f in plan.faults() {
            match *f {
                Fault::DuplicateRecord { index } => duplicate_at.push(index),
                Fault::DropRecord { index } => drop_at.push(index),
                Fault::BitFlip { .. } | Fault::TruncateAt { .. } => {}
            }
        }
        FaultInjectingSource {
            inner,
            duplicate_at,
            drop_at,
            next_index: 0,
            pending: None,
        }
    }
}

impl<S: TraceSource> TraceSource for FaultInjectingSource<S> {
    fn next_access(&mut self) -> Option<MemAccess> {
        if let Some(a) = self.pending.take() {
            return Some(a);
        }
        loop {
            let a = self.inner.next_access()?;
            let index = self.next_index;
            self.next_index += 1;
            if self.drop_at.contains(&index) {
                continue;
            }
            if self.duplicate_at.contains(&index) {
                self.pending = Some(a);
            }
            return Some(a);
        }
    }

    fn len_hint(&self) -> Option<u64> {
        // Intentionally dishonest under record faults; see the type docs.
        self.inner.len_hint()
    }

    fn take_error(&mut self) -> Option<crate::TraceError> {
        self.inner.take_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;
    use llc_sim::{AccessKind, Addr, CoreId, Pc};

    fn sample(n: usize) -> Vec<MemAccess> {
        (0..n)
            .map(|i| {
                MemAccess::new(
                    CoreId::new(i % 4),
                    Pc::new(0x400 + i as u64),
                    Addr::new(64 * i as u64),
                    if i % 3 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                )
            })
            .collect()
    }

    #[test]
    fn corrupting_reader_flips_and_truncates_as_planned() {
        let bytes: Vec<u8> = (0..64).collect();
        let plan = FaultPlan::new()
            .with(Fault::BitFlip {
                offset: 3,
                mask: 0x80,
            })
            .with(Fault::BitFlip {
                offset: 50,
                mask: 0x01,
            })
            .with(Fault::TruncateAt { offset: 40 })
            .with(Fault::TruncateAt { offset: 48 })
            .with(Fault::DropRecord { index: 0 });
        // Tiny reads make the flips land across read boundaries.
        let mut r = CorruptingReader::new(bytes.as_slice(), &plan);
        let mut got = Vec::new();
        let mut buf = [0u8; 3];
        loop {
            let n = r.read(&mut buf).expect("in-memory read");
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        let mut want = bytes[..40].to_vec();
        want[3] ^= 0x80;
        // The earliest truncation wins; the flip past it never shows.
        assert_eq!(got, want);
    }

    #[test]
    fn duplicates_and_drops_change_the_stream_as_planned() {
        let original = sample(4);
        let plan = FaultPlan::new()
            .with(Fault::DuplicateRecord { index: 1 })
            .with(Fault::DropRecord { index: 3 });
        let mut faulty = FaultInjectingSource::new(VecSource::new(original.clone()), &plan);
        assert_eq!(faulty.len_hint(), Some(4), "the hint stays dishonest");
        let mut got = Vec::new();
        while let Some(a) = faulty.next_access() {
            got.push(a);
        }
        assert_eq!(
            got,
            vec![original[0], original[1], original[1], original[2]]
        );
    }
}
