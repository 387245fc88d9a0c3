//! Recorded LLC reference streams and their `.llcs` on-disk format.
//!
//! In the non-inclusive hierarchy the sequence of LLC references — and the
//! coherence *upgrade* events that mutate resident lines without an LLC
//! access — is a pure function of the workload and the private caches,
//! independent of the LLC replacement policy. A [`RecordedStream`] captures
//! that sequence once; any number of replacement policies can then be
//! replayed directly against the LLC, skipping trace generation and private
//! cache simulation entirely (see `llc_sharing::replay`). It is the one
//! replayable representation: the replay driver and the annotation
//! pre-pass walk its owned planes.
//!
//! The binary format is a fixed little-endian header and fixed-size
//! records. It has exactly one decoder, [`StreamView::new`], which maps
//! every way a file can be malformed to a distinct [`TraceError`] — never
//! a panic. [`RecordedStream::from_slice`] is that validated view decoded
//! into owned planes, the form a stored stream is replayed in.
//!
//! ```text
//! header (128 bytes):
//!   magic "LLCS" | u16 version | u16 reserved
//!   | u64 access count | u64 upgrade count
//!   | u64 instructions | u64 trace accesses | u64 recording fingerprint
//!   | 5 x u64 L1 stats | 5 x u64 L2 stats
//! access record (26 bytes):
//!   u8 core | u8 kind (0 = read, 1 = write) | u64 pc | u64 block
//!   | u64 instr delta
//! upgrade record (17 bytes):
//!   u64 at | u64 block | u8 core
//! ```
//!
//! Upgrade records must be sorted by `at` (non-decreasing) with
//! `at <= access count`; a replay applies every upgrade with `at == i`
//! before access `i`, and trailing upgrades (`at == access count`) before
//! the end-of-run flush.

use std::io::Write;

use llc_sim::{AccessKind, BlockAddr, CoreId, Pc, PrivateCacheStats};

use crate::error::TraceError;
use crate::view::StreamView;

/// `.llcs` file-format magic bytes.
pub const STREAM_MAGIC: [u8; 4] = *b"LLCS";

/// Current `.llcs` format version.
pub const STREAM_VERSION: u16 = 1;

/// Size of the fixed `.llcs` header in bytes.
pub const STREAM_HEADER_BYTES: usize = 128;

/// Size of one access record in bytes.
pub const ACCESS_RECORD_BYTES: usize = 26;

/// Size of one upgrade record in bytes.
pub const UPGRADE_RECORD_BYTES: usize = 17;

/// A coherence upgrade observed during recording: `core` wrote `block`
/// while holding it privately, at LLC logical time `at` (i.e. after `at`
/// LLC accesses had been processed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpgradeEvent {
    /// LLC logical time of the upgrade. A replay applies this event before
    /// the access with the same index; `at == len()` means "after the last
    /// access, before the flush".
    pub at: u64,
    /// The written block.
    pub block: BlockAddr,
    /// The writing core.
    pub core: CoreId,
}

/// A policy-independent LLC reference stream captured from one full
/// hierarchy simulation, with everything needed to rebuild a complete
/// `RunResult` from an LLC-only replay.
///
/// The per-access vectors (`blocks`, `cores`, `pcs`, `kinds`,
/// `instr_deltas`) are parallel: entry `i` describes the `i`-th LLC demand
/// access. `instr_deltas[i]` is the number of trace instructions consumed
/// since the previous LLC access (u64: a delta sums many `u32` gaps).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordedStream {
    /// Recording fingerprint of the
    /// [`HierarchyConfig`](llc_sim::HierarchyConfig) the stream was
    /// recorded under (see `HierarchyConfig::recording_fingerprint`:
    /// cores, private levels and inclusion, plus an inclusive LLC).
    /// Replaying against a hierarchy with another one is meaningless;
    /// callers should check this.
    pub fingerprint: u64,
    /// Block of each LLC access.
    pub blocks: Vec<BlockAddr>,
    /// Issuing core of each LLC access.
    pub cores: Vec<CoreId>,
    /// PC of each LLC access.
    pub pcs: Vec<Pc>,
    /// Read/write kind of each LLC access.
    pub kinds: Vec<AccessKind>,
    /// Instructions consumed since the previous LLC access.
    pub instr_deltas: Vec<u64>,
    /// Coherence upgrades, sorted by [`UpgradeEvent::at`].
    pub upgrades: Vec<UpgradeEvent>,
    /// Total instructions of the recorded run.
    pub instructions: u64,
    /// Total trace records of the recorded run.
    pub trace_accesses: u64,
    /// Aggregated L1 counters of the recorded run.
    pub l1: PrivateCacheStats,
    /// Aggregated L2 counters of the recorded run.
    pub l2: PrivateCacheStats,
}

impl RecordedStream {
    /// Number of LLC accesses in the stream.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` if the stream holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The access records, in stream order: a zip over the four access
    /// planes. The iterator is double-ended and exact-size because the
    /// fused annotation pre-pass walks the stream *backward* and pre-sizes
    /// its output.
    pub fn accesses(
        &self,
    ) -> impl DoubleEndedIterator<Item = AccessRecord> + ExactSizeIterator + Clone + '_ {
        self.blocks
            .iter()
            .zip(&self.pcs)
            .zip(&self.cores)
            .zip(&self.kinds)
            .map(|(((&block, &pc), &core), &kind)| AccessRecord {
                block,
                pc,
                core,
                kind,
            })
    }

    /// The exact `.llcs` encoding size of the stream in bytes — also the
    /// byte weight `llc_sharing::StreamCache` charges against its cap.
    pub fn encoded_len(&self) -> usize {
        STREAM_HEADER_BYTES
            + self.len() * ACCESS_RECORD_BYTES
            + self.upgrades.len() * UPGRADE_RECORD_BYTES
    }

    /// Encodes the stream to an in-memory `.llcs` image.
    ///
    /// # Errors
    ///
    /// Same conditions as [`write_stream`].
    pub fn to_vec(&self) -> Result<Vec<u8>, TraceError> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        write_stream(self, &mut buf)?;
        Ok(buf)
    }

    /// Decodes a stream from an in-memory `.llcs` image: a
    /// [`StreamView`] over a copy of `bytes`, converted to owned planes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamView::new`], including
    /// [`TraceError::ArenaSizeMismatch`] for trailing bytes.
    pub fn from_slice(bytes: &[u8]) -> Result<Self, TraceError> {
        StreamView::new(bytes.into())?.to_owned_stream()
    }
}

/// One decoded LLC access, as replay drivers consume it: four scalars,
/// passed by value, so a replay loop over [`RecordedStream::accesses`]
/// compiles down to lockstep plane walks with no per-record indirection.
///
/// Instruction deltas are deliberately absent: no replay driver consumes
/// them (they exist to rebuild `RunResult::instructions`, which the
/// stream header carries in aggregate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// Accessed block.
    pub block: BlockAddr,
    /// PC of the access.
    pub pc: Pc,
    /// Issuing core.
    pub core: CoreId,
    /// Read/write kind.
    pub kind: AccessKind,
}

fn encode_private_stats(out: &mut [u8], s: &PrivateCacheStats) {
    out[0..8].copy_from_slice(&s.accesses.to_le_bytes());
    out[8..16].copy_from_slice(&s.hits.to_le_bytes());
    out[16..24].copy_from_slice(&s.evictions.to_le_bytes());
    out[24..32].copy_from_slice(&s.invalidations.to_le_bytes());
    out[32..40].copy_from_slice(&s.back_invalidations.to_le_bytes());
}

pub(crate) fn read_u64(bytes: &[u8]) -> u64 {
    // infallible: callers pass fixed 8-byte windows of a fixed-size buffer.
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

pub(crate) fn decode_private_stats(bytes: &[u8]) -> PrivateCacheStats {
    PrivateCacheStats {
        accesses: read_u64(&bytes[0..8]),
        hits: read_u64(&bytes[8..16]),
        evictions: read_u64(&bytes[16..24]),
        invalidations: read_u64(&bytes[24..32]),
        back_invalidations: read_u64(&bytes[32..40]),
    }
}

/// Writes a [`RecordedStream`] to any [`Write`] sink in `.llcs` format.
///
/// # Errors
///
/// Returns [`TraceError::CoreUnencodable`] if a core id does not fit the
/// 1-byte record encoding, [`TraceError::BadUpgrade`] if the upgrade list
/// is unsorted or points past the access stream (refusing to write a file
/// the decoder would reject), and propagates sink I/O errors.
pub fn write_stream<W: Write>(stream: &RecordedStream, mut sink: W) -> Result<(), TraceError> {
    let n = stream.len() as u64;
    let mut header = [0u8; STREAM_HEADER_BYTES];
    header[0..4].copy_from_slice(&STREAM_MAGIC);
    header[4..6].copy_from_slice(&STREAM_VERSION.to_le_bytes());
    // bytes 6..8 reserved, zero.
    header[8..16].copy_from_slice(&n.to_le_bytes());
    header[16..24].copy_from_slice(&(stream.upgrades.len() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&stream.instructions.to_le_bytes());
    header[32..40].copy_from_slice(&stream.trace_accesses.to_le_bytes());
    header[40..48].copy_from_slice(&stream.fingerprint.to_le_bytes());
    encode_private_stats(&mut header[48..88], &stream.l1);
    encode_private_stats(&mut header[88..128], &stream.l2);
    sink.write_all(&header)?;

    for i in 0..stream.len() {
        let core = stream.cores[i].index();
        if core > usize::from(u8::MAX) {
            return Err(TraceError::CoreUnencodable { core });
        }
        let mut rec = [0u8; ACCESS_RECORD_BYTES];
        rec[0] = core as u8;
        rec[1] = u8::from(stream.kinds[i].is_write());
        rec[2..10].copy_from_slice(&stream.pcs[i].raw().to_le_bytes());
        rec[10..18].copy_from_slice(&stream.blocks[i].raw().to_le_bytes());
        rec[18..26].copy_from_slice(&stream.instr_deltas[i].to_le_bytes());
        sink.write_all(&rec)?;
    }

    let mut prev_at = 0u64;
    for (i, u) in stream.upgrades.iter().enumerate() {
        if u.at < prev_at || u.at > n {
            return Err(TraceError::BadUpgrade {
                at: u.at,
                accesses: n,
                index: i as u64,
            });
        }
        prev_at = u.at;
        let core = u.core.index();
        if core > usize::from(u8::MAX) {
            return Err(TraceError::CoreUnencodable { core });
        }
        let mut rec = [0u8; UPGRADE_RECORD_BYTES];
        rec[0..8].copy_from_slice(&u.at.to_le_bytes());
        rec[8..16].copy_from_slice(&u.block.raw().to_le_bytes());
        rec[16] = core as u8;
        sink.write_all(&rec)?;
    }
    sink.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RecordedStream {
        let n = 40usize;
        let mut s = RecordedStream {
            fingerprint: 0xFEED_FACE_CAFE_BEEF,
            instructions: 1234,
            trace_accesses: 567,
            l1: PrivateCacheStats {
                accesses: 500,
                hits: 450,
                evictions: 10,
                invalidations: 3,
                back_invalidations: 1,
            },
            l2: PrivateCacheStats::default(),
            ..RecordedStream::default()
        };
        for i in 0..n {
            s.blocks.push(BlockAddr::new(i as u64 * 3 % 17));
            s.cores.push(CoreId::new(i % 4));
            s.pcs.push(Pc::new(0x400 + i as u64));
            s.kinds.push(if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            });
            s.instr_deltas.push(i as u64 + 1);
        }
        s.upgrades = vec![
            UpgradeEvent {
                at: 0,
                block: BlockAddr::new(3),
                core: CoreId::new(1),
            },
            UpgradeEvent {
                at: 7,
                block: BlockAddr::new(6),
                core: CoreId::new(2),
            },
            UpgradeEvent {
                at: 7,
                block: BlockAddr::new(9),
                core: CoreId::new(0),
            },
            UpgradeEvent {
                at: 40,
                block: BlockAddr::new(12),
                core: CoreId::new(3),
            },
        ];
        s
    }

    #[test]
    fn round_trips_exactly() {
        let s = sample();
        let bytes = s.to_vec().expect("encode");
        assert_eq!(
            bytes.len(),
            STREAM_HEADER_BYTES + 40 * ACCESS_RECORD_BYTES + 4 * UPGRADE_RECORD_BYTES
        );
        let back = RecordedStream::from_slice(&bytes).expect("decode");
        assert_eq!(back, s);
    }

    #[test]
    fn access_iterator_matches_the_planes() {
        let s = sample();
        assert_eq!(s.accesses().len(), s.len());
        for (i, rec) in s.accesses().enumerate() {
            assert_eq!(rec.block, s.blocks[i]);
            assert_eq!(rec.pc, s.pcs[i]);
            assert_eq!(rec.core, s.cores[i]);
            assert_eq!(rec.kind, s.kinds[i]);
        }
        // The backward walk (annotation pre-pass) sees the same records.
        let fwd: Vec<AccessRecord> = s.accesses().collect();
        let mut bwd: Vec<AccessRecord> = s.accesses().rev().collect();
        bwd.reverse();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn empty_stream_round_trips() {
        let s = RecordedStream::default();
        let back = RecordedStream::from_slice(&s.to_vec().expect("encode")).expect("decode");
        assert_eq!(back, s);
        assert!(back.is_empty());
    }

    #[test]
    fn writer_refuses_upgrades_the_decoder_would_reject() {
        // Out of order (upgrade 0 after upgrade 1 at 7) and past the
        // stream (99 > 40 accesses) are both refused before a byte of an
        // invalid file is handed to the caller.
        let mut s = sample();
        s.upgrades[0].at = 99;
        assert!(matches!(
            s.to_vec(),
            Err(TraceError::BadUpgrade {
                at: 99,
                accesses: 40,
                index: 0
            })
        ));
        let mut s = sample();
        s.upgrades[2].at = 1;
        assert!(matches!(
            s.to_vec(),
            Err(TraceError::BadUpgrade {
                at: 1,
                accesses: 40,
                index: 2
            })
        ));
    }
}
