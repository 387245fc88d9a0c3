//! Zero-copy views over loaded `.llcs` arenas — and the one `.llcs`
//! validator.
//!
//! A [`StreamView`] keeps the loaded file as a single immutable arena
//! (`Arc<[u8]>`) and decodes access records *on the fly* as the replay
//! loop walks them: a daemon cache hit costs one allocation (the arena
//! itself) and no per-record decode pass. An owned [`RecordedStream`]
//! (five parallel heap vectors, roughly 1.3× the encoded bytes) is only
//! built on request, by [`StreamView::to_owned_stream`].
//!
//! Construction validates everything — magic, version, section sizes,
//! core ranges, kind bytes, upgrade ordering — so iteration and the
//! owned conversion are infallible, and every malformed file ends in a
//! typed error, never a panic. The arena must be exactly the size the
//! header declares (a longer one is [`TraceError::ArenaSizeMismatch`]),
//! because a view hands out sub-slices by offset and tolerating trailing
//! bytes would silently mask section misalignment.
//!
//! Upgrade events are decoded eagerly at construction: validation has to
//! walk them anyway (ordering is a cross-record property), they are rare
//! (thousands, not millions), and replay wants random access to them.

use std::sync::{Arc, Mutex};

use llc_sim::{AccessKind, BlockAddr, CoreId, Pc, PrivateCacheStats, MAX_CORES};

use crate::error::TraceError;
use crate::shard::ShardIndexSlot;
use crate::stream::{
    read_u64, AccessRecord, RecordedStream, StreamAccess, UpgradeEvent, ACCESS_RECORD_BYTES,
    STREAM_HEADER_BYTES, STREAM_MAGIC, STREAM_VERSION, UPGRADE_RECORD_BYTES,
};

/// A validated, zero-copy view over one loaded `.llcs` arena.
///
/// Implements [`StreamAccess`], so every replay driver in
/// `llc_sharing::replay` accepts a view wherever it accepts an owned
/// [`RecordedStream`] — bit-identically (property-tested in
/// `tests/replay_equivalence.rs`). The view also carries its own
/// shard-index slot, so concurrent sharded replays of the same view
/// share one index build per shard count.
pub struct StreamView {
    arena: Arc<[u8]>,
    len: usize,
    fingerprint: u64,
    instructions: u64,
    trace_accesses: u64,
    l1: PrivateCacheStats,
    l2: PrivateCacheStats,
    upgrades: Vec<UpgradeEvent>,
    shard_slot: ShardIndexSlot,
}

impl std::fmt::Debug for StreamView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamView")
            .field("len", &self.len)
            .field("upgrades", &self.upgrades.len())
            .field("fingerprint", &self.fingerprint)
            .field("arena_bytes", &self.arena.len())
            .finish()
    }
}

impl StreamView {
    /// Validates `arena` as a complete `.llcs` image and wraps it.
    ///
    /// # Errors
    ///
    /// Every malformation maps to a typed [`TraceError`] —
    /// [`TraceError::BadMagic`], [`TraceError::UnsupportedVersion`],
    /// [`TraceError::TruncatedHeader`], [`TraceError::Truncated`],
    /// [`TraceError::CoreOutOfRange`], [`TraceError::BadKind`],
    /// [`TraceError::BadUpgrade`] — plus
    /// [`TraceError::ArenaSizeMismatch`] for an arena longer than its
    /// header accounts for. Never panics on any input.
    pub fn new(arena: Arc<[u8]>) -> Result<StreamView, TraceError> {
        let bytes: &[u8] = &arena;
        if bytes.len() < STREAM_HEADER_BYTES {
            return Err(TraceError::TruncatedHeader {
                got: bytes.len(),
                expected: STREAM_HEADER_BYTES,
            });
        }
        if bytes[0..4] != STREAM_MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(&bytes[0..4]);
            return Err(TraceError::BadMagic { found });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != STREAM_VERSION {
            return Err(TraceError::UnsupportedVersion { version });
        }
        let accesses = read_u64(&bytes[8..16]);
        let upgrades = read_u64(&bytes[16..24]);
        let declared = accesses.saturating_add(upgrades);

        // Size the sections in u128 so a corrupt header cannot overflow
        // the arithmetic, then require the arena to match exactly.
        let expected = STREAM_HEADER_BYTES as u128
            + accesses as u128 * ACCESS_RECORD_BYTES as u128
            + upgrades as u128 * UPGRADE_RECORD_BYTES as u128;
        let actual = bytes.len() as u128;
        if actual < expected {
            // Report how many whole records fit before the cut, access
            // records first, then upgrade records.
            let avail = bytes.len() - STREAM_HEADER_BYTES;
            let whole_accesses = ((avail / ACCESS_RECORD_BYTES) as u64).min(accesses);
            let decoded = if whole_accesses < accesses {
                whole_accesses
            } else {
                let rest = avail - whole_accesses as usize * ACCESS_RECORD_BYTES;
                accesses + ((rest / UPGRADE_RECORD_BYTES) as u64).min(upgrades)
            };
            return Err(TraceError::Truncated { decoded, declared });
        }
        if actual > expected {
            return Err(TraceError::ArenaSizeMismatch {
                // infallible: expected <= actual, and actual fits u64.
                expected: expected as u64,
                actual: bytes.len() as u64,
            });
        }
        // The exact-size check bounds both counts by the arena length,
        // so the usize conversions below cannot fail on any platform
        // that could hold the arena.
        let len = usize::try_from(accesses).map_err(|_| TraceError::Truncated {
            decoded: 0,
            declared,
        })?;
        let upgrade_count = usize::try_from(upgrades).map_err(|_| TraceError::Truncated {
            decoded: accesses,
            declared,
        })?;

        // Validate every access record once, so iteration never has to.
        let records = &bytes[STREAM_HEADER_BYTES..STREAM_HEADER_BYTES + len * ACCESS_RECORD_BYTES];
        for (index, rec) in records.chunks_exact(ACCESS_RECORD_BYTES).enumerate() {
            if usize::from(rec[0]) >= MAX_CORES {
                return Err(TraceError::CoreOutOfRange {
                    core: rec[0],
                    limit: MAX_CORES,
                    index: index as u64,
                });
            }
            if rec[1] > 1 {
                return Err(TraceError::BadKind {
                    kind: rec[1],
                    index: index as u64,
                });
            }
        }

        let upgrade_bytes = &bytes[STREAM_HEADER_BYTES + len * ACCESS_RECORD_BYTES..];
        let mut decoded_upgrades = Vec::with_capacity(upgrade_count);
        let mut prev_at = 0u64;
        for (index, rec) in upgrade_bytes.chunks_exact(UPGRADE_RECORD_BYTES).enumerate() {
            let at = read_u64(&rec[0..8]);
            if at < prev_at || at > accesses {
                return Err(TraceError::BadUpgrade {
                    at,
                    accesses,
                    index: index as u64,
                });
            }
            prev_at = at;
            let core = usize::from(rec[16]);
            if core >= MAX_CORES {
                return Err(TraceError::CoreOutOfRange {
                    core: rec[16],
                    limit: MAX_CORES,
                    index: index as u64,
                });
            }
            decoded_upgrades.push(UpgradeEvent {
                at,
                block: BlockAddr::new(read_u64(&rec[8..16])),
                core: CoreId::new(core),
            });
        }

        Ok(StreamView {
            fingerprint: read_u64(&bytes[40..48]),
            instructions: read_u64(&bytes[24..32]),
            trace_accesses: read_u64(&bytes[32..40]),
            l1: crate::stream::decode_private_stats(&bytes[48..88]),
            l2: crate::stream::decode_private_stats(&bytes[88..128]),
            len,
            upgrades: decoded_upgrades,
            shard_slot: Mutex::new(std::collections::HashMap::new()),
            arena,
        })
    }

    /// The underlying arena (the exact `.llcs` bytes).
    pub fn arena(&self) -> &Arc<[u8]> {
        &self.arena
    }

    /// Copies the view into an owned [`RecordedStream`].
    ///
    /// # Errors
    ///
    /// None: construction already validated the arena. The `Result` is
    /// kept so callers can chain it after [`StreamView::new`].
    pub fn to_owned_stream(&self) -> Result<RecordedStream, TraceError> {
        let mut s = RecordedStream {
            fingerprint: self.fingerprint,
            instructions: self.instructions,
            trace_accesses: self.trace_accesses,
            l1: self.l1,
            l2: self.l2,
            upgrades: self.upgrades.clone(),
            blocks: Vec::with_capacity(self.len),
            cores: Vec::with_capacity(self.len),
            pcs: Vec::with_capacity(self.len),
            kinds: Vec::with_capacity(self.len),
            instr_deltas: Vec::with_capacity(self.len),
        };
        for rec in self.record_bytes().chunks_exact(ACCESS_RECORD_BYTES) {
            let a = decode_record(rec);
            s.blocks.push(a.block);
            s.cores.push(a.core);
            s.pcs.push(a.pc);
            s.kinds.push(a.kind);
            s.instr_deltas.push(read_u64(&rec[18..26]));
        }
        Ok(s)
    }

    fn record_bytes(&self) -> &[u8] {
        &self.arena[STREAM_HEADER_BYTES..STREAM_HEADER_BYTES + self.len * ACCESS_RECORD_BYTES]
    }
}

impl StreamAccess for StreamView {
    type Iter<'a> = ViewAccessIter<'a>;

    fn len(&self) -> usize {
        self.len
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn accesses(&self) -> ViewAccessIter<'_> {
        ViewAccessIter(self.record_bytes().chunks_exact(ACCESS_RECORD_BYTES))
    }

    fn upgrades(&self) -> &[UpgradeEvent] {
        &self.upgrades
    }

    fn instructions(&self) -> u64 {
        self.instructions
    }

    fn trace_accesses(&self) -> u64 {
        self.trace_accesses
    }

    fn l1_stats(&self) -> PrivateCacheStats {
        self.l1
    }

    fn l2_stats(&self) -> PrivateCacheStats {
        self.l2
    }

    fn encoded_len(&self) -> usize {
        self.arena.len()
    }

    fn shard_slot(&self) -> Option<&ShardIndexSlot> {
        Some(&self.shard_slot)
    }
}

/// [`StreamAccess::accesses`] iterator of a [`StreamView`]: fixed-stride
/// chunks of the arena, decoded on the fly. Decoding is infallible
/// because [`StreamView::new`] validated every record.
#[derive(Debug, Clone)]
pub struct ViewAccessIter<'a>(std::slice::ChunksExact<'a, u8>);

#[inline]
fn decode_record(rec: &[u8]) -> AccessRecord {
    AccessRecord {
        // infallible: core and kind bytes were validated at construction.
        core: CoreId::new(usize::from(rec[0])),
        kind: if rec[1] == 1 {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        pc: Pc::new(read_u64(&rec[2..10])),
        block: BlockAddr::new(read_u64(&rec[10..18])),
    }
}

impl<'a> Iterator for ViewAccessIter<'a> {
    type Item = AccessRecord;

    #[inline]
    fn next(&mut self) -> Option<AccessRecord> {
        self.0.next().map(decode_record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<'a> DoubleEndedIterator for ViewAccessIter<'a> {
    #[inline]
    fn next_back(&mut self) -> Option<AccessRecord> {
        self.0.next_back().map(decode_record)
    }
}

impl<'a> ExactSizeIterator for ViewAccessIter<'a> {
    fn len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CorruptingReader, Fault, FaultPlan};
    use std::io::Read;

    fn sample() -> RecordedStream {
        let mut s = RecordedStream {
            fingerprint: 0xABCD_EF00_1234_5678,
            instructions: 999,
            trace_accesses: 321,
            l1: PrivateCacheStats {
                accesses: 100,
                hits: 80,
                evictions: 5,
                invalidations: 2,
                back_invalidations: 1,
            },
            ..RecordedStream::default()
        };
        for i in 0..64usize {
            s.blocks
                .push(BlockAddr::new(llc_sim::splitmix64(i as u64) % 97));
            s.cores.push(CoreId::new(i % 8));
            s.pcs.push(Pc::new(0x1000 + i as u64));
            s.kinds.push(if i % 5 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            });
            s.instr_deltas.push(i as u64 % 7 + 1);
        }
        for at in [0u64, 10, 10, 64] {
            s.upgrades.push(UpgradeEvent {
                at,
                block: BlockAddr::new(at * 3),
                core: CoreId::new((at % 4) as usize),
            });
        }
        s
    }

    fn view_of(s: &RecordedStream) -> StreamView {
        StreamView::new(s.to_vec().expect("encode").into()).expect("view")
    }

    #[test]
    fn view_decodes_the_encoded_stream_exactly() {
        let s = sample();
        let bytes = s.to_vec().expect("encode");
        let v = StreamView::new(bytes.clone().into()).expect("view");
        assert_eq!(StreamAccess::len(&v), s.len());
        assert_eq!(v.fingerprint(), s.fingerprint);
        assert_eq!(v.instructions(), s.instructions);
        assert_eq!(v.trace_accesses(), s.trace_accesses);
        assert_eq!(v.l1_stats(), s.l1);
        assert_eq!(v.l2_stats(), s.l2);
        assert_eq!(StreamAccess::upgrades(&v), &s.upgrades[..]);
        assert_eq!(v.encoded_len(), s.encoded_len());
        let owned: Vec<AccessRecord> = s.accesses().collect();
        let viewed: Vec<AccessRecord> = v.accesses().collect();
        assert_eq!(owned, viewed);
        // Backward walks agree too (the annotation pre-pass direction).
        let owned_rev: Vec<AccessRecord> = s.accesses().rev().collect();
        let viewed_rev: Vec<AccessRecord> = v.accesses().rev().collect();
        assert_eq!(owned_rev, viewed_rev);
        // The owned copy is the original, field for field and byte for
        // byte (instruction deltas included).
        let owned = v.to_owned_stream().expect("decode");
        assert_eq!(owned, s);
        assert_eq!(owned.to_vec().expect("re-encode"), bytes);
        assert_eq!(RecordedStream::from_slice(&bytes).expect("decode"), s);
    }

    #[test]
    fn empty_stream_views_cleanly() {
        let v = view_of(&RecordedStream::default());
        assert!(StreamAccess::is_empty(&v));
        assert_eq!(v.accesses().count(), 0);
        assert!(StreamAccess::upgrades(&v).is_empty());
    }

    #[test]
    fn view_carries_its_own_shard_slot() {
        let v = view_of(&sample());
        assert!(v.shard_slot().is_some());
        let slot = v.shard_slot().expect("slot");
        assert!(slot.lock().expect("lock").is_empty());
    }

    #[test]
    fn header_malformations_are_typed() {
        let bytes = sample().to_vec().expect("encode");
        // Short header.
        let short: Arc<[u8]> = bytes[..40].to_vec().into();
        assert!(matches!(
            StreamView::new(short),
            Err(TraceError::TruncatedHeader { got: 40, .. })
        ));
        // Bad magic.
        let mut b = bytes.clone();
        b[0] = b'X';
        assert!(matches!(
            StreamView::new(b.into()),
            Err(TraceError::BadMagic { .. })
        ));
        // Unsupported version.
        let mut b = bytes.clone();
        b[4] = 7;
        assert!(matches!(
            StreamView::new(b.into()),
            Err(TraceError::UnsupportedVersion { version: 7 })
        ));
        // A header cut inside the magic.
        assert!(matches!(
            RecordedStream::from_slice(b"LLC"),
            Err(TraceError::TruncatedHeader {
                got: 3,
                expected: STREAM_HEADER_BYTES
            })
        ));
    }

    #[test]
    fn truncation_reports_whole_records_decoded() {
        // 64 access records, then 4 upgrade records: 68 declared.
        let bytes = sample().to_vec().expect("encode");
        let access_end = STREAM_HEADER_BYTES + 64 * ACCESS_RECORD_BYTES;
        for (cut, decoded) in [
            // Right after the header: nothing decoded.
            (STREAM_HEADER_BYTES, 0),
            // Mid-access-record.
            (STREAM_HEADER_BYTES + 9 * ACCESS_RECORD_BYTES + 11, 9),
            // Exactly at the end of the access section.
            (access_end, 64),
            // One byte into the second upgrade record.
            (access_end + UPGRADE_RECORD_BYTES + 1, 65),
            // Mid-upgrade-record.
            (access_end + 2 * UPGRADE_RECORD_BYTES + 5, 66),
        ] {
            let err = StreamView::new(bytes[..cut].to_vec().into()).expect_err("view rejects");
            assert!(
                matches!(err, TraceError::Truncated { decoded: d, declared: 68 } if d == decoded),
                "cut at {cut}: {err:?}"
            );
            // The owned decoder is the same validator.
            assert!(matches!(
                RecordedStream::from_slice(&bytes[..cut]),
                Err(TraceError::Truncated { declared: 68, .. })
            ));
        }
    }

    #[test]
    fn trailing_bytes_are_a_misaligned_section() {
        let mut bytes = sample().to_vec().expect("encode");
        let expected = bytes.len() as u64;
        bytes.extend_from_slice(b"junk");
        // The owned decoder goes through the view, so it is as strict.
        assert!(matches!(
            RecordedStream::from_slice(&bytes),
            Err(TraceError::ArenaSizeMismatch { .. })
        ));
        let err = StreamView::new(bytes.into()).expect_err("reject padding");
        assert!(matches!(
            err,
            TraceError::ArenaSizeMismatch { expected: e, actual: a }
                if e == expected && a == expected + 4
        ));
    }

    #[test]
    fn bad_records_are_typed() {
        let bytes = sample().to_vec().expect("encode");
        // Bad kind byte on access record 3.
        let mut b = bytes.clone();
        b[STREAM_HEADER_BYTES + 3 * ACCESS_RECORD_BYTES + 1] = 9;
        assert!(matches!(
            StreamView::new(b.into()),
            Err(TraceError::BadKind { kind: 9, index: 3 })
        ));
        // Out-of-range core on access record 0.
        let mut b = bytes.clone();
        b[STREAM_HEADER_BYTES] = 250;
        assert!(matches!(
            StreamView::new(b.into()),
            Err(TraceError::CoreOutOfRange {
                core: 250,
                index: 0,
                ..
            })
        ));
        // Unsorted upgrade: rewrite upgrade 2's `at` below upgrade 1's.
        let off = STREAM_HEADER_BYTES + 64 * ACCESS_RECORD_BYTES + 2 * UPGRADE_RECORD_BYTES;
        let mut b = bytes.clone();
        b[off..off + 8].copy_from_slice(&1u64.to_le_bytes());
        assert!(matches!(
            StreamView::new(b.into()),
            Err(TraceError::BadUpgrade {
                at: 1,
                accesses: 64,
                index: 2
            })
        ));
        // Upgrade past the stream.
        let mut b = bytes.clone();
        b[off..off + 8].copy_from_slice(&65u64.to_le_bytes());
        assert!(matches!(
            StreamView::new(b.into()),
            Err(TraceError::BadUpgrade {
                at: 65,
                accesses: 64,
                index: 2
            })
        ));
        // Out-of-range core on an upgrade record.
        let mut b = bytes;
        b[off + 16] = 77;
        assert!(matches!(
            StreamView::new(b.into()),
            Err(TraceError::CoreOutOfRange { core: 77, .. })
        ));
    }

    #[test]
    fn header_count_corruption_cannot_exhaust_memory() {
        // A declared count of u64::MAX must fail the size check with a
        // typed error before any allocation is attempted — including the
        // overflow-prone `count * record_size` arithmetic.
        for (range, val) in [(8..16, u64::MAX), (16..24, u64::MAX / 16)] {
            let mut bytes = sample().to_vec().expect("encode");
            bytes[range].copy_from_slice(&val.to_le_bytes());
            assert!(matches!(
                StreamView::new(bytes.into()),
                Err(TraceError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn random_corruption_never_panics_the_view() {
        // Fault-injection sweep: whatever a deterministic bit flip or
        // truncation produces, construction ends in Ok or a typed error,
        // never a panic — and a view that does construct still iterates
        // and converts to an owned stream without panicking.
        let bytes = sample().to_vec().expect("encode");
        for seed in 0..200u64 {
            let plan = FaultPlan::random_bit_flips(seed, bytes.len() as u64, 3);
            let mut damaged = Vec::new();
            CorruptingReader::new(bytes.as_slice(), &plan)
                .read_to_end(&mut damaged)
                .expect("apply plan");
            if let Ok(v) = StreamView::new(damaged.into()) {
                let n: usize = v.accesses().count();
                assert_eq!(n, StreamAccess::len(&v));
                assert_eq!(v.to_owned_stream().expect("validated").len(), n);
            }
        }
        for seed in 0..60u64 {
            let offset = llc_sim::splitmix64(seed ^ 0x5eed) % (bytes.len() as u64 + 1);
            let plan = FaultPlan::new().with(Fault::TruncateAt { offset });
            let mut damaged = Vec::new();
            CorruptingReader::new(bytes.as_slice(), &plan)
                .read_to_end(&mut damaged)
                .expect("apply plan");
            let _ = StreamView::new(damaged.into());
        }
    }
}
