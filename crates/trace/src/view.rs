//! The one `.llcs` validator and decoder.
//!
//! A [`StreamView`] checks a loaded `.llcs` image once — magic, version,
//! section sizes, core ranges, kind bytes, upgrade ordering — and then
//! decodes it into the one replayable representation, an owned
//! [`RecordedStream`], with [`StreamView::to_owned_stream`]. Every
//! malformed file ends in a typed error, never a panic, so the decode is
//! infallible once construction succeeds. The arena must be exactly the
//! size the header declares (a longer one is
//! [`TraceError::ArenaSizeMismatch`]): tolerating trailing bytes would
//! silently mask section misalignment.
//!
//! Upgrade events are decoded eagerly at construction: validation has to
//! walk them anyway (ordering is a cross-record property), and they are
//! rare (thousands, not millions).

use std::sync::Arc;

use llc_sim::{AccessKind, BlockAddr, CoreId, Pc, MAX_CORES};

use crate::error::TraceError;
use crate::stream::{
    decode_private_stats, read_u64, RecordedStream, UpgradeEvent, ACCESS_RECORD_BYTES,
    STREAM_HEADER_BYTES, STREAM_MAGIC, STREAM_VERSION, UPGRADE_RECORD_BYTES,
};

/// A validated `.llcs` arena, ready to decode into a [`RecordedStream`].
pub struct StreamView {
    arena: Arc<[u8]>,
    len: usize,
    upgrades: Vec<UpgradeEvent>,
}

impl std::fmt::Debug for StreamView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamView")
            .field("len", &self.len)
            .field("upgrades", &self.upgrades.len())
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
            len,
            upgrades: decoded_upgrades,
            arena,
        })
    }

    /// The underlying arena (the exact `.llcs` bytes).
    pub fn arena(&self) -> &Arc<[u8]> {
        &self.arena
    }

    /// Decodes the view into an owned [`RecordedStream`].
    ///
    /// # Errors
    ///
    /// None: construction already validated the arena. The `Result` is
    /// kept so callers can chain it after [`StreamView::new`].
    pub fn to_owned_stream(&self) -> Result<RecordedStream, TraceError> {
        let header = &self.arena[..STREAM_HEADER_BYTES];
        let mut s = RecordedStream {
            fingerprint: read_u64(&header[40..48]),
            instructions: read_u64(&header[24..32]),
            trace_accesses: read_u64(&header[32..40]),
            l1: decode_private_stats(&header[48..88]),
            l2: decode_private_stats(&header[88..128]),
            upgrades: self.upgrades.clone(),
            blocks: Vec::with_capacity(self.len),
            cores: Vec::with_capacity(self.len),
            pcs: Vec::with_capacity(self.len),
            kinds: Vec::with_capacity(self.len),
            instr_deltas: Vec::with_capacity(self.len),
        };
        let records = &self.arena[STREAM_HEADER_BYTES..][..self.len * ACCESS_RECORD_BYTES];
        for rec in records.chunks_exact(ACCESS_RECORD_BYTES) {
            // infallible: core and kind bytes were validated at construction.
            s.cores.push(CoreId::new(usize::from(rec[0])));
            s.kinds.push(if rec[1] == 1 {
                AccessKind::Write
            } else {
                AccessKind::Read
            });
            s.pcs.push(Pc::new(read_u64(&rec[2..10])));
            s.blocks.push(BlockAddr::new(read_u64(&rec[10..18])));
            s.instr_deltas.push(read_u64(&rec[18..26]));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CorruptingReader, Fault, FaultPlan};
    use llc_sim::PrivateCacheStats;
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
        assert_eq!(v.arena().len(), s.encoded_len());
        // The owned copy is the original, field for field and byte for
        // byte (instruction deltas included).
        let owned = v.to_owned_stream().expect("decode");
        assert_eq!(owned, s);
        assert_eq!(owned.to_vec().expect("re-encode"), bytes);
        assert_eq!(RecordedStream::from_slice(&bytes).expect("decode"), s);
    }

    #[test]
    fn empty_stream_views_cleanly() {
        let owned = view_of(&RecordedStream::default())
            .to_owned_stream()
            .expect("decode");
        assert_eq!(owned, RecordedStream::default());
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
        // never a panic — and a view that does construct still decodes
        // to an owned stream without panicking.
        let bytes = sample().to_vec().expect("encode");
        for seed in 0..200u64 {
            let plan = FaultPlan::random_bit_flips(seed, bytes.len() as u64, 3);
            let mut damaged = Vec::new();
            CorruptingReader::new(bytes.as_slice(), &plan)
                .read_to_end(&mut damaged)
                .expect("apply plan");
            if let Ok(v) = StreamView::new(damaged.into()) {
                let owned = v.to_owned_stream().expect("validated");
                assert_eq!(owned.accesses().count(), owned.len());
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
