//! The compact `LLCB` binary access-trace format.
//!
//! The one raw access-trace format: for traces made elsewhere, and for
//! bulk traces where CSV is too fat. A fixed little-endian header and
//! fixed-size records, with the failure model of the native `.llcs`
//! format (a distinct [`TraceError`] per malformed shape, never a panic).
//! Records are lossless: the full `u32` instruction gap and the full
//! `u64` pc and address are stored.
//!
//! ```text
//! header (16 bytes):
//!   magic "LLCB" | u16 version (= 1) | u16 reserved | u64 record count
//! record (22 bytes):
//!   u8 core | u8 kind (0 = read, 1 = write) | u32 instr gap
//!   | u64 pc | u64 addr
//! ```

use std::io::{Read, Write};

use llc_sim::{AccessKind, Addr, CoreId, MemAccess, Pc, MAX_CORES};
use llc_trace::{TraceError, TraceSource, VecSource};

/// `LLCB` file-format magic bytes.
pub const LLCB_MAGIC: [u8; 4] = *b"LLCB";

/// Current `LLCB` format version.
pub const LLCB_VERSION: u16 = 1;

/// Size of the fixed `LLCB` header in bytes.
pub const LLCB_HEADER_BYTES: usize = 16;

/// Size of one `LLCB` record in bytes.
pub const LLCB_RECORD_BYTES: usize = 22;

/// A streaming [`TraceSource`] over an `LLCB` image, reading from any
/// [`Read`]. The header is validated eagerly in [`BinaryTraceSource::new`];
/// record errors are parked and surfaced through
/// [`TraceSource::take_error`].
#[derive(Debug)]
pub struct BinaryTraceSource<R> {
    reader: R,
    declared: u64,
    decoded: u64,
    cores: usize,
    error: Option<TraceError>,
    done: bool,
}

impl<R: Read> BinaryTraceSource<R> {
    /// Reads and validates the header.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`], [`TraceError::UnsupportedVersion`],
    /// [`TraceError::TruncatedHeader`] or [`TraceError::Io`].
    pub fn new(mut reader: R) -> Result<Self, TraceError> {
        let mut header = [0u8; LLCB_HEADER_BYTES];
        let got = read_up_to(&mut reader, &mut header)?;
        if got < LLCB_HEADER_BYTES {
            return Err(TraceError::TruncatedHeader {
                got,
                expected: LLCB_HEADER_BYTES,
            });
        }
        if header[..4] != LLCB_MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(&header[..4]);
            return Err(TraceError::BadMagic { found });
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != LLCB_VERSION {
            return Err(TraceError::UnsupportedVersion { version });
        }
        let declared = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        Ok(BinaryTraceSource {
            reader,
            declared,
            decoded: 0,
            cores: MAX_CORES,
            error: None,
            done: false,
        })
    }

    /// Restricts accepted core ids to `< cores`.
    pub fn with_core_limit(mut self, cores: usize) -> Self {
        self.cores = cores.min(MAX_CORES);
        self
    }

    /// Records successfully decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    fn park(&mut self, e: TraceError) -> Option<MemAccess> {
        self.error = Some(e);
        self.done = true;
        None
    }
}

impl<R: Read> TraceSource for BinaryTraceSource<R> {
    fn next_access(&mut self) -> Option<MemAccess> {
        if self.done || self.decoded == self.declared {
            self.done = true;
            return None;
        }
        let mut rec = [0u8; LLCB_RECORD_BYTES];
        let got = match read_up_to(&mut self.reader, &mut rec) {
            Ok(n) => n,
            Err(e) => return self.park(e),
        };
        if got < LLCB_RECORD_BYTES {
            let (decoded, declared) = (self.decoded, self.declared);
            return self.park(TraceError::Truncated { decoded, declared });
        }
        let core = rec[0];
        let kind = rec[1];
        if usize::from(core) >= self.cores {
            let (index, limit) = (self.decoded, self.cores);
            return self.park(TraceError::CoreOutOfRange { core, limit, index });
        }
        let kind = match kind {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            k => {
                let index = self.decoded;
                return self.park(TraceError::BadKind { kind: k, index });
            }
        };
        let gap = u32::from_le_bytes(rec[2..6].try_into().expect("4 bytes"));
        let pc = u64::from_le_bytes(rec[6..14].try_into().expect("8 bytes"));
        let addr = u64::from_le_bytes(rec[14..22].try_into().expect("8 bytes"));
        self.decoded += 1;
        let mut a = MemAccess::new(
            CoreId::new(usize::from(core)),
            Pc::new(pc),
            Addr::new(addr),
            kind,
        );
        a.instr_gap = gap;
        Some(a)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.declared)
    }

    fn take_error(&mut self) -> Option<TraceError> {
        self.error.take()
    }
}

/// Reads until `buf` is full or EOF; returns the bytes read. Interrupted
/// reads retry; other I/O errors propagate as [`TraceError::Io`].
fn read_up_to<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<usize, TraceError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(TraceError::Io(e)),
        }
    }
    Ok(filled)
}

/// Encodes a [`TraceSource`] as an `LLCB` image and returns the number
/// of records written.
///
/// A source with a [`TraceSource::len_hint`] has its header written up
/// front and its records streamed, so it must produce exactly the
/// declared count. A source without a hint is drained into memory first
/// so the header can declare an exact count.
///
/// # Errors
///
/// [`TraceError::RecordOverflow`] for a source that produces more records
/// than its hint and [`TraceError::CountMismatch`] for one that produces
/// fewer; [`TraceError::CoreUnencodable`] for a core id that does not fit
/// the 1-byte record encoding; [`TraceError::Io`] on a sink failure; and
/// any parked error of the source itself. On error the sink may hold a
/// partial image.
pub fn write_binary_trace<S: TraceSource, W: Write>(
    mut source: S,
    mut sink: W,
) -> Result<u64, TraceError> {
    let Some(declared) = source.len_hint() else {
        let mut records = Vec::new();
        while let Some(a) = source.next_access() {
            records.push(a);
        }
        if let Some(e) = source.take_error() {
            return Err(e);
        }
        return write_binary_trace(VecSource::new(records), sink);
    };
    let mut header = [0u8; LLCB_HEADER_BYTES];
    header[..4].copy_from_slice(&LLCB_MAGIC);
    header[4..6].copy_from_slice(&LLCB_VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&declared.to_le_bytes());
    sink.write_all(&header)?;
    let mut written = 0u64;
    while let Some(a) = source.next_access() {
        if written == declared {
            return Err(TraceError::RecordOverflow { declared });
        }
        let core = a.core.index();
        let Ok(core) = u8::try_from(core) else {
            return Err(TraceError::CoreUnencodable { core });
        };
        let mut rec = [0u8; LLCB_RECORD_BYTES];
        rec[0] = core;
        rec[1] = u8::from(a.kind.is_write());
        rec[2..6].copy_from_slice(&a.instr_gap.to_le_bytes());
        rec[6..14].copy_from_slice(&a.pc.raw().to_le_bytes());
        rec[14..22].copy_from_slice(&a.addr.raw().to_le_bytes());
        sink.write_all(&rec)?;
        written += 1;
    }
    if let Some(e) = source.take_error() {
        return Err(e);
    }
    if written != declared {
        return Err(TraceError::CountMismatch { declared, written });
    }
    sink.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<MemAccess> {
        (0..n)
            .map(|i| {
                let mut a = MemAccess::new(
                    CoreId::new(i % 4),
                    Pc::new(0x400 + i as u64),
                    Addr::new(64 * i as u64),
                    if i % 2 == 0 {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    },
                );
                a.instr_gap = (11 * i) as u32;
                a
            })
            .collect()
    }

    fn encode(n: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary_trace(VecSource::new(sample(n)), &mut buf).expect("encode");
        buf
    }

    fn drain<S: TraceSource>(mut s: S) -> (Vec<MemAccess>, Option<TraceError>) {
        let mut out = Vec::new();
        while let Some(a) = s.next_access() {
            out.push(a);
        }
        (out, s.take_error())
    }

    #[test]
    fn round_trips_exactly() {
        let bytes = encode(40);
        assert_eq!(bytes.len(), LLCB_HEADER_BYTES + 40 * LLCB_RECORD_BYTES);
        let src = BinaryTraceSource::new(bytes.as_slice()).expect("header");
        assert_eq!(src.len_hint(), Some(40));
        let (parsed, err) = drain(src);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(parsed, sample(40));
    }

    #[test]
    fn header_failures_are_typed() {
        assert!(matches!(
            BinaryTraceSource::new(&b"LLCB\x01\x00"[..]),
            Err(TraceError::TruncatedHeader { got: 6, .. })
        ));
        let mut bad = encode(1);
        bad[0] = b'X';
        assert!(matches!(
            BinaryTraceSource::new(bad.as_slice()),
            Err(TraceError::BadMagic { .. })
        ));
        let mut v9 = encode(1);
        v9[4] = 9;
        assert!(matches!(
            BinaryTraceSource::new(v9.as_slice()),
            Err(TraceError::UnsupportedVersion { version: 9 })
        ));
    }

    #[test]
    fn truncation_and_bad_fields_park_typed_errors() {
        let bytes = encode(8);
        let cut = &bytes[..LLCB_HEADER_BYTES + 3 * LLCB_RECORD_BYTES + 5];
        let (parsed, err) = drain(BinaryTraceSource::new(cut).expect("header"));
        assert_eq!(parsed.len(), 3);
        assert!(matches!(
            err,
            Some(TraceError::Truncated {
                decoded: 3,
                declared: 8
            })
        ));

        let mut bad_kind = encode(4);
        bad_kind[LLCB_HEADER_BYTES + LLCB_RECORD_BYTES + 1] = 7;
        let (_, err) = drain(BinaryTraceSource::new(bad_kind.as_slice()).expect("header"));
        assert!(matches!(
            err,
            Some(TraceError::BadKind { kind: 7, index: 1 })
        ));

        let mut bad_core = encode(4);
        bad_core[LLCB_HEADER_BYTES] = 200;
        let (_, err) = drain(
            BinaryTraceSource::new(bad_core.as_slice())
                .expect("header")
                .with_core_limit(4),
        );
        assert!(matches!(
            err,
            Some(TraceError::CoreOutOfRange {
                core: 200,
                limit: 4,
                index: 0
            })
        ));
    }

    #[test]
    fn overlong_input_stops_at_declared_count() {
        let mut bytes = encode(4);
        bytes.extend_from_slice(&[0xab; 100]);
        let (parsed, err) = drain(BinaryTraceSource::new(bytes.as_slice()).expect("header"));
        assert_eq!(parsed.len(), 4);
        assert!(
            err.is_none(),
            "trailing junk past the declared count is ignored"
        );
    }
}
