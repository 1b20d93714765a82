//! Versioned little-endian binary snapshots — the persistence plane.
//!
//! The flat SoA data plane (DESIGN.md §8) stores everything in plain
//! `u32`/`u64`/`f64` columns, which makes an on-disk format a matter of
//! *framing*, not encoding: a snapshot is the columns themselves, streamed
//! out verbatim through a 64 KiB buffer. Loading reads each column back in
//! 64 KiB chunks with `read_exact` and decodes every chunk from
//! little-endian with one `extend` into the column vector (the crate
//! forbids `unsafe`, so bytes are never cast to a typed slice). No per-edge
//! list is built on either side: a loaded [`Graph`] derives its canonical
//! edge list only if [`Graph::edges`] is called (DESIGN.md §11).
//!
//! ## Container layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic            (per container type, e.g. "PSSGRAPH")
//! 8       4     format version   (u32, currently 2)
//! 12      4     header length    (u32, bytes of the header block)
//! 16      8     header checksum  (FNV-1a 64 over the header block)
//! 24      H     header block:
//!                 params length  (u32)
//!                 params bytes   (container-specific fixed-size fields)
//!                 section count  (u32)
//!                 per section:   tag [u8;4] | elem size u32 |
//!                                elem count u64 | byte offset u64
//! 24+H    ...   section data, concatenated in declared order
//! ```
//!
//! The header (params + section table) is checksummed; the column data is
//! not — it is validated *structurally* on load instead (bounds, sort
//! order, symmetry, finiteness), which catches the corruption classes that
//! would break the determinism contract. For the graph that is one check
//! of the offsets column and one pass over the adjacency columns
//! ([`read_graph_snapshot`]). Loading is sequential (`Read`,
//! no `Seek`), so containers can nest: a larger container embeds a whole
//! graph or hopset snapshot as one raw section.
//!
//! This module provides the shared framing ([`ContainerWriter`],
//! [`ContainerReader`], [`SnapshotError`]) and the [`Graph`] container;
//! `hopset::snapshot` and `sssp::snapshot` build on it.

use crate::csr::Graph;
use crate::{VId, Weight};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

/// Snapshot container format version written by this build.
///
/// Version policy: the loader accepts exactly the versions it knows how to
/// decode ([`MIN_FORMAT_VERSION`]`..=`[`FORMAT_VERSION`]) and fails with
/// [`SnapshotError::UnsupportedVersion`] otherwise — snapshots are
/// artifacts shipped between builds, so "guess and hope" is never correct.
/// Additive evolution (new trailing params fields, new sections) bumps the
/// version; old loaders reject new files rather than misread them.
///
/// Version history:
/// * 1 — original layout (PR 8). Graph offsets stored as `u64`.
/// * 2 — width fields (DESIGN.md §12). Graph params grow trailing
///   `id_width`/`offset_width`/`weight_width` bytes and the offsets column
///   is stored at `offset_width` (u32 when `2m ≤ u32::MAX`); the hopset
///   container grows `weight_width` and a quantization scale, written as
///   8 and 0 (`hopset::snapshot` rejects 4-byte quantized weights). Widths
///   are properties of the *data*: offsets are `usize` in memory whatever
///   width the file stores them at.
pub const FORMAT_VERSION: u32 = 2;

/// Oldest container version this build still decodes.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Magic of the [`Graph`] container.
pub const GRAPH_MAGIC: [u8; 8] = *b"PSSGRAPH";

/// Size of the fixed prelude before the header block (magic + version +
/// header length + checksum).
const PRELUDE_BYTES: u64 = 24;

/// Per-section descriptor size in the header block.
const SECTION_DESC_BYTES: u64 = 24;

/// Hard sanity cap on the header block (params + section table are always
/// tiny; a multi-megabyte header is corruption, not data).
const MAX_HEADER_BYTES: u32 = 1 << 24;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed errors raised while writing or loading snapshot containers.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The leading magic did not match the expected container type.
    BadMagic {
        /// The 8 bytes found at the start of the stream.
        found: [u8; 8],
        /// The magic this loader expected.
        expected: [u8; 8],
    },
    /// The file's format version is not one this build can decode.
    UnsupportedVersion {
        /// The version recorded in the file.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The header bytes do not match their recorded checksum.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the header actually read.
        computed: u64,
    },
    /// The stream ended inside the named region.
    Truncated {
        /// Which region (header, params, or a section tag) was cut short.
        region: String,
    },
    /// A structural invariant of the decoded data does not hold (bounds,
    /// sort order, referential integrity, ...).
    Corrupt {
        /// What failed.
        what: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic { found, expected } => write!(
                f,
                "bad snapshot magic {:?} (expected {:?})",
                String::from_utf8_lossy(found),
                String::from_utf8_lossy(expected)
            ),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {supported})"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot header checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            SnapshotError::Truncated { region } => {
                write!(f, "snapshot truncated inside {region}")
            }
            SnapshotError::Corrupt { what } => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn corrupt(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt { what: what.into() }
}

fn map_eof(e: io::Error, region: &str) -> SnapshotError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        SnapshotError::Truncated {
            region: region.to_string(),
        }
    } else {
        SnapshotError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// FNV-1a 64 (header checksum; local implementation, no dependencies)
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash — the header checksum function (deterministic,
/// dependency-free, byte-order independent).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Params block helpers
// ---------------------------------------------------------------------------

/// Builder for a container's params block (fixed-size little-endian fields).
#[derive(Default)]
pub struct ParamsBuf(Vec<u8>);

impl ParamsBuf {
    /// Empty params block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.0.push(v);
        self
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `i64`.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `f64` (bit pattern — round-trips exactly).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
        self
    }

    /// The encoded bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Number of encoded bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no fields were appended.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Cursor over a params block read back from a container header.
pub struct ParamsReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ParamsReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ParamsReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.buf.len() {
            return Err(SnapshotError::Truncated {
                region: "params block".to_string(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` (bit pattern).
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// ---------------------------------------------------------------------------
// Section table
// ---------------------------------------------------------------------------

/// One section of a container: a typed column (fixed `elem_size`) or a raw
/// byte region (`elem_size == 1`, `count` = byte length).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionDecl {
    /// Four-byte ASCII tag naming the section.
    pub tag: [u8; 4],
    /// Bytes per element (4 for `u32`, 8 for `u64`/`f64`, 1 for raw bytes).
    pub elem_size: u32,
    /// Number of elements.
    pub count: u64,
}

impl SectionDecl {
    /// Total bytes of the section's data.
    pub fn byte_len(&self) -> u64 {
        self.elem_size as u64 * self.count
    }
}

fn header_len(params_len: usize, sections: &[SectionDecl]) -> u64 {
    4 + params_len as u64 + 4 + SECTION_DESC_BYTES * sections.len() as u64
}

/// Exact byte size of a container with the given params block length and
/// section declarations — used to embed one container inside another.
pub fn container_size(params_len: usize, sections: &[SectionDecl]) -> u64 {
    PRELUDE_BYTES
        + header_len(params_len, sections)
        + sections.iter().map(SectionDecl::byte_len).sum::<u64>()
}

fn tag_str(tag: [u8; 4]) -> String {
    String::from_utf8_lossy(&tag).into_owned()
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming container writer: declare every section up front (sizes are
/// known — the columns already exist in memory), then write them in order.
pub struct ContainerWriter<'w, W: Write> {
    out: &'w mut W,
    sections: Vec<SectionDecl>,
    next: usize,
}

impl<'w, W: Write> ContainerWriter<'w, W> {
    /// Write the prelude + checksummed header and return a writer expecting
    /// the declared sections in order.
    pub fn begin(
        out: &'w mut W,
        magic: &[u8; 8],
        params: &[u8],
        sections: Vec<SectionDecl>,
    ) -> Result<Self, SnapshotError> {
        Self::begin_with_version(out, magic, FORMAT_VERSION, params, sections)
    }

    /// [`ContainerWriter::begin`] with an explicit format version. The
    /// header is checksummed, so compatibility tests cannot fabricate an
    /// old-version file by patching bytes — they write a genuine one here.
    #[doc(hidden)]
    pub fn begin_with_version(
        out: &'w mut W,
        magic: &[u8; 8],
        version: u32,
        params: &[u8],
        sections: Vec<SectionDecl>,
    ) -> Result<Self, SnapshotError> {
        let mut header = Vec::with_capacity(header_len(params.len(), &sections) as usize);
        header.extend_from_slice(&(params.len() as u32).to_le_bytes());
        header.extend_from_slice(params);
        header.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        let mut offset = 0u64;
        for s in &sections {
            header.extend_from_slice(&s.tag);
            header.extend_from_slice(&s.elem_size.to_le_bytes());
            header.extend_from_slice(&s.count.to_le_bytes());
            header.extend_from_slice(&offset.to_le_bytes());
            offset += s.byte_len();
        }
        out.write_all(magic)?;
        out.write_all(&version.to_le_bytes())?;
        out.write_all(&(header.len() as u32).to_le_bytes())?;
        out.write_all(&fnv1a64(&header).to_le_bytes())?;
        out.write_all(&header)?;
        Ok(ContainerWriter {
            out,
            sections,
            next: 0,
        })
    }

    fn expect(&mut self, tag: [u8; 4], elem_size: u32, count: u64) -> &mut W {
        let decl = self
            .sections
            .get(self.next)
            .unwrap_or_else(|| panic!("section '{}' written past the declaration", tag_str(tag)));
        assert_eq!(
            (decl.tag, decl.elem_size, decl.count),
            (tag, elem_size, count),
            "section '{}' written out of declared order or with a different shape",
            tag_str(tag)
        );
        self.next += 1;
        self.out
    }

    /// Write a `u32` column.
    pub fn col_u32(&mut self, tag: [u8; 4], col: &[u32]) -> Result<(), SnapshotError> {
        let out = self.expect(tag, 4, col.len() as u64);
        write_col(out, col, |v| v.to_le_bytes())
    }

    /// Write a `u8` column.
    pub fn col_u8(&mut self, tag: [u8; 4], col: &[u8]) -> Result<(), SnapshotError> {
        let out = self.expect(tag, 1, col.len() as u64);
        out.write_all(col)?;
        Ok(())
    }

    /// Write an `f64` column (bit patterns — round-trips exactly).
    pub fn col_f64(&mut self, tag: [u8; 4], col: &[f64]) -> Result<(), SnapshotError> {
        let out = self.expect(tag, 8, col.len() as u64);
        write_col(out, col, |v| v.to_bits().to_le_bytes())
    }

    /// Write a `usize` column as `u64` elements.
    pub fn col_usize_as_u64(&mut self, tag: [u8; 4], col: &[usize]) -> Result<(), SnapshotError> {
        let out = self.expect(tag, 8, col.len() as u64);
        write_col(out, col, |v| (v as u64).to_le_bytes())
    }

    /// Write a `usize` index column as `u32` elements. The caller must
    /// have verified every value fits (the graph writer picks this width
    /// from `2m`).
    pub fn col_index_as_u32(&mut self, tag: [u8; 4], col: &[usize]) -> Result<(), SnapshotError> {
        let out = self.expect(tag, 4, col.len() as u64);
        write_col(out, col, |v| {
            debug_assert!(v as u64 <= u32::MAX as u64);
            (v as u32).to_le_bytes()
        })
    }

    /// Write a raw section through a closure. The closure must produce
    /// exactly the declared byte count (checked).
    pub fn raw(
        &mut self,
        tag: [u8; 4],
        f: impl FnOnce(&mut dyn Write) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let declared = self
            .sections
            .get(self.next)
            .map(SectionDecl::byte_len)
            .unwrap_or(0);
        let out = self.expect(tag, 1, declared);
        let mut cw = CountWriter { inner: out, n: 0 };
        f(&mut cw)?;
        if cw.n != declared {
            return Err(corrupt(format!(
                "section '{}' wrote {} bytes but declared {declared}",
                tag_str(tag),
                cw.n
            )));
        }
        Ok(())
    }

    /// Assert every declared section was written.
    pub fn finish(self) -> Result<(), SnapshotError> {
        assert_eq!(
            self.next,
            self.sections.len(),
            "container finished with sections undeclared sections unwritten"
        );
        Ok(())
    }
}

struct CountWriter<'a, W: Write + ?Sized> {
    inner: &'a mut W,
    n: u64,
}

impl<W: Write + ?Sized> Write for CountWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(buf)?;
        self.n += written as u64;
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Stream a typed column through a bounded buffer (one `write_all` per
/// ~64 KiB, no full-column byte copy).
fn write_col<W, T, const K: usize>(
    out: &mut W,
    col: &[T],
    enc: impl Fn(T) -> [u8; K],
) -> Result<(), SnapshotError>
where
    W: Write + ?Sized,
    T: Copy,
{
    const CHUNK: usize = 64 * 1024;
    let mut buf = Vec::with_capacity(CHUNK.min(col.len() * K) + K);
    for &x in col {
        buf.extend_from_slice(&enc(x));
        if buf.len() >= CHUNK {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    if !buf.is_empty() {
        out.write_all(&buf)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Sequential container reader: validates magic, version, and the header
/// checksum on open, then hands back the declared sections in order.
pub struct ContainerReader<R: Read> {
    inner: R,
    version: u32,
    params: Vec<u8>,
    sections: Vec<SectionDecl>,
    next: usize,
}

impl<R: Read> ContainerReader<R> {
    /// Open a container: read and validate the prelude and header.
    pub fn open(mut inner: R, magic: &[u8; 8]) -> Result<Self, SnapshotError> {
        let mut found = [0u8; 8];
        inner
            .read_exact(&mut found)
            .map_err(|e| map_eof(e, "magic"))?;
        if &found != magic {
            return Err(SnapshotError::BadMagic {
                found,
                expected: *magic,
            });
        }
        let mut word = [0u8; 4];
        inner
            .read_exact(&mut word)
            .map_err(|e| map_eof(e, "version"))?;
        let version = u32::from_le_bytes(word);
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        inner
            .read_exact(&mut word)
            .map_err(|e| map_eof(e, "header length"))?;
        let hlen = u32::from_le_bytes(word);
        if hlen > MAX_HEADER_BYTES {
            return Err(corrupt(format!("header length {hlen} exceeds sanity cap")));
        }
        let mut sum = [0u8; 8];
        inner
            .read_exact(&mut sum)
            .map_err(|e| map_eof(e, "header checksum"))?;
        let stored = u64::from_le_bytes(sum);
        let mut header = vec![0u8; hlen as usize];
        inner
            .read_exact(&mut header)
            .map_err(|e| map_eof(e, "header block"))?;
        let computed = fnv1a64(&header);
        if computed != stored {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }

        let mut hr = ParamsReader::new(&header);
        let plen = hr.u32()? as usize;
        if plen > hr.remaining() {
            return Err(corrupt("params length exceeds header"));
        }
        let params = hr.take(plen)?.to_vec();
        let nsec = hr.u32()? as usize;
        if hr.remaining() != nsec * SECTION_DESC_BYTES as usize {
            return Err(corrupt("section table size mismatch"));
        }
        let mut sections = Vec::with_capacity(nsec);
        let mut offset = 0u64;
        for _ in 0..nsec {
            let tag: [u8; 4] = hr.take(4)?.try_into().unwrap();
            let elem_size = hr.u32()?;
            let count = hr.u64()?;
            let declared_offset = hr.u64()?;
            if elem_size == 0 || elem_size > 8 {
                return Err(corrupt(format!(
                    "section '{}' has element size {elem_size}",
                    tag_str(tag)
                )));
            }
            if declared_offset != offset {
                return Err(corrupt(format!(
                    "section '{}' offset {declared_offset} does not match running total {offset}",
                    tag_str(tag)
                )));
            }
            let decl = SectionDecl {
                tag,
                elem_size,
                count,
            };
            offset = u64::from(elem_size)
                .checked_mul(count)
                .and_then(|len| offset.checked_add(len))
                .ok_or_else(|| corrupt("section sizes overflow"))?;
            sections.push(decl);
        }
        Ok(ContainerReader {
            inner,
            version,
            params,
            sections,
            next: 0,
        })
    }

    /// The format version recorded in the file (within
    /// [`MIN_FORMAT_VERSION`]`..=`[`FORMAT_VERSION`]). Container decoders
    /// branch on this to pick the params layout and column widths.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The raw params block.
    pub fn params(&self) -> &[u8] {
        &self.params
    }

    /// The declared sections.
    pub fn sections(&self) -> &[SectionDecl] {
        &self.sections
    }

    fn expect(&mut self, tag: [u8; 4], elem_size: u32) -> Result<SectionDecl, SnapshotError> {
        let decl = *self.sections.get(self.next).ok_or_else(|| {
            corrupt(format!(
                "section '{}' requested past the section table",
                tag_str(tag)
            ))
        })?;
        if decl.tag != tag {
            return Err(corrupt(format!(
                "expected section '{}', found '{}'",
                tag_str(tag),
                tag_str(decl.tag)
            )));
        }
        if decl.elem_size != elem_size {
            return Err(corrupt(format!(
                "section '{}' has element size {} (expected {elem_size})",
                tag_str(tag),
                decl.elem_size
            )));
        }
        self.next += 1;
        Ok(decl)
    }

    /// Read the next column, `K` bytes per element, through `dec`.
    fn col<T, const K: usize>(
        &mut self,
        tag: [u8; 4],
        dec: impl Fn([u8; K]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let decl = self.expect(tag, K as u32)?;
        read_col(&mut self.inner, decl.count, &tag_str(tag), dec)
    }

    /// Read a `u32` column.
    pub fn col_u32(&mut self, tag: [u8; 4]) -> Result<Vec<u32>, SnapshotError> {
        self.col(tag, u32::from_le_bytes)
    }

    /// Read a `u8` column.
    pub fn col_u8(&mut self, tag: [u8; 4]) -> Result<Vec<u8>, SnapshotError> {
        self.col(tag, |[b]: [u8; 1]| b)
    }

    /// Read an `f64` column (bit patterns).
    pub fn col_f64(&mut self, tag: [u8; 4]) -> Result<Vec<f64>, SnapshotError> {
        self.col(tag, |b| f64::from_bits(u64::from_le_bytes(b)))
    }

    /// Read a `u64` column.
    pub fn col_u64(&mut self, tag: [u8; 4]) -> Result<Vec<u64>, SnapshotError> {
        self.col(tag, u64::from_le_bytes)
    }

    /// Read a `u64` column into `usize` elements (fails on 32-bit overflow).
    pub fn col_u64_as_usize(&mut self, tag: [u8; 4]) -> Result<Vec<usize>, SnapshotError> {
        let raw = self.col_u64(tag)?;
        raw.into_iter()
            .map(|v| {
                usize::try_from(v).map_err(|_| {
                    corrupt(format!("value {v} in '{}' overflows usize", tag_str(tag)))
                })
            })
            .collect()
    }

    /// Read a raw section through a closure over a length-limited reader.
    /// The closure must consume the section exactly.
    pub fn raw<T>(
        &mut self,
        tag: [u8; 4],
        f: impl FnOnce(&mut dyn Read) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        let decl = self.expect(tag, 1)?;
        let mut lim = (&mut self.inner).take(decl.byte_len());
        let v = f(&mut lim)?;
        if lim.limit() != 0 {
            return Err(corrupt(format!(
                "section '{}' has {} unconsumed bytes",
                tag_str(tag),
                lim.limit()
            )));
        }
        Ok(v)
    }
}

/// Read a typed column with chunked `read_exact`: each 64 KiB chunk is
/// decoded by one `extend` over its `K`-byte elements. At most 32 MiB is
/// reserved up front and the vector otherwise grows only as data
/// actually arrives, so a corrupt count hits
/// [`SnapshotError::Truncated`] instead of a huge allocation.
fn read_col<R, T, const K: usize>(
    r: &mut R,
    count: u64,
    region: &str,
    dec: impl Fn([u8; K]) -> T,
) -> Result<Vec<T>, SnapshotError>
where
    R: Read + ?Sized,
{
    const CHUNK: usize = 64 * 1024; // divisible by every elem size
    let prealloc = count.min((32 * 1024 * 1024 / K) as u64) as usize;
    let mut out: Vec<T> = Vec::with_capacity(prealloc);
    let mut buf = [0u8; CHUNK];
    let mut rem = count
        .checked_mul(K as u64)
        .ok_or_else(|| corrupt(format!("column '{region}' size overflows")))?;
    while rem > 0 {
        let take = rem.min(CHUNK as u64) as usize;
        r.read_exact(&mut buf[..take])
            .map_err(|e| map_eof(e, region))?;
        out.extend(
            buf[..take]
                .chunks_exact(K)
                .map(|c| dec(c.try_into().unwrap())),
        );
        rem -= take as u64;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Graph container
// ---------------------------------------------------------------------------

// v1 was n u64 + m u64 (16 bytes); v2 appends id_width u8 +
// offset_width u8 + weight_width u8 (DESIGN.md §12).
const GRAPH_PARAMS_BYTES: usize = 19;

/// Stored width of the offsets column: a property of the *data* (`2m`),
/// not of the in-memory `usize` column.
fn graph_offset_width(m: usize) -> u32 {
    if (2 * m) as u64 <= u32::MAX as u64 {
        4
    } else {
        8
    }
}

fn graph_sections(n: usize, m: usize) -> Vec<SectionDecl> {
    vec![
        SectionDecl {
            tag: *b"offs",
            elem_size: graph_offset_width(m),
            count: (n + 1) as u64,
        },
        SectionDecl {
            tag: *b"neig",
            elem_size: 4,
            count: (2 * m) as u64,
        },
        SectionDecl {
            tag: *b"wgts",
            elem_size: 8,
            count: (2 * m) as u64,
        },
    ]
}

/// Exact byte size [`write_graph_snapshot`] will emit for `g`.
pub fn graph_snapshot_size(g: &Graph) -> u64 {
    container_size(
        GRAPH_PARAMS_BYTES,
        &graph_sections(g.num_vertices(), g.num_edges()),
    )
}

/// Write `g` as a binary snapshot: the CSR columns streamed verbatim
/// (offsets at the narrowest width `2m` admits).
pub fn write_graph_snapshot(g: &Graph, mut w: impl Write) -> Result<(), SnapshotError> {
    let (n, m) = (g.num_vertices(), g.num_edges());
    let offw = graph_offset_width(m);
    let mut params = ParamsBuf::new();
    params.u64(n as u64).u64(m as u64);
    // id_width (VId is always u32), offset_width, weight_width (f64).
    params.u8(4).u8(offw as u8).u8(8);
    let mut cw = ContainerWriter::begin(
        &mut w,
        &GRAPH_MAGIC,
        params.as_slice(),
        graph_sections(n, m),
    )?;
    if offw == 4 {
        cw.col_index_as_u32(*b"offs", g.offsets())?;
    } else {
        cw.col_usize_as_u64(*b"offs", g.offsets())?;
    }
    cw.col_u32(*b"neig", g.neighbor_column())?;
    cw.col_f64(*b"wgts", g.weight_column())?;
    cw.finish()
}

/// Save `g` to a snapshot file.
pub fn save_graph_snapshot(g: &Graph, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    write_graph_snapshot(g, &mut out)?;
    out.flush()?;
    Ok(())
}

/// Load a graph snapshot: each CSR column is read in 64 KiB chunks and
/// decoded from little-endian one chunk at a time. Validation then checks
/// the offsets column on its own (monotone, from 0 to 2m) and makes one
/// pass over the adjacency columns for every other invariant, symmetry
/// included. Nothing is re-sorted and no edge list is built (the graph
/// derives it on the first [`Graph::edges`] call), so the loaded graph is
/// bit-identical to the saved one. Every rejection is a typed
/// [`SnapshotError`].
pub fn read_graph_snapshot(r: impl Read) -> Result<Graph, SnapshotError> {
    let mut cr = ContainerReader::open(r, &GRAPH_MAGIC)?;
    let version = cr.version();
    let mut p = ParamsReader::new(cr.params());
    let n64 = p.u64()?;
    let m64 = p.u64()?;
    if n64 > u32::MAX as u64 {
        return Err(corrupt(format!("vertex count {n64} exceeds u32 ids")));
    }
    let n = n64 as usize;
    let m = usize::try_from(m64)
        .ok()
        .filter(|&m| m <= usize::MAX / 2)
        .ok_or_else(|| corrupt(format!("edge count {m64}: 2m overflows usize")))?;

    // v1 stored offsets as u64 with no width fields; v2 records the widths.
    let offw = if version >= 2 {
        let idw = p.u8()?;
        let offw = p.u8()?;
        let ww = p.u8()?;
        if idw != 4 {
            return Err(corrupt(format!(
                "graph id width {idw} (only u32 ids exist)"
            )));
        }
        if ww != 8 {
            return Err(corrupt(format!(
                "graph weight width {ww} (weights are f64)"
            )));
        }
        if offw != 4 && offw != 8 {
            return Err(corrupt(format!(
                "graph offset width {offw} (expected 4 or 8)"
            )));
        }
        u32::from(offw)
    } else {
        8
    };
    let offsets = if offw == 4 {
        cr.col(*b"offs", |b| u32::from_le_bytes(b) as usize)?
    } else {
        cr.col_u64_as_usize(*b"offs")?
    };
    let neigh = cr.col_u32(*b"neig")?;
    let wt = cr.col_f64(*b"wgts")?;
    validate_graph_columns(n, m, &offsets, &neigh, &wt)?;
    Ok(Graph::from_raw_parts(n, offsets, neigh, wt))
}

/// Load a graph snapshot from a file path.
pub fn load_graph_snapshot(path: impl AsRef<Path>) -> Result<Graph, SnapshotError> {
    read_graph_snapshot(io::BufReader::new(std::fs::File::open(path)?))
}

/// Check every [`Graph`] invariant on raw CSR columns: shapes, offsets
/// that run monotonically from 0 to `2m`, neighbour ids in range with no
/// self loop, strictly sorted rows, finite positive weights, and
/// symmetry with identical weight bits.
///
/// The offsets are checked first, on their own, because the adjacency
/// pass reads rows out of order. That pass then checks symmetry with one
/// cursor per row: scanning rows in order, the canonical edges `(u, v)`
/// with `u < v` reach row `v` in increasing `u`, which is exactly the
/// order of row `v`'s entries below `v`. So each canonical edge must
/// match the entry at its mirror row's cursor (same id, same weight
/// bits), and when a row is scanned every entry below its own vertex
/// must already have been matched. That pairs the `m` canonical entries
/// one to one with the `m` entries below the diagonal.
fn validate_graph_columns(
    n: usize,
    m: usize,
    offsets: &[usize],
    neigh: &[VId],
    wt: &[Weight],
) -> Result<(), SnapshotError> {
    if offsets.len() != n + 1 {
        return Err(corrupt(format!(
            "offsets column has {} entries for n = {n}",
            offsets.len()
        )));
    }
    if neigh.len() != 2 * m || wt.len() != 2 * m {
        return Err(corrupt(format!(
            "adjacency columns have {} / {} entries for m = {m}",
            neigh.len(),
            wt.len()
        )));
    }
    if offsets[0] != 0 || offsets[n] != 2 * m {
        return Err(corrupt("offsets must run from 0 to 2m"));
    }
    if let Some(u) = offsets.windows(2).position(|o| o[0] > o[1]) {
        return Err(corrupt(format!("offsets not monotone at vertex {u}")));
    }
    // `matched[v]`: how many of row v's entries below v have been met by
    // their canonical edge. Each earlier row meets row v at most once (its
    // own row is strictly sorted), so the count stays below n.
    let mut matched = vec![0u32; n];
    for u in 0..n {
        let (lo, hi) = (offsets[u], offsets[u + 1]);
        let mut prev: Option<VId> = None;
        for i in lo..hi {
            let v = neigh[i];
            let w = wt[i];
            if v as usize >= n {
                return Err(corrupt(format!("neighbor {v} of vertex {u} out of range")));
            }
            if v as usize == u {
                return Err(corrupt(format!("self loop at vertex {u}")));
            }
            if prev.is_some_and(|p| p >= v) {
                return Err(corrupt(format!(
                    "adjacency of vertex {u} not strictly sorted"
                )));
            }
            prev = Some(v);
            if !(w.is_finite() && w > 0.0) {
                return Err(corrupt(format!("edge ({u}, {v}) has invalid weight {w}")));
            }
            let u = u as VId;
            let symmetric = if u < v {
                // Canonical: its mirror must be the next unmatched entry
                // of row v.
                let v = v as usize;
                let j = offsets[v] + matched[v] as usize;
                let hit = j < offsets[v + 1] && neigh[j] == u && wt[j].to_bits() == w.to_bits();
                matched[v] += u32::from(hit);
                hit
            } else {
                // Below the diagonal: edge (v, u) must already have met it.
                i < lo + matched[u as usize] as usize
            };
            if !symmetric {
                return Err(corrupt(format!(
                    "edge ({}, {}) is not symmetric in the adjacency columns",
                    u.min(v),
                    u.max(v)
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use proptest::prelude::*;

    fn roundtrip(g: &Graph) -> Graph {
        let mut buf = Vec::new();
        write_graph_snapshot(g, &mut buf).unwrap();
        assert_eq!(buf.len() as u64, graph_snapshot_size(g));
        read_graph_snapshot(buf.as_slice()).unwrap()
    }

    #[test]
    fn graph_roundtrip_bit_identical() {
        for g in [
            gen::gnm(40, 100, 3, 1.0, 7.5),
            gen::road_grid(9, 11, 5, 1.0, 4.0),
            gen::geometric(48, 0.35, 9),
            Graph::empty(5),
            Graph::empty(0),
        ] {
            let h = roundtrip(&g);
            assert_eq!(g.num_vertices(), h.num_vertices());
            assert_eq!(g.edges().len(), h.edges().len());
            for (a, b) in g.edges().iter().zip(h.edges()) {
                assert_eq!((a.0, a.1), (b.0, b.1));
                assert_eq!(a.2.to_bits(), b.2.to_bits());
            }
            assert_eq!(g.offsets(), h.offsets());
            assert_eq!(g.neighbor_column(), h.neighbor_column());
        }
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn bad_magic_is_typed() {
        let g = gen::path(4);
        let mut buf = Vec::new();
        write_graph_snapshot(&g, &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_graph_snapshot(buf.as_slice()),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn wrong_version_is_typed() {
        let g = gen::path(4);
        let mut buf = Vec::new();
        write_graph_snapshot(&g, &mut buf).unwrap();
        buf[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_graph_snapshot(buf.as_slice()),
            Err(SnapshotError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let g = gen::path(4);
        let mut buf = Vec::new();
        write_graph_snapshot(&g, &mut buf).unwrap();
        buf[24] ^= 0xff; // first params byte
        assert!(matches!(
            read_graph_snapshot(buf.as_slice()),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_typed() {
        let g = gen::gnm(20, 40, 1, 1.0, 2.0);
        let mut buf = Vec::new();
        write_graph_snapshot(&g, &mut buf).unwrap();
        for cut in [4usize, 20, buf.len() / 2, buf.len() - 3] {
            let r = read_graph_snapshot(&buf[..cut]);
            assert!(
                matches!(r, Err(SnapshotError::Truncated { .. })),
                "cut at {cut} gave {r:?}"
            );
        }
    }

    #[test]
    fn out_of_range_neighbor_is_corrupt() {
        let g = gen::path(4);
        let mut buf = Vec::new();
        write_graph_snapshot(&g, &mut buf).unwrap();
        // Find the data start (prelude + header) and patch the first
        // neighbor id (section order: offs (5×u32 — path(4) fits the
        // narrow width), then neig).
        let hlen = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
        let data = 24 + hlen;
        let neig0 = data + 5 * 4;
        buf[neig0..neig0 + 4].copy_from_slice(&250u32.to_le_bytes());
        assert!(matches!(
            read_graph_snapshot(buf.as_slice()),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    /// Emit a genuine version-1 graph snapshot (u64 offsets, 16-byte
    /// params) — the layout PR 8 shipped.
    fn write_graph_snapshot_v1(g: &Graph, w: &mut Vec<u8>) {
        let (n, m) = (g.num_vertices(), g.num_edges());
        let mut params = ParamsBuf::new();
        params.u64(n as u64).u64(m as u64);
        let sections = vec![
            SectionDecl {
                tag: *b"offs",
                elem_size: 8,
                count: (n + 1) as u64,
            },
            SectionDecl {
                tag: *b"neig",
                elem_size: 4,
                count: (2 * m) as u64,
            },
            SectionDecl {
                tag: *b"wgts",
                elem_size: 8,
                count: (2 * m) as u64,
            },
        ];
        let mut cw =
            ContainerWriter::begin_with_version(w, &GRAPH_MAGIC, 1, params.as_slice(), sections)
                .unwrap();
        cw.col_usize_as_u64(*b"offs", g.offsets()).unwrap();
        cw.col_u32(*b"neig", g.neighbor_column()).unwrap();
        cw.col_f64(*b"wgts", g.weight_column()).unwrap();
        cw.finish().unwrap();
    }

    #[test]
    fn v1_snapshots_still_load() {
        let g = gen::gnm(30, 70, 11, 1.0, 5.0);
        let mut buf = Vec::new();
        write_graph_snapshot_v1(&g, &mut buf);
        let h = read_graph_snapshot(buf.as_slice()).unwrap();
        assert_eq!(g.offsets(), h.offsets());
        assert_eq!(g.neighbor_column(), h.neighbor_column());
        for (a, b) in g.weight_column().iter().zip(h.weight_column()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(g.edges(), h.edges());
    }

    #[test]
    fn v2_stores_narrow_offsets_when_they_fit() {
        // The width written is a function of 2m, not of the in-memory
        // usize offsets column.
        let g = gen::gnm(30, 70, 11, 1.0, 5.0);
        let mut buf = Vec::new();
        write_graph_snapshot(&g, &mut buf).unwrap();
        assert_eq!(
            u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            FORMAT_VERSION
        );
        let cr = ContainerReader::open(buf.as_slice(), &GRAPH_MAGIC).unwrap();
        assert_eq!(cr.version(), 2);
        assert_eq!(cr.params().len(), GRAPH_PARAMS_BYTES);
        assert_eq!(cr.sections()[0].elem_size, 4, "offs stored as u32");
        // And the widths recorded in params match.
        let mut p = ParamsReader::new(cr.params());
        let _ = p.u64().unwrap();
        let _ = p.u64().unwrap();
        assert_eq!(
            (p.u8().unwrap(), p.u8().unwrap(), p.u8().unwrap()),
            (4, 4, 8)
        );
    }

    /// The two-pass validator the graph loader used before its one-pass
    /// cursor check, kept as a reference model: per-row checks and the
    /// canonical edge list, then a binary search for each canonical
    /// edge's mirror. `None` means "reject".
    fn reference_validate(
        n: usize,
        m: usize,
        offsets: &[u32],
        neigh: &[VId],
        wt: &[Weight],
    ) -> Option<Vec<(VId, VId, Weight)>> {
        let ix = |o: u32| o as usize;
        if offsets.len() != n + 1 || neigh.len() != 2 * m || wt.len() != 2 * m {
            return None;
        }
        if ix(offsets[0]) != 0 || ix(offsets[n]) != 2 * m {
            return None;
        }
        let mut edges = Vec::with_capacity(m);
        for u in 0..n {
            let (lo, hi) = (ix(offsets[u]), ix(offsets[u + 1]));
            if lo > hi || hi > 2 * m {
                return None;
            }
            let mut prev: Option<VId> = None;
            for i in lo..hi {
                let (v, w) = (neigh[i], wt[i]);
                if v as usize >= n
                    || v as usize == u
                    || prev.is_some_and(|p| p >= v)
                    || !(w.is_finite() && w > 0.0)
                {
                    return None;
                }
                if (u as VId) < v {
                    edges.push((u as VId, v, w));
                }
                prev = Some(v);
            }
        }
        if edges.len() != m {
            return None;
        }
        for &(u, v, w) in &edges {
            let (lo, hi) = (ix(offsets[v as usize]), ix(offsets[v as usize + 1]));
            match neigh[lo..hi].binary_search(&u) {
                Ok(i) if wt[lo + i].to_bits() == w.to_bits() => {}
                _ => return None,
            }
        }
        Some(edges)
    }

    /// A graph container holding exactly these columns (u32 offsets).
    fn encode_columns(n: usize, offsets: &[u32], neigh: &[VId], wt: &[Weight]) -> Vec<u8> {
        let m = neigh.len() / 2;
        let mut params = ParamsBuf::new();
        params.u64(n as u64).u64(m as u64).u8(4).u8(4).u8(8);
        let mut buf = Vec::new();
        let mut cw = ContainerWriter::begin(
            &mut buf,
            &GRAPH_MAGIC,
            params.as_slice(),
            graph_sections(n, m),
        )
        .unwrap();
        cw.col_u32(*b"offs", offsets).unwrap();
        cw.col_u32(*b"neig", neigh).unwrap();
        cw.col_f64(*b"wgts", wt).unwrap();
        cw.finish().unwrap();
        buf
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass loader rejects exactly the files the two-pass
        /// reference rejects, always as `Corrupt`, and loads the same edge
        /// list when both accept. Each case mutates one slot of a small
        /// random graph: a neighbour id (possibly out of range), one
        /// mirror's weight bits, two swapped neighbours, an offset moved
        /// by one, or an offset moved past 2m.
        #[test]
        fn one_pass_validation_matches_the_two_pass_reference(
            n in 2usize..24,
            seed in any::<u64>(),
            kind in 0usize..5,
            a in any::<u64>(),
            b in any::<u64>(),
        ) {
            let g = gen::gnm(n, 2 * n, seed, 1.0, 4.0);
            let mut offsets: Vec<u32> = g.offsets().iter().map(|&o| o as u32).collect();
            let mut neigh = g.neighbor_column().to_vec();
            let mut wt = g.weight_column().to_vec();
            let slots = neigh.len();
            let (i, j) = ((a % slots as u64) as usize, (b % slots as u64) as usize);
            let v = (a % (n as u64 + 1)) as usize;
            match kind {
                0 => neigh[i] = (b % (n as u64 + 1)) as VId,
                1 => wt[i] = f64::from_bits(wt[i].to_bits() ^ (1 << (b % 52))),
                2 => neigh.swap(i, j),
                3 if offsets[v] == 0 || b % 2 == 0 => offsets[v] += 1,
                3 => offsets[v] -= 1,
                _ => offsets[v] = slots as u32 + 1 + (b % 4) as u32,
            }
            let want = reference_validate(n, slots / 2, &offsets, &neigh, &wt);
            let got = read_graph_snapshot(encode_columns(n, &offsets, &neigh, &wt).as_slice());
            match (got, want) {
                (Ok(h), Some(edges)) => {
                    let bits = |e: &[(VId, VId, Weight)]| -> Vec<(VId, VId, u64)> {
                        e.iter().map(|&(u, v, w)| (u, v, w.to_bits())).collect()
                    };
                    prop_assert_eq!(bits(h.edges()), bits(&edges));
                }
                (Err(SnapshotError::Corrupt { .. }), None) => {}
                (got, want) => prop_assert!(
                    false,
                    "kind {kind}: loader gave {got:?}, reference accepts: {}",
                    want.is_some()
                ),
            }
        }
    }

    /// An interior offset past 2m must be rejected before the adjacency
    /// pass: there, edge (0, 1) would look for its mirror at row 1's
    /// cursor, slot 2 of a 2-slot column.
    #[test]
    fn offset_past_2m_is_corrupt_not_a_panic() {
        let (offsets, neigh, wt) = ([0, 2, 3, 2], [1, 2], [1.0, 1.0]);
        assert!(reference_validate(3, 1, &offsets, &neigh, &wt).is_none());
        assert!(matches!(
            read_graph_snapshot(encode_columns(3, &offsets, &neigh, &wt).as_slice()),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn asymmetric_weight_is_corrupt() {
        let g = gen::path(4);
        let mut buf = Vec::new();
        write_graph_snapshot(&g, &mut buf).unwrap();
        let hlen = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
        let data = 24 + hlen;
        // Patch the first weight only (its mirror entry keeps the old bits).
        // offs is 5×u32 (see above), neig 6×u32.
        let wgts0 = data + 5 * 4 + 6 * 4;
        buf[wgts0..wgts0 + 8].copy_from_slice(&2.5f64.to_bits().to_le_bytes());
        assert!(matches!(
            read_graph_snapshot(buf.as_slice()),
            Err(SnapshotError::Corrupt { .. })
        ));
    }
}
