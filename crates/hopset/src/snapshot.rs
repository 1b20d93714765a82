//! Binary snapshots of the hopset store — the expensive artifact.
//!
//! The construction is the costly phase by design (the whole point of a
//! hopset is to pay it once); this module makes the result a shippable
//! artifact. The container framing comes from [`pgraph::snapshot`]
//! (DESIGN.md §11): the SoA columns of [`Hopset`] stream out verbatim and
//! load back through the shared chunked column reader, followed by one
//! structural validation pass (scale order, offset-table consistency, kind
//! tally, path-link bounds).
//!
//! Sections, in order: `us  `/`vs  ` (u32 endpoints), `wgts` (f64 — see
//! below), `scal` (u32), `kind`/`phas` (u8 each
//! — [`EdgeKind`] split into a code and a phase byte), `path` (u32,
//! [`Hopset::NO_PATH`] = none), `sstr` (u32, the `(scale, start)` offset
//! table interleaved), and `prec` — the memory-path arena as
//! length-prefixed records: `L` (u32), `L + 1` vertex ids, then `L` links
//! as (tag u32, weight f64) where tag `u32::MAX` is a base-graph edge and
//! anything else a hopset edge index, bounds-checked against the edge
//! count.
//!
//! ## Weight width (format v2, DESIGN.md §12)
//!
//! A v2 header records the weight column's width and a quantization
//! scale. The writer always stores exact `f64` bit patterns (width 8,
//! scale 0). [`read_hopset_snapshot`] rejects width 4 — `u32` weights
//! decoded as `round(w / scale) · scale` — with [`SnapshotError::Corrupt`]
//! before any column is read: a decoded weight can land below the stored
//! hopset weight, which may equal the true distance, so answers over such
//! a hopset could undershoot.

use crate::path::{MemEdge, MemoryPath};
use crate::store::{EdgeKind, Hopset};
use pgraph::snapshot::{
    container_size, ContainerReader, ContainerWriter, ParamsBuf, ParamsReader, SectionDecl,
    SnapshotError,
};
use std::io::{Read, Write};

/// Magic of the [`Hopset`] container.
pub const HOPSET_MAGIC: [u8; 8] = *b"PSSHOPST";

// v1: ne, np, tally[3] (5×u64). v2 appends weight_width u8 + qscale f64
// (written as 8 and 0: weights are exact f64).
const PARAMS_BYTES: usize = 8 * 5 + 1 + 8;

/// Link tag meaning "base-graph edge" in `prec` records.
const LINK_BASE: u32 = u32::MAX;

fn corrupt(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt { what: what.into() }
}

fn kind_code(k: EdgeKind) -> (u8, u8) {
    match k {
        EdgeKind::Supercluster { phase } => (0, phase),
        EdgeKind::Interconnect { phase } => (1, phase),
        EdgeKind::Star => (2, 0),
    }
}

fn path_record_bytes(p: &MemoryPath) -> u64 {
    // L (u32) + (L + 1) vertex ids (u32) + L × (tag u32 + weight f64).
    8 + 16 * p.links.len() as u64
}

fn sections(h: &Hopset) -> Vec<SectionDecl> {
    let ne = h.len() as u64;
    let prec_bytes: u64 = h.paths.iter().map(path_record_bytes).sum();
    vec![
        SectionDecl {
            tag: *b"us  ",
            elem_size: 4,
            count: ne,
        },
        SectionDecl {
            tag: *b"vs  ",
            elem_size: 4,
            count: ne,
        },
        SectionDecl {
            tag: *b"wgts",
            elem_size: 8,
            count: ne,
        },
        SectionDecl {
            tag: *b"scal",
            elem_size: 4,
            count: ne,
        },
        SectionDecl {
            tag: *b"kind",
            elem_size: 1,
            count: ne,
        },
        SectionDecl {
            tag: *b"phas",
            elem_size: 1,
            count: ne,
        },
        SectionDecl {
            tag: *b"path",
            elem_size: 4,
            count: ne,
        },
        SectionDecl {
            tag: *b"sstr",
            elem_size: 4,
            count: 2 * h.scale_starts().len() as u64,
        },
        SectionDecl {
            tag: *b"prec",
            elem_size: 1,
            count: prec_bytes,
        },
    ]
}

/// Exact byte size [`write_hopset_snapshot`] will emit for `h`.
pub fn hopset_snapshot_size(h: &Hopset) -> u64 {
    container_size(PARAMS_BYTES, &sections(h))
}

/// Write `h` as a binary snapshot (columns streamed verbatim; weights
/// exact f64 bit patterns — round-trips bit-identically).
pub fn write_hopset_snapshot(h: &Hopset, mut w: impl Write) -> Result<(), SnapshotError> {
    let (ts, ti, tt) = h.kind_counts();
    let mut params = ParamsBuf::new();
    params
        .u64(h.len() as u64)
        .u64(h.paths.len() as u64)
        .u64(ts as u64)
        .u64(ti as u64)
        .u64(tt as u64);
    params.u8(8).f64(0.0);
    let mut cw = ContainerWriter::begin(&mut w, &HOPSET_MAGIC, params.as_slice(), sections(h))?;
    cw.col_u32(*b"us  ", h.us())?;
    cw.col_u32(*b"vs  ", h.vs())?;
    cw.col_f64(*b"wgts", h.ws())?;
    cw.col_u32(*b"scal", h.scales())?;
    let (kinds, phases): (Vec<u8>, Vec<u8>) = h.kinds().iter().map(|&k| kind_code(k)).unzip();
    cw.col_u8(*b"kind", &kinds)?;
    cw.col_u8(*b"phas", &phases)?;
    cw.col_u32(*b"path", h.path_ids())?;
    let sstr: Vec<u32> = h
        .scale_starts()
        .iter()
        .flat_map(|&(s, st)| [s, st])
        .collect();
    cw.col_u32(*b"sstr", &sstr)?;
    cw.raw(*b"prec", |out| {
        for p in &h.paths {
            out.write_all(&(p.links.len() as u32).to_le_bytes())?;
            for &v in &p.verts {
                out.write_all(&v.to_le_bytes())?;
            }
            for &(link, lw) in &p.links {
                let tag = match link {
                    MemEdge::Base => LINK_BASE,
                    MemEdge::Hop(i) => i,
                };
                out.write_all(&tag.to_le_bytes())?;
                out.write_all(&lw.to_bits().to_le_bytes())?;
            }
        }
        Ok(())
    })?;
    cw.finish()
}

fn read_u32(r: &mut dyn Read, region: &str) -> Result<u32, SnapshotError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated {
                region: region.to_string(),
            }
        } else {
            SnapshotError::Io(e)
        }
    })?;
    Ok(u32::from_le_bytes(b))
}

fn read_f64(r: &mut dyn Read, region: &str) -> Result<f64, SnapshotError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated {
                region: region.to_string(),
            }
        } else {
            SnapshotError::Io(e)
        }
    })?;
    Ok(f64::from_bits(u64::from_le_bytes(b)))
}

/// Load a hopset snapshot and validate every store invariant: scale order,
/// offset-table and kind-tally consistency, path-id referential integrity,
/// and hop links bounds-checked against the edge count. Endpoint ids are
/// *not* range-checked here (a hopset container does not know `n`); the
/// oracle loader cross-validates them.
pub fn read_hopset_snapshot(r: impl Read) -> Result<Hopset, SnapshotError> {
    let mut cr = ContainerReader::open(r, &HOPSET_MAGIC)?;
    let version = cr.version();
    let mut p = ParamsReader::new(cr.params());
    let ne = usize::try_from(p.u64()?).map_err(|_| corrupt("edge count overflows usize"))?;
    let np = usize::try_from(p.u64()?).map_err(|_| corrupt("path count overflows usize"))?;
    let tally = [p.u64()? as usize, p.u64()? as usize, p.u64()? as usize];

    // v1 always stored exact f64 weights; v2 records the width (+ a
    // quantization scale, which only width 4 used).
    if version >= 2 {
        let ww = p.u8()?;
        p.f64()?;
        match ww {
            8 => {}
            4 => {
                return Err(corrupt(
                    "hopset stores 4-byte quantized weights, which can decode below the \
                     stored weights and make answers undershoot; only exact 8-byte weights load",
                ))
            }
            _ => return Err(corrupt(format!("hopset weight width {ww} (expected 8)"))),
        }
    }

    let us = cr.col_u32(*b"us  ")?;
    let vs = cr.col_u32(*b"vs  ")?;
    let ws = cr.col_f64(*b"wgts")?;
    let scales = cr.col_u32(*b"scal")?;
    let kind_codes = cr.col_u8(*b"kind")?;
    let phases = cr.col_u8(*b"phas")?;
    let path_ids = cr.col_u32(*b"path")?;
    let sstr = cr.col_u32(*b"sstr")?;

    for (name, len) in [
        ("us", us.len()),
        ("vs", vs.len()),
        ("wgts", ws.len()),
        ("scal", scales.len()),
        ("kind", kind_codes.len()),
        ("phas", phases.len()),
        ("path", path_ids.len()),
    ] {
        if len != ne {
            return Err(corrupt(format!(
                "column '{name}' has {len} entries for edge count {ne}"
            )));
        }
    }

    let mut kinds = Vec::with_capacity(ne.min(1 << 24));
    let mut recount = [0usize; 3];
    for i in 0..ne {
        let k = match (kind_codes[i], phases[i]) {
            (0, ph) => EdgeKind::Supercluster { phase: ph },
            (1, ph) => EdgeKind::Interconnect { phase: ph },
            (2, 0) => EdgeKind::Star,
            (2, ph) => return Err(corrupt(format!("star edge {i} has nonzero phase {ph}"))),
            (c, _) => return Err(corrupt(format!("edge {i} has unknown kind code {c}"))),
        };
        recount[kind_codes[i] as usize] += 1;
        kinds.push(k);
        if !(ws[i].is_finite() && ws[i] > 0.0) {
            return Err(corrupt(format!("edge {i} has invalid weight {}", ws[i])));
        }
        if i > 0 && scales[i] < scales[i - 1] {
            return Err(corrupt(format!("scale column decreases at edge {i}")));
        }
        match path_ids[i] {
            Hopset::NO_PATH => {}
            pid if (pid as usize) < np => {}
            pid => {
                return Err(corrupt(format!(
                    "edge {i} references missing path {pid} (path count {np})"
                )))
            }
        }
    }
    if recount != tally {
        return Err(corrupt(format!(
            "kind tally {tally:?} does not match recount {recount:?}"
        )));
    }

    // The offset table must be exactly what re-scanning the scale column
    // produces: (scale, first index) per distinct scale, both ascending.
    if sstr.len() % 2 != 0 {
        return Err(corrupt("scale_starts section has odd length"));
    }
    let scale_starts: Vec<(u32, u32)> = sstr.chunks_exact(2).map(|c| (c[0], c[1])).collect();
    let mut expected: Vec<(u32, u32)> = Vec::new();
    for (i, &s) in scales.iter().enumerate() {
        if expected.last().map(|&(ls, _)| ls) != Some(s) {
            expected.push((s, i as u32));
        }
    }
    if scale_starts != expected {
        return Err(corrupt(
            "scale_starts table does not match the scale column",
        ));
    }

    // A record of L links takes 8 + 16·L bytes, so neither count may
    // exceed what the declared `prec` bytes hold: checked before anything
    // is reserved for it.
    let mut left = cr
        .sections()
        .iter()
        .find(|s| s.tag == *b"prec")
        .map_or(0, SectionDecl::byte_len);
    if np as u64 > left / 8 {
        return Err(corrupt(format!(
            "path count {np} exceeds what {left} record bytes hold"
        )));
    }
    let paths = cr.raw(*b"prec", |r| {
        let mut paths = Vec::with_capacity(np.min(1 << 22));
        for pi in 0..np {
            let links_len = read_u32(r, "prec")? as usize;
            left = left.saturating_sub(4);
            if links_len as u64 > left / 16 {
                return Err(corrupt(format!(
                    "path {pi} declares {links_len} links but {left} record bytes remain"
                )));
            }
            left = left.saturating_sub(4 + 16 * links_len as u64);
            let mut verts = Vec::with_capacity((links_len + 1).min(1 << 22));
            for _ in 0..=links_len {
                verts.push(read_u32(r, "prec")?);
            }
            let mut links = Vec::with_capacity(links_len.min(1 << 22));
            for _ in 0..links_len {
                let tag = read_u32(r, "prec")?;
                let lw = read_f64(r, "prec")?;
                let link = match tag {
                    LINK_BASE => MemEdge::Base,
                    idx if (idx as usize) < ne => MemEdge::Hop(idx),
                    idx => {
                        return Err(corrupt(format!(
                            "path {pi} hop link h{idx} out of range (edge count {ne})"
                        )))
                    }
                };
                if !(lw.is_finite() && lw >= 0.0) {
                    return Err(corrupt(format!("path {pi} has invalid link weight {lw}")));
                }
                links.push((link, lw));
            }
            paths.push(MemoryPath { verts, links });
        }
        Ok(paths)
    })?;

    Ok(Hopset::from_columns(
        us,
        vs,
        ws,
        scales,
        kinds,
        path_ids,
        scale_starts,
        recount,
        paths,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_scale::{build_hopset_on, BuildOptions};
    use crate::params::{HopsetParams, ParamMode};
    use crate::store::HopsetEdge;
    use crate::test_exec;
    use pgraph::gen;

    fn sample_hopset(record_paths: bool) -> Hopset {
        let g = gen::clique_chain(4, 6, 2.0);
        let p = HopsetParams::new(
            g.num_vertices(),
            0.25,
            4,
            0.3,
            ParamMode::Practical,
            g.aspect_ratio_bound(),
            None,
        )
        .unwrap();
        build_hopset_on(&test_exec(), &g, &p, BuildOptions { record_paths }).hopset
    }

    fn roundtrip(h: &Hopset) -> Hopset {
        let mut buf = Vec::new();
        write_hopset_snapshot(h, &mut buf).unwrap();
        assert_eq!(buf.len() as u64, hopset_snapshot_size(h));
        read_hopset_snapshot(buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        for record_paths in [false, true] {
            let h = sample_hopset(record_paths);
            assert!(!h.is_empty());
            let h2 = roundtrip(&h);
            assert_eq!(h.len(), h2.len());
            assert_eq!(h.us(), h2.us());
            assert_eq!(h.vs(), h2.vs());
            assert_eq!(h.scales(), h2.scales());
            assert_eq!(h.kinds(), h2.kinds());
            assert_eq!(h.path_ids(), h2.path_ids());
            assert_eq!(h.scale_starts(), h2.scale_starts());
            assert_eq!(h.kind_counts(), h2.kind_counts());
            for (a, b) in h.ws().iter().zip(h2.ws()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(h.paths, h2.paths);
            assert_eq!(h.all_paths_recorded(), h2.all_paths_recorded());
        }
    }

    #[test]
    fn empty_roundtrip() {
        let h2 = roundtrip(&Hopset::new());
        assert!(h2.is_empty());
        assert!(h2.paths.is_empty());
    }

    /// The params every version starts with: ne, np, tally[3].
    fn v1_params(h: &Hopset) -> ParamsBuf {
        let (ts, ti, tt) = h.kind_counts();
        let mut params = ParamsBuf::new();
        params
            .u64(h.len() as u64)
            .u64(h.paths.len() as u64)
            .u64(ts as u64)
            .u64(ti as u64)
            .u64(tt as u64);
        params
    }

    /// Write every column after `wgts` of a hopset without memory paths,
    /// the way the writer does, with `scales` as the scale column.
    fn write_tail_columns(cw: &mut ContainerWriter<'_, Vec<u8>>, h: &Hopset, scales: &[u32]) {
        assert!(h.paths.is_empty());
        cw.col_u32(*b"scal", scales).unwrap();
        let (kinds, phases): (Vec<u8>, Vec<u8>) = h.kinds().iter().map(|&k| kind_code(k)).unzip();
        cw.col_u8(*b"kind", &kinds).unwrap();
        cw.col_u8(*b"phas", &phases).unwrap();
        cw.col_u32(*b"path", h.path_ids()).unwrap();
        let sstr: Vec<u32> = h
            .scale_starts()
            .iter()
            .flat_map(|&(s, st)| [s, st])
            .collect();
        cw.col_u32(*b"sstr", &sstr).unwrap();
        cw.raw(*b"prec", |_| Ok(())).unwrap(); // no paths recorded
    }

    #[test]
    fn rejects_a_v2_header_declaring_quantized_weights() {
        // A v2 file whose header declares 4-byte weights, encoded as
        // `round(w / scale)`: every column is well-formed, but the reader
        // must refuse the width before reading any of them.
        let h = sample_hopset(false);
        let scale = 1.0 / 1024.0;
        let mut params = v1_params(&h);
        params.u8(4).f64(scale);
        let mut decl = sections(&h);
        decl[2].elem_size = 4;
        let mut buf = Vec::new();
        let mut cw =
            ContainerWriter::begin(&mut buf, &HOPSET_MAGIC, params.as_slice(), decl).unwrap();
        cw.col_u32(*b"us  ", h.us()).unwrap();
        cw.col_u32(*b"vs  ", h.vs()).unwrap();
        let q: Vec<u32> = h.ws().iter().map(|&w| (w / scale).round() as u32).collect();
        cw.col_u32(*b"wgts", &q).unwrap();
        write_tail_columns(&mut cw, &h, h.scales());
        cw.finish().unwrap();
        match read_hopset_snapshot(buf.as_slice()) {
            Err(SnapshotError::Corrupt { what }) => assert!(what.contains("4-byte"), "{what}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn rejects_a_decreasing_scale_column() {
        // `Hopset::push` requires non-decreasing scales; a file whose scale
        // column decreases must be a typed error, not a panic in the store.
        let mut h = Hopset::new();
        for (u, scale) in [(0, 3), (1, 5)] {
            h.push(HopsetEdge {
                u,
                v: u + 1,
                w: 2.0,
                scale,
                kind: EdgeKind::Star,
                path: None,
            });
        }
        let mut params = v1_params(&h);
        params.u8(8).f64(0.0);
        let mut buf = Vec::new();
        let mut cw =
            ContainerWriter::begin(&mut buf, &HOPSET_MAGIC, params.as_slice(), sections(&h))
                .unwrap();
        cw.col_u32(*b"us  ", h.us()).unwrap();
        cw.col_u32(*b"vs  ", h.vs()).unwrap();
        cw.col_f64(*b"wgts", h.ws()).unwrap();
        write_tail_columns(&mut cw, &h, &[5, 3]);
        cw.finish().unwrap();
        match read_hopset_snapshot(buf.as_slice()) {
            Err(SnapshotError::Corrupt { what }) => {
                assert!(what.contains("scale column decreases"), "{what}")
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn v1_hopset_snapshots_still_load() {
        // A genuine version-1 file: 40-byte params, f64 weights.
        let h = sample_hopset(false);
        let params = v1_params(&h);
        let mut buf = Vec::new();
        let mut cw = ContainerWriter::begin_with_version(
            &mut buf,
            &HOPSET_MAGIC,
            1,
            params.as_slice(),
            sections(&h),
        )
        .unwrap();
        cw.col_u32(*b"us  ", h.us()).unwrap();
        cw.col_u32(*b"vs  ", h.vs()).unwrap();
        cw.col_f64(*b"wgts", h.ws()).unwrap();
        write_tail_columns(&mut cw, &h, h.scales());
        cw.finish().unwrap();

        let h2 = read_hopset_snapshot(buf.as_slice()).unwrap();
        assert_eq!(h.us(), h2.us());
        assert_eq!(h.scale_starts(), h2.scale_starts());
        for (a, b) in h.ws().iter().zip(h2.ws()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rejects_out_of_range_hop_link() {
        // A path link naming a hopset edge index past the edge count must
        // be a typed error.
        let mut h = Hopset::new();
        let pid = h.push_path(MemoryPath {
            verts: vec![0, 1],
            links: vec![(MemEdge::Hop(999), 1.0)],
        });
        h.push(HopsetEdge {
            u: 0,
            v: 1,
            w: 2.0,
            scale: 3,
            kind: EdgeKind::Interconnect { phase: 0 },
            path: Some(pid),
        });
        let mut buf = Vec::new();
        write_hopset_snapshot(&h, &mut buf).unwrap();
        let err = read_hopset_snapshot(buf.as_slice()).unwrap_err();
        match err {
            SnapshotError::Corrupt { what } => {
                assert!(
                    what.contains("h999") && what.contains("out of range"),
                    "got: {what}"
                );
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_magic_and_version_and_checksum() {
        let h = sample_hopset(false);
        let mut buf = Vec::new();
        write_hopset_snapshot(&h, &mut buf).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'Z';
        assert!(matches!(
            read_hopset_snapshot(bad.as_slice()),
            Err(SnapshotError::BadMagic { .. })
        ));

        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            read_hopset_snapshot(bad.as_slice()),
            Err(SnapshotError::UnsupportedVersion { found: 7, .. })
        ));

        let mut bad = buf.clone();
        bad[24] ^= 0x80;
        assert!(matches!(
            read_hopset_snapshot(bad.as_slice()),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            read_hopset_snapshot(&buf[..buf.len() - 5]),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_dangling_path_id() {
        let mut h = Hopset::new();
        h.push(HopsetEdge {
            u: 0,
            v: 1,
            w: 2.0,
            scale: 3,
            kind: EdgeKind::Star,
            path: Some(5), // no such path
        });
        let mut buf = Vec::new();
        write_hopset_snapshot(&h, &mut buf).unwrap();
        assert!(matches!(
            read_hopset_snapshot(buf.as_slice()),
            Err(SnapshotError::Corrupt { .. })
        ));
    }
}
