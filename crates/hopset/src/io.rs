//! Hopset serialization — build once, query everywhere.
//!
//! A production deployment precomputes the hopset (the expensive part) and
//! ships it alongside the graph; queries are then a β-round Bellman–Ford.
//! The format is line-oriented text like `pgraph::io` (diffable,
//! dependency-free):
//!
//! ```text
//! H <num_edges> <num_paths>
//! e <u> <v> <w> <scale> <kind> <phase> <path|->   # kind: S|I|T(star)
//! p <len> <v0> <link0> <w0> <v1> ...              # link: B | h<edge-idx>
//! ```

use crate::path::{MemEdge, MemoryPath};
use crate::store::{EdgeKind, Hopset, HopsetEdge};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

// Format invariant: edge records appear grouped by non-decreasing scale —
// exactly the order the scale-indexed store pushes (and writes) them.
// `read_hopset` rejects files violating it rather than panicking in `push`.

/// Errors raised while parsing the hopset format.
#[derive(Debug)]
pub enum HopsetIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem, with 1-based line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
}

impl std::fmt::Display for HopsetIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HopsetIoError::Io(e) => write!(f, "io error: {e}"),
            HopsetIoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for HopsetIoError {}

impl From<std::io::Error> for HopsetIoError {
    fn from(e: std::io::Error) -> Self {
        HopsetIoError::Io(e)
    }
}

/// Serialize a hopset. Weights use `{:e}` round-trippable formatting.
pub fn write_hopset(h: &Hopset, w: impl Write) -> Result<(), HopsetIoError> {
    let mut out = BufWriter::new(w);
    writeln!(out, "H {} {}", h.len(), h.paths.len())?;
    for e in h.iter() {
        let kind = match e.kind {
            EdgeKind::Supercluster { phase } => format!("S {phase}"),
            EdgeKind::Interconnect { phase } => format!("I {phase}"),
            EdgeKind::Star => "T 0".to_string(),
        };
        let path = match e.path {
            Some(p) => p.to_string(),
            None => "-".to_string(),
        };
        writeln!(
            out,
            "e {} {} {:e} {} {} {}",
            e.u, e.v, e.w, e.scale, kind, path
        )?;
    }
    for p in &h.paths {
        write!(out, "p {}", p.links.len())?;
        write!(out, " {}", p.verts[0])?;
        for (i, &(link, lw)) in p.links.iter().enumerate() {
            match link {
                MemEdge::Base => write!(out, " B")?,
                MemEdge::Hop(j) => write!(out, " h{j}")?,
            }
            write!(out, " {:e} {}", lw, p.verts[i + 1])?;
        }
        writeln!(out)?;
    }
    out.flush()?;
    Ok(())
}

/// Deserialize a hopset.
pub fn read_hopset(r: impl Read) -> Result<Hopset, HopsetIoError> {
    let mut reader = BufReader::new(r);
    let mut line = String::new();
    let mut lineno = 0usize;
    let perr = |line: usize, msg: &str| HopsetIoError::Parse {
        line,
        msg: msg.to_string(),
    };

    // Header.
    reader.read_line(&mut line)?;
    lineno += 1;
    let mut it = line.split_whitespace();
    if it.next() != Some("H") {
        return Err(perr(lineno, "missing 'H' header"));
    }
    let ne: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| perr(lineno, "bad edge count"))?;
    let np: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| perr(lineno, "bad path count"))?;

    let mut h = Hopset::new();
    let mut last_scale: Option<u32> = None;
    for _ in 0..ne {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(perr(lineno, "unexpected EOF in edges"));
        }
        lineno += 1;
        let mut it = line.split_whitespace();
        if it.next() != Some("e") {
            return Err(perr(lineno, "expected 'e' record"));
        }
        let mut next = |name: &str| -> Result<String, HopsetIoError> {
            it.next()
                .map(str::to_string)
                .ok_or_else(|| perr(lineno, &format!("missing {name}")))
        };
        let u = next("u")?.parse().map_err(|_| perr(lineno, "bad u"))?;
        let v = next("v")?.parse().map_err(|_| perr(lineno, "bad v"))?;
        let w = next("w")?.parse().map_err(|_| perr(lineno, "bad w"))?;
        let scale = next("scale")?
            .parse()
            .map_err(|_| perr(lineno, "bad scale"))?;
        let kind_tok = next("kind")?;
        let phase: u8 = next("phase")?
            .parse()
            .map_err(|_| perr(lineno, "bad phase"))?;
        let kind = match kind_tok.as_str() {
            "S" => EdgeKind::Supercluster { phase },
            "I" => EdgeKind::Interconnect { phase },
            "T" => EdgeKind::Star,
            other => return Err(perr(lineno, &format!("unknown kind '{other}'"))),
        };
        let path_tok = next("path")?;
        let path = if path_tok == "-" {
            None
        } else {
            Some(path_tok.parse().map_err(|_| perr(lineno, "bad path id"))?)
        };
        if last_scale.is_some_and(|s| scale < s) {
            return Err(perr(lineno, "edges must be grouped by ascending scale"));
        }
        last_scale = Some(scale);
        h.push(HopsetEdge {
            u,
            v,
            w,
            scale,
            kind,
            path,
        });
    }
    for _ in 0..np {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(perr(lineno, "unexpected EOF in paths"));
        }
        lineno += 1;
        let mut it = line.split_whitespace();
        if it.next() != Some("p") {
            return Err(perr(lineno, "expected 'p' record"));
        }
        let len: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| perr(lineno, "bad path length"))?;
        let v0 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| perr(lineno, "bad start vertex"))?;
        let mut mp = MemoryPath::trivial(v0);
        for _ in 0..len {
            let link_tok = it.next().ok_or_else(|| perr(lineno, "missing link"))?;
            let link = if link_tok == "B" {
                MemEdge::Base
            } else if let Some(idx) = link_tok.strip_prefix('h') {
                let idx: u32 = idx.parse().map_err(|_| perr(lineno, "bad hop index"))?;
                // A hop link recurses into another hopset edge's memory
                // path; an index past the declared edge count would panic
                // (or silently mis-resolve) at unfold time.
                if idx as usize >= ne {
                    return Err(perr(
                        lineno,
                        &format!("hop link h{idx} out of range (edge count {ne})"),
                    ));
                }
                MemEdge::Hop(idx)
            } else {
                return Err(perr(lineno, "unknown link kind"));
            };
            let lw: f64 = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| perr(lineno, "bad link weight"))?;
            let to = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| perr(lineno, "bad link target"))?;
            mp.verts.push(to);
            mp.links.push((link, lw));
        }
        h.push_path(mp);
    }
    // Referential integrity.
    for (i, e) in h.iter().enumerate() {
        if let Some(p) = e.path {
            if p as usize >= h.paths.len() {
                return Err(perr(
                    lineno,
                    &format!("edge {i} references missing path {p}"),
                ));
            }
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_scale::{build_hopset_on, BuildOptions};
    use crate::params::{HopsetParams, ParamMode};
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
        write_hopset(h, &mut buf).unwrap();
        read_hopset(buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_without_paths() {
        let h = sample_hopset(false);
        assert!(!h.is_empty());
        let h2 = roundtrip(&h);
        assert_eq!(h.len(), h2.len());
        for (a, b) in h.iter().zip(h2.iter()) {
            assert_eq!(
                (a.u, a.v, a.scale, a.kind, a.path),
                (b.u, b.v, b.scale, b.kind, b.path)
            );
            assert_eq!(
                a.w.to_bits(),
                b.w.to_bits(),
                "weights must round-trip exactly"
            );
        }
    }

    #[test]
    fn roundtrip_with_paths() {
        let h = sample_hopset(true);
        let h2 = roundtrip(&h);
        assert_eq!(h.paths.len(), h2.paths.len());
        for (a, b) in h.paths.iter().zip(&h2.paths) {
            assert_eq!(a.verts, b.verts);
            assert_eq!(a.links.len(), b.links.len());
            for (x, y) in a.links.iter().zip(&b.links) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
    }

    #[test]
    fn loaded_hopset_answers_queries_identically() {
        let g = gen::clique_chain(4, 6, 2.0);
        let h = sample_hopset(false);
        let h2 = roundtrip(&h);
        let v1 = pgraph::UnionView::with_extra(&g, &h.all_slice().to_overlay_vec());
        let v2 = pgraph::UnionView::with_extra(&g, &h2.all_slice().to_overlay_vec());
        let d1 = pgraph::exact::bellman_ford_hops(&v1, &[0], 24);
        let d2 = pgraph::exact::bellman_ford_hops(&v2, &[0], 24);
        assert_eq!(d1, d2);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(matches!(
            read_hopset("X 1 0\n".as_bytes()),
            Err(HopsetIoError::Parse { .. })
        ));
        assert!(matches!(
            read_hopset("H 1 0\n".as_bytes()), // missing edge line
            Err(HopsetIoError::Parse { .. })
        ));
        assert!(matches!(
            read_hopset("H 1 0\ne 0 1 notaweight 3 I 0 -\n".as_bytes()),
            Err(HopsetIoError::Parse { .. })
        ));
        // Dangling path reference.
        assert!(matches!(
            read_hopset("H 1 0\ne 0 1 2e0 3 I 0 5\n".as_bytes()),
            Err(HopsetIoError::Parse { .. })
        ));
        // Scale grouping violated: a typed error, not a store panic.
        assert!(matches!(
            read_hopset("H 2 0\ne 0 1 2e0 5 I 0 -\ne 1 2 2e0 3 I 0 -\n".as_bytes()),
            Err(HopsetIoError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_hop_link() {
        // Regression: the `h<edge-idx>` parse never bounds-checked the
        // index against the edge count, so `h7` in a 1-edge hopset loaded
        // fine and blew up (or mis-resolved) at path unfold time.
        let err = read_hopset("H 1 1\ne 0 1 2e0 3 I 0 0\np 1 0 h7 1e0 1\n".as_bytes()).unwrap_err();
        match err {
            HopsetIoError::Parse { line, msg } => {
                assert_eq!(line, 3, "error must point at the offending 'p' line");
                assert!(
                    msg.contains("h7") && msg.contains("out of range"),
                    "got: {msg}"
                );
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        // In-range hop links still load.
        let h = read_hopset("H 1 1\ne 0 1 2e0 3 I 0 0\np 1 0 h0 1e0 1\n".as_bytes()).unwrap();
        assert_eq!(h.paths.len(), 1);
    }

    #[test]
    fn empty_hopset_roundtrip() {
        let h = Hopset::new();
        let h2 = roundtrip(&h);
        assert!(h2.is_empty());
    }
}
