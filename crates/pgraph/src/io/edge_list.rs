//! Ingestion of plain edge-list files (`.el` / `.csv`).
//!
//! The de-facto exchange format of graph repositories (SNAP, network
//! collections, spreadsheet exports): one edge per line,
//!
//! ```text
//! # comment ('%' and 'c' comments are accepted too)
//! u v w          (whitespace- or comma-separated)
//! u,v,w
//! u v            (weight omitted: defaults to 1.0)
//! ```
//!
//! There is no header; the vertex count is inferred as `max id + 1`
//! (after base adjustment). Files in the wild disagree on whether ids
//! start at 0 or 1, so the caller states it explicitly with
//! [`IndexBase`] — guessing silently shifts every id on half of all
//! inputs. Like [`super::dimacs`], lines stream straight into a
//! [`GraphBuilder`] (duplicate edges fold to the minimum weight) and
//! every failure is a typed [`IoError`] carrying the 1-based line
//! number.

use super::{parse_field, IoError};
use crate::Graph;
use crate::{GraphBuilder, VId, Weight};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Whether the file numbers its vertices from 0 or from 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexBase {
    /// Ids are used as-is.
    Zero,
    /// Ids are shifted down by one; an id of 0 is a per-line error.
    One,
}

/// Read an edge list (see module docs). `base` states the file's id
/// numbering; the returned graph is always 0-based.
pub fn read_edge_list(r: impl Read, base: IndexBase) -> Result<Graph, IoError> {
    let mut reader = BufReader::new(r);
    let mut edges: Vec<(VId, VId, Weight)> = Vec::new();
    let mut max_id: u64 = 0;
    let mut line_str = String::new();
    let mut lineno = 0usize;
    loop {
        line_str.clear();
        if reader.read_line(&mut line_str)? == 0 {
            break;
        }
        lineno += 1;
        let line = line_str.trim();
        if line.is_empty()
            || line.starts_with('#')
            || line.starts_with('%')
            || line.starts_with("c ")
            || line == "c"
        {
            continue;
        }
        let mut it = line
            .split(|ch: char| ch == ',' || ch.is_whitespace())
            .filter(|s| !s.is_empty());
        let u: u64 = parse_field(it.next(), lineno, "u")?;
        let v: u64 = parse_field(it.next(), lineno, "v")?;
        let w: Weight = match it.next() {
            Some(tok) => parse_field(Some(tok), lineno, "w")?,
            None => 1.0,
        };
        if let Some(extra) = it.next() {
            return Err(IoError::Parse {
                line: lineno,
                msg: format!("trailing field {extra:?} after 'u v w'"),
            });
        }
        let shift = match base {
            IndexBase::Zero => 0,
            IndexBase::One => 1,
        };
        for (name, id) in [("u", u), ("v", v)] {
            if id < shift {
                return Err(IoError::Parse {
                    line: lineno,
                    msg: format!("vertex {name} = {id} in a 1-based file"),
                });
            }
            // The vertex count is `max id + 1`, which must fit a u32 too.
            if id - shift >= u32::MAX as u64 {
                return Err(IoError::Parse {
                    line: lineno,
                    msg: format!("vertex {name} = {id} exceeds u32 ids"),
                });
            }
        }
        let (u, v) = ((u - shift) as VId, (v - shift) as VId);
        max_id = max_id.max(u as u64).max(v as u64);
        edges.push((u, v, w));
    }
    let n = if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.extend_edges(edges);
    b.build().map_err(IoError::Graph)
}

/// Load an edge-list file from a path.
pub fn load_edge_list(path: impl AsRef<Path>, base: IndexBase) -> Result<Graph, IoError> {
    read_edge_list(std::fs::File::open(path)?, base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_whitespace_el() {
        let text = "# header\n0 1 2.5\n1 2 1.0\n\n% footer\n";
        let g = read_edge_list(text.as_bytes(), IndexBase::Zero).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(2.5));
    }

    #[test]
    fn parses_csv_with_comments() {
        let text = "# u,v,w\n0,1,2.5\n1,2,1.5\n";
        let g = read_edge_list(text.as_bytes(), IndexBase::Zero).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(1, 2), Some(1.5));
    }

    #[test]
    fn one_based_ids_shift_down() {
        let g = read_edge_list("1 2 3.0\n2 3 4.0\n".as_bytes(), IndexBase::One).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
        assert_eq!(g.edge_weight(1, 2), Some(4.0));
    }

    #[test]
    fn zero_id_in_one_based_file_is_per_line_error() {
        let err = read_edge_list("1 2 1.0\n0 2 1.0\n".as_bytes(), IndexBase::One).unwrap_err();
        match err {
            IoError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("1-based"), "got: {msg}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn missing_weight_defaults_to_one() {
        let g = read_edge_list("0 1\n".as_bytes(), IndexBase::Zero).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn bad_field_reports_line_and_name() {
        let err = read_edge_list("0 1 1.0\n0 x 1.0\n".as_bytes(), IndexBase::Zero).unwrap_err();
        match err {
            IoError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains('v'), "got: {msg}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn trailing_field_is_rejected() {
        let err = read_edge_list("0 1 1.0 9\n".as_bytes(), IndexBase::Zero).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }));
    }

    #[test]
    fn duplicate_edges_fold_to_min_and_invariants_are_typed() {
        let g = read_edge_list("0 1 5.0\n1 0 2.0\n".as_bytes(), IndexBase::Zero).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
        let err = read_edge_list("0 0 1.0\n".as_bytes(), IndexBase::Zero).unwrap_err();
        assert!(matches!(err, IoError::Graph(_)));
        let err = read_edge_list("0 1 -2.0\n".as_bytes(), IndexBase::Zero).unwrap_err();
        assert!(matches!(err, IoError::Graph(_)));
    }

    #[test]
    fn rejects_an_id_whose_vertex_count_overflows_u32() {
        for (text, base) in [
            ("0 4294967295 1\n", IndexBase::Zero),
            ("1 4294967296 1\n", IndexBase::One),
        ] {
            match read_edge_list(text.as_bytes(), base).unwrap_err() {
                IoError::Parse { line, msg } => {
                    assert_eq!(line, 1);
                    assert!(msg.contains("exceeds u32 ids"), "got: {msg}");
                }
                other => panic!("expected Parse, got {other:?}"),
            }
        }
        // The largest id that still fits is accepted by the id check (the
        // graph itself is then too big to build here, so stop at parsing).
        let err = read_edge_list("0 4294967294 0\n".as_bytes(), IndexBase::Zero).unwrap_err();
        assert!(matches!(err, IoError::Graph(_)), "got: {err:?}");
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list("# nothing\n".as_bytes(), IndexBase::Zero).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
