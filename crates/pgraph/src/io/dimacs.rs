//! Ingestion of the standard DIMACS shortest-path challenge format (`.gr`).
//!
//! ```text
//! c comment
//! p sp <n> <m>
//! a <u> <v> <w>     (1-based ids, one directed arc per line)
//! ```
//!
//! Real road-network releases (the 9th DIMACS Implementation Challenge)
//! list each undirected road segment as *two* directed arcs. This parser
//! streams arcs straight into a [`GraphBuilder`] — never materializing a
//! triple list — and the builder's min-weight dedup folds each arc pair
//! into one undirected edge (asymmetric pairs keep the lighter direction,
//! the standard undirected relaxation).

use super::{parse_field, IoError};
use crate::{Graph, GraphBuilder, VId, Weight};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// The most arcs a `p` line may reserve up front: 32 MiB of edge triples,
/// the cap the snapshot readers put on a column's preallocation. Beyond it
/// the builder grows as arcs actually arrive, so a header that lies about
/// its arc count costs at most this much before the count check rejects it.
const MAX_RESERVED_ARCS: usize = (32 << 20) / std::mem::size_of::<(VId, VId, Weight)>();

/// Read a DIMACS `.gr` graph (see module docs). Arc endpoints are 1-based
/// in the file and shifted to this crate's 0-based ids.
pub fn read_dimacs(r: impl Read) -> Result<Graph, IoError> {
    let mut reader = BufReader::new(r);
    let mut builder: Option<GraphBuilder> = None;
    let mut n = 0usize;
    let mut declared_arcs = 0usize;
    let mut seen_arcs = 0usize;
    let mut line_str = String::new();
    let mut lineno = 0usize;
    loop {
        line_str.clear();
        if reader.read_line(&mut line_str)? == 0 {
            break;
        }
        lineno += 1;
        let line = line_str.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut it = line.split_whitespace();
        match it.next() {
            Some("p") => {
                if builder.is_some() {
                    return Err(IoError::Parse {
                        line: lineno,
                        msg: "duplicate 'p' line".into(),
                    });
                }
                match it.next() {
                    Some("sp") => {}
                    other => {
                        return Err(IoError::Parse {
                            line: lineno,
                            msg: format!(
                                "expected 'p sp <n> <m>', found problem kind {:?}",
                                other.unwrap_or("")
                            ),
                        })
                    }
                }
                n = parse_field(it.next(), lineno, "n")?;
                if n > u32::MAX as usize {
                    return Err(IoError::Parse {
                        line: lineno,
                        msg: format!("vertex count {n} exceeds u32 ids"),
                    });
                }
                declared_arcs = parse_field(it.next(), lineno, "m")?;
                // Arc pairs fold, so at most `m` undirected edges result.
                builder = Some(GraphBuilder::with_capacity(
                    n,
                    declared_arcs.min(MAX_RESERVED_ARCS),
                ));
            }
            Some("a") => {
                let b = builder.as_mut().ok_or(IoError::Parse {
                    line: lineno,
                    msg: "'a' before 'p sp' line".into(),
                })?;
                let u: u64 = parse_field(it.next(), lineno, "u")?;
                let v: u64 = parse_field(it.next(), lineno, "v")?;
                let w: Weight = parse_field(it.next(), lineno, "w")?;
                for (name, id) in [("u", u), ("v", v)] {
                    if id == 0 || id > n as u64 {
                        return Err(IoError::Parse {
                            line: lineno,
                            msg: format!("vertex {name} = {id} out of 1..={n}"),
                        });
                    }
                }
                b.add_edge((u - 1) as VId, (v - 1) as VId, w);
                seen_arcs += 1;
            }
            Some(tok) => {
                return Err(IoError::Parse {
                    line: lineno,
                    msg: format!("unknown record '{tok}'"),
                })
            }
            None => unreachable!("non-empty line has a token"),
        }
    }
    let b = builder.ok_or_else(|| IoError::Parse {
        line: lineno.max(1),
        msg: if lineno == 0 {
            "empty input (missing 'p sp' line)".into()
        } else {
            "missing 'p sp' line".into()
        },
    })?;
    if seen_arcs != declared_arcs {
        return Err(IoError::Parse {
            line: lineno.max(1),
            msg: format!("declared {declared_arcs} arcs, found {seen_arcs}"),
        });
    }
    b.build().map_err(IoError::Graph)
}

/// Load a DIMACS `.gr` file from a path.
pub fn load_dimacs(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    read_dimacs(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    // A 4-vertex diamond listed as directed arc pairs, DIMACS style.
    const FIXTURE: &str = "\
c 9th DIMACS-style fixture
p sp 4 8
a 1 2 3
a 2 1 3
a 1 3 5
a 3 1 5
a 2 4 4
a 4 2 4
a 3 4 1
a 4 3 1
";

    #[test]
    fn parses_fixture_and_folds_arc_pairs() {
        let g = read_dimacs(FIXTURE.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4, "8 arcs fold into 4 undirected edges");
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
        assert_eq!(g.edge_weight(2, 3), Some(1.0));
    }

    #[test]
    fn asymmetric_pair_keeps_lighter_direction() {
        let text = "p sp 2 2\na 1 2 7\na 2 1 3\n";
        let g = read_dimacs(text.as_bytes()).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
    }

    #[test]
    fn rejects_zero_based_id() {
        let err = read_dimacs("p sp 2 1\na 0 2 1\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("out of 1..=2"), "got: {msg}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn rejects_id_above_n() {
        let err = read_dimacs("p sp 3 1\na 1 4 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 2, .. }));
    }

    #[test]
    fn rejects_wrong_problem_kind() {
        let err = read_dimacs("p max 3 1\na 1 2 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_arc_count_mismatch() {
        let err = read_dimacs("p sp 2 3\na 1 2 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }));
        // Counts past any capacity, or far past memory (2·10¹¹ arcs would
        // reserve 3.2 TB): the reserve is capped, and the count check
        // rejects the lie.
        for (text, found) in [
            ("p sp 4 1000000000000000000\n", "found 0"),
            ("p sp 4 200000000000\na 1 2 1\n", "found 1"),
        ] {
            match read_dimacs(text.as_bytes()).unwrap_err() {
                IoError::Parse { msg, .. } => assert!(msg.contains(found), "got: {msg}"),
                other => panic!("expected Parse, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_vertex_count_above_u32_ids() {
        let err = read_dimacs("c big\np sp 5000000000 0\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("exceeds u32 ids"), "got: {msg}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_reports_line_one() {
        let err = read_dimacs("".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, msg } => {
                assert_eq!(line, 1);
                assert!(msg.contains("empty input"), "got: {msg}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }
}
