//! Ingestion of external graph files.
//!
//! * [`dimacs`] — the DIMACS shortest-path challenge format (`.gr`);
//! * [`edge_list`] — plain edge lists (`.el` / `.csv`).
//!
//! Both readers stream lines straight into a [`crate::GraphBuilder`] and
//! report every failure as a typed [`IoError`] carrying the 1-based line
//! number. Graphs this workspace produces itself are persisted as binary
//! snapshots ([`crate::snapshot`]), not as text.

pub mod dimacs;
pub mod edge_list;

/// Errors raised while ingesting a graph file.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the text, with 1-based line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The edge list violated graph invariants.
    Graph(crate::csr::GraphError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            IoError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_field<T: std::str::FromStr>(
    tok: Option<&str>,
    line: usize,
    name: &str,
) -> Result<T, IoError> {
    let tok = tok.ok_or_else(|| IoError::Parse {
        line,
        msg: format!("missing field '{name}'"),
    })?;
    tok.parse().map_err(|_| IoError::Parse {
        line,
        msg: format!("bad value '{tok}' for field '{name}'"),
    })
}

#[cfg(test)]
mod tests {
    //! The contract both readers share: comments and blank lines are
    //! skipped, structural problems are `Parse` errors at the offending
    //! line, and graph-invariant violations are `Graph` errors.

    use super::dimacs::read_dimacs;
    use super::edge_list::{read_edge_list, IndexBase};
    use super::*;

    #[test]
    fn comments_and_blank_lines_ok() {
        let text = "c hello\n\np sp 3 2\nc mid\na 1 2 1.5\n\na 2 3 2.5\n";
        let g = read_dimacs(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(1, 2), Some(2.5));
        let text = "# hello\n\n0 1 1.5\n% mid\nc mid\n1 2 2.5\n";
        let g = read_edge_list(text.as_bytes(), IndexBase::Zero).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(1, 2), Some(2.5));
    }

    #[test]
    fn rejects_edge_before_header() {
        let err = read_dimacs("a 1 2 1.0\np sp 2 1\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, msg } => {
                assert_eq!(line, 1);
                assert!(msg.contains("before 'p sp'"), "got: {msg}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_record() {
        let err = read_dimacs("p sp 2 0\nx 1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 2, .. }));
        let err = read_dimacs("p sp 2 0\np sp 2 0\n".as_bytes()).unwrap_err();
        assert!(
            matches!(err, IoError::Parse { line: 2, .. }),
            "duplicate 'p'"
        );
    }

    #[test]
    fn rejects_invalid_graph() {
        let err = read_dimacs("p sp 2 1\na 1 1 1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Graph(_)), "self loop");
        let err = read_edge_list("0 1 inf\n".as_bytes(), IndexBase::Zero).unwrap_err();
        assert!(matches!(err, IoError::Graph(_)), "non-finite weight");
    }

    #[test]
    fn comment_only_input_reports_last_line() {
        let err = read_dimacs("c nothing here\nc still nothing\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("missing 'p sp' line"), "got: {msg}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }
}
