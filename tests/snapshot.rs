//! The persistence contract (DESIGN.md §11): snapshots round-trip
//! bit-identically, and every way a file can lie is a typed error.
//!
//! Four layers are pinned here:
//!
//! 1. **Graph container** — `pgraph::snapshot` round-trips the CSR columns
//!    verbatim across generator families (proptest drives the family and
//!    its parameters).
//! 2. **Oracle container** — `sssp::snapshot` reloads an oracle whose
//!    distances, SPTs, and construction ledger are bit-identical to the
//!    one saved, on both the plain and the weight-reduced pipeline.
//! 3. **Error paths** — corrupted header, truncated section, wrong
//!    version, and out-of-bounds column bytes are rejected with the
//!    matching [`SnapshotError`] variant, never a panic or a silently
//!    wrong graph.
//! 4. **Corruption sweep** — seeded byte flips, truncations and lies
//!    about a section's element count, injected into every section of the
//!    graph, hopset and oracle containers, plus lies in the graph and
//!    hopset params blocks: each case is a typed error or a load, never a
//!    panic, a count of 2^40 over a few real bytes is `Truncated`, not an
//!    allocation, and a path count or record length the hopset's record
//!    bytes cannot hold is `Corrupt` before anything is reserved for it.
//!
//! Plus the ingestion pipeline end to end: DIMACS text in, oracle built,
//! snapshot out, reload, bit-identical answers.

use pgraph::snapshot::{
    fnv1a64, load_graph_snapshot, read_graph_snapshot, save_graph_snapshot, write_graph_snapshot,
    SnapshotError,
};
use pram::pool::threads_from_env;
use pram_sssp::prelude::*;
use proptest::prelude::*;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Round-trip an oracle through an in-memory snapshot buffer.
fn reload(o: &Oracle) -> Oracle {
    let mut buf = Vec::new();
    o.write_snapshot(&mut buf).expect("write snapshot");
    assert_eq!(
        buf.len() as u64,
        o.snapshot_size(),
        "size is declared exactly"
    );
    OracleBuilder::from_snapshot_reader(buf.as_slice(), o.executor().clone())
        .expect("read snapshot")
}

/// Distances from `src` must agree to the bit.
fn assert_rows_identical(a: &Oracle, b: &Oracle, src: u32) {
    let da = a.distances_from(src).expect("in range");
    let db = b.distances_from(src).expect("in range");
    assert_eq!(da.len(), db.len());
    for (x, y) in da.iter().zip(&db) {
        assert_eq!(x.to_bits(), y.to_bits(), "row {src} diverged");
    }
}

/// One graph from a proptest-driven family: gnm, road grid, or geometric
/// (the shimmed proptest has no `prop_oneof`, so the family is an integer).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (0usize..3, 16usize..64, 1usize..4, any::<u64>()).prop_map(|(fam, n, d, s)| match fam {
        0 => gen::gnm_connected(n, n * d, s, 1.0, 10.0),
        1 => gen::road_grid(4 + n % 6, 4 + d + n % 5, s, 1.0, 8.0),
        _ => gen::geometric(n, 0.4, s),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Layer 1: the graph container restores every CSR column verbatim
    /// (weights compared as bit patterns — no float laundering).
    #[test]
    fn graph_snapshot_roundtrips_all_families(g in arb_graph()) {
        let mut buf = Vec::new();
        write_graph_snapshot(&g, &mut buf).expect("write");
        let g2 = read_graph_snapshot(buf.as_slice()).expect("read");
        prop_assert_eq!(g.num_vertices(), g2.num_vertices());
        prop_assert_eq!(g.num_edges(), g2.num_edges());
        prop_assert_eq!(g.offsets(), g2.offsets());
        prop_assert_eq!(g.neighbor_column(), g2.neighbor_column());
        let wa: Vec<u64> = g.weight_column().iter().map(|w| w.to_bits()).collect();
        let wb: Vec<u64> = g2.weight_column().iter().map(|w| w.to_bits()).collect();
        prop_assert_eq!(wa, wb);
    }

    /// Layer 2, plain pipeline: distances and the construction ledger
    /// survive the round trip bit-for-bit.
    #[test]
    fn plain_oracle_roundtrips(g in arb_graph(), src_sel in 0usize..8) {
        let n = g.num_vertices();
        let oracle = Oracle::builder(g)
            .eps(0.25)
            .kappa(4)
            .pipeline(Pipeline::Plain)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let loaded = reload(&oracle);
        prop_assert_eq!(loaded.pipeline(), Pipeline::Plain);
        prop_assert_eq!(oracle.query_hops(), loaded.query_hops());
        prop_assert_eq!(oracle.hopset_size(), loaded.hopset_size());
        prop_assert_eq!(oracle.cost(), loaded.cost());
        assert_rows_identical(&oracle, &loaded, ((src_sel * n) / 8) as u32);
    }

    /// Layer 2, weight-reduced pipeline: same contract, no aspect-ratio
    /// assumption.
    #[test]
    fn reduced_oracle_roundtrips(g in arb_graph()) {
        let oracle = Oracle::builder(g)
            .eps(0.5)
            .kappa(4)
            .pipeline(Pipeline::Reduced)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let loaded = reload(&oracle);
        prop_assert_eq!(loaded.pipeline(), Pipeline::Reduced);
        prop_assert_eq!(oracle.cost(), loaded.cost());
        assert_rows_identical(&oracle, &loaded, 0);
    }

    /// Layer 2 with memory paths: the loaded oracle extracts the same SPT.
    #[test]
    fn spt_survives_roundtrip(g in arb_graph()) {
        let oracle = Oracle::builder(g)
            .eps(0.3)
            .kappa(4)
            .paths(true)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let loaded = reload(&oracle);
        assert!(loaded.has_paths());
        let a = oracle.spt(0).unwrap();
        let b = loaded.spt(0).unwrap();
        prop_assert_eq!(a.parent, b.parent);
        let da: Vec<u64> = a.dist.iter().map(|w| w.to_bits()).collect();
        let db: Vec<u64> = b.dist.iter().map(|w| w.to_bits()).collect();
        prop_assert_eq!(da, db);
    }
}

// ---- Layer 3: every way a file can lie. ------------------------------------

fn graph_bytes() -> Vec<u8> {
    let g = gen::road_grid(5, 5, 3, 1.0, 4.0);
    let mut buf = Vec::new();
    write_graph_snapshot(&g, &mut buf).expect("write");
    buf
}

#[test]
fn corrupted_header_is_a_checksum_error() {
    let mut buf = graph_bytes();
    buf[24] ^= 0x40; // first header byte, covered by the stored FNV-1a-64
    assert!(matches!(
        read_graph_snapshot(buf.as_slice()),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
}

#[test]
fn wrong_version_is_typed() {
    let mut buf = graph_bytes();
    buf[8..12].copy_from_slice(&7u32.to_le_bytes());
    match read_graph_snapshot(buf.as_slice()) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 7);
            assert_eq!(supported, pgraph::snapshot::FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn truncated_section_is_typed() {
    let buf = graph_bytes();
    for cut in [10, 30, buf.len() / 2, buf.len() - 5] {
        assert!(
            matches!(
                read_graph_snapshot(&buf[..cut]),
                Err(SnapshotError::Truncated { .. })
            ),
            "cut at {cut} must be a Truncated error"
        );
    }
}

#[test]
fn out_of_bounds_column_is_corrupt() {
    let mut buf = graph_bytes();
    // Section data starts right after the checksummed header; the first
    // section is the (n+1)-entry u64 offset column, then neighbors.
    let header_len = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
    let data = 24 + header_len;
    let n = 25usize;
    let neig0 = data + (n + 1) * 8;
    buf[neig0..neig0 + 4].copy_from_slice(&(n as u32).to_le_bytes()); // vertex id == n
    assert!(matches!(
        read_graph_snapshot(buf.as_slice()),
        Err(SnapshotError::Corrupt { .. })
    ));
}

#[test]
fn oracle_snapshot_rejects_the_same_lies() {
    let g = gen::road_grid(5, 5, 3, 1.0, 4.0);
    let oracle = Oracle::builder(g)
        .threads(threads_from_env())
        .build()
        .unwrap();
    let mut buf = Vec::new();
    oracle.write_snapshot(&mut buf).unwrap();
    let exec = oracle.executor().clone();

    let mut bad = buf.clone();
    bad[0] = b'X';
    assert!(matches!(
        OracleBuilder::from_snapshot_reader(bad.as_slice(), exec.clone()),
        Err(SnapshotError::BadMagic { .. })
    ));

    let mut bad = buf.clone();
    bad[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        OracleBuilder::from_snapshot_reader(bad.as_slice(), exec.clone()),
        Err(SnapshotError::UnsupportedVersion { found: 99, .. })
    ));

    assert!(matches!(
        OracleBuilder::from_snapshot_reader(&buf[..buf.len() - 9], exec),
        Err(SnapshotError::Truncated { .. })
    ));
}

// ---- Layer 4: a seeded corruption sweep over all three containers. --------

/// SplitMix64: the sweep's source of positions and flip masks.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One section of a container, located in the container's bytes.
struct Section {
    tag: String,
    elem_size: u64,
    count: u64,
    /// Byte offset of the section's descriptor in the header.
    desc: usize,
    /// The section's data bytes.
    data: Range<usize>,
}

fn word<const K: usize>(bytes: &[u8], at: usize) -> [u8; K] {
    bytes[at..at + K].try_into().unwrap()
}

/// Parse the section table of a container (layout in `pgraph::snapshot`).
fn sections(bytes: &[u8]) -> Vec<Section> {
    let hlen = u32::from_le_bytes(word(bytes, 12)) as usize;
    let plen = u32::from_le_bytes(word(bytes, 24)) as usize;
    let mut desc = 24 + 4 + plen;
    let nsec = u32::from_le_bytes(word(bytes, desc));
    desc += 4;
    let data = 24 + hlen;
    (0..nsec)
        .map(|_| {
            let elem_size = u64::from(u32::from_le_bytes(word(bytes, desc + 4)));
            let count = u64::from_le_bytes(word(bytes, desc + 8));
            let start = data + u64::from_le_bytes(word(bytes, desc + 16)) as usize;
            let s = Section {
                tag: String::from_utf8_lossy(&bytes[desc..desc + 4]).into_owned(),
                elem_size,
                count,
                desc,
                data: start..start + (elem_size * count) as usize,
            };
            desc += 24;
            s
        })
        .collect()
}

/// `bytes` with section `k` declaring `count` elements. The offsets of
/// the later sections move with it and the header checksum is
/// recomputed, so the lie gets past the header to the section reader.
fn with_count(bytes: &[u8], k: usize, count: u64) -> Vec<u8> {
    let secs = sections(bytes);
    let mut out = bytes.to_vec();
    out[secs[k].desc + 8..secs[k].desc + 16].copy_from_slice(&count.to_le_bytes());
    let mut offset = u64::from_le_bytes(word(bytes, secs[k].desc + 16))
        .wrapping_add(secs[k].elem_size.wrapping_mul(count));
    for s in &secs[k + 1..] {
        out[s.desc + 16..s.desc + 24].copy_from_slice(&offset.to_le_bytes());
        offset = offset.wrapping_add(s.elem_size * s.count);
    }
    reseal(&mut out);
    out
}

/// Recompute the header checksum of a container whose header was edited.
fn reseal(bytes: &mut [u8]) {
    let hlen = u32::from_le_bytes(word(bytes, 12)) as usize;
    let sum = fnv1a64(&bytes[24..24 + hlen]);
    bytes[16..24].copy_from_slice(&sum.to_le_bytes());
}

/// The u64 at byte `at` of a container's params block, which starts
/// after the 24-byte prelude and the params length.
fn param(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(word(bytes, 28 + at))
}

/// `bytes` with the params u64 at `at` set to `value` and the checksum
/// recomputed, so the lie gets past the header to the loader.
fn with_param(bytes: &[u8], at: usize, value: u64) -> Vec<u8> {
    with_param_bytes(bytes, at, &value.to_le_bytes())
}

/// [`with_param`] for a field of any width, given as little-endian bytes.
fn with_param_bytes(bytes: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[28 + at..28 + at + value.len()].copy_from_slice(value);
    reseal(&mut out);
    out
}

/// Sweep every section of one container: seeded byte flips inside its
/// data, truncations inside it, and lies about its element count. Every
/// case must return a typed error or load; a panic fails the test with
/// the case named. A cut file is always `Truncated`, and so is a typed
/// column declaring 2^40 elements (`raw` names the sections that embed
/// a container or a record stream rather than a column). Returns the
/// number of cases run.
fn sweep(
    name: &str,
    bytes: &[u8],
    raw: &[&str],
    load: impl Fn(&[u8]) -> Result<(), SnapshotError>,
) -> usize {
    let mut rng = SplitMix64(fnv1a64(name.as_bytes()));
    let mut cases = 0;
    let mut run = |case: &str, b: &[u8]| {
        cases += 1;
        catch_unwind(AssertUnwindSafe(|| load(b)))
            .unwrap_or_else(|_| panic!("{name}: {case} panicked"))
    };
    assert!(run("the intact file", bytes).is_ok());
    for (k, s) in sections(bytes).iter().enumerate() {
        let tag = &s.tag;
        for _ in 0..if s.data.is_empty() { 0 } else { 24 } {
            let at = s.data.start + rng.below(s.data.len());
            let mut b = bytes.to_vec();
            b[at] ^= 1 + rng.below(255) as u8;
            let _ = run(&format!("a flip at byte {at} of '{tag}'"), &b);
        }
        let inside = (0..4).map(|_| s.data.start + rng.below(s.data.len()));
        for cut in [s.data.start, s.data.end.saturating_sub(1)]
            .into_iter()
            .chain(inside)
            .filter(|&cut| cut < bytes.len())
        {
            let case = format!("a cut at byte {cut} of '{tag}'");
            match run(&case, &bytes[..cut]) {
                Err(SnapshotError::Truncated { .. }) => {}
                other => panic!("{name}: {case} gave {:?}", other.err()),
            }
        }
        let lies = [
            s.count + 1,
            s.count.saturating_sub(1),
            0,
            2 * s.count + 7,
            1 << 40,
            u64::MAX / 3,
        ];
        for count in lies.into_iter().filter(|&c| c != s.count) {
            let case = format!("'{tag}' declaring {count} elements");
            let r = run(&case, &with_count(bytes, k, count));
            if count == 1 << 40 && !raw.contains(&tag.as_str()) {
                assert!(
                    matches!(r, Err(SnapshotError::Truncated { .. })),
                    "{name}: {case} gave {:?}",
                    r.err()
                );
            }
        }
    }
    cases
}

/// The swept oracle. A binding hop cap skips the distance-range
/// certificate, so the oracle keeps a hopset, and `paths` gives it
/// memory-path records: every section of all three containers holds
/// data.
fn swept_oracle() -> Oracle {
    let oracle = Oracle::builder(gen::road_grid(8, 8, 3, 1.0, 4.0))
        .eps(0.25)
        .kappa(4)
        .hop_cap(8)
        .paths(true)
        .threads(threads_from_env())
        .build()
        .unwrap();
    assert!(oracle.hopset_size() > 0);
    oracle
}

/// The data of the container that section `tag` of `bytes` embeds.
fn nested(bytes: &[u8], tag: &str) -> Vec<u8> {
    let s = sections(bytes)
        .into_iter()
        .find(|s| s.tag == tag)
        .expect("nested container");
    bytes[s.data].to_vec()
}

fn load_hopset(b: &[u8]) -> Result<(), SnapshotError> {
    hopset::snapshot::read_hopset_snapshot(b).map(|_| ())
}

#[test]
fn corruption_sweep_over_every_section_is_typed() {
    let oracle = swept_oracle();
    let mut bytes = Vec::new();
    oracle.write_snapshot(&mut bytes).unwrap();
    let exec = oracle.executor().clone();
    let cases = sweep("graph", &nested(&bytes, "grph"), &[], |b| {
        read_graph_snapshot(b).map(|_| ())
    }) + sweep("hopset", &nested(&bytes, "hops"), &["prec"], load_hopset)
        + sweep("oracle", &bytes, &["grph", "hops"], |b| {
            OracleBuilder::from_snapshot_reader(b, exec.clone()).map(|_| ())
        });
    // 3 + 9 + 2 sections, each with flips, cuts and count lies.
    assert!(cases > 400, "{cases} cases");
}

/// Lies in the params blocks: the graph's `n` and `m`, the hopset's edge
/// count `ne`, path count `np` and kind tally, the link count `L` that
/// opens the first memory-path record, and the oracle's `eps`, `kappa`,
/// `query_hops`, scale range and stored `HopsetParams` fields `n`, `ell`
/// and `beta`. Each case is a typed error or a load, never a panic. A
/// path count or an `L` that the `prec` bytes cannot hold is `Corrupt`,
/// found before the loader reserves anything for it, and so is a
/// `params.n` other than the graph's or a `params.ell` that disagrees with
/// the stored degrees.
#[test]
fn params_block_lies_are_typed() {
    let oracle = swept_oracle();
    let mut bytes = Vec::new();
    oracle.write_snapshot(&mut bytes).unwrap();
    let (graph, hops) = (nested(&bytes, "grph"), nested(&bytes, "hops"));
    let run = |case: &str, load: &dyn Fn() -> Result<(), SnapshotError>| {
        catch_unwind(AssertUnwindSafe(load)).unwrap_or_else(|_| panic!("{case} panicked"))
    };
    let lies = |x: u64| {
        [
            x + 1,
            x.saturating_sub(1),
            0,
            2 * x + 7,
            1 << 40,
            u64::MAX / 3,
            u64::MAX,
        ]
    };
    for (field, at) in [("n", 0), ("m", 8)] {
        for v in lies(param(&graph, at)) {
            let b = with_param(&graph, at, v);
            let _ = run(&format!("graph {field} = {v}"), &|| {
                read_graph_snapshot(b.as_slice()).map(|_| ())
            });
        }
    }
    let fields = [
        ("ne", 0),
        ("np", 8),
        ("tally[0]", 16),
        ("tally[1]", 24),
        ("tally[2]", 32),
    ];
    for (field, at) in fields {
        for v in lies(param(&hops, at)) {
            let case = format!("hopset {field} = {v}");
            let b = with_param(&hops, at, v);
            let r = run(&case, &|| load_hopset(&b));
            if field == "np" && v >= 1 << 40 {
                assert!(
                    matches!(r, Err(SnapshotError::Corrupt { .. })),
                    "{case} gave {r:?}"
                );
            }
        }
    }
    let prec = sections(&hops)
        .into_iter()
        .find(|s| s.tag == "prec")
        .expect("record section")
        .data;
    let l = u32::from_le_bytes(word(&hops, prec.start));
    assert!(l > 0, "a memory path has a link");
    for v in [l + 1, l - 1, 0, 2 * l + 7, 1 << 24, u32::MAX] {
        let case = format!("the first record declaring {v} links");
        let mut b = hops.clone();
        b[prec.start..prec.start + 4].copy_from_slice(&v.to_le_bytes());
        let r = run(&case, &|| load_hopset(&b));
        if v >= 1 << 24 {
            assert!(
                matches!(r, Err(SnapshotError::Corrupt { .. })),
                "{case} gave {r:?}"
            );
        }
    }
    // The plain oracle's params block (`sssp::snapshot::encode_params`):
    // eps f64 @0, kappa u64 @8, two flag bytes, query_hops u64 @18, the
    // ledger's three u64s, k0 u32 @50, lambda u32 @54, then HopsetParams
    // from @58: n u64, eps, kappa, rho, two code bytes, log2n u32, i0,
    // ell u64 @104, the degree count u32 @112, the degrees, eps_int,
    // eps_scale and beta.
    let n = oracle.graph().num_vertices() as u64;
    assert_eq!(
        (param(&bytes, 18), param(&bytes, 58)),
        (oracle.query_hops() as u64, n)
    );
    let degrees = u64::from(u32::from_le_bytes(word(&bytes, 28 + 112)));
    assert_eq!(param(&bytes, 104) + 1, degrees, "ell + 1 degrees");
    let beta_at = 116 + 8 * degrees as usize + 16;
    let exec = oracle.executor().clone();
    let load_oracle = |b: &[u8]| OracleBuilder::from_snapshot_reader(b, exec.clone()).map(|_| ());
    let oracle_fields = [
        ("eps", 0),
        ("kappa", 8),
        ("query_hops", 18),
        ("params.n", 58),
        ("params.ell", 104),
        ("params.beta", beta_at),
    ];
    for (field, at) in oracle_fields {
        for v in lies(param(&bytes, at)) {
            let case = format!("oracle {field} = {v}");
            let b = with_param(&bytes, at, v);
            let r = run(&case, &|| load_oracle(&b));
            if field == "params.n" || field == "params.ell" {
                assert!(
                    matches!(r, Err(SnapshotError::Corrupt { .. })),
                    "{case} gave {r:?}"
                );
            }
        }
    }
    for (field, at) in [("k0", 50), ("lambda", 54)] {
        let x = u32::from_le_bytes(word(&bytes, 28 + at));
        for v in [x + 1, x.saturating_sub(1), 0, 2 * x + 7, 1 << 24, u32::MAX] {
            let b = with_param_bytes(&bytes, at, &v.to_le_bytes());
            let _ = run(&format!("oracle {field} = {v}"), &|| load_oracle(&b));
        }
    }
}

// ---- File-backed save/load and the ingestion pipeline. ---------------------

#[test]
fn file_backed_graph_roundtrip() {
    let g = gen::gnm_connected(96, 288, 5, 1.0, 12.0);
    let path = std::env::temp_dir().join("pram-sssp-test-graph-roundtrip.bin");
    save_graph_snapshot(&g, &path).expect("save");
    let g2 = load_graph_snapshot(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    assert_eq!(g.offsets(), g2.offsets());
    assert_eq!(g.neighbor_column(), g2.neighbor_column());
}

#[test]
fn dimacs_to_oracle_to_snapshot_pipeline() {
    // A 3x3 grid written the DIMACS way: every undirected edge as both
    // directed arcs, 1-based ids.
    let mut dimacs = String::from("c 3x3 grid\np sp 9 24\n");
    let idx = |r: usize, c: usize| r * 3 + c + 1;
    for r in 0..3 {
        for c in 0..3 {
            if c + 1 < 3 {
                dimacs.push_str(&format!(
                    "a {} {} 2\na {} {} 2\n",
                    idx(r, c),
                    idx(r, c + 1),
                    idx(r, c + 1),
                    idx(r, c)
                ));
            }
            if r + 1 < 3 {
                dimacs.push_str(&format!(
                    "a {} {} 3\na {} {} 3\n",
                    idx(r, c),
                    idx(r + 1, c),
                    idx(r + 1, c),
                    idx(r, c)
                ));
            }
        }
    }
    let g = pgraph::io::dimacs::read_dimacs(dimacs.as_bytes()).expect("parse");
    assert_eq!(g.num_vertices(), 9);
    assert_eq!(g.num_edges(), 12);

    let oracle = Oracle::builder(g)
        .eps(0.25)
        .kappa(4)
        .threads(threads_from_env())
        .build()
        .unwrap();
    let path = std::env::temp_dir().join("pram-sssp-test-dimacs-oracle.bin");
    oracle.save_snapshot(&path).expect("save");
    let loaded = OracleBuilder::from_snapshot_on(&path, oracle.executor().clone()).expect("load");
    let _ = std::fs::remove_file(&path);

    // Corner-to-corner: two rights (2+2) + two downs (3+3).
    let d = loaded.distance(0, 8).unwrap();
    assert!((d - 10.0).abs() <= 0.25 * 10.0 + 1e-9);
    assert_rows_identical(&oracle, &loaded, 0);
}
