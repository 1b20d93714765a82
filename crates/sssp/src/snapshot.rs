//! Oracle snapshots — build once, serve forever.
//!
//! An [`Oracle`] is the expensive artifact of this workspace: the
//! deterministic hopset construction dominates its cost, while queries are
//! a β-round Bellman–Ford. This module makes the built oracle a shippable
//! file: [`Oracle::save_snapshot`] writes one container
//! (magic `PSSORACL`) that embeds the graph and hopset containers of
//! [`pgraph::snapshot`] / [`hopset::snapshot`] as raw sections plus every
//! derived parameter as a params block, and
//! [`OracleBuilder::from_snapshot_on`] loads it back onto a caller-chosen
//! executor without re-running any construction.
//!
//! **Why the loaded oracle is bit-identical** (the determinism contract,
//! DESIGN.md §5/§11): queries consume exactly (a) the `G ∪ H` union CSR —
//! rebuilt here with the same `OverlayCsr::build_columns` call over the
//! same columns `build()` used — (b) the query hop budget, and (c) for SPT
//! extraction, the hopset's memory paths. All three are stored verbatim
//! (f64 weights as bit patterns), so every query on the loaded oracle
//! relaxes the same edges in the same deterministic order as on the
//! original. The full [`HopsetParams`] block is serialized field-by-field
//! rather than recomputed from (ε, κ, ρ) so a future constant change in
//! the derivation can never skew a loaded artifact. Construction-side
//! reports ([`BuiltHopset::scales`] / [`ReducedHopset::levels`]) are
//! diagnostics of the *construction run* and are not persisted — the
//! loaded reports are empty, the ledger totals are restored.

use crate::oracle::{Oracle, OracleBackend, OracleBuilder, Pipeline};
use hopset::multi_scale::BuiltHopset;
use hopset::params::{DeltaSchedule, HopsetParams, ParamMode};
use hopset::reduction::ReducedHopset;
use hopset::snapshot::{hopset_snapshot_size, read_hopset_snapshot, write_hopset_snapshot};
use pgraph::snapshot::{
    container_size, graph_snapshot_size, read_graph_snapshot, write_graph_snapshot,
    ContainerReader, ContainerWriter, ParamsBuf, ParamsReader, SectionDecl,
};
use pgraph::{OverlayCsr, UnionGraph};
use pram::pool::Executor;
use pram::Ledger;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

pub use pgraph::snapshot::SnapshotError;

/// Magic of the [`Oracle`] container.
pub const ORACLE_MAGIC: [u8; 8] = *b"PSSORACL";

fn corrupt(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt { what: what.into() }
}

fn encode_params(p: &mut ParamsBuf, o: &Oracle) {
    let ledger = match &o.backend {
        OracleBackend::Plain(b) => &b.ledger,
        OracleBackend::Reduced(r) => &r.ledger,
    };
    p.f64(o.eps)
        .u64(o.kappa as u64)
        .u8(o.paths as u8)
        .u8(match o.backend {
            OracleBackend::Plain(_) => 0,
            OracleBackend::Reduced(_) => 1,
        })
        .u64(o.query_hops as u64)
        .u64(ledger.work())
        .u64(ledger.depth())
        .u64(ledger.max_width());
    match &o.backend {
        OracleBackend::Plain(b) => {
            p.u32(b.k0).u32(b.lambda);
            let hp = &b.params;
            p.u64(hp.n as u64)
                .f64(hp.eps)
                .u64(hp.kappa as u64)
                .f64(hp.rho)
                .u8(match hp.mode {
                    ParamMode::Theory => 0,
                    ParamMode::Practical => 1,
                })
                .u8(match hp.delta_schedule {
                    DeltaSchedule::Corrected => 0,
                    DeltaSchedule::PaperLiteral => 1,
                })
                .u32(hp.log2n)
                .i64(hp.i0 as i64)
                .u64(hp.ell as u64)
                .u32(hp.degrees.len() as u32);
            for &d in &hp.degrees {
                p.u64(d as u64);
            }
            p.f64(hp.eps_int)
                .f64(hp.eps_scale)
                .u64(hp.beta as u64)
                .u64(hp.hop_limit as u64)
                .u64(hp.query_hops as u64)
                .u64(hp.sigma as u64);
        }
        OracleBackend::Reduced(r) => {
            p.u64(r.star_edges as u64).f64(r.eps);
        }
    }
}

fn as_usize(v: u64, what: &str) -> Result<usize, SnapshotError> {
    usize::try_from(v).map_err(|_| corrupt(format!("{what} = {v} overflows usize")))
}

fn decode_hopset_params(p: &mut ParamsReader<'_>) -> Result<HopsetParams, SnapshotError> {
    let n = as_usize(p.u64()?, "params.n")?;
    let eps = p.f64()?;
    let kappa = as_usize(p.u64()?, "params.kappa")?;
    let rho = p.f64()?;
    let mode = match p.u8()? {
        0 => ParamMode::Theory,
        1 => ParamMode::Practical,
        c => return Err(corrupt(format!("unknown param mode code {c}"))),
    };
    let delta_schedule = match p.u8()? {
        0 => DeltaSchedule::Corrected,
        1 => DeltaSchedule::PaperLiteral,
        c => return Err(corrupt(format!("unknown delta schedule code {c}"))),
    };
    let log2n = p.u32()?;
    let i0 = p.i64()? as isize;
    let ell = as_usize(p.u64()?, "params.ell")?;
    let deg_count = p.u32()? as usize;
    // `HopsetParams::new` builds `degrees` over `0..=ell`.
    if ell.checked_add(1) != Some(deg_count) {
        return Err(corrupt(format!(
            "params.ell = {ell} disagrees with {deg_count} phase degrees"
        )));
    }
    let mut degrees = Vec::with_capacity(deg_count.min(1 << 16));
    for _ in 0..deg_count {
        degrees.push(as_usize(p.u64()?, "params.degrees[i]")?);
    }
    let eps_int = p.f64()?;
    let eps_scale = p.f64()?;
    let beta = as_usize(p.u64()?, "params.beta")?;
    let hop_limit = as_usize(p.u64()?, "params.hop_limit")?;
    let query_hops = as_usize(p.u64()?, "params.query_hops")?;
    let sigma = as_usize(p.u64()?, "params.sigma")?;
    Ok(HopsetParams {
        n,
        eps,
        kappa,
        rho,
        mode,
        delta_schedule,
        log2n,
        i0,
        ell,
        degrees,
        eps_int,
        eps_scale,
        beta,
        hop_limit,
        query_hops,
        sigma,
    })
}

fn oracle_sections(o: &Oracle) -> Vec<SectionDecl> {
    let h = match &o.backend {
        OracleBackend::Plain(b) => &b.hopset,
        OracleBackend::Reduced(r) => &r.hopset,
    };
    vec![
        SectionDecl {
            tag: *b"grph",
            elem_size: 1,
            count: graph_snapshot_size(o.graph()),
        },
        SectionDecl {
            tag: *b"hops",
            elem_size: 1,
            count: hopset_snapshot_size(h),
        },
    ]
}

impl Oracle {
    /// Exact byte size [`Oracle::write_snapshot`] will emit.
    pub fn snapshot_size(&self) -> u64 {
        let mut params = ParamsBuf::new();
        encode_params(&mut params, self);
        container_size(params.len(), &oracle_sections(self))
    }

    /// Write this oracle as a binary snapshot: one container embedding the
    /// graph and hopset containers plus every derived parameter.
    pub fn write_snapshot(&self, mut w: impl Write) -> Result<(), SnapshotError> {
        let mut params = ParamsBuf::new();
        encode_params(&mut params, self);
        let mut cw = ContainerWriter::begin(
            &mut w,
            &ORACLE_MAGIC,
            params.as_slice(),
            oracle_sections(self),
        )?;
        cw.raw(*b"grph", |out| write_graph_snapshot(self.graph(), out))?;
        let h = match &self.backend {
            OracleBackend::Plain(b) => &b.hopset,
            OracleBackend::Reduced(r) => &r.hopset,
        };
        cw.raw(*b"hops", |out| write_hopset_snapshot(h, out))?;
        cw.finish()
    }

    /// Save this oracle to a snapshot file.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_snapshot(&mut out)?;
        out.flush()?;
        Ok(())
    }
}

impl OracleBuilder {
    /// Load an oracle from a snapshot file written by
    /// [`Oracle::save_snapshot`] onto `exec` — no construction runs; query
    /// results are bit-identical to the oracle that was saved.
    pub fn from_snapshot_on(
        path: impl AsRef<Path>,
        exec: Executor,
    ) -> Result<Oracle, SnapshotError> {
        Self::from_snapshot_reader(std::io::BufReader::new(std::fs::File::open(path)?), exec)
    }

    /// Load an oracle from any reader (e.g. an in-memory buffer or a
    /// network stream) onto an explicit executor.
    pub fn from_snapshot_reader(r: impl Read, exec: Executor) -> Result<Oracle, SnapshotError> {
        let mut cr = ContainerReader::open(r, &ORACLE_MAGIC)?;
        let header = cr.params().to_vec();
        let mut p = ParamsReader::new(&header);
        let eps = p.f64()?;
        let kappa = as_usize(p.u64()?, "kappa")?;
        let paths = match p.u8()? {
            0 => false,
            1 => true,
            c => return Err(corrupt(format!("bad paths flag {c}"))),
        };
        let pipeline = match p.u8()? {
            0 => Pipeline::Plain,
            1 => Pipeline::Reduced,
            c => return Err(corrupt(format!("unknown pipeline code {c}"))),
        };
        let query_hops = as_usize(p.u64()?, "query_hops")?;
        let ledger = Ledger::from_parts(p.u64()?, p.u64()?, p.u64()?);

        let backend_head = match pipeline {
            Pipeline::Plain => {
                let k0 = p.u32()?;
                let lambda = p.u32()?;
                let params = decode_hopset_params(&mut p)?;
                if params.query_hops != query_hops {
                    return Err(corrupt(format!(
                        "stored query hop budget {query_hops} disagrees with params ({})",
                        params.query_hops
                    )));
                }
                // Scales run k₀..=λ from the params' own k₀; λ = k₀ − 1 is
                // the certified no-scale state, anything lower is corrupt.
                if k0 != params.k0() || u64::from(lambda) + 1 < u64::from(k0) {
                    return Err(corrupt(format!(
                        "scale range {k0}..={lambda} does not start at k0 = {} or ends below k0 - 1",
                        params.k0()
                    )));
                }
                Ok::<_, SnapshotError>((Some((k0, lambda, params)), 0, 0.0))
            }
            Pipeline::Reduced => {
                let star_edges = as_usize(p.u64()?, "star_edges")?;
                let reduced_eps = p.f64()?;
                Ok((None, star_edges, reduced_eps))
            }
            Pipeline::Auto => unreachable!("decoded from a two-valued code"),
        }?;

        let graph = cr.raw(*b"grph", |r| read_graph_snapshot(r))?;
        let hopset = cr.raw(*b"hops", |r| read_hopset_snapshot(r))?;
        let n = graph.num_vertices();
        // The params were derived for this graph's vertex count.
        if let (Some((_, _, params)), _, _) = &backend_head {
            if params.n != n {
                return Err(corrupt(format!(
                    "params built for n = {} but the graph has {n} vertices",
                    params.n
                )));
            }
        }

        // Cross-container validation the standalone hopset loader cannot do
        // (it does not know n): endpoint and path-vertex ranges.
        for (i, (&u, &v)) in hopset.us().iter().zip(hopset.vs()).enumerate() {
            if u as usize >= n || v as usize >= n {
                return Err(corrupt(format!(
                    "hopset edge {i} ({u}, {v}) out of vertex range {n}"
                )));
            }
        }
        for (i, mp) in hopset.paths.iter().enumerate() {
            if !mp.validate(n) {
                return Err(corrupt(format!(
                    "memory path {i} is structurally invalid for n = {n}"
                )));
            }
        }
        if paths && !hopset.all_paths_recorded() {
            return Err(corrupt(
                "paths flag set but not every hopset edge carries a memory path",
            ));
        }

        // Rebuild the union CSR with the same call `build()` uses — same
        // columns in, same deterministic bucketing, bit-identical queries.
        let csr = OverlayCsr::build_columns(n, hopset.us(), hopset.vs(), hopset.ws());
        let graph = Arc::new(graph);
        let union = UnionGraph::from_csr(Arc::clone(&graph), csr);

        let backend = match backend_head {
            (Some((k0, lambda, params)), _, _) => OracleBackend::Plain(BuiltHopset {
                hopset,
                params,
                scales: Vec::new(),
                ledger,
                k0,
                lambda,
            }),
            (None, star_edges, reduced_eps) => OracleBackend::Reduced(ReducedHopset {
                hopset,
                levels: Vec::new(),
                ledger,
                query_hops,
                star_edges,
                eps: reduced_eps,
            }),
        };

        Ok(Oracle {
            union,
            backend,
            eps,
            kappa,
            query_hops,
            paths,
            exec,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::DistanceOracle;
    use hopset::snapshot::HOPSET_MAGIC;
    use pgraph::gen;
    use pram::pool::threads_from_env;

    fn roundtrip(o: &Oracle) -> Oracle {
        let mut buf = Vec::new();
        o.write_snapshot(&mut buf).unwrap();
        assert_eq!(buf.len() as u64, o.snapshot_size());
        OracleBuilder::from_snapshot_reader(buf.as_slice(), Executor::new(threads_from_env()))
            .unwrap()
    }

    #[test]
    fn plain_oracle_roundtrips_bit_identically() {
        let g = gen::road_grid(12, 12, 7, 1.0, 8.0);
        let o = Oracle::builder(g)
            .eps(0.25)
            .kappa(4)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let o2 = roundtrip(&o);
        assert_eq!(o2.pipeline(), Pipeline::Plain);
        assert_eq!(o.query_hops(), o2.query_hops());
        assert_eq!(o.hopset_size(), o2.hopset_size());
        assert_eq!(o.cost(), o2.cost());
        for src in [0u32, 77, 143] {
            let a = o.distances_from(src).unwrap();
            let b = o2.distances_from(src).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(
            o.distance(0, 143).unwrap().to_bits(),
            o2.distance(0, 143).unwrap().to_bits()
        );
    }

    #[test]
    fn reduced_oracle_roundtrips() {
        let g = gen::exponential_path(28, 3.0);
        let o = Oracle::builder(g)
            .eps(0.5)
            .threads(threads_from_env())
            .build()
            .unwrap();
        assert_eq!(o.pipeline(), Pipeline::Reduced);
        let o2 = roundtrip(&o);
        assert_eq!(o2.pipeline(), Pipeline::Reduced);
        assert_eq!(o2.name(), "hopset-reduced");
        assert_eq!(
            o.reduced().unwrap().star_edges,
            o2.reduced().unwrap().star_edges
        );
        let a = o.distances_from(0).unwrap();
        let b = o2.distances_from(0).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn spt_serves_from_loaded_oracle() {
        let g = gen::clique_chain(4, 6, 2.0);
        let o = Oracle::builder(g)
            .paths(true)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let o2 = roundtrip(&o);
        assert!(o2.has_paths());
        let a = o.spt(0).unwrap();
        let b = o2.spt(0).unwrap();
        assert_eq!(a.parent, b.parent);
        for (x, y) in a.dist.iter().zip(&b.dist) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn rejects_a_nested_hopset_with_quantized_weights() {
        let g = gen::road_grid(12, 12, 7, 1.0, 8.0);
        // The binding cap skips the distance-range certificate, so the
        // oracle keeps a hopset to quantize.
        let o = Oracle::builder(g)
            .eps(0.25)
            .kappa(4)
            .hop_cap(16)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let OracleBackend::Plain(b) = &o.backend else {
            panic!("road grid builds the plain pipeline")
        };
        assert!(!b.hopset.is_empty());
        // The nested hopset as a v2 container whose header declares 4-byte
        // weights, `round(w / scale)`; every other column is copied from
        // the exact file.
        let mut exact = Vec::new();
        write_hopset_snapshot(&b.hopset, &mut exact).unwrap();
        let mut hr = ContainerReader::open(exact.as_slice(), &HOPSET_MAGIC).unwrap();
        let scale = 1.0f64 / 1024.0;
        let mut hparams = hr.params()[..40].to_vec(); // ne, np, kind tally
        hparams.push(4);
        hparams.extend_from_slice(&scale.to_le_bytes());
        let mut decl = hr.sections().to_vec();
        decl[2].elem_size = 4;
        let mut nested = Vec::new();
        let mut hw = ContainerWriter::begin(&mut nested, &HOPSET_MAGIC, &hparams, decl).unwrap();
        for tag in [*b"us  ", *b"vs  "] {
            hw.col_u32(tag, &hr.col_u32(tag).unwrap()).unwrap();
        }
        let ws = hr.col_f64(*b"wgts").unwrap();
        let q: Vec<u32> = ws.iter().map(|w| (w / scale).round() as u32).collect();
        hw.col_u32(*b"wgts", &q).unwrap();
        hw.col_u32(*b"scal", &hr.col_u32(*b"scal").unwrap())
            .unwrap();
        for tag in [*b"kind", *b"phas"] {
            hw.col_u8(tag, &hr.col_u8(tag).unwrap()).unwrap();
        }
        for tag in [*b"path", *b"sstr"] {
            hw.col_u32(tag, &hr.col_u32(tag).unwrap()).unwrap();
        }
        assert!(b.hopset.paths.is_empty());
        hw.raw(*b"prec", |_| Ok(())).unwrap();
        hw.finish().unwrap();

        let mut params = ParamsBuf::new();
        encode_params(&mut params, &o);
        let mut sections = oracle_sections(&o);
        sections[1].count = nested.len() as u64;
        let mut buf = Vec::new();
        let mut cw =
            ContainerWriter::begin(&mut buf, &ORACLE_MAGIC, params.as_slice(), sections).unwrap();
        cw.raw(*b"grph", |out| write_graph_snapshot(o.graph(), out))
            .unwrap();
        cw.raw(*b"hops", |out| Ok(out.write_all(&nested)?)).unwrap();
        cw.finish().unwrap();
        match OracleBuilder::from_snapshot_reader(buf.as_slice(), Executor::new(threads_from_env()))
        {
            Err(SnapshotError::Corrupt { what }) => assert!(what.contains("4-byte"), "{what}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn certified_and_full_oracles_roundtrip_bit_identically() {
        // A certified gnm builds no scale; a weighted path past its hop
        // budget (β = 399 at ε = 0.9) builds the full range.
        let cases = [
            (gen::gnm_connected(300, 900, 4, 1.0, 6.0), 0.25, true),
            (
                gen::path_weighted(600, |i| 1.0 + (i % 7) as f64),
                0.9,
                false,
            ),
        ];
        for (g, eps, certified) in cases {
            let o = Oracle::builder(g)
                .eps(eps)
                .paths(true)
                .threads(threads_from_env())
                .build()
                .unwrap();
            let b = o.built().unwrap();
            assert_eq!(b.num_scales() == 0, certified);
            assert_eq!(o.hopset_size() == 0, certified);
            let o2 = roundtrip(&o);
            let b2 = o2.built().unwrap();
            assert_eq!((b2.k0, b2.lambda), (b.k0, b.lambda));
            assert_eq!(o.hopset_size(), o2.hopset_size());
            assert_eq!(o.cost(), o2.cost());
            let n = o.num_vertices() as u32;
            for src in [0, n / 2, n - 1] {
                let a = o.distances_from(src).unwrap();
                let c = o2.distances_from(src).unwrap();
                for (x, y) in a.iter().zip(&c) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            assert_eq!(o.spt(0).unwrap().parent, o2.spt(0).unwrap().parent);
        }
    }

    /// Write `o` with its stored scale range replaced by `(k0, lambda)`.
    fn with_scale_range(o: &Oracle, k0: u32, lambda: u32) -> Vec<u8> {
        let OracleBackend::Plain(b) = &o.backend else {
            panic!("plain pipeline expected")
        };
        let patched = Oracle {
            union: o.union.clone(),
            backend: OracleBackend::Plain(BuiltHopset {
                k0,
                lambda,
                ..b.clone()
            }),
            eps: o.eps,
            kappa: o.kappa,
            query_hops: o.query_hops,
            paths: o.paths,
            exec: o.exec.clone(),
        };
        let mut buf = Vec::new();
        patched.write_snapshot(&mut buf).unwrap();
        buf
    }

    #[test]
    fn rejects_a_scale_range_that_does_not_fit_k0() {
        let o = Oracle::builder(gen::path(64))
            .threads(threads_from_env())
            .build()
            .unwrap();
        let k0 = o.built().unwrap().k0;
        let load = |buf: Vec<u8>| {
            OracleBuilder::from_snapshot_reader(buf.as_slice(), o.executor().clone())
        };
        // k₀ must be the params' own; λ must not end below k₀ − 1.
        for (k, l) in [(k0 + 1, k0), (k0 - 1, k0), (k0, k0 - 2), (u32::MAX, 0)] {
            match load(with_scale_range(&o, k, l)) {
                Err(SnapshotError::Corrupt { what }) => {
                    assert!(what.contains("scale range"), "{what}")
                }
                other => panic!("({k}, {l}): expected Corrupt, got {:?}", other.map(|_| ())),
            }
        }
        // The widest stored λ loads without overflowing the range length.
        let wide = load(with_scale_range(&o, k0, u32::MAX)).unwrap();
        assert_eq!(
            wide.built().unwrap().num_scales(),
            (1u64 << 32) - u64::from(k0)
        );
        // The no-scale and one-scale ranges are both valid.
        for l in [k0 - 1, k0] {
            assert_eq!(
                load(with_scale_range(&o, k0, l))
                    .unwrap()
                    .built()
                    .unwrap()
                    .lambda,
                l
            );
        }
    }

    #[test]
    fn oracle_snapshot_error_paths_are_typed() {
        let g = gen::path(16);
        let o = Oracle::builder(g)
            .threads(threads_from_env())
            .build()
            .unwrap();
        let mut buf = Vec::new();
        o.write_snapshot(&mut buf).unwrap();
        let exec = Executor::new(threads_from_env());

        let mut bad = buf.clone();
        bad[3] = b'!';
        assert!(matches!(
            OracleBuilder::from_snapshot_reader(bad.as_slice(), exec.clone()),
            Err(SnapshotError::BadMagic { .. })
        ));

        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            OracleBuilder::from_snapshot_reader(bad.as_slice(), exec.clone()),
            Err(SnapshotError::UnsupportedVersion { found: 3, .. })
        ));

        let mut bad = buf.clone();
        bad[24] ^= 0x01;
        assert!(matches!(
            OracleBuilder::from_snapshot_reader(bad.as_slice(), exec.clone()),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            OracleBuilder::from_snapshot_reader(&buf[..buf.len() / 3], exec),
            Err(SnapshotError::Truncated { .. })
        ));
    }
}
