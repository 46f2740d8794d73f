//! Critical-path enumeration: the top-K longest paths of the circuit DAG.
//!
//! The paper attributes c6288's difficulty to its "large number of paths,
//! many of them reconvergent … a number of competing paths can become
//! critical at any instance". This module makes that population visible:
//! it enumerates the K longest source→sink paths (with their delays) so
//! reports and tests can quantify how many near-critical paths a circuit
//! has — the structural property separating the adder rows of Table 1
//! from the multiplier row.

use crate::error::StaError;
use mft_circuit::{SizingDag, VertexId};

/// One enumerated path: its vertices (source first) and total delay.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayPath {
    /// Vertices from a DAG source to an end-of-path vertex.
    pub vertices: Vec<VertexId>,
    /// Total delay (sum of vertex delays along the path).
    pub delay: f64,
}

/// One of a vertex's `k` longest prefixes: its delay (source through
/// the vertex) and where it came from.
#[derive(Debug, Clone, Copy)]
struct Prefix {
    delay: f64,
    /// Predecessor vertex, or `u32::MAX` at a source.
    pred: u32,
    /// Rank of the extended prefix in the predecessor's list.
    rank: u32,
}

/// Enumerates the `k` longest paths of the DAG (ties broken by a stable
/// order), longest first.
///
/// A per-vertex top-`k` longest-prefix DP in topological order: every
/// vertex keeps its `k` longest source→vertex prefixes, each extending
/// one of a predecessor's. A longest path's prefix is among its
/// vertex's `k` longest (otherwise `k` longer prefixes with the same
/// suffix would outrank it), so the best `k` prefixes ending at
/// end-of-path vertices are the `k` longest paths. Time
/// O((V + E) · k log k) and memory O(V · k), however many near-tied
/// reconvergent paths the circuit has.
///
/// # Errors
///
/// Returns [`StaError::ShapeMismatch`] if `delays` has the wrong length.
pub fn top_paths(dag: &SizingDag, delays: &[f64], k: usize) -> Result<Vec<DelayPath>, StaError> {
    let n = dag.num_vertices();
    if delays.len() != n {
        return Err(StaError::ShapeMismatch {
            expected: n,
            found: delays.len(),
        });
    }
    if k == 0 {
        return Ok(Vec::new());
    }
    let longest_first = |a: &Prefix, b: &Prefix| b.delay.total_cmp(&a.delay);
    // v's prefixes are prefixes[span[v].0..span[v].1], longest first.
    let mut prefixes: Vec<Prefix> = Vec::new();
    let mut span = vec![(0usize, 0usize); n];
    let mut candidates: Vec<Prefix> = Vec::new();
    for &v in dag.topo_order() {
        let d = delays[v.index()];
        candidates.clear();
        if dag.in_edges(v).is_empty() {
            candidates.push(Prefix {
                delay: d,
                pred: u32::MAX,
                rank: 0,
            });
        }
        for &e in dag.in_edges(v) {
            let (u, _) = dag.edge(e);
            let (lo, hi) = span[u.index()];
            for (rank, p) in prefixes[lo..hi].iter().enumerate() {
                candidates.push(Prefix {
                    delay: p.delay + d,
                    pred: u.index() as u32,
                    rank: rank as u32,
                });
            }
        }
        if candidates.len() > k {
            candidates.select_nth_unstable_by(k - 1, longest_first);
            candidates.truncate(k);
        }
        candidates.sort_by(longest_first);
        span[v.index()] = (prefixes.len(), prefixes.len() + candidates.len());
        prefixes.extend_from_slice(&candidates);
    }
    // End-of-path vertices: sinks and PO leaves.
    let mut endpoint = vec![false; n];
    for &v in dag.po_leaves() {
        endpoint[v.index()] = true;
    }
    // (delay, end vertex, slot of its prefix)
    let mut ends: Vec<(f64, VertexId, usize)> = Vec::new();
    for v in dag.vertex_ids() {
        if endpoint[v.index()] || dag.out_edges(v).is_empty() {
            let (lo, hi) = span[v.index()];
            ends.extend((lo..hi).map(|i| (prefixes[i].delay, v, i)));
        }
    }
    ends.sort_by(|a, b| b.0.total_cmp(&a.0));
    ends.truncate(k);
    let result = ends
        .into_iter()
        .map(|(delay, mut v, mut slot)| {
            let mut vertices = vec![v];
            while prefixes[slot].pred != u32::MAX {
                let Prefix { pred, rank, .. } = prefixes[slot];
                v = VertexId::new(pred as usize);
                slot = span[v.index()].0 + rank as usize;
                vertices.push(v);
            }
            vertices.reverse();
            DelayPath { vertices, delay }
        })
        .collect();
    Ok(result)
}

/// Counts the paths whose delay is within `fraction` of the critical path
/// (capped at `limit` paths examined) — the "competing near-critical
/// paths" metric.
///
/// # Errors
///
/// Returns [`StaError::ShapeMismatch`] if `delays` has the wrong length.
pub fn near_critical_count(
    dag: &SizingDag,
    delays: &[f64],
    fraction: f64,
    limit: usize,
) -> Result<usize, StaError> {
    let paths = top_paths(dag, delays, limit)?;
    let Some(cp) = paths.first().map(|p| p.delay) else {
        return Ok(0);
    };
    Ok(paths
        .iter()
        .take_while(|p| p.delay >= cp * fraction)
        .count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mft_circuit::{NetlistBuilder, SizingDag};

    /// Diamond with distinct branch delays: g0→{g1,g2}→g3.
    fn diamond() -> SizingDag {
        let mut b = NetlistBuilder::new("d");
        let a = b.input("a");
        let g0 = b.inv(a).unwrap();
        let g1 = b.inv(g0).unwrap();
        let g2 = b.inv(g0).unwrap();
        let g3 = b.nand2(g1, g2).unwrap();
        b.output(g3, "o");
        SizingDag::gate_mode(&b.finish().unwrap()).unwrap()
    }

    #[test]
    fn enumerates_in_order() {
        let dag = diamond();
        let delays = vec![1.0, 3.0, 2.0, 1.0];
        let paths = top_paths(&dag, &delays, 10).unwrap();
        // Two complete paths: via g1 (1+3+1 = 5) and via g2 (1+2+1 = 4).
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].delay, 5.0);
        assert_eq!(paths[1].delay, 4.0);
        let ids: Vec<usize> = paths[0].vertices.iter().map(|v| v.index()).collect();
        assert_eq!(ids, vec![0, 1, 3]);
    }

    #[test]
    fn k_limits_output() {
        let dag = diamond();
        let delays = vec![1.0; 4];
        assert_eq!(top_paths(&dag, &delays, 1).unwrap().len(), 1);
        assert_eq!(top_paths(&dag, &delays, 0).unwrap().len(), 0);
    }

    #[test]
    fn top_path_matches_critical_path() {
        let dag = diamond();
        let delays = vec![0.5, 2.5, 1.0, 2.0];
        let cp = crate::timing::critical_path(&dag, &delays).unwrap();
        let paths = top_paths(&dag, &delays, 1).unwrap();
        assert!((paths[0].delay - cp).abs() < 1e-12);
    }

    #[test]
    fn near_critical_counts_competing_paths() {
        let dag = diamond();
        // Equal branches: both paths tie at the critical delay.
        let delays = vec![1.0, 2.0, 2.0, 1.0];
        assert_eq!(near_critical_count(&dag, &delays, 0.999, 16).unwrap(), 2);
        // Distinct branches: only one critical path.
        let delays = vec![1.0, 3.0, 1.0, 1.0];
        assert_eq!(near_critical_count(&dag, &delays, 0.999, 16).unwrap(), 1);
    }

    /// Brute force: the delay of every source→end path, by DFS.
    fn all_path_delays(dag: &SizingDag, delays: &[f64]) -> Vec<f64> {
        fn dfs(dag: &SizingDag, delays: &[f64], v: VertexId, total: f64, all: &mut Vec<f64>) {
            let total = total + delays[v.index()];
            if dag.out_edges(v).is_empty() || dag.po_leaves().contains(&v) {
                all.push(total);
            }
            for &e in dag.out_edges(v) {
                let (_, w) = dag.edge(e);
                dfs(dag, delays, w, total, all);
            }
        }
        let mut all = Vec::new();
        for &s in dag.sources() {
            dfs(dag, delays, s, 0.0, &mut all);
        }
        all
    }

    /// Exhaustive cross-check on a random-ish multi-branch DAG: top_paths
    /// must match a brute-force enumeration of all source→end paths.
    #[test]
    fn matches_brute_force_enumeration() {
        let mut b = NetlistBuilder::new("multi");
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let g0 = b.nand2(i0, i1).unwrap();
        let g1 = b.inv(g0).unwrap();
        let g2 = b.nand2(g0, i1).unwrap();
        let g3 = b.nand2(g1, g2).unwrap();
        let g4 = b.inv(g2).unwrap();
        let g5 = b.nand2(g3, g4).unwrap();
        b.output(g5, "o");
        b.output(g4, "p");
        let dag = SizingDag::gate_mode(&b.finish().unwrap()).unwrap();
        let delays: Vec<f64> = (0..dag.num_vertices())
            .map(|i| 1.0 + (i as f64) * 0.37)
            .collect();
        let mut all = all_path_delays(&dag, &delays);
        all.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let got = top_paths(&dag, &delays, all.len() + 4).unwrap();
        assert_eq!(got.len(), all.len());
        for (p, &want) in got.iter().zip(all.iter()) {
            assert!((p.delay - want).abs() < 1e-9, "{} vs {want}", p.delay);
        }
    }

    /// Seeded random reconvergent circuits: for several `k` below the
    /// path count, the `k` delays equal brute force's `k` largest, and
    /// every returned path is a real source→end path summing to its
    /// delay.
    #[test]
    fn random_dags_match_brute_force_top_k() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..20 {
            let mut b = NetlistBuilder::new("r");
            let mut nets: Vec<_> = (0..4).map(|i| b.input(format!("i{i}"))).collect();
            for _ in 0..rng.gen_range(8..24) {
                let x = nets[rng.gen_range(0..nets.len())];
                let y = nets[rng.gen_range(0..nets.len())];
                let g = if x == y || rng.gen_bool(0.3) {
                    b.inv(x).unwrap()
                } else {
                    b.nand2(x, y).unwrap()
                };
                nets.push(g);
            }
            for (i, &net) in nets[nets.len() - 3..].iter().enumerate() {
                b.output(net, format!("o{i}"));
            }
            let dag = SizingDag::gate_mode(&b.finish().unwrap()).unwrap();
            // Quantized delays make exact ties common.
            let delays: Vec<f64> = (0..dag.num_vertices())
                .map(|_| f64::from(rng.gen_range(1..5u8)) * 0.5)
                .collect();
            let mut all = all_path_delays(&dag, &delays);
            all.sort_by(|a, b| b.total_cmp(a));
            for k in [1, 3, 10, all.len() / 2 + 1, all.len() + 1] {
                let got = top_paths(&dag, &delays, k).unwrap();
                assert_eq!(got.len(), k.min(all.len()), "case {case} k {k}");
                for (p, &want) in got.iter().zip(&all) {
                    assert!(
                        (p.delay - want).abs() < 1e-9,
                        "case {case}: {} vs {want}",
                        p.delay
                    );
                    let sum: f64 = p.vertices.iter().map(|v| delays[v.index()]).sum();
                    assert!((sum - p.delay).abs() < 1e-9);
                    assert!(dag.in_edges(p.vertices[0]).is_empty());
                    let last = *p.vertices.last().unwrap();
                    assert!(dag.out_edges(last).is_empty() || dag.po_leaves().contains(&last));
                    for pair in p.vertices.windows(2) {
                        assert!(dag
                            .out_edges(pair[0])
                            .iter()
                            .any(|&e| dag.edge(e).1 == pair[1]));
                    }
                }
            }
        }
    }

    #[test]
    fn shape_mismatch() {
        let dag = diamond();
        assert!(matches!(
            top_paths(&dag, &[1.0], 3),
            Err(StaError::ShapeMismatch { .. })
        ));
    }
}
