//! A table-driven (LUT) delay model.
//!
//! Industrial cell libraries characterize delay as `(size, load)` tables,
//! not closed forms. [`LutDelayModel`] serves that shape through the same
//! [`DelayModel`] trait as the analytic models: per-vertex grids over a
//! shared size axis and a per-vertex load axis, evaluated by bilinear
//! interpolation, with the circuit *structure* (loads, coupling CSR, area
//! weights) still supplied by an underlying [`LinearDelayModel`]. The
//! incremental machinery — `delays_diff`, the dependents CSR, the
//! sensitivity solve — runs unchanged on it, demonstrating the trait
//! supports non-analytic backends.
//!
//! Tables are built by sampling the Elmore model
//! ([`LutDelayModel::sample_elmore`]) or loaded from a text table file
//! ([`LutDelayModel::with_tables_from_str`]). Interpolation returns the
//! stored value *exactly* when a query lands on a grid node, so a model
//! sampled at the operating point reproduces Elmore delays bit-for-bit.

use crate::error::DelayError;
use crate::model::{DelayModel, LinearDelayModel};
use core::fmt::Write as _;
use mft_circuit::VertexId;

/// A per-gate `(size, load)` delay-table model over a [`LinearDelayModel`]
/// skeleton.
///
/// The linear model provides vertex count, bounds, loads (`b_i + Σ a_ij·x_j`),
/// coupling lists, and area weights; only the delay *functional* is replaced
/// by table lookup: `delay(v) = bilinear(table_v; x_v, load_v(x))`.
#[derive(Debug, Clone)]
pub struct LutDelayModel {
    linear: LinearDelayModel,
    /// Strictly increasing size grid shared by every vertex.
    size_axis: Vec<f64>,
    /// Strictly increasing per-vertex load grids.
    load_axes: Vec<Vec<f64>>,
    /// Per-vertex row-major tables: `tables[v][k · loads + m]` is the delay
    /// at size node `k`, load node `m`.
    tables: Vec<Vec<f64>>,
}

impl LutDelayModel {
    /// Builds a model from explicit grids and tables.
    ///
    /// # Errors
    ///
    /// Returns [`DelayError::Table`] when an axis has fewer than two
    /// points, is not strictly increasing or positive, a table has the
    /// wrong length, or any entry is non-finite.
    pub fn from_grids(
        linear: LinearDelayModel,
        size_axis: Vec<f64>,
        load_axes: Vec<Vec<f64>>,
        tables: Vec<Vec<f64>>,
    ) -> Result<Self, DelayError> {
        let n = linear.num_vertices();
        check_axis("size axis", &size_axis)?;
        if load_axes.len() != n || tables.len() != n {
            return Err(DelayError::Table {
                what: format!(
                    "expected {n} load axes and tables, got {} and {}",
                    load_axes.len(),
                    tables.len()
                ),
            });
        }
        for (v, (axis, table)) in load_axes.iter().zip(tables.iter()).enumerate() {
            check_axis("load axis", axis)?;
            if table.len() != size_axis.len() * axis.len() {
                return Err(DelayError::Table {
                    what: format!(
                        "vertex {v}: table has {} entries, grid is {}×{}",
                        table.len(),
                        size_axis.len(),
                        axis.len()
                    ),
                });
            }
            if let Some(bad) = table.iter().find(|d| !d.is_finite()) {
                return Err(DelayError::Table {
                    what: format!("vertex {v}: non-finite delay entry {bad}"),
                });
            }
        }
        Ok(LutDelayModel {
            linear,
            size_axis,
            load_axes,
            tables,
        })
    }

    /// Samples the Elmore delay `p_i + load/size` of `linear` on an
    /// `n_size × n_load` grid per vertex: geometric size axis across the
    /// sizing bounds, linear load axis between each vertex's all-minimum
    /// and all-maximum load.
    ///
    /// Grid-node queries reproduce the Elmore value bit-for-bit (the table
    /// entry is computed with the same expression `delay` uses).
    ///
    /// # Panics
    ///
    /// Panics if `n_size < 2` or `n_load < 2`.
    pub fn sample_elmore(linear: LinearDelayModel, n_size: usize, n_load: usize) -> Self {
        assert!(n_size >= 2 && n_load >= 2, "need at least a 2×2 grid");
        let n = linear.num_vertices();
        let (min_size, max_size) = linear.size_bounds();
        let ratio = (max_size / min_size).powf(1.0 / (n_size - 1) as f64);
        let mut size_axis: Vec<f64> = (0..n_size)
            .map(|k| min_size * ratio.powi(k as i32))
            .collect();
        // Pin the endpoints exactly despite powf rounding.
        size_axis[0] = min_size;
        size_axis[n_size - 1] = max_size;
        let lo_sizes = vec![min_size; n];
        let hi_sizes = vec![max_size; n];
        let mut load_axes = Vec::with_capacity(n);
        let mut tables = Vec::with_capacity(n);
        for i in 0..n {
            let v = VertexId::new(i);
            let lo = linear.load(v, &lo_sizes);
            let mut hi = linear.load(v, &hi_sizes);
            if hi <= lo {
                // Fixed-only load: widen artificially so the axis is valid
                // (the delay is load-independent there anyway).
                hi = lo + 1.0;
            }
            let axis: Vec<f64> = (0..n_load)
                .map(|m| lo + (hi - lo) * m as f64 / (n_load - 1) as f64)
                .collect();
            let mut table = Vec::with_capacity(n_size * n_load);
            let p = linear.intrinsic(v);
            for &s in &size_axis {
                for &l in &axis {
                    table.push(p + l / s);
                }
            }
            load_axes.push(axis);
            tables.push(table);
        }
        LutDelayModel {
            linear,
            size_axis,
            load_axes,
            tables,
        }
    }

    /// Loads grids and tables from the text format written by
    /// [`LutDelayModel::to_table_string`]:
    ///
    /// ```text
    /// mft-lut v1
    /// sizes <s0> <s1> …
    /// vertex 0
    /// loads <l0> <l1> …
    /// row <d00> <d01> …        (one row per size node)
    /// …
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`DelayError::Table`] on any syntax or shape problem.
    pub fn with_tables_from_str(linear: LinearDelayModel, text: &str) -> Result<Self, DelayError> {
        let bad = |what: String| DelayError::Table { what };
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        let header = lines.next().ok_or_else(|| bad("empty table".into()))?;
        if header != "mft-lut v1" {
            return Err(bad(format!("unknown header `{header}`")));
        }
        let sizes_line = lines
            .next()
            .ok_or_else(|| bad("missing `sizes` line".into()))?;
        let size_axis = parse_floats(
            sizes_line
                .strip_prefix("sizes ")
                .ok_or_else(|| bad(format!("expected `sizes …`, got `{sizes_line}`")))?,
        )?;
        let n = linear.num_vertices();
        let mut load_axes: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut tables: Vec<Vec<f64>> = Vec::with_capacity(n);
        for v in 0..n {
            let head = lines
                .next()
                .ok_or_else(|| bad(format!("missing `vertex {v}` section")))?;
            if head != format!("vertex {v}") {
                return Err(bad(format!("expected `vertex {v}`, got `{head}`")));
            }
            let loads_line = lines
                .next()
                .ok_or_else(|| bad(format!("vertex {v}: missing `loads` line")))?;
            let axis = parse_floats(loads_line.strip_prefix("loads ").ok_or_else(|| {
                bad(format!(
                    "vertex {v}: expected `loads …`, got `{loads_line}`"
                ))
            })?)?;
            let mut table = Vec::with_capacity(size_axis.len() * axis.len());
            for k in 0..size_axis.len() {
                let row_line = lines
                    .next()
                    .ok_or_else(|| bad(format!("vertex {v}: missing row {k}")))?;
                let row = parse_floats(row_line.strip_prefix("row ").ok_or_else(|| {
                    bad(format!("vertex {v}: expected `row …`, got `{row_line}`"))
                })?)?;
                if row.len() != axis.len() {
                    return Err(bad(format!(
                        "vertex {v}: row {k} has {} entries, expected {}",
                        row.len(),
                        axis.len()
                    )));
                }
                table.extend_from_slice(&row);
            }
            load_axes.push(axis);
            tables.push(table);
        }
        if let Some(extra) = lines.next() {
            return Err(bad(format!("trailing content `{extra}`")));
        }
        LutDelayModel::from_grids(linear, size_axis, load_axes, tables)
    }

    /// Serializes the grids and tables in the format
    /// [`LutDelayModel::with_tables_from_str`] parses. Values are written
    /// with Rust's shortest round-trip float formatting, so a load/store
    /// cycle reproduces the model bit-for-bit.
    pub fn to_table_string(&self) -> String {
        let mut out = String::from("mft-lut v1\n");
        push_floats(&mut out, "sizes", &self.size_axis);
        for v in 0..self.linear.num_vertices() {
            let _ = writeln!(out, "vertex {v}");
            push_floats(&mut out, "loads", &self.load_axes[v]);
            let loads = self.load_axes[v].len();
            for k in 0..self.size_axis.len() {
                push_floats(&mut out, "row", &self.tables[v][k * loads..(k + 1) * loads]);
            }
        }
        out
    }

    /// The structural skeleton (loads, coupling, weights, bounds).
    pub fn linear(&self) -> &LinearDelayModel {
        &self.linear
    }

    /// The shared size grid.
    pub fn size_axis(&self) -> &[f64] {
        &self.size_axis
    }

    /// Vertex `v`'s load grid.
    pub fn load_axis(&self, v: VertexId) -> &[f64] {
        &self.load_axes[v.index()]
    }

    /// Evaluates the table of `v` at an explicit `(size, load)` point —
    /// the raw bilinear lookup behind [`DelayModel::delay`]. Queries are
    /// clamped to the grid; exact node hits return stored values exactly.
    pub fn eval(&self, v: VertexId, size: f64, load: f64) -> f64 {
        let la = &self.load_axes[v.index()];
        let table = &self.tables[v.index()];
        let loads = la.len();
        let row = |k: usize| &table[k * loads..(k + 1) * loads];
        if let Some(k) = exact_index(&self.size_axis, size) {
            return interp1(la, row(k), load);
        }
        let (k, t) = segment(&self.size_axis, size);
        let d0 = interp1(la, row(k), load);
        let d1 = interp1(la, row(k + 1), load);
        d0 + t * (d1 - d0)
    }

    /// Local interpolation slopes `(∂delay/∂size, ∂delay/∂load)` of `v`'s
    /// bilinear patch at `(size, load)`, used by the sensitivity solve.
    fn slopes(&self, v: VertexId, size: f64, load: f64) -> (f64, f64) {
        let la = &self.load_axes[v.index()];
        let table = &self.tables[v.index()];
        let loads = la.len();
        let row = |k: usize| &table[k * loads..(k + 1) * loads];
        let (k, ts) = segment_for_slope(&self.size_axis, size);
        let (m, tl) = segment_for_slope(la, load);
        let d = |k: usize, m: usize| row(k)[m];
        // Bilinear patch corners.
        let (d00, d01) = (d(k, m), d(k, m + 1));
        let (d10, d11) = (d(k + 1, m), d(k + 1, m + 1));
        let dl_lo = d01 - d00;
        let dl_hi = d11 - d10;
        let load_h = la[m + 1] - la[m];
        let size_h = self.size_axis[k + 1] - self.size_axis[k];
        let g = (dl_lo + ts * (dl_hi - dl_lo)) / load_h;
        let ds_lo = d10 - d00;
        let ds_hi = d11 - d01;
        let s = (ds_lo + tl * (ds_hi - ds_lo)) / size_h;
        (s, g)
    }
}

fn check_axis(what: &str, axis: &[f64]) -> Result<(), DelayError> {
    if axis.len() < 2 {
        return Err(DelayError::Table {
            what: format!("{what} needs at least two points, got {}", axis.len()),
        });
    }
    if !axis.iter().all(|x| x.is_finite() && *x > 0.0) {
        return Err(DelayError::Table {
            what: format!("{what} must be positive and finite"),
        });
    }
    if !axis.windows(2).all(|w| w[0] < w[1]) {
        return Err(DelayError::Table {
            what: format!("{what} must be strictly increasing"),
        });
    }
    Ok(())
}

fn parse_floats(s: &str) -> Result<Vec<f64>, DelayError> {
    s.split_whitespace()
        .map(|tok| {
            tok.parse::<f64>().map_err(|_| DelayError::Table {
                what: format!("bad float `{tok}`"),
            })
        })
        .collect()
}

fn push_floats(out: &mut String, prefix: &str, values: &[f64]) {
    out.push_str(prefix);
    for v in values {
        let _ = write!(out, " {v}");
    }
    out.push('\n');
}

/// Index of `x` in `axis` if it is exactly a grid node.
fn exact_index(axis: &[f64], x: f64) -> Option<usize> {
    axis.binary_search_by(|a| a.partial_cmp(&x).unwrap()).ok()
}

/// Clamped segment `(k, t)` with `x ≈ axis[k]·(1−t) + axis[k+1]·t`.
fn segment(axis: &[f64], x: f64) -> (usize, f64) {
    if x <= axis[0] {
        return (0, 0.0);
    }
    let last = axis.len() - 1;
    if x >= axis[last] {
        return (last - 1, 1.0);
    }
    let k = axis.partition_point(|a| *a < x) - 1;
    let t = (x - axis[k]) / (axis[k + 1] - axis[k]);
    (k, t)
}

/// Like [`segment`], but clamps `t` for slope evaluation at the grid edge
/// (derivatives use the nearest interior patch).
fn segment_for_slope(axis: &[f64], x: f64) -> (usize, f64) {
    let (k, t) = segment(axis, x);
    (k, t.clamp(0.0, 1.0))
}

impl DelayModel for LutDelayModel {
    fn num_vertices(&self) -> usize {
        self.linear.num_vertices()
    }

    fn size_bounds(&self) -> (f64, f64) {
        self.linear.size_bounds()
    }

    fn intrinsic(&self, v: VertexId) -> f64 {
        self.linear.intrinsic(v)
    }

    fn load_deps(&self, v: VertexId) -> &[VertexId] {
        self.linear.load_deps(v)
    }

    fn dependents(&self, v: VertexId) -> &[VertexId] {
        self.linear.dependents(v)
    }

    fn delay(&self, v: VertexId, sizes: &[f64]) -> f64 {
        self.eval(v, sizes[v.index()], self.linear.load(v, sizes))
    }

    fn required_size(&self, v: VertexId, budget: f64, sizes: &[f64]) -> f64 {
        let la = &self.load_axes[v.index()];
        let table = &self.tables[v.index()];
        let loads = la.len();
        let load = self.linear.load(v, sizes);
        let mut prev = interp1(la, &table[..loads], load);
        if prev <= budget {
            return self.size_axis[0];
        }
        for k in 1..self.size_axis.len() {
            let d = interp1(la, &table[k * loads..(k + 1) * loads], load);
            if d <= budget {
                // Piecewise-linear inversion inside [k-1, k]; prev > budget
                // ≥ d guarantees a non-zero denominator.
                let t = (prev - budget) / (prev - d);
                return self.size_axis[k - 1] + t * (self.size_axis[k] - self.size_axis[k - 1]);
            }
            prev = d;
        }
        f64::INFINITY
    }

    fn area_weight(&self, v: VertexId) -> f64 {
        self.linear.area_weight(v)
    }

    fn area_sensitivities(&self, sizes: &[f64]) -> Vec<f64> {
        // Same block-triangular solve as the analytic models, with the
        // Jacobian read off the local bilinear patches: ∂delay_v/∂x_v is
        // the size slope s_v, ∂delay_v/∂x_j = g_v·a_vj via the load. With
        // M = −diag(x)·J this is Mᵀu = w, diag_i = −x_i·s_i,
        // coeff(j, a_ji) = x_j·g_j·a_ji, and C = x ∘ u.
        let n = self.num_vertices();
        let mut diag = vec![0.0f64; n];
        let mut gain = vec![0.0f64; n];
        for i in 0..n {
            let v = VertexId::new(i);
            let (s, g) = self.slopes(v, sizes[i], self.linear.load(v, sizes));
            diag[i] = -sizes[i] * s;
            assert!(
                diag[i] > 0.0,
                "delay table must decrease with size at {v} (slope {s})"
            );
            gain[i] = g * sizes[i];
        }
        let weights: Vec<f64> = (0..n)
            .map(|i| self.linear.area_weight(VertexId::new(i)))
            .collect();
        let u = self
            .linear
            .solve_transposed_with(&diag, |j, a| gain[j.index()] * a, &weights);
        u.iter()
            .zip(sizes.iter())
            .map(|(&ui, &xi)| ui * xi)
            .collect()
    }
}

/// 1-D clamped linear interpolation with an exact-node fast path, so grid
/// hits return the stored value bit-for-bit.
fn interp1(axis: &[f64], values: &[f64], x: f64) -> f64 {
    if let Some(i) = exact_index(axis, x) {
        return values[i];
    }
    let (k, t) = segment(axis, x);
    values[k] + t * (values[k + 1] - values[k])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DiffScratch, VertexCoefficients};

    /// v0 → v1 → v2 chain with distinct coefficients.
    fn chain() -> LinearDelayModel {
        let coefficients = vec![
            VertexCoefficients {
                intrinsic: 1.0,
                fixed: 2.0,
                terms: vec![(VertexId::new(1), 3.0)],
                area_weight: 2.0,
            },
            VertexCoefficients {
                intrinsic: 0.5,
                fixed: 1.0,
                terms: vec![(VertexId::new(2), 2.0)],
                area_weight: 4.0,
            },
            VertexCoefficients {
                intrinsic: 0.25,
                fixed: 4.0,
                terms: vec![],
                area_weight: 6.0,
            },
        ];
        LinearDelayModel::from_parts(coefficients, vec![vec![0], vec![1], vec![2]], 1.0, 64.0)
            .unwrap()
    }

    #[test]
    fn node_hits_reproduce_elmore_bitwise() {
        let linear = chain();
        let lut = LutDelayModel::sample_elmore(linear.clone(), 9, 9);
        // Min and max sizes are grid nodes; with every size at a node and
        // loads equal to the sampled extremes, lookups are exact.
        for sizes in [vec![1.0; 3], vec![64.0; 3]] {
            for i in 0..3 {
                let v = VertexId::new(i);
                assert_eq!(lut.delay(v, &sizes), linear.delay(v, &sizes));
            }
        }
    }

    #[test]
    fn off_grid_error_is_bounded() {
        let linear = chain();
        let lut = LutDelayModel::sample_elmore(linear.clone(), 33, 33);
        let sizes = [1.7, 5.3, 23.9];
        for i in 0..3 {
            let v = VertexId::new(i);
            let exact = linear.delay(v, &sizes);
            let approx = lut.delay(v, &sizes);
            assert!(
                ((approx - exact) / exact).abs() < 0.05,
                "vertex {i}: {approx} vs {exact}"
            );
            // Interpolating a convex function overestimates.
            assert!(approx >= exact - 1e-12);
        }
    }

    #[test]
    fn required_size_inverts_the_table() {
        let linear = chain();
        let lut = LutDelayModel::sample_elmore(linear, 17, 9);
        let sizes = [2.0, 3.0, 4.0];
        for i in 0..3 {
            let v = VertexId::new(i);
            let budget = lut.delay(v, &sizes) * 0.9;
            let x = lut.required_size(v, budget, &sizes);
            assert!(x.is_finite());
            let mut resized = sizes;
            resized[i] = x;
            let d = lut.delay(v, &resized);
            assert!((d - budget).abs() < 1e-9 || x == lut.size_axis()[0]);
            // Monotone in the budget.
            assert!(lut.required_size(v, budget * 1.05, &sizes) <= x);
        }
        // An impossible budget (below the intrinsic) is infeasible.
        assert_eq!(
            lut.required_size(VertexId::new(0), 0.5, &sizes),
            f64::INFINITY
        );
    }

    #[test]
    fn diffs_match_full_passes_bitwise() {
        let linear = chain();
        let lut = LutDelayModel::sample_elmore(linear, 9, 9);
        let mut sizes = vec![2.0, 3.0, 4.0];
        let mut delays = lut.delays(&sizes);
        let mut affected = Vec::new();
        let mut scratch = DiffScratch::new();
        for (step, &(v, x)) in [(1usize, 7.7f64), (0, 1.3), (2, 33.0), (1, 2.2)]
            .iter()
            .enumerate()
        {
            sizes[v] = x;
            lut.delays_diff(
                &[VertexId::new(v)],
                &sizes,
                &mut delays,
                &mut affected,
                &mut scratch,
            );
            let full = lut.delays(&sizes);
            assert_eq!(delays, full, "diverged at step {step}");
        }
    }

    #[test]
    fn sensitivities_match_the_analytic_model_on_grid() {
        // On a dense grid the LUT sensitivities approach the exact Elmore
        // ones (the patch slopes approach the true derivatives).
        let linear = chain();
        let lut = LutDelayModel::sample_elmore(linear.clone(), 513, 513);
        let sizes = [2.0, 3.0, 4.0];
        let exact = linear.area_sensitivities(&sizes);
        let approx = lut.area_sensitivities(&sizes);
        for i in 0..3 {
            assert!(
                ((approx[i] - exact[i]) / exact[i]).abs() < 0.02,
                "vertex {i}: {} vs {}",
                approx[i],
                exact[i]
            );
        }
    }

    #[test]
    fn table_file_round_trips_bitwise() {
        let linear = chain();
        let lut = LutDelayModel::sample_elmore(linear.clone(), 5, 4);
        let text = lut.to_table_string();
        let reloaded = LutDelayModel::with_tables_from_str(linear, &text).unwrap();
        assert_eq!(lut.size_axis, reloaded.size_axis);
        assert_eq!(lut.load_axes, reloaded.load_axes);
        assert_eq!(lut.tables, reloaded.tables);
        assert_eq!(text, reloaded.to_table_string());
    }

    #[test]
    fn malformed_tables_are_rejected() {
        let linear = chain();
        for text in [
            "",
            "mft-lut v2\nsizes 1 2",
            "mft-lut v1\nloads 1 2",
            "mft-lut v1\nsizes 1 2\nvertex 1\nloads 1 2\nrow 1 2\nrow 1 2",
            "mft-lut v1\nsizes 1 2\nvertex 0\nloads 1 2\nrow 1 nope\nrow 1 2",
            "mft-lut v1\nsizes 1 2\nvertex 0\nloads 1 2\nrow 1\nrow 1 2",
            "mft-lut v1\nsizes 2 1\nvertex 0\nloads 1 2\nrow 1 2\nrow 1 2",
        ] {
            assert!(
                matches!(
                    LutDelayModel::with_tables_from_str(linear.clone(), text),
                    Err(DelayError::Table { .. })
                ),
                "accepted: {text:?}"
            );
        }
        let err = LutDelayModel::from_grids(
            linear,
            vec![1.0, 2.0],
            vec![vec![1.0, 2.0]; 2],
            vec![vec![0.0; 4]; 2],
        )
        .unwrap_err();
        assert!(err.to_string().contains("load axes"));
    }
}
