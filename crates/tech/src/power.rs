//! Leakage + activity-weighted switching power, linear in device sizes.
//!
//! With per-unit-width parameters the total power of a sizing `x` is
//!
//! ```text
//! P(x) = Σ_v leak·w_v·x_v                                  (leakage)
//!      + Σ_i act_i·e·(c_drain·x_i + Σ_{j loads i} c_gate·x_j)   (switching)
//! ```
//!
//! where `w_v` is the area weight (transistor count), `act_i` the toggle
//! activity of vertex `i`, `e` the switching energy per fF, and the inner
//! sum runs over the fanouts whose gate capacitance vertex `i` switches.
//! Regrouping by the size each term multiplies, `P(x) = Σ_v pw_v·x_v` —
//! total power is **linear in sizes with heterogeneous weights**, exactly
//! the shape of the area objective under substituted weights. That is what
//! lets [`PowerWeightedModel`] reuse the entire D/W iteration, TILOS seed,
//! and sensitivity machinery unchanged for power-minimal sizing.

use crate::corner::Corner;
use mft_circuit::VertexId;
use mft_delay::{DelayModel, LinearDelayModel};

/// A power total split into its two components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// `leakage + switching`.
    pub total: f64,
    /// Size-proportional leakage power.
    pub leakage: f64,
    /// Activity-weighted switching power of the device capacitances.
    pub switching: f64,
}

/// Per-vertex linear power coefficients of a prepared circuit at a corner.
///
/// Built once per problem from any [`DelayModel`] (only the coupling lists
/// and area weights are read) plus the corner's [`crate::PowerParams`].
/// Fixed wire/primary-output loads carry no size coefficient and are
/// excluded: the model accounts the *device* power the optimizer can trade.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    leakage: Vec<f64>,
    switching: Vec<f64>,
    activity: Vec<f64>,
}

impl PowerModel {
    /// Builds the coefficients for `model` at `corner`.
    ///
    /// Vertex activities decay with logic depth:
    /// `act_v = activity · activity_decay^depth(v)`, where `depth` is the
    /// longest driver chain feeding `v` (depth 0 at the inputs). The decay
    /// makes the power weights genuinely heterogeneous, so the power
    /// argmin differs from the area argmin.
    pub fn build<M: DelayModel + ?Sized>(model: &M, corner: &Corner) -> Self {
        let n = model.num_vertices();
        let p = &corner.power;
        let depth = logic_depths(model);
        let activity: Vec<f64> = depth
            .iter()
            .map(|&d| p.activity * p.activity_decay.powi(d as i32))
            .collect();
        let c_gate = corner.tech.c_gate;
        let c_drain = corner.tech.c_drain;
        let mut leakage = vec![0.0f64; n];
        let mut switching = vec![0.0f64; n];
        for i in 0..n {
            let v = VertexId::new(i);
            leakage[i] = p.leakage * model.area_weight(v);
            // Gate cap of v is switched by every driver whose output v
            // loads — exactly the vertices that depend on x_v.
            let mut driver_activity = 0.0f64;
            for &u in model.dependents(v) {
                if u.index() != i {
                    driver_activity += activity[u.index()];
                }
            }
            switching[i] = p.switching_energy * (activity[i] * c_drain + c_gate * driver_activity);
        }
        PowerModel {
            leakage,
            switching,
            activity,
        }
    }

    /// Number of sizing vertices the model covers.
    pub fn num_vertices(&self) -> usize {
        self.leakage.len()
    }

    /// Toggle activity assigned to vertex `v`.
    pub fn activity(&self, v: VertexId) -> f64 {
        self.activity[v.index()]
    }

    /// The full linear power coefficient of `x_v` (leakage + switching).
    pub fn weight(&self, v: VertexId) -> f64 {
        self.leakage[v.index()] + self.switching[v.index()]
    }

    /// All linear coefficients, indexable by vertex — the substitute
    /// objective weights of [`PowerWeightedModel`].
    pub fn weights(&self) -> Vec<f64> {
        self.leakage
            .iter()
            .zip(self.switching.iter())
            .map(|(&l, &s)| l + s)
            .collect()
    }

    /// Power drawn by vertex `v` alone under `sizes`.
    pub fn vertex_power(&self, v: VertexId, sizes: &[f64]) -> f64 {
        self.weight(v) * sizes[v.index()]
    }

    /// Total leakage power of a sizing.
    pub fn leakage_power(&self, sizes: &[f64]) -> f64 {
        dot(&self.leakage, sizes)
    }

    /// Total switching power of a sizing.
    pub fn switching_power(&self, sizes: &[f64]) -> f64 {
        dot(&self.switching, sizes)
    }

    /// Total power of a sizing.
    pub fn total_power(&self, sizes: &[f64]) -> f64 {
        self.leakage_power(sizes) + self.switching_power(sizes)
    }

    /// Total power with its leakage/switching split.
    pub fn breakdown(&self, sizes: &[f64]) -> PowerBreakdown {
        let leakage = self.leakage_power(sizes);
        let switching = self.switching_power(sizes);
        PowerBreakdown {
            total: leakage + switching,
            leakage,
            switching,
        }
    }
}

fn dot(coeff: &[f64], sizes: &[f64]) -> f64 {
    assert_eq!(coeff.len(), sizes.len(), "size vector has the wrong length");
    coeff.iter().zip(sizes.iter()).map(|(&c, &x)| c * x).sum()
}

/// Longest driver-chain depth per vertex (0 at the inputs), walked over
/// [`DelayModel::dependents`] — the fanin relation of the coupling graph.
///
/// Transistor-mode models couple same-gate devices in both directions; the
/// iterative DFS ignores back edges (on-stack targets), so intra-gate
/// cycles contribute no depth and the walk terminates on any input.
fn logic_depths<M: DelayModel + ?Sized>(model: &M) -> Vec<u32> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = model.num_vertices();
    let mut depth = vec![0u32; n];
    let mut color = vec![WHITE; n];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if color[root] != WHITE {
            continue;
        }
        color[root] = GRAY;
        stack.push((root, 0));
        while let Some(top) = stack.last_mut() {
            let (v, child) = *top;
            let deps = model.dependents(VertexId::new(v));
            if child < deps.len() {
                top.1 += 1;
                let u = deps[child].index();
                if u != v && color[u] == WHITE {
                    color[u] = GRAY;
                    stack.push((u, 0));
                }
            } else {
                let mut d = 0u32;
                for &u in deps {
                    let u = u.index();
                    if u != v && color[u] == BLACK {
                        d = d.max(depth[u] + 1);
                    }
                }
                depth[v] = d;
                color[v] = BLACK;
                stack.pop();
            }
        }
    }
    depth
}

/// A [`LinearDelayModel`] with its area objective replaced by the power
/// objective — identical delays, bounds, and coupling, but `area_weight`,
/// `area`, and `area_sensitivities` read the [`PowerModel`] coefficients.
///
/// Because the optimizer, TILOS seed, and sensitivity cache consume the
/// objective *only* through those three methods, wrapping the problem's
/// model in `PowerWeightedModel` turns every area-minimizing code path
/// into a power-minimizing one with zero changes: the TILOS sensitivity
/// denominator becomes `Δpower` per bump, the D-phase objective
/// coefficients become power sensitivities, and the W-phase accepts on
/// power descent.
#[derive(Debug, Clone)]
pub struct PowerWeightedModel<'a> {
    linear: &'a LinearDelayModel,
    weights: Vec<f64>,
}

impl<'a> PowerWeightedModel<'a> {
    /// Wraps `linear` with the power objective of `power`.
    ///
    /// # Panics
    ///
    /// Panics if the two models disagree on the vertex count.
    pub fn new(linear: &'a LinearDelayModel, power: &PowerModel) -> Self {
        assert_eq!(
            linear.num_vertices(),
            power.num_vertices(),
            "power model built for a different circuit"
        );
        PowerWeightedModel {
            linear,
            weights: power.weights(),
        }
    }

    /// The wrapped delay model.
    pub fn linear(&self) -> &'a LinearDelayModel {
        self.linear
    }
}

impl DelayModel for PowerWeightedModel<'_> {
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
        self.linear.delay(v, sizes)
    }

    fn required_size(&self, v: VertexId, budget: f64, sizes: &[f64]) -> f64 {
        self.linear.required_size(v, budget, sizes)
    }

    fn area_weight(&self, v: VertexId) -> f64 {
        self.weights[v.index()]
    }

    fn area(&self, sizes: &[f64]) -> f64 {
        dot(&self.weights, sizes)
    }

    fn area_sensitivities(&self, sizes: &[f64]) -> Vec<f64> {
        let u = self.linear.solve_transposed(sizes, &self.weights);
        u.iter()
            .zip(sizes.iter())
            .map(|(&ui, &xi)| ui * xi)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corner::PowerParams;
    use mft_delay::VertexCoefficients;

    /// A three-stage chain: v0 → v1 → v2 (v0's load depends on x1, …).
    fn chain_model() -> LinearDelayModel {
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
        let blocks = vec![vec![0], vec![1], vec![2]];
        LinearDelayModel::from_parts(coefficients, blocks, 1.0, 64.0).unwrap()
    }

    fn corner() -> Corner {
        Corner::default()
    }

    #[test]
    fn depths_follow_the_driver_chain() {
        let model = chain_model();
        let pm = PowerModel::build(&model, &corner());
        // dependents(v1) = {v0}, dependents(v2) = {v1}: depth 0,1,2.
        let p = PowerParams::default();
        assert_eq!(pm.activity(VertexId::new(0)), p.activity);
        assert_eq!(pm.activity(VertexId::new(1)), p.activity * p.activity_decay);
        assert_eq!(
            pm.activity(VertexId::new(2)),
            p.activity * p.activity_decay.powi(2)
        );
    }

    #[test]
    fn totals_are_linear_in_sizes() {
        let model = chain_model();
        let pm = PowerModel::build(&model, &corner());
        let a = pm.breakdown(&[1.0, 1.0, 1.0]);
        let b = pm.breakdown(&[2.0, 2.0, 2.0]);
        assert!((b.total - 2.0 * a.total).abs() < 1e-12);
        assert!(a.leakage > 0.0 && a.switching > 0.0);
        assert_eq!(a.total, a.leakage + a.switching);
        let per_vertex: f64 = (0..3)
            .map(|i| pm.vertex_power(VertexId::new(i), &[1.0, 1.0, 1.0]))
            .sum();
        assert!((per_vertex - a.total).abs() < 1e-12);
    }

    #[test]
    fn weights_are_heterogeneous() {
        let model = chain_model();
        let pm = PowerModel::build(&model, &corner());
        let w = pm.weights();
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|&x| x > 0.0));
        assert!(w[0] != w[1] && w[1] != w[2]);
        // Power weights are not proportional to area weights.
        let aw = [2.0, 4.0, 6.0];
        assert!((w[0] / aw[0] - w[1] / aw[1]).abs() > 1e-9);
    }

    #[test]
    fn wrapper_preserves_delays_and_swaps_the_objective() {
        let model = chain_model();
        let pm = PowerModel::build(&model, &corner());
        let wrapped = PowerWeightedModel::new(&model, &pm);
        let sizes = [2.0, 3.0, 4.0];
        for i in 0..3 {
            let v = VertexId::new(i);
            assert_eq!(wrapped.delay(v, &sizes), model.delay(v, &sizes));
            assert_eq!(
                wrapped.required_size(v, 5.0, &sizes),
                model.required_size(v, 5.0, &sizes)
            );
            assert_eq!(wrapped.area_weight(v), pm.weight(v));
        }
        assert_eq!(wrapped.area(&sizes), pm.total_power(&sizes));
        assert!(wrapped.area(&sizes) != model.area(&sizes));
        // The trait's scoped update over the wrapper matches its full
        // pass bitwise.
        let mut sizes = sizes.to_vec();
        let mut delays = wrapped.delays(&sizes);
        let (mut affected, mut scratch) = (Vec::new(), mft_delay::DiffScratch::new());
        for (v, x) in [(1, 7.5), (0, 1.25), (2, 9.0)] {
            sizes[v] = x;
            wrapped.delays_diff(
                &[VertexId::new(v)],
                &sizes,
                &mut delays,
                &mut affected,
                &mut scratch,
            );
            let full = wrapped.delays(&sizes);
            for (a, b) in delays.iter().zip(full.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn wrapper_sensitivities_match_finite_differences() {
        let model = chain_model();
        let pm = PowerModel::build(&model, &corner());
        let wrapped = PowerWeightedModel::new(&model, &pm);
        let sizes = [2.0, 3.0, 4.0];
        let sens = wrapped.area_sensitivities(&sizes);
        // C_i ≈ −dP/dD_i along the budget-feasible manifold: perturb the
        // budget of one vertex, re-solve its size, track the power change.
        let delays: Vec<f64> = wrapped.delays(&sizes);
        let h = 1e-6;
        for i in 0..3 {
            let v = VertexId::new(i);
            let mut bumped = sizes.to_vec();
            // Loosen vertex i's budget by h: its own size shrinks.
            bumped[i] = wrapped.required_size(v, delays[i] + h, &sizes);
            // First-order: only x_i moves; dP = weight_i · dx_i.
            let dp = pm.weight(v) * (bumped[i] - sizes[i]);
            let direct = -dp / h;
            // The exact sensitivity also folds downstream re-sizing, so
            // only require the direct term as a lower bound and the same
            // sign/scale.
            assert!(sens[i] > 0.0);
            assert!(sens[i] >= direct - 1e-3, "{} < {}", sens[i], direct);
        }
    }

    #[test]
    fn depths_tolerate_intra_gate_cycles() {
        // Two mutually-coupled vertices (a transistor-mode gate block)
        // feeding a third: the 2-cycle must not hang or inflate depths.
        let coefficients = vec![
            VertexCoefficients {
                intrinsic: 1.0,
                fixed: 1.0,
                terms: vec![(VertexId::new(1), 1.0), (VertexId::new(2), 1.0)],
                area_weight: 1.0,
            },
            VertexCoefficients {
                intrinsic: 1.0,
                fixed: 1.0,
                terms: vec![(VertexId::new(0), 1.0), (VertexId::new(2), 1.0)],
                area_weight: 1.0,
            },
            VertexCoefficients {
                intrinsic: 1.0,
                fixed: 1.0,
                terms: vec![],
                area_weight: 1.0,
            },
        ];
        let blocks = vec![vec![0, 1], vec![2]];
        let model = LinearDelayModel::from_parts(coefficients, blocks, 1.0, 64.0).unwrap();
        let pm = PowerModel::build(&model, &corner());
        // v2 is loaded by both cycle members; its depth is 1 + the cycle's.
        assert!(pm.activity(VertexId::new(2)) < pm.activity(VertexId::new(0)));
        assert!(pm.weights().iter().all(|w| w.is_finite() && *w > 0.0));
    }
}
