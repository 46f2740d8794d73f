//! A generalized monotonic delay model beyond Elmore.
//!
//! The paper stresses that MINFLOTRANSIT "can be adapted for more general
//! delay models than the Elmore delay model" — any decomposition into
//! simple monotonic functionals works. [`GeneralizedDelayModel`] demonstrates
//! this with
//!
//! ```text
//! delay(i) = p_i + (b_i + Σ_j a_ij x_j) / x_i^α ,   α > 0
//! ```
//!
//! where `α < 1` models sublinear drive-strength improvement (velocity
//! saturation in short-channel devices) and `α = 1` recovers the Elmore
//! model exactly. `g(x) = x^{−α}` is monotone decreasing and the load `q`
//! is monotone increasing, so Definition 1 is satisfied and the W-phase
//! remains a Simple Monotonic Program.

use crate::model::{DelayModel, LinearDelayModel};
use mft_circuit::VertexId;

/// [`LinearDelayModel`] with a drive-strength exponent `α`.
#[derive(Debug, Clone)]
pub struct GeneralizedDelayModel {
    linear: LinearDelayModel,
    alpha: f64,
}

impl GeneralizedDelayModel {
    /// Wraps a linear model with drive exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not strictly positive and finite.
    pub fn new(linear: LinearDelayModel, alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "alpha must be positive and finite"
        );
        GeneralizedDelayModel { linear, alpha }
    }

    /// The drive-strength exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The wrapped linear model.
    pub fn linear(&self) -> &LinearDelayModel {
        &self.linear
    }
}

impl DelayModel for GeneralizedDelayModel {
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
        self.linear.intrinsic(v) + self.linear.load(v, sizes) / sizes[v.index()].powf(self.alpha)
    }

    fn required_size(&self, v: VertexId, budget: f64, sizes: &[f64]) -> f64 {
        let excess = budget - self.linear.intrinsic(v);
        if excess <= 0.0 {
            return f64::INFINITY;
        }
        (self.linear.load(v, sizes) / excess).powf(1.0 / self.alpha)
    }

    fn area_weight(&self, v: VertexId) -> f64 {
        self.linear.area_weight(v)
    }

    fn area_sensitivities(&self, sizes: &[f64]) -> Vec<f64> {
        // First-order model: Δarea = −Σ C_i ΔD_i with C = −J^{-T}·w where
        // J is the Jacobian ∂delay/∂x:
        //   J_ii = −α (delay_i − p_i) / x_i,
        //   J_ij =  a_ij / x_i^α.
        // Solving Jᵀ u = −w via the shared block machinery with
        //   diag_i  = α (delay_i − p_i) / x_i,
        //   off(j→i) = a_ji / x_j^α .
        let n = self.num_vertices();
        let alpha = self.alpha;
        let diag: Vec<f64> = (0..n)
            .map(|i| {
                let v = VertexId::new(i);
                let excess = self.linear.load(v, sizes) / sizes[i].powf(alpha);
                alpha * excess / sizes[i]
            })
            .collect();
        let w: Vec<f64> = (0..n)
            .map(|i| self.linear.area_weight(VertexId::new(i)))
            .collect();
        self.linear
            .solve_transposed_with(&diag, |j, a| a / sizes[j.index()].powf(alpha), &w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VertexCoefficients;

    fn chain() -> LinearDelayModel {
        let coeffs = vec![
            VertexCoefficients {
                intrinsic: 0.5,
                fixed: 1.0,
                terms: vec![(VertexId::new(1), 2.0)],
                area_weight: 1.0,
            },
            VertexCoefficients {
                intrinsic: 0.25,
                fixed: 4.0,
                terms: vec![],
                area_weight: 1.0,
            },
        ];
        LinearDelayModel::from_parts(coeffs, vec![vec![0], vec![1]], 1.0, 64.0).unwrap()
    }

    #[test]
    fn alpha_one_matches_linear() {
        let linear = chain();
        let general = GeneralizedDelayModel::new(linear.clone(), 1.0);
        let sizes = [2.0, 3.0];
        for i in 0..2 {
            let v = VertexId::new(i);
            assert!((general.delay(v, &sizes) - linear.delay(v, &sizes)).abs() < 1e-12);
            assert!(
                (general.required_size(v, 3.0, &sizes) - linear.required_size(v, 3.0, &sizes))
                    .abs()
                    < 1e-12
            );
        }
        let cg = general.area_sensitivities(sizes.as_ref());
        let cl = linear.area_sensitivities(sizes.as_ref());
        for (a, b) in cg.iter().zip(cl.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn sublinear_drive_needs_larger_sizes() {
        let general = GeneralizedDelayModel::new(chain(), 0.8);
        let linear = chain();
        let sizes = [2.0, 3.0];
        let v = VertexId::new(0);
        // Same budget requires a bigger device when drive is sublinear
        // (for required sizes above 1).
        let rl = linear.required_size(v, 3.0, &sizes);
        let rg = general.required_size(v, 3.0, &sizes);
        assert!(rl > 1.0);
        assert!(rg > rl);
    }

    #[test]
    fn required_size_inverts_delay() {
        let general = GeneralizedDelayModel::new(chain(), 0.7);
        let sizes = [2.0, 3.0];
        let v = VertexId::new(0);
        let x = general.required_size(v, 2.5, &sizes);
        let mut s = sizes;
        s[0] = x;
        assert!((general.delay(v, &s) - 2.5).abs() < 1e-10);
    }

    #[test]
    fn sensitivities_match_finite_differences() {
        let general = GeneralizedDelayModel::new(chain(), 0.8);
        let sizes = vec![2.0, 3.0];
        let c = general.area_sensitivities(&sizes);
        let delays = general.delays(&sizes);
        let h = 1e-6;
        for k in 0..2 {
            let mut target = delays.clone();
            target[k] += h;
            let mut x = sizes.clone();
            for _ in 0..300 {
                for i in (0..2).rev() {
                    let v = VertexId::new(i);
                    x[i] = general.required_size(v, target[i], &x);
                }
            }
            let darea = general.area(&x) - general.area(&sizes);
            let predicted = -c[k] * h;
            assert!(
                (darea - predicted).abs() < 1e-8,
                "vertex {k}: fd {darea} vs predicted {predicted}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn zero_alpha_is_rejected() {
        let _ = GeneralizedDelayModel::new(chain(), 0.0);
    }
}
