//! The D-phase: delay-budget redistribution via the min-cost flow dual
//! (§2.3.1, problem (10)).
//!
//! With sizes held fixed, the change in total area for an infinitesimal
//! change of the delay budgets is linear: `Δarea = −Σ_i C_i·ΔD_i` with the
//! positive sensitivities `C_i` from the delay model (Eq. (7)). The
//! D-phase maximizes `Σ C_i ΔD_i` over *legal* budget changes, encoded on
//! the dummy-vertex-augmented circuit DAG:
//!
//! * every vertex `i` gets a companion `Dmy(i)`; the displacement
//!   difference `r(Dmy(i)) − r(i)` **is** the budget change `ΔD_i`;
//! * trust-region constraints `MINΔD(i) ≤ ΔD_i ≤ MAXΔD(i)` keep the
//!   first-order model valid (the paper's step (3));
//! * causality constraints `FSDU(Dmy(i)→j) + r(j) − r(Dmy(i)) ≥ 0` keep
//!   every FSDU non-negative, i.e. the balanced configuration legal and
//!   the critical path within the target (step (4) and Corollary 1);
//! * `r` is pinned to zero at the DAG sources and at the dummy sink `O`.
//!
//! Constants are integerized by power-of-ten scaling exactly as the paper
//! prescribes, and the LP is solved through its min-cost-flow dual with
//! integer potentials ([`mft_flow::DualLp`] frozen into a
//! [`mft_flow::DualSolver`]).
//!
//! # Persistent solving
//!
//! The constraint *graph* of the LP depends only on the DAG — the
//! optimizer's inner loop re-solves it "a few tens" of times with new
//! trust-region bounds, FSDU costs and sensitivities. [`DPhaseSolver`]
//! therefore splits construction from solving: [`DPhaseSolver::new`]
//! builds the dummy-augmented constraint graph and the flow network
//! topology **once**; each [`DPhaseSolver::solve`] only rewrites bounds,
//! costs and supplies in place (no allocation) and re-solves,
//! warm-starting the network simplex from the spanning tree the
//! previous solve left. The answer does not depend on that basis: `r`
//! is read from the flow certificate's potentials, the greatest optimal
//! dual that is `≤ 0`, which is a function of the LP alone (see
//! [`mft_flow::SimplexSolver`]). The LP is integral (integer bounds,
//! supplies quantized to 2^32 steps, uncapacitated arcs), so the
//! certificate reads its residual graph exactly. A warm solve therefore
//! returns bit-for-bit what a fresh solver's single solve returns.

use crate::error::MftError;
use mft_circuit::SizingDag;
use mft_flow::{DualLp, DualSolver, FlowAlgorithm, SolverStats};
use mft_sta::BalancedConfig;
use std::time::{Duration, Instant};

/// The result of one D-phase solve.
#[derive(Debug, Clone)]
pub struct DPhaseResult {
    /// Budget change per vertex (`ΔD_i`), in delay units.
    pub delta: Vec<f64>,
    /// The LP objective `Σ C_i·ΔD_i ≥ 0` — the predicted area recovery
    /// under the first-order model (before unscaling it is exact; the
    /// returned value is in area units).
    pub predicted_gain: f64,
    /// The power-of-ten scale factor used for integerization.
    pub scale: f64,
}

/// Construction-time options of a [`DPhaseSolver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DPhaseOptions {
    /// The min-cost-flow backend that solves the LP dual. It has the one
    /// value [`FlowAlgorithm::NetworkSimplex`] and selects nothing; the
    /// field is kept for callers that name it.
    pub algorithm: FlowAlgorithm,
    /// Significant decimal digits kept when integerizing constants.
    pub digits: u32,
    /// Read by nothing: every solve after the first warm-starts (see
    /// the module docs). The field stays only because the end-to-end
    /// benchmark's replay (`e2ebench/`) still sets it; the next change
    /// to that benchmark (the ROADMAP's replay-mirror item) deletes it.
    pub warm_start: bool,
}

impl Default for DPhaseOptions {
    fn default() -> Self {
        DPhaseOptions {
            algorithm: FlowAlgorithm::default(),
            digits: 6,
            warm_start: false,
        }
    }
}

/// Per-iteration inputs of one D-phase solve (everything that changes
/// between optimizer iterations; the params struct keeps the call
/// signatures small).
#[derive(Debug, Clone, Copy)]
pub struct DPhaseInputs<'a> {
    /// The `C_i > 0` area-sensitivity coefficients.
    pub sensitivities: &'a [f64],
    /// `delay(i) − p_i` per vertex (the sizable part of each delay); the
    /// trust region is `±trust_region · excess_i`.
    pub excess: &'a [f64],
    /// The balanced configuration capturing all slack.
    pub config: &'a BalancedConfig,
    /// Trust-region fraction `γ`.
    pub trust_region: f64,
}

/// Cumulative statistics of a [`DPhaseSolver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DPhaseStats {
    /// Flow-solver backend name: "network-simplex" once the solver has
    /// been built, "none" in a default value.
    pub backend: &'static str,
    /// The network simplex's cold/warm/fallback/repair counters,
    /// verbatim.
    pub flow: SolverStats,
    /// Total wall-clock time spent in [`DPhaseSolver::solve`].
    pub total_time: Duration,
    /// Wall-clock time of the most recent solve.
    pub last_time: Duration,
}

impl Default for DPhaseStats {
    fn default() -> Self {
        DPhaseStats {
            backend: "none",
            flow: SolverStats::default(),
            total_time: Duration::ZERO,
            last_time: Duration::ZERO,
        }
    }
}

impl DPhaseStats {
    /// Total solves performed.
    pub fn solves(&self) -> usize {
        self.flow.total()
    }

    /// The increments since `baseline` (an earlier snapshot of the same
    /// solver) — per-run attribution when one persistent solver is
    /// shared across optimizer runs, e.g. by a session sweep.
    pub fn since(&self, baseline: &DPhaseStats) -> DPhaseStats {
        DPhaseStats {
            backend: self.backend,
            flow: self.flow.since(&baseline.flow),
            total_time: self.total_time.saturating_sub(baseline.total_time),
            last_time: self.last_time,
        }
    }

    /// The element-wise sum of two counter sets, for accumulating
    /// per-run increments into a service-lifetime total. The backend
    /// name is taken from whichever side actually solved (`other` wins
    /// when both did).
    pub fn merged(&self, other: &DPhaseStats) -> DPhaseStats {
        DPhaseStats {
            backend: if other.backend == "none" {
                self.backend
            } else {
                other.backend
            },
            flow: self.flow.merged(&other.flow),
            total_time: self.total_time + other.total_time,
            last_time: if other.solves() > 0 {
                other.last_time
            } else {
                self.last_time
            },
        }
    }
}

/// The name [`DPhaseStats::backend`] reports for the network simplex.
const FLOW_BACKEND: &str = "network-simplex";

/// Sensitivities are quantized to this many steps of the largest one,
/// so supplies are integers (see [`DPhaseSolver::solve`]).
const SENS_QUANTUM: f64 = 4294967296.0; // 2^32

/// A persistent D-phase solver bound to one sizing DAG.
///
/// Construct once per optimization run; call [`DPhaseSolver::solve`]
/// every iteration.
#[derive(Debug)]
pub struct DPhaseSolver {
    n: usize,
    ground: usize,
    var_of_vertex: Vec<usize>,
    /// Edge endpoints `(i, j)` in [`SizingDag::edge_ids`] order.
    edges: Vec<(usize, usize)>,
    /// PO leaf vertices in [`SizingDag::po_leaves`] order.
    po_leaves: Vec<usize>,
    dual: DualSolver,
    digits: u32,
    stats: DPhaseStats,
}

impl DPhaseSolver {
    /// Builds the dummy-augmented constraint graph for `dag` and freezes
    /// it into a persistent flow solver.
    ///
    /// # Errors
    ///
    /// Propagates flow-layer construction failures (cannot occur for a
    /// well-formed DAG).
    pub fn new(dag: &SizingDag, options: DPhaseOptions) -> Result<Self, MftError> {
        let n = dag.num_vertices();
        // Variable layout: 0 = ground (the dummy sink O and all pinned DAG
        // sources), 1..=n map vertex i → 1+i unless i is a source (→
        // ground), and n+1+i maps Dmy(i).
        let ground = 0usize;
        let mut var_of_vertex: Vec<usize> = (0..n).map(|i| 1 + i).collect();
        for &s in dag.sources() {
            var_of_vertex[s.index()] = ground;
        }
        let var_of_dmy = |i: usize| -> usize { 1 + n + i };
        let num_vars = 1 + 2 * n;

        // Constraint layout (bounds rewritten every solve, in this same
        // order): per vertex i the pair (2i, 2i+1), then one per DAG
        // edge, then one per PO leaf.
        let mut lp = DualLp::new(num_vars);
        for (i, &vi) in var_of_vertex.iter().enumerate() {
            let di = var_of_dmy(i);
            lp.add_constraint(vi, di, 0).map_err(MftError::Flow)?;
            lp.add_constraint(di, vi, 0).map_err(MftError::Flow)?;
        }
        let mut edges = Vec::with_capacity(dag.num_edges());
        for e in dag.edge_ids() {
            let (i, j) = dag.edge(e);
            edges.push((i.index(), j.index()));
            lp.add_constraint(var_of_dmy(i.index()), var_of_vertex[j.index()], 0)
                .map_err(MftError::Flow)?;
        }
        let mut po_leaves = Vec::with_capacity(dag.po_leaves().len());
        for &v in dag.po_leaves() {
            po_leaves.push(v.index());
            lp.add_constraint(var_of_dmy(v.index()), ground, 0)
                .map_err(MftError::Flow)?;
        }
        let dual = lp.into_solver(ground).map_err(MftError::Flow)?;
        let stats = DPhaseStats {
            backend: FLOW_BACKEND,
            ..Default::default()
        };
        Ok(DPhaseSolver {
            n,
            ground,
            var_of_vertex,
            edges,
            po_leaves,
            dual,
            digits: options.digits,
            stats,
        })
    }

    /// Number of LP variables (ground + vertex + dummy companions).
    pub fn num_vars(&self) -> usize {
        1 + 2 * self.n
    }

    /// Cumulative solve statistics.
    pub fn stats(&self) -> DPhaseStats {
        self.stats
    }

    /// Rewrites bounds, costs and supplies for the current iteration and
    /// re-solves the LP.
    ///
    /// # Errors
    ///
    /// Propagates flow-solver failures; a well-formed balanced
    /// configuration never produces them (the LP is feasible at `r = 0`
    /// and bounded by the trust region).
    ///
    /// # Panics
    ///
    /// Panics if the input slices do not have one entry per DAG vertex.
    pub fn solve(&mut self, inputs: &DPhaseInputs<'_>) -> Result<DPhaseResult, MftError> {
        let started = Instant::now();
        let n = self.n;
        assert_eq!(inputs.sensitivities.len(), n, "one sensitivity per vertex");
        assert_eq!(inputs.excess.len(), n, "one excess delay per vertex");
        let config = inputs.config;

        // Integerization: scale every constant by a power of ten such
        // that the largest retains `digits` significant digits, then
        // round down (conservative: never loosens a bound).
        let mut max_const: f64 = 0.0;
        for &e in inputs.excess {
            max_const = max_const.max(inputs.trust_region * e);
        }
        for &f in config.fsdu.iter().chain(config.po_fsdu.iter()) {
            max_const = max_const.max(f);
        }
        let scale = power_of_ten_scale(max_const, self.digits);

        // Integerize the objective as well as the costs: sensitivities
        // are normalized to the largest and quantized to 2^32 steps. With
        // integer supplies every augmentation amount and every flow value
        // stays exactly representable in f64, so supplies ship *exactly*
        // and the strong-duality certificate holds to machine precision —
        // the same integerization idea the paper applies to the
        // constraint constants.
        let max_sens = inputs
            .sensitivities
            .iter()
            .cloned()
            .fold(0.0f64, f64::max)
            .max(1e-300);
        let var_of_dmy = |i: usize| -> usize { 1 + n + i };
        for i in 0..n {
            let vi = self.var_of_vertex[i];
            let di = var_of_dmy(i);
            let bound = (inputs.trust_region * inputs.excess[i] * scale)
                .floor()
                .max(0.0) as i64;
            // MINΔD(i) ≤ ΔD_i:  r(i) − r(Dmy(i)) ≤ −MINΔD(i) = bound.
            self.dual.set_bound(2 * i, bound).map_err(MftError::Flow)?;
            // ΔD_i ≤ MAXΔD(i):  r(Dmy(i)) − r(i) ≤ bound.
            self.dual
                .set_bound(2 * i + 1, bound)
                .map_err(MftError::Flow)?;
            // Objective: C_i · (r(Dmy(i)) − r(i)).
            let quantized = (inputs.sensitivities[i] / max_sens * SENS_QUANTUM).round();
            let quantized = if quantized > 0.0 { quantized } else { 0.0 };
            self.dual.set_objective(di, quantized);
            if vi != self.ground {
                self.dual.set_objective(vi, -quantized);
            }
        }
        let edge_base = 2 * n;
        for (k, _) in self.edges.iter().enumerate() {
            let fsdu = (config.fsdu[k] * scale).floor().max(0.0) as i64;
            // FSDU_r(Dmy(i)→j) ≥ 0: r(Dmy(i)) − r(j) ≤ FSDU.
            self.dual
                .set_bound(edge_base + k, fsdu)
                .map_err(MftError::Flow)?;
        }
        let po_base = edge_base + self.edges.len();
        for k in 0..self.po_leaves.len() {
            let fsdu = (config.po_fsdu[k] * scale).floor().max(0.0) as i64;
            // Dummy edge Dmy(v) → O with r(O) = 0.
            self.dual
                .set_bound(po_base + k, fsdu)
                .map_err(MftError::Flow)?;
        }

        let sol = self.dual.maximize().map_err(MftError::Flow)?;
        #[cfg(debug_assertions)]
        if let Err(e) = self.dual.verify(&sol) {
            panic!("D-phase LP certificate: {e}");
        }

        let mut delta = vec![0.0f64; n];
        for (i, d) in delta.iter_mut().enumerate() {
            let ri = if self.var_of_vertex[i] == self.ground {
                0
            } else {
                sol.r[self.var_of_vertex[i]]
            };
            let rd = sol.r[var_of_dmy(i)];
            *d = (rd - ri) as f64 / scale;
        }

        let elapsed = started.elapsed();
        self.stats = DPhaseStats {
            backend: FLOW_BACKEND,
            flow: self.dual.stats(),
            total_time: self.stats.total_time + elapsed,
            last_time: elapsed,
        };
        Ok(DPhaseResult {
            delta,
            predicted_gain: sol.objective * max_sens / (SENS_QUANTUM * scale),
            scale,
        })
    }

    /// Drops the network simplex's retained spanning tree; the next
    /// solve runs cold, to the same result (see the module docs).
    pub fn invalidate_warm_state(&mut self) {
        self.dual.invalidate();
    }

    /// Installs (or clears) a cooperative cancellation probe on the
    /// network simplex; a positive poll mid-solve surfaces as
    /// [`mft_flow::FlowError::Cancelled`] out of
    /// [`DPhaseSolver::solve`].
    pub fn set_cancel_probe(&mut self, probe: Option<mft_flow::ProbeHandle>) {
        self.dual.set_cancel_probe(probe);
    }
}

/// The power-of-ten scale giving `digits` significant digits to
/// `max_const` (clamped so costs stay far from `i64` overflow).
fn power_of_ten_scale(max_const: f64, digits: u32) -> f64 {
    if max_const <= 0.0 {
        return 10f64.powi(digits as i32);
    }
    let magnitude = max_const.log10().ceil() as i32;
    let exponent = (digits as i32 - magnitude).clamp(-12, 15);
    10f64.powi(exponent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mft_circuit::{NetlistBuilder, SizingDag};
    use mft_sta::{BalanceStyle, BalancedConfig};

    /// One solve of a fresh solver with the default options.
    fn solve_once(
        dag: &SizingDag,
        sensitivities: &[f64],
        excess: &[f64],
        config: &BalancedConfig,
        trust_region: f64,
    ) -> DPhaseResult {
        DPhaseSolver::new(dag, DPhaseOptions::default())
            .unwrap()
            .solve(&DPhaseInputs {
                sensitivities,
                excess,
                config,
                trust_region,
            })
            .unwrap()
    }

    /// Two-branch reconvergent DAG: slack sits on the short branch.
    fn diamond() -> SizingDag {
        let mut b = NetlistBuilder::new("d");
        let a = b.input("a");
        let g0 = b.inv(a).unwrap();
        let g1 = b.inv(g0).unwrap();
        let g2 = b.nand2(g0, g1).unwrap();
        b.output(g2, "o");
        SizingDag::gate_mode(&b.finish().unwrap()).unwrap()
    }

    #[test]
    fn scale_selection() {
        assert_eq!(power_of_ten_scale(1.0, 6), 1e6);
        assert_eq!(power_of_ten_scale(999.0, 6), 1e3);
        assert_eq!(power_of_ten_scale(0.001, 6), 1e9);
        assert_eq!(power_of_ten_scale(0.0, 6), 1e6);
    }

    #[test]
    fn slack_flows_to_the_highest_sensitivity() {
        let dag = diamond();
        // delays: g0 = 1, g1 = 1, g2 = 1. Critical path g0→g1→g2 = 3;
        // the g0→g2 edge has 1 unit of slack.
        let delays = vec![1.0, 1.0, 1.0];
        let cfg = BalancedConfig::balance(&dag, &delays, 3.0, BalanceStyle::Asap).unwrap();
        // Sensitivities: give g2 a big coefficient; the LP should hand the
        // available slack... g2 is on every path so it has no slack; g1
        // can only gain budget by stealing from g0/g2 (there is none).
        // Instead give g0 the large C: still none available — every ΔD
        // must be matched. With all paths tight, the optimum trades
        // between vertices. Here the only slack is on the g0→g2 edge,
        // usable by *nobody* alone... but g1 shares paths with it.
        let c = vec![1.0, 10.0, 1.0];
        let excess = vec![0.8, 0.8, 0.8];
        let r = solve_once(&dag, &c, &excess, &cfg, 0.5);
        // Giving g1 +δ requires g0 or g2 to give up δ (their C is 1 each,
        // g1's is 10) → profitable. The trust region caps δ at 0.4.
        assert!(r.predicted_gain > 0.0);
        assert!(r.delta[1] > 0.0);
        // Timing legality: the new budgets still balance within target.
        let new_delays: Vec<f64> = delays
            .iter()
            .zip(r.delta.iter())
            .map(|(d, dd)| d + dd)
            .collect();
        let cp = mft_sta::critical_path(&dag, &new_delays).unwrap();
        assert!(cp <= 3.0 + 1e-6, "cp {cp}");
    }

    #[test]
    fn zero_sensitivity_means_zero_gain() {
        let dag = diamond();
        let delays = vec![1.0, 1.0, 1.0];
        let cfg = BalancedConfig::balance(&dag, &delays, 3.0, BalanceStyle::Asap).unwrap();
        let c = vec![1.0, 1.0, 1.0];
        let excess = vec![0.5, 0.5, 0.5];
        // With equal sensitivities on a tight diamond, shifting budget
        // between vertices is zero-sum; gain comes only from consuming
        // slack (the loose edge) — g1 gaining means g0/g2 losing, net 0.
        let r = solve_once(&dag, &c, &excess, &cfg, 0.3);
        // Every unit moved is +1 somewhere and −1 elsewhere → gain 0, and
        // the LP settles for ΔD = 0... or any zero-sum shuffle.
        assert!(r.predicted_gain.abs() < 1e-9);
    }

    #[test]
    fn loose_target_grants_budget_everywhere() {
        let dag = diamond();
        let delays = vec![1.0, 1.0, 1.0];
        // Target 4: one unit of real slack to distribute.
        let cfg = BalancedConfig::balance(&dag, &delays, 4.0, BalanceStyle::Asap).unwrap();
        let c = vec![1.0, 1.0, 1.0];
        let excess = vec![1.0, 1.0, 1.0];
        let r = solve_once(&dag, &c, &excess, &cfg, 0.5);
        assert!(r.predicted_gain > 0.4);
        // All deltas legal: new critical path within 4.
        let new_delays: Vec<f64> = delays
            .iter()
            .zip(r.delta.iter())
            .map(|(d, dd)| d + dd)
            .collect();
        let cp = mft_sta::critical_path(&dag, &new_delays).unwrap();
        assert!(cp <= 4.0 + 1e-6);
        // Deltas respect the trust region.
        for (k, &d) in r.delta.iter().enumerate() {
            assert!(d <= 0.5 + 1e-9, "delta[{k}] = {d}");
            assert!(d >= -0.5 - 1e-9, "delta[{k}] = {d}");
        }
    }

    /// The reference solver's optimum of `solver`'s current LP, in the
    /// units of [`DPhaseResult::predicted_gain`].
    fn reference_gain(solver: &DPhaseSolver, sensitivities: &[f64], scale: f64) -> f64 {
        let flow = solver.dual.to_network().solve_reference().unwrap();
        let max_sens = sensitivities.iter().cloned().fold(0.0f64, f64::max);
        flow.total_cost * max_sens / (SENS_QUANTUM * scale)
    }

    /// A persistent solver re-solving with changed inputs, warm-started
    /// from its previous basis, matches a fresh solver bit for bit on
    /// every iteration, and its optimum is the reference solver's.
    #[test]
    fn persistent_solver_matches_one_shot_across_iterations() {
        let dag = diamond();
        let delays = vec![1.0, 1.0, 1.0];
        let mut solver = DPhaseSolver::new(&dag, DPhaseOptions::default()).unwrap();
        for (round, gamma) in [0.5, 0.3, 0.45, 0.2].into_iter().enumerate() {
            let target = 3.0 + 0.3 * round as f64;
            let cfg = BalancedConfig::balance(&dag, &delays, target, BalanceStyle::Asap).unwrap();
            let c = vec![1.0 + round as f64, 10.0, 1.0];
            let excess = vec![0.8, 0.8, 0.8];
            let one_shot = solve_once(&dag, &c, &excess, &cfg, gamma);
            let persistent = solver
                .solve(&DPhaseInputs {
                    sensitivities: &c,
                    excess: &excess,
                    config: &cfg,
                    trust_region: gamma,
                })
                .unwrap();
            assert_eq!(persistent.delta, one_shot.delta, "round {round}");
            assert_eq!(
                persistent.predicted_gain, one_shot.predicted_gain,
                "round {round}"
            );
            let reference = reference_gain(&solver, &c, persistent.scale);
            assert!(
                (persistent.predicted_gain - reference).abs() < 1e-9 * (1.0 + reference.abs()),
                "round {round}: simplex {} vs reference {reference}",
                persistent.predicted_gain
            );
        }
        let flow = solver.stats().flow;
        assert_eq!((flow.cold_solves, flow.warm_solves), (1, 3), "{flow:?}");
        assert_eq!(solver.stats().backend, "network-simplex");
    }

    /// Dropping the warm state changes how a solve starts, not what it
    /// returns: a solver invalidated before every solve and one that
    /// warm-starts every solve return the same deltas bit for bit, at
    /// the reference solver's optimum.
    #[test]
    fn invalidated_and_warm_solves_agree_bit_for_bit() {
        let dag = diamond();
        let delays = vec![1.0, 1.0, 1.0];
        let mut warm = DPhaseSolver::new(&dag, DPhaseOptions::default()).unwrap();
        let mut cold = DPhaseSolver::new(&dag, DPhaseOptions::default()).unwrap();
        for (round, gamma) in [0.5, 0.3, 0.45].into_iter().enumerate() {
            let cfg = BalancedConfig::balance(&dag, &delays, 3.2, BalanceStyle::Asap).unwrap();
            let c = vec![1.0, 10.0 - round as f64, 1.0 + round as f64];
            let excess = vec![0.8, 0.8, 0.8];
            let inputs = DPhaseInputs {
                sensitivities: &c,
                excess: &excess,
                config: &cfg,
                trust_region: gamma,
            };
            let got = warm.solve(&inputs).unwrap();
            cold.invalidate_warm_state();
            let want = cold.solve(&inputs).unwrap();
            assert_eq!(got.delta, want.delta, "round {round}");
            assert_eq!(got.predicted_gain, want.predicted_gain, "round {round}");
            let reference = reference_gain(&warm, &c, got.scale);
            assert!(
                (got.predicted_gain - reference).abs() < 1e-9 * (1.0 + reference.abs()),
                "round {round}: warm {} vs reference {reference}",
                got.predicted_gain
            );
        }
        let (warm, cold) = (warm.stats().flow, cold.stats().flow);
        assert_eq!((warm.cold_solves, warm.warm_solves), (1, 2), "{warm:?}");
        assert_eq!((cold.cold_solves, cold.warm_solves), (3, 0), "{cold:?}");
    }
}
