//! A prepared sizing problem: the netlist, its sizing DAG, the Elmore
//! model and the corner's power model, built once. Sizing runs through a
//! [`SizingSession`] opened over it ([`SizingProblem::session`]); a
//! prepared problem is also the unit the multi-circuit
//! [`crate::CircuitServer`] registers per `load`, reused by every
//! request the circuit's session serves.

use crate::error::MftError;
use crate::session::{SessionConfig, SizingSession};
use mft_circuit::{Netlist, SizingDag, SizingMode};
use mft_delay::{apply_default_loads, DelayModel, LinearDelayModel, Technology};
use mft_sta::critical_path;
use mft_tech::{Corner, PowerBreakdown, PowerModel};
use mft_tilos::minimum_sized_delay;

/// A ready-to-optimize sizing problem: netlist + DAG + Elmore model +
/// the corner's power model.
#[derive(Debug, Clone)]
pub struct SizingProblem {
    netlist: Netlist,
    dag: SizingDag,
    model: LinearDelayModel,
    dmin: f64,
    corner: Corner,
    power: PowerModel,
}

impl SizingProblem {
    /// Prepares a sizing problem: expands macro gates, applies default
    /// primary-output loads, builds the DAG in the requested mode and the
    /// Elmore delay model, and computes `D_min`.
    ///
    /// # Errors
    ///
    /// Propagates construction failures from the circuit and delay
    /// layers as [`MftError::Circuit`] / [`MftError::Delay`].
    pub fn prepare(
        netlist: &Netlist,
        tech: &Technology,
        mode: SizingMode,
    ) -> Result<Self, MftError> {
        // A bare Technology is an svt corner with default power
        // parameters — the delay side is bit-identical by construction.
        Self::prepare_corner(
            netlist,
            &Corner::from_technology("custom", tech.clone()),
            mode,
        )
    }

    /// Prepares a sizing problem at a technology [`Corner`] (typically
    /// resolved from the [`mft_tech::TechLibrary`]): the corner supplies
    /// both the delay electricals and the power parameters, so the same
    /// netlist loaded under two corners yields two distinct problems.
    ///
    /// # Errors
    ///
    /// As [`SizingProblem::prepare`], plus a corner that fails
    /// [`Corner::validate`].
    pub fn prepare_corner(
        netlist: &Netlist,
        corner: &Corner,
        mode: SizingMode,
    ) -> Result<Self, MftError> {
        corner.validate()?;
        let tech = &corner.tech;
        let mut netlist = if netlist.is_primitive() {
            netlist.clone()
        } else {
            netlist.expand_to_primitives()?
        };
        apply_default_loads(&mut netlist, tech);
        let dag = match mode {
            SizingMode::Gate => SizingDag::gate_mode(&netlist)?,
            SizingMode::GateWire => SizingDag::gate_mode_with_wires(&netlist)?,
            SizingMode::Transistor => SizingDag::transistor_mode(&netlist)?,
        };
        let model = LinearDelayModel::elmore(&netlist, &dag, tech)?;
        let dmin = minimum_sized_delay(&dag, &model).expect("DAG and model share shape");
        let power = PowerModel::build(&model, corner);
        Ok(SizingProblem {
            netlist,
            dag,
            model,
            dmin,
            corner: corner.clone(),
            power,
        })
    }

    /// The (expanded, annotated) netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The sizing DAG.
    pub fn dag(&self) -> &SizingDag {
        &self.dag
    }

    /// The Elmore delay model.
    pub fn model(&self) -> &LinearDelayModel {
        &self.model
    }

    /// Critical-path delay of the minimum-sized circuit (`D_min`).
    pub fn dmin(&self) -> f64 {
        self.dmin
    }

    /// The absolute delay target `spec · D_min` of a relative spec read
    /// from `field` (a request's `spec` or `specs[i]`, a CLI flag): the
    /// one place a spec becomes a target.
    ///
    /// # Errors
    ///
    /// [`MftError::Protocol`] naming `field` when the target is not
    /// finite: a finite spec such as `1e308` overflows it.
    pub fn spec_target(&self, field: &str, spec: f64) -> Result<f64, MftError> {
        let target = spec * self.dmin;
        if target.is_finite() {
            Ok(target)
        } else {
            Err(MftError::Protocol(format!(
                "`{field}` = {spec:e} overflows the target spec · D_min"
            )))
        }
    }

    /// Weighted area of the minimum-sized circuit.
    pub fn min_area(&self) -> f64 {
        let (min_size, _) = self.model.size_bounds();
        self.model.area(&vec![min_size; self.dag.num_vertices()])
    }

    /// The technology corner this problem was prepared at.
    pub fn corner(&self) -> &Corner {
        &self.corner
    }

    /// The corner's per-vertex power coefficients.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// Opens a [`SizingSession`] over a clone of this problem — the
    /// long-lived service handle that keeps the TILOS trajectory, flow
    /// network, SMP solver and timing engine warm across requests.
    /// (Use [`SizingProblem::into_session`] to avoid the clone.)
    pub fn session(&self, config: SessionConfig) -> SizingSession {
        SizingSession::new(self.clone(), config)
    }

    /// Opens a [`SizingSession`] that takes ownership of this problem.
    pub fn into_session(self, config: SessionConfig) -> SizingSession {
        SizingSession::new(self, config)
    }

    /// Critical-path delay of an arbitrary sizing of this problem.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` has the wrong length.
    pub fn delay_of(&self, sizes: &[f64]) -> f64 {
        critical_path(&self.dag, &self.model.delays(sizes)).expect("sizes match DAG")
    }

    /// Weighted area of an arbitrary sizing of this problem.
    pub fn area_of(&self, sizes: &[f64]) -> f64 {
        self.model.area(sizes)
    }

    /// Total power of an arbitrary sizing of this problem.
    pub fn power_of(&self, sizes: &[f64]) -> f64 {
        self.power.total_power(sizes)
    }

    /// Total power with its leakage/switching split.
    pub fn power_breakdown_of(&self, sizes: &[f64]) -> PowerBreakdown {
        self.power.breakdown(sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mft_circuit::{parse_bench, C17_BENCH};
    use mft_tilos::{TilosConfig, TilosState};

    #[test]
    fn c17_end_to_end() {
        let netlist = parse_bench("c17", C17_BENCH).unwrap();
        let tech = Technology::cmos_130nm();
        let problem = SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).unwrap();
        assert!(problem.dmin() > 0.0);
        let target = 0.7 * problem.dmin();
        let mut session = problem.session(SessionConfig::warm());
        let tilos = session.tilos_to(target).unwrap();
        let mft = session.size_to(target).unwrap();
        assert!(mft.achieved_delay <= target * (1.0 + 1e-6));
        assert!(mft.area <= tilos.area + 1e-9);
        // Sanity: delay_of/area_of agree with the solution's own numbers.
        assert!((problem.delay_of(&mft.sizes) - mft.achieved_delay).abs() < 1e-9);
        assert!((problem.area_of(&mft.sizes) - mft.area).abs() < 1e-9);
    }

    /// A new session's TILOS seed is a fresh `TilosState` advanced
    /// once, bitwise.
    #[test]
    fn cold_tilos_matches_direct_sizer() {
        let netlist = parse_bench("c17", C17_BENCH).unwrap();
        let tech = Technology::cmos_130nm();
        let problem = SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).unwrap();
        let target = 0.7 * problem.dmin();
        let wrapped = problem
            .session(SessionConfig::warm())
            .tilos_to(target)
            .unwrap();
        let direct = TilosState::new(problem.dag(), problem.model(), TilosConfig::default())
            .unwrap()
            .advance_to(problem.dag(), problem.model(), target)
            .unwrap();
        assert_eq!(wrapped.bumps, direct.bumps);
        assert_eq!(wrapped.area.to_bits(), direct.area.to_bits());
        assert_eq!(wrapped.sizes, direct.sizes);
    }

    #[test]
    fn macro_netlists_are_expanded() {
        let text = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
y = XOR(a, b)
";
        let netlist = parse_bench("xor", text).unwrap();
        let tech = Technology::cmos_130nm();
        let problem = SizingProblem::prepare(&netlist, &tech, SizingMode::Gate).unwrap();
        assert_eq!(problem.netlist().num_gates(), 4); // four NAND2s
        assert!(problem.netlist().is_primitive());
    }

    #[test]
    fn transistor_mode_pipeline() {
        let netlist = parse_bench("c17", C17_BENCH).unwrap();
        let tech = Technology::cmos_130nm();
        let problem = SizingProblem::prepare(&netlist, &tech, SizingMode::Transistor).unwrap();
        // 6 NAND2 gates → 24 transistors.
        assert_eq!(problem.dag().num_vertices(), 24);
        let target = 0.8 * problem.dmin();
        let sol = problem
            .session(SessionConfig::warm())
            .size_to(target)
            .unwrap();
        assert!(sol.achieved_delay <= target * (1.0 + 1e-6));
    }
}
