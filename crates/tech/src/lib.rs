//! # mft-tech — technology library and power models
//!
//! MINFLOTRANSIT's optimizer is objective-agnostic: it minimizes
//! `Σ w_v · x_v` subject to a delay target, reading the weights only
//! through [`DelayModel::area_weight`](mft_delay::DelayModel) and
//! friends. This crate supplies the *technology* side of that contract:
//!
//! - [`Corner`] — a named process corner bundling the existing
//!   [`Technology`](mft_delay::Technology) electricals with per-unit-width
//!   [`PowerParams`] (leakage, switching energy, activity), a [`Vt`]
//!   flavor, and operating conditions;
//! - [`TechLibrary`] — the corner registry ([`TechLibrary::standard`]
//!   re-registers the three `Technology` presets), resolving
//!   `(corner, vt)` pairs from the CLI and the `load` wire request;
//! - [`PowerModel`] — per-vertex linear leakage + activity-weighted
//!   switching coefficients of a prepared circuit at a corner, with
//!   totals and per-gate breakdowns;
//! - [`PowerWeightedModel`] — a `DelayModel` wrapper that swaps the area
//!   objective for the power objective, turning the unchanged D/W
//!   iteration into power-minimal sizing (`size_power`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corner;
mod library;
mod power;

pub use corner::{Corner, PowerParams, TechError, Vt};
pub use library::TechLibrary;
pub use power::{PowerBreakdown, PowerModel, PowerWeightedModel};
