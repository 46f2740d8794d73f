//! A TILOS-style sensitivity-greedy sizer — the paper's baseline and the
//! source of MINFLOTRANSIT's initial solution.
//!
//! Following Fishburn/Dunlop's TILOS as described in the paper's §1 and
//! §3 (and in the paper's reference \[15\]): starting from a minimum-sized circuit,
//! repeatedly walk the critical path, compute for every element on it the
//! *sensitivity* — the reduction in path delay per unit of added area when
//! the element is bumped by a small constant factor (the paper uses 1.1) —
//! and bump the most sensitive element. Iterate until the timing target is
//! met or no bump helps.
//!
//! TILOS is fast and simple but greedy: the paper's Figure 6 example (one
//! driver feeding two parallel critical gates) shows how it can keep
//! bumping the two downstream gates when enlarging their common driver
//! would speed both paths at once. MINFLOTRANSIT's D-phase sees that
//! trade-off globally; this crate provides the baseline those comparisons
//! (Table 1, Figure 7) are made against.
//!
//! [`TilosState`] is the sizer: it holds one bump trajectory, which
//! [`TilosState::advance_to`] walks toward tighter targets and
//! [`TilosState::snapshot_at`] replays for targets already passed. A
//! one-shot run is a fresh state advanced once.
//!
//! Per-bump timing runs through [`mft_sta::IncrementalTiming`]: a bump's
//! delay churn (computed once via [`mft_delay::DelayModel::delays_diff`]
//! over the bumped vertex) seeds a levelized worklist that re-evaluates
//! arrival times only in the affected cone, and the critical path is
//! read off a bucketed max tracker — O(affected cone) per bump instead
//! of the historical two full O(V+E) passes, with
//! **bit-identical** results (the engine cuts off bitwise;
//! [`TilosConfig::cold_timing`] retains the full-recompute reference
//! path for differential tests and the `tilos_bump_loop` bench).
//!
//! # Examples
//!
//! ```
//! use mft_circuit::{NetlistBuilder, SizingDag};
//! use mft_delay::{apply_default_loads, DelayModel, LinearDelayModel, Technology};
//! use mft_sta::critical_path;
//! use mft_tilos::{TilosConfig, TilosState};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("chain");
//! let a = b.input("a");
//! let x = b.inv(a)?;
//! let y = b.inv(x)?;
//! b.output(y, "out");
//! let mut netlist = b.finish()?;
//! let tech = Technology::cmos_130nm();
//! apply_default_loads(&mut netlist, &tech);
//! let dag = SizingDag::gate_mode(&netlist)?;
//! let model = LinearDelayModel::elmore(&netlist, &dag, &tech)?;
//!
//! let dmin = critical_path(&dag, &model.delays(&vec![1.0; 2]))?;
//! let mut state = TilosState::new(&dag, &model, TilosConfig::default())?;
//! let result = state.advance_to(&dag, &model, 0.7 * dmin)?;
//! assert!(result.achieved_delay <= 0.7 * dmin + 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;
use mft_circuit::{SizingDag, VertexId};
use mft_delay::{DelayModel, DiffScratch};
use mft_sta::{
    critical_path, extract_critical_path, DenseBitSet, IncrementalTiming, StaError, TimingStats,
};
use std::error::Error;
use std::time::Instant;

/// Configuration of the TILOS loop.
#[derive(Debug, Clone, PartialEq)]
pub struct TilosConfig {
    /// Multiplicative bump applied to the chosen element (paper: 1.1).
    pub bump_factor: f64,
    /// Hard cap on the number of bumps (safety against pathological
    /// targets).
    pub max_bumps: usize,
    /// Run the reference cold timing path: re-extract the critical path
    /// and recompute `CP(G)` from scratch after every bump instead of
    /// through the incremental engine ([`mft_sta::IncrementalTiming`]).
    /// It also skips the sensitivity cache (see [`SensitivityStats`]),
    /// so it is the one unaccelerated reference: results are
    /// **bit-identical** either way. This switch exists for
    /// differential tests and the `tilos_bump_loop` benchmark, and must
    /// be chosen at [`TilosState::new`] time.
    pub cold_timing: bool,
    /// Accumulate a wall-clock split of the bump loop (sensitivity scan
    /// vs timing update), readable via
    /// [`TilosState::profile_seconds`]. Off by default: it puts two
    /// clock reads on every bump, which only the profiling benches
    /// want.
    pub profile_timing: bool,
}

impl Default for TilosConfig {
    fn default() -> Self {
        TilosConfig {
            bump_factor: 1.1,
            max_bumps: 2_000_000,
            cold_timing: false,
            profile_timing: false,
        }
    }
}

/// Relative timing tolerance for declaring a target met.
const REL_EPS: f64 = 1e-9;

mft_sta::counter_group! {
    /// Work counters of the incremental sensitivity cache.
    ///
    /// Outside [`TilosConfig::cold_timing`] mode the bump loop caches
    /// each candidate's sensitivity ratio. A hit returns the stored
    /// ratio, whose every input is unchanged since the store, so the
    /// trajectory is bit-identical to the cold reference's.
    ///
    /// A hit means a candidate's ratio was served from the cache (skipping
    /// its delay-model evaluations); a miss means it was (re)computed and
    /// stored; an invalidation means a previously cached ratio was
    /// discarded because a bump's affected cone or a critical-path
    /// membership flip touched the candidate's coupling cone. All zero in
    /// [`TilosConfig::cold_timing`] mode.
    pub struct SensitivityStats {
        /// Candidate evaluations served from the cache.
        pub hits: usize,
        /// Candidate evaluations computed and stored.
        pub misses: usize,
        /// Cached pairs discarded by cone intersection.
        pub invalidations: usize,
    }
}

/// Result of a successful TILOS run.
#[derive(Debug, Clone, PartialEq)]
pub struct TilosResult {
    /// Final element sizes.
    pub sizes: Vec<f64>,
    /// Critical path delay achieved (≤ target).
    pub achieved_delay: f64,
    /// Total weighted device area.
    pub area: f64,
    /// Number of bumps performed.
    pub bumps: usize,
}

/// Errors produced by the TILOS sizer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TilosError {
    /// The target cannot be met: every critical element is saturated or
    /// bumping no longer helps. Carries the best delay reached.
    Infeasible {
        /// Best critical-path delay achieved before giving up.
        best_delay: f64,
        /// The requested target.
        target: f64,
    },
    /// The bump budget was exhausted before meeting the target.
    BumpBudgetExhausted {
        /// Best critical-path delay achieved.
        best_delay: f64,
        /// Bumps performed.
        bumps: usize,
    },
    /// An underlying timing-analysis error.
    Sta(StaError),
    /// The run was stopped by the caller's cooperative cancellation
    /// probe (see [`TilosState::advance_to_with`]). The trajectory
    /// itself is fine — resuming with a later `advance_to` picks up
    /// exactly where the cancelled call stopped.
    Cancelled {
        /// Critical-path delay at the point of cancellation.
        best_delay: f64,
        /// Bumps performed along the trajectory so far.
        bumps: usize,
    },
}

impl fmt::Display for TilosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilosError::Infeasible { best_delay, target } => write!(
                f,
                "target {target} unreachable; best critical path {best_delay}"
            ),
            TilosError::BumpBudgetExhausted { best_delay, bumps } => {
                write!(
                    f,
                    "gave up after {bumps} bumps at critical path {best_delay}"
                )
            }
            TilosError::Sta(e) => write!(f, "timing analysis failed: {e}"),
            TilosError::Cancelled { best_delay, bumps } => {
                write!(
                    f,
                    "sizing cancelled after {bumps} bumps at critical path {best_delay}"
                )
            }
        }
    }
}

impl Error for TilosError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TilosError::Sta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StaError> for TilosError {
    fn from(e: StaError) -> Self {
        TilosError::Sta(e)
    }
}

/// A cooperative cancellation probe, polled at bump-loop boundaries by
/// [`TilosState::advance_to_with`]. A positive poll stops the run with
/// [`TilosError::Cancelled`]; the trajectory stays valid and resumable.
///
/// This crate-local trait mirrors `mft_flow::CancelProbe` so the sizer
/// stays dependency-free; `mft_core`'s `CancelToken` implements both.
pub trait CancelProbe: Send + Sync {
    /// Whether the computation should stop now.
    fn is_cancelled(&self) -> bool;
}

/// How many bumps pass between cancellation polls. A bump is cheap
/// (O(affected cone)), so checking every bump would put an atomic load
/// on the hot path for nothing; 256 bumps still bounds the response
/// latency well under a millisecond on any realistic circuit.
const CANCEL_POLL_BUMPS: usize = 256;

/// The TILOS sizer: the owned state of a resumable run — the bump
/// *trajectory* shared by every delay target.
///
/// TILOS's greedy choice — which element to bump next — depends only on
/// the current sizes and delays, never on the target; the target enters
/// solely as the stopping condition. The bump sequence is therefore
/// **target-independent**, and sizing to a sequence of successively
/// tighter targets amounts to taking snapshots of one trajectory.
///
/// The state borrows nothing: a long-lived service handle
/// (`mft_core`'s `SizingSession`) stores it alongside the problem it
/// holds. Every structural method takes the DAG and model again;
/// callers must always pass the pair the state was built for (checked
/// only by vertex count, like [`mft_sta::IncrementalTiming`]).
///
/// Two query paths cover every target order:
///
/// * [`TilosState::advance_to`] walks the trajectory forward to a
///   *tighter* target — bit-identical to a cold run (a fresh state
///   advanced once) when targets are visited loosest-first.
/// * [`TilosState::snapshot_at`] reconstructs the cold-equivalent
///   snapshot at any target the trajectory has **already passed**, by
///   replaying the recorded bump sequence (pure arithmetic: no timing
///   analysis at all). This is what makes a shared trajectory safe for
///   out-of-order request streams.
///
/// A whole area–delay sweep therefore pays the bump cost of its
/// *tightest* spec once instead of re-walking the prefix for every
/// point.
///
/// # Examples
///
/// ```
/// # use mft_circuit::{NetlistBuilder, SizingDag};
/// # use mft_delay::{apply_default_loads, LinearDelayModel, Technology};
/// # use mft_tilos::{minimum_sized_delay, TilosConfig, TilosState};
/// # let mut b = NetlistBuilder::new("t");
/// # let a = b.input("a");
/// # let g = b.inv(a).unwrap();
/// # let h = b.inv(g).unwrap();
/// # b.output(h, "o");
/// # let mut netlist = b.finish().unwrap();
/// # let tech = Technology::cmos_130nm();
/// # apply_default_loads(&mut netlist, &tech);
/// # let dag = SizingDag::gate_mode(&netlist).unwrap();
/// # let model = LinearDelayModel::elmore(&netlist, &dag, &tech).unwrap();
/// let dmin = minimum_sized_delay(&dag, &model).unwrap();
/// let mut state = TilosState::new(&dag, &model, TilosConfig::default()).unwrap();
/// let loose = state.advance_to(&dag, &model, 0.9 * dmin).unwrap();
/// let tight = state.advance_to(&dag, &model, 0.7 * dmin).unwrap(); // resumes, no re-walk
/// assert!(tight.bumps >= loose.bumps);
/// // Each snapshot equals a cold run: a fresh state advanced once.
/// let mut cold = TilosState::new(&dag, &model, TilosConfig::default()).unwrap();
/// assert_eq!(loose.sizes, cold.advance_to(&dag, &model, 0.9 * dmin).unwrap().sizes);
/// // The looser snapshot stays reachable from the bump log:
/// let replayed = state.snapshot_at(&model, 0.9 * dmin).unwrap();
/// assert_eq!(replayed.sizes, loose.sizes);
/// ```
#[derive(Debug, Clone)]
pub struct TilosState {
    config: TilosConfig,
    sizes: Vec<f64>,
    delays: Vec<f64>,
    /// Critical path of the minimum-sized circuit (before any bump).
    cp0: f64,
    cp: f64,
    bumps: usize,
    /// The bump log: `(bumped vertex, critical path after the bump)` —
    /// enough to replay any prefix of the trajectory without timing.
    history: Vec<(u32, f64)>,
    on_path: Vec<bool>,
    min_size: f64,
    max_size: f64,
    /// Latched once no bump improves the critical path: every tighter
    /// target is unreachable from here (the trajectory is a dead end).
    exhausted: bool,
    /// The incremental timing engine (absent in
    /// [`TilosConfig::cold_timing`] mode, where every bump recomputes
    /// from scratch).
    timing: Option<IncrementalTiming>,
    /// Work counters of the cold reference path (mirrors what the
    /// engine would report, so sweeps can compare like for like).
    cold_stats: TimingStats,
    /// Scratch buffers for [`DelayModel::delays_diff`].
    affected: Vec<VertexId>,
    diff_scratch: DiffScratch,
    // --- Incremental sensitivity cache (SoA; empty when disabled) ---
    /// Cached sensitivity ratios `-d_path / d_area`, valid where
    /// `sens_valid` is set. The quotient is cached rather than the
    /// pair so a hit is one load with no divide; it is bitwise what
    /// the scan would recompute because both operands are unchanged.
    sens_ratio: Vec<f64>,
    /// Cached area deltas, same validity — consulted only by the
    /// debug assertion guarding hit staleness.
    sens_d_area: Vec<f64>,
    /// Validity marks of the cache (bitset dirty-marks).
    sens_valid: DenseBitSet,
    /// Vertices of the previous critical path, for the incremental
    /// `on_path` diff (cached mode skips the historical O(n) clear).
    prev_path: Vec<u32>,
    /// Scratch membership marks of the new path during the diff.
    path_mark: DenseBitSet,
    /// Scratch list of path-membership flips between iterations.
    flips: Vec<VertexId>,
    sens_stats: SensitivityStats,
    /// Wall-clock split accumulators ([`TilosConfig::profile_timing`]).
    sens_seconds: f64,
    timing_seconds: f64,
}

impl TilosState {
    /// Starts a trajectory at the minimum-sized circuit.
    ///
    /// # Errors
    ///
    /// Propagates [`StaError`] from the initial timing analysis
    /// (impossible for a DAG and model built from the same netlist).
    pub fn new<M: DelayModel>(
        dag: &SizingDag,
        model: &M,
        config: TilosConfig,
    ) -> Result<Self, TilosError> {
        let (min_size, max_size) = model.size_bounds();
        let n = dag.num_vertices();
        let sizes = vec![min_size; n];
        let delays = model.delays(&sizes);
        let mut cold_stats = TimingStats::default();
        let (timing, cp) = if config.cold_timing {
            cold_stats.full_passes += 1;
            cold_stats.vertices_touched += n;
            (None, critical_path(dag, &delays)?)
        } else {
            let mut engine = IncrementalTiming::new(dag, &delays)?;
            let cp = engine.critical_path();
            (Some(engine), cp)
        };
        let cache_len = if timing.is_some() { n } else { 0 };
        Ok(TilosState {
            config,
            sizes,
            delays,
            cp0: cp,
            cp,
            bumps: 0,
            history: Vec::new(),
            on_path: vec![false; n],
            min_size,
            max_size,
            exhausted: false,
            timing,
            cold_stats,
            affected: Vec::new(),
            diff_scratch: DiffScratch::new(),
            sens_ratio: vec![0.0; cache_len],
            sens_d_area: vec![0.0; cache_len],
            sens_valid: DenseBitSet::new(cache_len),
            prev_path: Vec::new(),
            path_mark: DenseBitSet::new(cache_len),
            flips: Vec::new(),
            sens_stats: SensitivityStats::default(),
            sens_seconds: 0.0,
            timing_seconds: 0.0,
        })
    }

    /// Whether the sensitivity cache is active: everywhere but the cold
    /// reference mode.
    fn use_cache(&self) -> bool {
        self.timing.is_some()
    }

    /// Cached-mode `on_path` maintenance: diffs the new critical path
    /// against the previous one, flipping only the membership marks
    /// that actually changed (the cold reference clears all n marks per
    /// bump), and invalidates the cached sensitivity of every candidate
    /// coupled to a flipped vertex — a flip at `u` changes whether `u`
    /// contributes to the `d_path` of each `v ∈ load_deps(u)`.
    fn refresh_path_marks<M: DelayModel + ?Sized>(&mut self, model: &M, path: &[VertexId]) {
        for &v in path {
            self.path_mark.insert(v.index());
        }
        for k in 0..self.prev_path.len() {
            let i = self.prev_path[k] as usize;
            if !self.path_mark.contains(i) {
                self.on_path[i] = false;
                self.flips.push(VertexId::new(i));
            }
        }
        for &v in path {
            if !self.on_path[v.index()] {
                self.on_path[v.index()] = true;
                self.flips.push(v);
            }
            self.path_mark.remove(v.index());
        }
        self.prev_path.clear();
        self.prev_path.extend(path.iter().map(|v| v.index() as u32));
        for k in 0..self.flips.len() {
            let u = self.flips[k];
            for &w in model.load_deps(u) {
                if self.sens_valid.remove(w.index()) {
                    self.sens_stats.invalidations += 1;
                }
            }
        }
        self.flips.clear();
    }

    /// The configuration the trajectory runs with.
    pub fn config(&self) -> &TilosConfig {
        &self.config
    }

    /// Bumps performed so far along the trajectory.
    pub fn bumps(&self) -> usize {
        self.bumps
    }

    /// The current element sizes (after every bump so far).
    pub fn sizes(&self) -> &[f64] {
        &self.sizes
    }

    /// The current critical-path delay.
    pub fn critical_path(&self) -> f64 {
        self.cp
    }

    /// Timing-engine work counters accumulated so far (full passes,
    /// incremental waves, arrival-time evaluations). In
    /// [`TilosConfig::cold_timing`] mode the counters mirror the cold
    /// path's full recomputations instead.
    pub fn timing_stats(&self) -> TimingStats {
        match &self.timing {
            Some(engine) => engine.stats(),
            None => self.cold_stats,
        }
    }

    /// Sensitivity-cache work counters accumulated so far (all zero in
    /// [`TilosConfig::cold_timing`] mode).
    pub fn sensitivity_stats(&self) -> SensitivityStats {
        self.sens_stats
    }

    /// The accumulated wall-clock split of the bump loop as
    /// `(sensitivity_seconds, timing_seconds)` — the candidate scan
    /// (path marks + sensitivity evaluations) vs the post-bump delay
    /// diff and timing update. Both zero unless
    /// [`TilosConfig::profile_timing`] is on.
    pub fn profile_seconds(&self) -> (f64, f64) {
        (self.sens_seconds, self.timing_seconds)
    }

    /// Reconstructs the cold-equivalent snapshot at a target the
    /// trajectory has already reached, or `None` when `target` is
    /// tighter than the current critical path (advance further with
    /// [`TilosState::advance_to`]).
    ///
    /// A cold run at `target` stops after the first `k` bumps whose
    /// critical path meets the target; the bump log records
    /// exactly those critical paths, so the snapshot is found by scan
    /// and its size vector replayed by `k` multiply-and-clamp steps —
    /// **bit-identical** to the cold run, with zero timing analysis.
    pub fn snapshot_at<M: DelayModel>(&self, model: &M, target: f64) -> Option<TilosResult> {
        let tol = REL_EPS * target.abs().max(1.0);
        let k = if self.cp0 <= target + tol {
            0
        } else {
            self.history
                .iter()
                .position(|&(_, cp)| cp <= target + tol)?
                + 1
        };
        let mut sizes = vec![self.min_size; self.sizes.len()];
        for &(v, _) in &self.history[..k] {
            let x = &mut sizes[v as usize];
            *x = (*x * self.config.bump_factor).min(self.max_size);
        }
        let achieved_delay = if k == 0 {
            self.cp0
        } else {
            self.history[k - 1].1
        };
        Some(TilosResult {
            area: model.area(&sizes),
            achieved_delay,
            sizes,
            bumps: k,
        })
    }

    /// Advances the trajectory until the critical path meets `target`
    /// and snapshots the state as a [`TilosResult`] — bit-identical to a
    /// cold run (a fresh state advanced once) at `target` when targets
    /// are visited loosest-first. `dag` and `model` must be the pair the
    /// state was built for.
    ///
    /// # Errors
    ///
    /// * [`TilosError::Infeasible`] when no bump improves the critical
    ///   path any more (elements saturated at `max_size` or self-loading
    ///   dominating). Once it is returned, every subsequent (tighter)
    ///   target fails the same way without re-searching.
    /// * [`TilosError::BumpBudgetExhausted`] when `max_bumps` is reached.
    pub fn advance_to<M: DelayModel>(
        &mut self,
        dag: &SizingDag,
        model: &M,
        target: f64,
    ) -> Result<TilosResult, TilosError> {
        self.advance_to_with(dag, model, target, None)
    }

    /// [`TilosState::advance_to`] with a cooperative cancellation probe,
    /// polled every 256 bumps. A positive poll stops
    /// the run with [`TilosError::Cancelled`]; the trajectory is left
    /// valid at the bump it reached, so a later `advance_to` resumes
    /// (and remains bit-identical to an uninterrupted run).
    ///
    /// # Errors
    ///
    /// As [`TilosState::advance_to`], plus [`TilosError::Cancelled`].
    pub fn advance_to_with<M: DelayModel>(
        &mut self,
        dag: &SizingDag,
        model: &M,
        target: f64,
        probe: Option<&dyn CancelProbe>,
    ) -> Result<TilosResult, TilosError> {
        let tol = REL_EPS * target.abs().max(1.0);
        while self.cp > target + tol {
            if let Some(p) = probe {
                if self.bumps.is_multiple_of(CANCEL_POLL_BUMPS) && p.is_cancelled() {
                    return Err(TilosError::Cancelled {
                        best_delay: self.cp,
                        bumps: self.bumps,
                    });
                }
            }
            if self.bumps >= self.config.max_bumps {
                return Err(TilosError::BumpBudgetExhausted {
                    best_delay: self.cp,
                    bumps: self.bumps,
                });
            }
            if self.exhausted {
                return Err(TilosError::Infeasible {
                    best_delay: self.cp,
                    target,
                });
            }
            // The tracker's path, not a fresh full extraction: the
            // engine already holds the arrival profile of the current
            // sizing, so this is O(path), not O(V+E).
            let path = match &mut self.timing {
                Some(engine) => engine.extract_critical_path(dag),
                None => {
                    self.cold_stats.full_passes += 1;
                    self.cold_stats.vertices_touched += self.sizes.len();
                    extract_critical_path(dag, &self.delays)?
                }
            };
            let use_cache = self.use_cache();
            let scan_start = self.config.profile_timing.then(Instant::now);
            if use_cache {
                // Incremental path marks: clear only the previous
                // path's entries and invalidate cached sensitivities
                // around membership flips — no O(n) sweep per bump.
                self.refresh_path_marks(model, &path);
            } else {
                self.on_path.iter_mut().for_each(|m| *m = false);
                for &v in &path {
                    self.on_path[v.index()] = true;
                }
            }
            // Evaluate the sensitivity of each candidate on the path.
            let mut best: Option<(f64, VertexId)> = None;
            for &v in &path {
                let x = self.sizes[v.index()];
                if x >= self.max_size * (1.0 - 1e-12) {
                    continue;
                }
                let sensitivity = if use_cache && self.sens_valid.contains(v.index()) {
                    // Cache hit: every input of the stored ratio is
                    // unchanged since it was stored (the invalidation
                    // rule below covers them all, and a bump of `v`
                    // itself lands `v` in `affected`), so it is
                    // bitwise what the scan would recompute — and the
                    // `d_area > 0` guard held at store time, so it
                    // holds now too.
                    self.sens_stats.hits += 1;
                    debug_assert_eq!(
                        self.sens_d_area[v.index()].to_bits(),
                        (model.area_weight(v)
                            * ((x * self.config.bump_factor).min(self.max_size) - x))
                            .to_bits()
                    );
                    self.sens_ratio[v.index()]
                } else {
                    let bumped = (x * self.config.bump_factor).min(self.max_size);
                    let d_area = model.area_weight(v) * (bumped - x);
                    if d_area <= 0.0 {
                        continue;
                    }
                    // Path-delay change: the candidate itself speeds
                    // up, every on-path dependent (typically its
                    // critical fanin) slows down from the added load.
                    let old_self = self.delays[v.index()];
                    self.sizes[v.index()] = bumped;
                    let mut d_path = model.delay(v, &self.sizes) - old_self;
                    for &u in model.dependents(v) {
                        if self.on_path[u.index()] && u != v {
                            d_path += model.delay(u, &self.sizes) - self.delays[u.index()];
                        }
                    }
                    self.sizes[v.index()] = x;
                    let sensitivity = -d_path / d_area;
                    if use_cache {
                        self.sens_stats.misses += 1;
                        self.sens_ratio[v.index()] = sensitivity;
                        self.sens_d_area[v.index()] = d_area;
                        self.sens_valid.insert(v.index());
                    }
                    sensitivity
                };
                if sensitivity > best.map_or(0.0, |(s, _)| s) {
                    best = Some((sensitivity, v));
                }
            }
            if let Some(t) = scan_start {
                self.sens_seconds += t.elapsed().as_secs_f64();
            }
            let Some((_, v)) = best else {
                self.exhausted = true;
                return Err(TilosError::Infeasible {
                    best_delay: self.cp,
                    target,
                });
            };
            // Apply the bump: the delay model recomputes exactly the
            // perturbed delays, which seed the timing engine's worklist
            // — the whole step costs O(affected cone), not O(V+E).
            let update_start = self.config.profile_timing.then(Instant::now);
            self.sizes[v.index()] =
                (self.sizes[v.index()] * self.config.bump_factor).min(self.max_size);
            model.delays_diff(
                &[v],
                &self.sizes,
                &mut self.delays,
                &mut self.affected,
                &mut self.diff_scratch,
            );
            if use_cache {
                // Invalidate every candidate whose pair reads state the
                // bump moved: the affected vertices themselves (their
                // size, own delay or dependents' delays changed) and
                // anything coupled to an affected vertex (its cached
                // dependent-term sum read that vertex's delay).
                for &u in &self.affected {
                    if self.sens_valid.remove(u.index()) {
                        self.sens_stats.invalidations += 1;
                    }
                    for &w in model.load_deps(u) {
                        if self.sens_valid.remove(w.index()) {
                            self.sens_stats.invalidations += 1;
                        }
                    }
                }
            }
            match &mut self.timing {
                Some(engine) => {
                    for &u in &self.affected {
                        engine.set_delay(dag, u, self.delays[u.index()]);
                    }
                    engine.propagate(dag);
                    self.cp = engine.critical_path();
                }
                None => {
                    self.cold_stats.full_passes += 1;
                    self.cold_stats.vertices_touched += self.sizes.len();
                    self.cp = critical_path(dag, &self.delays)?;
                }
            }
            if let Some(t) = update_start {
                self.timing_seconds += t.elapsed().as_secs_f64();
            }
            self.bumps += 1;
            self.history.push((v.index() as u32, self.cp));
        }
        Ok(TilosResult {
            area: model.area(&self.sizes),
            achieved_delay: self.cp,
            sizes: self.sizes.clone(),
            bumps: self.bumps,
        })
    }
}

/// The critical-path delay of the minimum-sized circuit (the paper's
/// `D_min`, the normalization point of Table 1 and Figure 7).
///
/// # Errors
///
/// Propagates [`StaError`] on shape mismatches (impossible for a DAG and
/// model built from the same netlist).
pub fn minimum_sized_delay<M: DelayModel>(dag: &SizingDag, model: &M) -> Result<f64, StaError> {
    let (min_size, _) = model.size_bounds();
    let sizes = vec![min_size; dag.num_vertices()];
    critical_path(dag, &model.delays(&sizes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mft_circuit::{GateKind, Netlist, NetlistBuilder};
    use mft_delay::{apply_default_loads, LinearDelayModel, Technology};

    fn chain(len: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let mut prev = b.input("a");
        for _ in 0..len {
            prev = b.inv(prev).unwrap();
        }
        b.output(prev, "out");
        b.finish().unwrap()
    }

    /// A cold run: a fresh trajectory advanced once to `target`.
    fn cold_run<M: DelayModel>(
        dag: &SizingDag,
        model: &M,
        target: f64,
    ) -> Result<TilosResult, TilosError> {
        TilosState::new(dag, model, TilosConfig::default())?.advance_to(dag, model, target)
    }

    fn setup(netlist: &mut Netlist) -> (SizingDag, LinearDelayModel) {
        let tech = Technology::cmos_130nm();
        apply_default_loads(netlist, &tech);
        let dag = SizingDag::gate_mode(netlist).unwrap();
        let model = LinearDelayModel::elmore(netlist, &dag, &tech).unwrap();
        (dag, model)
    }

    #[test]
    fn already_fast_circuit_stays_minimum() {
        let mut n = chain(4);
        let (dag, model) = setup(&mut n);
        let dmin = minimum_sized_delay(&dag, &model).unwrap();
        let r = cold_run(&dag, &model, dmin * 1.01).unwrap();
        assert_eq!(r.bumps, 0);
        assert_eq!(r.sizes, vec![1.0; dag.num_vertices()]);
    }

    #[test]
    fn meets_tighter_targets_with_more_area() {
        let mut n = chain(8);
        let (dag, model) = setup(&mut n);
        let dmin = minimum_sized_delay(&dag, &model).unwrap();
        // Note: an 8-stage chain with max_size 64 bottoms out near
        // 0.68·Dmin (the optimal taper), so 0.72 is a *tight* target.
        let loose = cold_run(&dag, &model, 0.85 * dmin).unwrap();
        let tight = cold_run(&dag, &model, 0.72 * dmin).unwrap();
        assert!(loose.achieved_delay <= 0.85 * dmin + 1e-9);
        assert!(tight.achieved_delay <= 0.72 * dmin + 1e-9);
        assert!(tight.area > loose.area);
        assert!(tight.bumps > loose.bumps);
    }

    #[test]
    fn impossible_target_is_reported() {
        let mut n = chain(4);
        let (dag, model) = setup(&mut n);
        let dmin = minimum_sized_delay(&dag, &model).unwrap();
        // Far below the intrinsic-delay floor of the chain.
        let err = cold_run(&dag, &model, 0.001 * dmin).unwrap_err();
        match err {
            TilosError::Infeasible { best_delay, .. } => assert!(best_delay > 0.0),
            TilosError::BumpBudgetExhausted { .. } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn figure6_style_circuit_sizes_the_common_driver_eventually() {
        // One driver A feeding two identical NAND branches (the paper's
        // Figure 6). TILOS must bump *something* on the critical path each
        // round; eventually A grows too because its load grows.
        let mut b = NetlistBuilder::new("fig6");
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let a = b.inv(i0).unwrap();
        let x = b.gate(GateKind::Nand(2), &[a, i1]).unwrap();
        let y = b.gate(GateKind::Nand(2), &[a, i1]).unwrap();
        b.output(x, "x");
        b.output(y, "y");
        let mut n = b.finish().unwrap();
        let (dag, model) = setup(&mut n);
        let dmin = minimum_sized_delay(&dag, &model).unwrap();
        let r = cold_run(&dag, &model, 0.55 * dmin).unwrap();
        assert!(r.achieved_delay <= 0.55 * dmin + 1e-9);
        // The driver was enlarged beyond minimum.
        assert!(r.sizes[0] > 1.0);
    }

    #[test]
    fn monotone_area_vs_target_curve() {
        let mut n = chain(6);
        let (dag, model) = setup(&mut n);
        let dmin = minimum_sized_delay(&dag, &model).unwrap();
        let mut last_area = 0.0;
        for spec in [0.95, 0.9, 0.85, 0.8] {
            let r = cold_run(&dag, &model, spec * dmin).unwrap();
            assert!(
                r.area + 1e-9 >= last_area,
                "tighter spec should not shrink area"
            );
            last_area = r.area;
        }
    }

    #[test]
    fn transistor_mode_sizing_works() {
        let mut b = NetlistBuilder::new("tmode");
        let p: Vec<_> = (0..3).map(|i| b.input(format!("i{i}"))).collect();
        let g1 = b.gate(GateKind::Nand(3), &[p[0], p[1], p[2]]).unwrap();
        let g2 = b.inv(g1).unwrap();
        b.output(g2, "out");
        let mut n = b.finish().unwrap();
        let tech = Technology::cmos_130nm();
        apply_default_loads(&mut n, &tech);
        let dag = SizingDag::transistor_mode(&n).unwrap();
        let model = LinearDelayModel::elmore(&n, &dag, &tech).unwrap();
        let dmin = minimum_sized_delay(&dag, &model).unwrap();
        let r = cold_run(&dag, &model, 0.7 * dmin).unwrap();
        assert!(r.achieved_delay <= 0.7 * dmin + 1e-9);
        assert!(r.area > model.area(&vec![1.0; dag.num_vertices()]));
    }

    #[test]
    fn error_display() {
        let e = TilosError::Infeasible {
            best_delay: 5.0,
            target: 1.0,
        };
        assert!(e.to_string().contains("unreachable"));
    }

    /// Loosest-first trajectory snapshots are bit-identical to cold
    /// per-target runs — the exactness guarantee a session sweep's
    /// cross-target TILOS reuse rests on.
    #[test]
    fn trajectory_snapshots_match_cold_runs_bitwise() {
        let mut n = chain(8);
        let (dag, model) = setup(&mut n);
        let dmin = minimum_sized_delay(&dag, &model).unwrap();
        let specs = [0.95, 0.85, 0.7, 0.6, 0.5];
        let mut traj = TilosState::new(&dag, &model, TilosConfig::default()).unwrap();
        let mut last_bumps = 0;
        for &spec in &specs {
            let target = spec * dmin;
            let warm = traj.advance_to(&dag, &model, target).unwrap();
            let cold = cold_run(&dag, &model, target).unwrap();
            assert_eq!(warm.bumps, cold.bumps, "spec {spec}");
            assert_eq!(warm.area.to_bits(), cold.area.to_bits(), "spec {spec}");
            assert_eq!(
                warm.achieved_delay.to_bits(),
                cold.achieved_delay.to_bits(),
                "spec {spec}"
            );
            for (i, (a, b)) in warm.sizes.iter().zip(cold.sizes.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "spec {spec} size[{i}]");
            }
            assert!(warm.bumps >= last_bumps, "trajectory only moves forward");
            last_bumps = warm.bumps;
        }
        assert_eq!(traj.bumps(), last_bumps);
    }

    /// The incremental timing engine changes nothing observable: a
    /// trajectory run with [`TilosConfig::cold_timing`] (full
    /// recomputation after every bump) produces bit-identical sizes,
    /// delay and bump counts — while touching far fewer vertices.
    #[test]
    fn incremental_timing_matches_cold_reference_bitwise() {
        let mut n = chain(8);
        let (dag, model) = setup(&mut n);
        let dmin = minimum_sized_delay(&dag, &model).unwrap();
        let cold_cfg = TilosConfig {
            cold_timing: true,
            ..Default::default()
        };
        let mut warm = TilosState::new(&dag, &model, TilosConfig::default()).unwrap();
        let mut cold = TilosState::new(&dag, &model, cold_cfg).unwrap();
        for spec in [0.9, 0.75, 0.7] {
            let w = warm.advance_to(&dag, &model, spec * dmin).unwrap();
            let c = cold.advance_to(&dag, &model, spec * dmin).unwrap();
            assert_eq!(w.bumps, c.bumps, "spec {spec}");
            assert_eq!(
                w.achieved_delay.to_bits(),
                c.achieved_delay.to_bits(),
                "spec {spec}"
            );
            for (i, (a, b)) in w.sizes.iter().zip(c.sizes.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "spec {spec} size[{i}]");
            }
        }
        // The incremental engine ran exactly one full pass (construction)
        // and did measurably less arrival work than the cold reference.
        let ws = warm.timing_stats();
        let cs = cold.timing_stats();
        assert_eq!(ws.full_passes, 1);
        assert_eq!(ws.incremental_passes, warm.bumps());
        assert_eq!(cs.full_passes, 1 + 2 * cold.bumps());
        assert!(
            ws.vertices_touched < cs.vertices_touched,
            "incremental {ws:?} vs cold {cs:?}"
        );
    }

    /// `snapshot_at` reconstructs bit-identical cold snapshots at every
    /// already-passed target — including targets never explicitly
    /// requested — with zero additional timing work.
    #[test]
    fn snapshot_replay_matches_cold_runs_bitwise() {
        let mut n = chain(8);
        let (dag, model) = setup(&mut n);
        let dmin = minimum_sized_delay(&dag, &model).unwrap();
        let mut traj = TilosState::new(&dag, &model, TilosConfig::default()).unwrap();
        // Tighter than the snapshot queries below, so every query hits
        // the recorded prefix.
        traj.advance_to(&dag, &model, 0.7 * dmin).unwrap();
        let work_before = traj.timing_stats();
        for spec in [1.1, 0.95, 0.9, 0.8, 0.75, 0.7] {
            let target = spec * dmin;
            let snap = traj
                .snapshot_at(&model, target)
                .expect("target already passed");
            let cold = cold_run(&dag, &model, target).unwrap();
            assert_eq!(snap.bumps, cold.bumps, "spec {spec}");
            assert_eq!(snap.area.to_bits(), cold.area.to_bits(), "spec {spec}");
            assert_eq!(
                snap.achieved_delay.to_bits(),
                cold.achieved_delay.to_bits(),
                "spec {spec}"
            );
            for (i, (a, b)) in snap.sizes.iter().zip(cold.sizes.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "spec {spec} size[{i}]");
            }
        }
        // Replays are pure arithmetic: no timing analysis happened.
        assert_eq!(traj.timing_stats(), work_before);
        // A target tighter than the frontier is not served.
        assert!(traj.snapshot_at(&model, 0.5 * dmin).is_none());
    }

    /// The sensitivity cache changes nothing observable: the default
    /// trajectory and the cold reference produce bit-identical sizes,
    /// delays and bump logs across a multi-target sweep — while the
    /// cached run serves a measurable share of its candidate
    /// evaluations from the cache.
    #[test]
    fn sensitivity_cache_matches_uncached_bitwise() {
        let mut b = NetlistBuilder::new("mesh");
        let inputs: Vec<_> = (0..5).map(|i| b.input(format!("i{i}"))).collect();
        let mut layer = inputs;
        for _ in 0..6 {
            let mut next = Vec::new();
            for w in layer.windows(2) {
                next.push(b.gate(GateKind::Nand(2), &[w[0], w[1]]).unwrap());
            }
            if next.len() < 2 {
                break;
            }
            layer = next;
        }
        for (k, &g) in layer.iter().enumerate() {
            b.output(g, format!("o{k}"));
        }
        let mut n = b.finish().unwrap();
        let (dag, model) = setup(&mut n);
        let dmin = minimum_sized_delay(&dag, &model).unwrap();
        let uncached_cfg = TilosConfig {
            cold_timing: true,
            ..Default::default()
        };
        let mut cached = TilosState::new(&dag, &model, TilosConfig::default()).unwrap();
        let mut uncached = TilosState::new(&dag, &model, uncached_cfg).unwrap();
        for spec in [0.9, 0.8, 0.7, 0.6] {
            let a = cached.advance_to(&dag, &model, spec * dmin).unwrap();
            let b = uncached.advance_to(&dag, &model, spec * dmin).unwrap();
            assert_eq!(a.bumps, b.bumps, "spec {spec}");
            assert_eq!(
                a.achieved_delay.to_bits(),
                b.achieved_delay.to_bits(),
                "spec {spec}"
            );
            for (i, (x, y)) in a.sizes.iter().zip(b.sizes.iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "spec {spec} size[{i}]");
            }
        }
        let stats = cached.sensitivity_stats();
        assert!(stats.hits > 0, "cache never hit: {stats:?}");
        assert_eq!(uncached.sensitivity_stats(), SensitivityStats::default());
        // Infeasibility latches identically too.
        let ce = cached.advance_to(&dag, &model, 0.01 * dmin).unwrap_err();
        let ue = uncached.advance_to(&dag, &model, 0.01 * dmin).unwrap_err();
        let (
            TilosError::Infeasible { best_delay: c, .. },
            TilosError::Infeasible { best_delay: u, .. },
        ) = (&ce, &ue)
        else {
            panic!("expected Infeasible, got {ce:?} / {ue:?}");
        };
        assert_eq!(c.to_bits(), u.to_bits());
    }

    /// Once the trajectory dead-ends, every tighter target reports the
    /// same infeasibility a cold run would, without re-searching.
    #[test]
    fn trajectory_latches_infeasibility() {
        let mut n = chain(6);
        let (dag, model) = setup(&mut n);
        let dmin = minimum_sized_delay(&dag, &model).unwrap();
        let mut traj = TilosState::new(&dag, &model, TilosConfig::default()).unwrap();
        let warm_err = traj.advance_to(&dag, &model, 0.05 * dmin).unwrap_err();
        let cold_err = cold_run(&dag, &model, 0.05 * dmin).unwrap_err();
        let (
            TilosError::Infeasible { best_delay: w, .. },
            TilosError::Infeasible { best_delay: c, .. },
        ) = (&warm_err, &cold_err)
        else {
            panic!("expected Infeasible, got {warm_err:?} / {cold_err:?}");
        };
        assert_eq!(w.to_bits(), c.to_bits());
        // A second, tighter request fails instantly with the same state.
        let again = traj.advance_to(&dag, &model, 0.04 * dmin).unwrap_err();
        assert!(matches!(again, TilosError::Infeasible { .. }));
    }
}
