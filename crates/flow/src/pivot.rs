//! Pluggable pricing (entering-arc selection) rules for the network
//! simplex solvers.
//!
//! Each simplex pivot must pick a non-basic arc violating the
//! reduced-cost optimality conditions. How that arc is *found* is the
//! main constant-factor lever of a network simplex:
//!
//! * [`PivotRule::Dantzig`] — scan every arc, take the most negative
//!   violation. Fewest pivots, but every pivot pays a full `O(arcs)`
//!   scan. This is the default of [`SimplexSolver`](crate::SimplexSolver)
//!   and is pinned **bit-identical** to the pre-refactor inline loop.
//! * [`PivotRule::FirstEligible`] — round-robin first-eligible pricing:
//!   resume the scan where the previous pivot left off and take the
//!   first violating arc. Cheapest scan, most pivots.
//! * [`PivotRule::BlockSearch`] — candidate-list (block) pricing: scan a
//!   `√arcs`-sized block per pivot, keep a *minor list* of
//!   recently-violating arcs that is re-priced first, and wrap around.
//!   The standard large-network compromise: near-Dantzig pivot counts
//!   at a fraction of the scan cost.
//!
//! All rules declare optimality only after a full wrap of the arc range
//! finds no eligible arc, so the solver's optimality/infeasibility
//! post-conditions are rule-independent; only the *sequence* of pivots
//! (and thus which degenerate optimal vertex is reached) differs.
//!
//! The rule set is closed: [`PivotRule`] is an enum whose
//! [`select`](PivotRule::select) is generic over the
//! [`PricingContext`], so the solver's per-arc reduced-cost test
//! inlines into the scan loop instead of costing a dynamic call per arc.

/// Read-only pricing view of the current basis, offered to a
/// [`PivotRule`] once per pivot.
///
/// [`PivotRule::select`] is generic over the view, so a solver's
/// implementation inlines into the scan loop; the rule, not the view,
/// counts the arcs it prices (surfaced in
/// [`SolverStats::arcs_scanned`](crate::SolverStats::arcs_scanned)).
pub trait PricingContext {
    /// Total number of internal arcs (public then artificial).
    fn num_arcs(&self) -> usize;

    /// The eligibility of arc `k` under the current potentials:
    /// `Some((violation, forward))` with `violation < 0` when pushing
    /// flow through `k` (forward) or backing it off (backward) would
    /// improve the objective, `None` when the arc is basic or satisfies
    /// the optimality conditions.
    fn violation(&self, k: usize) -> Option<(i128, bool)>;
}

/// An entering-arc selection rule for the network simplex solvers.
///
/// Rules are stateful (cursors, candidate lists) and are reset at the
/// start of every solve, so a given rule yields a deterministic,
/// history-independent pivot sequence per instance.
#[derive(Debug, Clone, Default)]
pub enum PivotRule {
    /// Dantzig pricing: full scan, most negative violation wins.
    ///
    /// Bit-identical to the pre-refactor inline loop: ascending arc
    /// order, strictly-smaller violations replace the incumbent, so the
    /// lowest-indexed arc wins ties.
    #[default]
    Dantzig,
    /// Round-robin first-eligible pricing.
    ///
    /// The scan resumes just past the previously selected arc (`cursor`)
    /// and wraps, returning the first eligible arc it meets. Each
    /// pivot's scan is short on average, at the price of lower-quality
    /// entering arcs (more pivots overall).
    FirstEligible {
        /// Next arc index the scan starts from.
        cursor: usize,
    },
    /// Candidate-list (block search) pricing; see [`BlockSearch`].
    BlockSearch(BlockSearch),
}

impl PivotRule {
    /// A fresh round-robin first-eligible rule.
    pub fn first_eligible() -> Self {
        PivotRule::FirstEligible { cursor: 0 }
    }

    /// A fresh candidate-list block-search rule.
    pub fn block_search() -> Self {
        PivotRule::BlockSearch(BlockSearch::default())
    }

    /// Short identifier of the rule (for reports and benches).
    pub fn name(&self) -> &'static str {
        match self {
            PivotRule::Dantzig => "dantzig",
            PivotRule::FirstEligible { .. } => "first-eligible",
            PivotRule::BlockSearch(_) => "block-search",
        }
    }

    /// Clears per-solve state; called once before each solve's pivot
    /// loop with the instance's internal arc count.
    pub fn reset(&mut self, num_arcs: usize) {
        match self {
            PivotRule::Dantzig => {}
            PivotRule::FirstEligible { cursor } => *cursor = 0,
            PivotRule::BlockSearch(block) => block.reset(num_arcs),
        }
    }

    /// Selects the entering arc, or `None` when no arc is eligible (the
    /// current basis is optimal). Adds the number of arcs priced to
    /// `scanned`.
    pub fn select<P: PricingContext>(
        &mut self,
        pricing: &P,
        scanned: &mut usize,
    ) -> Option<(usize, bool)> {
        match self {
            PivotRule::Dantzig => {
                let n = pricing.num_arcs();
                *scanned += n;
                let mut best: Option<(i128, usize, bool)> = None;
                for k in 0..n {
                    if let Some((violation, forward)) = pricing.violation(k) {
                        if best.is_none_or(|(b, _, _)| violation < b) {
                            best = Some((violation, k, forward));
                        }
                    }
                }
                best.map(|(_, k, forward)| (k, forward))
            }
            PivotRule::FirstEligible { cursor } => {
                let n = pricing.num_arcs();
                for i in 0..n {
                    let k = (*cursor + i) % n;
                    if let Some((_, forward)) = pricing.violation(k) {
                        *scanned += i + 1;
                        *cursor = (k + 1) % n;
                        return Some((k, forward));
                    }
                }
                *scanned += n;
                None
            }
            PivotRule::BlockSearch(block) => block.select(pricing, scanned),
        }
    }
}

/// Candidate-list (block search) pricing state.
///
/// Maintains a **minor list** of arcs seen violating recently. Each
/// pivot first re-prices the minor list (dropping arcs that became
/// satisfied) and takes its best entry; only when the list runs dry
/// does it scan fresh `√arcs`-sized blocks from a wrapping cursor,
/// refilling the list from the first block that yields any candidate.
/// A full wrap with no candidate proves optimality.
#[derive(Debug, Clone, Default)]
pub struct BlockSearch {
    /// Arcs per major-scan block (≈ `√arcs`).
    block: usize,
    /// Cap on the minor list length.
    minor_limit: usize,
    /// Next arc index the major scan starts from.
    cursor: usize,
    /// Recently-violating arcs, re-priced before any fresh scanning.
    minor: Vec<usize>,
}

impl BlockSearch {
    fn reset(&mut self, num_arcs: usize) {
        self.block = (num_arcs as f64).sqrt().ceil() as usize;
        self.block = self.block.clamp(1, num_arcs.max(1));
        self.minor_limit = (self.block / 2).max(4);
        self.cursor = 0;
        self.minor.clear();
    }

    /// Best entry of the minor list under the current pricing, dropping
    /// entries that are no longer eligible.
    fn reprice_minor<P: PricingContext>(
        &mut self,
        pricing: &P,
        scanned: &mut usize,
    ) -> Option<(usize, bool)> {
        *scanned += self.minor.len();
        let mut best: Option<(i128, usize, bool)> = None;
        self.minor.retain(|&k| match pricing.violation(k) {
            Some((violation, forward)) => {
                if best.is_none_or(|(b, _, _)| violation < b) {
                    best = Some((violation, k, forward));
                }
                true
            }
            None => false,
        });
        best.map(|(_, k, forward)| (k, forward))
    }

    fn select<P: PricingContext>(
        &mut self,
        pricing: &P,
        scanned: &mut usize,
    ) -> Option<(usize, bool)> {
        let n = pricing.num_arcs();
        if n == 0 {
            return None;
        }
        if let Some(hit) = self.reprice_minor(pricing, scanned) {
            return Some(hit);
        }
        // Minor list dry: scan fresh blocks until one yields candidates
        // (collecting them for later pivots) or the wrap completes.
        let mut swept = 0usize;
        while swept < n {
            let len = self.block.min(n - swept);
            *scanned += len;
            let mut best: Option<(i128, usize, bool)> = None;
            for i in 0..len {
                let k = (self.cursor + i) % n;
                if let Some((violation, forward)) = pricing.violation(k) {
                    if best.is_none_or(|(b, _, _)| violation < b) {
                        best = Some((violation, k, forward));
                    }
                    if self.minor.len() < self.minor_limit {
                        self.minor.push(k);
                    }
                }
            }
            self.cursor = (self.cursor + len) % n;
            swept += len;
            if let Some((_, k, forward)) = best {
                return Some((k, forward));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed pricing table: `Some((violation, forward))` per arc.
    #[derive(Debug)]
    struct Table(Vec<Option<(i128, bool)>>);

    impl PricingContext for Table {
        fn num_arcs(&self) -> usize {
            self.0.len()
        }
        fn violation(&self, k: usize) -> Option<(i128, bool)> {
            self.0[k]
        }
    }

    #[test]
    fn dantzig_takes_most_negative_lowest_index() {
        let table = Table(vec![
            None,
            Some((-3, true)),
            Some((-7, false)),
            Some((-7, true)),
        ]);
        let mut rule = PivotRule::Dantzig;
        let mut scanned = 0;
        rule.reset(table.num_arcs());
        assert_eq!(rule.select(&table, &mut scanned), Some((2, false)));
        assert_eq!(scanned, 4);
    }

    #[test]
    fn first_eligible_round_robins() {
        let table = Table(vec![Some((-1, true)), None, Some((-2, false))]);
        let mut rule = PivotRule::first_eligible();
        let mut scanned = 0;
        rule.reset(table.num_arcs());
        assert_eq!(rule.select(&table, &mut scanned), Some((0, true)));
        assert_eq!(scanned, 1);
        assert_eq!(rule.select(&table, &mut scanned), Some((2, false)));
        assert_eq!(scanned, 3);
        assert_eq!(rule.select(&table, &mut scanned), Some((0, true))); // wrapped
        assert_eq!(scanned, 4);
    }

    #[test]
    fn block_search_finds_candidates_past_the_first_block() {
        // 16 arcs → block 4; the only candidate sits in the last block.
        let mut cells = vec![None; 16];
        cells[14] = Some((-5, true));
        let table = Table(cells);
        let mut rule = PivotRule::block_search();
        let mut scanned = 0;
        rule.reset(table.num_arcs());
        assert_eq!(rule.select(&table, &mut scanned), Some((14, true)));
        assert_eq!(scanned, 16);
        // The minor list remembers it while it stays eligible, and
        // re-pricing it costs one arc.
        assert_eq!(rule.select(&table, &mut scanned), Some((14, true)));
        assert_eq!(scanned, 17);
    }

    #[test]
    fn all_rules_agree_that_no_candidates_means_optimal() {
        let table = Table(vec![None; 9]);
        for mut rule in [
            PivotRule::Dantzig,
            PivotRule::first_eligible(),
            PivotRule::block_search(),
        ] {
            let mut scanned = 0;
            rule.reset(table.num_arcs());
            assert_eq!(rule.select(&table, &mut scanned), None, "{}", rule.name());
            assert_eq!(scanned, 9, "{}: one full wrap", rule.name());
        }
    }
}
