//! Pluggable pricing (entering-arc selection) rules for the network
//! simplex solvers.
//!
//! Each simplex pivot must pick a non-basic arc violating the
//! reduced-cost optimality conditions. How that arc is *found* is the
//! main constant-factor lever of a network simplex:
//!
//! * [`PivotRule::Dantzig`] — the most negative violation over every
//!   arc. Fewest pivots. The rule caches the best arc of each fixed
//!   block of 64 arcs and re-prices only the blocks the
//!   solver [`touch`](PivotRule::touch)ed since the last selection, so
//!   a pivot pays for the blocks its moved subtree reaches, not for
//!   every arc. This is the default of
//!   [`SimplexSolver`](crate::SimplexSolver); it selects exactly the arc
//!   a full ascending scan would.
//! * [`PivotRule::FirstEligible`] — round-robin first-eligible pricing:
//!   resume the scan where the previous pivot left off and take the
//!   first violating arc. Cheapest scan, most pivots.
//! * [`PivotRule::BlockSearch`] — candidate-list (block) pricing: scan a
//!   `√arcs`-sized block per pivot, keep a *minor list* of
//!   recently-violating arcs that is re-priced first, and wrap around.
//!   The standard large-network compromise: near-Dantzig pivot counts
//!   at a fraction of the scan cost.
//!
//! All rules declare optimality only after every arc is known to be
//! ineligible, so the solver's optimality/infeasibility post-conditions
//! are rule-independent; only the *sequence* of pivots (and thus which
//! degenerate optimal vertex is reached) differs.
//!
//! The rule set is closed: [`PivotRule`] is an enum whose
//! [`select`](PivotRule::select) is generic over the
//! [`PricingContext`], so the solver's per-arc reduced-cost test
//! inlines into the scan loop instead of costing a dynamic call per arc.

/// Arcs per block of the [`PivotRule::Dantzig`] cache: a constant, not
/// a knob.
const DANTZIG_BLOCK: usize = 64;

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
/// Rules are stateful (block caches, cursors, candidate lists) and are
/// reset at the start of every solve, so a given rule yields a
/// deterministic, history-independent pivot sequence per instance.
#[derive(Debug, Clone)]
pub enum PivotRule {
    /// Dantzig pricing: the most negative violation over all arcs wins,
    /// the lowest arc index among equals; see [`DantzigBlocks`].
    ///
    /// Selects what the pre-refactor inline loop did (an ascending full
    /// scan where only a strictly smaller violation replaces the
    /// incumbent), but re-prices only the blocks touched since the
    /// previous selection.
    Dantzig(DantzigBlocks),
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

impl Default for PivotRule {
    fn default() -> Self {
        PivotRule::dantzig()
    }
}

impl PivotRule {
    /// A fresh block-cached Dantzig rule.
    pub fn dantzig() -> Self {
        PivotRule::Dantzig(DantzigBlocks::default())
    }

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
            PivotRule::Dantzig(_) => "dantzig",
            PivotRule::FirstEligible { .. } => "first-eligible",
            PivotRule::BlockSearch(_) => "block-search",
        }
    }

    /// Clears per-solve state; called once before each solve's pivot
    /// loop with the instance's internal arc count. Every arc counts as
    /// touched afterwards.
    pub fn reset(&mut self, num_arcs: usize) {
        match self {
            PivotRule::Dantzig(blocks) => blocks.reset(num_arcs),
            PivotRule::FirstEligible { cursor } => *cursor = 0,
            PivotRule::BlockSearch(block) => block.reset(num_arcs),
        }
    }

    /// Whether the rule keeps per-arc state that [`PivotRule::touch`]
    /// must keep current; a solver skips its touch walk otherwise.
    pub fn wants_touches(&self) -> bool {
        matches!(self, PivotRule::Dantzig(_))
    }

    /// Records that arc `k`'s eligibility may have changed since the
    /// last selection (its flow, tree membership or an endpoint's
    /// potential moved). Between two selections a solver must touch
    /// every such arc, or [`reset`](PivotRule::reset) the rule. A no-op
    /// for the rules that re-price from scratch.
    #[inline]
    pub fn touch(&mut self, k: usize) {
        if let PivotRule::Dantzig(blocks) = self {
            blocks.touch(k);
        }
    }

    /// Selects the entering arc, or `None` when no arc is eligible (the
    /// current basis is optimal). Adds the number of arcs the selection
    /// covers to `scanned`: for Dantzig every arc, cached or re-priced.
    pub fn select<P: PricingContext>(
        &mut self,
        pricing: &P,
        scanned: &mut usize,
    ) -> Option<(usize, bool)> {
        match self {
            PivotRule::Dantzig(blocks) => blocks.select(pricing, scanned),
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

/// The most negative violation of `lo..hi`, the lowest index among
/// equals: only a strictly smaller violation replaces the incumbent.
#[inline]
fn best_in<P: PricingContext>(pricing: &P, lo: usize, hi: usize) -> Option<(i128, usize, bool)> {
    let mut best: Option<(i128, usize, bool)> = None;
    for k in lo..hi {
        if let Some((violation, forward)) = pricing.violation(k) {
            if best.is_none_or(|(b, _, _)| violation < b) {
                best = Some((violation, k, forward));
            }
        }
    }
    best
}

/// Block-cached Dantzig pricing state.
///
/// The arcs are cut into fixed blocks of 64 (the last one may be
/// shorter). Each block caches its best `(violation, arc)` under the
/// pricing it last saw; [`PivotRule::touch`] marks an arc's block
/// dirty, and a selection re-prices only the dirty blocks before taking
/// the minimum over all block bests. A block's best is its
/// lowest-indexed most negative arc and blocks are compared in
/// ascending order with the same strict test, so the winner is the arc
/// a full ascending scan would pick.
#[derive(Debug, Clone, Default)]
pub struct DantzigBlocks {
    /// Arc count the blocks cover.
    num_arcs: usize,
    /// Cached best `(violation, arc, forward)` per block; `None` when no
    /// arc of the block was eligible at its last re-price.
    best: Vec<Option<(i128, usize, bool)>>,
    /// Whether each block awaits a re-price.
    dirty: Vec<bool>,
    /// The dirty blocks, each once.
    dirty_list: Vec<usize>,
}

impl DantzigBlocks {
    fn reset(&mut self, num_arcs: usize) {
        let blocks = num_arcs.div_ceil(DANTZIG_BLOCK);
        self.num_arcs = num_arcs;
        self.best.clear();
        self.best.resize(blocks, None);
        self.dirty.clear();
        self.dirty.resize(blocks, true);
        self.dirty_list.clear();
        self.dirty_list.extend(0..blocks);
    }

    #[inline]
    fn touch(&mut self, k: usize) {
        let b = k / DANTZIG_BLOCK;
        if !self.dirty[b] {
            self.dirty[b] = true;
            self.dirty_list.push(b);
        }
    }

    fn select<P: PricingContext>(
        &mut self,
        pricing: &P,
        scanned: &mut usize,
    ) -> Option<(usize, bool)> {
        let n = pricing.num_arcs();
        assert_eq!(n, self.num_arcs, "reset the rule before the first select");
        *scanned += n;
        for &b in &self.dirty_list {
            let lo = b * DANTZIG_BLOCK;
            self.best[b] = best_in(pricing, lo, (lo + DANTZIG_BLOCK).min(n));
            self.dirty[b] = false;
        }
        self.dirty_list.clear();
        let mut best: Option<(i128, usize, bool)> = None;
        for cand in self.best.iter().flatten() {
            if best.is_none_or(|(b, _, _)| cand.0 < b) {
                best = Some(*cand);
            }
        }
        best.map(|(_, k, forward)| (k, forward))
    }
}

/// The Dantzig selection by one ascending scan over every arc: the
/// oracle the block cache is checked against.
#[cfg(test)]
pub(crate) fn dantzig_full_scan<P: PricingContext>(pricing: &P) -> Option<(usize, bool)> {
    best_in(pricing, 0, pricing.num_arcs()).map(|(_, k, forward)| (k, forward))
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
        let mut rule = PivotRule::dantzig();
        let mut scanned = 0;
        rule.reset(table.num_arcs());
        assert_eq!(rule.select(&table, &mut scanned), Some((2, false)));
        assert_eq!(scanned, 4);
    }

    /// A pricing table that counts the arcs it prices.
    #[derive(Debug)]
    struct Counted {
        cells: Vec<Option<(i128, bool)>>,
        priced: std::cell::Cell<usize>,
    }

    impl Counted {
        fn new(n: usize) -> Self {
            Counted {
                cells: vec![None; n],
                priced: std::cell::Cell::new(0),
            }
        }

        /// Arcs priced since the last call.
        fn take_priced(&self) -> usize {
            self.priced.replace(0)
        }
    }

    impl PricingContext for Counted {
        fn num_arcs(&self) -> usize {
            self.cells.len()
        }
        fn violation(&self, k: usize) -> Option<(i128, bool)> {
            self.priced.set(self.priced.get() + 1);
            self.cells[k]
        }
    }

    #[test]
    fn dantzig_reprices_only_touched_blocks() {
        // 200 arcs: blocks of 64, 64, 64 and a last one of 8.
        let mut table = Counted::new(200);
        table.cells[10] = Some((-3, true));
        let mut rule = PivotRule::dantzig();
        let mut scanned = 0;
        rule.reset(table.num_arcs());
        assert_eq!(rule.select(&table, &mut scanned), Some((10, true)));
        assert_eq!(table.take_priced(), 200, "reset dirties every block");
        // No touch: nothing is re-priced, the cached answer stands.
        assert_eq!(rule.select(&table, &mut scanned), Some((10, true)));
        assert_eq!(table.take_priced(), 0);
        // Two touches in one block re-price that block once.
        table.cells[100] = Some((-9, false));
        rule.touch(100);
        rule.touch(127);
        assert_eq!(rule.select(&table, &mut scanned), Some((100, false)));
        assert_eq!(table.take_priced(), 64);
        // A touch in the short last block re-prices its 8 arcs.
        table.cells[100] = None;
        table.cells[199] = Some((-4, true));
        rule.touch(100);
        rule.touch(199);
        assert_eq!(rule.select(&table, &mut scanned), Some((199, true)));
        assert_eq!(table.take_priced(), 64 + 8);
        // `arcs_scanned` counts every arc each selection covers.
        assert_eq!(scanned, 4 * 200);
        // An untouched change stays invisible until a reset.
        table.cells[199] = None;
        assert_eq!(rule.select(&table, &mut scanned), Some((199, true)));
        rule.reset(table.num_arcs());
        assert_eq!(rule.select(&table, &mut scanned), Some((10, true)));
    }

    #[test]
    fn dantzig_ties_across_blocks_go_to_the_lowest_arc() {
        let mut table = Counted::new(192);
        table.cells[64] = Some((-5, true));
        table.cells[63] = Some((-5, false));
        table.cells[190] = Some((-5, true));
        let mut rule = PivotRule::dantzig();
        let mut scanned = 0;
        rule.reset(table.num_arcs());
        assert_eq!(rule.select(&table, &mut scanned), Some((63, false)));
        // Re-pricing a later block with an equal violation keeps 63.
        table.cells[130] = Some((-5, true));
        rule.touch(130);
        assert_eq!(rule.select(&table, &mut scanned), Some((63, false)));
        // Once 63 drops out, the next lowest of the tied arcs wins.
        table.cells[63] = None;
        rule.touch(63);
        assert_eq!(rule.select(&table, &mut scanned), Some((64, true)));
        // A strictly smaller violation wins wherever it sits.
        table.cells[191] = Some((-6, false));
        rule.touch(191);
        assert_eq!(rule.select(&table, &mut scanned), Some((191, false)));
    }

    #[test]
    fn dantzig_short_last_block_and_optimality() {
        let mut table = Counted::new(130);
        table.cells[129] = Some((-1, true));
        let mut rule = PivotRule::dantzig();
        let mut scanned = 0;
        rule.reset(table.num_arcs());
        assert_eq!(rule.select(&table, &mut scanned), Some((129, true)));
        table.cells[129] = None;
        rule.touch(129);
        assert_eq!(rule.select(&table, &mut scanned), None);
        assert_eq!(table.take_priced(), 130 + 2);
        assert_eq!(scanned, 2 * 130);
    }

    #[test]
    fn only_dantzig_wants_touches() {
        assert!(PivotRule::dantzig().wants_touches());
        assert!(!PivotRule::first_eligible().wants_touches());
        assert!(!PivotRule::block_search().wants_touches());
        // A touch on a scanning rule is a no-op, even before a reset.
        let mut rule = PivotRule::block_search();
        rule.touch(5);
        let table = Table(vec![None, Some((-2, true))]);
        let mut scanned = 0;
        rule.reset(table.num_arcs());
        assert_eq!(rule.select(&table, &mut scanned), Some((1, true)));
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
            PivotRule::dantzig(),
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
