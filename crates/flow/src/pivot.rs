//! Block-cached Dantzig pricing (entering-arc selection) for the
//! network simplex.
//!
//! Each simplex pivot must pick a non-basic arc violating the
//! reduced-cost optimality conditions. Dantzig's rule takes the most
//! negative violation over every arc, which gives the fewest pivots.
//! [`DantzigBlocks`] caches the best arc of each fixed block of 64 arcs
//! and re-prices only the blocks the solver
//! [`touch`](DantzigBlocks::touch)ed since the last selection, so a
//! pivot pays for the blocks its moved subtree reaches, not for every
//! arc. It selects exactly the arc a full ascending scan would.
//!
//! [`DantzigBlocks::select`] is generic over the [`PricingContext`], so
//! the solver's per-arc reduced-cost test inlines into the scan loop
//! instead of costing a dynamic call per arc; the unit tests below use
//! the same seam to price fixed tables.

/// Arcs per block of the [`DantzigBlocks`] cache: a constant, not a
/// knob.
const DANTZIG_BLOCK: usize = 64;

/// Read-only pricing view of the current basis, offered to
/// [`DantzigBlocks::select`] once per pivot.
pub(crate) trait PricingContext {
    /// Total number of internal arcs (public then artificial).
    fn num_arcs(&self) -> usize;

    /// The eligibility of arc `k` under the current potentials:
    /// `Some((violation, forward))` with `violation < 0` when pushing
    /// flow through `k` (forward) or backing it off (backward) would
    /// improve the objective, `None` when the arc is basic or satisfies
    /// the optimality conditions.
    fn violation(&self, k: usize) -> Option<(i128, bool)>;
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
/// The most negative violation over all arcs wins, the lowest arc index
/// among equals. The arcs are cut into fixed blocks of 64 (the last one
/// may be shorter). Each block caches its best `(violation, arc)` under
/// the pricing it last saw; [`DantzigBlocks::touch`] marks an arc's
/// block dirty, and a selection re-prices only the dirty blocks before
/// taking the minimum over all block bests. A block's best is its
/// lowest-indexed most negative arc and blocks are compared in
/// ascending order with the same strict test, so the winner is the arc
/// a full ascending scan would pick.
///
/// The state is reset at the start of every solve, so the pivot
/// sequence of an instance does not depend on earlier solves' pricing.
#[derive(Debug, Clone, Default)]
pub(crate) struct DantzigBlocks {
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
    /// Clears per-solve state; called once before each solve's pivot
    /// loop with the instance's internal arc count. Every block counts
    /// as touched afterwards.
    pub(crate) fn reset(&mut self, num_arcs: usize) {
        let blocks = num_arcs.div_ceil(DANTZIG_BLOCK);
        self.num_arcs = num_arcs;
        self.best.clear();
        self.best.resize(blocks, None);
        self.dirty.clear();
        self.dirty.resize(blocks, true);
        self.dirty_list.clear();
        self.dirty_list.extend(0..blocks);
    }

    /// Records that arc `k`'s eligibility may have changed since the
    /// last selection (its flow, tree membership or an endpoint's
    /// potential moved). Between two selections the solver must touch
    /// every such arc, or [`reset`](DantzigBlocks::reset) the state.
    #[inline]
    pub(crate) fn touch(&mut self, k: usize) {
        let b = k / DANTZIG_BLOCK;
        if !self.dirty[b] {
            self.dirty[b] = true;
            self.dirty_list.push(b);
        }
    }

    /// Selects the entering arc, or `None` when no arc is eligible (the
    /// current basis is optimal). Adds the number of arcs the selection
    /// covers, every arc whether cached or re-priced, to `scanned`.
    pub(crate) fn select<P: PricingContext>(
        &mut self,
        pricing: &P,
        scanned: &mut usize,
    ) -> Option<(usize, bool)> {
        let n = pricing.num_arcs();
        assert_eq!(n, self.num_arcs, "reset before the first select");
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
        let mut dantzig = DantzigBlocks::default();
        let mut scanned = 0;
        dantzig.reset(table.num_arcs());
        assert_eq!(dantzig.select(&table, &mut scanned), Some((2, false)));
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
        let mut dantzig = DantzigBlocks::default();
        let mut scanned = 0;
        dantzig.reset(table.num_arcs());
        assert_eq!(dantzig.select(&table, &mut scanned), Some((10, true)));
        assert_eq!(table.take_priced(), 200, "reset dirties every block");
        // No touch: nothing is re-priced, the cached answer stands.
        assert_eq!(dantzig.select(&table, &mut scanned), Some((10, true)));
        assert_eq!(table.take_priced(), 0);
        // Two touches in one block re-price that block once.
        table.cells[100] = Some((-9, false));
        dantzig.touch(100);
        dantzig.touch(127);
        assert_eq!(dantzig.select(&table, &mut scanned), Some((100, false)));
        assert_eq!(table.take_priced(), 64);
        // A touch in the short last block re-prices its 8 arcs.
        table.cells[100] = None;
        table.cells[199] = Some((-4, true));
        dantzig.touch(100);
        dantzig.touch(199);
        assert_eq!(dantzig.select(&table, &mut scanned), Some((199, true)));
        assert_eq!(table.take_priced(), 64 + 8);
        // `arcs_scanned` counts every arc each selection covers.
        assert_eq!(scanned, 4 * 200);
        // An untouched change stays invisible until a reset.
        table.cells[199] = None;
        assert_eq!(dantzig.select(&table, &mut scanned), Some((199, true)));
        dantzig.reset(table.num_arcs());
        assert_eq!(dantzig.select(&table, &mut scanned), Some((10, true)));
    }

    #[test]
    fn dantzig_ties_across_blocks_go_to_the_lowest_arc() {
        let mut table = Counted::new(192);
        table.cells[64] = Some((-5, true));
        table.cells[63] = Some((-5, false));
        table.cells[190] = Some((-5, true));
        let mut dantzig = DantzigBlocks::default();
        let mut scanned = 0;
        dantzig.reset(table.num_arcs());
        assert_eq!(dantzig.select(&table, &mut scanned), Some((63, false)));
        // Re-pricing a later block with an equal violation keeps 63.
        table.cells[130] = Some((-5, true));
        dantzig.touch(130);
        assert_eq!(dantzig.select(&table, &mut scanned), Some((63, false)));
        // Once 63 drops out, the next lowest of the tied arcs wins.
        table.cells[63] = None;
        dantzig.touch(63);
        assert_eq!(dantzig.select(&table, &mut scanned), Some((64, true)));
        // A strictly smaller violation wins wherever it sits.
        table.cells[191] = Some((-6, false));
        dantzig.touch(191);
        assert_eq!(dantzig.select(&table, &mut scanned), Some((191, false)));
    }

    #[test]
    fn dantzig_short_last_block_and_optimality() {
        let mut table = Counted::new(130);
        table.cells[129] = Some((-1, true));
        let mut dantzig = DantzigBlocks::default();
        let mut scanned = 0;
        dantzig.reset(table.num_arcs());
        assert_eq!(dantzig.select(&table, &mut scanned), Some((129, true)));
        table.cells[129] = None;
        dantzig.touch(129);
        assert_eq!(dantzig.select(&table, &mut scanned), None);
        assert_eq!(table.take_priced(), 130 + 2);
        assert_eq!(scanned, 2 * 130);
    }
}
