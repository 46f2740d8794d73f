//! Block-cached Dantzig pricing (entering-arc selection) for the
//! network simplex.
//!
//! Each simplex pivot must pick a non-basic arc violating the
//! reduced-cost optimality conditions. Dantzig's rule takes the most
//! negative violation over every arc, which gives the fewest pivots.
//! [`DantzigBlocks`] caches the best arc of each fixed block of 64 arcs.
//! Between selections every arc whose eligibility a pivot may have
//! changed is merged into its block once its change is final: priced
//! alone and compared with the block's cached best, or, when it *was*
//! that best (its violation may have shrunk below an untouched arc's),
//! its block is marked for a full re-price. The solver merges the
//! boundary arcs of a basis exchange on the spot
//! ([`merge`](DantzigBlocks::merge)) and defers the rest to the next
//! selection ([`touch`](DantzigBlocks::touch)). A pivot thus pays for
//! the arcs its moved subtree reaches plus about one block, not for
//! every arc, and it selects exactly the arc a full ascending scan
//! would.
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
/// among equals: candidates are ordered strictly by `(violation, arc)`.
/// The arcs are cut into fixed blocks of 64 (the last one may be
/// shorter), and each block caches its least `(violation, arc)`.
///
/// Every changed arc is merged into its block: the arc is priced alone
/// and replaces the cached best when it orders before it. Unchanged
/// arcs kept their eligibility, and each of them ordered after the
/// cached best when it was taken, so the merged best is the block's
/// true one, unless the cached best arc was itself changed: its own
/// violation may have grown, so its block is re-priced in full instead.
/// The rule holds in any merge order. A selection merges the touched
/// arcs, re-prices the marked blocks, and compares the blocks in
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
    /// arc of the block is known eligible.
    best: Vec<Option<(i128, usize, bool)>>,
    /// Whether each block awaits a full re-price.
    dirty: Vec<bool>,
    /// The dirty blocks, each once.
    dirty_list: Vec<usize>,
    /// Arcs touched since the last selection, in touch order.
    touched: Vec<u32>,
}

impl DantzigBlocks {
    /// Clears per-solve state; called once before each solve's pivot
    /// loop with the instance's internal arc count. Every block awaits a
    /// full re-price afterwards.
    pub(crate) fn reset(&mut self, num_arcs: usize) {
        let blocks = num_arcs.div_ceil(DANTZIG_BLOCK);
        self.num_arcs = num_arcs;
        self.best.clear();
        self.best.resize(blocks, None);
        self.dirty.clear();
        self.dirty.resize(blocks, true);
        self.dirty_list.clear();
        self.dirty_list.extend(0..blocks);
        self.touched.clear();
    }

    /// Records that arc `k`'s eligibility may have changed since the
    /// last selection (its flow, tree membership or an endpoint's
    /// potential moved), for the next selection to merge. Between two
    /// selections the solver must touch or [`merge`](DantzigBlocks::merge)
    /// every such arc, or [`reset`](DantzigBlocks::reset) the state.
    #[inline]
    pub(crate) fn touch(&mut self, k: usize) {
        self.touched.push(k as u32);
    }

    /// Merges arc `k`, whose eligibility changed and will not change
    /// again before the next selection, into its block under `pricing`
    /// (see the type docs): the cached best when `k` orders before it,
    /// a full re-price of the block when `k` was that best.
    #[inline]
    pub(crate) fn merge<P: PricingContext>(&mut self, pricing: &P, k: usize) {
        let b = k / DANTZIG_BLOCK;
        if self.dirty[b] {
            return;
        }
        match self.best[b] {
            Some((_, best, _)) if best == k => {
                self.dirty[b] = true;
                self.dirty_list.push(b);
            }
            cached => {
                if let Some((violation, forward)) = pricing.violation(k) {
                    if cached.is_none_or(|(v, a, _)| (violation, k) < (v, a)) {
                        self.best[b] = Some((violation, k, forward));
                    }
                }
            }
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
        let mut touched = std::mem::take(&mut self.touched);
        for &k in &touched {
            self.merge(pricing, k as usize);
        }
        touched.clear();
        self.touched = touched;
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
    fn dantzig_prices_touched_arcs_and_reprices_only_stale_bests() {
        // 200 arcs: blocks of 64, 64, 64 and a last one of 8.
        let mut table = Counted::new(200);
        table.cells[10] = Some((-3, true));
        let mut dantzig = DantzigBlocks::default();
        let mut scanned = 0;
        dantzig.reset(table.num_arcs());
        assert_eq!(dantzig.select(&table, &mut scanned), Some((10, true)));
        assert_eq!(table.take_priced(), 200, "reset re-prices every block");
        // No touch: nothing is priced, the cached answer stands.
        assert_eq!(dantzig.select(&table, &mut scanned), Some((10, true)));
        assert_eq!(table.take_priced(), 0);
        // Touching arcs that are not their block's best prices those
        // arcs alone.
        table.cells[100] = Some((-9, false));
        dantzig.touch(100);
        dantzig.touch(127);
        assert_eq!(dantzig.select(&table, &mut scanned), Some((100, false)));
        assert_eq!(table.take_priced(), 2);
        // Touching a block's cached best re-prices the whole block once;
        // later touches in that block ride along.
        table.cells[100] = None;
        table.cells[90] = Some((-2, true));
        dantzig.touch(100);
        dantzig.touch(90);
        assert_eq!(dantzig.select(&table, &mut scanned), Some((10, true)));
        assert_eq!(table.take_priced(), 64);
        // The same two rules in the short last block.
        table.cells[199] = Some((-4, true));
        dantzig.touch(199);
        assert_eq!(dantzig.select(&table, &mut scanned), Some((199, true)));
        assert_eq!(table.take_priced(), 1);
        table.cells[199] = None;
        dantzig.touch(199);
        assert_eq!(dantzig.select(&table, &mut scanned), Some((10, true)));
        assert_eq!(table.take_priced(), 8);
        // A touched arc that orders after its block's cached best leaves
        // that best in place.
        table.cells[80] = Some((-1, false));
        dantzig.touch(80);
        table.cells[10] = None;
        dantzig.touch(10);
        assert_eq!(dantzig.select(&table, &mut scanned), Some((90, true)));
        assert_eq!(table.take_priced(), 1 + 64);
        // `arcs_scanned` counts every arc each selection covers.
        assert_eq!(scanned, 7 * 200);
        // An untouched change stays invisible until a reset.
        table.cells[150] = Some((-8, true));
        assert_eq!(dantzig.select(&table, &mut scanned), Some((90, true)));
        dantzig.reset(table.num_arcs());
        assert_eq!(dantzig.select(&table, &mut scanned), Some((150, true)));
    }

    #[test]
    fn merging_on_the_spot_selects_what_a_deferred_touch_would() {
        // Two pricing states fed the same changes, one merging each
        // changed arc as it changes, one touching it for the selection.
        let mut table = Counted::new(200);
        table.cells[10] = Some((-3, true));
        table.cells[70] = Some((-5, false));
        let (mut now, mut later) = (DantzigBlocks::default(), DantzigBlocks::default());
        let mut scanned = 0;
        now.reset(table.num_arcs());
        later.reset(table.num_arcs());
        assert_eq!(now.select(&table, &mut scanned), Some((70, false)));
        assert_eq!(later.select(&table, &mut scanned), Some((70, false)));
        // Arc 70, the cached best, drops out; 90 improves in its block;
        // 150 appears in another: in either order of merges.
        for changes in [[70, 90, 150], [150, 90, 70]] {
            for k in changes {
                table.cells[k] = match k {
                    70 => None,
                    90 => Some((-4, true)),
                    _ => Some((-2, false)),
                };
                now.merge(&table, k);
                later.touch(k);
            }
            let got = now.select(&table, &mut scanned);
            assert_eq!(got, later.select(&table, &mut scanned), "{changes:?}");
            assert_eq!(got, dantzig_full_scan(&table), "{changes:?}");
            table.cells[70] = Some((-5, false));
            table.cells[90] = None;
            table.cells[150] = None;
            now.reset(table.num_arcs());
            later.reset(table.num_arcs());
            now.select(&table, &mut scanned);
            later.select(&table, &mut scanned);
        }
    }

    #[test]
    fn dantzig_merge_ties_go_to_the_lowest_arc() {
        let mut table = Counted::new(128);
        table.cells[40] = Some((-5, true));
        let mut dantzig = DantzigBlocks::default();
        let mut scanned = 0;
        dantzig.reset(table.num_arcs());
        assert_eq!(dantzig.select(&table, &mut scanned), Some((40, true)));
        // An equal violation at a higher index does not displace 40 ...
        table.cells[50] = Some((-5, false));
        dantzig.touch(50);
        assert_eq!(dantzig.select(&table, &mut scanned), Some((40, true)));
        // ... one at a lower index does, in either touch order.
        table.cells[20] = Some((-5, false));
        table.cells[30] = Some((-5, true));
        dantzig.touch(30);
        dantzig.touch(20);
        assert_eq!(dantzig.select(&table, &mut scanned), Some((20, false)));
        // A tie across blocks keeps the lower block's arc.
        table.cells[64] = Some((-5, true));
        dantzig.touch(64);
        assert_eq!(dantzig.select(&table, &mut scanned), Some((20, false)));
        assert_eq!(table.take_priced(), 128 + 1 + 2 + 1);
        // Once 20 drops out, its block's re-price finds 30 next.
        table.cells[20] = None;
        dantzig.touch(20);
        assert_eq!(dantzig.select(&table, &mut scanned), Some((30, true)));
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
