//! Span recorder for the traced replay.
//!
//! Spans are opened around each call the replay makes into a layer's
//! public API. A span's *self time* is its duration minus the time its
//! child spans cover; self times accumulate per [`Layer`]. Everything
//! stays in memory until the run ends.

use std::time::{Duration, Instant};

/// The layers a span can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One replayed request: the root span (its self time is the work
    /// not attributed to any layer below).
    Request,
    /// `parse_bench` + `SizingProblem::prepare_corner`.
    Prepare,
    /// `RequestFrame::from_json_line` on a `load` line (the inline
    /// netlist travels as one JSON string).
    LoadParse,
    /// `TilosState::new` / `advance_to` / `snapshot_at`.
    Tilos,
    /// `DPhaseSolver::new`.
    DphaseBuild,
    /// Excess delays, `area_sensitivities`, `BalancedConfig::balance`.
    DphaseInputs,
    /// `DPhaseSolver::solve`.
    DphaseSolve,
    /// `SmpSolver::try_new` / `solve_seeded` / `solve`.
    Wphase,
    /// `delays` / `delays_diff`, `IncrementalTiming` rebases and
    /// `critical_path`, and `ReadView::what_if`.
    Sta,
    /// `RequestFrame::from_json_line`.
    Parse,
    /// `Response::to_json_line`.
    Encode,
}

impl Layer {
    pub const COUNT: usize = 11;

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-layer accumulated self time and call count.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub self_time: Duration,
    pub calls: u64,
}

#[derive(Debug)]
struct Open {
    layer: Layer,
    start: Instant,
    child: Duration,
}

/// A stack of open spans plus the per-layer totals.
#[derive(Debug)]
pub struct Tracer {
    stack: Vec<Open>,
    totals: [LayerTotals; Layer::COUNT],
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            stack: Vec::with_capacity(8),
            totals: [LayerTotals::default(); Layer::COUNT],
        }
    }
}

impl Tracer {
    /// Opens a span; it closes at the matching [`Tracer::exit`].
    pub fn enter(&mut self, layer: Layer) {
        self.stack.push(Open {
            layer,
            start: Instant::now(),
            child: Duration::ZERO,
        });
    }

    /// Closes the innermost span and returns its full duration.
    pub fn exit(&mut self) -> Duration {
        let open = self.stack.pop().expect("exit matches an enter");
        let elapsed = open.start.elapsed();
        let totals = &mut self.totals[open.layer.index()];
        totals.self_time += elapsed.saturating_sub(open.child);
        totals.calls += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child += elapsed;
        }
        elapsed
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.enter(layer);
        let out = f();
        self.exit();
        out
    }

    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[layer.index()]
    }

    /// Self time summed over every layer except the request root.
    pub fn attributed(&self) -> Duration {
        self.totals[1..].iter().map(|t| t.self_time).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::default();
        tr.enter(Layer::Request);
        tr.span(Layer::Sta, || std::thread::sleep(Duration::from_millis(5)));
        std::thread::sleep(Duration::from_millis(2));
        let wall = tr.exit();
        let sta = tr.totals(Layer::Sta).self_time;
        let root = tr.totals(Layer::Request).self_time;
        assert!(sta >= Duration::from_millis(5));
        assert!(root >= Duration::from_millis(2));
        assert!(sta + root <= wall);
        assert_eq!(tr.attributed(), sta);
    }
}
