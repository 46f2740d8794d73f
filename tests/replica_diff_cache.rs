//! Property tests of the candidate diff cache ([`ReadView`], the one
//! what-if engine of sessions and read replicas): random near-identical
//! what-if streams answered through `delays_diff` + scoped rebase must
//! be **byte-identical** on the wire to a cold evaluation
//! (`SizingProblem::{delay_of, area_of, power_of}`), across every churn
//! level (1–75%), across the 50% churn-cliff fallback, and across
//! diff-base invalidations (the fence the server applies on writer
//! republish).

use minflotransit::circuit::SizingMode;
use minflotransit::core::{ReadView, Response, SizingProblem, WhatIfReport};
use minflotransit::delay::Technology;
use minflotransit::gen::{random_circuit, RandomCircuitConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn problem(seed: u64, gates: usize) -> SizingProblem {
    let cfg = RandomCircuitConfig {
        gates,
        inputs: 8,
        level_width: 6,
        locality: 3,
    };
    let netlist = random_circuit(seed, &cfg).expect("generator valid");
    SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).expect("builds")
}

/// The exact bytes a served what-if puts on the wire.
fn wire(report: WhatIfReport) -> String {
    Response::WhatIf(report).to_json_line()
}

/// The wire bytes of a cold evaluation: a full delay pass and a cold
/// critical path, no incremental state at all.
fn cold_wire(problem: &SizingProblem, sizes: &[f64], target: Option<f64>) -> String {
    let area = problem.area_of(sizes);
    let cp = problem.delay_of(sizes);
    wire(WhatIfReport {
        area,
        area_ratio: area / problem.min_area(),
        power: problem.power_of(sizes),
        critical_path: cp,
        target,
        slack: target.map(|t| t - cp),
        meets_target: target.map(|t| cp <= t),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A random near-identical candidate stream (resampling `churn`
    /// of the gates per step) answers byte-identically through the
    /// diff cache and a cold evaluation, with random mid-stream
    /// invalidations thrown in.
    #[test]
    fn diff_cache_streams_match_retime_bytes(
        seed in 0u64..400,
        churn in 0.01f64..0.75,
        steps in 4u64..10,
    ) {
        let shared = Arc::new(problem(seed, 50));
        let n = shared.dag().num_vertices();
        let dmin = shared.dmin();
        let mut view = ReadView::new(Arc::clone(&shared));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut sizes: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..4.0)).collect();
        for step in 0..steps {
            if step > 0 {
                let resampled = ((churn * n as f64).ceil() as usize).clamp(1, n);
                for _ in 0..resampled {
                    let v = rng.gen_range(0..n);
                    sizes[v] = rng.gen_range(1.0..4.0);
                }
            }
            let target = (step % 2 == 0).then(|| rng.gen_range(0.6..1.2) * dmin);
            // Occasionally drop the diff base mid-stream — the same
            // fence the server applies on a writer epoch bump.
            let invalidated = step > 0 && rng.gen_range(0u32..4) == 0;
            if invalidated {
                view.invalidate();
            }
            let (got, used_diff) = view.what_if(&sizes, target).unwrap();
            prop_assert_eq!(wire(got), cold_wire(&shared, &sizes, target), "step {}", step);
            if step == 0 || invalidated {
                prop_assert!(!used_diff, "step {}: no diff base to diff against", step);
            }
        }
    }

    /// The churn cliff is exact: changing `k` gates takes the diff
    /// path iff `2k <= n`, and both paths stay byte-identical to a cold
    /// evaluation on either side of the cliff.
    #[test]
    fn churn_cliff_falls_back_to_a_full_retime(
        seed in 0u64..200,
        frac in 0.05f64..0.95,
    ) {
        let shared = Arc::new(problem(seed, 40));
        let n = shared.dag().num_vertices();
        let mut view = ReadView::new(Arc::clone(&shared));
        let base = vec![1.0; n];
        let (got, used_diff) = view.what_if(&base, None).unwrap();
        prop_assert!(!used_diff, "first candidate has no base");
        prop_assert_eq!(wire(got), cold_wire(&shared, &base, None));
        // Change exactly k distinct gates.
        let k = ((frac * n as f64) as usize).clamp(1, n);
        let mut next = base.clone();
        for v in next.iter_mut().take(k) {
            *v = 2.5;
        }
        let (got, used_diff) = view.what_if(&next, None).unwrap();
        prop_assert_eq!(wire(got), cold_wire(&shared, &next, None));
        prop_assert_eq!(used_diff, 2 * k <= n, "k = {}, n = {}", k, n);
        // Resubmitting the identical candidate is a zero-gate diff.
        let (got, used_diff) = view.what_if(&next, None).unwrap();
        prop_assert_eq!(wire(got), cold_wire(&shared, &next, None));
        prop_assert!(used_diff, "identical resubmission diffs trivially");
    }
}
