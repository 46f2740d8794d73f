//! Golden pins for the TILOS trajectory across the incremental-timing
//! refactor: the bump counts, areas, achieved delays and full size
//! vectors (as an FNV-1a hash over the bit patterns) recorded from the
//! **pre-refactor** code (full `extract_critical_path` +
//! `critical_path` per bump) on c17 and the c432-like netlist. The
//! incremental engine must reproduce them bit for bit, and so must the
//! retained cold reference path (`TilosConfig::cold_timing`).

use minflotransit::circuit::{parse_bench, SizingMode, C17_BENCH};
use minflotransit::core::SizingProblem;
use minflotransit::delay::Technology;
use minflotransit::gen::Benchmark;
use minflotransit::tilos::{TilosConfig, TilosState};

/// FNV-1a over the size bit patterns — pins the *entire* size vector
/// without embedding hundreds of literals.
fn sizes_fnv(sizes: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for x in sizes {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

struct Golden {
    spec: f64,
    bumps: usize,
    area_bits: u64,
    delay_bits: u64,
    sizes_fnv: u64,
}

fn check(problem: &SizingProblem, dmin_bits: u64, goldens: &[Golden], what: &str) {
    let dag = problem.dag();
    let model = problem.model();
    assert_eq!(problem.dmin().to_bits(), dmin_bits, "{what}: D_min");
    for cold_timing in [false, true] {
        let config = TilosConfig {
            cold_timing,
            ..Default::default()
        };
        let mut traj = TilosState::new(dag, model, config).unwrap();
        for g in goldens {
            let r = traj
                .advance_to(dag, model, g.spec * problem.dmin())
                .unwrap();
            let tag = format!("{what} spec {} (cold_timing={cold_timing})", g.spec);
            assert_eq!(r.bumps, g.bumps, "{tag}: bumps");
            assert_eq!(r.area.to_bits(), g.area_bits, "{tag}: area");
            assert_eq!(r.achieved_delay.to_bits(), g.delay_bits, "{tag}: delay");
            assert_eq!(sizes_fnv(&r.sizes), g.sizes_fnv, "{tag}: sizes");
        }
    }
}

/// Values recorded from commit 9525866 (pre-refactor seed of this PR).
#[test]
fn golden_c17_trajectory_is_bit_identical_across_refactor() {
    let netlist = parse_bench("c17", C17_BENCH).unwrap();
    let problem =
        SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap();
    check(
        &problem,
        0x407860f5c28f5c29,
        &[
            Golden {
                spec: 0.9,
                bumps: 7,
                area_bits: 0x403b0c49ba5e3540,
                delay_bits: 0x40759aa73b0cbf58,
                sizes_fnv: 0x5f172617f77c500d,
            },
            Golden {
                spec: 0.7,
                bumps: 20,
                area_bits: 0x4040f1511dffc54a,
                delay_bits: 0x4070b80aceeb3e2a,
                sizes_fnv: 0x98f7399c13d29dbd,
            },
            Golden {
                spec: 0.55,
                bumps: 33,
                area_bits: 0x40459dcc8f4b7330,
                delay_bits: 0x406a3faeeb90baec,
                sizes_fnv: 0x43bd920aa727dfd1,
            },
        ],
        "c17",
    );
}

/// Values recorded from commit 9525866 (pre-refactor seed of this PR).
#[test]
fn golden_c432_trajectory_is_bit_identical_across_refactor() {
    let netlist = Benchmark::C432.generate().unwrap();
    let problem =
        SizingProblem::prepare(&netlist, &Technology::cmos_130nm(), SizingMode::Gate).unwrap();
    check(
        &problem,
        0x40b02abd70a3d70b,
        &[
            Golden {
                spec: 0.9,
                bumps: 20,
                area_bits: 0x408ac950092ccf6c,
                delay_bits: 0x40acff858260c7dd,
                sizes_fnv: 0xb7e4d612a29b2f45,
            },
            Golden {
                spec: 0.7,
                bumps: 109,
                area_bits: 0x408c05dd6e40ffbe,
                delay_bits: 0x40a67e2887df7b73,
                sizes_fnv: 0xcccfb466142c2546,
            },
            Golden {
                spec: 0.5,
                bumps: 339,
                area_bits: 0x4090214373d79720,
                delay_bits: 0x40a0299f83ddffff,
                sizes_fnv: 0xa08970642b843e86,
            },
        ],
        "c432-like",
    );
}
