//! Hot-path acceptance tests for the zero-CAS / f32 / term-block SGD
//! kernel: bitwise determinism of single-threaded runs across the
//! batched kernel, and quality parity of the fast paths (f32 storage,
//! multi-threaded Hogwild) against the faithful f64 single-thread
//! baseline on a bundled workload preset.

use layout_core::{CpuEngine, LayoutConfig, Precision};
use pangraph::layout2d::Layout2D;
use pangraph::lean::LeanGraph;
use pgmetrics::{sampled_path_stress, SamplingConfig};
use workloads::generate;

fn preset_graph() -> LeanGraph {
    // The MHC preset at small scale: a real workload shape (variant
    // sites, SVs, loops, ~7 haplotype paths) that still converges in
    // seconds under the debug profile.
    LeanGraph::from_graph(&generate(&workloads::mhc_like(0.005)))
}

fn parity_graph() -> LeanGraph {
    // Table I's HLA-DRB1 preset at full scale: dense variant sites over
    // 12 haplotype paths. Its full 30-iteration schedule converges
    // tightly — racing runs at one seed differ by under 1% in sampled
    // stress — which is what a 5% parity bar needs; the sparser MHC
    // preset's stress estimator is heavy-tailed and seed-dominated at
    // test scale. Layout seeds still matter here: see `mean_stress`.
    LeanGraph::from_graph(&generate(&workloads::hla_drb1()))
}

fn cfg(threads: usize, precision: Precision) -> LayoutConfig {
    LayoutConfig {
        threads,
        precision,
        iter_max: 20,
        ..LayoutConfig::default()
    }
}

fn stress(layout: &Layout2D, lean: &LeanGraph) -> f64 {
    sampled_path_stress(
        layout,
        lean,
        SamplingConfig {
            samples_per_node: 50,
            seed: 0xACCE,
        },
    )
    .mean
}

#[test]
fn single_thread_runs_are_bitwise_deterministic_across_the_batched_kernel() {
    let lean = preset_graph();
    for precision in [Precision::F64, Precision::F32] {
        let a = CpuEngine::new(cfg(1, precision)).run(&lean).0;
        let b = CpuEngine::new(cfg(1, precision)).run(&lean).0;
        assert_eq!(
            a, b,
            "{precision:?}: single-thread runs must be bit-identical"
        );
        assert!(a.all_finite());
    }
}

#[test]
fn term_block_size_is_invisible_to_single_thread_results() {
    // Sampling never reads coordinates, so the block boundary cannot
    // change which terms are drawn or the order they are applied in.
    let lean = preset_graph();
    let mut small = cfg(1, Precision::F64);
    small.term_block = 3;
    small.iter_max = 5;
    let mut big = small.clone();
    big.term_block = 4096;
    let a = CpuEngine::new(small).run(&lean).0;
    let b = CpuEngine::new(big).run(&lean).0;
    assert_eq!(a, b, "term block is purely a performance knob");
}

/// Sampled path stress of full-schedule layouts, averaged over a fixed
/// set of layout seeds. One seed's layout is a single draw: across
/// seeds even the deterministic 1-thread `f64` baseline spreads by ~6%
/// on the parity graph, more than the parity bar, and a thread count
/// changes which random streams the run draws. Averaging the same seeds
/// on both sides compares configurations, not draws.
fn mean_stress(lean: &LeanGraph, threads: usize, precision: Precision) -> f64 {
    let seeds = [LayoutConfig::default().seed, 1, 2, 3, 4];
    let total: f64 = seeds
        .iter()
        .map(|&seed| {
            let cfg = LayoutConfig {
                threads,
                precision,
                seed,
                ..LayoutConfig::default()
            };
            stress(&CpuEngine::new(cfg).run(lean).0, lean)
        })
        .sum();
    total / seeds.len() as f64
}

#[test]
fn fast_paths_reach_stress_parity_with_the_f64_single_thread_baseline() {
    // The acceptance bar of the hot-path overhaul: racing threads and
    // fp32 coordinates are performance axes, not quality axes. Each
    // fast configuration must land within 5% of the faithful baseline's
    // sampled path stress on a workload preset (HLA-DRB1, full
    // schedule).
    let lean = parity_graph();
    let baseline = mean_stress(&lean, 1, Precision::F64);
    assert!(baseline.is_finite() && baseline > 0.0);
    // Every reachable fast configuration: f32 on the per-term loop at
    // one thread, and both precisions on the lane kernel at 2 and 4.
    for (threads, precision) in [
        (1, Precision::F32),
        (2, Precision::F64),
        (2, Precision::F32),
        (4, Precision::F64),
        (4, Precision::F32),
    ] {
        let s = mean_stress(&lean, threads, precision);
        assert!(
            s <= baseline * 1.05,
            "{precision:?} {threads}-thread: stress {s:.6} exceeds 105% of baseline {baseline:.6}"
        );
    }
}

/// FNV-1a over the bit patterns of every coordinate, `xs` then `ys`.
fn layout_bits_hash(layout: &Layout2D) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in layout.xs().iter().chain(layout.ys()) {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn single_thread_f64_layout_matches_the_golden_hash() {
    // Pins the faithful baseline exactly: the RNG stream, which terms
    // are accepted, their reference distances and the order they are
    // applied in. Any sampler or kernel change that claims "no quality
    // loss" must leave this hash alone; one that changes the random
    // stream on purpose must re-derive it and say why.
    const GOLDEN: u64 = 0x6fe8_7c29_0eb4_9b0b;
    let lean = preset_graph();
    let layout = CpuEngine::new(cfg(1, Precision::F64)).run(&lean).0;
    let hash = layout_bits_hash(&layout);
    assert_eq!(hash, GOLDEN, "1-thread f64 layout drifted: {hash:#018x}");
}
