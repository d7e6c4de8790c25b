//! The benchmark's layout-quality figure: sampled path stress (paper
//! Eq. 2, drawn exactly as `pgmetrics::sampled_path_stress` draws it)
//! with the largest `TRIM` share of sampled terms left out.
//!
//! The paper's untrimmed mean is dominated by a handful of terms: on a
//! 10-iteration `chr1` layout the per-term standard deviation is ~50
//! against a mean of ~0.005, so two sampling seeds on one layout give
//! means 5x apart, while the mean without the top 0.01% of terms agrees
//! to 1%. The trimmed mean is steady enough to gate on; the untrimmed
//! estimate is still computed and checked against a loose bound.

use pangraph::layout2d::Layout2D;
use pangraph::lean::LeanGraph;
use pgrng::{Rng64, Xoshiro256Plus};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Share of the largest sampled terms left out of the mean.
pub const TRIM: f64 = 1e-4;

/// Expected samples per path step.
pub const SAMPLES_PER_STEP: u64 = 10;

/// Sampling seed (fixed: stress differences come from layouts).
pub const SEED: u64 = 0x5EED_5EED;

/// `f64` with a total order, for the heap of largest terms.
struct Ord64(f64);
impl PartialEq for Ord64 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Ord64 {}
impl PartialOrd for Ord64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ord64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Mean sampled path stress with the largest [`TRIM`] share of terms
/// removed. `NaN` when a term is not finite or nothing was sampled.
pub fn trimmed_stress(layout: &Layout2D, lean: &LeanGraph) -> f64 {
    let draws: u64 = (0..lean.path_count() as u32)
        .map(|p| lean.steps_in(p) as u64)
        .filter(|&s| s >= 2)
        .sum::<u64>()
        * SAMPLES_PER_STEP;
    let k = (draws as f64 * TRIM) as usize;
    let mut top: BinaryHeap<Reverse<Ord64>> = BinaryHeap::with_capacity(k + 1);
    let (mut sum, mut n) = (0.0, 0u64);
    for p in 0..lean.path_count() as u32 {
        let steps = lean.steps_in(p);
        if steps < 2 {
            continue;
        }
        let mut rng =
            Xoshiro256Plus::seed_from_u64(SEED ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let base = lean.flat_step(p, 0);
        for _ in 0..SAMPLES_PER_STEP * steps as u64 {
            let i = rng.gen_below(steps as u64) as usize;
            let mut j = rng.gen_below(steps as u64 - 1) as usize;
            if j >= i {
                j += 1;
            }
            let (s_i, s_j) = (base + i, base + j);
            let (end_i, end_j) = (rng.flip(), rng.flip());
            let d_ref = lean.d_ref_endpoints(s_i, end_i, s_j, end_j);
            let vi = layout.get(lean.node_of_flat(s_i), end_i);
            let vj = layout.get(lean.node_of_flat(s_j), end_j);
            let Some(s) = pgmetrics::term_stress(vi, vj, d_ref) else {
                continue;
            };
            if !s.is_finite() {
                return f64::NAN;
            }
            sum += s;
            n += 1;
            if k > 0 {
                if top.len() < k {
                    top.push(Reverse(Ord64(s)));
                } else if s > top.peek().expect("heap holds k terms").0 .0 {
                    top.pop();
                    top.push(Reverse(Ord64(s)));
                }
            }
        }
    }
    let dropped: f64 = top.iter().map(|r| r.0 .0).sum();
    let kept = n - top.len() as u64;
    if kept == 0 {
        return f64::NAN;
    }
    (sum - dropped) / kept as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmetrics::{sampled_path_stress, SamplingConfig};

    fn laid_out(sites: usize, iters: u32) -> (Layout2D, LeanGraph) {
        let spec = workloads::PangenomeSpec::basic("t", sites, 6, 4);
        let lean = LeanGraph::from_graph(&workloads::generate(&spec));
        let cfg = layout_core::LayoutConfig {
            iter_max: iters,
            threads: 1,
            ..layout_core::LayoutConfig::default()
        };
        (layout_core::CpuEngine::new(cfg).run(&lean).0, lean)
    }

    fn paper_mean(layout: &Layout2D, lean: &LeanGraph) -> f64 {
        let cfg = SamplingConfig {
            samples_per_node: SAMPLES_PER_STEP as u32,
            seed: SEED,
        };
        sampled_path_stress(layout, lean, cfg).mean
    }

    #[test]
    fn draws_the_same_terms_as_the_paper_estimator() {
        // Under 1/TRIM draws nothing is trimmed: the means must agree.
        let (layout, lean) = laid_out(40, 4);
        let paper = paper_mean(&layout, &lean);
        assert!((trimmed_stress(&layout, &lean) - paper).abs() <= 1e-12 * paper);
    }

    #[test]
    fn trimming_removes_the_largest_terms() {
        let (layout, lean) = laid_out(3000, 6);
        let trimmed = trimmed_stress(&layout, &lean);
        assert!(trimmed > 0.0 && trimmed < paper_mean(&layout, &lean));
    }

    #[test]
    fn non_finite_layout_is_nan() {
        let (mut layout, lean) = laid_out(40, 2);
        layout.set(3, false, f64::NAN, 0.0);
        assert!(trimmed_stress(&layout, &lean).is_nan());
    }
}
