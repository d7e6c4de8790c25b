//! Term sampling — Alg. 1 lines 5–13, shared by every engine.
//!
//! One *term* is a pair of visualization points on the same path:
//!
//! 1. pick a path with probability ∝ |p| (alias table, O(1));
//! 2. pick the first step uniformly;
//! 3. *cooling* (unconditionally in the second half of the schedule, by
//!    coin flip before): pick the second step at a Zipf-distributed rank
//!    distance — this refines local structure; otherwise pick it
//!    uniformly — this establishes global structure;
//! 4. flip a coin per node for which segment endpoint to move;
//! 5. compute the reference distance from the path index.
//!
//! Terms with `d_ref = 0` (coincident endpoints) are rejected, as in
//! odgi-layout.
//!
//! # Memory layout of the gather
//!
//! Steps 1–4 touch only the RNG, the per-path offsets and the small
//! alias/Zipf tables, which stay cache-resident. Step 5 is the
//! expensive part at chromosome scale: each endpoint needs its step's
//! position, its node id and — for a segment-end draw — the node's
//! length, three arrays in [`LeanGraph`] and up to six dependent cache
//! misses per term. The sampler therefore owns a packed copy of that
//! data, one 16-byte `StepRec` per flat step (`pos`, `node`, `len`),
//! so each endpoint costs a single cache line; the copy costs 16 B per
//! step for as long as the sampler lives (one engine run).
//!
//! Sampling is split in two halves: `PairSampler::draw` consumes the
//! random stream and yields step indices and coins, and
//! `PairSampler::resolve` reads the two records and computes the
//! reference distance. [`PairSampler::sample_block`] runs them as two
//! passes over chunks of 64 draws: pass 1 draws and prefetches
//! both records of every surviving draw, pass 2 resolves the chunk, so
//! the record misses of a chunk overlap instead of chaining one term at
//! a time. Both halves see exactly the draws the scalar
//! [`PairSampler::sample`] sees, in the same order, so the random
//! stream and the accepted terms do not depend on the block shape.

use crate::config::{LayoutConfig, PairSelection};
use pangraph::lean::LeanGraph;
use pgrng::{AliasTable, Rng64, ZipfTable};

/// Draws per two-pass chunk in [`PairSampler::sample_block`]: enough
/// record loads in flight to cover memory latency, few enough that the
/// prefetched lines are still in L1 when pass 2 reads them.
const CHUNK: usize = 64;

/// One sampled SGD term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Term {
    /// Flat step index of the first node's step.
    pub s_i: usize,
    /// Flat step index of the second node's step.
    pub s_j: usize,
    /// Node ids (cached to save a lookup in the hot loop).
    pub node_i: u32,
    /// Second node id.
    pub node_j: u32,
    /// Chosen endpoint of node i (`true` = segment end).
    pub end_i: bool,
    /// Chosen endpoint of node j.
    pub end_j: bool,
    /// Reference distance (positive).
    pub d_ref: f64,
}

/// Everything the gather needs about one flat step, in one aligned
/// 16-byte record: `LeanGraph::step_pos[s]`, `step_node[s]` and
/// `node_len[step_node[s]]`.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(16))]
struct StepRec {
    /// Nucleotide offset of the step's start within its path.
    pos: u64,
    /// Node id of the step.
    node: u32,
    /// Sequence length of that node.
    len: u32,
}

impl StepRec {
    /// Path position of the chosen endpoint (`use_end` adds the node
    /// length), as [`LeanGraph::endpoint_pos_of_flat`] computes it.
    #[inline]
    fn endpoint(self, use_end: bool) -> u64 {
        if use_end {
            self.pos + self.len as u64
        } else {
            self.pos
        }
    }
}

/// The random half of a term: which two steps and which endpoints.
#[derive(Clone, Copy, Default)]
struct Draw {
    /// Flat step index of the first endpoint.
    s_i: usize,
    /// Flat step index of the second endpoint.
    s_j: usize,
    /// Segment end of step `s_i`'s node (`false` = start).
    end_i: bool,
    /// Segment end of step `s_j`'s node.
    end_j: bool,
}

/// Shared, read-only sampler state.
#[derive(Debug)]
pub struct PairSampler {
    alias: AliasTable,
    zipf: ZipfTable,
    first_cooling: u32,
    selection: PairSelection,
    recs: Vec<StepRec>,
}

impl PairSampler {
    /// Build the sampler for a graph under a config, including the
    /// packed step records (16 B per step of `lean`).
    pub fn new(lean: &LeanGraph, cfg: &LayoutConfig) -> Self {
        let weights = lean.path_weights();
        let max_space = (lean.max_path_steps() as u64).max(2);
        let recs = lean
            .step_node
            .iter()
            .zip(&lean.step_pos)
            .map(|(&node, &pos)| StepRec {
                pos,
                node,
                len: lean.node_len[node as usize],
            })
            .collect();
        Self {
            alias: AliasTable::new(&weights),
            zipf: ZipfTable::new(
                cfg.zipf_theta,
                cfg.zipf_space_max.min(max_space).max(2),
                cfg.zipf_quant,
                max_space,
            ),
            first_cooling: cfg.first_cooling_iter(),
            selection: cfg.pair_selection,
            recs,
        }
    }

    /// The iteration at which cooling becomes unconditional.
    pub fn first_cooling_iter(&self) -> u32 {
        self.first_cooling
    }

    /// Draw one term for iteration `iter`, or `None` when the draw is
    /// rejected (single-step path, out-of-range fixed hop, or zero
    /// reference distance).
    #[inline]
    pub fn sample<R: Rng64>(&self, lean: &LeanGraph, rng: &mut R, iter: u32) -> Option<Term> {
        self.draw(lean, rng, iter).and_then(|d| self.resolve(d))
    }

    /// The random half of [`PairSampler::sample`]: path, steps `i` and
    /// `j`, and the four coins. Reads only the RNG, `lean`'s per-path
    /// offsets and the sampler's tables — never a per-step array — and
    /// returns `None` for a single-step path or an infeasible hop.
    #[inline]
    fn draw<R: Rng64>(&self, lean: &LeanGraph, rng: &mut R, iter: u32) -> Option<Draw> {
        let p = self.alias.sample(rng) as u32;
        let n = lean.steps_in(p);
        if n < 2 {
            return None;
        }
        let i = rng.gen_below(n as u64) as usize;
        // One draw covers all four per-term coins (cooling, direction,
        // endpoint i, endpoint j), taken from the generator's highest
        // bits — xoshiro+'s best-equidistributed ones. Four separate
        // `flip()` draws would spend three extra generator steps per
        // term on single bits.
        let coins = rng.next_u64();
        let (coin_cool, coin_dir) = (coins >> 63 == 1, coins >> 62 & 1 == 1);
        let (end_i, end_j) = (coins >> 61 & 1 == 1, coins >> 60 & 1 == 1);
        let j = match self.selection {
            PairSelection::PgSgd => {
                let cooling = iter >= self.first_cooling || coin_cool;
                if cooling {
                    let z = self.zipf.sample(rng, (n - 1) as u64) as usize;
                    // Random direction, falling back to the feasible side.
                    if coin_dir {
                        if i + z < n {
                            i + z
                        } else if i >= z {
                            i - z
                        } else {
                            return None;
                        }
                    } else if i >= z {
                        i - z
                    } else if i + z < n {
                        i + z
                    } else {
                        return None;
                    }
                } else {
                    // Uniform j ≠ i.
                    let mut j = rng.gen_below(n as u64 - 1) as usize;
                    if j >= i {
                        j += 1;
                    }
                    j
                }
            }
            PairSelection::FixedHop(k) => {
                let k = k as usize;
                if i + k < n {
                    i + k
                } else if i >= k {
                    i - k
                } else {
                    return None;
                }
            }
        };
        debug_assert_ne!(i, j);
        Some(Draw {
            s_i: lean.flat_step(p, i),
            s_j: lean.flat_step(p, j),
            end_i,
            end_j,
        })
    }

    /// The memory half of [`PairSampler::sample`]: read both step
    /// records and compute the reference distance exactly as
    /// [`LeanGraph::d_ref_endpoints`] does. `None` when the endpoints
    /// coincide (`d_ref = 0`).
    #[inline]
    fn resolve(&self, d: Draw) -> Option<Term> {
        let (a, b) = (self.recs[d.s_i], self.recs[d.s_j]);
        let d_ref = a.endpoint(d.end_i).abs_diff(b.endpoint(d.end_j)) as f64;
        if d_ref <= 0.0 {
            return None;
        }
        Some(Term {
            s_i: d.s_i,
            s_j: d.s_j,
            node_i: a.node,
            node_j: b.node,
            end_i: d.end_i,
            end_j: d.end_j,
            d_ref,
        })
    }

    /// Draw `want` times for iteration `iter`, collecting the accepted
    /// terms into `out` (cleared first). One call per hot-loop block —
    /// the engines sample a block, then apply it in a single
    /// monomorphized pass ([`crate::coords::CoordStore::apply_block`]),
    /// amortizing sampler dispatch. Returns the number accepted.
    ///
    /// Works in two passes per chunk of 64 draws (see the module
    /// docs). RNG consumption and the accepted terms, in order, are
    /// identical to `want` scalar [`PairSampler::sample`] calls, so
    /// block size never changes the random stream.
    #[inline]
    pub fn sample_block<R: Rng64>(
        &self,
        lean: &LeanGraph,
        rng: &mut R,
        iter: u32,
        want: usize,
        out: &mut Vec<Term>,
    ) -> usize {
        out.clear();
        let mut pending = [Draw::default(); CHUNK];
        let mut left = want;
        while left > 0 {
            let n = left.min(CHUNK);
            left -= n;
            let mut k = 0;
            for _ in 0..n {
                if let Some(d) = self.draw(lean, rng, iter) {
                    prefetch(&self.recs[d.s_i]);
                    prefetch(&self.recs[d.s_j]);
                    pending[k] = d;
                    k += 1;
                }
            }
            out.extend(pending[..k].iter().filter_map(|&d| self.resolve(d)));
        }
        out.len()
    }
}

/// Hint the CPU to start loading the cache line holding `r`.
///
/// The crate's only `unsafe`: `_mm_prefetch` takes a raw pointer. On
/// targets without the intrinsic this is a no-op and pass 2 of
/// [`PairSampler::sample_block`] simply takes the misses itself.
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the pointer comes from a live shared reference — at the
    // call sites, a bounds-checked index into the record vector — so it
    // points into an allocation. A prefetch is only a hint in any case:
    // it never faults, even for an invalid address, and it neither reads
    // a value into the program nor writes memory. SSE, which provides
    // the instruction, is part of the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((r as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangraph::model::fig1_graph;
    use pgrng::Xoshiro256Plus;
    use workloads::{generate, PangenomeSpec};

    fn test_lean() -> LeanGraph {
        LeanGraph::from_graph(&generate(&PangenomeSpec::basic("s", 200, 6, 3)))
    }

    #[test]
    fn sampled_terms_are_valid() {
        let lean = test_lean();
        let cfg = LayoutConfig::default();
        let sampler = PairSampler::new(&lean, &cfg);
        let mut rng = Xoshiro256Plus::seed_from_u64(1);
        let mut accepted = 0;
        for iter in [0u32, 10, 20, 29] {
            for _ in 0..2000 {
                if let Some(t) = sampler.sample(&lean, &mut rng, iter) {
                    accepted += 1;
                    assert!(t.d_ref > 0.0);
                    assert_eq!(
                        t.d_ref.to_bits(),
                        lean.d_ref_endpoints(t.s_i, t.end_i, t.s_j, t.end_j)
                            .to_bits()
                    );
                    assert_ne!(t.s_i, t.s_j);
                    assert!(t.s_i < lean.total_steps());
                    assert!(t.s_j < lean.total_steps());
                    assert_eq!(t.node_i, lean.node_of_flat(t.s_i));
                    assert_eq!(t.node_j, lean.node_of_flat(t.s_j));
                    // Same path: both flat steps in one path's range.
                    let in_same_path = (0..lean.path_count() as u32).any(|p| {
                        let lo = lean.flat_step(p, 0);
                        let hi = lo + lean.steps_in(p);
                        (lo..hi).contains(&t.s_i) && (lo..hi).contains(&t.s_j)
                    });
                    assert!(in_same_path);
                }
            }
        }
        assert!(accepted > 6000, "acceptance too low: {accepted}");
    }

    #[test]
    fn cooling_shrinks_rank_distance() {
        // After the cooling point the mean |i−j| in *steps* should be much
        // smaller than during the uniform phase.
        let lean = test_lean();
        let cfg = LayoutConfig {
            cooling_start: 0.5,
            ..LayoutConfig::default()
        };
        let sampler = PairSampler::new(&lean, &cfg);
        let mut rng = Xoshiro256Plus::seed_from_u64(2);
        let mean_gap = |iter: u32, rng: &mut Xoshiro256Plus| {
            let mut tot = 0f64;
            let mut cnt = 0f64;
            for _ in 0..20_000 {
                if let Some(t) = sampler.sample(&lean, rng, iter) {
                    tot += (t.s_i as f64 - t.s_j as f64).abs();
                    cnt += 1.0;
                }
            }
            tot / cnt
        };
        // iter 0: ~50% cooling (coin); iter 29: 100% cooling.
        let early = mean_gap(0, &mut rng);
        let late = mean_gap(29, &mut rng);
        assert!(
            late < 0.7 * early,
            "late gap {late} should be well below early gap {early}"
        );
    }

    #[test]
    fn fixed_hop_selection_has_constant_gap() {
        let lean = test_lean();
        let cfg = LayoutConfig {
            pair_selection: PairSelection::FixedHop(10),
            ..LayoutConfig::default()
        };
        let sampler = PairSampler::new(&lean, &cfg);
        let mut rng = Xoshiro256Plus::seed_from_u64(3);
        for _ in 0..5000 {
            if let Some(t) = sampler.sample(&lean, &mut rng, 0) {
                let gap = (t.s_i as i64 - t.s_j as i64).unsigned_abs();
                assert_eq!(gap, 10);
            }
        }
    }

    #[test]
    fn single_step_paths_are_rejected() {
        use pangraph::model::{GraphBuilder, Handle};
        let mut b = GraphBuilder::new();
        let a = b.add_node_len(5);
        b.add_path("single", vec![Handle::forward(a)]);
        let lean = LeanGraph::from_graph(&b.build());
        let cfg = LayoutConfig::default();
        let sampler = PairSampler::new(&lean, &cfg);
        let mut rng = Xoshiro256Plus::seed_from_u64(4);
        for _ in 0..100 {
            assert!(sampler.sample(&lean, &mut rng, 0).is_none());
        }
    }

    #[test]
    fn path_selection_is_length_weighted() {
        // fig1: paths of 6/5/7 steps. Count which path each term lands in.
        let lean = LeanGraph::from_graph(&fig1_graph());
        let cfg = LayoutConfig::default();
        let sampler = PairSampler::new(&lean, &cfg);
        let mut rng = Xoshiro256Plus::seed_from_u64(5);
        let mut counts = [0usize; 3];
        let ranges: Vec<(usize, usize)> = (0..3u32)
            .map(|p| {
                let lo = lean.flat_step(p, 0);
                (lo, lo + lean.steps_in(p))
            })
            .collect();
        let draws = 60_000;
        for _ in 0..draws {
            if let Some(t) = sampler.sample(&lean, &mut rng, 0) {
                for (pi, &(lo, hi)) in ranges.iter().enumerate() {
                    if (lo..hi).contains(&t.s_i) {
                        counts[pi] += 1;
                    }
                }
            }
        }
        let total: usize = counts.iter().sum();
        let freq: Vec<f64> = counts.iter().map(|&c| c as f64 / total as f64).collect();
        for (pi, expect) in [(0usize, 6.0 / 18.0), (1, 5.0 / 18.0), (2, 7.0 / 18.0)] {
            assert!(
                (freq[pi] - expect).abs() < 0.04,
                "path {pi}: {} vs {expect}",
                freq[pi]
            );
        }
    }

    /// A graph where most draws land on a single-step path and are
    /// rejected in the random half, mixed with one multi-step path.
    fn lean_with_single_step_paths() -> LeanGraph {
        use pangraph::model::{GraphBuilder, Handle};
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..8u32).map(|k| b.add_node_len(1 + k)).collect();
        for (k, &n) in nodes.iter().enumerate() {
            b.add_path(format!("single{k}"), vec![Handle::forward(n)]);
        }
        b.add_path("long", nodes.iter().map(|&n| Handle::forward(n)).collect());
        LeanGraph::from_graph(&b.build())
    }

    #[test]
    fn block_sampling_consumes_the_same_stream_as_scalar_sampling() {
        let pgsgd = LayoutConfig::default();
        let hop = LayoutConfig {
            pair_selection: PairSelection::FixedHop(7),
            ..LayoutConfig::default()
        };
        let cases = [
            ("pgsgd", test_lean(), pgsgd.clone(), false),
            ("fixed hop", test_lean(), hop, false),
            (
                "single-step paths",
                lean_with_single_step_paths(),
                pgsgd,
                true,
            ),
        ];
        for (label, lean, cfg, must_reject) in cases {
            let sampler = PairSampler::new(&lean, &cfg);
            let cool = sampler.first_cooling_iter();
            assert!(cool > 0);
            let mut scalar_rng = Xoshiro256Plus::seed_from_u64(9);
            let mut block_rng = Xoshiro256Plus::seed_from_u64(9);
            let mut block = Vec::new();
            let mut rejected = 0;
            // Chunk edges on both sides of the cooling switch.
            for iter in [0, cool - 1, cool, cool + 1] {
                for want in [0usize, 1, 63, 64, 65, 300] {
                    let n = sampler.sample_block(&lean, &mut block_rng, iter, want, &mut block);
                    assert_eq!(n, block.len());
                    let scalar: Vec<Term> = (0..want)
                        .filter_map(|_| sampler.sample(&lean, &mut scalar_rng, iter))
                        .collect();
                    assert_eq!(block, scalar, "{label}: iter {iter}, want {want}");
                    rejected += want - n;
                }
            }
            assert_eq!(
                block_rng.next_u64(),
                scalar_rng.next_u64(),
                "{label}: streams diverged"
            );
            assert!(!must_reject || rejected > 0, "{label}: no draw rejected");
        }
    }

    #[test]
    fn step_records_match_the_lean_graph() {
        for lean in [test_lean(), lean_with_single_step_paths()] {
            let sampler = PairSampler::new(&lean, &LayoutConfig::default());
            assert_eq!(sampler.recs.len(), lean.total_steps());
            assert_eq!(std::mem::size_of::<StepRec>(), 16);
            assert_eq!(std::mem::align_of::<StepRec>(), 16);
            for (s, rec) in sampler.recs.iter().enumerate() {
                assert_eq!(rec.pos, lean.pos_of_flat(s), "step {s}");
                assert_eq!(rec.node, lean.node_of_flat(s), "step {s}");
                assert_eq!(rec.len, lean.node_len[rec.node as usize], "step {s}");
                for end in [false, true] {
                    assert_eq!(rec.endpoint(end), lean.endpoint_pos_of_flat(s, end));
                }
            }
        }
    }

    #[test]
    fn determinism_per_seed() {
        let lean = test_lean();
        let cfg = LayoutConfig::default();
        let sampler = PairSampler::new(&lean, &cfg);
        let mut a = Xoshiro256Plus::seed_from_u64(6);
        let mut b = Xoshiro256Plus::seed_from_u64(6);
        for iter in 0..8 {
            assert_eq!(
                sampler.sample(&lean, &mut a, iter),
                sampler.sample(&lean, &mut b, iter)
            );
        }
    }
}
