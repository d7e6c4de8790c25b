//! Coordinate stores across the paper's two performance axes:
//!
//! * **Memory layout** ([`DataLayout`], Sec. V-B1, Fig. 9) —
//!   odgi's struct-of-arrays placement vs. the paper's cache-friendly
//!   array-of-structs repacking (`[len, sx, sy, ex, ey]` per node), the
//!   Table IX ablation.
//! * **Precision** ([`Precision`]) — odgi's `f64` coordinates vs. the
//!   paper's GPU-style `f32` coordinates (Sec. V-B), which halve the
//!   slab's memory traffic.
//!
//! All four combinations expose identical operations over relaxed-atomic
//! cells (Hogwild!), so engines are axis-agnostic and both choices are
//! purely performance knobs. The hot path is [`CoordStore::apply_block`]:
//! it resolves the layout × precision dispatch **once per term block**,
//! then runs a monomorphized straight-line loop — load, update step,
//! racy accumulate — with no per-access branching, which is what lets
//! the compiler keep the loop tight. [`CoordStore::apply_block_simd`]
//! is the same loop restructured as gather → lane-wide delta kernel →
//! scatter (see [`crate::simd`]); [`CoordStore::apply_block_sharded`]
//! routes the scatter through per-owner spill buffers for the
//! sharded-write Hogwild mode.
//!
//! **Bounds-check policy:** the hot loops index slabs with ordinary
//! checked indexing, never `get_unchecked` — measured on this kernel,
//! unchecked indexing was 10–18% *slower* (it defeats LLVM's alias and
//! vectorization reasoning), while the checked form's bounds tests are
//! hoisted. Invariants that indexing cannot express (lane widths,
//! shard-owner ranges) are `debug_assert!`s.

use crate::sampler::Term;
use crate::scalar::LayoutScalar;
use crate::simd::{Lanes, F32_LANES, F64_LANES};
use crate::step::{term_deltas_lanes, term_deltas_t};
use pangraph::layout2d::Layout2D;
use pangraph::lean::LeanGraph;

/// Memory placement of node records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataLayout {
    /// Separate length/x/y arrays (odgi's layout; Fig. 9a).
    OriginalSoa,
    /// Packed per-node records (the paper's layout; Fig. 9b).
    CacheFriendlyAos,
}

impl DataLayout {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            DataLayout::OriginalSoa => "original SoA",
            DataLayout::CacheFriendlyAos => "cache-friendly AoS",
        }
    }
}

/// Coordinate precision of a layout run (the paper's fp32-vs-fp64 axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Double precision — odgi's CPU coordinates. The default.
    #[default]
    F64,
    /// Single precision — the paper's GPU coordinates; half the memory
    /// traffic per update.
    F32,
}

impl Precision {
    /// Lower-case wire/report name (`f64` / `f32`).
    pub fn label(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }

    /// Parse a wire name (`None` for anything unrecognized).
    pub fn parse_name(s: &str) -> Option<Self> {
        match s {
            "f64" => Some(Precision::F64),
            "f32" => Some(Precision::F32),
            _ => None,
        }
    }
}

/// AoS record stride in scalar words: `[len, sx, sy, ex, ey]`.
const AOS_STRIDE: usize = 5;

/// The accessor surface a term block is applied through. Implementations
/// are `#[inline]` leaf functions so [`apply_block_on`] monomorphizes
/// into one branch-free loop per layout × precision combination.
trait SlabOps<T: LayoutScalar> {
    fn load(&self, node: u32, end: bool) -> (T, T);
    fn store(&self, node: u32, end: bool, x: T, y: T);
    fn node_len(&self, node: u32) -> T;
}

/// Cache-line size the coordinate slabs align their first element to.
const SLAB_ALIGN: usize = 64;

/// A slab whose logical element 0 sits on a cache-line boundary.
///
/// `Vec` only guarantees the allocation is aligned to the element type,
/// so a slab's first cache line may be shared with the allocator's
/// neighbouring data — false sharing the sharded-write mode exists to
/// avoid. Rather than reach for `unsafe` raw allocation (the crate
/// denies `unsafe`; its one exception is the sampler's prefetch hint),
/// we over-allocate by one cache line of elements and compute, once,
/// the element offset that lands index 0 on a 64-byte boundary.
/// Accessors add the constant offset; LLVM folds it into the addressing
/// mode, so the aligned slab costs nothing per access.
struct AlignedSlab<C> {
    buf: Vec<C>,
    off: usize,
}

impl<C> AlignedSlab<C> {
    fn new(n: usize, fill: impl FnMut() -> C) -> Self {
        let size = std::mem::size_of::<C>().max(1);
        // One extra cache line of elements gives room to slide forward.
        let pad = SLAB_ALIGN.div_ceil(size);
        let buf: Vec<C> = std::iter::repeat_with(fill).take(n + pad).collect();
        let addr = buf.as_ptr() as usize;
        let off_bytes = addr.next_multiple_of(SLAB_ALIGN) - addr;
        debug_assert_eq!(off_bytes % size, 0, "cell size must divide the alignment");
        Self {
            buf,
            off: off_bytes / size,
        }
    }

    /// Borrow the logical element `i` (bounds-checked; see module docs).
    #[inline(always)]
    fn cell(&self, i: usize) -> &C {
        &self.buf[self.off + i]
    }

    /// Address of logical element 0 (for alignment assertions in tests).
    #[cfg(test)]
    fn base_addr(&self) -> usize {
        self.buf[self.off..].as_ptr() as usize
    }
}

/// odgi-style struct-of-arrays: lengths, x and y in separate slabs.
struct SoaSlab<T: LayoutScalar> {
    len: Vec<T>,
    xs: AlignedSlab<T::Cell>,
    ys: AlignedSlab<T::Cell>,
}

impl<T: LayoutScalar> SoaSlab<T> {
    fn new(lean: &LeanGraph) -> Self {
        let n = lean.node_count();
        Self {
            len: lean
                .node_len
                .iter()
                .map(|&l| T::from_f64(l as f64))
                .collect(),
            xs: zeroed_cells::<T>(2 * n),
            ys: zeroed_cells::<T>(2 * n),
        }
    }
}

impl<T: LayoutScalar> SlabOps<T> for SoaSlab<T> {
    #[inline]
    fn load(&self, node: u32, end: bool) -> (T, T) {
        let i = 2 * node as usize + end as usize;
        (T::cell_load(self.xs.cell(i)), T::cell_load(self.ys.cell(i)))
    }

    #[inline]
    fn store(&self, node: u32, end: bool, x: T, y: T) {
        let i = 2 * node as usize + end as usize;
        T::cell_store(self.xs.cell(i), x);
        T::cell_store(self.ys.cell(i), y);
    }

    #[inline]
    fn node_len(&self, node: u32) -> T {
        self.len[node as usize]
    }
}

/// The paper's array-of-structs record: node `i` at `5i`.
struct AosSlab<T: LayoutScalar> {
    rec: AlignedSlab<T::Cell>,
}

impl<T: LayoutScalar> AosSlab<T> {
    fn new(lean: &LeanGraph) -> Self {
        let rec = zeroed_cells::<T>(AOS_STRIDE * lean.node_count());
        for (i, &l) in lean.node_len.iter().enumerate() {
            T::cell_store(rec.cell(AOS_STRIDE * i), T::from_f64(l as f64));
        }
        Self { rec }
    }
}

impl<T: LayoutScalar> SlabOps<T> for AosSlab<T> {
    #[inline]
    fn load(&self, node: u32, end: bool) -> (T, T) {
        let base = AOS_STRIDE * node as usize + 1 + 2 * end as usize;
        (
            T::cell_load(self.rec.cell(base)),
            T::cell_load(self.rec.cell(base + 1)),
        )
    }

    #[inline]
    fn store(&self, node: u32, end: bool, x: T, y: T) {
        let base = AOS_STRIDE * node as usize + 1 + 2 * end as usize;
        T::cell_store(self.rec.cell(base), x);
        T::cell_store(self.rec.cell(base + 1), y);
    }

    #[inline]
    fn node_len(&self, node: u32) -> T {
        T::cell_load(self.rec.cell(AOS_STRIDE * node as usize))
    }
}

fn zeroed_cells<T: LayoutScalar>(n: usize) -> AlignedSlab<T::Cell> {
    AlignedSlab::new(n, || T::cell_new(T::ZERO))
}

/// Hogwild-accumulate one endpoint: racy relaxed load → add → store.
#[inline]
fn hogwild_add_on<T: LayoutScalar, S: SlabOps<T>>(slab: &S, node: u32, end: bool, dx: T, dy: T) {
    let (x, y) = slab.load(node, end);
    slab.store(node, end, x + dx, y + dy);
}

/// One half of an out-of-shard term, addressed to the owner of `node`.
///
/// The spill carries the *term*, not a precomputed delta: the owner
/// recomputes the update from fresh coordinates when it drains
/// ([`CoordStore::apply_spills`]). Spilling deltas instead diverges —
/// under Zipf sampling a thread draws the same popular pair many times
/// per block, and m identical halfway-corrections computed from one
/// stale read then land as an m/2-fold overshoot. Recomputing at drain
/// time keeps the update a contraction, at the cost of re-running the
/// delta kernel for cross-shard terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillEntry {
    /// Target node (owned by the destination shard).
    pub node: u32,
    /// Target endpoint (start/end).
    pub end: bool,
    /// The term's other node.
    pub other: u32,
    /// The other node's endpoint.
    pub other_end: bool,
    /// The term's reference distance.
    pub d_ref: f64,
}

/// Per-destination spill buffers for one worker thread in sharded-write
/// mode: `bufs[owner]` collects the deltas this thread computed for
/// nodes owned by `owner`. Drained at block boundaries by the engine.
#[derive(Debug, Default)]
pub struct ShardSpills {
    /// One buffer per destination shard (including our own, unused).
    pub bufs: Vec<Vec<SpillEntry>>,
}

impl ShardSpills {
    /// Empty buffers for `threads` destination shards.
    pub fn new(threads: usize) -> Self {
        Self {
            bufs: (0..threads).map(|_| Vec::new()).collect(),
        }
    }
}

/// The scalar hot loop: apply a sampled term block with fully inlined,
/// branch-free accessors, routing each endpoint delta through `scatter`
/// (direct Hogwild add, or shard routing). `scatter` receives the term
/// and which side the delta belongs to (`first` = the `i` side), so a
/// routing scatter can reconstruct the term half it spills. Called once
/// per block, so the layout × precision dispatch cost is amortized over
/// the block.
#[inline]
fn apply_block_scalar<T, S>(
    slab: &S,
    terms: &[Term],
    eta: T,
    scatter: &mut impl FnMut(&S, &Term, bool, T, T),
) where
    T: LayoutScalar,
    S: SlabOps<T>,
{
    for t in terms {
        let vi = slab.load(t.node_i, t.end_i);
        let vj = slab.load(t.node_j, t.end_j);
        let (di, dj) = term_deltas_t(vi, vj, T::from_f64(t.d_ref), eta);
        scatter(slab, t, true, di.0, di.1);
        scatter(slab, t, false, dj.0, dj.1);
    }
}

/// The plain scatter: Hogwild-add the delta to its endpoint.
#[inline]
fn direct_scatter<T: LayoutScalar, S: SlabOps<T>>(slab: &S, t: &Term, first: bool, dx: T, dy: T) {
    let (node, end) = if first {
        (t.node_i, t.end_i)
    } else {
        (t.node_j, t.end_j)
    };
    hogwild_add_on(slab, node, end, dx, dy);
}

/// The vector hot loop: gather `W` terms' endpoints into lane arrays,
/// run the lane-wide delta kernel, then scatter the Hogwild adds.
///
/// Per-lane arithmetic is IEEE-identical to the scalar loop; only the
/// memory interleaving differs (all `W` gathers happen before any of
/// the group's scatters), so a group that touches one node twice sees
/// the pre-group value in both lanes instead of accumulating — the same
/// benign race Hogwild already tolerates between threads. The remainder
/// tail runs through the scalar loop.
#[inline]
fn apply_block_vec<T, S, const W: usize>(
    slab: &S,
    terms: &[Term],
    eta: T,
    scatter: &mut impl FnMut(&S, &Term, bool, T, T),
) where
    T: LayoutScalar,
    S: SlabOps<T>,
{
    let etav = Lanes::splat(eta);
    let mut groups = terms.chunks_exact(W);
    for g in groups.by_ref() {
        let mut xi = [T::ZERO; W];
        let mut yi = [T::ZERO; W];
        let mut xj = [T::ZERO; W];
        let mut yj = [T::ZERO; W];
        let mut dr = [T::ZERO; W];
        for (l, t) in g.iter().enumerate() {
            let (x, y) = slab.load(t.node_i, t.end_i);
            xi[l] = x;
            yi[l] = y;
            let (x, y) = slab.load(t.node_j, t.end_j);
            xj[l] = x;
            yj[l] = y;
            dr[l] = T::from_f64(t.d_ref);
        }
        let (rx, ry) =
            term_deltas_lanes(Lanes(xi), Lanes(yi), Lanes(xj), Lanes(yj), Lanes(dr), etav);
        for (l, t) in g.iter().enumerate() {
            scatter(slab, t, true, -rx.0[l], -ry.0[l]);
            scatter(slab, t, false, rx.0[l], ry.0[l]);
        }
    }
    apply_block_scalar(slab, groups.remainder(), eta, scatter);
}

/// Pick the kernel shape: scalar loop, or the vector loop at the
/// precision's natural lane width ([`F32_LANES`]/[`F64_LANES`]).
#[inline]
fn apply_block_dispatch<T, S>(
    slab: &S,
    terms: &[Term],
    eta: T,
    simd: bool,
    scatter: &mut impl FnMut(&S, &Term, bool, T, T),
) where
    T: LayoutScalar,
    S: SlabOps<T>,
{
    if !simd {
        apply_block_scalar(slab, terms, eta, scatter);
    } else if std::mem::size_of::<T>() == 4 {
        apply_block_vec::<T, S, F32_LANES>(slab, terms, eta, scatter);
    } else {
        apply_block_vec::<T, S, F64_LANES>(slab, terms, eta, scatter);
    }
}

/// The four slab instantiations (layout × precision).
enum Slabs {
    SoaF64(SoaSlab<f64>),
    AosF64(AosSlab<f64>),
    SoaF32(SoaSlab<f32>),
    AosF32(AosSlab<f32>),
}

/// Hoist the slab dispatch once, then run `$body` with `$slab` bound to
/// the concrete monomorphized slab.
macro_rules! with_slab {
    ($self:expr, $slab:ident, $body:expr) => {
        match &$self.slabs {
            Slabs::SoaF64($slab) => $body,
            Slabs::AosF64($slab) => $body,
            Slabs::SoaF32($slab) => $body,
            Slabs::AosF32($slab) => $body,
        }
    };
}

/// A thread-shared coordinate store for one layout run.
pub struct CoordStore {
    layout: DataLayout,
    precision: Precision,
    n_nodes: usize,
    slabs: Slabs,
}

impl CoordStore {
    /// Allocate a zeroed double-precision store (the historical default;
    /// see [`CoordStore::with_precision`] for the full axis).
    pub fn new(layout: DataLayout, lean: &LeanGraph) -> Self {
        Self::with_precision(layout, Precision::F64, lean)
    }

    /// Allocate a zeroed store for the graph's nodes, recording node
    /// lengths (the AoS layout packs them with the coordinates, which is
    /// the point of that optimization).
    pub fn with_precision(layout: DataLayout, precision: Precision, lean: &LeanGraph) -> Self {
        let slabs = match (layout, precision) {
            (DataLayout::OriginalSoa, Precision::F64) => Slabs::SoaF64(SoaSlab::new(lean)),
            (DataLayout::CacheFriendlyAos, Precision::F64) => Slabs::AosF64(AosSlab::new(lean)),
            (DataLayout::OriginalSoa, Precision::F32) => Slabs::SoaF32(SoaSlab::new(lean)),
            (DataLayout::CacheFriendlyAos, Precision::F32) => Slabs::AosF32(AosSlab::new(lean)),
        };
        Self {
            layout,
            precision,
            n_nodes: lean.node_count(),
            slabs,
        }
    }

    /// The store's layout.
    #[inline]
    pub fn layout(&self) -> DataLayout {
        self.layout
    }

    /// The store's coordinate precision.
    #[inline]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Node length as stored (used by kernels needing `pos + len`).
    #[inline]
    pub fn node_len(&self, node: u32) -> f64 {
        with_slab!(self, s, s.node_len(node).to_f64())
    }

    /// Load one endpoint's coordinates (relaxed).
    #[inline]
    pub fn load(&self, node: u32, end: bool) -> (f64, f64) {
        with_slab!(self, s, {
            let (x, y) = s.load(node, end);
            (x.to_f64(), y.to_f64())
        })
    }

    /// Store one endpoint's coordinates (relaxed).
    #[inline]
    pub fn store(&self, node: u32, end: bool, x: f64, y: f64) {
        with_slab!(self, s, s.store(node, end, from64(s, x), from64(s, y)))
    }

    /// Hogwild-accumulate a delta onto one endpoint.
    #[inline]
    pub fn add(&self, node: u32, end: bool, dx: f64, dy: f64) {
        with_slab!(
            self,
            s,
            hogwild_add_on(s, node, end, from64(s, dx), from64(s, dy))
        )
    }

    /// Apply a block of sampled terms — the engines' hot path. The slab
    /// dispatch happens once here; the per-term loop is monomorphized
    /// straight-line code in the store's native precision. This scalar
    /// path is bit-compatible with prior releases.
    #[inline]
    pub fn apply_block(&self, terms: &[Term], eta: f64) {
        with_slab!(self, s, {
            let eta = from64(s, eta);
            apply_block_scalar(s, terms, eta, &mut direct_scatter)
        })
    }

    /// Apply a term block through the gather → lane kernel → scatter
    /// vector path. Per-lane arithmetic matches the scalar path exactly;
    /// within a lane group all gathers precede all scatters (see
    /// [`crate::simd`] for the equivalence argument), so use
    /// [`CoordStore::apply_block`] where bit-stability against earlier
    /// releases matters.
    #[inline]
    pub fn apply_block_simd(&self, terms: &[Term], eta: f64) {
        with_slab!(self, s, {
            let eta = from64(s, eta);
            apply_block_dispatch(s, terms, eta, true, &mut direct_scatter)
        })
    }

    /// Shard owner of `node` when coordinates are split across `threads`
    /// contiguous write-ranges: `floor(node · threads / n_nodes)`.
    #[inline]
    pub fn shard_owner(&self, node: u32, threads: usize) -> usize {
        debug_assert!(threads >= 1);
        ((node as u64 * threads as u64) / (self.n_nodes as u64).max(1)) as usize
    }

    /// Sharded-write block application: deltas for nodes owned by `tid`
    /// are Hogwild-added directly; term halves targeting foreign nodes
    /// are pushed into `spills.bufs[owner]` for that owner to recompute
    /// and apply at the next block boundary (see [`SpillEntry`] for why
    /// terms, not deltas, travel). With `threads == 1` every node is
    /// self-owned and this is bit-identical to the unsharded path.
    /// `simd` selects the vector kernel as in
    /// [`CoordStore::apply_block_simd`].
    pub fn apply_block_sharded(
        &self,
        terms: &[Term],
        eta: f64,
        simd: bool,
        tid: usize,
        threads: usize,
        spills: &mut ShardSpills,
    ) {
        debug_assert_eq!(spills.bufs.len(), threads);
        let n = (self.n_nodes as u64).max(1);
        let t64 = threads as u64;
        with_slab!(self, s, {
            let eta = from64(s, eta);
            apply_block_dispatch(
                s,
                terms,
                eta,
                simd,
                &mut |s: &_, t: &Term, first: bool, dx, dy| {
                    let (node, end, other, other_end) = if first {
                        (t.node_i, t.end_i, t.node_j, t.end_j)
                    } else {
                        (t.node_j, t.end_j, t.node_i, t.end_i)
                    };
                    let owner = ((node as u64 * t64) / n) as usize;
                    if owner == tid {
                        hogwild_add_on(s, node, end, dx, dy);
                    } else {
                        spills.bufs[owner].push(SpillEntry {
                            node,
                            end,
                            other,
                            other_end,
                            d_ref: t.d_ref,
                        });
                    }
                },
            )
        })
    }

    /// Recompute and apply a drained spill batch — the owner side of
    /// sharded writes. Each entry's delta is recomputed from the
    /// *current* coordinates of both endpoints (the kernel is symmetric
    /// under endpoint swap, so the target-first argument order yields
    /// the target's delta), then Hogwild-added to the target only; the
    /// other half of the term is the sender's (or a third shard's)
    /// responsibility.
    pub fn apply_spills(&self, entries: &[SpillEntry], eta: f64) {
        with_slab!(self, s, {
            let eta = from64(s, eta);
            for e in entries {
                let vt = s.load(e.node, e.end);
                let vo = s.load(e.other, e.other_end);
                let (dt, _) = term_deltas_t(vt, vo, from64(s, e.d_ref), eta);
                hogwild_add_on(s, e.node, e.end, dt.0, dt.1);
            }
        })
    }

    /// Snapshot into a plain [`Layout2D`].
    pub fn to_layout(&self) -> Layout2D {
        let mut out = Layout2D::zeros(self.n_nodes);
        for node in 0..self.n_nodes as u32 {
            for end in [false, true] {
                let (x, y) = self.load(node, end);
                out.set(node, end, x, y);
            }
        }
        out
    }

    /// Initialize every endpoint from a plain layout.
    pub fn load_from(&self, layout: &Layout2D) {
        assert_eq!(layout.node_count(), self.n_nodes, "node count mismatch");
        for node in 0..self.n_nodes as u32 {
            for end in [false, true] {
                let (x, y) = layout.get(node, end);
                self.store(node, end, x, y);
            }
        }
    }
}

/// Narrow an `f64` to a slab's native scalar (type inference helper).
#[inline]
fn from64<T: LayoutScalar, S: SlabOps<T>>(_slab: &S, v: f64) -> T {
    T::from_f64(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangraph::model::fig1_graph;

    fn all_stores() -> Vec<CoordStore> {
        let lean = LeanGraph::from_graph(&fig1_graph());
        let mut out = Vec::new();
        for layout in [DataLayout::OriginalSoa, DataLayout::CacheFriendlyAos] {
            for precision in [Precision::F64, Precision::F32] {
                out.push(CoordStore::with_precision(layout, precision, &lean));
            }
        }
        out
    }

    #[test]
    fn default_constructor_is_f64() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        let store = CoordStore::new(DataLayout::CacheFriendlyAos, &lean);
        assert_eq!(store.precision(), Precision::F64);
    }

    #[test]
    fn node_lengths_are_recorded_in_all_variants() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        for store in all_stores() {
            for (i, &l) in lean.node_len.iter().enumerate() {
                assert_eq!(
                    store.node_len(i as u32),
                    l as f64,
                    "{:?}/{:?}",
                    store.layout(),
                    store.precision()
                );
            }
        }
    }

    #[test]
    fn load_store_round_trip_all_variants() {
        for store in all_stores() {
            store.store(3, false, 1.5, -2.5);
            store.store(3, true, 7.0, 8.0);
            assert_eq!(store.load(3, false), (1.5, -2.5));
            assert_eq!(store.load(3, true), (7.0, 8.0));
            // Neighbours untouched.
            assert_eq!(store.load(2, false), (0.0, 0.0));
            assert_eq!(store.load(4, true), (0.0, 0.0));
            // Length word untouched by coordinate stores (AoS packing).
            assert_eq!(store.node_len(3), 1.0);
        }
    }

    #[test]
    fn add_accumulates() {
        for store in all_stores() {
            store.store(1, true, 10.0, 20.0);
            store.add(1, true, -1.0, 2.0);
            store.add(1, true, 0.5, 0.5);
            let (x, y) = store.load(1, true);
            assert!((x - 9.5).abs() < 1e-6, "{:?}", store.precision());
            assert!((y - 22.5).abs() < 1e-6);
        }
    }

    #[test]
    fn layouts_are_functionally_identical() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        let a = CoordStore::new(DataLayout::OriginalSoa, &lean);
        let b = CoordStore::new(DataLayout::CacheFriendlyAos, &lean);
        for node in 0..lean.node_count() as u32 {
            for end in [false, true] {
                let v = (node as f64 * 2.0 + end as u8 as f64, -(node as f64));
                a.store(node, end, v.0, v.1);
                b.store(node, end, v.0, v.1);
            }
        }
        assert_eq!(a.to_layout(), b.to_layout());
    }

    #[test]
    fn apply_block_matches_scalar_updates_exactly_in_f64() {
        use crate::step::term_deltas;
        let lean = LeanGraph::from_graph(&fig1_graph());
        let terms: Vec<Term> = vec![
            Term {
                s_i: 0,
                s_j: 3,
                node_i: 0,
                node_j: 3,
                end_i: false,
                end_j: true,
                d_ref: 4.0,
            },
            Term {
                s_i: 1,
                s_j: 2,
                node_i: 1,
                node_j: 2,
                end_i: true,
                end_j: false,
                d_ref: 2.0,
            },
            // Touches node 0 again: block application must accumulate.
            Term {
                s_i: 0,
                s_j: 4,
                node_i: 0,
                node_j: 4,
                end_i: false,
                end_j: false,
                d_ref: 1.5,
            },
        ];
        for layout in [DataLayout::OriginalSoa, DataLayout::CacheFriendlyAos] {
            let block = CoordStore::with_precision(layout, Precision::F64, &lean);
            let scalar = CoordStore::with_precision(layout, Precision::F64, &lean);
            for node in 0..lean.node_count() as u32 {
                for end in [false, true] {
                    let v = (node as f64 * 3.0, end as u8 as f64 - 0.5);
                    block.store(node, end, v.0, v.1);
                    scalar.store(node, end, v.0, v.1);
                }
            }
            let eta = 7.5;
            block.apply_block(&terms, eta);
            for t in &terms {
                let vi = scalar.load(t.node_i, t.end_i);
                let vj = scalar.load(t.node_j, t.end_j);
                let (di, dj) = term_deltas(vi, vj, t.d_ref, eta);
                scalar.add(t.node_i, t.end_i, di.0, di.1);
                scalar.add(t.node_j, t.end_j, dj.0, dj.1);
            }
            assert_eq!(block.to_layout(), scalar.to_layout(), "{layout:?}");
        }
    }

    #[test]
    fn f32_apply_block_tracks_f64_within_single_precision() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        let terms = vec![Term {
            s_i: 0,
            s_j: 3,
            node_i: 0,
            node_j: 3,
            end_i: false,
            end_j: true,
            d_ref: 4.0,
        }];
        let wide = CoordStore::with_precision(DataLayout::CacheFriendlyAos, Precision::F64, &lean);
        let narrow =
            CoordStore::with_precision(DataLayout::CacheFriendlyAos, Precision::F32, &lean);
        for s in [&wide, &narrow] {
            s.store(0, false, 0.0, 0.0);
            s.store(3, true, 10.0, 0.0);
        }
        wide.apply_block(&terms, 1e3);
        narrow.apply_block(&terms, 1e3);
        for node in [0u32, 3] {
            for end in [false, true] {
                let (xw, yw) = wide.load(node, end);
                let (xn, yn) = narrow.load(node, end);
                assert!((xw - xn).abs() < 1e-4, "node {node}: {xw} vs {xn}");
                assert!((yw - yn).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn to_layout_and_load_from_round_trip() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        for layout_kind in [DataLayout::OriginalSoa, DataLayout::CacheFriendlyAos] {
            let store = CoordStore::with_precision(layout_kind, Precision::F64, &lean);
            let mut l = Layout2D::zeros(lean.node_count());
            for node in 0..lean.node_count() as u32 {
                l.set(node, false, node as f64, 1.0);
                l.set(node, true, node as f64 + 0.5, -1.0);
            }
            store.load_from(&l);
            assert_eq!(store.to_layout(), l);
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn load_from_rejects_wrong_size() {
        let lean = LeanGraph::from_graph(&fig1_graph());
        let store = CoordStore::new(DataLayout::CacheFriendlyAos, &lean);
        store.load_from(&Layout2D::zeros(3));
    }

    #[test]
    fn slabs_are_cache_line_aligned() {
        let a = AlignedSlab::new(37, || 0u64);
        assert_eq!(a.base_addr() % SLAB_ALIGN, 0);
        let b = AlignedSlab::new(3, || 0u32);
        assert_eq!(b.base_addr() % SLAB_ALIGN, 0);
        // Logical indexing still sees the fill values in order.
        let c = {
            let mut i = 0u32;
            AlignedSlab::new(8, move || {
                i += 1;
                i
            })
        };
        // Elements are shifted by a constant, so consecutive cells stay
        // consecutive.
        assert_eq!(*c.cell(1), *c.cell(0) + 1);
    }

    /// Terms over pairwise-distinct endpoints: in a collision-free lane
    /// group the vector path's gather/scatter reordering is invisible,
    /// so it must be bit-identical to the scalar path.
    fn distinct_terms() -> Vec<Term> {
        (0..11u32)
            .map(|k| Term {
                s_i: 2 * k as usize,
                s_j: 2 * k as usize + 1,
                node_i: 2 * k,
                node_j: 2 * k + 1,
                end_i: k % 2 == 0,
                end_j: k % 3 == 0,
                d_ref: 1.0 + k as f64 * 0.75,
            })
            .collect()
    }

    fn big_lean() -> LeanGraph {
        use workloads::{generate, PangenomeSpec};
        LeanGraph::from_graph(&generate(&PangenomeSpec::basic("coords-simd", 24, 3, 7)))
    }

    fn seed_store(store: &CoordStore) {
        for node in 0..store.node_count() as u32 {
            for end in [false, true] {
                store.store(node, end, node as f64 * 1.25 - 3.0, end as u8 as f64 + 0.5);
            }
        }
    }

    #[test]
    fn simd_path_is_bit_identical_to_scalar_on_collision_free_terms() {
        let lean = big_lean();
        let terms = distinct_terms();
        for layout in [DataLayout::OriginalSoa, DataLayout::CacheFriendlyAos] {
            for precision in [Precision::F64, Precision::F32] {
                let vec = CoordStore::with_precision(layout, precision, &lean);
                let sca = CoordStore::with_precision(layout, precision, &lean);
                seed_store(&vec);
                seed_store(&sca);
                vec.apply_block_simd(&terms, 0.9);
                sca.apply_block(&terms, 0.9);
                assert_eq!(vec.to_layout(), sca.to_layout(), "{layout:?}/{precision:?}");
            }
        }
    }

    #[test]
    fn shard_owner_ranges_are_contiguous_and_cover_all_nodes() {
        let lean = big_lean();
        let store = CoordStore::new(DataLayout::CacheFriendlyAos, &lean);
        for threads in [1usize, 2, 3, 4, 7] {
            let mut prev = 0usize;
            let mut seen = vec![0usize; threads];
            for node in 0..store.node_count() as u32 {
                let o = store.shard_owner(node, threads);
                assert!(o < threads);
                assert!(o >= prev, "owners must be monotone in node id");
                prev = o;
                seen[o] += 1;
            }
            assert!(seen.iter().all(|&c| c > 0), "every shard owns nodes");
        }
    }

    #[test]
    fn sharded_apply_plus_spill_drain_tracks_direct_apply() {
        let lean = big_lean();
        let terms = distinct_terms();
        let threads = 3;
        for precision in [Precision::F64, Precision::F32] {
            let direct = CoordStore::with_precision(DataLayout::CacheFriendlyAos, precision, &lean);
            let sharded =
                CoordStore::with_precision(DataLayout::CacheFriendlyAos, precision, &lean);
            seed_store(&direct);
            seed_store(&sharded);
            let eta = 0.2;
            direct.apply_block(&terms, eta);
            // One "thread" applies everything: its own nodes directly,
            // the rest via spill buffers it then drains itself. Drained
            // halves are *recomputed* against coordinates the direct
            // adds already moved, so the result tracks the direct block
            // to within the update magnitude, not bitwise.
            let tid = 1;
            let mut spills = ShardSpills::new(threads);
            sharded.apply_block_sharded(&terms, eta, false, tid, threads, &mut spills);
            let mut spilled = 0;
            for buf in &spills.bufs {
                spilled += buf.len();
                sharded.apply_spills(buf, eta);
            }
            assert!(spilled > 0, "the term set must cross shard boundaries");
            for node in 0..sharded.node_count() as u32 {
                for end in [false, true] {
                    let (xd, yd) = direct.load(node, end);
                    let (xs, ys) = sharded.load(node, end);
                    assert!(
                        (xd - xs).abs() < 0.05 && (yd - ys).abs() < 0.05,
                        "{precision:?} node {node}: direct ({xd},{yd}) vs sharded ({xs},{ys})"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_single_thread_is_bit_identical_to_unsharded() {
        let lean = big_lean();
        let terms = distinct_terms();
        let plain = CoordStore::new(DataLayout::CacheFriendlyAos, &lean);
        let sharded = CoordStore::new(DataLayout::CacheFriendlyAos, &lean);
        seed_store(&plain);
        seed_store(&sharded);
        plain.apply_block(&terms, 0.7);
        let mut spills = ShardSpills::new(1);
        sharded.apply_block_sharded(&terms, 0.7, false, 0, 1, &mut spills);
        assert!(spills.bufs[0].is_empty(), "self-owned deltas never spill");
        assert_eq!(plain.to_layout(), sharded.to_layout());
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(
            DataLayout::OriginalSoa.label(),
            DataLayout::CacheFriendlyAos.label()
        );
        assert_ne!(Precision::F64.label(), Precision::F32.label());
        assert_eq!(Precision::parse_name("f32"), Some(Precision::F32));
        assert_eq!(Precision::parse_name("f64"), Some(Precision::F64));
        assert_eq!(Precision::parse_name("f128"), None);
        assert_eq!(Precision::default(), Precision::F64);
    }
}
