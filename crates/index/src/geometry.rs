//! Axis-aligned rectangles and the metrics the R\*-tree optimizes.
//!
//! The R\*-tree (Beckmann, Kriegel, Schneider, Seeger, SIGMOD 1990) chooses
//! subtrees and splits by a combination of *area*, *margin* (perimeter) and
//! *overlap*; this module implements those primitives plus the point/rect
//! distance functions used by range queries and by the hierarchical radius
//! refinement of the pattern-query algorithms.
//!
//! The primitives exist in two forms sharing one implementation: methods on
//! [`Rect`], and the `coords_*` functions over raw `(lo, hi)` coordinate
//! slices. The slice form is what the arena tree's flat SoA scans call —
//! `tree.rs` never reimplements a metric, so every scan loop
//! computes bit-identical values to the `Rect` API. [`RectRef`] is the
//! borrowed form the tree hands out: a view of one entry's corners in its
//! node's flat bounds block.
//!
//! # Vectorization and the determinism contract
//!
//! The `coords_*` primitives process bounds in fixed-width chunks of
//! [`LANE_WIDTH`] dimensions. Each chunk is evaluated *element-wise*
//! (subtractions, clamps, min/max, comparisons — the branch-light part the
//! compiler can turn into SIMD lanes), and the final horizontal reduction
//! (product, sum, or any-separated) runs **in dimension order**, exactly
//! like the naive loop. That split is what makes the chunked code
//! bit-identical to the reference implementations in [`scalar`]: per-element
//! IEEE operations are deterministic, and the reduction order is never
//! reassociated. The property suite in `tests/geometry_equivalence.rs` pins
//! both paths together on random and adversarial boxes.
//!
//! Inputs are assumed NaN-free with no negative zeros (the [`Rect`]
//! constructor enforces ordered, non-NaN corners); outside that domain the
//! chunked and scalar paths may legitimately disagree (e.g. `max(-0.0,
//! +0.0)` is sign-unspecified).

/// Fixed chunk width, in `f64` dimensions, used by the chunked scan
/// primitives: 4 lanes = one 256-bit AVX2 register, or two 128-bit SSE2 /
/// NEON registers — wide enough to cover the 8-d feature boxes the
/// summarizer indexes in two chunks, and harmless for 2-d boxes (which
/// fall through to the remainder loop).
pub const LANE_WIDTH: usize = 4;

/// Naive scalar reference implementations of the `coords_*` primitives.
///
/// These are the semantics the chunked fast paths must reproduce
/// **bit-for-bit** on NaN-free inputs; the equivalence property suite
/// compares against them directly. They are also the
/// clearest statement of what each metric computes, so they double as
/// documentation.
pub mod scalar {
    /// Reference for [`super::coords_area`]: ordered product of extents.
    #[inline]
    pub fn area(lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 1.0;
        for i in 0..lo.len() {
            acc *= hi[i] - lo[i];
        }
        acc
    }

    /// Reference for [`super::coords_margin`]: ordered sum of extents.
    #[inline]
    pub fn margin(lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for i in 0..lo.len() {
            acc += hi[i] - lo[i];
        }
        acc
    }

    /// Reference for [`super::coords_intersect`]: no separating axis.
    #[inline]
    pub fn intersect(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> bool {
        for i in 0..alo.len() {
            if alo[i] > bhi[i] || blo[i] > ahi[i] {
                return false;
            }
        }
        true
    }

    /// Reference for [`super::coords_contain`]: `b` inside `a` on every
    /// axis.
    #[inline]
    pub fn contain(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> bool {
        for i in 0..alo.len() {
            if alo[i] > blo[i] || bhi[i] > ahi[i] {
                return false;
            }
        }
        true
    }

    /// Reference for [`super::coords_overlap_area`]: ordered product of
    /// intersection extents, zero as soon as any axis is empty.
    #[inline]
    pub fn overlap_area(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        let mut acc = 1.0;
        for i in 0..alo.len() {
            let lo = alo[i].max(blo[i]);
            let hi = ahi[i].min(bhi[i]);
            if hi <= lo {
                return 0.0;
            }
            acc *= hi - lo;
        }
        acc
    }

    /// Reference for [`super::coords_union_area`]: ordered product of
    /// union extents.
    #[inline]
    pub fn union_area(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        let mut acc = 1.0;
        for i in 0..alo.len() {
            acc *= ahi[i].max(bhi[i]) - alo[i].min(blo[i]);
        }
        acc
    }

    /// Reference for [`super::coords_min_dist_point_sqr`]: ordered sum of
    /// squared per-axis clamp distances.
    #[inline]
    pub fn min_dist_point_sqr(lo: &[f64], hi: &[f64], p: &[f64]) -> f64 {
        let mut acc = 0.0;
        for i in 0..lo.len() {
            let x = p[i];
            let d = if x < lo[i] {
                lo[i] - x
            } else if x > hi[i] {
                x - hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }
}

/// Chunked element-wise implementations: plain std code shaped so the
/// optimizer vectorizes each [`LANE_WIDTH`]-wide block, with in-order
/// horizontal reductions for bit-identity with [`scalar`].
mod lanes {
    use super::LANE_WIDTH as W;

    #[inline]
    pub fn area(lo: &[f64], hi: &[f64]) -> f64 {
        let (lc, lt) = lo.as_chunks::<W>();
        let (hc, ht) = hi.as_chunks::<W>();
        let mut acc = 1.0;
        for (l, h) in lc.iter().zip(hc) {
            let mut e = [0.0; W];
            for i in 0..W {
                e[i] = h[i] - l[i];
            }
            for &x in &e {
                acc *= x;
            }
        }
        for (l, h) in lt.iter().zip(ht) {
            acc *= h - l;
        }
        acc
    }

    #[inline]
    pub fn margin(lo: &[f64], hi: &[f64]) -> f64 {
        let (lc, lt) = lo.as_chunks::<W>();
        let (hc, ht) = hi.as_chunks::<W>();
        let mut acc = 0.0;
        for (l, h) in lc.iter().zip(hc) {
            let mut e = [0.0; W];
            for i in 0..W {
                e[i] = h[i] - l[i];
            }
            for &x in &e {
                acc += x;
            }
        }
        for (l, h) in lt.iter().zip(ht) {
            acc += h - l;
        }
        acc
    }

    #[inline]
    pub fn intersect(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> bool {
        let (alc, alt) = alo.as_chunks::<W>();
        let (ahc, aht) = ahi.as_chunks::<W>();
        let (blc, blt) = blo.as_chunks::<W>();
        let (bhc, bht) = bhi.as_chunks::<W>();
        // Each chunk's separation test is element-wise (vectorizable);
        // chunks short-circuit. Early exit cannot change the boolean
        // result — the reduction is order-free — so bit-identity with the
        // scalar reference is unaffected.
        for (((al, ah), bl), bh) in alc.iter().zip(ahc).zip(blc).zip(bhc) {
            let mut s = false;
            for i in 0..W {
                s |= al[i] > bh[i];
                s |= bl[i] > ah[i];
            }
            if s {
                return false;
            }
        }
        for i in 0..alt.len() {
            if alt[i] > bht[i] || blt[i] > aht[i] {
                return false;
            }
        }
        true
    }

    #[inline]
    pub fn contain(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> bool {
        let (alc, alt) = alo.as_chunks::<W>();
        let (ahc, aht) = ahi.as_chunks::<W>();
        let (blc, blt) = blo.as_chunks::<W>();
        let (bhc, bht) = bhi.as_chunks::<W>();
        // Early exit per chunk, as in `intersect`: order-free reduction.
        for (((al, ah), bl), bh) in alc.iter().zip(ahc).zip(blc).zip(bhc) {
            let mut s = false;
            for i in 0..W {
                s |= al[i] > bl[i];
                s |= bh[i] > ah[i];
            }
            if s {
                return false;
            }
        }
        for i in 0..alt.len() {
            if alt[i] > blt[i] || bht[i] > aht[i] {
                return false;
            }
        }
        true
    }

    #[inline]
    pub fn overlap_area(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        let (alc, alt) = alo.as_chunks::<W>();
        let (ahc, aht) = ahi.as_chunks::<W>();
        let (blc, blt) = blo.as_chunks::<W>();
        let (bhc, bht) = bhi.as_chunks::<W>();
        let mut acc = 1.0;
        let mut empty = false;
        for (((al, ah), bl), bh) in alc.iter().zip(ahc).zip(blc).zip(bhc) {
            let mut e = [0.0; W];
            for i in 0..W {
                let lo = al[i].max(bl[i]);
                let hi = ah[i].min(bh[i]);
                empty |= hi <= lo;
                e[i] = hi - lo;
            }
            for &x in &e {
                acc *= x;
            }
        }
        for i in 0..alt.len() {
            let lo = alt[i].max(blt[i]);
            let hi = aht[i].min(bht[i]);
            empty |= hi <= lo;
            acc *= hi - lo;
        }
        if empty {
            0.0
        } else {
            acc
        }
    }

    #[inline]
    pub fn union_area(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        let (alc, alt) = alo.as_chunks::<W>();
        let (ahc, aht) = ahi.as_chunks::<W>();
        let (blc, blt) = blo.as_chunks::<W>();
        let (bhc, bht) = bhi.as_chunks::<W>();
        let mut acc = 1.0;
        for (((al, ah), bl), bh) in alc.iter().zip(ahc).zip(blc).zip(bhc) {
            let mut e = [0.0; W];
            for i in 0..W {
                e[i] = ah[i].max(bh[i]) - al[i].min(bl[i]);
            }
            for &x in &e {
                acc *= x;
            }
        }
        for i in 0..alt.len() {
            acc *= aht[i].max(bht[i]) - alt[i].min(blt[i]);
        }
        acc
    }

    #[inline]
    pub fn min_dist_point_sqr(lo: &[f64], hi: &[f64], p: &[f64]) -> f64 {
        let (lc, lt) = lo.as_chunks::<W>();
        let (hc, ht) = hi.as_chunks::<W>();
        let (pc, pt) = p.as_chunks::<W>();
        let mut acc = 0.0;
        for ((l, h), q) in lc.iter().zip(hc).zip(pc) {
            let mut e = [0.0; W];
            for i in 0..W {
                let below = (l[i] - q[i]).max(0.0);
                let above = (q[i] - h[i]).max(0.0);
                let d = below + above;
                e[i] = d * d;
            }
            for &x in &e {
                acc += x;
            }
        }
        for i in 0..lt.len() {
            let below = (lt[i] - pt[i]).max(0.0);
            let above = (pt[i] - ht[i]).max(0.0);
            let d = below + above;
            acc += d * d;
        }
        acc
    }
}

/// Volume (product of extents) of the box `[lo, hi]`. Zero for degenerate
/// boxes.
#[inline]
pub fn coords_area(lo: &[f64], hi: &[f64]) -> f64 {
    debug_assert_eq!(lo.len(), hi.len());
    lanes::area(lo, hi)
}

/// Margin (sum of extents; half-perimeter generalized to d dimensions) of
/// the box `[lo, hi]`. The R\*-tree split axis minimizes this.
#[inline]
pub fn coords_margin(lo: &[f64], hi: &[f64]) -> f64 {
    debug_assert_eq!(lo.len(), hi.len());
    lanes::margin(lo, hi)
}

/// `true` if the boxes `[alo, ahi]` and `[blo, bhi]` share at least a
/// boundary point.
#[inline]
pub fn coords_intersect(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> bool {
    debug_assert_eq!(alo.len(), blo.len());
    lanes::intersect(alo, ahi, blo, bhi)
}

/// `true` if the box `[blo, bhi]` lies fully inside `[alo, ahi]`.
#[inline]
pub fn coords_contain(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> bool {
    debug_assert_eq!(alo.len(), blo.len());
    lanes::contain(alo, ahi, blo, bhi)
}

/// Volume of the intersection of two boxes, zero if disjoint.
#[inline]
pub fn coords_overlap_area(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
    debug_assert_eq!(alo.len(), blo.len());
    lanes::overlap_area(alo, ahi, blo, bhi)
}

/// Area of the union of two boxes without materializing it.
#[inline]
pub fn coords_union_area(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
    debug_assert_eq!(alo.len(), blo.len());
    lanes::union_area(alo, ahi, blo, bhi)
}

/// Squared minimum Euclidean distance from point `p` to the box
/// `[lo, hi]` — the square of `d_min(p, B)` of Roussopoulos et al. Zero if
/// `p` is inside. Callers needing the distance itself take `.sqrt()`.
#[inline]
pub fn coords_min_dist_point_sqr(lo: &[f64], hi: &[f64], p: &[f64]) -> f64 {
    debug_assert_eq!(lo.len(), p.len());
    lanes::min_dist_point_sqr(lo, hi, p)
}

/// Squared distance between the centers of the boxes `[alo, ahi]` and
/// `[blo, bhi]`; the R\*-tree reinsertion heuristic sorts by this.
#[inline]
pub(crate) fn coords_center_dist_sqr(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
    debug_assert_eq!(alo.len(), blo.len());
    let mut acc = 0.0;
    for i in 0..alo.len() {
        let c1 = (alo[i] + ahi[i]) * 0.5;
        let c2 = (blo[i] + bhi[i]) * 0.5;
        acc += (c1 - c2) * (c1 - c2);
    }
    acc
}

/// Batched node scan: tests every entry of a node's interleaved SoA
/// bounds block (entry `i` occupies `coords[2*dims*i .. 2*dims*(i+1))`,
/// `dims` los then `dims` his) against the query box `[qlo, qhi]`, and
/// invokes `on_hit` with each intersecting entry's index, in entry order.
///
/// Selection-identical to calling [`coords_intersect`] per entry: the
/// per-dimension comparisons are the same and the OR-reduction over
/// separations is order-free. The win is structural — query bounds and
/// slice bookkeeping are hoisted out of the per-entry loop, and the common
/// dimensionalities get monomorphized bodies the compiler fully unrolls
/// (and, for the branch-free fixed-width paths, vectorizes): one node scan
/// is a single tight loop instead of `entries` separate primitive calls.
#[inline]
pub fn coords_scan_intersecting<F: FnMut(usize)>(
    coords: &[f64],
    dims: usize,
    qlo: &[f64],
    qhi: &[f64],
    on_hit: F,
) {
    debug_assert_eq!(qlo.len(), dims);
    debug_assert_eq!(qhi.len(), dims);
    match dims {
        1 => scan_intersecting_fixed::<1, F>(coords, qlo, qhi, on_hit),
        2 => scan_intersecting_fixed::<2, F>(coords, qlo, qhi, on_hit),
        3 => scan_intersecting_fixed::<3, F>(coords, qlo, qhi, on_hit),
        4 => scan_intersecting_fixed::<4, F>(coords, qlo, qhi, on_hit),
        8 => scan_intersecting_fixed::<8, F>(coords, qlo, qhi, on_hit),
        16 => scan_intersecting_fixed::<16, F>(coords, qlo, qhi, on_hit),
        _ => scan_intersecting_generic(coords, dims, qlo, qhi, on_hit),
    }
}

/// Fixed-dimensionality body of [`coords_scan_intersecting`]. Branch-free
/// across dimensions (`|`-joined comparisons, no early exit) so rejecting
/// an entry costs no data-dependent branches — on query workloads the
/// separating axis is effectively random, and a mispredict per entry is
/// dearer than the handful of extra compares.
#[inline]
fn scan_intersecting_fixed<const D: usize, F: FnMut(usize)>(
    coords: &[f64],
    qlo: &[f64],
    qhi: &[f64],
    mut on_hit: F,
) {
    let qlo: &[f64; D] = qlo.try_into().expect("query dims mismatch");
    let qhi: &[f64; D] = qhi.try_into().expect("query dims mismatch");
    for (i, entry) in coords.chunks_exact(2 * D).enumerate() {
        let (lo, hi) = entry.split_at(D);
        let mut sep = false;
        for j in 0..D {
            sep = sep | (lo[j] > qhi[j]) | (qlo[j] > hi[j]);
        }
        if !sep {
            on_hit(i);
        }
    }
}

/// Runtime-dimensionality fallback of [`coords_scan_intersecting`]:
/// defers to the chunked per-entry primitive so uncommon dimensionalities
/// keep the lane-width fast path.
fn scan_intersecting_generic<F: FnMut(usize)>(
    coords: &[f64],
    dims: usize,
    qlo: &[f64],
    qhi: &[f64],
    mut on_hit: F,
) {
    for (i, entry) in coords.chunks_exact(2 * dims).enumerate() {
        if coords_intersect(&entry[..dims], &entry[dims..], qlo, qhi) {
            on_hit(i);
        }
    }
}

/// Batched within-radius node scan over the same interleaved SoA layout as
/// [`coords_scan_intersecting`]: invokes `on_hit` with the index of every
/// entry whose box lies within Euclidean distance `r` of `point`
/// (`d_min(point, B) ≤ r`), in entry order.
///
/// Bit-identical selection to per-entry
/// `coords_min_dist_point_sqr(..).sqrt() <= r`: per-axis clamp distances
/// are accumulated in dimension order with the exact formulation of the
/// chunked primitive, so the squared distance — and therefore the
/// comparison — carries the same bits.
#[inline]
pub fn coords_scan_within<F: FnMut(usize)>(
    coords: &[f64],
    dims: usize,
    point: &[f64],
    r: f64,
    on_hit: F,
) {
    debug_assert_eq!(point.len(), dims);
    match dims {
        1 => scan_within_fixed::<1, F>(coords, point, r, on_hit),
        2 => scan_within_fixed::<2, F>(coords, point, r, on_hit),
        3 => scan_within_fixed::<3, F>(coords, point, r, on_hit),
        4 => scan_within_fixed::<4, F>(coords, point, r, on_hit),
        8 => scan_within_fixed::<8, F>(coords, point, r, on_hit),
        16 => scan_within_fixed::<16, F>(coords, point, r, on_hit),
        _ => scan_within_generic(coords, dims, point, r, on_hit),
    }
}

/// Fixed-dimensionality body of [`coords_scan_within`]. The per-axis
/// distance uses the branch-free `max(0.0)` clamp of the chunked
/// primitive — for a valid box (`lo ≤ hi`) at most one side is positive,
/// so `below + above` is exactly the scalar clamp distance — and the
/// accumulation stays in dimension order for bit-identity.
#[inline]
fn scan_within_fixed<const D: usize, F: FnMut(usize)>(
    coords: &[f64],
    point: &[f64],
    r: f64,
    mut on_hit: F,
) {
    let point: &[f64; D] = point.try_into().expect("query dims mismatch");
    for (i, entry) in coords.chunks_exact(2 * D).enumerate() {
        let (lo, hi) = entry.split_at(D);
        let mut acc = 0.0;
        for j in 0..D {
            let below = (lo[j] - point[j]).max(0.0);
            let above = (point[j] - hi[j]).max(0.0);
            let d = below + above;
            acc += d * d;
        }
        if acc.sqrt() <= r {
            on_hit(i);
        }
    }
}

/// Runtime-dimensionality fallback of [`coords_scan_within`].
fn scan_within_generic<F: FnMut(usize)>(
    coords: &[f64],
    dims: usize,
    point: &[f64],
    r: f64,
    mut on_hit: F,
) {
    for (i, entry) in coords.chunks_exact(2 * dims).enumerate() {
        if coords_min_dist_point_sqr(&entry[..dims], &entry[dims..], point).sqrt() <= r {
            on_hit(i);
        }
    }
}

/// An axis-aligned hyper-rectangle with `f64` coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl Rect {
    /// Builds a rectangle from low/high corners.
    ///
    /// # Panics
    /// Panics if the corners differ in length, are empty, or are inverted.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimensionality mismatch");
        assert!(!lo.is_empty(), "rectangles need at least one dimension");
        for (l, h) in lo.iter().zip(&hi) {
            assert!(l <= h, "inverted rectangle: lo {l} > hi {h}");
        }
        Rect { lo: lo.into_boxed_slice(), hi: hi.into_boxed_slice() }
    }

    /// A degenerate rectangle at point `p`.
    pub fn point(p: &[f64]) -> Self {
        assert!(!p.is_empty(), "rectangles need at least one dimension");
        Rect { lo: p.into(), hi: p.into() }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Low corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// High corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Center point.
    pub fn center(&self) -> Vec<f64> {
        self.lo.iter().zip(self.hi.iter()).map(|(l, h)| (l + h) * 0.5).collect()
    }

    /// Volume (product of extents). Zero for degenerate rectangles.
    #[inline]
    pub fn area(&self) -> f64 {
        coords_area(&self.lo, &self.hi)
    }

    /// Margin: the sum of extents (half-perimeter generalized to d
    /// dimensions). The R\*-tree split axis minimizes this.
    #[inline]
    pub fn margin(&self) -> f64 {
        coords_margin(&self.lo, &self.hi)
    }

    /// The smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        debug_assert_eq!(self.dims(), other.dims());
        let lo = self.lo.iter().zip(other.lo.iter()).map(|(a, b)| a.min(*b)).collect();
        let hi = self.hi.iter().zip(other.hi.iter()).map(|(a, b)| a.max(*b)).collect();
        Rect { lo, hi }
    }

    /// Grows `self` in place to contain `other`.
    pub fn union_in_place(&mut self, other: &Rect) {
        debug_assert_eq!(self.dims(), other.dims());
        for i in 0..self.lo.len() {
            if other.lo[i] < self.lo[i] {
                self.lo[i] = other.lo[i];
            }
            if other.hi[i] > self.hi[i] {
                self.hi[i] = other.hi[i];
            }
        }
    }

    /// Area of `self ∪ other` without materializing the union.
    #[inline]
    pub fn union_area(&self, other: &Rect) -> f64 {
        coords_union_area(&self.lo, &self.hi, &other.lo, &other.hi)
    }

    /// Extra area `area(self ∪ other) − area(self)` needed to include
    /// `other`; the ChooseSubtree criterion for internal levels.
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union_area(other) - self.area()
    }

    /// Volume of the intersection, zero if disjoint.
    #[inline]
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        coords_overlap_area(&self.lo, &self.hi, &other.lo, &other.hi)
    }

    /// Minimum Euclidean distance from `p` to the rectangle — `d_min(p, B)`
    /// of Roussopoulos et al. Zero if `p` is inside.
    #[inline]
    pub fn min_dist_point(&self, p: &[f64]) -> f64 {
        coords_min_dist_point_sqr(&self.lo, &self.hi, p).sqrt()
    }

    /// Minimum Euclidean distance between two rectangles; zero if they
    /// intersect.
    pub fn min_dist_rect(&self, other: &Rect) -> f64 {
        debug_assert_eq!(self.dims(), other.dims());
        let mut acc = 0.0;
        for i in 0..self.lo.len() {
            let d = if other.hi[i] < self.lo[i] {
                self.lo[i] - other.hi[i]
            } else if other.lo[i] > self.hi[i] {
                other.lo[i] - self.hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc.sqrt()
    }
}

/// A borrowed rectangle: the corners of one R\*-tree entry, sliced from
/// its node's flat bounds block. Search visitors and the tree iterator
/// hand these out instead of `&Rect`, so the tree keeps each entry's
/// bounds exactly once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectRef<'a> {
    lo: &'a [f64],
    hi: &'a [f64],
}

impl<'a> RectRef<'a> {
    #[inline]
    pub(crate) fn new(lo: &'a [f64], hi: &'a [f64]) -> Self {
        debug_assert_eq!(lo.len(), hi.len());
        RectRef { lo, hi }
    }

    /// Low corner.
    #[inline]
    pub fn lo(&self) -> &'a [f64] {
        self.lo
    }

    /// High corner.
    #[inline]
    pub fn hi(&self) -> &'a [f64] {
        self.hi
    }

    /// Minimum Euclidean distance from `p` to the rectangle, bit-identical
    /// to [`Rect::min_dist_point`] on the same corners.
    #[inline]
    pub fn min_dist_point(&self, p: &[f64]) -> f64 {
        coords_min_dist_point_sqr(self.lo, self.hi, p).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn r(lo: &[f64], hi: &[f64]) -> Rect {
        Rect::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn area_and_margin() {
        let b = r(&[0.0, 0.0], &[2.0, 3.0]);
        assert!((b.area() - 6.0).abs() < EPS);
        assert!((b.margin() - 5.0).abs() < EPS);
    }

    #[test]
    fn union_covers_both() {
        let a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[2.0, -1.0], &[3.0, 0.5]);
        let u = a.union(&b);
        assert!(coords_contain(u.lo(), u.hi(), a.lo(), a.hi()));
        assert!(coords_contain(u.lo(), u.hi(), b.lo(), b.hi()));
        assert_eq!(u.lo(), &[0.0, -1.0]);
        assert_eq!(u.hi(), &[3.0, 1.0]);
    }

    #[test]
    fn union_in_place_matches_union() {
        let mut a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[-1.0, 0.5], &[0.5, 2.0]);
        let u = a.union(&b);
        a.union_in_place(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = r(&[0.0, 0.0], &[4.0, 4.0]);
        let b = r(&[1.0, 1.0], &[2.0, 2.0]);
        assert!(a.enlargement(&b).abs() < EPS);
        assert!(b.enlargement(&a) > 0.0);
    }

    #[test]
    fn overlap_of_disjoint_is_zero() {
        let a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[2.0, 2.0], &[3.0, 3.0]);
        assert_eq!(a.overlap_area(&b), 0.0);
        assert!(!coords_intersect(a.lo(), a.hi(), b.lo(), b.hi()));
    }

    #[test]
    fn overlap_of_nested_is_inner_area() {
        let a = r(&[0.0, 0.0], &[4.0, 4.0]);
        let b = r(&[1.0, 1.0], &[2.0, 3.0]);
        assert!((a.overlap_area(&b) - b.area()).abs() < EPS);
    }

    #[test]
    fn touching_rectangles_intersect_with_zero_overlap() {
        let a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[1.0, 0.0], &[2.0, 1.0]);
        assert!(coords_intersect(a.lo(), a.hi(), b.lo(), b.hi()));
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn min_dist_point_cases() {
        let b = r(&[0.0, 0.0], &[2.0, 2.0]);
        assert_eq!(b.min_dist_point(&[1.0, 1.0]), 0.0);
        assert!((b.min_dist_point(&[3.0, 1.0]) - 1.0).abs() < EPS);
        assert!((b.min_dist_point(&[3.0, 3.0]) - 2f64.sqrt()).abs() < EPS);
    }

    #[test]
    fn min_dist_rect_cases() {
        let a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[3.0, 0.0], &[4.0, 1.0]);
        assert!((a.min_dist_rect(&b) - 2.0).abs() < EPS);
        let c = r(&[0.5, 0.5], &[5.0, 5.0]);
        assert_eq!(a.min_dist_rect(&c), 0.0);
    }

    #[test]
    fn center_dist() {
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        let b = r(&[4.0, 0.0], &[6.0, 2.0]);
        assert!((coords_center_dist_sqr(a.lo(), a.hi(), b.lo(), b.hi()) - 16.0).abs() < EPS);
    }

    #[test]
    fn point_rect_is_degenerate() {
        let p = Rect::point(&[1.0, -2.0, 3.0]);
        assert_eq!(p.area(), 0.0);
        assert_eq!(p.lo(), &[1.0, -2.0, 3.0]);
        assert_eq!(p.lo(), p.hi());
    }

    #[test]
    #[should_panic(expected = "inverted rectangle")]
    fn inverted_rejected() {
        let _ = r(&[1.0], &[0.0]);
    }

    /// The slice primitives and the `Rect` methods are one implementation;
    /// pin the delegation with value checks on both forms.
    #[test]
    fn coords_helpers_match_rect_methods() {
        let a = r(&[0.0, 1.0], &[3.0, 4.0]);
        let b = r(&[2.0, 0.0], &[5.0, 2.0]);
        assert_eq!(coords_area(a.lo(), a.hi()), a.area());
        assert_eq!(coords_margin(a.lo(), a.hi()), a.margin());
        assert_eq!(coords_overlap_area(a.lo(), a.hi(), b.lo(), b.hi()), a.overlap_area(&b));
        assert_eq!(coords_union_area(a.lo(), a.hi(), b.lo(), b.hi()), a.union_area(&b));
        let p = [6.0, 3.0];
        assert_eq!(coords_min_dist_point_sqr(a.lo(), a.hi(), &p).sqrt(), a.min_dist_point(&p));
    }

    #[test]
    fn coords_overlap_handles_touching_and_disjoint() {
        // Touching along one axis: overlap is zero (hi == lo short-circuit).
        assert_eq!(coords_overlap_area(&[0.0, 0.0], &[1.0, 1.0], &[1.0, 0.0], &[2.0, 1.0]), 0.0);
        // Fully disjoint.
        assert_eq!(coords_overlap_area(&[0.0], &[1.0], &[5.0], &[6.0]), 0.0);
        // Proper overlap: 1×1 square.
        let got = coords_overlap_area(&[0.0, 0.0], &[2.0, 2.0], &[1.0, 1.0], &[3.0, 3.0]);
        assert!((got - 1.0).abs() < EPS);
    }

    #[test]
    fn coords_min_dist_point_sqr_cases() {
        let (lo, hi) = ([0.0, 0.0], [2.0, 2.0]);
        assert_eq!(coords_min_dist_point_sqr(&lo, &hi, &[1.0, 1.0]), 0.0);
        assert!((coords_min_dist_point_sqr(&lo, &hi, &[3.0, 3.0]) - 2.0).abs() < EPS);
        assert!((coords_min_dist_point_sqr(&lo, &hi, &[-1.0, 1.0]) - 1.0).abs() < EPS);
    }

    /// Smoke-level pin of chunked-vs-scalar bit-identity on a box wider
    /// than one chunk; the exhaustive 256-case suite lives in
    /// `tests/geometry_equivalence.rs`.
    #[test]
    fn chunked_matches_scalar_reference() {
        let alo: Vec<f64> = (0..11).map(|i| i as f64 * 0.37 - 2.0).collect();
        let ahi: Vec<f64> = alo.iter().map(|l| l + 1.25).collect();
        let blo: Vec<f64> = (0..11).map(|i| (i as f64 * 0.91).sin()).collect();
        let bhi: Vec<f64> = blo.iter().map(|l| l + 0.75).collect();
        let p: Vec<f64> = (0..11).map(|i| (i as f64 * 1.3).cos() * 3.0).collect();
        assert_eq!(coords_area(&alo, &ahi).to_bits(), scalar::area(&alo, &ahi).to_bits());
        assert_eq!(coords_margin(&alo, &ahi).to_bits(), scalar::margin(&alo, &ahi).to_bits());
        assert_eq!(
            coords_intersect(&alo, &ahi, &blo, &bhi),
            scalar::intersect(&alo, &ahi, &blo, &bhi)
        );
        assert_eq!(coords_contain(&alo, &ahi, &blo, &bhi), scalar::contain(&alo, &ahi, &blo, &bhi));
        assert_eq!(
            coords_overlap_area(&alo, &ahi, &blo, &bhi).to_bits(),
            scalar::overlap_area(&alo, &ahi, &blo, &bhi).to_bits()
        );
        assert_eq!(
            coords_union_area(&alo, &ahi, &blo, &bhi).to_bits(),
            scalar::union_area(&alo, &ahi, &blo, &bhi).to_bits()
        );
        assert_eq!(
            coords_min_dist_point_sqr(&alo, &ahi, &p).to_bits(),
            scalar::min_dist_point_sqr(&alo, &ahi, &p).to_bits()
        );
    }
}
