//! A flat point table banded on the first axis — the range index of the
//! correlation and trend monitors.
//!
//! Those two call sites index *points* (never boxes), hold at most a few
//! thousand of them, and rewrite the whole set every round; a balanced
//! tree never amortizes its maintenance there. [`PointTable`] stores each
//! point once in a flat coordinate block per **band** — a slab
//! `k·w ≤ x₀ < (k+1)·w` of the first axis — so an insert is an append,
//! `clear` keeps every allocation, and a radius query scans only the
//! bands the query ball reaches.
//!
//! # No false dismissals
//!
//! An entry within distance `r` of the query point differs from it by at
//! most `r` on axis 0, so it lies in a band between those of `p₀ − r`
//! and `p₀ + r`; the band key is monotone in `x₀`, so scanning that key
//! range visits it. With a band width `w ≥ r` the range is at most three
//! bands. Inside a band every entry's distance is computed in full, in
//! dimension order, with the arithmetic of
//! [`Rect::min_dist_point`](crate::Rect::min_dist_point) on a degenerate
//! box — selections and distances are bit-identical to an
//! [`RStarTree`](crate::RStarTree) over the same points (pinned by
//! `tests/point_table_equivalence.rs`).

use crate::geometry::coords_intersect;

/// Relative widening of a radius query's axis-0 reach. The distance test
/// runs on rounded differences (`fl(e₀ − p₀)` can equal `r` while `e₀`
/// sits an ulp outside `[p₀ − r, p₀ + r]`), so the band range is taken
/// over a reach a few thousand ulps wider than `r`; it costs an extra
/// band only for queries within that margin of a band edge.
const REACH_SLACK: f64 = 1e-12;

/// One axis-0 slab: `coords` holds `values.len()` points of `dims`
/// coordinates each, in push order.
#[derive(Debug, Clone)]
struct Band<T> {
    key: i64,
    coords: Vec<f64>,
    values: Vec<T>,
}

/// A multiset of `dims`-dimensional points with payloads, banded on
/// axis 0 for radius and box queries.
///
/// ```
/// use stardust_index::PointTable;
///
/// let mut table = PointTable::new(2, 0.5);
/// table.push(&[0.1, 0.2], 'a');
/// table.push(&[0.9, 0.2], 'b');
/// let mut near = Vec::new();
/// table.scan_within(&[0.0, 0.2], 0.25, |&v, d| near.push((v, d)));
/// assert_eq!(near, vec![('a', 0.1)]);
/// ```
#[derive(Debug, Clone)]
pub struct PointTable<T> {
    dims: usize,
    band_width: f64,
    /// Sorted by key; a band stays (empty, capacity kept) once created.
    bands: Vec<Band<T>>,
    len: usize,
}

impl<T> PointTable<T> {
    /// An empty table over `dims`-dimensional points with axis-0 bands of
    /// width `band_width`. Choose the width at least the largest query
    /// radius so a query scans at most three bands; `f64::INFINITY`
    /// gives a single band (a plain scan in push order).
    ///
    /// # Panics
    /// Panics if `dims` is zero or `band_width` is not positive.
    pub fn new(dims: usize, band_width: f64) -> Self {
        assert!(dims >= 1, "points need at least one dimension");
        assert!(band_width > 0.0, "band width must be positive");
        PointTable { dims, band_width, bands: Vec::new(), len: 0 }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no point is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Band key of an axis-0 coordinate: monotone non-decreasing in `x`
    /// (correctly rounded division, floor, and the saturating cast all
    /// are), which is all the range scans rely on.
    fn key(&self, x: f64) -> i64 {
        (x / self.band_width).floor() as i64
    }

    /// The bands with keys in `key(lo) ..= key(hi)`.
    fn bands_between(&self, lo: f64, hi: f64) -> &[Band<T>] {
        let (klo, khi) = (self.key(lo), self.key(hi));
        let start = self.bands.partition_point(|b| b.key < klo);
        let end = self.bands.partition_point(|b| b.key <= khi);
        &self.bands[start..end.max(start)]
    }

    /// Adds a point.
    ///
    /// # Panics
    /// Panics if `point` does not have `dims` coordinates.
    pub fn push(&mut self, point: &[f64], value: T) {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        let key = self.key(point[0]);
        let at = self.bands.partition_point(|b| b.key < key);
        if self.bands.get(at).is_none_or(|b| b.key != key) {
            self.bands.insert(at, Band { key, coords: Vec::new(), values: Vec::new() });
        }
        let band = &mut self.bands[at];
        band.coords.extend_from_slice(point);
        band.values.push(value);
        self.len += 1;
    }

    /// Removes every point, keeping the bands' allocations.
    pub fn clear(&mut self) {
        for band in &mut self.bands {
            band.coords.clear();
            band.values.clear();
        }
        self.len = 0;
    }

    /// Keeps only the points whose payload satisfies `keep`, preserving
    /// the relative order of the survivors.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let dims = self.dims;
        for band in &mut self.bands {
            let coords = &mut band.coords;
            // `Vec::retain` judges each payload once, in order; its
            // coordinates are compacted in step.
            let (mut read, mut write) = (0, 0);
            band.values.retain(|v| {
                let kept = keep(v);
                if kept {
                    if write != read {
                        coords.copy_within(read * dims..(read + 1) * dims, write * dims);
                    }
                    write += 1;
                }
                read += 1;
                kept
            });
            coords.truncate(write * dims);
            self.len -= read - write;
        }
    }

    /// Every stored point with its payload: bands in axis-0 order, push
    /// order within a band.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], &T)> {
        self.bands.iter().flat_map(|b| b.coords.chunks_exact(self.dims).zip(&b.values))
    }

    /// Visits the payload and distance of every point within Euclidean
    /// distance `r` of `point`: bands in axis-0 order, push order within
    /// a band.
    ///
    /// # Panics
    /// Panics if `point` does not have `dims` coordinates or `r` is
    /// negative.
    pub fn scan_within<'a>(&'a self, point: &[f64], r: f64, mut visit: impl FnMut(&'a T, f64)) {
        assert_eq!(point.len(), self.dims, "query dimensionality mismatch");
        assert!(r >= 0.0, "radius must be nonnegative");
        let reach = r + (r + point[0].abs()) * REACH_SLACK;
        for band in self.bands_between(point[0] - reach, point[0] + reach) {
            for (entry, value) in band.coords.chunks_exact(self.dims).zip(&band.values) {
                // `coords_min_dist_point_sqr(entry, entry, point)` for a
                // point entry: `|e − p|` is what its two one-sided clamps
                // add up to, so the bits agree — at half the arithmetic,
                // worth 10–15 % of a round at 8 k entries.
                let mut acc = 0.0;
                for (e, p) in entry.iter().zip(point) {
                    let d = e - p;
                    acc += d * d;
                }
                let dist = acc.sqrt();
                if dist <= r {
                    visit(value, dist);
                }
            }
        }
    }

    /// Visits the payload of every point inside the closed box
    /// `[lo, hi]`, in the order of [`Self::scan_within`].
    ///
    /// # Panics
    /// Panics if the corners do not have `dims` coordinates.
    pub fn scan_in_box<'a>(&'a self, lo: &[f64], hi: &[f64], mut visit: impl FnMut(&'a T)) {
        assert_eq!(lo.len(), self.dims, "query dimensionality mismatch");
        assert_eq!(hi.len(), self.dims, "query dimensionality mismatch");
        for band in self.bands_between(lo[0], hi[0]) {
            for (entry, value) in band.coords.chunks_exact(self.dims).zip(&band.values) {
                if coords_intersect(lo, hi, entry, entry) {
                    visit(value);
                }
            }
        }
    }
}
