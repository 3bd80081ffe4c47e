//! Bit-identity of the chunked geometry primitives against the naive
//! scalar reference.
//!
//! The `coords_*` scan primitives process bounds in fixed-width chunks;
//! the contract (see `geometry`'s module docs) is that on NaN-free,
//! negative-zero-free inputs they return **bit-for-bit** the values of
//! `geometry::scalar`. This suite pins that on 256 random boxes spanning
//! nine dimensionalities and several float-magnitude regimes (exercising
//! whole-chunk, remainder-only, and mixed chunk/remainder paths), plus a
//! deterministic adversarial fixture set: denormal extents, huge extents,
//! touching boundaries, degenerate points, and deeply nested boxes.

use proptest::prelude::*;
use stardust_index::geometry::{
    coords_area, coords_contain, coords_intersect, coords_margin, coords_min_dist_point_sqr,
    coords_overlap_area, coords_scan_intersecting, coords_scan_within, coords_union_area, scalar,
};

const MAX_DIMS: usize = 9;

/// Compares every primitive on one `(a, b, p)` input, bit-for-bit.
/// Returns the first mismatch as a description.
fn check_all(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64], p: &[f64]) -> Result<(), String> {
    let bits = |name: &str, got: f64, want: f64| -> Result<(), String> {
        if got.to_bits() == want.to_bits() {
            Ok(())
        } else {
            Err(format!("{name}: chunked {got:?} != scalar {want:?} (a=[{alo:?},{ahi:?}])"))
        }
    };
    bits("area", coords_area(alo, ahi), scalar::area(alo, ahi))?;
    bits("margin", coords_margin(alo, ahi), scalar::margin(alo, ahi))?;
    bits(
        "overlap_area",
        coords_overlap_area(alo, ahi, blo, bhi),
        scalar::overlap_area(alo, ahi, blo, bhi),
    )?;
    bits(
        "union_area",
        coords_union_area(alo, ahi, blo, bhi),
        scalar::union_area(alo, ahi, blo, bhi),
    )?;
    bits(
        "min_dist_point_sqr",
        coords_min_dist_point_sqr(alo, ahi, p),
        scalar::min_dist_point_sqr(alo, ahi, p),
    )?;
    if coords_intersect(alo, ahi, blo, bhi) != scalar::intersect(alo, ahi, blo, bhi) {
        return Err(format!("intersect diverged on a=[{alo:?},{ahi:?}] b=[{blo:?},{bhi:?}]"));
    }
    if coords_contain(alo, ahi, blo, bhi) != scalar::contain(alo, ahi, blo, bhi) {
        return Err(format!("contain diverged on a=[{alo:?},{ahi:?}] b=[{blo:?},{bhi:?}]"));
    }
    Ok(())
}

/// Coordinate values across magnitude regimes — everyday, near-denormal,
/// and huge — with `-0.0` normalized away (outside the bit-identity
/// contract: `max(-0.0, +0.0)` is sign-unspecified).
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -100.0f64..100.0,
        1 => (-1.0f64..1.0).prop_map(|x| x * 1e300),
        1 => (-1.0f64..1.0).prop_map(|x| x * 1e-300),
        1 => (0.0f64..1.0).prop_map(|x| x * f64::MIN_POSITIVE),
    ]
    .prop_map(|x| if x == 0.0 { 0.0 } else { x })
}

/// Nonnegative extents in the same regimes (zero extent = degenerate box).
fn extent() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => 0.0f64..50.0,
        1 => (0.0f64..1.0).prop_map(|x| x * 1e300),
        1 => (0.0f64..1.0).prop_map(|x| x * 1e-300),
        1 => (0.0f64..1.0).prop_map(|x| x * f64::MIN_POSITIVE),
    ]
}

fn box_corners(lo: &[f64], ext: &[f64], dims: usize) -> (Vec<f64>, Vec<f64>) {
    let lo = lo[..dims].to_vec();
    let hi: Vec<f64> = lo.iter().zip(&ext[..dims]).map(|(l, e)| l + e).collect();
    (lo, hi)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// 256 random cases × 7 primitives, spanning dims 1..=9 so every
    /// chunk/remainder split of the fixed-width loop is exercised.
    #[test]
    fn chunked_bit_identical_to_scalar(
        dims in 1usize..=MAX_DIMS,
        alo in proptest::collection::vec(coord(), MAX_DIMS),
        aext in proptest::collection::vec(extent(), MAX_DIMS),
        blo in proptest::collection::vec(coord(), MAX_DIMS),
        bext in proptest::collection::vec(extent(), MAX_DIMS),
        p in proptest::collection::vec(coord(), MAX_DIMS),
    ) {
        let (alo, ahi) = box_corners(&alo, &aext, dims);
        let (blo, bhi) = box_corners(&blo, &bext, dims);
        if let Err(e) = check_all(&alo, &ahi, &blo, &bhi, &p[..dims]) {
            prop_assert!(false, "{}", e);
        }
    }

    /// The batched node-scan kernels select exactly the entries the
    /// per-entry primitives select, across the monomorphized widths
    /// (1–4, 8, 16) and the runtime-dims fallback. A node is a flat
    /// interleaved block of entries; the scan's hit list must equal the
    /// entry-by-entry scalar walk, index for index.
    #[test]
    fn node_scan_matches_per_entry_primitives(
        dims in 1usize..=MAX_DIMS,
        los in proptest::collection::vec(proptest::collection::vec(coord(), MAX_DIMS), 1..20),
        exts in proptest::collection::vec(proptest::collection::vec(extent(), MAX_DIMS), 20),
        qlo in proptest::collection::vec(coord(), MAX_DIMS),
        qext in proptest::collection::vec(extent(), MAX_DIMS),
        p in proptest::collection::vec(coord(), MAX_DIMS),
        r in 0.0f64..200.0,
    ) {
        let mut coords = Vec::with_capacity(los.len() * 2 * dims);
        for (lo, ext) in los.iter().zip(&exts) {
            let (lo, hi) = box_corners(lo, ext, dims);
            coords.extend_from_slice(&lo);
            coords.extend_from_slice(&hi);
        }
        let (qlo, qhi) = box_corners(&qlo, &qext, dims);
        let p = &p[..dims];

        let mut scan_hits = Vec::new();
        coords_scan_intersecting(&coords, dims, &qlo, &qhi, |i| scan_hits.push(i));
        let entry_hits: Vec<usize> = coords
            .chunks_exact(2 * dims)
            .enumerate()
            .filter(|(_, e)| scalar::intersect(&e[..dims], &e[dims..], &qlo, &qhi))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(&scan_hits, &entry_hits, "intersecting scan diverged (dims={})", dims);

        let mut within_hits = Vec::new();
        coords_scan_within(&coords, dims, p, r, |i| within_hits.push(i));
        let entry_within: Vec<usize> = coords
            .chunks_exact(2 * dims)
            .enumerate()
            .filter(|(_, e)| scalar::min_dist_point_sqr(&e[..dims], &e[dims..], p).sqrt() <= r)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(&within_hits, &entry_within, "within scan diverged (dims={})", dims);
    }
}

/// Deterministic adversarial fixtures: NaN-free denormal and huge-extent
/// boxes, shared boundaries, and containment chains, swept across
/// dimensionalities on both sides of the chunk width.
#[test]
fn adversarial_boxes_bit_identical() {
    let tiny = f64::MIN_POSITIVE; // smallest normal
    let sub = 5e-324; // smallest subnormal
    for dims in [1usize, 2, 3, 4, 5, 7, 8, 9, 11, 16] {
        let fixtures: Vec<(Vec<f64>, Vec<f64>)> = vec![
            // Denormal extents at a denormal origin.
            (vec![sub; dims], (0..dims).map(|i| sub * (1.0 + i as f64)).collect()),
            // Denormal extents at a normal origin (extent vanishes in the sum).
            (vec![1.0; dims], (0..dims).map(|i| 1.0 + sub * i as f64).collect()),
            // Huge extents spanning most of the finite range.
            (vec![-8.0e307; dims], vec![8.0e307; dims]),
            // Huge origin, tiny extent.
            (vec![1.0e308; dims], (0..dims).map(|i| 1.0e308 + tiny * i as f64).collect()),
            // Unit box at the origin.
            (vec![0.0; dims], vec![1.0; dims]),
            // Degenerate point.
            (vec![2.5; dims], vec![2.5; dims]),
            // Mixed magnitudes per dimension.
            (
                (0..dims).map(|i| if i % 2 == 0 { -1.0e300 } else { sub }).collect(),
                (0..dims).map(|i| if i % 2 == 0 { 1.0e300 } else { 2.0 * sub }).collect(),
            ),
            // Touching the unit box along the first axis.
            (
                (0..dims).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect(),
                (0..dims).map(|i| if i == 0 { 2.0 } else { 1.0 }).collect(),
            ),
        ];
        let points: Vec<Vec<f64>> = vec![
            vec![0.5; dims],
            vec![-3.0e307; dims],
            vec![sub; dims],
            (0..dims).map(|i| i as f64 - 2.0).collect(),
        ];
        for (alo, ahi) in &fixtures {
            for (blo, bhi) in &fixtures {
                for p in &points {
                    check_all(alo, ahi, blo, bhi, p).unwrap();
                }
            }
        }
    }
}
